//! Property suites for ext3's checker: on every image — healthy or
//! corrupted, stock ext3 or ixt3 with its parity blocks and metadata
//! mirror — `iron_ext3::fsck::check` must not panic and must report the
//! identical issue list when asked twice.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure prints its case
//! seed and reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

mod common;

use common::{build_image, check_twice, corrupt_block, profiles, victims, Lcg};
use iron_ext3::IronConfig;
use iron_testkit::gen;
use iron_testkit::prop::{check as prop_check, Config};

/// Corrupt `n` typed blocks chosen by `seed`, returning the damaged image.
fn damaged_image(
    n: usize,
    seed: u64,
    iron: IronConfig,
) -> (iron_blockdev::MemDisk, iron_ext3::DiskLayout) {
    let (mut dev, layout) = build_image(12, 5_000, iron);
    let classes = victims(&dev, &layout);
    let mut rng = Lcg(seed ^ 0xD1FF_95EE);
    for _ in 0..n {
        let (_, addrs) = &classes[rng.next() as usize % classes.len()];
        if addrs.is_empty() {
            continue;
        }
        let addr = addrs[rng.next() as usize % addrs.len()];
        corrupt_block(&mut dev, addr, rng.next(), rng.next());
    }
    (dev, layout)
}

#[test]
fn damaged_images_check_deterministically() {
    let inputs = (gen::usize_in(1..6), gen::u64_in(0..1 << 62));
    prop_check(
        "damaged_images_check_deterministically",
        Config::cases(24),
        &inputs,
        |&(n, seed)| {
            for (profile, iron) in profiles() {
                let (dev, layout) = damaged_image(n, seed, iron);
                check_twice(&dev, &layout, profile);
            }
        },
    );
}

#[test]
fn healthy_image_is_clean() {
    for (profile, iron) in profiles() {
        let (dev, layout) = build_image(12, 5_000, iron);
        let report = check_twice(&dev, &layout, profile);
        assert!(report.is_clean(), "{profile}: {:?}", report.issues);
    }
}

/// Exhaustive per-class sweep: one corruption of every victim class, each
/// style, under each profile, checked twice. Deterministic companion to
/// the seeded property above.
#[test]
fn every_victim_class_checks_deterministically() {
    for (profile, iron) in profiles() {
        for class_idx in 0..7 {
            for style in 0..4u64 {
                let (mut dev, layout) = build_image(9, 5_000, iron);
                let classes = victims(&dev, &layout);
                let (name, addrs) = &classes[class_idx];
                let addr = addrs[addrs.len() / 2];
                corrupt_block(&mut dev, addr, style, 0x5EED ^ (style << 32) ^ addr);
                let ctx = format!("{profile} class={name} style={style}");
                check_twice(&dev, &layout, &ctx);
            }
        }
    }
}
