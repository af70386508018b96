//! Crash-image coverage: images left behind by a crash — committed but
//! unreplayed transactions, torn journals, corrupted log blocks — go
//! through ext3's checker *without recovery first*. The checker must
//! never panic and must be deterministic across runs. (Whether the image is *clean* is not asserted: an
//! unrecovered crash image is legitimately inconsistent — that is what
//! recovery is for.)
//!
//! Runs on the in-tree `iron-testkit` harness: a failure prints its case
//! seed and reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

mod common;

use common::{check_and_repair, check_twice};
use iron_blockdev::{MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_ext3::fsck::{check, Ext3Image};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_fsck::RepairPlan;
use iron_testkit::gen;
use iron_testkit::prop::{check as prop_check, Config};
use iron_vfs::{FsEnv, Vfs};

/// Build a crashed image: `n_txns` committed-but-unflushed transactions
/// (the journal holds them; the home locations were never checkpointed).
fn crashed_image(n_txns: usize) -> (MemDisk, iron_ext3::DiskLayout) {
    let params = Ext3Params::small();
    let mut dev = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut dev, params).unwrap();
    let opts = Ext3Options {
        iron: IronConfig::off(),
        checkpoint_lag: usize::MAX,
        ..Default::default()
    };
    let fs = Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap();
    let layout = *fs.layout();
    let mut v = Vfs::new(fs);
    for i in 0..n_txns {
        v.mkdir(&format!("/t{i}"), 0o755).unwrap();
        v.write_file(&format!("/t{i}/f"), &vec![i as u8; 2000])
            .unwrap();
        v.sync().unwrap();
    }
    (v.into_fs().into_device(), layout)
}

#[test]
fn unrecovered_crash_images_are_checked_deterministically() {
    let inputs = (
        gen::usize_in(0..4),
        gen::usize_in(0..4096),
        gen::u8_in(1..255),
    );
    prop_check(
        "unrecovered_crash_images_are_checked_deterministically",
        Config::cases(16),
        &inputs,
        |&(txns, victim_off, bits)| {
            // Plain crash.
            let (dev, layout) = crashed_image(txns);
            check_twice(&dev, &layout, "plain crash");

            // Crash plus a corrupted journal block (torn log write):
            // fsck reads the journal region only through the bitmap
            // reconciliation, but the image must still check cleanly
            // deterministically.
            let (mut dev, layout) = crashed_image(txns.max(1));
            let mut target = None;
            for a in layout.journal_start..layout.journal_start + layout.journal_len {
                if !dev.peek(BlockAddr(a)).is_zeroed() {
                    target = Some(a);
                    break;
                }
            }
            if let Some(a) = target {
                let mut b = dev.peek(BlockAddr(a));
                b[victim_off] ^= bits;
                dev.poke(BlockAddr(a), &b);
            }
            check_twice(&dev, &layout, "torn journal");
        },
    );
}

/// A crashed image that *is* inconsistent on disk (metadata updates
/// parked in the journal): repair must fix the fixable classes and leave
/// exactly the deferred set — even before recovery.
#[test]
fn crash_image_repair_reaches_a_fixpoint() {
    let (dev, layout) = crashed_image(3);
    let mut img = Ext3Image::new(dev, layout);
    let (before, summary, after) = check_and_repair(&mut img, None).unwrap();
    let plan = RepairPlan::new(&before.issues);
    assert_eq!(summary.applied, plan.fixable());
    assert!(
        after.same_issues(&plan.deferred_issues()),
        "{:?}",
        after.issues
    );
    let (_, s2, a2) = check_and_repair(&mut img, None).unwrap();
    assert_eq!(s2.applied, 0);
    assert_eq!(a2.issues, after.issues);
}

/// Recovery-then-check: after a proper journal replay the image is clean.
#[test]
fn recovered_crash_image_is_clean() {
    let (dev, layout) = crashed_image(3);
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let dev = fs.into_device();
    assert!(check(&dev, &layout).is_clean());
}
