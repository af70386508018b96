//! The generated (ACE-style) crash campaign, in the default test tier.
//!
//! Three layers of guarantee:
//!
//! 1. **The generator is pure and pinned**: generation is a pure
//!    function — bit-identical across runs and across threads — and the
//!    family is pinned by size and by a digest of its names. Legality is
//!    replay on `RamFs`, the same model the shadow runs, so there is no
//!    second simulator to hold against it.
//! 2. **The seq-2 family recovers per the matrix**: ixt3 (default and
//!    pipelined) passes every oracle on every generated crash image;
//!    the commodity models exhibit *only* their known hazard classes.
//! 3. **Reports are deterministic**: the campaign report is
//!    bit-identical at 1/2/4/8 worker threads.
//!
//! The full seq-3 family runs in the `IRON_STRESS=1` lane
//! (`--ignored`).

mod common;

use common::LyingDrive;
use iron_blockdev::IoLog;
use iron_crash::{
    generate_workloads, run_generated_campaign, run_workload, CrashCampaignOptions, CrashOp,
    CrashWorkload, GenOptions, GeneratedCampaignReport, OracleKind,
};
use iron_fingerprint::{Ext3Adapter, FsUnderTest, JfsAdapter, NtfsAdapter, ReiserAdapter};
use iron_vfs::ramfs::RamFs;
use iron_vfs::{SpecificFs, Vfs};

// ======================================================================
// Generator soundness
// ======================================================================

#[test]
fn generation_is_pure_and_bounded() {
    let seq2 = generate_workloads(&GenOptions::seq2());
    let seq3 = generate_workloads(&GenOptions::seq3());

    // Bit-identical across runs...
    assert_eq!(seq2, generate_workloads(&GenOptions::seq2()));
    assert_eq!(seq3, generate_workloads(&GenOptions::seq3()));
    // ...and across threads (generation is a pure function; nothing in it
    // may depend on scheduling).
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| generate_workloads(&GenOptions::seq3())))
        .collect();
    for h in handles {
        assert_eq!(h.join().expect("generator thread"), seq3);
    }

    // The family size is pinned exactly: it may only change with the
    // vocabulary, the namespace, or the pruning rules — all of which are
    // semantic changes this test forces to be deliberate.
    assert_eq!(seq2.len(), 39, "seq-2 family size");
    assert_eq!(seq3.len(), 369, "seq-2+3 family size");

    // Names are unique and are complete replay recipes.
    let names: std::collections::BTreeSet<&str> = seq3.iter().map(|w| w.name.as_ref()).collect();
    assert_eq!(names.len(), seq3.len(), "workload names collide");

    // The family is pinned by content too: a change to legality that
    // swaps one sequence for another keeps the sizes and moves this.
    let joined = seq3
        .iter()
        .map(|w| w.name.as_ref())
        .collect::<Vec<&str>>()
        .join("\n");
    assert_eq!(
        iron_core::hash::digest64(joined.as_bytes()),
        0x7e3f_3809_e018_5cd2,
        "seq-3 family names"
    );

    // The seq-2 family is a strict subset of the seq-3 family.
    for w in &seq2 {
        assert!(seq3.contains(w), "{} missing from the seq-3 family", w.name);
    }
}

/// The `create_once` soundness fix: a path removed with `rmdir` and
/// recreated as a written-once *file* reuses a namespace entry and must
/// NOT qualify for the strict create-atomicity oracle — recovery may
/// legitimately resurface the old directory.
#[test]
fn rmdir_then_recreate_disqualifies_create_once() {
    let w = CrashWorkload::new(
        "rmdir-reuse",
        vec![
            CrashOp::mkdir("/crash"),
            CrashOp::mkdir("/crash/x"),
            CrashOp::rmdir("/crash/x"),
            CrashOp::write("/crash/x", 100, 0x5A),
            CrashOp::Sync,
        ],
    );
    let mut v: Vfs<Box<dyn SpecificFs>> = Vfs::new(Box::new(RamFs::new()));
    let shadow = run_workload(&mut v, &w, &IoLog::new()).expect("script runs");
    assert!(
        shadow.ever_dirs.contains("/crash/x"),
        "the path was once a directory"
    );
    assert!(
        shadow.versions.get("/crash/x").map(Vec::len) == Some(1),
        "the file content was written exactly once"
    );
    assert!(
        !shadow.create_once.contains("/crash/x"),
        "a namespace-reused path must not be create-once"
    );
}

// ======================================================================
// The seq-2 campaign matrix
// ======================================================================

fn seq2_campaign(fs: &dyn FsUnderTest) -> GeneratedCampaignReport {
    run_generated_campaign(
        fs,
        &generate_workloads(&GenOptions::seq2()),
        &CrashCampaignOptions::default(),
    )
}

fn dump(r: &GeneratedCampaignReport) -> String {
    r.violations
        .iter()
        .map(|v| format!("  {v}\n"))
        .collect::<String>()
}

fn assert_classes(r: &GeneratedCampaignReport, allowed: &[OracleKind]) {
    for v in &r.violations {
        assert!(
            allowed.contains(&v.oracle),
            "{}: unexpected oracle class: {v}",
            r.fs
        );
    }
    // Pure epoch-prefix images (every barrier honored, no in-epoch
    // tearing) must recover cleanly on every model — anything else is a
    // plain bug, not a documented hazard (EXPERIMENTS.md).
    for v in &r.violations {
        assert!(
            !v.image.subset.is_empty(),
            "{}: pure-prefix image violated an oracle: {v}",
            r.fs
        );
    }
}

#[test]
fn ixt3_recovers_every_generated_crash_image() {
    for fs in [Ext3Adapter::ixt3(), Ext3Adapter::ixt3().pipelined()] {
        let r = seq2_campaign(&fs);
        assert!(r.images_checked > 500, "{}: too few images", r.fs);
        assert!(
            r.is_clean(),
            "{} must recover every generated crash image; got:\n{}",
            r.fs,
            dump(&r)
        );
    }
}

#[test]
fn stock_ext3_generated_family_shows_only_the_known_hazards() {
    let r = seq2_campaign(&Ext3Adapter::stock());
    assert_classes(&r, &[OracleKind::FsckClean, OracleKind::Atomicity]);
    assert!(
        !r.violations.is_empty(),
        "the generated family must still expose stock ext3's checkpoint hazard"
    );
    // The pipelined profile batches the whole two-op script into one
    // open transaction, so every crash image is either pre-commit
    // (empty, atomic) or post-checkpoint: group commit *is*
    // crash-atomicity for short bursts. Pinned clean — this is also one
    // half of the legacy-group-commit discriminator below.
    let rp = seq2_campaign(&Ext3Adapter::stock().pipelined());
    assert!(
        rp.is_clean(),
        "pipelined stock ext3 must recover every generated seq-2 image; got:\n{}",
        dump(&rp)
    );
}

#[test]
fn reiser_generated_family_shows_only_the_checkpoint_hazard() {
    let r = seq2_campaign(&ReiserAdapter);
    assert_classes(&r, &[OracleKind::FsckClean]);
    assert!(
        !r.violations.is_empty(),
        "the generated family must still expose ReiserFS's checkpoint hazard"
    );
}

#[test]
fn jfs_generated_family_shows_torn_creates_and_fsck_dirt() {
    let r = seq2_campaign(&JfsAdapter);
    assert_classes(&r, &[OracleKind::FsckClean, OracleKind::Atomicity]);
    assert!(
        r.violations
            .iter()
            .any(|v| v.detail.contains("torn create")),
        "JFS (no commit marker) must show torn creates; got:\n{}",
        dump(&r)
    );
}

#[test]
fn ntfs_generated_family_fails_only_for_want_of_recovery() {
    // The NTFS model has no journal recovery (the paper's NTFS analysis
    // is explicitly partial), so crash images surface as unmountable
    // volumes or torn creates — never durability or idempotence faults.
    let r = seq2_campaign(&NtfsAdapter);
    assert_classes(&r, &[OracleKind::FsckClean, OracleKind::Atomicity]);
    assert!(
        !r.violations.is_empty(),
        "a model with no recovery cannot pass a crash campaign"
    );
}

// ======================================================================
// Sensitivity: the generated family rediscovers seeded legacy bugs
// ======================================================================

/// The group-commit ordering bug (journal data and its commit block in
/// one barrier epoch), reproduced beneath the file system by a drive that
/// drops the barrier before each commit block — the hand-written batch
/// family catches it; the generated seq-2 family catches it too, sharply:
/// the fixed pipelined profile is clean on every generated image, the
/// same profile over the lying drive is not.
#[test]
fn generated_family_catches_the_legacy_group_commit_bug() {
    let buggy = seq2_campaign(&LyingDrive(Ext3Adapter::stock().pipelined()));
    assert!(
        !buggy.is_clean(),
        "the generated family must expose a commit block sharing an epoch \
         with its data"
    );
    // `stock_ext3_generated_family_shows_only_the_known_hazards` pins the
    // fixed pipelined profile clean; together the pair is the
    // discriminator.
}

/// The minimized witness the seq-3 family produced for the PR-1
/// revoke/forget bugs: `mkdir d0; rmdir d0; write f0` with a trailing
/// sync — the freed directory block is reallocated as file data and, with
/// the legacy knob on, clobbered by stale journal replay even on a
/// fully-durable pure-prefix image. The hand-written `free_reuse`
/// workload needed 12 ops to say the same thing; the generator found the
/// 3-op program. With the knob off, every pure-prefix image of the same
/// program recovers cleanly.
#[test]
fn minimized_witness_rmdir_reuse_replays_the_revoke_hazard() {
    let w = iron_crash::find_generated(&GenOptions::seq3(), "g3#00.12.02-trail")
        .expect("the witness workload must stay in the generated family");
    let opts = CrashCampaignOptions::default();

    let buggy = run_generated_campaign(
        &Ext3Adapter::stock().with_legacy_journal_bugs(),
        std::slice::from_ref(&w),
        &opts,
    );
    assert!(
        buggy.violations.iter().any(|v| v.image.subset.is_empty()),
        "legacy revoke/forget bugs must corrupt a pure-prefix image of the \
         minimal free-reuse program; got:\n{}",
        dump(&buggy)
    );

    let fixed = run_generated_campaign(&Ext3Adapter::stock(), std::slice::from_ref(&w), &opts);
    assert!(
        fixed.violations.iter().all(|v| !v.image.subset.is_empty()),
        "fixed ext3 must recover every pure-prefix image of the witness; got:\n{}",
        dump(&fixed)
    );
}

#[test]
fn generated_campaign_report_is_bit_identical_at_any_width() {
    let wl = generate_workloads(&GenOptions::seq2());
    let fs = Ext3Adapter::stock();
    let reports: Vec<GeneratedCampaignReport> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            run_generated_campaign(
                &fs,
                &wl,
                &CrashCampaignOptions {
                    threads,
                    ..CrashCampaignOptions::default()
                },
            )
        })
        .collect();
    for r in &reports[1..] {
        assert_eq!(
            *r, reports[0],
            "campaign report must not depend on worker count"
        );
    }
}

// ======================================================================
// The full seq-3 family — stress lane (IRON_STRESS=1 runs --ignored)
// ======================================================================

fn seq3_campaign(fs: &dyn FsUnderTest) -> GeneratedCampaignReport {
    run_generated_campaign(
        fs,
        &generate_workloads(&GenOptions::seq3()),
        &CrashCampaignOptions::default(),
    )
}

#[test]
#[ignore = "full seq-3 campaign; run via IRON_STRESS=1 ./ci.sh"]
fn seq3_ixt3_recovers_every_crash_image() {
    for fs in [Ext3Adapter::ixt3(), Ext3Adapter::ixt3().pipelined()] {
        let r = seq3_campaign(&fs);
        assert!(
            r.is_clean(),
            "{} must recover every seq-3 crash image; got:\n{}",
            r.fs,
            dump(&r)
        );
    }
}

#[test]
#[ignore = "full seq-3 campaign; run via IRON_STRESS=1 ./ci.sh"]
fn seq3_stock_ext3_shows_only_the_known_hazards() {
    for fs in [Ext3Adapter::stock(), Ext3Adapter::stock().pipelined()] {
        let r = seq3_campaign(&fs);
        assert_classes(&r, &[OracleKind::FsckClean, OracleKind::Atomicity]);
    }
}

#[test]
#[ignore = "full seq-3 campaign; run via IRON_STRESS=1 ./ci.sh"]
fn seq3_reiser_shows_only_the_checkpoint_hazard() {
    assert_classes(&seq3_campaign(&ReiserAdapter), &[OracleKind::FsckClean]);
}

#[test]
#[ignore = "full seq-3 campaign; run via IRON_STRESS=1 ./ci.sh"]
fn seq3_jfs_shows_only_the_known_hazards() {
    assert_classes(
        &seq3_campaign(&JfsAdapter),
        &[OracleKind::FsckClean, OracleKind::Atomicity],
    );
}

#[test]
#[ignore = "full seq-3 campaign; run via IRON_STRESS=1 ./ci.sh"]
fn seq3_ntfs_fails_only_for_want_of_recovery() {
    assert_classes(
        &seq3_campaign(&NtfsAdapter),
        &[OracleKind::FsckClean, OracleKind::Atomicity],
    );
}
