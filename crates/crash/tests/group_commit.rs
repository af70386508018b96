//! Crash-state enumeration over the batched (group-commit) journal path.
//!
//! The pipelined commit profile closes several running transactions into
//! one batch and commits them under a single descriptor chain, commit
//! block, and barrier pair. These campaigns prove that restructuring
//! changed the *timing* of the commit path, not its crash semantics:
//!
//! * ixt3 with the pipelined profile stays clean on all four oracles,
//!   over both the standard workloads and the batched-commit family;
//! * the enumerator still catches a broken batch — mounted over a
//!   drive that drops the barrier before each commit block
//!   (`common::LyingDrive`), the batch's journal data and its commit
//!   block share a barrier epoch, so some in-epoch subsets show a
//!   validated commit over missing data;
//! * reports stay bit-identical at any worker-thread count.

mod common;

use common::LyingDrive;
use iron_blockdev::{IoLog, Recorder};
use iron_crash::{
    batch_workloads, run_crash_campaign, run_workload, standard_workloads, CrashCampaignOptions,
    CrashReport, EnumOptions, OracleKind,
};
use iron_ext3::{Ext3Fs, Ext3Options, IronConfig};
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_vfs::{FsEnv, SpecificFs, Vfs};

fn campaign(fs: &dyn FsUnderTest, wl: &iron_crash::CrashWorkload) -> CrashReport {
    campaign_at(fs, wl, 0)
}

fn campaign_at(
    fs: &dyn FsUnderTest,
    wl: &iron_crash::CrashWorkload,
    threads: usize,
) -> CrashReport {
    run_crash_campaign(
        fs,
        wl,
        &CrashCampaignOptions {
            enumeration: EnumOptions::default(),
            threads,
        },
    )
}

fn dump(r: &CrashReport) -> String {
    r.violations
        .iter()
        .map(|v| format!("  {v}\n"))
        .collect::<String>()
}

/// ixt3 mounted with the pipelined profile (group commit + lagged
/// checkpointing) must recover every crash image cleanly — on the
/// standard suite *and* the batched-commit family.
#[test]
fn pipelined_ixt3_passes_all_oracles_on_every_workload() {
    let fs = Ext3Adapter::ixt3().pipelined();
    assert_eq!(fs.name(), "ixt3-pipelined");
    for w in standard_workloads().iter().chain(&batch_workloads()) {
        let r = campaign(&fs, w);
        assert!(r.images_checked > 0, "{}: no images enumerated", w.name);
        assert!(
            r.is_clean(),
            "ixt3-pipelined/{} must recover every crash image cleanly; got:\n{}",
            w.name,
            dump(&r)
        );
    }
}

/// The batched workloads really do batch. A merged batch is logged as
/// one unit — one descriptor chain, one commit block, one barrier pair —
/// so the observable is the *commit count*: two mounts run the same ops
/// with the same commit threshold, differing only in `group_commit`, and
/// the batched mount must close strictly fewer commit blocks (and issue
/// strictly fewer barriers) than the one-transaction-per-commit mount.
#[test]
fn pipelined_profile_actually_merges_transactions() {
    let base = Ext3Adapter::ixt3().pipelined().golden(false);
    let commits_and_barriers = |group_commit: usize| {
        let opts = Ext3Options {
            commit_threshold: 6,
            group_commit,
            checkpoint_lag: 48,
            ..Ext3Options::with_iron(IronConfig::full())
        };
        let log = IoLog::new();
        let fs = Ext3Fs::mount(
            Recorder::with_log(base.snapshot(), log.clone()),
            FsEnv::new(),
            opts,
        )
        .expect("mount");
        let mounted: Box<dyn SpecificFs> = Box::new(fs);
        run_workload(&mut Vfs::new(mounted), &batch_workloads()[0], &log).expect("workload");
        let snap = log.snapshot();
        let commits = snap
            .records
            .iter()
            .filter(|r| r.tag.0 == "j-commit")
            .count();
        (commits, snap.epoch_count())
    };
    let (unbatched, epochs_unbatched) = commits_and_barriers(1);
    let (batched, epochs_batched) = commits_and_barriers(4);
    assert!(batched > 0, "batched mount must commit");
    assert!(
        batched < unbatched,
        "group commit must merge transactions: {batched} commit blocks \
         batched vs {unbatched} unbatched"
    );
    assert!(
        epochs_batched < epochs_unbatched,
        "merging must also save barrier epochs: {epochs_batched} batched \
         vs {epochs_unbatched} unbatched"
    );
}

/// Stock ext3 on the pipelined profile shows the same violation classes
/// it always has (the checkpoint hazard) and nothing new: batching the
/// commit path introduces no additional oracle class.
#[test]
fn pipelined_stock_ext3_introduces_no_new_violation_class() {
    let fs = Ext3Adapter::stock().pipelined();
    assert_eq!(fs.name(), "ext3-pipelined");
    for w in standard_workloads().iter().chain(&batch_workloads()) {
        let r = campaign(&fs, w);
        for v in &r.violations {
            assert!(
                matches!(v.oracle, OracleKind::FsckClean | OracleKind::Atomicity),
                "ext3-pipelined/{}: unexpected oracle class: {v}",
                w.name
            );
        }
    }
}

/// Stock ext3 plus `fix_bugs`, pipelined: no transactional checksum, so
/// commit uses the classic two-barrier protocol and its safety rests on
/// the pre-commit barrier.
fn fixed_pipelined() -> Ext3Adapter {
    Ext3Adapter {
        iron: IronConfig {
            fix_bugs: true,
            ..IronConfig::off()
        },
        ..Ext3Adapter::stock()
    }
    .pipelined()
}

/// A broken batch — journal data and its commit block in one barrier
/// epoch — must be caught. The reference configuration is clean on the
/// batch workloads; mounting it over a drive that drops the pre-commit
/// barrier makes in-epoch subsets validate a commit whose data never
/// landed, and the oracles must flag it on every batch workload.
#[test]
fn enumerator_catches_a_deliberately_broken_batch() {
    let fixed = fixed_pipelined();
    let broken = LyingDrive(fixed_pipelined());

    for w in &batch_workloads() {
        let ok = campaign(&fixed, w);
        assert!(
            ok.is_clean(),
            "fixed pipelined config must be clean on {}; got:\n{}",
            w.name,
            dump(&ok)
        );
        let bad = campaign(&broken, w);
        assert!(
            !bad.is_clean(),
            "{}: the enumerator must flag a batch whose commit block shares \
             an epoch with its data",
            w.name
        );
        // The lost barrier only tears *inside* the commit epoch, so every
        // violation must come from a sampled in-epoch subset — pure
        // epoch-prefix images (every forwarded barrier honored) still
        // recover, exactly as a barrier-ordering fault should behave.
        assert!(
            bad.violations.iter().all(|v| !v.image.subset.is_empty()),
            "{}: the dropped barrier must only show under in-epoch tearing:\n{}",
            w.name,
            dump(&bad)
        );
    }
}

/// Bit-identity of the batched campaigns at any worker width, over the
/// lying drive (it carries violations, so merge *order* is tested, not
/// just counts).
#[test]
fn batched_reports_are_bit_identical_at_any_thread_count() {
    let broken = LyingDrive(fixed_pipelined());
    let batch = batch_workloads();
    let baseline = campaign_at(&broken, &batch[0], 1);
    for threads in [2usize, 4, 8] {
        let r = campaign_at(&broken, &batch[0], threads);
        assert_eq!(
            r, baseline,
            "threads={threads} batched report must match sequential"
        );
    }
}
