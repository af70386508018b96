//! The crash-state oracle matrix, in the default test tier.
//!
//! Every cell here is a full campaign: record a workload over a golden
//! image, enumerate the bounded crash-image set, recover each image and
//! run all four durability oracles. The expectations encode the matrix
//! `EXPERIMENTS.md` documents:
//!
//! * ixt3 passes every oracle on every workload;
//! * stock ext3 and ReiserFS exhibit the journal-superblock-clean /
//!   partial-checkpoint hazard (fsck-clean violations, occasionally
//!   atomicity phantoms from replayed-then-torn checkpoints);
//! * JFS (metadata-only journaling, no ordered data, no commit marker)
//!   exhibits torn creates and partial log-record application.
//!
//! If a violation class *disappears* these tests fail too: the harness
//! proving the hazards exist is the regression guard for the harness
//! itself.

use iron_blockdev::{IoLog, Recorder};
use iron_core::checksum::sha1;
use iron_core::hash::digest64;
use iron_crash::{
    check_image, enumerate_images, run_crash_campaign, run_workload, standard_workloads,
    CrashCampaignOptions, CrashOp, CrashReport, CrashWorkload, EnumOptions, OracleKind,
};
use iron_fingerprint::{Ext3Adapter, FsUnderTest, JfsAdapter, ReiserAdapter};
use iron_vfs::ramfs::RamFs;
use iron_vfs::{FsEnv, SpecificFs, Vfs};

fn campaign(fs: &dyn FsUnderTest, wl_index: usize, threads: usize) -> CrashReport {
    run_crash_campaign(
        fs,
        &standard_workloads()[wl_index],
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

#[test]
fn ixt3_passes_all_oracles_on_every_workload() {
    let fs = Ext3Adapter::ixt3();
    for (i, w) in standard_workloads().iter().enumerate() {
        let r = campaign(&fs, i, 0);
        assert!(r.images_checked > 0, "{}: no images enumerated", w.name);
        assert!(
            r.is_clean(),
            "ixt3/{} must recover every crash image cleanly; got:\n{}",
            w.name,
            dump(&r)
        );
    }
}

#[test]
fn stock_ext3_shows_the_checkpoint_hazard_and_nothing_else() {
    let fs = Ext3Adapter::stock();
    let mut total = 0;
    for (i, w) in standard_workloads().iter().enumerate() {
        let r = campaign(&fs, i, 0);
        total += r.violations.len();
        for v in &r.violations {
            assert!(
                matches!(v.oracle, OracleKind::FsckClean | OracleKind::Atomicity),
                "ext3/{}: unexpected oracle class: {v}",
                w.name
            );
        }
    }
    // The hazard is real: checkpoint home writes and the js-clean marker
    // share an epoch, so some sampled in-epoch subsets leave the journal
    // claiming "nothing to replay" over a half-applied checkpoint.
    assert!(
        total > 0,
        "the enumerator must detect stock ext3's checkpoint hazard"
    );
}

#[test]
fn reiser_shows_only_the_checkpoint_hazard() {
    let fs = ReiserAdapter;
    let mut total = 0;
    for (i, w) in standard_workloads().iter().enumerate() {
        let r = campaign(&fs, i, 0);
        total += r.violations.len();
        for v in &r.violations {
            assert!(
                matches!(v.oracle, OracleKind::FsckClean),
                "ReiserFS/{}: unexpected oracle class: {v}",
                w.name
            );
        }
    }
    assert!(
        total > 0,
        "the enumerator must detect ReiserFS's checkpoint hazard"
    );
}

#[test]
fn jfs_shows_torn_creates_and_partial_log_application() {
    let fs = JfsAdapter;
    let mut torn = 0;
    let mut total = 0;
    for (i, w) in standard_workloads().iter().enumerate() {
        let r = campaign(&fs, i, 0);
        total += r.violations.len();
        for v in &r.violations {
            assert!(
                matches!(v.oracle, OracleKind::FsckClean | OracleKind::Atomicity),
                "JFS/{}: unexpected oracle class: {v}",
                w.name
            );
            if v.detail.contains("torn create") {
                torn += 1;
            }
        }
    }
    assert!(total > 0, "JFS crash windows must be detected");
    assert!(
        torn > 0,
        "JFS (no ordered data, no commit marker) must show torn creates"
    );
}

#[test]
fn reports_are_bit_identical_at_any_thread_count() {
    // reuse_dir on stock ext3 has violations — the strongest signal that
    // merge order, not just counts, is deterministic.
    let fs = Ext3Adapter::stock();
    let baseline = campaign(&fs, 2, 1);
    assert!(!baseline.is_clean(), "baseline should carry violations");
    for threads in [2usize, 4, 8] {
        let r = campaign(&fs, 2, threads);
        assert_eq!(
            r, baseline,
            "threads={threads} report must be bit-identical to sequential"
        );
    }
}

#[test]
fn same_seed_reproduces_the_same_report() {
    let fs = Ext3Adapter::stock();
    let a = campaign(&fs, 0, 0);
    let b = campaign(&fs, 0, 0);
    assert_eq!(a, b, "same (fs, workload, seed) must reproduce exactly");
}

/// A renamed directory takes its subdirectories with it. The shadow the
/// oracles compare against once moved only the files under a renamed
/// directory, so ixt3 — clean on every other workload — showed 14 false
/// violations over this program's 33 crash images (`/crash/a/sub`
/// "directory synced … missing", `/crash/b/sub` "phantom directory").
#[test]
fn nested_directory_moves_with_its_renamed_parent() {
    let w = CrashWorkload::new(
        "nested_rename",
        vec![
            CrashOp::mkdir("/crash"),
            CrashOp::mkdir("/crash/a"),
            CrashOp::mkdir("/crash/a/sub"),
            CrashOp::write("/crash/a/sub/f", 5000, 0x33),
            CrashOp::Sync,
            CrashOp::rename("/crash/a", "/crash/b"),
            CrashOp::Sync,
        ],
    );
    let mut v: Vfs<Box<dyn SpecificFs>> = Vfs::new(Box::new(RamFs::new()));
    let shadow = run_workload(&mut v, &w, &IoLog::new()).expect("script runs on RamFs");
    assert!(
        shadow.ever_dirs.contains("/crash/b/sub"),
        "the subdirectory moved with its parent"
    );

    let r = run_crash_campaign(&Ext3Adapter::ixt3(), &w, &CrashCampaignOptions::default());
    assert!(r.images_checked > 0, "no images enumerated");
    assert!(
        r.is_clean(),
        "ixt3 must recover every image of a nested rename; got:\n{}",
        dump(&r)
    );
}

/// A violation names `(cut epoch, write subset, oracle)`; this test
/// replays one from scratch — fresh golden image, fresh recording, fresh
/// enumeration — and demands the identical violations fall out.
#[test]
fn violation_witnesses_replay_from_scratch() {
    let fs = Ext3Adapter::stock();
    let workloads = standard_workloads();
    let w = &workloads[2]; // reuse_dir
    let report = campaign(&fs, 2, 0);
    let witness = report
        .violations
        .first()
        .expect("stock ext3 reuse_dir carries violations")
        .clone();

    // Independent re-recording.
    let base = fs.golden(false);
    let golden_tree = {
        let mounted = fs
            .mount_crash(Recorder::new(base.snapshot()), FsEnv::new())
            .unwrap();
        Vfs::new(mounted).tree().unwrap()
    };
    let log = IoLog::new();
    let shadow = {
        let mounted = fs
            .mount_crash(
                Recorder::with_log(base.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .unwrap();
        run_workload(&mut Vfs::new(mounted), w, &log).unwrap()
    };
    let snap = log.snapshot();
    let images = enumerate_images(&snap, &EnumOptions::default());
    let spec = &images[witness.image.index];
    assert_eq!(
        *spec, witness.image,
        "enumeration must regenerate the witness image spec verbatim"
    );

    let replayed = check_image(&fs, &w.name, &base, &snap, &shadow, &golden_tree, spec);
    let expected: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.image.index == witness.image.index)
        .cloned()
        .collect();
    assert_eq!(replayed, expected, "witness must replay identically");
}

/// Satellite: the enumerator regression-proves it would have caught the
/// two seed journaling bugs fixed in PR 1 (`legacy_journal_bugs`): with
/// the knob on, freed-and-reused blocks are clobbered on replay; with it
/// off the same configuration is clean.
#[test]
fn enumerator_catches_the_pr1_legacy_journal_bugs() {
    // free_reuse frees a directory block and reallocates it as file data
    // within one transaction — exactly the journal_forget hazard. With
    // the fix, every pure epoch-prefix image (no in-epoch tearing, the
    // drive honored every barrier) recovers perfectly; with the seed bugs
    // back in, the stale directory image lands on the reused data block.
    let stock = campaign(&Ext3Adapter::stock(), 3, 0);
    assert!(
        stock.violations.iter().all(|v| !v.image.subset.is_empty()),
        "fixed ext3 must be clean on all prefix images of free_reuse:\n{}",
        dump(&stock)
    );
    let legacy = campaign(&Ext3Adapter::stock().with_legacy_journal_bugs(), 3, 0);
    assert!(
        legacy.violations.iter().any(|v| v.image.subset.is_empty()),
        "the enumerator must flag the legacy revoke/forget bugs on the \
         block-reuse workload even without in-epoch tearing; got:\n{}",
        dump(&legacy)
    );
}

/// The enumerator's input, pinned per (model, standard workload): how
/// many crash images it yields, and a digest of the crash view it reads
/// — every recorded write as `(seq, epoch, addr, tag, sha1(data))`, then
/// the flush marks. A change to how the write stream is recorded, how
/// epochs are sealed or which writes count moves these values, even
/// where every oracle would still pass.
#[test]
fn enumerator_inputs_are_pinned() {
    const PINNED: &[(&str, &str, usize, u64)] = &[
        ("ixt3", "create_sync", 42, 0x5095567653539E4A),
        ("ixt3", "overwrite_rename", 42, 0x464B67BE5D650DD1),
        ("ixt3", "reuse_dir", 62, 0xC74675C604C1C264),
        ("ixt3", "free_reuse", 20, 0x482EB91C82F1A446),
        ("ixt3", "truncate_churn", 67, 0x1ACF9184100FC642),
        ("ext3", "create_sync", 39, 0x2F52B45DF7199B9E),
        ("ext3", "overwrite_rename", 57, 0x2F098534CC9EF2ED),
        ("ext3", "reuse_dir", 62, 0x3B64E33AA941FCB7),
        ("ext3", "free_reuse", 20, 0x5FA611847FEEA3BF),
        ("ext3", "truncate_churn", 59, 0x3BCB21D55A142FF0),
        ("ReiserFS", "create_sync", 36, 0xB93FEC34E1EEDBF1),
        ("ReiserFS", "overwrite_rename", 36, 0x4E31D704AC8F11DD),
        ("ReiserFS", "reuse_dir", 58, 0x63543A5C06BD16DE),
        ("ReiserFS", "free_reuse", 13, 0xC09D592346525160),
        ("ReiserFS", "truncate_churn", 64, 0x7BE8CFE334D05DF4),
        ("JFS", "create_sync", 25, 0x4CAB73D264AE66F2),
        ("JFS", "overwrite_rename", 24, 0xE0644ADBDDE047F4),
        ("JFS", "reuse_dir", 42, 0x6E4E7EBA926CA1C9),
        ("JFS", "free_reuse", 13, 0x0486FA9D8A139D15),
        ("JFS", "truncate_churn", 40, 0x728E339EB98516FB),
    ];
    let models: [&dyn FsUnderTest; 4] = [
        &Ext3Adapter::ixt3(),
        &Ext3Adapter::stock(),
        &ReiserAdapter,
        &JfsAdapter,
    ];
    let mut got = Vec::new();
    for fs in models {
        let base = fs.golden(false);
        for w in standard_workloads() {
            let log = IoLog::new();
            let mounted = fs
                .mount_crash(
                    Recorder::with_log(base.snapshot(), log.clone()),
                    FsEnv::new(),
                )
                .unwrap();
            run_workload(&mut Vfs::new(mounted), &w, &log).unwrap();
            let snap = log.snapshot();
            let mut view = Vec::new();
            for r in &snap.records {
                for word in [r.seq, r.epoch, r.addr.0] {
                    view.extend_from_slice(&word.to_le_bytes());
                }
                view.extend_from_slice(r.tag.0.as_bytes());
                view.push(0);
                view.extend_from_slice(&sha1(&r.data[..]).0);
            }
            for m in &snap.flush_marks {
                view.extend_from_slice(&m.to_le_bytes());
            }
            let images = enumerate_images(&snap, &EnumOptions::default()).len();
            got.push((fs.name(), w.name.to_string(), images, digest64(&view)));
        }
    }
    let pinned: Vec<_> = PINNED
        .iter()
        .map(|&(fs, w, n, d)| (fs, w.to_string(), n, d))
        .collect();
    assert_eq!(got, pinned);
}
