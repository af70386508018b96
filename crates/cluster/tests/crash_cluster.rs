//! Crash-enumeration spot-check over a replicated volume (satellite of
//! the cluster PR): stacking [`CrashRecorder`] above [`ReplicatedDisk`]
//! must (a) deliver every barrier and flush to every replica medium — the
//! write fan-out preserves ordering/durability semantics per replica —
//! and (b) still satisfy the crash harness's recovery oracle: every
//! enumerated crash image of an ixt3 workload over a 3-replica volume
//! mounts, replays, and fscks clean.

use iron_blockdev::{BlockDevice, CrashRecorder, MemDisk, RawAccess, WriteLog};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::{Block, BlockAddr};
use iron_crash::{enumerate_images, materialize, EnumOptions};
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params, IronConfig, Superblock};
use iron_vfs::{FsEnv, Vfs};

#[test]
fn barriers_and_flushes_reach_every_replica_medium() {
    let golden = MemDisk::for_tests(16);
    let log = WriteLog::new();
    let mut dev = CrashRecorder::with_log(
        ReplicatedDisk::from_golden(&golden, 3, ReadPolicy::Primary),
        log.clone(),
    );

    dev.write(BlockAddr(1), &Block::filled(0x11)).unwrap();
    dev.barrier().unwrap();
    dev.write(BlockAddr(2), &Block::filled(0x22)).unwrap();
    dev.flush().unwrap();
    dev.write(BlockAddr(3), &Block::filled(0x33)).unwrap();
    dev.flush().unwrap();

    let snap = log.snapshot();
    assert_eq!(snap.flush_marks.len(), 2, "recorder saw both flushes");

    let vol = dev.into_inner();
    for i in 0..3 {
        let s = vol.replica(i).stats();
        assert_eq!(s.writes, 3, "replica {i}: every write fanned out");
        assert_eq!(s.barriers, 1, "replica {i}: barrier forwarded");
        assert_eq!(
            s.flushes as usize,
            snap.flush_marks.len(),
            "replica {i}: every recorded flush mark reached this medium"
        );
        assert_eq!(vol.replica(i).peek(BlockAddr(3)), Block::filled(0x33));
    }
    assert!(vol.replicas_identical());
}

/// Bounded crash-state spot-check: an ixt3 workload recorded above a
/// 3-replica quorum volume. All replicas see the identical write stream,
/// so the recorded log *is* each replica's crash behaviour; every
/// enumerated image (epoch prefixes plus sampled in-epoch subsets) must
/// mount with journal replay and come out fsck-clean — same oracle the
/// single-disk campaign holds ixt3 to.
#[test]
fn enumerated_crash_images_of_cluster_workload_recover_cleanly() {
    let mut golden = MemDisk::for_tests(4096);
    let params = Ext3Params {
        mirror_metadata: true,
        ..Ext3Params::small()
    };
    Ext3Fs::mkfs(&mut golden, params).unwrap();
    let full = || Ext3Options::with_iron(IronConfig::full());
    let layout = {
        let sb = Superblock::decode(&golden.peek(BlockAddr(0))).unwrap();
        DiskLayout::compute(sb.params())
    };

    let log = WriteLog::new();
    let recorder = CrashRecorder::with_log(
        ReplicatedDisk::from_golden(&golden, 3, ReadPolicy::Quorum),
        log.clone(),
    );
    let fs = Ext3Fs::mount(recorder, FsEnv::new(), full()).unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/a", 0o755).unwrap();
    v.write_file("/a/one", b"first durable file").unwrap();
    v.sync().unwrap();
    v.write_file("/a/two", &[0x5A; 9000]).unwrap();
    v.unlink("/a/one").unwrap();
    v.sync().unwrap();
    v.write_file("/b", b"tail write, never synced").unwrap();
    v.umount().unwrap();

    // The fan-out is transparent under the recorder: all three replicas
    // converged on the recorded stream.
    let vol = v.into_fs().into_device().into_inner();
    assert!(vol.replicas_identical());
    assert_eq!(vol.stats().snapshot().divergences, 0);

    let snap = log.snapshot();
    assert!(snap.epoch_count() > 0, "workload must have sealed epochs");
    let images = enumerate_images(&snap, &EnumOptions::default());
    assert!(!images.is_empty());
    for spec in &images {
        let img = materialize(&golden, &snap, spec);
        // Recovery: mount (journal replay) + clean unmount.
        let fs = Ext3Fs::mount(img, FsEnv::new(), full())
            .unwrap_or_else(|e| panic!("{spec:?}: crash image must mount: {e:?}"));
        let mut v = Vfs::new(fs);
        v.umount().unwrap();
        let img = v.into_fs().into_device();
        let report = iron_ext3::fsck::check(&img, &layout);
        assert!(
            report.is_clean(),
            "{spec:?}: recovered image must be fsck-clean: {:?}",
            report.issues
        );
    }
}
