//! Every crash image is a copy-on-write snapshot of one golden disk, so
//! the campaign is only sound if nothing done to an image — the pokes that
//! build it, the recovery mount's journal replay, the clean unmount, the
//! second replay of recovery's writes — ever reaches the golden's pages.

use iron_blockdev::{BlockDevice, IoLog, MemDisk, RawAccess, Recorder};
use iron_core::{Block, BlockAddr};
use iron_crash::{
    apply_all, enumerate_images, materialize, run_workload, standard_workloads, EnumOptions,
};
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_vfs::{FsEnv, Vfs};

fn image_of(d: &MemDisk) -> Vec<Block> {
    (0..d.num_blocks()).map(|a| d.peek(BlockAddr(a))).collect()
}

#[test]
fn golden_is_byte_identical_after_images_are_poked_mounted_and_recovered() {
    // ixt3: every crash image of it mounts and walks (crash_matrix.rs).
    let fs = Ext3Adapter::ixt3();
    let golden = fs.golden(false);
    let before = image_of(&golden);

    let w = &standard_workloads()[2];
    let log = IoLog::new();
    {
        let mounted = fs
            .mount_crash(
                Recorder::with_log(golden.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .unwrap();
        run_workload(&mut Vfs::new(mounted), w, &log).unwrap();
    }
    let snap = log.snapshot();
    assert!(image_of(&golden) == before, "recording wrote the golden");

    let images = enumerate_images(&snap, &EnumOptions::default());
    let (mut poked, mut recovered) = (0, 0);
    for spec in &images {
        let image = materialize(&golden, &snap, spec);
        poked += usize::from(image_of(&image) != before);

        let rlog = IoLog::new();
        let mounted = fs
            .mount_crash(Recorder::with_log(image, rlog.clone()), FsEnv::new())
            .unwrap();
        let mut v = Vfs::new(mounted);
        v.tree().unwrap();
        v.umount().unwrap();
        let rsnap = rlog.snapshot();
        recovered += usize::from(!rsnap.records.is_empty());
        let _post = apply_all(materialize(&golden, &snap, spec), &rsnap);

        assert!(
            image_of(&golden) == before,
            "image {} reached the golden's pages",
            spec.index
        );
    }
    // Not vacuous: the images do differ from the golden, and recovery
    // does write to them.
    assert!(poked > images.len() / 2, "{poked} of {}", images.len());
    assert!(recovered > 0);
}
