//! Every crash image is a copy-on-write snapshot of one golden disk, so
//! the campaign is only sound if nothing done to an image — the pokes that
//! build it, the recovery mount's journal replay, the clean unmount, the
//! second replay of recovery's writes — ever reaches the golden's pages.

use std::sync::Arc;

use iron_blockdev::{BlockDevice, DiskGeometry, IoLog, MemDisk, RawAccess, Recorder};
use iron_core::{Block, BlockAddr, BlockTag, SimClock};
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

/// A golden copied block by block onto a fresh disk, as the timed
/// campaigns re-home theirs onto the mechanical geometry, is mostly the
/// fresh disk's own zero page: a block that holds zeroes stays on it, and
/// only the blocks the file system wrote get pages of their own.
#[test]
fn a_golden_copied_block_by_block_keeps_its_zero_blocks_on_the_zero_page() {
    let golden = Ext3Adapter::ixt3().golden(false);
    let n = golden.num_blocks();
    let mut copy = MemDisk::new(n, DiskGeometry::ata_7200rpm(), SimClock::new());
    let zero = copy.read_page(BlockAddr(0), BlockTag::UNTYPED).unwrap();
    for a in (0..n).map(BlockAddr) {
        copy.poke(a, &golden.peek(a));
    }
    assert!(image_of(&copy) == image_of(&golden));
    let mut zeroes = 0;
    for a in (0..n).map(BlockAddr) {
        let page = copy.read_page(a, BlockTag::UNTYPED).unwrap();
        if golden.peek(a).is_zeroed() {
            assert!(
                Arc::ptr_eq(&page, &zero),
                "zero block {a} has a page of its own"
            );
            zeroes += 1;
        } else {
            assert!(!Arc::ptr_eq(&page, &zero));
        }
    }
    // Not vacuous: most of the golden is zero, and some of it is not.
    assert!(
        zeroes > n as usize * 9 / 10 && zeroes < n as usize,
        "{zeroes} of {n}"
    );
}
