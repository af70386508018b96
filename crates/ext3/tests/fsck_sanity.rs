//! Superblock/geometry sanity checks (`DSanity`, §3.1): stored geometry
//! vs. the trusted layout, and the journal region vs. its neighbors.
//! Each corruption is exercised through ext3's checker.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_ext3::fsck::{check, superblock_sanity, FsckIssue};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, Superblock};
use iron_vfs::{FsEnv, Vfs};

fn image() -> (MemDisk, iron_ext3::DiskLayout) {
    let dev = MemDisk::for_tests(4096);
    let fs = Ext3Fs::format_and_mount(
        dev,
        FsEnv::new(),
        Ext3Params::small(),
        Ext3Options::default(),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/d", 0o755).unwrap();
    for i in 0..4 {
        v.write_file(&format!("/d/f{i}"), &vec![i as u8; 5_000])
            .unwrap();
    }
    v.umount().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    (fs.into_device(), layout)
}

fn rewrite_sb(dev: &mut MemDisk, edit: impl FnOnce(&mut Superblock)) {
    let mut sb = Superblock::decode(&dev.peek(BlockAddr(0))).unwrap();
    edit(&mut sb);
    dev.poke(BlockAddr(0), &sb.encode());
}

#[test]
fn clean_image_passes_sanity() {
    let (dev, layout) = image();
    let sb = Superblock::decode(&dev.peek(BlockAddr(0))).unwrap();
    assert!(superblock_sanity(&sb, &layout).is_empty());
    assert!(check(&dev, &layout).is_clean());
}

#[test]
fn total_blocks_mismatch_is_flagged() {
    let (mut dev, layout) = image();
    let expected = layout.params.total_blocks;
    rewrite_sb(&mut dev, |sb| sb.total_blocks = expected * 2); // claims more than the device holds
    let report = check(&dev, &layout);
    assert!(report.issues.contains(&FsckIssue::GeometryMismatch {
        field: "total_blocks",
        stored: expected * 2,
        expected,
    }));
}

#[test]
fn blocks_per_group_mismatch_is_flagged() {
    let (mut dev, layout) = image();
    let expected = layout.params.blocks_per_group;
    rewrite_sb(&mut dev, |sb| sb.blocks_per_group = expected + 7);
    let report = check(&dev, &layout);
    assert!(report.issues.contains(&FsckIssue::GeometryMismatch {
        field: "blocks_per_group",
        stored: expected + 7,
        expected,
    }));
}

#[test]
fn journal_overgrowth_overlaps_neighbors() {
    let (mut dev, layout) = image();
    // Journal claiming to extend past its region would overlap the
    // checksum table and the block groups behind it.
    let inflated = layout.journal_len + 100;
    rewrite_sb(&mut dev, |sb| sb.journal_blocks = inflated);
    let report = check(&dev, &layout);
    assert!(report.issues.contains(&FsckIssue::JournalOverlap {
        stored: inflated,
        max: layout.journal_len,
    }));
}

#[test]
fn journal_shrinkage_is_a_plain_mismatch() {
    let (mut dev, layout) = image();
    let shrunk = layout.journal_len - 1;
    rewrite_sb(&mut dev, |sb| sb.journal_blocks = shrunk);
    let report = check(&dev, &layout);
    assert!(report.issues.contains(&FsckIssue::GeometryMismatch {
        field: "journal_blocks",
        stored: shrunk,
        expected: layout.journal_len,
    }));
    assert!(!report
        .issues
        .iter()
        .any(|i| matches!(i, FsckIssue::JournalOverlap { .. })));
}

#[test]
fn undecodable_superblock_is_fatal() {
    let (mut dev, layout) = image();
    dev.poke(BlockAddr(0), &iron_core::Block::zeroed()); // magic gone
    let report = check(&dev, &layout);
    assert_eq!(report.issues, vec![FsckIssue::BadSuperblock]);
}
