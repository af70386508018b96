//! Tests of `RRepair` on ext3 images (§3.3: "a block that is not pointed
//! to, but is marked as allocated in a bitmap, could be freed") —
//! repairable damage is fixed mechanically by the `iron-fsck` planner;
//! data-loss repairs are reported but refused. The sequential
//! [`check`] is the judge before and after.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_ext3::fsck::{check, Ext3Image, FsckIssue};
use iron_ext3::inode::DiskInode;
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params};
use iron_fsck::FsckEngine;
use iron_vfs::{FsEnv, Vfs};

/// Check and transactionally repair the image; returns it with the number
/// of fixes applied.
fn repair(dev: MemDisk, layout: &DiskLayout) -> (MemDisk, usize) {
    let mut img = Ext3Image::new(dev, *layout);
    let (_, summary, _) = FsckEngine::new(None)
        .check_and_repair(&mut img)
        .expect("repair applies");
    (img.into_device(), summary.applied)
}

fn image() -> (MemDisk, DiskLayout) {
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
    for i in 0..8 {
        v.write_file(&format!("/d/f{i}"), &vec![i as u8; 9_000])
            .unwrap();
    }
    v.link("/d/f0", "/hard").unwrap();
    v.umount().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    (fs.into_device(), layout)
}

#[test]
fn repair_frees_leaked_blocks() {
    let (mut dev, layout) = image();
    // Leak: mark three unused data blocks as allocated.
    let bm_addr = layout.data_bitmap(0);
    let mut bm = dev.peek(bm_addr);
    let base = layout.group_base(0);
    let mut leaked = Vec::new();
    for bit in (0..layout.params.blocks_per_group - 1).rev() {
        if !bm.bit(bit) {
            bm.set_bit(bit);
            leaked.push(base + bit);
            if leaked.len() == 3 {
                break;
            }
        }
    }
    dev.poke(bm_addr, &bm);

    let before = check(&dev, &layout);
    assert_eq!(
        before
            .issues
            .iter()
            .filter(|i| matches!(i, FsckIssue::BlockLeaked { .. }))
            .count(),
        3
    );
    let (dev, fixes) = repair(dev, &layout);
    assert_eq!(fixes, 3);
    assert!(check(&dev, &layout).is_clean(), "image clean after repair");
}

#[test]
fn repair_fixes_wrong_link_counts() {
    let (mut dev, layout) = image();
    // Find /d/f0's inode (it has nlink 2 via /hard) and corrupt the count.
    let mut target = None;
    for ino in 3..40u64 {
        let (blk, off) = layout.inode_location(ino);
        let di = DiskInode::decode_from(&dev.peek(blk), off);
        if !di.is_free() && di.links_count == 2 {
            target = Some((ino, blk, off));
            break;
        }
    }
    let (_, blk, off) = target.expect("hard-linked inode found");
    let mut b = dev.peek(blk);
    let mut di = DiskInode::decode_from(&b, off);
    di.links_count = 9;
    di.encode_into(&mut b, off);
    dev.poke(blk, &b);

    let before = check(&dev, &layout);
    assert!(before.issues.iter().any(|i| matches!(
        i,
        FsckIssue::WrongLinkCount {
            stored: 9,
            actual: 2,
            ..
        }
    )));
    let (dev, fixes) = repair(dev, &layout);
    assert!(fixes >= 1);
    assert!(check(&dev, &layout).is_clean());
}

#[test]
fn repair_fixes_inode_bitmap_mismatch() {
    let (mut dev, layout) = image();
    // Mark an unused inode slot as allocated in the imap.
    let ibm_addr = layout.inode_bitmap(0);
    let mut ibm = dev.peek(ibm_addr);
    let bit = 100; // far past the ~12 used inodes
    ibm.set_bit(bit);
    dev.poke(ibm_addr, &ibm);

    let before = check(&dev, &layout);
    assert!(before
        .issues
        .iter()
        .any(|i| matches!(i, FsckIssue::InodeBitmapMismatch { ino } if *ino == bit + 1)));
    let (dev, fixes) = repair(dev, &layout);
    assert!(fixes >= 1);
    assert!(check(&dev, &layout).is_clean());
}

#[test]
fn repair_refuses_data_loss_cases() {
    let (mut dev, layout) = image();
    // A dangling directory entry (points at a free inode): repair must
    // report it but not invent a fix.
    let root_dir_block = layout.data_start(0);
    let b = dev.peek(BlockAddr(root_dir_block));
    let mut entries = iron_ext3::dir::parse_block(&b);
    entries.push(iron_ext3::dir::RawDirEntry::new(
        400, // a free inode slot
        iron_vfs::FileType::Regular,
        "ghost",
    ));
    dev.poke(
        BlockAddr(root_dir_block),
        &iron_ext3::dir::pack_block(&entries).unwrap(),
    );

    let before = check(&dev, &layout);
    assert!(before
        .issues
        .iter()
        .any(|i| matches!(i, FsckIssue::DanglingEntry { .. })));
    let (dev, _) = repair(dev, &layout);
    let after = check(&dev, &layout);
    assert!(
        after
            .issues
            .iter()
            .any(|i| matches!(i, FsckIssue::DanglingEntry { .. })),
        "dangling entries are reported, never auto-dropped"
    );
}

#[test]
fn repaired_image_remounts_and_serves_files() {
    let (mut dev, layout) = image();
    // Leak a block, repair, remount, verify content.
    let bm_addr = layout.data_bitmap(1);
    let mut bm = dev.peek(bm_addr);
    bm.set_bit(layout.params.blocks_per_group - 2);
    dev.poke(bm_addr, &bm);
    let (dev, _) = repair(dev, &layout);
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/d/f3").unwrap(), vec![3u8; 9_000]);
    assert_eq!(v.read_file("/hard").unwrap(), vec![0u8; 9_000]);
}
