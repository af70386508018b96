//! ext3's checker against hand-made damage of each tree and bitmap class
//! (§3.3: "a block that is not pointed to, but is marked as allocated in
//! a bitmap"): every class is reported, and an out-of-range reference is
//! counted without being read.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_ext3::fsck::{check, FsckIssue};
use iron_ext3::inode::DiskInode;
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params};
use iron_vfs::{FileType, FsEnv, Vfs};

/// The inode `path` names, resolved on a mounted snapshot of the image.
fn ino_of(dev: &MemDisk, path: &str) -> u64 {
    let fs = Ext3Fs::mount(dev.snapshot(), FsEnv::new(), Ext3Options::default()).unwrap();
    Vfs::new(fs).resolve(path).unwrap()
}

/// Inode `ino`'s first data block.
fn first_block(dev: &MemDisk, layout: &DiskLayout, ino: u64) -> u64 {
    let (blk, off) = layout.inode_location(ino);
    DiskInode::decode_from(&dev.peek(blk), off).direct[0] as u64
}

/// Rewrite inode `ino` in place; returns it as it was before `edit`.
fn edit_inode(
    dev: &mut MemDisk,
    layout: &DiskLayout,
    ino: u64,
    edit: impl FnOnce(&mut DiskInode),
) -> DiskInode {
    let (blk, off) = layout.inode_location(ino);
    let mut b = dev.peek(blk);
    let old = DiskInode::decode_from(&b, off);
    let mut di = old;
    edit(&mut di);
    di.encode_into(&mut b, off);
    dev.poke(blk, &b);
    old
}

/// Set or clear block `addr`'s allocation bit.
fn mark_block(dev: &mut MemDisk, layout: &DiskLayout, addr: u64, used: bool) {
    let g = layout.group_of_block(addr).unwrap();
    let bm_addr = layout.data_bitmap(g);
    let mut bm = dev.peek(bm_addr);
    let bit = addr - layout.group_base(g);
    if used {
        bm.set_bit(bit);
    } else {
        bm.clear_bit(bit);
    }
    dev.poke(bm_addr, &bm);
}

/// Set or clear inode `ino`'s bit in the inode bitmap.
fn mark_inode(dev: &mut MemDisk, layout: &DiskLayout, ino: u64, used: bool) {
    let ipg = layout.params.inodes_per_group;
    let bm_addr = layout.inode_bitmap((ino - 1) / ipg);
    let mut bm = dev.peek(bm_addr);
    if used {
        bm.set_bit((ino - 1) % ipg);
    } else {
        bm.clear_bit((ino - 1) % ipg);
    }
    dev.poke(bm_addr, &bm);
}

/// The highest unallocated data block of group 0.
fn free_block(dev: &MemDisk, layout: &DiskLayout) -> u64 {
    let bm = dev.peek(layout.data_bitmap(0));
    let bit = (0..layout.params.blocks_per_group - 1)
        .rev()
        .find(|&bit| !bm.bit(bit))
        .unwrap();
    layout.group_base(0) + bit
}

/// Add a root-directory entry `ghost` naming inode 400, a free slot.
fn add_dangling_entry(dev: &mut MemDisk, layout: &DiskLayout) {
    let root_dir_block = BlockAddr(first_block(dev, layout, 2));
    let mut listing = iron_ext3::dir::Listing::default();
    listing.read_block(&dev.peek(root_dir_block));
    listing.push(400, iron_ext3::dir::ftype_code(FileType::Regular), "ghost");
    let blocks = listing.pack();
    assert_eq!(blocks.len(), 1, "the root stays one block");
    dev.poke(root_dir_block, &blocks[0]);
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
fn every_tree_and_bitmap_issue_class_is_detected() {
    let (mut dev, layout) = image();
    let [f1, f2, f3, f4, f5] =
        ["/d/f1", "/d/f2", "/d/f3", "/d/f4", "/d/f5"].map(|p| ino_of(&dev, p));
    // A used block whose bitmap bit is clear.
    let unmarked = first_block(&dev, &layout, f3);
    mark_block(&mut dev, &layout, unmarked, false);
    // f5 takes over f4's first block; its own first block leaks.
    let shared = first_block(&dev, &layout, f4);
    let abandoned = edit_inode(&mut dev, &layout, f5, |di| di.direct[0] = shared as u32).direct[0];
    // A wrong link count, and an allocated inode left unmarked.
    edit_inode(&mut dev, &layout, f1, |di| di.links_count = 7);
    mark_inode(&mut dev, &layout, f2, false);
    // An allocated, marked inode that no directory names.
    let orphan = 101;
    edit_inode(&mut dev, &layout, orphan, |di| {
        *di = DiskInode::new(FileType::Regular, 0o644)
    });
    mark_inode(&mut dev, &layout, orphan, true);
    add_dangling_entry(&mut dev, &layout);
    // A stray allocation bit.
    let stray = free_block(&dev, &layout);
    mark_block(&mut dev, &layout, stray, true);

    let report = check(&dev, &layout);
    let expect = vec![
        FsckIssue::DanglingEntry {
            dir: 2,
            name: "ghost".into(),
            ino: 400,
        },
        FsckIssue::WrongLinkCount {
            ino: f1,
            stored: 7,
            actual: 1,
        },
        FsckIssue::BlockNotMarked { addr: unmarked },
        FsckIssue::BlockLeaked {
            addr: abandoned as u64,
        },
        FsckIssue::BlockLeaked { addr: stray },
        FsckIssue::BlockDoublyUsed { addr: shared },
        FsckIssue::OrphanInode { ino: orphan },
        FsckIssue::InodeBitmapMismatch { ino: f2 },
    ];
    assert!(report.same_issues(&expect), "got {:?}", report.issues);
}

#[test]
fn out_of_range_refs_are_counted_not_dereferenced() {
    let (mut dev, layout) = image();
    let oob = layout.params.total_blocks + 17;
    let [f3, f4] = ["/d/f3", "/d/f4"].map(|p| ino_of(&dev, p));
    // Both files' own first blocks leak; the shared address is one duplicate.
    let mut expect = vec![FsckIssue::BlockDoublyUsed { addr: oob }];
    for ino in [f3, f4] {
        let old = edit_inode(&mut dev, &layout, ino, |di| di.direct[0] = oob as u32);
        expect.push(FsckIssue::BlockLeaked {
            addr: old.direct[0] as u64,
        });
    }
    let report = check(&dev, &layout);
    assert!(
        report.same_issues(&expect),
        "one duplicate for the extra out-of-range reference: {:?}",
        report.issues
    );
}
