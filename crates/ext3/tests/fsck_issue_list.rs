//! The checker's exact report on a golden damaged six ways at once: a
//! leaked block, an unmarked block, a doubly-used block, an out-of-range
//! pointer shared by two files, an inode-bitmap mismatch and an orphan
//! inode. `check` reports in discovery order (pass 1's tree walk, then
//! pass 3 group by group: data bits, then inode bits, each ascending), so
//! the list below pins both what it finds and the order it finds it in.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_ext3::fsck::{check, FsckIssue};
use iron_ext3::inode::DiskInode;
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::{FileType, FsEnv, Vfs};

const FILES: [&str; 6] = ["/a", "/b", "/c", "/d", "/e", "/f"];

/// A cleanly unmounted golden under `iron`: six two-block files in the
/// root and their inode numbers, in `FILES` order.
fn golden(iron: IronConfig) -> (MemDisk, DiskLayout, Vec<u64>) {
    let fs = Ext3Fs::format_and_mount(
        MemDisk::for_tests(4096),
        FsEnv::new(),
        Ext3Params::small(),
        Ext3Options::with_iron(iron),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    for (i, path) in FILES.iter().enumerate() {
        v.write_file(path, &vec![i as u8 + 1; 8192]).unwrap();
    }
    let inos = FILES.iter().map(|p| v.stat(p).unwrap().ino).collect();
    v.umount().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    (fs.into_device(), layout, inos)
}

fn inode(dev: &MemDisk, layout: &DiskLayout, ino: u64) -> DiskInode {
    let (blk, off) = layout.inode_location(ino);
    DiskInode::decode_from(&dev.peek(blk), off)
}

fn edit_inode(dev: &mut MemDisk, layout: &DiskLayout, ino: u64, edit: impl FnOnce(&mut DiskInode)) {
    let (blk, off) = layout.inode_location(ino);
    let mut b = dev.peek(blk);
    let mut di = DiskInode::decode_from(&b, off);
    edit(&mut di);
    di.encode_into(&mut b, off);
    dev.poke(blk, &b);
}

fn set_bit(dev: &mut MemDisk, bitmap: BlockAddr, bit: u64, on: bool) {
    let mut b = dev.peek(bitmap);
    match on {
        true => b.set_bit(bit),
        false => b.clear_bit(bit),
    }
    dev.poke(bitmap, &b);
}

fn damaged_golden_reports_exactly(iron: IronConfig) {
    let (mut dev, layout, inos) = golden(iron);
    assert!(check(&dev, &layout).is_clean(), "the golden is clean");
    let [a, b, c, d, e, f] = inos[..] else {
        unreachable!()
    };
    let base = layout.group_base(0);
    let dbm = layout.data_bitmap(0);
    let data = |dev: &MemDisk, ino: u64, i: usize| u64::from(inode(dev, &layout, ino).direct[i]);
    // Every file lives in group 0 and so does the damage.
    for &ino in &inos {
        assert_eq!(layout.group_of_block(data(&dev, ino, 1)), Some(0));
    }

    // Leaked: the first free data block of group 0, marked.
    let map = dev.peek(dbm);
    let leaked = (layout.data_start(0)..base + layout.params.blocks_per_group - 1)
        .find(|&addr| !map.bit(addr - base))
        .unwrap();
    set_bit(&mut dev, dbm, leaked - base, true);
    // Unmarked: /a's first block, cleared.
    let unmarked = data(&dev, a, 0);
    set_bit(&mut dev, dbm, unmarked - base, false);
    // Doubly used: /b's first block is /c's, and /b's own leaks.
    let (b_own, shared) = (data(&dev, b, 0), data(&dev, c, 0));
    edit_inode(&mut dev, &layout, b, |di| di.direct[0] = shared as u32);
    // Out of range: /d's and /e's second blocks point past the device,
    // and their own leak.
    let (d_own, e_own) = (data(&dev, d, 1), data(&dev, e, 1));
    let beyond = layout.params.total_blocks + 7;
    for ino in [d, e] {
        edit_inode(&mut dev, &layout, ino, |di| di.direct[1] = beyond as u32);
    }
    // Inode bitmap mismatch: /f in use, its bit cleared.
    let per_group = layout.params.inodes_per_group;
    set_bit(&mut dev, layout.inode_bitmap(0), f - 1, false);
    // Orphan: a regular file in the first free slot, marked, in no
    // directory.
    let orphan = (f + 1..=per_group)
        .find(|&ino| inode(&dev, &layout, ino).is_free())
        .unwrap();
    edit_inode(&mut dev, &layout, orphan, |di| {
        *di = DiskInode::new(FileType::Regular, 0o644);
        di.links_count = 1;
    });
    set_bit(&mut dev, layout.inode_bitmap(0), orphan - 1, true);

    let mut data_bits = vec![
        FsckIssue::BlockLeaked { addr: leaked },
        FsckIssue::BlockNotMarked { addr: unmarked },
        FsckIssue::BlockLeaked { addr: b_own },
        FsckIssue::BlockLeaked { addr: d_own },
        FsckIssue::BlockLeaked { addr: e_own },
    ];
    data_bits.sort_by_key(|i| match i {
        FsckIssue::BlockLeaked { addr } | FsckIssue::BlockNotMarked { addr } => *addr,
        _ => unreachable!(),
    });
    let mut expected = vec![
        FsckIssue::BlockDoublyUsed { addr: shared },
        FsckIssue::BlockDoublyUsed { addr: beyond },
    ];
    expected.extend(data_bits);
    expected.extend([
        FsckIssue::InodeBitmapMismatch { ino: f },
        FsckIssue::OrphanInode { ino: orphan },
    ]);
    // The walk visits the root's entries in the order they were created:
    // /b before /c for the shared block, /d before /e for the out-of-range
    // one.
    assert_eq!(check(&dev, &layout).issues, expected);
}

#[test]
fn a_damaged_stock_golden_reports_exactly_its_damage() {
    damaged_golden_reports_exactly(IronConfig::off());
}

#[test]
fn a_damaged_ixt3_golden_reports_exactly_its_damage() {
    damaged_golden_reports_exactly(IronConfig::full());
}
