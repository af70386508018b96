//! Functional and failure-policy tests for the JFS model.

use iron_blockdev::{MemDisk, RawAccess, Recorder};
use iron_core::{Block, BlockAddr, BlockTag, Errno, FaultKind};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_jfs::{JfsBlockType, JfsFs, JfsOptions, JfsParams};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = JfsFs<FaultyDisk<MemDisk>>;

fn mount() -> (Vfs<Fs>, FaultController, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = JfsFs::mount(faulty, env.clone(), JfsOptions::default()).unwrap();
    (Vfs::new(fs), ctl, env)
}

fn remount(mut v: Vfs<Fs>) -> (Vfs<Fs>, FsEnv) {
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
    (Vfs::new(fs), env)
}

// ----------------------------------------------------------------------
// Functionality.
// ----------------------------------------------------------------------

#[test]
fn basic_file_and_dir_operations() {
    let (mut v, _ctl, _env) = mount();
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/f", b"jfs data").unwrap();
    assert_eq!(v.read_file("/d/f").unwrap(), b"jfs data");
    v.link("/d/f", "/d/g").unwrap();
    assert_eq!(v.stat("/d/g").unwrap().nlink, 2);
    v.rename("/d/g", "/moved").unwrap();
    v.symlink("/moved", "/ln").unwrap();
    assert_eq!(v.read_file("/ln").unwrap(), b"jfs data");
    v.unlink("/d/f").unwrap();
    v.unlink("/moved").unwrap();
    v.unlink("/ln").unwrap();
    v.rmdir("/d").unwrap();
    assert_eq!(v.readdir("/").unwrap().len(), 2);
}

#[test]
fn large_file_uses_internal_block() {
    let (mut v, _ctl, _env) = mount();
    // > 8 direct blocks ⇒ internal extent block.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    v.write_file("/big", &data).unwrap();
    assert_eq!(v.read_file("/big").unwrap(), data);
    v.truncate("/big", 10_000).unwrap();
    assert_eq!(v.read_file("/big").unwrap(), data[..10_000].to_vec());
}

#[test]
fn persistence_and_block_accounting() {
    let (mut v, _ctl, _env) = mount();
    let free0 = v.statfs().unwrap().blocks_free;
    v.write_file("/f", &vec![0x3C; 100_000]).unwrap();
    v.sync().unwrap();
    let (mut v, _env) = remount(v);
    assert_eq!(v.read_file("/f").unwrap(), vec![0x3C; 100_000]);
    v.unlink("/f").unwrap();
    v.sync().unwrap();
    assert_eq!(v.statfs().unwrap().blocks_free, free0);
}

#[test]
fn crash_recovery_replays_record_journal() {
    // A crash after the last log record is durable and before the
    // checkpoint: every recorded write up to and including the last
    // `j-data`, applied to the freshly formatted image.
    let mut md = MemDisk::for_tests(4096);
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    let rec = Recorder::new(md.snapshot());
    let log = rec.log();
    let mut v = Vfs::new(JfsFs::mount(rec, FsEnv::new(), JfsOptions::default()).unwrap());
    v.write_file("/metadata-survives", b"x").unwrap();
    v.sync().unwrap();
    let writes = log.snapshot();
    let commit = JfsBlockType::JournalData.tag();
    let last = writes.records.iter().rposition(|r| r.tag == commit);
    let last = last.expect("the sync logged its records") as u64;
    let mut dev = md;
    writes.apply(&mut dev, |r| r.seq <= last);
    let env = FsEnv::new();
    let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
    assert!(env.klog.contains("journal replay complete"));
    let mut v = Vfs::new(fs);
    // The file's metadata was journaled; its name must be back.
    assert!(v.stat("/metadata-survives").is_ok());
}

// ----------------------------------------------------------------------
// Failure policy (§5.3).
// ----------------------------------------------------------------------

#[test]
fn metadata_read_failure_retried_once_by_generic_code() {
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", b"x").unwrap();
    v.sync().unwrap();
    let (mut v, env) = remount(v);
    // Transient×1: the generic retry absorbs it.
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
        1,
    ));
    assert_eq!(v.read_file("/f").unwrap(), b"x");
    assert!(env.klog.contains("retrying once"));
}

#[test]
fn sticky_metadata_read_failure_propagates_after_retry() {
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", b"x").unwrap();
    v.sync().unwrap();
    let (mut v, env) = remount(v);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    assert_eq!(v.stat("/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_ne!(env.state(), MountState::Crashed);
}

#[test]
fn primary_super_read_error_uses_alternate() {
    let mut md = MemDisk::for_tests(4096);
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    faulty.controller().inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(0)),
    ));
    let env = FsEnv::new();
    // RRedundancy: mount succeeds from the alternate superblock.
    let fs = JfsFs::mount(faulty, env.clone(), JfsOptions::default()).unwrap();
    assert!(env.klog.contains("trying alternate"));
    let mut v = Vfs::new(fs);
    assert!(v.readdir("/").is_ok());
}

#[test]
fn corrupt_primary_super_fails_mount_despite_alternate_paper_bug() {
    let mut md = MemDisk::for_tests(4096);
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    md.poke(BlockAddr(0), &Block::filled(0x44));
    let env = FsEnv::new();
    // PAPER-BUG: the alternate is NOT consulted for a corrupt primary.
    let err = match JfsFs::mount(FaultyDisk::new(md), env.clone(), JfsOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should fail"),
    };
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
}

#[test]
fn aggregate_inode_read_error_ignores_secondary_paper_bug() {
    let mut md = MemDisk::for_tests(4096);
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    let layout = iron_jfs::JfsLayout::compute(JfsParams::small());
    let faulty = FaultyDisk::new(md);
    faulty.controller().inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(layout.aggr_inode)),
    ));
    let env = FsEnv::new();
    let err = match JfsFs::mount(faulty, env.clone(), JfsOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should fail"),
    };
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert!(env.klog.contains("secondary copy NOT consulted"));
}

#[test]
fn bmap_read_failure_crashes_system() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("bmap")),
    ));
    // Allocation needs the bmap; a failed read is an explicit crash.
    let err = v.write_file("/new", &vec![1u8; 8192]).unwrap_err();
    assert!(err.is_panic(), "got {err:?}");
    assert_eq!(env.state(), MountState::Crashed);
}

#[test]
fn journal_super_write_failure_crashes_system() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-super")),
    ));
    v.write_file("/f", b"x").unwrap();
    let err = v.sync().unwrap_err();
    assert!(err.is_panic());
    assert_eq!(env.state(), MountState::Crashed);
}

#[test]
fn other_write_failures_ignored() {
    let (mut v, ctl, env) = mount();
    // Fail ALL journal-data and checkpoint-side writes.
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-data")),
    ));
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    v.write_file("/f", b"lost").unwrap();
    v.sync().unwrap(); // no error, no crash: RZero
    assert_eq!(env.state(), MountState::ReadWrite);
}

#[test]
fn corrupt_internal_block_returns_blank_page_paper_bug() {
    let (mut v, _ctl, _env) = mount();
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 250) as u8).collect();
    v.write_file("/big", &data).unwrap();
    v.sync().unwrap();
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    // Find the internal block: corrupt its count field with an absurd
    // value (fails the bounds check but is otherwise "valid").
    let layout = iron_jfs::JfsLayout::compute(JfsParams::small());
    let mut internal_addr = None;
    for a in layout.alloc_start..4096 {
        let b = dev.peek(BlockAddr(a));
        let count = b.get_u32(0);
        // Internal blocks hold ~25 block pointers for a 100 KB file.
        if (9..=30).contains(&count) {
            let plausible = (0..count as usize)
                .all(|i| (layout.alloc_start..4096).contains(&(b.get_u32(8 + i * 4) as u64)));
            if plausible {
                internal_addr = Some(a);
                break;
            }
        }
    }
    let addr = internal_addr.expect("internal block found");
    let mut b = dev.peek(BlockAddr(addr));
    b.put_u32(0, 50_000); // count > maximum possible
    dev.poke(BlockAddr(addr), &b);
    let env = FsEnv::new();
    let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    // PAPER-BUG: RGuess — the read "succeeds" and returns blank data
    // beyond the direct blocks, with no error and no log entry.
    let got = v.read_file("/big").unwrap();
    assert_eq!(got.len(), data.len());
    assert_eq!(&got[..8 * 4096], &data[..8 * 4096], "direct blocks intact");
    assert!(
        got[8 * 4096..].iter().all(|&x| x == 0),
        "blank page silently returned for the extent-mapped region"
    );
    assert_eq!(env.state(), MountState::ReadWrite);
}

#[test]
fn corrupt_dir_block_sanity_check_stops() {
    let (mut v, _ctl, _env) = mount();
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/f", b"x").unwrap();
    v.sync().unwrap();
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    // Corrupt the root dir block's entry count.
    let layout = iron_jfs::JfsLayout::compute(JfsParams::small());
    let root_dir = layout.alloc_start;
    let mut b = dev.peek(BlockAddr(root_dir));
    b.put_u16(0, 9999);
    dev.poke(BlockAddr(root_dir), &b);
    let env = FsEnv::new();
    let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    let err = v.readdir("/").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN), "DSanity → RPropagate");
    assert_eq!(env.state(), MountState::ReadOnly, "RStop: read-only");
}

#[test]
fn unlink_inode_read_failure_corrupts_fs_paper_bug() {
    let (mut v, ctl, env) = mount();
    // Fill the first inode-table block (32 inodes) so the victim's inode
    // lives in the *second* table block — distinct from the root's, which
    // gets cached during path resolution.
    for i in 0..35 {
        v.write_file(&format!("/pad{i}"), b"p").unwrap();
    }
    v.write_file("/victim", &vec![8u8; 50_000]).unwrap();
    v.sync().unwrap();
    let free_before = v.statfs().unwrap().blocks_free;
    let (mut v, env2) = remount(v);
    drop(env);
    // Fail the victim's inode-table read and its generic retry (the 2nd
    // inode-block read after the root's), then let later reads succeed —
    // the JFS bug: the error is ignored and unlink proceeds with a blank
    // inode.
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::TagNth {
            tag: BlockTag("inode"),
            nth: 1,
        },
        2,
    ));
    v.unlink("/victim").unwrap();
    v.sync().unwrap();
    ctl.clear();
    // The entry is gone but the file's blocks were never freed: silent
    // corruption (leaked space + clobbered inode slot).
    assert_eq!(v.stat("/victim").unwrap_err().errno(), Some(Errno::ENOENT));
    let free_after = v.statfs().unwrap().blocks_free;
    assert!(
        free_after < free_before + 5,
        "blocks should leak: {free_after} vs {free_before}"
    );
    assert_eq!(env2.state(), MountState::ReadWrite);
}

/// A block address read from a corrupt inode is range-checked before it
/// indexes the block map: `32768 + 1` would index the block after the
/// one-block map, the imap control block. `unlink` must answer `EUCLEAN`
/// with one klog error and leave that block as it was.
#[test]
fn corrupt_inode_pointer_is_euclean_not_freed() {
    use iron_core::klog::LogLevel;

    let (mut v, _ctl, _env) = mount();
    v.write_file("/f", b"x").unwrap();
    let ino = v.resolve("/f").unwrap();
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    let layout = iron_jfs::JfsLayout::compute(JfsParams::small());
    let (blk, off) = layout.inode_location(ino);
    let mut b = dev.peek(blk);
    b.put_u32(off + 32, 32768 + 1); // direct[0]
    dev.poke(blk, &b);
    let imap_control = BlockAddr(layout.imap_control);
    let before = dev.peek(imap_control);

    let env = FsEnv::new();
    let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    let err = v.unlink("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    let errors: Vec<_> = env
        .klog
        .entries()
        .into_iter()
        .filter(|e| e.level == LogLevel::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].message.contains("outside the volume"));
    assert_ne!(env.state(), MountState::Crashed);
    v.umount().unwrap();
    assert!(v.into_fs().into_device().peek(imap_control) == before);
}

/// An inode number read from a corrupt directory entry is range-checked
/// before it indexes the inode map: 0 would underflow the 1-based map
/// index and 100 000 would name a block past the map. `unlink` must
/// answer `EUCLEAN` with one klog error and leave those blocks as they
/// were.
#[test]
fn corrupt_entry_inode_number_is_euclean_not_freed() {
    use iron_core::klog::LogLevel;
    use iron_vfs::flat::{decode_dir_block, encode_dir_block};

    for bad in [0u32, 100_000] {
        let (mut v, _ctl, _env) = mount();
        v.write_file("/f", b"x").unwrap();
        v.umount().unwrap();
        let mut dev = v.into_fs().into_device();
        let layout = iron_jfs::JfsLayout::compute(JfsParams::small());
        let (blk, off) = layout.inode_location(iron_jfs::layout::ROOT_INO);
        let dir = BlockAddr(u64::from(dev.peek(blk).get_u32(off + 32))); // direct[0]
        let mut entries = decode_dir_block(&dev.peek(dir)).unwrap();
        entries.iter_mut().find(|e| e.name == "f").unwrap().id = bad;
        dev.poke(dir, &encode_dir_block(&entries));
        // The map's blocks, and the block an unchecked 100 000 would stage
        // as one.
        let watched: Vec<BlockAddr> = (0..layout.imap_len)
            .map(|i| BlockAddr(layout.imap_start + i))
            .chain([layout.imap_location(100_000).0])
            .collect();
        let before: Vec<Block> = watched.iter().map(|&a| dev.peek(a)).collect();

        let env = FsEnv::new();
        let fs = JfsFs::mount(dev, env.clone(), JfsOptions::default()).unwrap();
        let mut v = Vfs::new(fs);
        let err = v.unlink("/f").unwrap_err();
        assert_eq!(err.errno(), Some(Errno::EUCLEAN), "id {bad}");
        let errors: Vec<_> = env
            .klog
            .entries()
            .into_iter()
            .filter(|e| e.level == LogLevel::Error)
            .collect();
        assert_eq!(errors.len(), 1, "id {bad}: {errors:?}");
        assert!(errors[0].message.contains("outside the volume"));
        assert_ne!(env.state(), MountState::Crashed);
        v.umount().unwrap();
        let dev = v.into_fs().into_device();
        for (&addr, was) in watched.iter().zip(&before) {
            assert!(dev.peek(addr) == *was, "id {bad}: block {addr:?} changed");
        }
    }
}

// ----------------------------------------------------------------------
// The full Figure 1 stack: JFS over the write-back buffer cache.
// ----------------------------------------------------------------------

#[test]
fn cached_stack_round_trip() {
    use iron_blockdev::{CachePolicy, StackBuilder};

    let mut dev = StackBuilder::memdisk(4096)
        .with_cache(CachePolicy::write_back(64))
        .build();
    JfsFs::<MemDisk>::mkfs(dev.inner_mut(), JfsParams::small()).unwrap();
    let fs = JfsFs::mount(dev, FsEnv::new(), JfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        v.write_file(&format!("/f{i}"), &vec![i; 3000]).unwrap();
    }
    v.sync().unwrap();
    v.umount().unwrap();

    let cache = v.into_fs().into_device();
    assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
    let md = cache.into_inner();
    let fs = JfsFs::mount(md, FsEnv::new(), JfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        assert_eq!(v.read_file(&format!("/f{i}")).unwrap(), vec![i; 3000]);
    }
}
