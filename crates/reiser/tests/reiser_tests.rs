//! Functional and failure-policy tests for the ReiserFS model.

use iron_blockdev::{MemDisk, RawAccess, Recorder};
use iron_core::model::CorruptionStyle;
use iron_core::{Block, BlockAddr, BlockTag, Errno, FaultKind};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_reiser::{ReiserBlockType, ReiserFs, ReiserLayout, ReiserOptions, ReiserParams};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = ReiserFs<FaultyDisk<MemDisk>>;

fn mount() -> (Vfs<Fs>, FaultController, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    ReiserFs::<MemDisk>::mkfs(&mut md, ReiserParams::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = ReiserFs::mount(faulty, env.clone(), ReiserOptions::default()).unwrap();
    (Vfs::new(fs), ctl, env)
}

fn remount(mut v: Vfs<Fs>) -> (Vfs<Fs>, FsEnv) {
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = ReiserFs::mount(dev, env.clone(), ReiserOptions::default()).unwrap();
    (Vfs::new(fs), env)
}

/// A crash after the commit record of the last transaction and before
/// its checkpoint: run `ops` and a `sync` on a fresh volume over a
/// [`Recorder`], then apply to the freshly formatted image every recorded
/// write up to and including the last `j-commit`.
fn crashed_after_commit(ops: impl FnOnce(&mut Vfs<ReiserFs<Recorder<MemDisk>>>)) -> MemDisk {
    let mut clean = MemDisk::for_tests(4096);
    ReiserFs::<MemDisk>::mkfs(&mut clean, ReiserParams::small()).unwrap();
    let dev = Recorder::new(clean.snapshot());
    let log = dev.log();
    let mut v = Vfs::new(ReiserFs::mount(dev, FsEnv::new(), ReiserOptions::default()).unwrap());
    ops(&mut v);
    v.sync().unwrap();
    let writes = log.snapshot();
    let commit = ReiserBlockType::JournalCommit.tag();
    let last = writes.records.iter().rposition(|r| r.tag == commit);
    let last = last.expect("the sync wrote a commit record") as u64;
    writes.apply(&mut clean, |r| r.seq <= last);
    clean
}

// ----------------------------------------------------------------------
// Functionality.
// ----------------------------------------------------------------------

#[test]
fn small_files_live_as_tails() {
    let (mut v, _ctl, _env) = mount();
    v.write_file("/tail", b"small enough to be a tail").unwrap();
    assert_eq!(v.read_file("/tail").unwrap(), b"small enough to be a tail");
    // A tail-sized file should allocate no data blocks.
    let st0 = v.statfs().unwrap();
    v.write_file("/tail2", &vec![7u8; 900]).unwrap();
    v.sync().unwrap();
    let st1 = v.statfs().unwrap();
    assert_eq!(st0.blocks_free, st1.blocks_free, "tail uses no data blocks");
}

#[test]
fn tail_conversion_on_growth() {
    let (mut v, _ctl, _env) = mount();
    v.write_file("/grow", &vec![1u8; 800]).unwrap(); // tail
    let fd = v.open("/grow", iron_vfs::OpenFlags::rdwr()).unwrap();
    v.pwrite(fd, 800, &vec![2u8; 8000]).unwrap(); // forces conversion
    v.close(fd).unwrap();
    let data = v.read_file("/grow").unwrap();
    assert_eq!(data.len(), 8800);
    assert!(data[..800].iter().all(|&b| b == 1));
    assert!(data[800..].iter().all(|&b| b == 2));
}

#[test]
fn large_files_and_tree_splits() {
    let (mut v, _ctl, _env) = mount();
    // Enough files to split leaves, and a large file spanning indirect
    // chunks (> 256 blocks ⇒ > 1 MiB).
    for i in 0..120 {
        v.write_file(&format!("/f{i:03}"), format!("contents {i}").as_bytes())
            .unwrap();
    }
    let big: Vec<u8> = (0..2_000_000u32).map(|i| (i % 239) as u8).collect();
    v.write_file("/big", &big).unwrap();
    assert_eq!(v.read_file("/big").unwrap(), big);
    for i in [0, 57, 119] {
        assert_eq!(
            v.read_file(&format!("/f{i:03}")).unwrap(),
            format!("contents {i}").as_bytes()
        );
    }
    // The tree must have grown beyond a single leaf.
    assert!(v.fs().superblock().tree_height >= 2);
}

#[test]
fn directories_nest_and_traverse() {
    let (mut v, _ctl, _env) = mount();
    v.mkdir("/a", 0o755).unwrap();
    v.mkdir("/a/b", 0o755).unwrap();
    v.write_file("/a/b/f", b"deep").unwrap();
    v.chdir("/a/b").unwrap();
    assert_eq!(v.read_file("../b/f").unwrap(), b"deep");
    assert_eq!(v.readdir("/a").unwrap().len(), 3); // . .. b
    v.chdir("/").unwrap();
    v.unlink("/a/b/f").unwrap();
    v.rmdir("/a/b").unwrap();
    v.rmdir("/a").unwrap();
}

#[test]
fn rename_link_symlink() {
    let (mut v, _ctl, _env) = mount();
    v.write_file("/one", b"1").unwrap();
    v.link("/one", "/two").unwrap();
    assert_eq!(v.stat("/two").unwrap().nlink, 2);
    v.rename("/one", "/moved").unwrap();
    assert_eq!(v.read_file("/moved").unwrap(), b"1");
    v.symlink("/moved", "/ln").unwrap();
    assert_eq!(v.read_file("/ln").unwrap(), b"1");
    assert_eq!(v.lstat("/ln").unwrap().ftype, iron_vfs::FileType::Symlink);
}

#[test]
fn persistence_across_remount() {
    let (mut v, _ctl, _env) = mount();
    v.mkdir("/keep", 0o755).unwrap();
    v.write_file("/keep/data", &vec![0xCD; 50_000]).unwrap();
    v.write_file("/keep/tail", b"tiny").unwrap();
    let (mut v, _env) = remount(v);
    assert_eq!(v.read_file("/keep/data").unwrap(), vec![0xCD; 50_000]);
    assert_eq!(v.read_file("/keep/tail").unwrap(), b"tiny");
}

#[test]
fn unlink_frees_blocks() {
    let (mut v, _ctl, _env) = mount();
    let st0 = v.statfs().unwrap().blocks_free;
    v.write_file("/big", &vec![1u8; 400_000]).unwrap();
    v.sync().unwrap();
    assert!(v.statfs().unwrap().blocks_free < st0);
    v.unlink("/big").unwrap();
    v.sync().unwrap();
    // Data blocks come back (tree nodes may stay allocated; this model
    // never merges tree nodes).
    assert!(v.statfs().unwrap().blocks_free >= st0 - 4);
}

#[test]
fn crash_recovery_replays_journal() {
    let dev = crashed_after_commit(|v| v.write_file("/survives", b"journaled").unwrap());
    let env = FsEnv::new();
    let fs = ReiserFs::mount(dev, env.clone(), ReiserOptions::default()).unwrap();
    assert!(env.klog.contains("replaying journal"));
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/survives").unwrap(), b"journaled");
}

// ----------------------------------------------------------------------
// Failure policy (§5.2).
// ----------------------------------------------------------------------

#[test]
fn metadata_write_failure_panics() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("leaf")),
    ));
    v.write_file("/f", b"x").unwrap();
    let err = v.sync().unwrap_err();
    assert!(err.is_panic(), "ReiserFS panics on metadata write failure");
    assert_eq!(env.state(), MountState::Crashed);
    assert!(env.klog.contains("journal-837") || env.klog.contains("journal-601"));
}

#[test]
fn journal_write_failure_panics() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-data")),
    ));
    v.write_file("/f", b"x").unwrap();
    let err = v.sync().unwrap_err();
    assert!(err.is_panic());
    assert_eq!(env.state(), MountState::Crashed);
    assert!(env.klog.contains("journal-601: buffer write failed"));
}

#[test]
fn ordered_data_write_failure_ignored_paper_bug() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    // Needs a block-sized file so the body goes through the data path.
    v.write_file("/f", &vec![5u8; 8000]).unwrap();
    // PAPER-BUG: RZero where RStop was expected — commit succeeds.
    v.sync().unwrap();
    assert_eq!(env.state(), MountState::ReadWrite, "no panic (the bug)");
}

#[test]
fn data_read_failure_propagates_with_one_retry() {
    let (mut v, ctl, env) = mount();
    v.write_file("/f", &vec![6u8; 8000]).unwrap();
    v.sync().unwrap();
    let (mut v, env2) = remount(v);
    drop(env);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    let err = v.read_file("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO), "RPropagate");
    assert_eq!(env2.state(), MountState::ReadWrite, "no stop for reads");
}

#[test]
fn transient_data_read_recovered_by_retry() {
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", &vec![6u8; 8000]).unwrap();
    v.sync().unwrap();
    let (mut v, _env2) = remount(v);
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("data")),
        1,
    ));
    assert_eq!(v.read_file("/f").unwrap(), vec![6u8; 8000]);
}

#[test]
fn corrupt_internal_node_panics_paper_bug() {
    let (mut v, _ctl, _env) = mount();
    // Grow the tree so internal nodes exist.
    for i in 0..150 {
        v.write_file(&format!("/file-{i:04}"), &vec![i as u8; 300])
            .unwrap();
    }
    v.sync().unwrap();
    assert!(v.fs().superblock().tree_height >= 2);
    let root = v.fs().superblock().root_block;
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    // Corrupt the root node header on the medium.
    let mut b = dev.peek(BlockAddr(root));
    b.put_u16(0, 77); // absurd level
    dev.poke(BlockAddr(root), &b);
    let env = FsEnv::new();
    let fs = ReiserFs::mount(dev, env.clone(), ReiserOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    // PAPER-BUG: the failed sanity check panics instead of erroring.
    let err = v.stat("/file-0000").unwrap_err();
    assert!(err.is_panic(), "got {err:?}");
    assert_eq!(env.state(), MountState::Crashed);
    assert!(env.klog.contains("vs-6000"));
}

#[test]
fn corrupt_leaf_propagates_sanity_error() {
    let (mut v, ctl, _env) = mount();
    // Grow the tree so leaves are distinct from the root.
    for i in 0..150 {
        v.write_file(&format!("/file-{i:04}"), &vec![i as u8; 300])
            .unwrap();
    }
    v.write_file("/f", b"x").unwrap();
    v.sync().unwrap();
    let (mut v, env) = remount(v);
    ctl.inject(FaultSpec::sticky(
        FaultKind::Corruption(CorruptionStyle::RandomNoise),
        FaultTarget::Tag(BlockTag("stat item")),
    ));
    let err = v.stat("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN), "DSanity → RPropagate");
    assert!(env.klog.contains("vs-5151"));
    assert_ne!(env.state(), MountState::Crashed, "leaves don't panic");
}

#[test]
fn corrupt_journal_data_destroys_filesystem_paper_bug() {
    // Crash with a committed transaction whose journal data we corrupt so
    // that the descriptor's first home address is block 0 (the super).
    let mut dev = crashed_after_commit(|v| v.write_file("/f", b"x").unwrap());
    let layout = ReiserLayout::compute(ReiserParams::small());
    // The superblock is part of the transaction (free-count updates), so a
    // corrupted journal-data copy of it will be replayed right over block
    // 0. Find the journal-data block whose home is block 0 and fill it
    // with garbage.
    let desc =
        iron_reiser::journal::JournalDesc::decode(&dev.peek(BlockAddr(layout.journal_start)))
            .expect("descriptor present");
    let super_pos = desc
        .addrs
        .iter()
        .position(|a| *a == 0)
        .expect("super journaled");
    let jdata_addr = layout.journal_start + 1 + super_pos as u64;
    dev.poke(BlockAddr(jdata_addr), &Block::filled(0x5C));
    // Remount: replay blindly writes garbage over the superblock, then the
    // post-replay superblock re-read finds the file system unusable.
    let env = FsEnv::new();
    let err = match ReiserFs::mount(dev, env.clone(), ReiserOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should have failed"),
    };
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    assert!(env.klog.contains("unusable"));
}

#[test]
fn indirect_read_failure_during_truncate_leaks_space_paper_bug() {
    let (mut v, ctl, _env) = mount();
    // Grow the tree, then a multi-chunk file (> 1 MiB ⇒ several indirect
    // items spread over distinct leaves).
    for i in 0..150 {
        v.write_file(&format!("/file-{i:04}"), &vec![i as u8; 300])
            .unwrap();
    }
    v.write_file("/big", &vec![9u8; 4_000_000]).unwrap();
    v.sync().unwrap();
    let before = v.statfs().unwrap().blocks_free;
    let freed_healthy = 4_000_000u64 / 4096 + 1;
    let (mut v, env) = remount(v);
    // Fail reads of leaves accessed for indirect items.
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("indirect")),
    ));
    // PAPER-BUG: truncate "succeeds", the error is ignored, and the data
    // blocks covered by unreadable indirect items are never freed.
    v.truncate("/big", 0).unwrap();
    v.sync().unwrap();
    ctl.clear();
    let after = v.statfs().unwrap().blocks_free;
    let freed = after.saturating_sub(before);
    assert!(
        freed + 64 < freed_healthy,
        "expected a leak: freed {freed} of {freed_healthy} blocks"
    );
    assert_eq!(env.state(), MountState::ReadWrite);
    // Logged as the I/O error it is, with no format-check (`vs-`) id.
    assert!(env.klog.contains("read of tree block"));
    assert!(!env.klog.contains("vs-"));
}

/// A block address read from a corrupt indirect item is range-checked
/// before it indexes the bitmap: `32768 + 1` would index the block after
/// the one-block bitmap, the first tree node. `unlink` must answer
/// `EUCLEAN` with one klog error.
#[test]
fn corrupt_indirect_pointer_is_euclean_not_freed() {
    use iron_core::klog::LogLevel;
    use iron_reiser::tree::{decode_ptrs, encode_ptrs, ItemKind, Node};

    let (mut v, _ctl, _env) = mount();
    v.write_file("/f", &vec![3u8; 3 * 4096]).unwrap();
    let root = v.fs().superblock().root_block;
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    let Some(Node::Leaf(mut items)) = Node::decode(&dev.peek(BlockAddr(root)), Some(1)) else {
        panic!("the root is the one leaf");
    };
    let item = items
        .iter_mut()
        .find(|i| i.key.kind == ItemKind::Indirect)
        .expect("the file's indirect item");
    let mut ptrs = decode_ptrs(&item.payload);
    ptrs[0] = 32768 + 1;
    item.payload = encode_ptrs(&ptrs);
    dev.poke(BlockAddr(root), &Node::Leaf(items).encode());

    let env = FsEnv::new();
    let fs = ReiserFs::mount(dev, env.clone(), ReiserOptions::default()).unwrap();
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
}

#[test]
fn corrupted_superblock_fails_mount() {
    let mut md = MemDisk::for_tests(4096);
    ReiserFs::<MemDisk>::mkfs(&mut md, ReiserParams::small()).unwrap();
    md.poke(BlockAddr(0), &Block::filled(0x11));
    let env = FsEnv::new();
    let err = match ReiserFs::mount(FaultyDisk::new(md), env.clone(), ReiserOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should fail"),
    };
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    assert!(env.klog.contains("can not find reiserfs"));
}

// ----------------------------------------------------------------------
// The full Figure 1 stack: ReiserFS over the write-back buffer cache.
// ----------------------------------------------------------------------

#[test]
fn cached_stack_round_trip() {
    use iron_blockdev::{CachePolicy, StackBuilder};

    let mut dev = StackBuilder::memdisk(4096)
        .with_cache(CachePolicy::write_back(64))
        .build();
    ReiserFs::<MemDisk>::mkfs(dev.inner_mut(), ReiserParams::small()).unwrap();
    let fs = ReiserFs::mount(dev, FsEnv::new(), ReiserOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        v.write_file(&format!("/f{i}"), &vec![i; 3000]).unwrap();
    }
    v.sync().unwrap();
    v.umount().unwrap();

    let cache = v.into_fs().into_device();
    assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
    let md = cache.into_inner();
    let fs = ReiserFs::mount(md, FsEnv::new(), ReiserOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        assert_eq!(v.read_file(&format!("/f{i}")).unwrap(), vec![i; 3000]);
    }
}
