//! Failure-policy tests for *stock* ext3 under injected faults — each test
//! pins one behavior §5.1 of the paper reports, including the `PAPER-BUG`s.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::model::CorruptionStyle;
use iron_core::{Block, BlockAddr, BlockTag, Errno, FaultKind, IoKind};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = Ext3Fs<FaultyDisk<MemDisk>>;

/// mkfs a MemDisk, wrap it in a FaultyDisk, mount stock ext3 over it.
fn mount_stock() -> (Vfs<Fs>, FaultController, FsEnv) {
    mount_with(Ext3Options::default())
}

fn mount_with(opts: Ext3Options) -> (Vfs<Fs>, FaultController, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).expect("mkfs");
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), opts).expect("mount");
    (Vfs::new(fs), ctl, env)
}

#[test]
fn metadata_read_failure_propagates_and_stops() {
    let (mut v, ctl, env) = mount_stock();
    v.write_file("/f", b"data").unwrap();
    v.sync().unwrap();
    // Fail the next inode-table read (type-aware).
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    // Force a cold read by using a fresh mount (cache is per-mount).
    let dev = v.into_fs().into_device();
    let env2 = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env2.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    let err = v.stat("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO), "RPropagate");
    assert_eq!(
        env2.state(),
        MountState::ReadOnly,
        "RStop: read-only remount"
    );
    assert!(env2.klog.contains("ext3_abort"));
    drop(env);
}

#[test]
fn data_read_failure_propagates_without_stop_and_retries_once() {
    let (mut v, ctl, env) = mount_stock();
    v.write_file("/f", &vec![9u8; 4096]).unwrap();
    v.sync().unwrap();
    let addr = {
        let fs = v.fs_mut();
        let ino = 3; // first allocated inode after root
        fs.blocks_of(ino).unwrap()[0]
    };
    // Invalidate the cache by remounting.
    let dev = v.into_fs().into_device();
    let trace = dev.log();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr)),
    ));
    let mark = trace.len();
    let err = v.read_file("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO), "RPropagate");
    assert_eq!(
        env.state(),
        MountState::ReadWrite,
        "no RStop for data reads"
    );
    // RRetry: the originally requested block was read exactly twice.
    let attempts = trace
        .since(mark)
        .iter()
        .filter(|e| e.addr == BlockAddr(addr) && e.kind == IoKind::Read)
        .count();
    assert_eq!(attempts, 2, "one retry of the original block");
}

#[test]
fn transient_data_read_failure_is_hidden_by_retry() {
    let (mut v, ctl, env) = mount_stock();
    v.write_file("/f", b"transient").unwrap();
    v.sync().unwrap();
    let addr = v.fs_mut().blocks_of(3).unwrap()[0];
    let dev = v.into_fs().into_device();
    let fs = Ext3Fs::mount(dev, env, Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr)),
        1,
    ));
    assert_eq!(v.read_file("/f").unwrap(), b"transient", "retry recovers");
}

#[test]
fn data_write_failure_is_silently_ignored_paper_bug() {
    let (mut v, ctl, env) = mount_stock();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    // PAPER-BUG: the write "succeeds" from the application's viewpoint.
    v.write_file("/f", b"goes nowhere").unwrap();
    assert_eq!(env.state(), MountState::ReadWrite);
    // The cache even hides the failure from subsequent reads…
    assert_eq!(v.read_file("/f").unwrap(), b"goes nowhere");
    // …but the medium never saw the data (a later cold read would return
    // garbage): verify via raw access that the block is still zeroed.
    v.sync().unwrap();
    let mut fs = v.into_fs();
    let addr = fs.blocks_of(3).unwrap()[0];
    assert!(fs.device().peek(BlockAddr(addr)).is_zeroed());
}

#[test]
fn fixed_engine_detects_data_write_failure() {
    let opts = Ext3Options::with_iron(IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    });
    let (mut v, ctl, env) = mount_with(opts);
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    let err = v.write_file("/f", b"checked").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert_eq!(
        env.state(),
        MountState::ReadOnly,
        "RStop after write failure"
    );
}

#[test]
fn journal_write_failure_still_commits_paper_bug() {
    let (mut v, ctl, env) = mount_stock();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-data")),
    ));
    v.write_file("/f", b"x").unwrap();
    // PAPER-BUG: commit proceeds despite the journal-data write failure.
    v.sync().unwrap();
    assert!(env.klog.contains("journal write error ignored"));
    assert_eq!(env.state(), MountState::ReadWrite, "no RStop (the bug)");
}

#[test]
fn fixed_engine_aborts_on_journal_write_failure() {
    let opts = Ext3Options::with_iron(IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    });
    let (mut v, ctl, env) = mount_with(opts);
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-data")),
    ));
    v.write_file("/f", b"x").unwrap();
    let err = v.sync().unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert_eq!(env.state(), MountState::ReadOnly);
}

#[test]
fn corrupted_superblock_fails_mount_despite_replicas_paper_bug() {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    // Corrupt the primary superblock. Replicas exist in every group, but
    // stock ext3 never reads them (PAPER-BUG).
    md.poke(BlockAddr(0), &Block::filled(0xAB));
    let env = FsEnv::new();
    let err = match Ext3Fs::mount(FaultyDisk::new(md), env.clone(), Ext3Options::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should have failed"),
    };
    assert_eq!(err.errno(), Some(Errno::EUCLEAN), "DSanity detected it");
    assert!(env.klog.contains("bad superblock magic"));
}

#[test]
fn superblock_read_error_fails_mount() {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    faulty.controller().inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(0)),
    ));
    let err = match Ext3Fs::mount(faulty, FsEnv::new(), Ext3Options::default()) {
        Err(e) => e,
        Ok(_) => panic!("mount should have failed"),
    };
    assert_eq!(err.errno(), Some(Errno::EIO));
}

#[test]
fn corrupted_inode_size_detected_by_sanity_check() {
    let (mut v, _ctl, _env) = mount_stock();
    v.write_file("/f", b"ok").unwrap();
    v.sync().unwrap();
    // Corrupt the inode's size field on the medium to an absurd value.
    let (blk, off) = {
        let fs = v.fs_mut();
        fs.layout().inode_location(3)
    };
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    let mut b = dev.peek(blk);
    b.put_u64(off + 16, u64::MAX / 2); // size field
    dev.poke(blk, &b);
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    let err = v.stat("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN), "DSanity + RPropagate");
    assert!(env.klog.contains("sanity check failed"));
}

#[test]
fn corrupted_linkcount_crashes_unlink_paper_bug() {
    let (mut v, _ctl, _env) = mount_stock();
    v.write_file("/victim", b"x").unwrap();
    v.sync().unwrap();
    // Corrupt links_count to zero on the medium.
    let (blk, off) = v.fs_mut().layout().inode_location(3);
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    let mut b = dev.peek(blk);
    b.put_u32(off + 12, 0); // links_count field
    dev.poke(blk, &b);
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    // PAPER-BUG: no links_count sanity check → simulated kernel crash.
    let err = v.unlink("/victim").unwrap_err();
    assert!(err.is_panic(), "expected kernel panic, got {err:?}");
    assert_eq!(env.state(), MountState::Crashed);
}

#[test]
fn fixed_engine_reports_corrupted_linkcount() {
    let opts = Ext3Options::with_iron(IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    });
    let (mut v, _ctl, _env) = mount_with(opts.clone());
    v.write_file("/victim", b"x").unwrap();
    v.sync().unwrap();
    let (blk, off) = v.fs_mut().layout().inode_location(3);
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    let mut b = dev.peek(blk);
    b.put_u32(off + 12, 0);
    dev.poke(blk, &b);
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), opts).unwrap();
    let mut v = Vfs::new(fs);
    let err = v.unlink("/victim").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    assert_ne!(env.state(), MountState::Crashed);
}

#[test]
fn truncate_swallows_io_errors_paper_bug() {
    let (mut v, ctl, env) = mount_stock();
    // Big enough to need an indirect block.
    v.write_file("/big", &vec![3u8; 100_000]).unwrap();
    v.sync().unwrap();
    let ind = v.fs_mut().indirect_blocks_of(3).unwrap()[0];
    let dev = v.into_fs().into_device();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(ind)),
    ));
    // PAPER-BUG: the indirect-block read fails but truncate returns Ok.
    v.truncate("/big", 0).unwrap();
}

#[test]
fn corrupted_directory_block_fails_silently() {
    let (mut v, ctl, env) = mount_stock();
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/a", b"1").unwrap();
    v.write_file("/d/b", b"2").unwrap();
    v.sync().unwrap();
    let dir_block = v.fs_mut().blocks_of(3).unwrap()[0]; // /d's dir block
    let dev = v.into_fs().into_device();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    // Silent corruption: garbage block returned on read.
    ctl.inject(FaultSpec::sticky(
        FaultKind::Corruption(CorruptionStyle::RandomNoise),
        FaultTarget::Addr(BlockAddr(dir_block)),
    ));
    // DZero: ext3 does no type checking for directories — the corrupt
    // block parses as empty, the files silently "disappear", no error, no
    // log entry, no remount.
    let mark = env.klog.len();
    let entries = v.readdir("/d").unwrap();
    assert!(entries.is_empty(), "garbage parses as no entries");
    assert_eq!(
        v.stat("/d/a").unwrap_err().errno(),
        Some(Errno::ENOENT),
        "file vanished without any error reported"
    );
    assert!(env.klog.since(mark).is_empty(), "nothing logged: DZero");
    assert_eq!(env.state(), MountState::ReadWrite);
}

#[test]
fn whole_disk_failure_behaves_fail_stop() {
    let (mut v, ctl, env) = mount_stock();
    v.write_file("/f", b"x").unwrap();
    v.sync().unwrap();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WholeDisk,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    let dev = v.into_fs().into_device();
    let env2 = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env2.clone(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    // The first inode read trips the whole-disk failure; everything after
    // that fails too — classic fail-stop.
    assert!(v.stat("/f").is_err());
    assert!(v.readdir("/").is_err());
    assert!(v.write_file("/g", b"x").is_err());
    drop(env);
}
