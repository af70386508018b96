//! Failure-policy tests for the NTFS model (§5.4).

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, BlockTag, Errno, FaultKind, IoKind};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_ntfs::{NtfsFs, NtfsOptions, NtfsParams};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = NtfsFs<FaultyDisk<MemDisk>>;

fn mount() -> (Vfs<Fs>, FaultController, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    NtfsFs::<MemDisk>::mkfs(&mut md, NtfsParams::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = NtfsFs::mount(faulty, env.clone(), NtfsOptions::default()).unwrap();
    (Vfs::new(fs), ctl, env)
}

fn remount(mut v: Vfs<Fs>) -> (Vfs<Fs>, FsEnv) {
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = NtfsFs::mount(dev, env.clone(), NtfsOptions::default()).unwrap();
    (Vfs::new(fs), env)
}

#[test]
fn reads_are_retried_up_to_seven_times() {
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", &vec![4u8; 8192]).unwrap();
    // Remount cold and fail data reads transiently 6 times — the 7-retry
    // loop must still succeed.
    let (mut v, env) = remount(v);
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("data")),
        6,
    ));
    assert_eq!(v.read_file("/f").unwrap(), vec![4u8; 8192], "retries win");
    assert!(env.klog.contains("retry 6/7"));
}

#[test]
fn read_gives_up_after_seven_retries_and_propagates() {
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", &vec![4u8; 4096]).unwrap();
    let (mut v, env) = remount(v);
    let trace = {
        let fs = v.fs();
        fs.device_ref().log()
    };
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    let mark = trace.len();
    let err = v.read_file("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO), "RPropagate");
    assert_eq!(env.state(), MountState::ReadWrite);
    // 1 initial + 7 retries = 8 attempts on the same block.
    let attempts = trace
        .since(mark)
        .iter()
        .filter(|e| e.kind == IoKind::Read && e.tag == BlockTag("data"))
        .count();
    assert_eq!(attempts, 8, "seven retries after the first failure");
}

#[test]
fn data_write_retries_three_times_then_error_recorded_but_unused() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));
    // PAPER-BUG: after 3 retries, the error is recorded but not used —
    // the application sees success.
    v.write_file("/f", &vec![1u8; 4096]).unwrap();
    assert!(env.klog.contains("retry 3/3"));
    assert!(env.klog.contains("error recorded, unused"));
    assert_eq!(env.state(), MountState::ReadWrite);
}

#[test]
fn mft_write_failure_propagates_after_two_retries() {
    let (mut v, ctl, env) = mount();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("MFT record")),
    ));
    let err = v.write_file("/f", b"x").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert!(env.klog.contains("retry 2/2"));
}

#[test]
fn corrupt_mft_record_makes_volume_unmountable() {
    let (mut v, _ctl, _env) = mount();
    v.write_file("/f", b"x").unwrap();
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    // Find the file's MFT record (magic FILE, in use, type regular) and
    // smash its magic.
    let mut target = None;
    for a in 0..4096u64 {
        let b = dev.peek(BlockAddr(a));
        if b.get_u32(0) == iron_ntfs::fs::FILE_MAGIC && b[8] == 1 && b.get_u32(4) == 1 {
            target = Some(a);
        }
    }
    let target = target.expect("an in-use MFT record");
    let mut b = dev.peek(BlockAddr(target));
    b.put_u32(0, 0xBAAD_F00D);
    dev.poke(BlockAddr(target), &b);
    let env = FsEnv::new();
    let err = match NtfsFs::mount(dev, env.clone(), NtfsOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("volume should be unmountable"),
    };
    assert_eq!(err.errno(), Some(Errno::EUCLEAN), "strong DSanity at mount");
    assert!(env.klog.contains("unmountable"));
}

#[test]
fn corrupted_block_pointer_clobbers_system_structures_paper_bug() {
    let (mut v, _ctl, _env) = mount();
    v.write_file("/victim", &vec![0u8; 4096]).unwrap();
    v.umount().unwrap();
    let mut dev = v.into_fs().into_device();
    // Corrupt the victim's MFT record so its first data pointer aims at
    // the volume bitmap. The record still passes all sanity checks
    // (PAPER-BUG: pointers are never validated).
    let mut rec_addr = None;
    for a in 0..4096u64 {
        let b = dev.peek(BlockAddr(a));
        if b.get_u32(0) == iron_ntfs::fs::FILE_MAGIC && b[8] == 1 && b.get_u32(4) == 1 {
            rec_addr = Some(a);
        }
    }
    let rec_addr = rec_addr.expect("victim record");
    let mut rec = dev.peek(BlockAddr(rec_addr));
    let bitmap_addr = 1 + 64; // logfile_start(1) + logfile_blocks(64) = volume bitmap
    let bitmap_before = dev.peek(BlockAddr(bitmap_addr));
    rec.put_u32(48, bitmap_addr as u32); // direct[0] := volume bitmap
    dev.poke(BlockAddr(rec_addr), &rec);
    let env = FsEnv::new();
    let fs = NtfsFs::mount(dev, env.clone(), NtfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    // Writing "the file" silently overwrites the volume bitmap.
    let fd = v.open("/victim", iron_vfs::OpenFlags::wronly()).unwrap();
    v.pwrite(fd, 0, &vec![0xFF; 4096]).unwrap();
    v.close(fd).unwrap();
    let dev = v.into_fs().into_device();
    let bitmap_after = dev.peek(BlockAddr(bitmap_addr));
    assert_ne!(bitmap_before, bitmap_after, "system structure clobbered");
    assert_eq!(bitmap_after, Block::filled(0xFF));
}

/// The run block is not a Table 4 row, so no campaign corrupts it; its
/// pointers are still read from disk, and `unlink` hands each one to the
/// volume bitmap. A pointer outside the volume must be an error, not an
/// index past the bitmap block.
#[test]
fn corrupt_run_block_pointer_is_euclean_not_a_panic() {
    use iron_core::klog::LogLevel;
    use iron_core::model::CorruptionStyle;

    let (mut v, ctl, _env) = mount();
    v.write_file("/big", &vec![7u8; 40 * 4096]).unwrap();
    let (mut v, env) = remount(v);
    ctl.inject(FaultSpec::sticky(
        FaultKind::Corruption(CorruptionStyle::RandomNoise),
        FaultTarget::Tag(BlockTag("run block")),
    ));
    let bitmap_addr = BlockAddr(1 + 64); // logfile_start(1) + logfile_blocks(64)
    let bitmap_before = v.fs().device_ref().peek(bitmap_addr);
    let trace = v.fs().device_ref().log();
    let (mark, trace_mark) = (env.klog.len(), trace.len());

    let err = v.unlink("/big").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    let errors: Vec<_> = env
        .klog
        .since(mark)
        .into_iter()
        .filter(|e| e.level == LogLevel::Error)
        .collect();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert_eq!(errors[0].subsystem, "ntfs");
    assert!(errors[0].message.contains("outside the volume"));
    assert_ne!(env.state(), MountState::Crashed);
    // The direct blocks were freed before the run block was read: each of
    // those bitmap writes cleared one bit, and the wild pointer wrote none.
    let bitmap_after = v.fs().device_ref().peek(bitmap_addr);
    let cleared = (0..4096 * 8).filter(|&i| bitmap_before.bit(i) && !bitmap_after.bit(i));
    let bitmap_writes = trace
        .since(trace_mark)
        .iter()
        .filter(|e| e.kind == IoKind::Write && e.addr == bitmap_addr)
        .count();
    assert_eq!(cleared.count(), bitmap_writes);
}

/// The boot file's magic is checked; its geometry indexes one bitmap block
/// at mount. A boot file that still says `NTFS` but describes a volume the
/// device cannot hold must fail the mount, not index past the bitmap (the
/// campaigns' boot-file corruptions already fail the magic, so only a
/// plausible-but-wrong field reaches this).
#[test]
fn corrupt_boot_geometry_is_euclean_not_a_panic() {
    use iron_core::klog::LogLevel;

    // (field offset in the boot file, garbage value)
    let garbage = [
        (8, 40_000),    // total_blocks past the device and the bitmap block
        (24, u64::MAX), // logfile_blocks that overflows the layout sum
        (16, 1 << 40),  // mft_records past the bitmap block
    ];
    for (offset, value) in garbage {
        let mut md = MemDisk::for_tests(4096);
        NtfsFs::<MemDisk>::mkfs(&mut md, NtfsParams::small()).unwrap();
        let mut boot = md.peek(BlockAddr(0));
        boot.put_u64(offset, value);
        md.poke(BlockAddr(0), &boot);

        let env = FsEnv::new();
        let err = NtfsFs::mount(md, env.clone(), NtfsOptions::default())
            .err()
            .unwrap_or_else(|| panic!("field {offset} = {value} must not mount"));
        assert_eq!(err.errno(), Some(Errno::EUCLEAN), "field {offset}");
        let errors: Vec<_> = env
            .klog
            .entries()
            .into_iter()
            .filter(|e| e.level == LogLevel::Error)
            .collect();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].subsystem, "ntfs");
        assert!(errors[0].message.contains("does not fit the device"));
    }
}

#[test]
fn errors_propagate_reliably() {
    // "It also seems to propagate errors to the user quite reliably."
    let (mut v, ctl, _env) = mount();
    v.write_file("/f", b"y").unwrap();
    // Remount without the integrity scan so MFT blocks stay cold, then
    // fail the runtime MFT read.
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = NtfsFs::mount(dev, env.clone(), NtfsOptions { skip_verify: true }).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("MFT record")),
    ));
    assert_eq!(v.stat("/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_ne!(env.state(), MountState::Crashed, "no panic, just errors");
}

// ----------------------------------------------------------------------
// The full Figure 1 stack: NTFS over the write-back buffer cache.
// ----------------------------------------------------------------------

#[test]
fn cached_stack_round_trip() {
    use iron_blockdev::{CachePolicy, StackBuilder};

    let mut dev = StackBuilder::memdisk(4096)
        .with_cache(CachePolicy::write_back(64))
        .build();
    NtfsFs::<MemDisk>::mkfs(dev.inner_mut(), NtfsParams::small()).unwrap();
    let fs = NtfsFs::mount(dev, FsEnv::new(), NtfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        v.write_file(&format!("/f{i}"), &vec![i; 3000]).unwrap();
    }
    v.sync().unwrap();
    v.umount().unwrap();

    let cache = v.into_fs().into_device();
    assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
    let md = cache.into_inner();
    let fs = NtfsFs::mount(md, FsEnv::new(), NtfsOptions::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..12u8 {
        assert_eq!(v.read_file(&format!("/f{i}")).unwrap(), vec![i; 3000]);
    }
}
