//! Functional tests of the ext3 model on a healthy disk: POSIX semantics,
//! persistence across remounts, journal recovery after simulated crashes.

use iron_blockdev::MemDisk;
use iron_core::Errno;
use iron_ext3::fsck;
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params};
use iron_vfs::{FsEnv, OpenFlags, SpecificFs, Vfs};

fn fresh() -> Vfs<Ext3Fs<MemDisk>> {
    let dev = MemDisk::for_tests(4096);
    let fs = Ext3Fs::format_and_mount(
        dev,
        FsEnv::new(),
        Ext3Params::small(),
        Ext3Options::default(),
    )
    .expect("mount");
    Vfs::new(fs)
}

/// Unmount, then mount the same image again with fresh state.
fn remount(v: Vfs<Ext3Fs<MemDisk>>) -> Vfs<Ext3Fs<MemDisk>> {
    let mut fs = v.into_fs();
    fs.unmount().expect("unmount");
    let dev = fs.into_device();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).expect("remount");
    Vfs::new(fs)
}

#[test]
fn mkfs_mount_empty_root() {
    let mut v = fresh();
    let entries = v.readdir("/").unwrap();
    let names: Vec<_> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec![".", ".."]);
    let st = v.statfs().unwrap();
    assert!(st.blocks_free > 2000);
    assert!(st.inodes_free > 1000);
}

#[test]
fn write_read_small_file() {
    let mut v = fresh();
    v.write_file("/hello.txt", b"iron file systems").unwrap();
    assert_eq!(v.read_file("/hello.txt").unwrap(), b"iron file systems");
    let attr = v.stat("/hello.txt").unwrap();
    assert_eq!(attr.size, 17);
}

#[test]
fn large_file_exercises_indirect_blocks() {
    let mut v = fresh();
    // > 12 direct blocks (48 KiB) to force single-indirect, ~300 KiB total.
    let data: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    v.write_file("/big", &data).unwrap();
    assert_eq!(v.read_file("/big").unwrap(), data);
    let attr = v.stat("/big").unwrap();
    assert_eq!(attr.size, 300_000);
}

#[test]
fn very_large_file_exercises_double_indirect() {
    // 12 + 1024 blocks = ~4.2 MiB before double-indirect; write 5 MiB.
    let dev = MemDisk::for_tests(8192); // 32 MiB disk
    let params = Ext3Params {
        total_blocks: 8192,
        ..Ext3Params::small()
    };
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), params, Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    let chunk = vec![0xA7u8; 1 << 20];
    let fd = v.creat("/huge").unwrap();
    for _ in 0..5 {
        v.write(fd, &chunk).unwrap();
    }
    v.close(fd).unwrap();
    let attr = v.stat("/huge").unwrap();
    assert_eq!(attr.size, 5 << 20);
    // Spot-check content at a double-indirect offset.
    let fd = v.open("/huge", OpenFlags::rdonly()).unwrap();
    let back = v.pread(fd, (4 << 20) + 123, 64).unwrap();
    assert_eq!(back, vec![0xA7u8; 64]);
}

#[test]
fn sparse_file_reads_zero_holes() {
    let mut v = fresh();
    let fd = v.creat("/sparse").unwrap();
    v.pwrite(fd, 100_000, b"tail").unwrap();
    v.close(fd).unwrap();
    let data = v.read_file("/sparse").unwrap();
    assert_eq!(data.len(), 100_004);
    assert!(data[..100_000].iter().all(|&b| b == 0));
    assert_eq!(&data[100_000..], b"tail");
}

#[test]
fn directories_nest_and_list() {
    let mut v = fresh();
    v.mkdir("/a", 0o755).unwrap();
    v.mkdir("/a/b", 0o755).unwrap();
    v.write_file("/a/b/f", b"x").unwrap();
    assert_eq!(v.read_file("/a/b/f").unwrap(), b"x");
    assert_eq!(v.readdir("/a/b").unwrap().len(), 3);
    assert_eq!(
        v.mkdir("/a", 0o755).unwrap_err().errno(),
        Some(Errno::EEXIST)
    );
}

#[test]
fn many_files_in_one_directory_span_blocks() {
    let mut v = fresh();
    v.mkdir("/dir", 0o755).unwrap();
    for i in 0..300 {
        v.write_file(&format!("/dir/file-with-a-long-name-{i:04}"), b"d")
            .unwrap();
    }
    assert_eq!(v.readdir("/dir").unwrap().len(), 302);
    // Spot-check lookups at both ends.
    assert!(v.stat("/dir/file-with-a-long-name-0000").is_ok());
    assert!(v.stat("/dir/file-with-a-long-name-0299").is_ok());
    // Delete them all; directory shrinks back.
    for i in 0..300 {
        v.unlink(&format!("/dir/file-with-a-long-name-{i:04}"))
            .unwrap();
    }
    assert_eq!(v.readdir("/dir").unwrap().len(), 2);
    v.rmdir("/dir").unwrap();
}

#[test]
fn unlink_frees_space() {
    let mut v = fresh();
    let before = v.statfs().unwrap().blocks_free;
    v.write_file("/f", &vec![1u8; 200_000]).unwrap();
    let during = v.statfs().unwrap().blocks_free;
    assert!(during < before);
    v.unlink("/f").unwrap();
    v.sync().unwrap();
    let after = v.statfs().unwrap().blocks_free;
    assert_eq!(after, before, "all blocks (incl. indirect) freed");
}

#[test]
fn hard_links_and_symlinks() {
    let mut v = fresh();
    v.write_file("/orig", b"shared").unwrap();
    v.link("/orig", "/hard").unwrap();
    assert_eq!(v.stat("/hard").unwrap().nlink, 2);
    v.unlink("/orig").unwrap();
    assert_eq!(v.read_file("/hard").unwrap(), b"shared");

    v.symlink("/hard", "/soft").unwrap();
    assert_eq!(v.read_file("/soft").unwrap(), b"shared");
    assert_eq!(v.readlink("/soft").unwrap(), "/hard");
}

#[test]
fn rename_moves_and_replaces() {
    let mut v = fresh();
    v.mkdir("/src", 0o755).unwrap();
    v.mkdir("/dst", 0o755).unwrap();
    v.write_file("/src/f", b"1").unwrap();
    v.write_file("/dst/f", b"2").unwrap();
    v.rename("/src/f", "/dst/f").unwrap();
    assert_eq!(v.read_file("/dst/f").unwrap(), b"1");
    assert!(v.stat("/src/f").is_err());
    // Directory rename across parents.
    v.mkdir("/src/sub", 0o755).unwrap();
    v.write_file("/src/sub/x", b"x").unwrap();
    v.rename("/src/sub", "/dst/sub").unwrap();
    assert_eq!(v.read_file("/dst/sub/x").unwrap(), b"x");
}

#[test]
fn truncate_shrink_extend() {
    let mut v = fresh();
    v.write_file("/t", &vec![7u8; 10_000]).unwrap();
    v.truncate("/t", 5_000).unwrap();
    assert_eq!(v.stat("/t").unwrap().size, 5_000);
    assert_eq!(v.read_file("/t").unwrap(), vec![7u8; 5_000]);
    v.truncate("/t", 8_000).unwrap();
    let data = v.read_file("/t").unwrap();
    assert_eq!(&data[..5_000], &vec![7u8; 5_000][..]);
    assert!(
        data[5_000..].iter().all(|&b| b == 0),
        "extension reads zeros"
    );
}

#[test]
fn persistence_across_remount() {
    let mut v = fresh();
    v.mkdir("/keep", 0o755).unwrap();
    v.write_file("/keep/data", &vec![0x5A; 60_000]).unwrap();
    v.chmod("/keep/data", 0o600).unwrap();
    v.chown("/keep/data", 42, 43).unwrap();
    let mut v = remount(v);
    assert_eq!(v.read_file("/keep/data").unwrap(), vec![0x5A; 60_000]);
    let attr = v.stat("/keep/data").unwrap();
    assert_eq!((attr.mode, attr.uid, attr.gid), (0o600, 42, 43));
}

#[test]
fn fsck_clean_after_workload() {
    let mut v = fresh();
    v.mkdir("/d", 0o755).unwrap();
    for i in 0..40 {
        v.write_file(&format!("/d/f{i}"), &vec![i as u8; 5000])
            .unwrap();
    }
    for i in (0..40).step_by(2) {
        v.unlink(&format!("/d/f{i}")).unwrap();
    }
    v.rename("/d/f1", "/d/renamed").unwrap();
    v.sync().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    let dev = fs.into_device();
    let report = fsck::check(&dev, &layout);
    assert!(report.is_clean(), "fsck found: {:?}", report.issues);
}

#[test]
fn crash_before_checkpoint_recovers_via_journal() {
    // Defer the checkpoint past the end of the run: commits make the
    // journal durable, home locations stay stale. After "crash", a normal
    // mount must replay the journal and recover the metadata.
    let dev = MemDisk::for_tests(4096);
    let opts = Ext3Options {
        checkpoint_lag: usize::MAX,
        ..Default::default()
    };
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/survives", 0o755).unwrap();
    v.write_file("/survives/f", b"journaled").unwrap();
    v.sync().unwrap(); // commit (journal only, no checkpoint)

    // Simulated crash: take the device without unmounting.
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::default()).expect("recovery mount");
    assert!(env.klog.contains("replaying journal"));
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/survives/f").unwrap(), b"journaled");
    // And the recovered image is consistent.
    let fs = v.into_fs();
    let layout = *fs.layout();
    let dev = fs.into_device();
    assert!(fsck::check(&dev, &layout).is_clean());
}

#[test]
fn uncommitted_transaction_is_not_replayed() {
    // Changes staged but never committed must vanish after a crash.
    let dev = MemDisk::for_tests(4096);
    let opts = Ext3Options {
        commit_threshold: 10_000, // never auto-commit
        ..Default::default()
    };
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    v.write_file("/committed", b"yes").unwrap();
    v.sync().unwrap();
    v.write_file("/lost", b"no").unwrap(); // staged only
    let dev = v.into_fs().into_device(); // crash
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/committed").unwrap(), b"yes");
    assert_eq!(v.stat("/lost").unwrap_err().errno(), Some(Errno::ENOENT));
}

#[test]
fn enospc_when_disk_fills() {
    let mut v = fresh();
    let mut i = 0;
    let err = loop {
        match v.write_file(&format!("/fill{i}"), &vec![0xFF; 1 << 20]) {
            Ok(()) => i += 1,
            Err(e) => break e,
        }
        assert!(i < 100, "disk should fill well before 100 MiB");
    };
    assert_eq!(err.errno(), Some(Errno::ENOSPC));
    // The file system is still usable afterwards.
    v.unlink("/fill0").unwrap();
    v.sync().unwrap();
    v.write_file("/after", b"ok").unwrap();
    assert_eq!(v.read_file("/after").unwrap(), b"ok");
}

#[test]
fn statfs_tracks_usage() {
    let mut v = fresh();
    let st0 = v.statfs().unwrap();
    v.write_file("/f", &vec![0u8; 40_960]).unwrap();
    v.sync().unwrap();
    let st1 = v.statfs().unwrap();
    assert_eq!(st0.blocks_free - st1.blocks_free, 10);
    assert_eq!(st0.inodes_free - st1.inodes_free, 1);
}

// ----------------------------------------------------------------------
// The full Figure 1 stack: ext3 over the write-back buffer cache.
// ----------------------------------------------------------------------

#[test]
fn cached_stack_round_trip() {
    use iron_blockdev::{BufferCache, CachePolicy, StackBuilder};

    let mut dev = StackBuilder::memdisk(4096)
        .with_cache(CachePolicy::write_back(64))
        .build();
    Ext3Fs::<BufferCache<MemDisk>>::mkfs(&mut dev, Ext3Params::small()).unwrap();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..20u8 {
        v.write_file(&format!("/f{i}"), &vec![i; 5000]).unwrap();
    }
    v.sync().unwrap();
    v.umount().unwrap();

    // Unmount flushed everything; the raw medium alone must carry the data.
    let cache = v.into_fs().into_device();
    assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
    let md = cache.into_inner();
    let fs = Ext3Fs::mount(md, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..20u8 {
        assert_eq!(v.read_file(&format!("/f{i}")).unwrap(), vec![i; 5000]);
    }
}

// ----------------------------------------------------------------------
// The private cache of verified blocks (`Ext3Options::cache_blocks`).
// ----------------------------------------------------------------------

#[test]
fn private_cache_serves_rereads_until_the_scan_outgrows_it() {
    /// Device reads the second of two scans of an 8-block file costs.
    fn second_scan_reads(cache_blocks: usize) -> u64 {
        let mut v = fresh();
        v.write_file("/f", &vec![7u8; 8 * 4096]).unwrap();
        v.umount().unwrap();
        let opts = Ext3Options {
            cache_blocks,
            ..Ext3Options::default()
        };
        let fs = Ext3Fs::mount(v.into_fs().into_device(), FsEnv::new(), opts).unwrap();
        let mut v = Vfs::new(fs);
        assert_eq!(v.read_file("/f").unwrap().len(), 8 * 4096);
        let before = v.fs().device().stats().reads;
        assert_eq!(v.read_file("/f").unwrap().len(), 8 * 4096);
        v.fs().device().stats().reads - before
    }
    assert_eq!(second_scan_reads(2048), 0, "everything is still cached");
    // An LRU of 4 under a cyclic scan of 8 data blocks misses every time.
    assert!(
        second_scan_reads(4) >= 8,
        "capacity is enforced, oldest first"
    );
}
