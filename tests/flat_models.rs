//! The two flat-inode models (JFS, NTFS), driven straight through
//! `SpecificFs`.
//!
//! On a healthy disk one fixed program must leave a byte-identical image
//! and issue the same block requests in the same order: Figure 2 pins
//! only how faults are *classified*; this pins the fault-free on-disk
//! format and I/O order those classifications rest on.
//!
//! And a symlink whose size field was corrupted past a block must come
//! back as `EUCLEAN` with a kernel-log line, not as a panic.

use ironfs::blockdev::{BlockDevice, MemDisk, RawAccess, Recorder};
use ironfs::core::checksum::sha1;
use ironfs::core::{BlockAddr, Errno};
use ironfs::jfs::{JfsFs, JfsLayout, JfsOptions, JfsParams};
use ironfs::ntfs::{NtfsFs, NtfsOptions, NtfsParams};
use ironfs::vfs::{FsEnv, SpecificFs};

const BLOCKS: u64 = 4096;

/// mkdir, create, a write that spills past the direct pointers of either
/// model, link, symlink, a directory renamed across directories, truncate
/// down and up, unlink, rmdir, sync, unmount — with reads in between so
/// the cache-miss order is pinned too.
fn program<F: SpecificFs>(fs: &mut F) {
    let root = fs.root_ino();
    let a = fs.mkdir(root, "a", 0o755).unwrap();
    let b = fs.mkdir(root, "b", 0o750).unwrap();
    let f = fs.create(a, "file", 0o644).unwrap();
    let body: Vec<u8> = (0..90_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(fs.write(f, 0, &body).unwrap(), body.len());
    assert_eq!(fs.write(f, 5_000, b"overwrite").unwrap(), 9);
    fs.chmod(f, 0o600).unwrap();
    fs.chown(f, 7, 9).unwrap();
    fs.utimes(f, 1234).unwrap();
    fs.link(f, b, "alias").unwrap();
    let s = fs.symlink(b, "sym", "/a/file").unwrap();
    assert_eq!(fs.readlink(s).unwrap(), "/a/file");
    let sub = fs.mkdir(a, "sub", 0o700).unwrap();
    let g = fs.create(sub, "inner", 0o644).unwrap();
    fs.write(g, 4_000, b"straddles a block boundary").unwrap();
    fs.rename(a, "sub", b, "moved").unwrap();
    assert_eq!(fs.lookup(b, "moved").unwrap(), sub);
    assert_eq!(fs.getattr(b).unwrap().nlink, 3);
    fs.truncate(f, 70_001).unwrap();
    fs.truncate(f, 10_000).unwrap();
    fs.truncate(f, 50_000).unwrap();
    let back = fs.read(f, 0, 60_000).unwrap();
    assert_eq!(back.len(), 50_000);
    assert_eq!(&back[5_000..5_009], b"overwrite");
    assert!(back[10_000..].iter().all(|&x| x == 0));
    fs.rename(b, "alias", a, "file2").unwrap();
    fs.unlink(a, "file").unwrap();
    assert_eq!(fs.getattr(f).unwrap().nlink, 1);
    fs.unlink(sub, "inner").unwrap();
    fs.rmdir(b, "moved").unwrap();
    fs.unlink(b, "sym").unwrap();
    assert_eq!(fs.readdir(b).unwrap().len(), 2);
    fs.fsync(f).unwrap();
    fs.sync().unwrap();
    fs.unmount().unwrap();
}

/// `(sha1 of every block, sha1 of the "kind addr tag" request lines)`.
fn digests(dev: Recorder<MemDisk>) -> (String, String) {
    let trace: String = dev
        .log()
        .events()
        .iter()
        .map(|e| format!("{} {} {}\n", e.kind, e.addr.0, e.tag))
        .collect();
    let mut image = Vec::new();
    for a in 0..dev.num_blocks() {
        image.extend_from_slice(&dev.peek(BlockAddr(a))[..]);
    }
    (sha1(&image).to_hex(), sha1(trace.as_bytes()).to_hex())
}

#[test]
fn jfs_image_and_io_order_are_pinned() {
    let dev = Recorder::new(MemDisk::for_tests(BLOCKS));
    // A low threshold makes commits fall between operations, not only at
    // the final sync, so where each operation ends its transaction is
    // part of what is pinned.
    let opts = JfsOptions {
        commit_threshold: 8,
        crash_mode: false,
    };
    let mut fs = JfsFs::format_and_mount(dev, FsEnv::new(), JfsParams::small(), opts).unwrap();
    program(&mut fs);
    assert_eq!(
        digests(fs.into_device()),
        (
            "cf6e1a3519ec9ad0bfc6d61e519b53cd6b7620ac".to_string(),
            "943fc2252890e6364bcff1edafa2bf68835e3268".to_string()
        ),
        "JFS (image, trace)"
    );
}

#[test]
fn ntfs_image_and_io_order_are_pinned() {
    let dev = Recorder::new(MemDisk::for_tests(BLOCKS));
    let mut fs = NtfsFs::format_and_mount(dev, FsEnv::new(), NtfsParams::small()).unwrap();
    program(&mut fs);
    assert_eq!(
        digests(fs.into_device()),
        (
            "c68b44363b3b4c1ee9b75d173246a2dff8020fd0".to_string(),
            "0652ace3d22c21aaca3aff34beb5c7566cb913c9".to_string()
        ),
        "NTFS (image, trace)"
    );
}

/// Make a symlink, unmount, overwrite the `u64` at `size_at(link)` — the
/// node's size field — with 5000 (past a block, yet within what JFS's
/// inode sanity check allows a *file*), remount and read the link.
fn readlink_with_oversized_link<F: SpecificFs>(
    mut fs: F,
    into_device: impl Fn(F) -> MemDisk,
    size_at: impl Fn(u64) -> (BlockAddr, usize),
    remount: impl Fn(MemDisk, FsEnv) -> F,
    subsystem: &str,
) {
    let root = fs.root_ino();
    let link = fs.symlink(root, "ln", "/some/where").unwrap();
    fs.unmount().unwrap();
    let mut dev = into_device(fs);
    let (addr, off) = size_at(link);
    let mut b = dev.peek(addr);
    assert_eq!(b.get_u64(off), "/some/where".len() as u64, "size field");
    b.put_u64(off, 5000);
    dev.poke(addr, &b);

    let env = FsEnv::new();
    let mut fs = remount(dev, env.clone());
    let err = fs.readlink(link).unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EUCLEAN));
    let logged = env.klog.entries();
    assert!(
        logged
            .iter()
            .any(|e| e.subsystem == subsystem && e.message.contains("symlink")),
        "{logged:?}"
    );
}

#[test]
fn jfs_readlink_survives_a_corrupt_size() {
    let fs = JfsFs::format_and_mount(
        MemDisk::for_tests(BLOCKS),
        FsEnv::new(),
        JfsParams::small(),
        JfsOptions::default(),
    )
    .unwrap();
    let layout = JfsLayout::compute(JfsParams::small());
    readlink_with_oversized_link(
        fs,
        JfsFs::into_device,
        |ino| {
            let (block, off) = layout.inode_location(ino);
            (block, off + 16)
        },
        |dev, env| JfsFs::mount(dev, env, JfsOptions::default()).unwrap(),
        "jfs",
    );
}

#[test]
fn ntfs_readlink_survives_a_corrupt_size() {
    let params = NtfsParams::small();
    let fs = NtfsFs::format_and_mount(MemDisk::for_tests(BLOCKS), FsEnv::new(), params).unwrap();
    // Boot file, logfile, the two bitmaps, then one block per MFT record.
    let mft_start = 1 + params.logfile_blocks + 2;
    readlink_with_oversized_link(
        fs,
        NtfsFs::into_device,
        |rec| (BlockAddr(mft_start + rec), 32),
        |dev, env| NtfsFs::mount(dev, env, NtfsOptions::default()).unwrap(),
        "ntfs",
    );
}
