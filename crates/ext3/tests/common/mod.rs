//! Shared helpers for the ext3 checker suites: an ext3 image builder, a
//! typed-block victim enumerator and a block corrupter for corruption
//! campaigns, and a check that must be deterministic.
//!
//! Each suite uses a different subset of these helpers.
#![allow(dead_code)]

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, BLOCK_SIZE};
use iron_ext3::fsck::{check, FsckReport};
use iron_ext3::inode::DiskInode;
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::{FileType, FsEnv, Vfs};

/// The mount profiles the differential suites build images under: stock
/// ext3; ixt3 without `Mr` (checksums, a parity block per file, `Tc`);
/// and full ixt3, whose layout carries the metadata mirror and its
/// replica log.
pub fn profiles() -> [(&'static str, IronConfig); 3] {
    let unmirrored = IronConfig {
        meta_replication: false,
        ..IronConfig::full()
    };
    [
        ("stock", IronConfig::off()),
        ("ixt3", unmirrored),
        ("ixt3+mirror", IronConfig::full()),
    ]
}

/// Build a populated, cleanly unmounted ext3 image: a directory tree with
/// `files` regular files of `file_bytes` each (plus one large file that
/// needs an indirect block, and one hard link), formatted for and written
/// under `iron` (the mirror is reserved iff it replicates metadata).
pub fn build_image(files: usize, file_bytes: usize, iron: IronConfig) -> (MemDisk, DiskLayout) {
    let dev = MemDisk::for_tests(4096);
    let fs = Ext3Fs::format_and_mount(
        dev,
        FsEnv::new(),
        Ext3Params::small(),
        Ext3Options::with_iron(iron),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/d", 0o755).unwrap();
    v.mkdir("/d/sub", 0o755).unwrap();
    for i in 0..files {
        let dir = if i % 3 == 0 { "/d/sub" } else { "/d" };
        v.write_file(&format!("{dir}/f{i}"), &vec![i as u8; file_bytes])
            .unwrap();
    }
    // Past 12 direct blocks -> allocates an indirect block.
    v.write_file("/big", &vec![0xAB; 60_000]).unwrap();
    v.link("/d/f1", "/hard").unwrap();
    v.umount().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    (fs.into_device(), layout)
}

/// Check the image twice: the checker must not panic on it and must
/// report the same issues, in the same order, both times.
pub fn check_twice<D: RawAccess>(dev: &D, layout: &DiskLayout, ctx: &str) -> FsckReport {
    let report = check(dev, layout);
    let again = check(dev, layout);
    assert_eq!(again.issues, report.issues, "{ctx}: nondeterministic");
    report
}

/// Candidate corruption victims, grouped by on-disk block class. Only
/// classes fsck actually reads are enumerated (the journal is crash
/// territory, covered by `fsck_crash_images.rs`).
pub fn victims(dev: &MemDisk, layout: &DiskLayout) -> Vec<(&'static str, Vec<u64>)> {
    let mut sb = vec![0u64];
    let mut dbm = Vec::new();
    let mut ibm = Vec::new();
    let mut itable = Vec::new();
    for g in 0..layout.num_groups {
        dbm.push(layout.data_bitmap(g).0);
        ibm.push(layout.inode_bitmap(g).0);
        for b in 0..layout.itable_blocks {
            itable.push(layout.inode_table(g) + b);
        }
    }
    sb.extend((0..layout.num_groups).map(|g| layout.super_replica(g).0));
    let mut dir_data = Vec::new();
    let mut file_data = Vec::new();
    let mut indirect = Vec::new();
    for ino in 2..=layout.total_inodes() {
        let (blk, off) = layout.inode_location(ino);
        let di = DiskInode::decode_from(&dev.peek(blk), off);
        if di.is_free() {
            continue;
        }
        let Some(ftype) = di.file_type() else {
            continue;
        };
        for &d in &di.direct {
            if d != 0 {
                if ftype == FileType::Directory {
                    dir_data.push(d as u64);
                } else {
                    file_data.push(d as u64);
                }
            }
        }
        if di.indirect != 0 {
            indirect.push(di.indirect as u64);
        }
    }
    vec![
        ("super", sb),
        ("data_bitmap", dbm),
        ("inode_bitmap", ibm),
        ("inode_table", itable),
        ("dir_data", dir_data),
        ("file_data", file_data),
        ("indirect", indirect),
    ]
}

/// Deterministically corrupt `addr` in one of four styles selected by
/// `style`, parameterized by `x`.
pub fn corrupt_block(dev: &mut MemDisk, addr: u64, style: u64, x: u64) {
    let a = BlockAddr(addr);
    let b = match style % 4 {
        0 => {
            // Pseudo-random noise.
            let mut b = Block::zeroed();
            let mut s = x | 1;
            for chunk in b.chunks_mut(8) {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let n = chunk.len();
                chunk.copy_from_slice(&s.to_le_bytes()[..n]);
            }
            b
        }
        1 => Block::zeroed(),
        2 => {
            // Bit rot: invert a short burst.
            let mut b = dev.peek(a);
            let off = (x as usize) % BLOCK_SIZE;
            let len = 1 + (x as usize >> 16) % 16;
            for byte in &mut b[off..(off + len).min(BLOCK_SIZE)] {
                *byte = !*byte;
            }
            b
        }
        _ => {
            // Plausible-but-wrong field: overwrite one aligned u32.
            let mut b = dev.peek(a);
            let off = ((x as usize) % (BLOCK_SIZE / 4)) * 4;
            b.put_u32(off, (x >> 8) as u32);
            b
        }
    };
    dev.poke(a, &b);
}

/// A tiny deterministic PRNG for victim selection inside property cases.
pub struct Lcg(pub u64);

impl Lcg {
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}
