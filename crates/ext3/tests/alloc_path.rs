//! The allocation path, pinned from outside (in the manner of
//! `tests/flat_models.rs`): one fixed program must hand out the same block
//! addresses, leave a byte-identical image and issue the same device
//! requests in the same order on every mount profile — so a change to how
//! the allocator *searches* (or to when the counter blocks are encoded)
//! that moves one allocation, one journal block or one cache miss shows as
//! a different digest. The literals were recorded at b810a68, before
//! uncommitted frees became an overlay bitmap.

use std::collections::BTreeSet;

use iron_blockdev::{BlockDevice, MemDisk, RawAccess, Recorder};
use iron_core::checksum::sha1;
use iron_core::{BlockAddr, BLOCK_SIZE};
use iron_ext3::journal::{classify_log_block, JournalRecord};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig, Superblock};
use iron_vfs::{FsEnv, SpecificFs};

type Fs = Ext3Fs<Recorder<MemDisk>>;

/// 512-block groups so that a hundred small files fill one: 15 groups
/// plain, 6 with the `Mr` mirror taking the upper half.
fn params() -> Ext3Params {
    Ext3Params {
        total_blocks: 8192,
        blocks_per_group: 512,
        inodes_per_group: 128,
        journal_blocks: 256,
        mirror_metadata: false,
    }
}

/// What an allocation made between a free and its commit may do.
#[derive(Clone, Copy, PartialEq)]
enum Reuse {
    /// The committed view: a freed block stays busy until the commit.
    Deferred,
    /// `legacy_journal_bugs`: the seed's eager reuse.
    Eager,
    /// Transactions close mid-program (low threshold, group commit), so
    /// "before the commit" names no fixed point; the digests are the oracle.
    Unchecked,
}

fn body(seed: u32, len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(31) ^ seed.wrapping_mul(131)) as u8)
        .collect()
}

/// Fill group 0 with five-block files until one spills into group 1, free
/// a scattered third, allocate before and after the commit, churn two
/// directories, and overwrite mid-block (copy-on-write under `Dc`: a free
/// and an allocation in one call).
fn program(fs: &mut Fs, reuse: Reuse) {
    let root = fs.root_ino();
    let a = fs.mkdir(root, "a", 0o755).unwrap();
    let b = fs.mkdir(root, "b", 0o755).unwrap();
    let group1 = fs.layout().group_base(1);

    let mut files: Vec<(String, u64)> = Vec::new();
    loop {
        let i = files.len() as u32;
        let name = format!("f{i:03}");
        let ino = fs.create(a, &name, 0o644).unwrap();
        fs.write(ino, 0, &body(i, 5 * BLOCK_SIZE)).unwrap();
        files.push((name, ino));
        if fs.blocks_of(ino).unwrap().iter().any(|&blk| blk >= group1) {
            break;
        }
        assert!(files.len() < 120, "group 0 never filled");
    }
    fs.sync().unwrap();

    let mut freed: BTreeSet<u64> = BTreeSet::new();
    for (name, ino) in files.iter().skip(1).step_by(3) {
        freed.extend(fs.blocks_of(*ino).unwrap());
        fs.unlink(a, name).unwrap();
    }
    assert!(freed.len() > 100 && freed.iter().any(|&blk| blk < group1));

    let pre = fs.create(b, "pre", 0o644).unwrap();
    fs.write(pre, 0, &body(1000, 8 * BLOCK_SIZE)).unwrap();
    let pre_blocks = fs.blocks_of(pre).unwrap();
    match reuse {
        Reuse::Deferred => assert!(
            pre_blocks.iter().all(|blk| !freed.contains(blk)),
            "a block freed by an uncommitted transaction was handed out"
        ),
        Reuse::Eager => assert!(freed.contains(&pre_blocks[0])),
        Reuse::Unchecked => {}
    }
    fs.sync().unwrap();

    let post = fs.create(b, "post", 0o644).unwrap();
    fs.write(post, 0, &body(1001, 8 * BLOCK_SIZE)).unwrap();
    if reuse != Reuse::Unchecked {
        let first = fs.blocks_of(post).unwrap()[0];
        assert!(freed.contains(&first), "committed frees are allocatable");
    }

    // Two directories, creates and unlinks interleaved; one file long
    // enough to need its indirect block.
    let x1 = fs.create(a, "x1", 0o644).unwrap();
    fs.write(x1, 0, &body(1, 14 * BLOCK_SIZE)).unwrap();
    let x2 = fs.create(b, "x2", 0o600).unwrap();
    fs.write(x2, 100, &body(2, 3000)).unwrap();
    fs.unlink(a, "x1").unwrap();
    let x3 = fs.create(b, "x3", 0o644).unwrap();
    fs.write(x3, 0, &body(3, 2 * BLOCK_SIZE + 17)).unwrap();
    fs.rename(b, "x3", a, "x3").unwrap();
    fs.unlink(b, "x2").unwrap();
    fs.symlink(a, "ln", "/b/post").unwrap();

    // Mid-block append and a mid-block truncate of committed blocks.
    let cow = fs.create(b, "cow", 0o644).unwrap();
    fs.write(cow, 0, &body(7, 6000)).unwrap();
    fs.sync().unwrap();
    fs.write(cow, 6000, &body(8, 3000)).unwrap();
    fs.truncate(cow, 5000).unwrap();
    let back = fs.read(cow, 0, 10_000).unwrap();
    assert_eq!(back, body(7, 6000)[..5000]);

    let (name, ino) = &files[0];
    assert_eq!(fs.lookup(a, name).unwrap(), *ino);
    assert_eq!(
        fs.read(*ino, 0, usize::MAX).unwrap(),
        body(0, 5 * BLOCK_SIZE)
    );
    assert_eq!(
        fs.read(post, 0, usize::MAX).unwrap(),
        body(1001, 8 * BLOCK_SIZE)
    );
    fs.fsync(cow).unwrap();
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

fn run(opts: Ext3Options, reuse: Reuse) -> (String, String) {
    let dev = Recorder::new(MemDisk::for_tests(params().total_blocks));
    let mut fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), params(), opts).unwrap();
    program(&mut fs, reuse);
    digests(fs.into_device())
}

fn pinned(got: (String, String), image: &str, trace: &str, what: &str) {
    assert_eq!(
        got,
        (image.to_string(), trace.to_string()),
        "{what} (image, trace)"
    );
}

#[test]
fn stock_ext3_allocations_are_pinned() {
    pinned(
        run(Ext3Options::default(), Reuse::Deferred),
        "bf179f67a96397096a8deaee2a341e442fd72e5f",
        "911a541d4d603ddcd4c2d81e62a081a7b0261145",
        "stock ext3",
    );
}

#[test]
fn full_ixt3_allocations_are_pinned() {
    pinned(
        run(Ext3Options::with_iron(IronConfig::full()), Reuse::Deferred),
        "93c5646010699bccd084c8ff16ecc889df5d00ed",
        "5427301946eb5a3f74a23dfc14cdfb3ef0a68874",
        "ixt3",
    );
}

/// Transactions close into the group-commit batch every few operations, so
/// the counter blocks are re-staged many times between commits.
#[test]
fn pipelined_ixt3_allocations_are_pinned() {
    let opts = Ext3Options {
        commit_threshold: 4,
        ..Ext3Options::pipelined(IronConfig::full())
    };
    pinned(
        run(opts, Reuse::Unchecked),
        "fa07756bed539b5e25516879e0c64c3df9c1337e",
        "c29e2fdf095e6fb9ab145fa5f6947c2afc2d897e",
        "pipelined ixt3",
    );
}

/// A cache too small to keep the counter blocks resident between two
/// allocations: every touch, insert and eviction decides a later device
/// read, so the counters must touch the cache exactly as before.
#[test]
fn six_block_cache_allocations_are_pinned() {
    let opts = Ext3Options {
        cache_blocks: 6,
        ..Ext3Options::with_iron(IronConfig::full())
    };
    pinned(
        run(opts, Reuse::Deferred),
        "93c5646010699bccd084c8ff16ecc889df5d00ed",
        "7550cc9981ec29e7683f8914aaf20c022622407c",
        "six-block cache",
    );
}

#[test]
fn crash_mode_allocations_are_pinned() {
    let opts = Ext3Options {
        crash_mode: true,
        ..Ext3Options::default()
    };
    pinned(
        run(opts, Reuse::Deferred),
        "7b7e66f4c451ac25516241461ae46dcc804ed95b",
        "b38172aacf6ff093d544546c54c1f0b16b37c95e",
        "crash_mode",
    );
}

#[test]
fn legacy_journal_bugs_allocations_are_pinned() {
    let opts = Ext3Options {
        legacy_journal_bugs: true,
        ..Ext3Options::default()
    };
    pinned(
        run(opts, Reuse::Eager),
        "7c648fd041125201458027ddf193a14ff30c0a9a",
        "d951098f546622dda727c997ab88b9acff5de548",
        "legacy_journal_bugs",
    );
}

/// The counter images a transaction journals are the final ones: commit
/// without checkpointing and drop the mount. The superblock image in the
/// log, and after replay every group descriptor, must carry free counts
/// equal to the popcounts of the replayed bitmaps. (The superblock is read
/// from the log, so this checks what the transaction journaled; mount
/// recomputes block 0's totals from the group descriptors, as
/// `statfs_after_replay_shows_the_replayed_totals` checks.)
#[test]
fn journaled_counters_match_replayed_bitmaps() {
    let opts = Ext3Options {
        crash_mode: true,
        ..Ext3Options::default()
    };
    let dev = MemDisk::for_tests(params().total_blocks);
    let mut fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), params(), opts).unwrap();
    let root = fs.root_ino();
    let d = fs.mkdir(root, "d", 0o755).unwrap();
    for i in 0..110u32 {
        let ino = fs.create(d, &format!("f{i}"), 0o644).unwrap();
        fs.write(ino, 0, &body(i, 5 * BLOCK_SIZE)).unwrap();
    }
    for i in (0..110u32).step_by(4) {
        fs.unlink(d, &format!("f{i}")).unwrap();
    }
    fs.sync().unwrap();
    let layout = *fs.layout();
    let dev = fs.into_device();

    // The one transaction's descriptor names block 0; its image follows.
    let log = layout.journal_start..layout.journal_start + layout.journal_len;
    let logged_super = log
        .clone()
        .find_map(|pos| match classify_log_block(&dev.peek(BlockAddr(pos)))? {
            JournalRecord::Descriptor(d) => {
                let slot = d.entries.iter().position(|&(home, _)| home == 0)?;
                Some(dev.peek(BlockAddr(pos + 1 + slot as u64)))
            }
            _ => None,
        })
        .expect("the transaction journals the superblock");
    let sb = Superblock::decode(&logged_super).expect("superblock image");

    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let dev = fs.device();
    let zeros = |addr: BlockAddr, bits: u64| {
        let bm = dev.peek(addr);
        (0..bits).filter(|&i| !bm.bit(i)).count() as u64
    };
    let gdt = dev.peek(layout.gdt_block());
    let (mut free_blocks, mut free_inodes) = (0, 0);
    for g in 0..layout.num_groups {
        let fb = zeros(layout.data_bitmap(g), layout.params.blocks_per_group);
        let fi = zeros(layout.inode_bitmap(g), layout.params.inodes_per_group);
        let at = g as usize * 8;
        assert_eq!(gdt.get_u32(at) as u64, fb, "group {g} free blocks");
        assert_eq!(gdt.get_u32(at + 4) as u64, fi, "group {g} free inodes");
        free_blocks += fb;
        free_inodes += fi;
    }
    assert_eq!((sb.free_blocks, sb.free_inodes), (free_blocks, free_inodes));
    assert!(
        free_blocks < layout.num_groups * layout.data_blocks_per_group() - 400,
        "the replayed image holds the files"
    );
}

/// Free counts as the allocation bitmaps on `dev` have them.
fn bitmap_free_counts(dev: &MemDisk, layout: &iron_ext3::DiskLayout) -> (u64, u64) {
    let zeros = |addr: BlockAddr, bits: u64| {
        let bm = dev.peek(addr);
        (0..bits).filter(|&i| !bm.bit(i)).count() as u64
    };
    (0..layout.num_groups).fold((0, 0), |(blocks, inodes), g| {
        (
            blocks + zeros(layout.data_bitmap(g), layout.params.blocks_per_group),
            inodes + zeros(layout.inode_bitmap(g), layout.params.inodes_per_group),
        )
    })
}

/// `statfs` after journal replay reports the replayed totals, not the
/// pre-crash superblock's: commit one 20-block file without checkpointing,
/// drop the mount, and remount.
#[test]
fn statfs_after_replay_shows_the_replayed_totals() {
    let opts = Ext3Options {
        crash_mode: true,
        ..Ext3Options::default()
    };
    let dev = MemDisk::for_tests(params().total_blocks);
    let mut fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), params(), opts).unwrap();
    let root = fs.root_ino();
    let ino = fs.create(root, "f", 0o644).unwrap();
    fs.write(ino, 0, &body(7, 20 * BLOCK_SIZE)).unwrap();
    fs.sync().unwrap();
    let layout = *fs.layout();
    let before = bitmap_free_counts(fs.device(), &layout);
    let dev = fs.into_device();

    let mut fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let live = bitmap_free_counts(fs.device(), &layout);
    assert!(live.0 + 20 <= before.0, "replay restored the file's blocks");
    let st = fs.statfs().unwrap();
    assert_eq!((st.blocks_free, st.inodes_free), live);
}
