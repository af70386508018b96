//! An offline consistency checker (fsck) for the ext3 model.
//!
//! The paper notes that even journaling file systems benefit from periodic
//! full-scan integrity checks (§3.1). [`check`] is the checker, written
//! against the on-disk format: it walks the image through [`RawAccess`] (no
//! faults, no timing) and reports structural inconsistencies in
//! `iron-fsck`'s vocabulary ([`FsckIssue`], [`FsckReport`]). It is what the
//! crash oracles, the cluster tests and the benchmark call. Nothing repairs
//! an image from its report: none of the file systems the paper studies
//! uses `RRepair`, and neither do the models here.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use iron_blockdev::RawAccess;
use iron_core::{Block, BlockAddr, BLOCK_SIZE};
use iron_vfs::FileType;

use crate::dir;
use crate::inode::{DiskInode, NDIRECT, PTRS_PER_BLOCK};
use crate::layout::{DiskLayout, ROOT_INO};
use crate::superblock::Superblock;

pub use iron_fsck::{FsckIssue, FsckReport};

/// Geometry sanity checks (`DSanity`) of a decoded superblock against the
/// trusted layout: recorded sizes vs. the device, and the journal region
/// vs. the regions that follow it.
pub fn superblock_sanity(sb: &Superblock, layout: &DiskLayout) -> Vec<FsckIssue> {
    let p = &layout.params;
    let mut issues = Vec::new();
    let mut field = |name: &'static str, stored: u64, expected: u64| {
        if stored != expected {
            issues.push(FsckIssue::GeometryMismatch {
                field: name,
                stored,
                expected,
            });
        }
    };
    field("total_blocks", sb.total_blocks, p.total_blocks);
    field("blocks_per_group", sb.blocks_per_group, p.blocks_per_group);
    field("inodes_per_group", sb.inodes_per_group, p.inodes_per_group);
    field(
        "mirror_metadata",
        u64::from(sb.mirror_metadata),
        u64::from(p.mirror_metadata),
    );
    // The journal region is [journal_start, journal_start + len); growing
    // past the trusted length would overlap the checksum table / groups.
    if sb.journal_blocks > layout.journal_len {
        issues.push(FsckIssue::JournalOverlap {
            stored: sb.journal_blocks,
            max: layout.journal_len,
        });
    } else if sb.journal_blocks != layout.journal_len {
        issues.push(FsckIssue::GeometryMismatch {
            field: "journal_blocks",
            stored: sb.journal_blocks,
            expected: layout.journal_len,
        });
    }
    issues
}

fn inode_at<D: RawAccess>(dev: &D, layout: &DiskLayout, ino: u64) -> DiskInode {
    let (blk, off) = layout.inode_location(ino);
    DiskInode::decode_from(&dev.peek(blk), off)
}

/// Enumerate an inode's block addresses, hardened against corruption: the
/// block count is capped at the maximum a (double-)indirect tree can
/// address, and pointer blocks are only dereferenced when their address
/// is on the device — out-of-range pointers are still *recorded* (so
/// duplicate detection sees them) but never followed.
fn file_block_addrs<D: RawAccess>(
    dev: &D,
    di: &DiskInode,
    device_blocks: u64,
) -> (Vec<u64>, Vec<u64>) {
    // Returns (data blocks in index order incl. holes as 0, indirect blocks).
    let ppb = PTRS_PER_BLOCK as u64;
    let max_addressable = NDIRECT as u64 + ppb + ppb * ppb;
    let nblocks = di.size.div_ceil(BLOCK_SIZE as u64).min(max_addressable);
    let mut data = Vec::new();
    let mut indirect = Vec::new();
    let l1: Option<Block> = if di.indirect != 0 {
        indirect.push(di.indirect as u64);
        ((di.indirect as u64) < device_blocks).then(|| dev.peek(BlockAddr(di.indirect as u64)))
    } else {
        None
    };
    let l2root: Option<Block> = if di.double_indirect != 0 {
        indirect.push(di.double_indirect as u64);
        ((di.double_indirect as u64) < device_blocks)
            .then(|| dev.peek(BlockAddr(di.double_indirect as u64)))
    } else {
        None
    };
    if let Some(root) = &l2root {
        for i in 0..PTRS_PER_BLOCK {
            let p = root.get_u32(i * 4) as u64;
            if p != 0 {
                indirect.push(p);
            }
        }
    }
    for idx in 0..nblocks {
        let addr = if idx < NDIRECT as u64 {
            di.direct[idx as usize] as u64
        } else if idx < NDIRECT as u64 + ppb {
            match &l1 {
                Some(b) => b.get_u32((idx - NDIRECT as u64) as usize * 4) as u64,
                None => 0,
            }
        } else {
            let rel = idx - NDIRECT as u64 - ppb;
            match &l2root {
                Some(root) => {
                    let p = root.get_u32((rel / ppb) as usize * 4) as u64;
                    if p == 0 || p >= device_blocks {
                        0
                    } else {
                        dev.peek(BlockAddr(p)).get_u32((rel % ppb) as usize * 4) as u64
                    }
                }
                None => 0,
            }
        };
        data.push(addr);
    }
    (data, indirect)
}

/// The blocks pass 1 found referenced: one bit per device block, and the
/// out-of-range pointers apart — never on the device, so pass 3 never asks
/// for them, but a second reference to one is still `BlockDoublyUsed`.
struct UsedBlocks {
    bits: Vec<u64>,
    beyond: BTreeSet<u64>,
}

impl UsedBlocks {
    fn new(device_blocks: u64) -> Self {
        UsedBlocks {
            bits: vec![0; device_blocks.div_ceil(64) as usize],
            beyond: BTreeSet::new(),
        }
    }

    /// Record a reference to `addr`; false if it was already referenced.
    fn insert(&mut self, addr: u64) -> bool {
        match self.bits.get_mut((addr / 64) as usize) {
            Some(word) => {
                let bit = 1 << (addr % 64);
                let fresh = *word & bit == 0;
                *word |= bit;
                fresh
            }
            None => self.beyond.insert(addr),
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.bits
            .get((addr / 64) as usize)
            .map_or(self.beyond.contains(&addr), |w| w & (1 << (addr % 64)) != 0)
    }
}

/// Check the on-disk image for structural consistency.
pub fn check<D: RawAccess>(dev: &D, layout: &DiskLayout) -> FsckReport {
    let mut report = FsckReport::default();
    let Some(sb) = Superblock::decode(&dev.peek(BlockAddr(0))) else {
        report.issues.push(FsckIssue::BadSuperblock);
        return report;
    };
    report.issues.extend(superblock_sanity(&sb, layout));
    let device_blocks = layout.params.total_blocks;

    // Pass 1: walk the tree from the root.
    let mut used_blocks = UsedBlocks::new(device_blocks);
    let mut link_counts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut reachable: BTreeSet<u64> = BTreeSet::new();
    let mut queue = VecDeque::from([ROOT_INO]);
    // Root's ".." refers to itself; seed its parent link.
    let mut note_block = |report: &mut FsckReport, addr: u64| {
        if addr == 0 {
            return;
        }
        if !used_blocks.insert(addr) {
            report.issues.push(FsckIssue::BlockDoublyUsed { addr });
        }
    };

    while let Some(ino) = queue.pop_front() {
        if !reachable.insert(ino) {
            continue;
        }
        let di = inode_at(dev, layout, ino);
        if di.is_free() || di.file_type().is_none() {
            continue; // reported as dangling where referenced
        }
        let (data, indirect) = file_block_addrs(dev, &di, device_blocks);
        for a in &indirect {
            note_block(&mut report, *a);
        }
        if di.parity != 0 {
            note_block(&mut report, di.parity as u64);
        }
        match di.file_type() {
            Some(FileType::Directory) => {
                for a in &data {
                    note_block(&mut report, *a);
                    if *a == 0 || *a >= device_blocks {
                        continue;
                    }
                    let mut listing = dir::Listing::default();
                    listing.read_block(&dev.peek(BlockAddr(*a)));
                    for (child, _, name) in listing.iter() {
                        let child = child as u64;
                        if child == 0 || child > layout.total_inodes() {
                            report.issues.push(FsckIssue::DanglingEntry {
                                dir: ino,
                                name: name.to_string(),
                                ino: child,
                            });
                            continue;
                        }
                        let cdi = inode_at(dev, layout, child);
                        if cdi.is_free() {
                            report.issues.push(FsckIssue::DanglingEntry {
                                dir: ino,
                                name: name.to_string(),
                                ino: child,
                            });
                            continue;
                        }
                        *link_counts.entry(child).or_insert(0) += 1;
                        if name != "." && name != ".." {
                            queue.push_back(child);
                        }
                    }
                }
            }
            _ => {
                for a in &data {
                    note_block(&mut report, *a);
                }
            }
        }
    }

    // Pass 2: link counts.
    for (&ino, &actual) in &link_counts {
        let di = inode_at(dev, layout, ino);
        if !di.is_free() && di.links_count != actual {
            report.issues.push(FsckIssue::WrongLinkCount {
                ino,
                stored: di.links_count,
                actual,
            });
        }
    }

    // Pass 3: bitmaps vs. usage.
    for g in 0..layout.num_groups {
        let base = layout.group_base(g);
        let dbm = dev.peek(layout.data_bitmap(g));
        let data_lo = layout.data_start(g) - base;
        let data_hi = layout.params.blocks_per_group - 1; // super replica excluded
        for bit in data_lo..data_hi {
            let addr = base + bit;
            let marked = dbm.bit(bit);
            let used = used_blocks.contains(addr);
            if used && !marked {
                report.issues.push(FsckIssue::BlockNotMarked { addr });
            }
            if marked && !used {
                report.issues.push(FsckIssue::BlockLeaked { addr });
            }
        }
        // Inode bitmap vs. table, each table block read once for its
        // INODES_PER_BLOCK inodes.
        let ibm = dev.peek(layout.inode_bitmap(g));
        let mut table = Block::zeroed();
        for bit in 0..layout.params.inodes_per_group {
            let ino = g * layout.params.inodes_per_group + bit + 1;
            let (blk, off) = layout.inode_location(ino);
            if off == 0 {
                table = dev.peek(blk);
            }
            if ino == 1 {
                continue; // reserved
            }
            let marked = ibm.bit(bit);
            let free = DiskInode::is_free_at(&table, off);
            if marked == free {
                report.issues.push(FsckIssue::InodeBitmapMismatch { ino });
            }
            if !free && !reachable.contains(&ino) {
                report.issues.push(FsckIssue::OrphanInode { ino });
            }
        }
    }

    report
}
