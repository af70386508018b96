//! Disk layout: where every structure lives.
//!
//! ```text
//! block 0                 superblock
//! block 1                 group descriptor table
//! block 2                 journal superblock
//! blocks 3..3+J           journal log area
//! blocks ..+C             checksum table (reserved; used when Mc/Dc on)
//! groups                  each: [data bitmap][inode bitmap][inode table][data…][super replica]
//! upper half (Mr only)    metadata replica mirror: block b ↦ b + total/2
//! ```
//!
//! Real ext3 embeds the journal in an inode and scatters superblock copies
//! through the groups; we use fixed regions for clarity (DESIGN.md §3). The
//! per-group super replica mirrors ext3's never-updated copies — the paper
//! notes "these copies are never updated after file system creation and
//! hence are not useful" (`PAPER-BUG`, preserved).

use iron_core::{BlockAddr, BlockTag, BLOCK_SIZE};

use crate::journal::DESC_CAPACITY;

/// Inode size on disk, bytes.
pub const INODE_SIZE: usize = 128;
/// Inodes per inode-table block.
pub const INODES_PER_BLOCK: u64 = (BLOCK_SIZE / INODE_SIZE) as u64;
/// The root directory's inode number (as in real ext2/ext3).
pub const ROOT_INO: u64 = 2;
/// First allocatable inode (1 is reserved, 2 is root).
pub const FIRST_FREE_INO: u64 = 3;

/// ext3 block types (Table 4 of the paper), used as I/O tags and as the
/// rows of the Figure 2/3 matrices.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BlockType {
    /// Inode table block.
    Inode,
    /// Directory data block.
    Dir,
    /// Data (block) bitmap.
    DataBitmap,
    /// Inode bitmap.
    InodeBitmap,
    /// Indirect pointer block.
    Indirect,
    /// User data block.
    Data,
    /// Superblock.
    Super,
    /// Group descriptor table.
    GroupDesc,
    /// Journal superblock.
    JournalSuper,
    /// Journal revoke block.
    JournalRevoke,
    /// Journal descriptor block.
    JournalDesc,
    /// Journal commit block.
    JournalCommit,
    /// Journaled copy of a metadata block.
    JournalData,
    /// Checksum-table block (ixt3 only).
    CksumTable,
    /// Metadata replica block (ixt3 only).
    Replica,
    /// Per-file parity block (ixt3 only).
    Parity,
}

impl BlockType {
    /// The thirteen stock-ext3 types, in the row order of Figure 2.
    pub const FIGURE2_ROWS: [BlockType; 13] = [
        BlockType::Inode,
        BlockType::Dir,
        BlockType::DataBitmap,
        BlockType::InodeBitmap,
        BlockType::Indirect,
        BlockType::Data,
        BlockType::Super,
        BlockType::GroupDesc,
        BlockType::JournalSuper,
        BlockType::JournalRevoke,
        BlockType::JournalDesc,
        BlockType::JournalCommit,
        BlockType::JournalData,
    ];

    /// The I/O tag for this type (matches the paper's row labels).
    pub fn tag(self) -> BlockTag {
        BlockTag(match self {
            BlockType::Inode => "inode",
            BlockType::Dir => "dir",
            BlockType::DataBitmap => "bitmap",
            BlockType::InodeBitmap => "i-bitmap",
            BlockType::Indirect => "indirect",
            BlockType::Data => "data",
            BlockType::Super => "super",
            BlockType::GroupDesc => "g-desc",
            BlockType::JournalSuper => "j-super",
            BlockType::JournalRevoke => "j-revoke",
            BlockType::JournalDesc => "j-desc",
            BlockType::JournalCommit => "j-commit",
            BlockType::JournalData => "j-data",
            BlockType::CksumTable => "cksum",
            BlockType::Replica => "m-replica",
            BlockType::Parity => "d-parity",
        })
    }

    /// True for the block types the IRON engine treats as *metadata* (the
    /// ones metadata checksumming/replication cover).
    pub fn is_metadata(self) -> bool {
        !matches!(
            self,
            BlockType::Data | BlockType::Parity | BlockType::CksumTable | BlockType::Replica
        )
    }

    /// A small stable numeric code used in journal descriptor records.
    pub fn code(self) -> u8 {
        match self {
            BlockType::Inode => 1,
            BlockType::Dir => 2,
            BlockType::DataBitmap => 3,
            BlockType::InodeBitmap => 4,
            BlockType::Indirect => 5,
            BlockType::Data => 6,
            BlockType::Super => 7,
            BlockType::GroupDesc => 8,
            BlockType::JournalSuper => 9,
            BlockType::JournalRevoke => 10,
            BlockType::JournalDesc => 11,
            BlockType::JournalCommit => 12,
            BlockType::JournalData => 13,
            BlockType::CksumTable => 14,
            BlockType::Replica => 15,
            BlockType::Parity => 16,
        }
    }

    /// Inverse of [`Self::code`].
    pub fn from_code(code: u8) -> Option<BlockType> {
        Some(match code {
            1 => BlockType::Inode,
            2 => BlockType::Dir,
            3 => BlockType::DataBitmap,
            4 => BlockType::InodeBitmap,
            5 => BlockType::Indirect,
            6 => BlockType::Data,
            7 => BlockType::Super,
            8 => BlockType::GroupDesc,
            9 => BlockType::JournalSuper,
            10 => BlockType::JournalRevoke,
            11 => BlockType::JournalDesc,
            12 => BlockType::JournalCommit,
            13 => BlockType::JournalData,
            14 => BlockType::CksumTable,
            15 => BlockType::Replica,
            16 => BlockType::Parity,
            _ => return None,
        })
    }
}

/// Formatting parameters.
#[derive(Clone, Copy, Debug)]
pub struct Ext3Params {
    /// Total device blocks.
    pub total_blocks: u64,
    /// Blocks per block group.
    pub blocks_per_group: u64,
    /// Inodes per block group.
    pub inodes_per_group: u64,
    /// Journal log-area blocks (excluding the journal superblock).
    pub journal_blocks: u64,
    /// Reserve the upper half of the device as a metadata replica mirror.
    pub mirror_metadata: bool,
}

impl Ext3Params {
    /// A small file system suitable for tests: 4096 blocks = 16 MiB.
    pub fn small() -> Self {
        Ext3Params {
            total_blocks: 4096,
            blocks_per_group: 1024,
            inodes_per_group: 512,
            journal_blocks: 256,
            mirror_metadata: false,
        }
    }

    /// A medium file system for benchmarks: 32768 blocks = 128 MiB.
    pub fn medium() -> Self {
        Ext3Params {
            total_blocks: 32768,
            blocks_per_group: 4096,
            inodes_per_group: 2048,
            journal_blocks: 1024,
            mirror_metadata: false,
        }
    }
}

/// Computed disk layout.
#[derive(Clone, Copy, Debug)]
pub struct DiskLayout {
    /// The parameters this layout was computed from.
    pub params: Ext3Params,
    /// Journal superblock address.
    pub journal_super: u64,
    /// First block of the journal log area.
    pub journal_start: u64,
    /// Number of journal log blocks.
    pub journal_len: u64,
    /// First block of the checksum table.
    pub cksum_start: u64,
    /// Number of checksum-table blocks.
    pub cksum_len: u64,
    /// First block of the replica log (`Mr` only; the paper's "separate
    /// replica log" that metadata copies stream into before being
    /// checkpointed to the distant mirror).
    pub replica_log_start: u64,
    /// Replica-log length (0 when the mirror is disabled).
    pub replica_log_len: u64,
    /// First block of group 0.
    pub groups_start: u64,
    /// Number of block groups.
    pub num_groups: u64,
    /// Blocks usable by the file system proper (excludes the mirror).
    pub fs_blocks: u64,
    /// Inode-table blocks per group.
    pub itable_blocks: u64,
}

/// Checksum entry size on disk (8-byte truncated SHA-1).
pub const CKSUM_ENTRY: u64 = 8;
/// Checksum entries per checksum-table block.
pub const CKSUMS_PER_BLOCK: u64 = BLOCK_SIZE as u64 / CKSUM_ENTRY;

impl DiskLayout {
    /// Compute the layout for the given parameters.
    ///
    /// # Panics
    /// Panics if [`Self::checked`] rejects the parameters (`mkfs` callers
    /// choose them; `mount` reads them from disk and calls `checked`).
    pub fn compute(params: Ext3Params) -> DiskLayout {
        Self::checked(params).expect("device too small for one block group")
    }

    /// The layout for the given parameters, or `None` if they describe no
    /// file system: a group's two bitmaps are one block each (so at most
    /// `BLOCK_SIZE * 8` blocks and inodes, and at least one of either —
    /// the bound every bitmap search relies on), a group holds its
    /// bitmaps, inode table, super replica and a data block, the fixed
    /// regions plus one group fit the device, and the journal holds a
    /// one-block transaction ([`Self::journal_holds`]; `commit` would
    /// otherwise log over the checksum table). No arithmetic here trusts
    /// its operands: `mount` passes what it read from block 0.
    pub fn checked(params: Ext3Params) -> Option<DiskLayout> {
        let bits = BLOCK_SIZE as u64 * 8;
        let per_group = 1..=bits;
        if !per_group.contains(&params.blocks_per_group)
            || !per_group.contains(&params.inodes_per_group)
        {
            return None;
        }
        let fs_blocks = if params.mirror_metadata {
            params.total_blocks / 2
        } else {
            params.total_blocks
        };
        let journal_super = 2;
        let journal_start = 3u64;
        let journal_len = params.journal_blocks;
        let cksum_start = journal_start.checked_add(journal_len)?;
        // One 8-byte entry per device block (covering the whole device keeps
        // indexing trivial; unused when checksumming is off).
        let cksum_len = params
            .total_blocks
            .checked_mul(CKSUM_ENTRY)?
            .div_ceil(BLOCK_SIZE as u64);
        let replica_log_start = cksum_start.checked_add(cksum_len)?;
        let replica_log_len = if params.mirror_metadata {
            params.journal_blocks
        } else {
            0
        };
        let groups_start = replica_log_start.checked_add(replica_log_len)?;
        let itable_blocks = params.inodes_per_group.div_ceil(INODES_PER_BLOCK);
        if groups_start.checked_add(params.blocks_per_group)? > fs_blocks
            || params.blocks_per_group < itable_blocks + 4
        {
            return None;
        }
        let num_groups = (fs_blocks - groups_start) / params.blocks_per_group;
        let layout = DiskLayout {
            params,
            journal_super,
            journal_start,
            journal_len,
            cksum_start,
            cksum_len,
            replica_log_start,
            replica_log_len,
            groups_start,
            num_groups,
            fs_blocks,
            itable_blocks,
        };
        layout.journal_holds(1).then_some(layout)
    }

    /// [`Self::checked`] for a file system found on a device of
    /// `dev_blocks` blocks: it may be smaller than its device, never
    /// larger. What `mount` and the offline check hold block 0 to.
    pub fn checked_on(params: Ext3Params, dev_blocks: u64) -> Option<DiskLayout> {
        Self::checked(params).filter(|_| params.total_blocks <= dev_blocks)
    }

    /// Whether the log holds a batch of `blocks` journaled images with the
    /// headroom group commit keeps: the batch's descriptors, the
    /// checksum-table blocks a commit may add to it, and 8 blocks for its
    /// revoke records and commit block.
    pub fn journal_holds(&self, blocks: usize) -> bool {
        let needed = blocks as u64 + blocks.div_ceil(DESC_CAPACITY) as u64 + self.cksum_len + 8;
        needed <= self.journal_len
    }

    /// The group descriptor table address.
    pub fn gdt_block(&self) -> BlockAddr {
        BlockAddr(1)
    }

    /// First block of group `g`.
    pub fn group_base(&self, g: u64) -> u64 {
        self.groups_start + g * self.params.blocks_per_group
    }

    /// Data-bitmap block of group `g`.
    pub fn data_bitmap(&self, g: u64) -> BlockAddr {
        BlockAddr(self.group_base(g))
    }

    /// Inode-bitmap block of group `g`.
    pub fn inode_bitmap(&self, g: u64) -> BlockAddr {
        BlockAddr(self.group_base(g) + 1)
    }

    /// First inode-table block of group `g`.
    pub fn inode_table(&self, g: u64) -> u64 {
        self.group_base(g) + 2
    }

    /// The never-updated superblock replica of group `g` (`PAPER-BUG`
    /// fidelity: present but useless).
    pub fn super_replica(&self, g: u64) -> BlockAddr {
        BlockAddr(self.group_base(g) + self.params.blocks_per_group - 1)
    }

    /// First data block of group `g`.
    pub fn data_start(&self, g: u64) -> u64 {
        self.inode_table(g) + self.itable_blocks
    }

    /// Data blocks per group (excludes the super-replica block).
    pub fn data_blocks_per_group(&self) -> u64 {
        self.params.blocks_per_group - 2 - self.itable_blocks - 1
    }

    /// Total inode count.
    pub fn total_inodes(&self) -> u64 {
        self.num_groups * self.params.inodes_per_group
    }

    /// (inode-table block, byte offset) of inode `ino`.
    ///
    /// Inode numbers are 1-based; `ino - 1` indexes the global inode space.
    pub fn inode_location(&self, ino: u64) -> (BlockAddr, usize) {
        let idx = ino - 1;
        let g = idx / self.params.inodes_per_group;
        let within = idx % self.params.inodes_per_group;
        let block = self.inode_table(g) + within / INODES_PER_BLOCK;
        let offset = (within % INODES_PER_BLOCK) as usize * INODE_SIZE;
        (BlockAddr(block), offset)
    }

    /// Checksum-table location (block, byte offset) for device block `b`.
    pub fn cksum_location(&self, b: u64) -> (BlockAddr, usize) {
        let block = self.cksum_start + b / CKSUMS_PER_BLOCK;
        let offset = (b % CKSUMS_PER_BLOCK) as usize * CKSUM_ENTRY as usize;
        (BlockAddr(block), offset)
    }

    /// Mirror address of metadata block `b` (only meaningful when
    /// `params.mirror_metadata`; `Ext3Fs::mount` refuses `Mr` otherwise).
    pub fn replica_of(&self, b: u64) -> BlockAddr {
        BlockAddr(b + self.params.total_blocks / 2)
    }

    /// The group that owns data block `b`, if any.
    pub fn group_of_block(&self, b: u64) -> Option<u64> {
        if b < self.groups_start
            || b >= self.groups_start + self.num_groups * self.params.blocks_per_group
        {
            return None;
        }
        Some((b - self.groups_start) / self.params.blocks_per_group)
    }

    /// Classify a block address by the static layout alone. Dynamic types
    /// (dir vs data vs indirect) cannot be decided from the address; those
    /// come back as `Data` and are refined by the gray-box classifier in
    /// `iron-fingerprint`.
    pub fn classify_static(&self, b: u64) -> BlockType {
        if b == 0 {
            return BlockType::Super;
        }
        if b == 1 {
            return BlockType::GroupDesc;
        }
        if b == self.journal_super {
            return BlockType::JournalSuper;
        }
        if b >= self.journal_start && b < self.journal_start + self.journal_len {
            return BlockType::JournalData; // refined by journal contents
        }
        if b >= self.cksum_start && b < self.cksum_start + self.cksum_len {
            return BlockType::CksumTable;
        }
        if b >= self.replica_log_start && b < self.replica_log_start + self.replica_log_len {
            return BlockType::Replica;
        }
        if self.params.mirror_metadata && b >= self.params.total_blocks / 2 {
            return BlockType::Replica;
        }
        if let Some(g) = self.group_of_block(b) {
            let base = self.group_base(g);
            if b == base {
                return BlockType::DataBitmap;
            }
            if b == base + 1 {
                return BlockType::InodeBitmap;
            }
            if b >= self.inode_table(g) && b < self.inode_table(g) + self.itable_blocks {
                return BlockType::Inode;
            }
            if b == self.super_replica(g).0 {
                return BlockType::Super;
            }
        }
        BlockType::Data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layout_is_consistent() {
        let l = DiskLayout::compute(Ext3Params::small());
        assert_eq!(l.journal_super, 2);
        assert_eq!(l.journal_start, 3);
        assert_eq!(l.cksum_start, 3 + 256);
        // 4096 blocks * 8 bytes / 4096 = 8 blocks of checksum table.
        assert_eq!(l.cksum_len, 8);
        assert_eq!(l.replica_log_len, 0, "no mirror, no replica log");
        assert_eq!(l.groups_start, 267);
        assert!(l.num_groups >= 3);
        assert_eq!(l.itable_blocks, 512 / 32);
        assert!(l.data_blocks_per_group() > 900);
    }

    #[test]
    fn inode_locations_do_not_collide() {
        let l = DiskLayout::compute(Ext3Params::small());
        let a = l.inode_location(1);
        let b = l.inode_location(2);
        let c = l.inode_location(33);
        assert_eq!(a.0, b.0, "inodes 1,2 share the first table block");
        assert_ne!(a.1, b.1);
        assert_ne!(a.0, c.0, "inode 33 lives in the second table block");
        // Crossing into group 1.
        let d = l.inode_location(513);
        assert_eq!(d.0 .0, l.inode_table(1));
        assert_eq!(d.1, 0);
    }

    #[test]
    fn cksum_location_covers_whole_device() {
        let l = DiskLayout::compute(Ext3Params::small());
        let (first, off0) = l.cksum_location(0);
        assert_eq!(first.0, l.cksum_start);
        assert_eq!(off0, 0);
        let (last, _) = l.cksum_location(4095);
        assert!(last.0 < l.cksum_start + l.cksum_len);
    }

    #[test]
    fn classify_static_matches_layout() {
        let l = DiskLayout::compute(Ext3Params::small());
        assert_eq!(l.classify_static(0), BlockType::Super);
        assert_eq!(l.classify_static(1), BlockType::GroupDesc);
        assert_eq!(l.classify_static(2), BlockType::JournalSuper);
        assert_eq!(l.classify_static(10), BlockType::JournalData);
        assert_eq!(l.classify_static(l.cksum_start), BlockType::CksumTable);
        let g0 = l.group_base(0);
        assert_eq!(l.classify_static(g0), BlockType::DataBitmap);
        assert_eq!(l.classify_static(g0 + 1), BlockType::InodeBitmap);
        assert_eq!(l.classify_static(g0 + 2), BlockType::Inode);
        assert_eq!(l.classify_static(l.data_start(0)), BlockType::Data);
        assert_eq!(l.classify_static(l.super_replica(0).0), BlockType::Super);
    }

    #[test]
    fn mirrored_layout_halves_fs_space() {
        let mut p = Ext3Params::small();
        p.mirror_metadata = true;
        let l = DiskLayout::compute(p);
        assert_eq!(l.fs_blocks, 2048);
        assert_eq!(l.replica_log_len, 256);
        assert_eq!(l.replica_of(5).0, 5 + 2048);
        assert_eq!(l.classify_static(3000), BlockType::Replica);
        assert_eq!(
            l.classify_static(l.replica_log_start),
            BlockType::Replica,
            "replica log classifies as replica"
        );
    }

    #[test]
    fn checked_rejects_what_compute_would_panic_on() {
        let ok = Ext3Params::small();
        assert!(DiskLayout::checked(ok).is_some());
        let smallest_journal = Ext3Params {
            journal_blocks: 18,
            ..ok
        };
        assert!(DiskLayout::checked(smallest_journal).is_some());
        let bad = [
            Ext3Params {
                blocks_per_group: 0,
                ..ok
            },
            Ext3Params {
                blocks_per_group: BLOCK_SIZE as u64 * 8 + 1,
                ..ok
            },
            Ext3Params {
                inodes_per_group: 0,
                ..ok
            },
            Ext3Params {
                inodes_per_group: 1 << 20,
                ..ok
            },
            // The inode table alone fills the group.
            Ext3Params {
                blocks_per_group: 19,
                ..ok
            },
            Ext3Params {
                journal_blocks: 0,
                ..ok
            },
            // One short of a one-block transaction with its headroom
            // (1 + 1 descriptor + 8 checksum-table blocks + 8).
            Ext3Params {
                journal_blocks: 17,
                ..ok
            },
            Ext3Params {
                journal_blocks: 1 << 40,
                ..ok
            },
            Ext3Params {
                journal_blocks: u64::MAX - 2,
                ..ok
            },
            Ext3Params {
                total_blocks: u64::MAX / 4,
                ..ok
            },
            Ext3Params {
                total_blocks: 600,
                ..ok
            },
        ];
        for p in bad {
            assert!(DiskLayout::checked(p).is_none(), "{p:?}");
        }
    }

    #[test]
    fn block_type_codes_round_trip() {
        for ty in BlockType::FIGURE2_ROWS {
            assert_eq!(BlockType::from_code(ty.code()), Some(ty));
        }
        assert_eq!(BlockType::from_code(0), None);
        assert_eq!(BlockType::from_code(99), None);
    }

    #[test]
    fn metadata_classification() {
        assert!(BlockType::Inode.is_metadata());
        assert!(BlockType::Dir.is_metadata());
        assert!(!BlockType::Data.is_metadata());
        assert!(!BlockType::Parity.is_metadata());
    }
}
