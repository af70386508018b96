//! The [`Checkable`] trait: what a file system exposes to be checked.
//!
//! The engine never touches on-disk formats. A file system adapts its
//! image to this small read-only vocabulary — superblock sanity, inode
//! summaries, directory entries, block references, allocation bitmaps —
//! and the engine does the rest.

use std::ops::Range;

use crate::issue::FsckIssue;

/// Coarse inode kind — all the engine needs to know.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FileKind {
    /// A directory: its entries are walked and its children visited.
    Directory,
    /// Anything else with block references (regular file, symlink, ...).
    Other,
}

/// A summary of one inode slot.
#[derive(Clone, Copy, Debug)]
pub struct InodeSummary {
    /// The slot is free (unallocated).
    pub free: bool,
    /// The decoded kind, or `None` if the type field is invalid.
    pub kind: Option<FileKind>,
    /// The stored link count.
    pub links: u32,
}

/// One directory entry, as seen by the tree walk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChildEntry {
    /// The entry name (`.` and `..` included).
    pub name: String,
    /// The referenced inode number.
    pub ino: u64,
}

/// Outcome of the superblock pass.
#[derive(Clone, Debug, Default)]
pub struct SuperblockReport {
    /// Sanity issues found (`DSanity`: geometry vs. the trusted layout).
    pub issues: Vec<FsckIssue>,
    /// If true the image is unwalkable (e.g. the superblock failed to
    /// decode) and the engine stops after this pass.
    pub fatal: bool,
}

/// A read-only view of a file-system image, sufficient for checking.
///
/// Semantics the engine relies on (and the sequential oracles must share,
/// for the differential invariant):
///
/// * inode numbers are `1..=total_inodes`; reserved slots (e.g. ext3's
///   inode 1) are excluded from the table scan via
///   [`Checkable::is_reserved_ino`];
/// * [`Checkable::block_refs`] returns every nonzero block reference an
///   inode holds — data, indirect, and auxiliary (e.g. parity) blocks —
///   with multiplicity, including references that point outside the
///   device (the engine counts those for duplicate detection but never
///   dereferences them);
/// * [`Checkable::dir_entries`] is lenient: on a corrupt directory block
///   it returns what parses and never panics.
pub trait Checkable {
    /// Short name for log lines ("ext3", ...).
    fn fs_name(&self) -> &'static str;

    /// Total blocks on the underlying device (bounds every block ref).
    fn device_blocks(&self) -> u64;

    /// Decode and sanity-check the superblock against the trusted layout.
    fn check_superblock(&self) -> SuperblockReport;

    /// The root directory's inode number.
    fn root_ino(&self) -> u64;

    /// Total inode slots (inode numbers run `1..=total_inodes`).
    fn total_inodes(&self) -> u64;

    /// True for reserved inode numbers the table scan must skip.
    fn is_reserved_ino(&self, _ino: u64) -> bool {
        false
    }

    /// Summarize inode `ino` (must accept any `1..=total_inodes`).
    fn inode(&self, ino: u64) -> InodeSummary;

    /// The entries of directory `ino` (empty for non-directories).
    fn dir_entries(&self, ino: u64) -> Vec<ChildEntry>;

    /// Every nonzero block reference held by inode `ino`.
    fn block_refs(&self, ino: u64) -> Vec<u64>;

    /// The allocatable block ranges covered by allocation bitmaps, used
    /// for bitmap reconciliation (leak / not-marked detection).
    fn data_regions(&self) -> Vec<Range<u64>>;

    /// Whether the allocation bitmap marks block `addr` as in use.
    /// Only called for addresses inside [`Checkable::data_regions`].
    fn block_marked(&self, addr: u64) -> bool;

    /// Whether the inode bitmap marks inode `ino` as in use.
    fn inode_marked(&self, ino: u64) -> bool;
}
