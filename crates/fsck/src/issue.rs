//! The issue vocabulary shared by every checker and repairer.
//!
//! Variants derive `Ord` so a report's issues can be compared as a
//! multiset ([`FsckReport::same_issues`]), independent of the order a
//! check discovered them in.

/// One structural inconsistency found by a check.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum FsckIssue {
    /// The superblock failed to decode; nothing else can be trusted.
    BadSuperblock,
    /// A superblock geometry field disagrees with the trusted layout
    /// (`DSanity`): e.g. the recorded block count vs. the device size.
    GeometryMismatch {
        /// Which geometry field is wrong.
        field: &'static str,
        /// The value stored in the superblock.
        stored: u64,
        /// The value the trusted layout expects.
        expected: u64,
    },
    /// The journal region implied by the superblock overlaps the regions
    /// that follow it (checksum table / block groups) — `DSanity`.
    JournalOverlap {
        /// Journal length recorded in the superblock.
        stored: u64,
        /// Maximum journal length before the next region begins.
        max: u64,
    },
    /// A directory entry references a free or out-of-range inode.
    DanglingEntry {
        /// The directory containing the entry.
        dir: u64,
        /// The entry name.
        name: String,
        /// The referenced inode.
        ino: u64,
    },
    /// An inode's link count disagrees with the directory tree.
    WrongLinkCount {
        /// The inode.
        ino: u64,
        /// Count stored on disk.
        stored: u32,
        /// Count derived from the tree walk.
        actual: u32,
    },
    /// A block used by a file is not marked allocated in the bitmap.
    BlockNotMarked {
        /// The block.
        addr: u64,
    },
    /// A block marked allocated is not referenced by anything ("leaked").
    BlockLeaked {
        /// The block.
        addr: u64,
    },
    /// Two references (from any files) name the same block. One issue is
    /// reported per *extra* reference beyond the first.
    BlockDoublyUsed {
        /// The block.
        addr: u64,
    },
    /// An allocated inode is unreachable from the root.
    OrphanInode {
        /// The inode.
        ino: u64,
    },
    /// An inode bitmap bit is set for a free inode slot (or vice versa).
    InodeBitmapMismatch {
        /// The inode.
        ino: u64,
    },
    /// One replica of a mirrored volume disagrees with its quorum peers at
    /// a block (`DRedundancy` detection at the cluster tier). The block
    /// has a known-good copy on the peers, so the planned recovery is
    /// `RRedundancy` — rewrite the divergent replica from the majority —
    /// executed by `iron-cluster`'s repair engine rather than a
    /// single-image [`crate::RepairFix`].
    ReplicaDivergence {
        /// The divergent block.
        addr: u64,
        /// The replica (0-based) that disagrees with the quorum.
        replica: usize,
    },
}

/// The result of a consistency check.
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Everything found, in discovery order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// True if the image is fully consistent.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// True if `other` reports exactly the same issue multiset,
    /// independent of discovery order.
    pub fn same_issues(&self, other: &[FsckIssue]) -> bool {
        let mut a = self.issues.clone();
        let mut b = other.to_vec();
        a.sort();
        b.sort();
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_sort_is_stable_across_discovery_orders() {
        let a = vec![
            FsckIssue::BlockLeaked { addr: 9 },
            FsckIssue::BadSuperblock,
            FsckIssue::OrphanInode { ino: 4 },
            FsckIssue::BlockLeaked { addr: 2 },
        ];
        let mut x = a.clone();
        let mut y: Vec<_> = a.into_iter().rev().collect();
        x.sort();
        y.sort();
        assert_eq!(x, y);
        assert_eq!(x[0], FsckIssue::BadSuperblock, "variant order leads");
    }

    #[test]
    fn same_issues_is_order_insensitive_but_multiset_exact() {
        let r = FsckReport {
            issues: vec![
                FsckIssue::BlockLeaked { addr: 1 },
                FsckIssue::BlockLeaked { addr: 1 },
                FsckIssue::OrphanInode { ino: 3 },
            ],
        };
        assert!(r.same_issues(&[
            FsckIssue::OrphanInode { ino: 3 },
            FsckIssue::BlockLeaked { addr: 1 },
            FsckIssue::BlockLeaked { addr: 1 },
        ]));
        // Multiplicity matters.
        assert!(!r.same_issues(&[
            FsckIssue::OrphanInode { ino: 3 },
            FsckIssue::BlockLeaked { addr: 1 },
        ]));
    }
}
