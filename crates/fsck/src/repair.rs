//! The repair planner and transactional executor.
//!
//! Each issue class maps to an IRON recovery action
//! ([`iron_core::taxonomy::RecoveryLevel`]). Mechanical fixes — freeing a
//! leaked block, correcting a link count, reconciling a bitmap bit,
//! rewriting a bad geometry field — are `RRepair` and get a concrete
//! [`RepairFix`]. Data-loss repairs (deleting a dangling entry, breaking
//! a doubly-used block — the paper's "Could lose data", Table 2) are
//! *planned but deferred*: reported with their recovery level and no fix.
//!
//! [`apply`] executes a plan transactionally: every applied fix returns
//! its inverse, and on any failure the inverses are replayed in reverse
//! order, restoring the pre-repair image — a half-repaired file system is
//! worse than a broken one.

use iron_core::taxonomy::RecoveryLevel;
use iron_core::KernelLog;

use crate::issue::FsckIssue;

/// One mechanical, invertible repair step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RepairFix {
    /// Clear the allocation bit of a leaked block.
    FreeBlock {
        /// The block to mark free.
        addr: u64,
    },
    /// Set the allocation bit of a used-but-unmarked block.
    MarkBlock {
        /// The block to mark in use.
        addr: u64,
    },
    /// Overwrite an inode's stored link count.
    SetLinkCount {
        /// The inode.
        ino: u64,
        /// The count derived from the tree walk.
        links: u32,
    },
    /// Reconcile an inode-bitmap bit toward the inode table's truth.
    SyncInodeMark {
        /// The inode whose bit is wrong.
        ino: u64,
    },
    /// Write an inode-bitmap bit verbatim (used for rollback).
    SetInodeMark {
        /// The inode.
        ino: u64,
        /// The bit value to store.
        used: bool,
    },
    /// Rewrite one superblock geometry field to the trusted value.
    SetGeometryField {
        /// Field name (as named by [`FsckIssue::GeometryMismatch`]).
        field: &'static str,
        /// The value to store.
        value: u64,
    },
}

/// A file-system image [`apply`] can repair: applying a fix returns the
/// *inverse* fix, which [`apply`] stacks for transactional rollback.
pub trait Repairable {
    /// Apply one fix to the image. Errors must leave the image unchanged.
    fn apply_fix(&mut self, fix: &RepairFix) -> Result<RepairFix, String>;
}

/// One planned action: the issue, its IRON recovery level, and the fix
/// (`None` = deferred: correct recovery would risk data loss or needs
/// machinery we don't have).
#[derive(Clone, Debug)]
pub struct PlannedAction {
    /// The issue being addressed.
    pub issue: FsckIssue,
    /// The IRON recovery level this repair corresponds to.
    pub recovery: RecoveryLevel,
    /// The mechanical fix, if one is safe.
    pub fix: Option<RepairFix>,
    /// Why, in one line (shown in logs).
    pub note: &'static str,
}

/// The full plan for a report's issues.
#[derive(Clone, Debug, Default)]
pub struct RepairPlan {
    /// One action per issue, in the report's (canonical) order.
    pub actions: Vec<PlannedAction>,
}

fn plan_one(issue: &FsckIssue) -> PlannedAction {
    let issue = issue.clone();
    match issue {
        FsckIssue::BadSuperblock => PlannedAction {
            issue,
            recovery: RecoveryLevel::RStop,
            fix: None,
            note: "superblock undecodable; restore from a redundant copy",
        },
        FsckIssue::GeometryMismatch {
            field, expected, ..
        } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::SetGeometryField {
                field,
                value: expected,
            }),
            note: "rewrite geometry field from the trusted layout",
        },
        FsckIssue::JournalOverlap { max, .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::SetGeometryField {
                field: "journal_blocks",
                value: max,
            }),
            note: "clamp journal length below the following region",
        },
        FsckIssue::DanglingEntry { .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: None,
            note: "unlinking the entry would lose the name; deferred",
        },
        FsckIssue::WrongLinkCount { ino, actual, .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::SetLinkCount { ino, links: actual }),
            note: "store the link count derived from the tree walk",
        },
        FsckIssue::BlockNotMarked { addr } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::MarkBlock { addr }),
            note: "mark the referenced block allocated",
        },
        FsckIssue::BlockLeaked { addr } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::FreeBlock { addr }),
            note: "free the unreferenced block",
        },
        FsckIssue::BlockDoublyUsed { .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRemap,
            fix: None,
            note: "needs copy-and-remap of one owner; deferred",
        },
        FsckIssue::OrphanInode { .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: None,
            note: "no lost+found to reconnect into; deferred",
        },
        FsckIssue::InodeBitmapMismatch { ino } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRepair,
            fix: Some(RepairFix::SyncInodeMark { ino }),
            note: "resolve the bitmap toward the inode table",
        },
        FsckIssue::ReplicaDivergence { .. } => PlannedAction {
            issue,
            recovery: RecoveryLevel::RRedundancy,
            fix: None,
            note: "rewrite the divergent replica from its quorum peers (cluster tier)",
        },
    }
}

impl RepairPlan {
    /// Plan every issue.
    pub fn new(issues: &[FsckIssue]) -> RepairPlan {
        RepairPlan {
            actions: issues.iter().map(plan_one).collect(),
        }
    }

    /// How many actions carry a mechanical fix.
    pub fn fixable(&self) -> usize {
        self.actions.iter().filter(|a| a.fix.is_some()).count()
    }

    /// How many actions are deferred (reported, not fixed).
    pub fn deferred(&self) -> usize {
        self.actions.len() - self.fixable()
    }

    /// The deferred issues — exactly what a re-check after a successful
    /// [`apply`] must still report (the repair-idempotence invariant).
    pub fn deferred_issues(&self) -> Vec<FsckIssue> {
        self.actions
            .iter()
            .filter(|a| a.fix.is_none())
            .map(|a| a.issue.clone())
            .collect()
    }
}

/// What a successful [`apply`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairSummary {
    /// Fixes applied.
    pub applied: usize,
    /// Issues reported but deferred.
    pub deferred: usize,
}

/// A failed [`apply`]: the offending fix, and how rollback went.
#[derive(Clone, Debug)]
pub struct RepairFailure {
    /// The fix that could not be applied.
    pub fix: RepairFix,
    /// The file system's reason.
    pub reason: String,
    /// How many already-applied fixes were rolled back.
    pub rolled_back: usize,
    /// True if rollback itself failed (the image may be torn).
    pub rollback_failed: bool,
}

impl std::fmt::Display for RepairFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "repair failed applying {:?} ({}); rolled back {} fix(es){}",
            self.fix,
            self.reason,
            self.rolled_back,
            if self.rollback_failed {
                "; ROLLBACK FAILED"
            } else {
                ""
            }
        )
    }
}

/// Apply a plan's fixes transactionally (see module docs).
pub fn apply<R: Repairable>(
    fs: &mut R,
    plan: &RepairPlan,
    klog: Option<&KernelLog>,
) -> Result<RepairSummary, RepairFailure> {
    let mut undo: Vec<RepairFix> = Vec::new();
    for action in &plan.actions {
        let Some(fix) = &action.fix else { continue };
        match fs.apply_fix(fix) {
            Ok(inverse) => undo.push(inverse),
            Err(reason) => {
                let rolled_back = undo.len();
                let mut rollback_failed = false;
                for inverse in undo.into_iter().rev() {
                    if fs.apply_fix(&inverse).is_err() {
                        rollback_failed = true;
                        break;
                    }
                }
                let failure = RepairFailure {
                    fix: fix.clone(),
                    reason,
                    rolled_back,
                    rollback_failed,
                };
                if let Some(klog) = klog {
                    klog.error("fsck", format!("repair: {failure}"));
                }
                return Err(failure);
            }
        }
    }
    let summary = RepairSummary {
        applied: undo.len(),
        deferred: plan.deferred(),
    };
    if let Some(klog) = klog {
        klog.info(
            "fsck",
            format!(
                "repair: applied {} fix(es), deferred {} issue(s)",
                summary.applied, summary.deferred
            ),
        );
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_maps_issue_classes_to_iron_recovery_levels() {
        let issues = vec![
            FsckIssue::BadSuperblock,
            FsckIssue::GeometryMismatch {
                field: "total_blocks",
                stored: 9,
                expected: 4096,
            },
            FsckIssue::JournalOverlap {
                stored: 900,
                max: 256,
            },
            FsckIssue::DanglingEntry {
                dir: 2,
                name: "x".into(),
                ino: 7,
            },
            FsckIssue::WrongLinkCount {
                ino: 3,
                stored: 2,
                actual: 1,
            },
            FsckIssue::BlockNotMarked { addr: 10 },
            FsckIssue::BlockLeaked { addr: 11 },
            FsckIssue::BlockDoublyUsed { addr: 12 },
            FsckIssue::OrphanInode { ino: 8 },
            FsckIssue::InodeBitmapMismatch { ino: 9 },
            FsckIssue::ReplicaDivergence {
                addr: 13,
                replica: 1,
            },
        ];
        let plan = RepairPlan::new(&issues);
        let levels: Vec<_> = plan.actions.iter().map(|a| a.recovery).collect();
        assert_eq!(
            levels,
            vec![
                RecoveryLevel::RStop,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRemap,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRepair,
                RecoveryLevel::RRedundancy,
            ]
        );
        assert_eq!(plan.fixable(), 6);
        assert_eq!(plan.deferred(), 5);
        assert_eq!(plan.deferred_issues().len(), 5);
        // Geometry fixes carry the trusted value, not the stored one.
        assert_eq!(
            plan.actions[1].fix,
            Some(RepairFix::SetGeometryField {
                field: "total_blocks",
                value: 4096
            })
        );
        assert_eq!(
            plan.actions[2].fix,
            Some(RepairFix::SetGeometryField {
                field: "journal_blocks",
                value: 256
            })
        );
    }

    #[test]
    fn repair_failure_display_is_informative() {
        let f = RepairFailure {
            fix: RepairFix::FreeBlock { addr: 7 },
            reason: "nope".into(),
            rolled_back: 2,
            rollback_failed: false,
        };
        let s = f.to_string();
        assert!(s.contains("FreeBlock"), "{s}");
        assert!(s.contains("rolled back 2"), "{s}");
    }
}
