//! # iron-fsck
//!
//! A filesystem-agnostic check-and-repair engine.
//!
//! The IRON taxonomy names `RRepair` ("repair data structs", §3.1 of the
//! paper) as a first-class recovery level, but offline check-and-repair is
//! traditionally a per-filesystem monolith. This crate factors the engine
//! out of the file systems:
//!
//! * [`Checkable`] is the read-only view a file system exposes for
//!   checking — superblock sanity, inode enumeration, directory entries,
//!   block references, allocation bitmaps ([`check`]);
//! * [`FsckEngine`] runs six plain passes over that view ([`engine`]):
//!   superblock, directory walk, block references, bitmap reconcile, link
//!   counts, inode-table scan;
//! * [`RepairPlan`] maps each issue class to an IRON recovery action
//!   (`RRepair`/`RRemap`/`RStop` via `iron_core::taxonomy`) and
//!   [`repair::apply`] executes the fixable subset *transactionally*
//!   against a [`Repairable`] file system — any failure rolls back every
//!   fix already applied ([`repair`]);
//! * [`FsckStats`] counts blocks scanned, issues found, and per-pass wall
//!   time; the counts (not the times) are surfaced through the simulated
//!   kernel log.
//!
//! Reports are canonically sorted. `iron-ext3` keeps its own checker,
//! written against the on-disk format, as the differential oracle: the
//! property suites assert the two report the same issue multiset on every
//! image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod engine;
pub mod issue;
pub mod repair;

pub use check::{Checkable, ChildEntry, FileKind, InodeSummary, SuperblockReport};
pub use engine::{FsckEngine, FsckStats, PassStat};
pub use issue::{FsckIssue, FsckReport};
pub use repair::{
    apply, PlannedAction, RepairFailure, RepairFix, RepairPlan, RepairSummary, Repairable,
};

#[cfg(test)]
pub(crate) mod mockfs;
