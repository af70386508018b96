//! # iron-fsck
//!
//! The vocabulary and the repair executor of offline check-and-repair.
//!
//! The IRON taxonomy names `RRepair` ("repair data structs", §3.1 of the
//! paper) as a first-class recovery level. A checker is written against
//! one on-disk format (`iron_ext3::fsck::check` is the one this workspace
//! has); what is shared across file systems and tiers lives here:
//!
//! * [`FsckIssue`] names every structural inconsistency a checker reports,
//!   and [`FsckReport`] is the list a check returns ([`issue`]);
//! * [`RepairPlan`] maps each issue class to an IRON recovery action
//!   (`RRepair`/`RRemap`/`RStop` via `iron_core::taxonomy`) and
//!   [`repair::apply`] executes the fixable subset *transactionally*
//!   against a [`Repairable`] file system — any failure rolls back every
//!   fix already applied ([`repair`]).
//!
//! Repair is driven from a check's report: check → [`RepairPlan::new`] →
//! [`apply`] → check again.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod issue;
pub mod repair;

pub use issue::{FsckIssue, FsckReport};
pub use repair::{
    apply, PlannedAction, RepairFailure, RepairFix, RepairPlan, RepairSummary, Repairable,
};
