//! # iron-fsck
//!
//! The vocabulary of offline checking.
//!
//! A checker is written against one on-disk format
//! (`iron_ext3::fsck::check` is the one this workspace has); what is
//! shared across file systems and tiers lives here: [`FsckIssue`] names
//! every structural inconsistency a checker reports, and [`FsckReport`] is
//! the list a check returns ([`issue`]). The cluster tier reports replica
//! divergence in the same words.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod issue;

pub use issue::{FsckIssue, FsckReport};
