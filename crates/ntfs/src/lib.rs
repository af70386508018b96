//! # iron-ntfs
//!
//! A simplified behavioral model of Windows NTFS (§5.4 of the paper).
//! NTFS is closed source; the paper's own analysis is explicitly partial
//! ("our knowledge of NTFS data structures is incomplete"), so this model
//! covers exactly the structures Table 4 lists — MFT records, directories,
//! the volume bitmap, the MFT bitmap, the logfile, data, and the boot file
//! — and exactly the policy §5.4 reports:
//!
//! * **"Persistence is a virtue"**: read failures are retried up to
//!   **seven** times; write failures are retried too — three times for
//!   data blocks, two times for MFT blocks (`RRetry`, aggressively).
//!   The three budgets are rows of [`ntfs_stock_policy`], the
//!   [`iron_core::recover::FailurePolicyTable`] built at mount and
//!   enacted by the one chain walker; no loop in this crate counts.
//! * Error codes are checked on reads and writes (`DErrorCode`), and
//!   errors propagate to the user quite reliably (`RPropagate`) — but,
//!   "similar to ext3 and JFS, when a data write fails, NTFS records the
//!   error code but does not use it" (`DZero` in effect — `PAPER-BUG`).
//! * Strong sanity checking on metadata (`DSanity`): every MFT record
//!   carries the `FILE` magic; the volume "becomes unmountable if any of
//!   its metadata blocks (except the journal) are corrupted" — mount scans
//!   the in-use MFT and refuses a corrupt volume.
//! * `PAPER-BUG`: block *pointers* are not sanity-checked — "a corrupted
//!   block pointer can point to important system structures and hence
//!   corrupt them when the block pointed to is updated."
//!
//! Files and directories are [`iron_vfs::flat`]'s flat-inode model; NTFS
//! is the [`iron_vfs::flat::FlatStore`] beneath it.
//!
//! The logfile is written (so log-write workloads exercise it) but
//! redo/undo recovery is not modeled — the paper never fingerprints NTFS
//! recovery (closed source, incomplete analysis); DESIGN.md records the
//! substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;

pub use fs::{ntfs_stock_policy, NtfsBlockType, NtfsFs, NtfsParams};
