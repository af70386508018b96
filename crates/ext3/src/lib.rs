//! # iron-ext3
//!
//! A behavioral model of Linux ext3 (§5.1 of the paper), faithful to the
//! paper's *measured* failure policy — including its bugs — plus the IRON
//! machinery of §6 (checksumming, metadata replication, data parity,
//! transactional checksums) behind an [`IronConfig`] switchboard. Stock
//! ext3 is `IronConfig::off()`, full ixt3 is `IronConfig::full()`, and both
//! are mounted the same way ([`Ext3Fs::format_and_mount`]); the `iron-ixt3`
//! crate adds the `Ixt3Fs` name and the disk scrubber.
//!
//! The engine keeps no LRU of its own: its cache of already-verified
//! blocks ([`Ext3Options::cache_blocks`]) is an `iron_blockdev::Lru<Block>`,
//! the same index that orders `iron_blockdev::BufferCache`.
//!
//! ## On-disk structures (Table 4)
//!
//! | structure | here |
//! |---|---|
//! | inode | [`inode::DiskInode`], 128-byte records in per-group tables |
//! | directory | [`dir`] — ext2-style variable-length entries |
//! | data bitmap / inode bitmap | per-group bitmap blocks ([`iron_core::Block`]'s bit operations) |
//! | indirect | single/double indirect pointer blocks |
//! | data | user data blocks |
//! | super | [`superblock::Superblock`] at block 0 |
//! | group descriptor | [`layout::DiskLayout`]-governed table at block 1 |
//! | journal super/revoke/descriptor/commit/data | [`journal`] |
//!
//! ## The measured failure policy (what §5.1 reports, what we implement)
//!
//! * Read failures: error codes checked (`DErrorCode`); errors propagate
//!   (`RPropagate`) and metadata read failures abort the journal → read-only
//!   remount (`RStop`). Data reads go through a prefetch path that retries
//!   only the originally requested block (`RRetry`, sparingly).
//! * Write failures: **ignored** (`DZero`/`RZero`) — the paper's headline
//!   ext3 flaw. Journal write errors don't stop the commit (`PAPER-BUG`),
//!   and a post-abort data write is not squelched (`PAPER-BUG`).
//! * Sanity checks: superblock and journal block magics, inode size check
//!   at `open`; **no** checks for directories, bitmaps, indirect blocks.
//! * `truncate`/`rmdir` fail silently on indirect/dir read errors
//!   (`PAPER-BUG`); `unlink` doesn't check `links_count` and a corrupted
//!   zero count crashes the kernel (`PAPER-BUG`); superblock replicas are
//!   written at mkfs and never updated or consulted (`PAPER-BUG`).
//!
//! Every deliberate bug is marked `PAPER-BUG` in the source and pinned by a
//! test; `IronConfig::fix_bugs` turns each one off (that is what the paper
//! means by "in the process of building ixt3, we also fixed numerous bugs
//! within ext3").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dir;
pub mod fs;
pub mod fsck;
pub mod inode;
pub mod iron;
pub mod journal;
pub mod layout;
pub mod ops;
pub mod superblock;

pub use fs::{Ext3Fs, Ext3Options};
pub use fsck::Ext3Image;
pub use iron::IronConfig;
pub use layout::{BlockType, DiskLayout, Ext3Params};
pub use superblock::Superblock;
