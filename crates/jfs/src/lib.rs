//! # iron-jfs
//!
//! A behavioral model of IBM's JFS (§5.3 of the paper). JFS "uses modern
//! techniques to manage data, block allocation and journaling, with
//! scalable tree structures", and — unlike ext3 and ReiserFS — journals
//! *records* rather than whole blocks.
//!
//! ## Structures (Table 4)
//!
//! inode, directory, block allocation map (`bmap`), inode allocation map
//! (`imap`), internal tree blocks, data, superblock (+ a real alternate
//! copy), journal superblock, journal data (records), aggregate inode
//! table (+ a real secondary copy), bmap descriptor, imap control.
//!
//! Files and directories are [`iron_vfs::flat`]'s flat-inode model; JFS
//! is the [`iron_vfs::flat::FlatStore`] beneath it.
//!
//! ## The measured failure policy (§5.3) — "The kitchen sink"
//!
//! What happens after a failed read, or a failed journal-superblock
//! write, is data, not code:
//! [`jfs_stock_policy`] is the [`iron_core::recover::FailurePolicyTable`]
//! built at mount, and the one chain walker enacts it.
//!
//! * Read errors are handled by *generic* helper code that retries
//!   exactly once (`RRetry`), then propagates — the table's read row.
//! * Write errors are ignored (`DZero`) and consult no table — except a
//!   journal-superblock write error, which crashes the system (`RStop`):
//!   the table's one write row.
//! * A failed read of the **primary superblock** falls back to the
//!   alternate (`RRedundancy`); a *corrupt* primary fails the mount
//!   without ever trying the alternate (the paper's poster-child
//!   inconsistency — `PAPER-BUG`).
//! * A failed read of the **aggregate inode table** does *not* use the
//!   secondary copy (`PAPER-BUG`).
//! * A failed **sanity check on an internal tree block** returns a blank
//!   page to the user (`RGuess`, `PAPER-BUG`).
//! * `bmap`/`imap` read failures crash the system (`RStop`) — the
//!   table's two map rows: one retry, then `Stop`.
//! * Sanity checks: magic + version on the superblocks, entry-count
//!   bounds on internal/directory/inode blocks, an equality check on a
//!   bmap-descriptor field.
//! * During `unlink`, a failed inode read is retried by the generic code,
//!   but the error is then **ignored** and the operation proceeds with a
//!   blank inode, corrupting the file system (`PAPER-BUG`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;
pub mod journal;
pub mod layout;

pub use fs::{jfs_stock_policy, JfsFs, JfsOptions};
pub use layout::{JfsBlockType, JfsLayout, JfsParams};
