//! # iron-reiser
//!
//! A behavioral model of ReiserFS v3 (§5.2 of the paper). "Virtually all
//! metadata and data are placed in a balanced tree, similar to a database
//! index": stat items, directory items, direct items (small files and
//! tails), and indirect items (block lists for large files) live in the
//! leaves of a B+-tree whose internal nodes are sanity-checked block
//! headers.
//!
//! ## The measured failure policy (§5.2)
//!
//! * **"First, do no harm"**: virtually any *write* failure panics the
//!   (simulated) kernel — `RStop` at the coarsest granularity — to keep the
//!   on-disk tree uncorrupted: [`reiser_stock_policy`]'s write rows end in
//!   `Stop` for every block ReiserFS writes through its journal.
//! * Error codes are checked on both reads and writes (`DErrorCode`
//!   everywhere).
//! * Heavy sanity checking (`DSanity`): every tree block's header (level,
//!   item count, free space) is validated on read; the superblock and
//!   journal blocks carry checked magic numbers. Bitmaps and data blocks
//!   have no type information and are never checked.
//! * Read failures propagate (`RPropagate`), with a single retry
//!   (`RRetry`) for data, indirect and direct reads — the three rows of
//!   [`reiser_stock_policy`], the
//!   [`iron_core::recover::FailurePolicyTable`] built at mount and
//!   enacted by the one chain walker.
//!
//! ## Reproduced `PAPER-BUG`s
//!
//! * An *ordered data block* write failure is ignored: the transaction is
//!   journaled and committed anyway (`RZero` where `RStop` was intended),
//!   leaving metadata pointing at bad data.
//! * An indirect-item read failure during `truncate`/`unlink` is detected
//!   but ignored: the bitmap and superblock are updated as if the blocks
//!   were freed, leaking space.
//! * Failed sanity checks on internal tree nodes call `panic` instead of
//!   returning an error.
//! * Journal *data* blocks are replayed with no sanity or type checking; a
//!   corrupted journal block can be replayed over any home location (even
//!   the superblock), making the file system unusable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fs;
pub mod journal;
pub mod layout;
pub mod tree;

pub use fs::{reiser_stock_policy, ReiserFs, ReiserOptions};
pub use layout::{ReiserBlockType, ReiserLayout, ReiserParams};
