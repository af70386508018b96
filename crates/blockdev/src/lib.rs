//! # iron-blockdev
//!
//! Simulated block devices.
//!
//! The paper injects faults "just beneath the file system" using a
//! pseudo-device driver (§4.2); everything below that layer — the device
//! driver, controller, transport, and the disk itself (Figure 1) — is here
//! collapsed into a single simulated disk, [`MemDisk`].
//!
//! `MemDisk` is a *perfect* disk: it never fails. Fault injection lives one
//! crate up, in `iron-faultinject`, which wraps any [`BlockDevice`].
//!
//! Two aspects matter for reproducing the paper:
//!
//! * **Typed I/O** ([`BlockDevice::read_tagged`]): file systems tag each
//!   request with the block type being accessed, enabling type-aware fault
//!   injection.
//! * **Timing** ([`geometry::DiskGeometry`]): each request charges seek,
//!   rotational, and transfer time to a shared [`iron_core::SimClock`]. The
//!   performance study (Table 6) is measured in this simulated time; in
//!   particular the *ordering barrier* ([`BlockDevice::barrier`]) models the
//!   lost rotation that ext3 pays between journal data and the commit block
//!   — the cost that transactional checksums (§6.1) eliminate.
//! * **Shared pages** ([`Page`], [`BlockDevice::read_page`],
//!   [`BlockDevice::write_page`]): layers pass a block to each other as an
//!   immutable `Arc<Page>`, so one written block is one copy in the cache,
//!   in every replica and in every snapshot, and its SHA-1 is computed
//!   once, on the first ask, for all of them — from the file system's
//!   checksum at write time to the verification of a later read.
//!
//! Between the file system and the disk sits the generic buffer cache of
//! Figure 1 ([`cache::BufferCache`]): LRU, write-back, with an exact
//! dirty index whose order — barrier epochs in issue order, addresses
//! ascending inside each — is the destage order; [`sched`] counts that
//! order in sweeps and hints sequential scans ([`sched::ScanReadahead`]).
//! Its recency order is [`lru::Lru`], the one LRU index of the workspace
//! (ext3's private post-verification cache is an `Lru<Block>` too).
//! Stacks are assembled with the fluent [`stack::StackBuilder`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod geometry;
pub mod iolog;
pub mod lru;
pub mod memdisk;
pub mod page;
pub mod retry;
pub mod sched;
pub mod stack;

pub use cache::{BufferCache, CachePolicy, CacheStats};
pub use device::{BlockDevice, DiskError, DiskResult, RawAccess};
pub use geometry::DiskGeometry;
pub use iolog::{
    IoEvent, IoLog, IoOp, IoOutcome, IoRecord, Recorder, WriteLogSnapshot, WriteRecord,
};
pub use lru::Lru;
pub use memdisk::MemDisk;
pub use page::Page;
pub use retry::{RetryConfig, RetryLayer, RetryStats, RetryStatsSnapshot};
pub use sched::ScanReadahead;
pub use stack::StackBuilder;
