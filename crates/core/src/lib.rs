//! # iron-core
//!
//! Shared foundation for the IRON file systems reproduction
//! (Prabhakaran et al., *IRON File Systems*, SOSP 2005).
//!
//! This crate defines the vocabulary every other crate in the workspace
//! speaks:
//!
//! * the **fail-partial failure model** for disks (§2 of the paper):
//!   whole-disk failures, block failures (latent sector errors), and block
//!   corruption, with sticky/transient behavior and spatial locality
//!   ([`model`]);
//! * the **IRON taxonomy** of detection and recovery levels (§3, Tables 1
//!   and 2) ([`taxonomy`]);
//! * block-level primitives: the 4 KiB [`block::Block`] buffer, typed block
//!   tags used for type-aware fault injection, and little-endian codecs;
//! * the checksum ixt3 and its journal use: SHA-1, implemented here to
//!   keep the workspace dependency-free, with an x86-64 hardware kernel
//!   (SHA extensions) chosen at run time over a portable scalar fallback;
//!   the one call into that kernel is the crate's only `unsafe` code,
//!   which is why it denies rather than forbids `unsafe_code`
//!   ([`checksum`]);
//! * the simulated clock ([`clock::SimClock`]) that the disk timing model
//!   advances and the benchmarks read;
//! * the simulated kernel log ([`klog::KernelLog`]) that file systems write
//!   detection/recovery messages to and the fingerprinting framework reads;
//! * the **runtime-configurable failure-policy engine** ([`recover`]): a
//!   [`recover::FailurePolicyTable`] mapping (block type × I/O direction ×
//!   error class) to an ordered escalation chain of
//!   [`recover::RecoveryAction`]s — bounded retry with deterministic
//!   sim-clock backoff, redundancy, graceful read-only degradation,
//!   propagation, or stop — shared across layers through a swappable
//!   [`recover::PolicyHandle`] and enacted at every layer by the one
//!   chain walker, [`recover::PolicyHandle::walk`];
//! * one copy of each small PRNG step and hash the workspace draws
//!   deterministic streams from ([`hash`]);
//! * the shared parallel executor ([`exec::WorkerPool`]): the scoped
//!   `std::thread` sharded scheduler behind the fingerprinting and crash
//!   campaigns (`iron-fingerprint`, `iron-crash`) and the serving layer
//!   (`iron-serve`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod checksum;
pub mod clock;
pub mod errno;
pub mod exec;
pub mod hash;
pub mod klog;
pub mod model;
pub mod policy;
pub mod recover;
pub mod taxonomy;

pub use block::{Block, BlockAddr, BlockTag, BLOCK_SIZE};
pub use clock::SimClock;
pub use errno::Errno;
pub use exec::WorkerPool;
pub use klog::{KernelLog, LogLevel};
pub use model::{FaultKind, IoKind, Transience};
pub use recover::{
    Backoff, ErrorClass, FailurePolicyTable, PolicyCounterSnapshot, PolicyCounters, PolicyHandle,
    RecoveryAction,
};
pub use taxonomy::{DetectionLevel, Level, RecoveryLevel};
