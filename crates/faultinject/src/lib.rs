//! # iron-faultinject
//!
//! The paper's fault-injection layer (§4.2): "a software layer directly
//! beneath the file system (i.e., a pseudo-device driver). This layer
//! injects both block failures (on reads or writes) and block corruption
//! (on reads). … The software layer also models both transient and sticky
//! faults."
//!
//! [`FaultyDisk`] wraps any [`iron_blockdev::BlockDevice`] and consults a
//! shared [`FaultPlan`] on every request. Faults are *type-aware*: they can
//! target a block type tag (e.g. "the next `j-commit` write") rather than a
//! raw address, which is the key idea that makes fingerprinting efficient
//! (§4.2). Every request — including injected failures and silent
//! corruptions — is recorded in an [`iron_blockdev::IoLog`], the
//! workspace's one I/O log, whose trace view the inference step reads.
//!
//! The [`reliability`] module is a small Monte-Carlo companion: it simulates
//! latent-sector-error arrival over time and measures the detection window
//! with lazy (on-access) versus eager (scrubbing) detection — the §3.2
//! trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faulty;
pub mod plan;
pub mod reliability;
pub mod stack;

pub use faulty::{FaultyDisk, SLOW_NOMINAL_NS};
pub use plan::{FaultController, FaultId, FaultPlan, FaultSpec, FaultTarget};
pub use stack::FaultStackExt;
