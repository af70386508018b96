//! # iron-fingerprint
//!
//! The paper's **failure-policy fingerprinting framework** (§4): determine
//! which IRON detection and recovery techniques a file system uses, and
//! what it assumes about how the storage system can fail, by injecting
//! type-aware faults beneath it and observing how it reacts.
//!
//! The three steps of §4, mechanized:
//!
//! 1. **Applied workload** ([`workloads`]): the Table 3 suite — singlets
//!    covering the POSIX API plus generics (path traversal, recovery, log
//!    writes), arranged as the columns *a–t* of Figure 2.
//! 2. **Type-aware fault injection** ([`campaign`]): for every (workload ×
//!    block type × fault mode) cell, a fresh golden image is stamped, a
//!    fault is aimed at the block *type* (via the tags the file systems
//!    attach to their I/O), and the workload runs.
//! 3. **Failure-policy inference** ([`observe`]): the run's outputs — API
//!    results, the kernel log, the low-level I/O trace, and the post-run
//!    mount state — are compared against a fault-free reference run and
//!    classified into IRON levels. (The paper calls this "the most
//!    human-intensive part of the process"; here it is automated.)
//!
//! That loop exists once. [`campaign`] holds the driver — one function
//! that runs a cell (inject → stack over a golden snapshot → mount → arm →
//! run → observe) and one that drives a matrix (goldens → references →
//! cross product → shard → keyed merge) — and three **axes** ride it,
//! each supplying only its panel values, its device stack and its cell
//! type: fault mode ([`fingerprint_fs`], Figure 2/3), fault transience
//! ([`transience`]: sticky / transient-*n* / slow beneath the
//! retry/deadline layer), and replica-fault topology ([`cluster`]: the
//! same faults under chosen replicas of an `iron-cluster` quorum volume,
//! with peer repair as the post-run hook).
//!
//! [`adapters`] packages each file-system model for the campaign;
//! [`render`] draws Figure 2/3-style matrices; [`summary`] aggregates
//! Table 5; [`greybox`] re-derives ext3 block types by walking the image —
//! independently of the tags — and the test suite asserts the two agree.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod campaign;
pub mod cluster;
pub mod greybox;
pub mod observe;
pub mod render;
pub mod summary;
pub mod transience;
pub mod workloads;

pub use adapters::{
    CampaignDevice, CrashDevice, Ext3Adapter, FsUnderTest, JfsAdapter, NtfsAdapter, ReiserAdapter,
    RetryDevice,
};
pub use campaign::{fingerprint_fs, CampaignOptions, FaultMode, PolicyMatrix};
pub use cluster::{
    fingerprint_cluster, ClusterCampaignOptions, ClusterCell, ClusterMatrix, ReplicaTopology,
};
pub use transience::{
    transience_matrix, FaultTransience, TransienceCell, TransienceMatrix, TransienceOptions,
};
pub use workloads::{Workload, WorkloadOutput};
