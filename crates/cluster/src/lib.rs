//! # iron-cluster — replicated multi-disk volumes
//!
//! The paper's Figure-2 study stops at a single disk: a sticky latent
//! error or silent corruption that defeats one file system's internal
//! redundancy (ixt3's Mr/Dp) is fatal. This crate adds the storage-system
//! tier above it:
//!
//! * [`ReplicatedDisk`] — one logical volume mirrored across N replica
//!   stacks behind [`iron_blockdev::StackBuilder`] (each replica keeps
//!   its own fault-injection, cache, and recording layers). Writes fan out in
//!   replica order; barriers and flushes are forwarded to every replica,
//!   so per-replica ordering and durability semantics match a single
//!   disk exactly.
//! * [`ReadPolicy`] — primary (failover), round-robin (load spreading),
//!   or quorum: read every replica and arbitrate by content majority.
//!   Quorum detects single-replica silent corruption (`DRedundancy`)
//!   that no single-disk file system policy can see, masks it, and
//!   queues the divergent copy for repair.
//! * [`RepairReport`]-producing repair engine — heal a divergent or
//!   corrupted replica from its quorum peers, with the ixt3 scrub
//!   discipline (rewrite, then verify by re-read through the device
//!   path; sticky faults count unrecoverable). Queued divergences render
//!   as [`iron_fsck::FsckIssue::ReplicaDivergence`]
//!   ([`ReplicatedDisk::findings`]).
//!
//! The fingerprint campaign gains a replica-fault topology axis on top of
//! this device (`iron_fingerprint::cluster`), turning the policy × block
//! type matrix into a 3D study of policy × block type × replica-fault
//! topology. The `cluster` rows of `results/sim_costs.txt` hold the
//! simulated cost of fan-out writes per replica count, reads per policy,
//! and a scrub repair.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod repair;
pub mod replicated;

pub use repair::RepairReport;
pub use replicated::{
    mirror_with, ClusterStackExt, ClusterStats, ClusterStatsSnapshot, DivergenceKind, ReadPolicy,
    ReplicatedDisk,
};
