//! # iron-crash
//!
//! Bounded **crash-state enumeration** with recovery checking — the
//! complement to `iron-fingerprint`'s fault campaigns. Where the
//! fingerprinter asks *"how does the file system react when the disk
//! fails?"*, this crate asks *"which on-disk states can a power loss
//! leave behind, and does recovery repair every one of them?"*.
//!
//! The pipeline:
//!
//! 1. **Record** ([`iron_blockdev::Recorder`]): a scripted workload
//!    runs over a recording device, which logs every request in an
//!    [`iron_blockdev::IoLog`]. The log's crash view gives every write
//!    that reached the device its *epoch* — barriers and flushes seal
//!    epochs, flushes additionally append durability marks. Within an
//!    epoch a write-back drive cache may persist any subset of the
//!    writes, in any order; across a barrier it may not reorder.
//! 2. **Enumerate** ([`enumerate`]): every epoch-prefix image, plus a
//!    bounded, seed-deterministic sample of in-epoch write subsets.
//! 3. **Recover and check** ([`oracle`], [`campaign`]): each image is
//!    mounted (running journal replay), walked, cleanly unmounted, and
//!    held against four oracles — fsck cleanliness, durability of synced
//!    data, atomicity of created files, and idempotence of recovery.
//!    Violations name the exact `(epoch, write subset, oracle)` witness
//!    so any finding replays from the spec alone.
//!
//! Image checking fans out over [`iron_core::exec::WorkerPool`]; results
//! are re-keyed by image index, so reports are bit-identical at any
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod enumerate;
pub mod gen;
pub mod image;
pub mod oracle;
pub mod workload;

pub use campaign::{
    run_crash_campaign, run_generated_campaign, CrashCampaignOptions, CrashReport,
    GeneratedCampaignReport,
};
pub use enumerate::{enumerate_images, EnumOptions};
pub use gen::{
    find_generated, generate_workloads, op_instances, GenOptions, SyncPlacement, GEN_CONTENT,
    GEN_DIRS, GEN_EXTEND, GEN_FILES, GEN_SHRINK,
};
pub use image::{apply_all, materialize, CrashImageSpec};
pub use oracle::{check_image, OracleKind, Violation};
pub use workload::{
    batch_workloads, run_workload, standard_workloads, CrashOp, CrashPath, CrashWorkload,
    ShadowModel, CRASH_ROOT,
};
