//! # iron-serve — the concurrent multi-client serving layer
//!
//! The paper's IRON analysis assumes a file system under live load, but
//! the models in this workspace are `&mut self` — one caller at a time.
//! This crate puts a service surface over any mounted [`iron_vfs::Vfs`]:
//!
//! * [`proto`] — an in-tree request/response protocol (open / read /
//!   write / create / unlink / mkdir / rmdir / readdir / stat / rename /
//!   fsync / sync as plain structs), NFSv3-style stateless, modeled on a
//!   master/chunkserver RPC surface with no external dependencies;
//! * [`engine`] — the request engine: thousands of simulated client
//!   sessions drained through [`iron_core::exec::WorkerPool`], each
//!   request run whole in one critical section of the file-system mutex,
//!   a global commit log recorded in that section, and
//!   [`engine::replay_serial`] to re-execute any trace one request at a
//!   time in commit order;
//! * [`session`] — deterministic workload generation (shared hot files,
//!   private per-client files, namespace churn);
//! * [`differential`] — the correctness oracle: a concurrent run must be
//!   indistinguishable from its own serial replay (identical responses,
//!   identical namespace fingerprint, bit-identical disk image), at
//!   every thread count.
//!
//! Served ops/sec and thread scaling are measured by the whole-stack
//! benchmark's `multiclient` workload (`benchmark/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod engine;
pub mod proto;
pub mod session;

pub use differential::{assert_serial_equivalence, fs_fingerprint, memdisk_image};
pub use engine::{
    replay_serial, serve, validate_commit_log, CommitRecord, ServeOptions, ServeReport, Session,
};
pub use proto::{digest, lock_keys, payload, LockMode, Reply, Request, Response};
pub use session::{generate, prepare, setup_requests, WorkloadSpec};
