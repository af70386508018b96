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
//! * [`lock`] — a sharded lock manager keyed on lexical paths
//!   (per-target and per-path-prefix, shared/exclusive), with every
//!   request's lock set acquired in one canonical sorted order so
//!   deadlock is excluded by construction;
//! * [`engine`] — the request engine: thousands of simulated client
//!   sessions drained through [`iron_core::exec::WorkerPool`], a global
//!   commit log recorded at each request's linearization point, and
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
pub mod lock;
pub mod proto;
pub mod session;

pub use differential::{assert_serial_equivalence, fs_fingerprint, memdisk_image};
pub use engine::{
    replay_serial, serve, validate_commit_log, CommitRecord, ServeOptions, ServeReport, Session,
};
pub use lock::{lock_keys, LockManager, LockMode, LockSet};
pub use proto::{digest, payload, Reply, Request, Response};
pub use session::{generate, prepare, setup_requests, WorkloadSpec};
