//! # iron-workloads
//!
//! The paper's performance study (§6.2, Table 6) measured four standard
//! benchmarks over every ixt3 variant: **SSH-Build** (unpack, configure,
//! compile), a read-intensive **web server**, the metadata-intensive
//! **PostMark**, and the synchronous, transactional **TPC-B**. This crate
//! implements workload generators issuing the same *kinds* of file-system
//! traffic, measured in simulated time on the `iron-blockdev` disk model.
//!
//! Absolute times cannot match the paper's hardware; Table 6 is normalized
//! to stock ext3 = 1.00, so what must (and does) reproduce is the *shape*:
//!
//! * SSH-Build and the web server show little overhead for any variant;
//! * PostMark and TPC-B pay noticeably for metadata replication (`Mr`,
//!   distant-mirror seeks) and data checksumming (`Dc`);
//! * transactional checksums (`Tc`) *speed up* TPC-B by removing the
//!   pre-commit rotational barrier.
//!
//! [`space`] implements the §6.2 space-overhead analysis over several
//! volume profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod space;

pub use bench::{run_benchmark, table6, Benchmark, Table6Row};
pub use space::{analyze_profile, VolumeProfile};
