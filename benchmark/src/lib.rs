//! The whole-stack benchmark. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod campaign;
pub mod gen;
pub mod metrics;
pub mod probe;
pub mod procstat;
pub mod run;
pub mod stack;

/// The serve-path workloads: request streams driven through
/// `iron_serve::serve` on the deep stack.
pub const SERVE_WORKLOADS: [&str; 4] = ["postmark", "tpcb", "webread", "multiclient"];
/// Every workload, in reporting order.
pub const WORKLOADS: [&str; 5] = ["postmark", "tpcb", "webread", "multiclient", "campaign"];
