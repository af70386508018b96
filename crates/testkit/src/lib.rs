//! # iron-testkit
//!
//! Deterministic, zero-dependency test machinery for the IRON
//! reproduction. The paper's method is *deterministic differential
//! observation* — inject a typed fault, replay a workload, diff the
//! observed policy (§4) — and that only reproduces if every random
//! choice is replayable from a seed. This crate keeps the whole
//! workspace hermetic: no `rand`, no `proptest`, no `criterion`.
//!
//! Three pieces:
//!
//! * [`rng`] — a seedable SplitMix64/xoshiro256** PRNG ([`Rng`]);
//! * [`gen`] + [`prop`] — a minimal property-testing harness: value
//!   generators ([`gen::Gen`]), fixed-iteration runs that print the
//!   failing case's seed, and a simple halving shrinker ([`Shrink`]);
//! * [`json`] — a serde-free JSON reader (the whole-stack `benchmark/`
//!   checks its manifest with it).
//!
//! ## Reproducing a property-test failure
//!
//! A failing property prints its case seed and a ready-to-paste command:
//!
//! ```text
//! [iron-testkit] property 'ext3_matches_reference' failed (case 7/24, seed 0x243f6a8885a308d3)
//! ...
//! rerun: IRON_TESTKIT_SEED=0x243f6a8885a308d3 cargo test -q ext3_matches_reference
//! ```
//!
//! Setting `IRON_TESTKIT_SEED` makes every property in the process run
//! exactly that one case, deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod json;
pub mod prop;
pub mod rng;
mod shrink;

pub use gen::Gen;
pub use prop::{check, Config};
pub use rng::Rng;
pub use shrink::Shrink;

/// Re-export of [`std::hint::black_box`] so timing loops need no extra import.
pub use std::hint::black_box;
