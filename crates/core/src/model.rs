//! The **fail-partial failure model** (§2.3 of the paper).
//!
//! In the classic *fail-stop* model a disk either works perfectly or fails
//! absolutely and detectably. The paper argues modern disks instead exhibit
//! *partial* failures: individual blocks become inaccessible (latent sector
//! errors) or silently corrupted, and those faults may be permanent
//! ("sticky") or temporary ("transient"), and may or may not be spatially
//! local. This module encodes that model as data so the fault-injection
//! layer (the `iron-faultinject` crate) can enact it.

use std::fmt;

use crate::block::BlockAddr;

/// Direction of a block I/O request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoKind {
    /// A block read.
    Read,
    /// A block write.
    Write,
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoKind::Read => "read",
            IoKind::Write => "write",
        })
    }
}

/// How a fault manifests (§2.3: the three manifestations of the
/// fail-partial model).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultKind {
    /// A latent sector error on read: the request returns an explicit error
    /// code and no data.
    ReadError,
    /// A write failure: the request returns an explicit error code and the
    /// medium is not modified.
    WriteError,
    /// Silent block corruption: the read "succeeds" but returns bad data.
    /// This is the insidious case — no error code is produced.
    Corruption(CorruptionStyle),
    /// Entire-disk failure: every subsequent request fails. The classic
    /// fail-stop case, retained for completeness.
    WholeDisk,
    /// A *time-domain* fault: the request completes correctly but takes
    /// `multiplier`× its nominal service time (a degraded head, a deep
    /// internal retry loop inside the drive). No error code is produced —
    /// only a deadline check against the sim clock can see it.
    Slow {
        /// Deterministic service-time multiplier (≥ 1).
        multiplier: u32,
    },
}

impl FaultKind {
    /// Short label used in reports ("read" / "write" / "corrupt" / "disk").
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::ReadError => "read",
            FaultKind::WriteError => "write",
            FaultKind::Corruption(_) => "corrupt",
            FaultKind::WholeDisk => "disk",
            FaultKind::Slow { .. } => "slow",
        }
    }

    /// Does this fault fire on the given I/O direction?
    ///
    /// Read errors and corruption manifest on reads; write errors on writes;
    /// whole-disk failures and latency faults on both.
    pub fn applies_to(&self, io: IoKind) -> bool {
        match self {
            FaultKind::ReadError | FaultKind::Corruption(_) => io == IoKind::Read,
            FaultKind::WriteError => io == IoKind::Write,
            FaultKind::WholeDisk | FaultKind::Slow { .. } => true,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ReadError => write!(f, "read failure"),
            FaultKind::WriteError => write!(f, "write failure"),
            FaultKind::Corruption(style) => write!(f, "corruption ({style})"),
            FaultKind::WholeDisk => write!(f, "whole-disk failure"),
            FaultKind::Slow { multiplier } => write!(f, "slow ({multiplier}× service time)"),
        }
    }
}

/// How corrupted data is fabricated (§4.2: "in some cases we inject random
/// noise, whereas in other cases we use a block similar to the expected one
/// but with one or more corrupted fields").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CorruptionStyle {
    /// Replace the block with pseudo-random noise (fails magic/type checks).
    RandomNoise,
    /// Zero the block (a common manifestation of lost writes).
    Zeroed,
    /// Flip a burst of bits starting at the given byte offset ("bit rot").
    BitFlip {
        /// Byte offset of the first flipped byte within the block.
        offset: usize,
        /// Number of consecutive bytes whose bits are inverted.
        len: usize,
    },
    /// Overwrite a single little-endian 32-bit field at `offset` with
    /// `value`. This models a *plausible but wrong* block — the kind that
    /// passes magic-number sanity checks and is therefore the paper's
    /// strongest argument for checksums (§5.6).
    Field {
        /// Byte offset of the 32-bit field to overwrite.
        offset: usize,
        /// The bogus value written into the field.
        value: u32,
    },
    /// Replace the block with the contents of a *different* valid block of
    /// the same type, modeling a misdirected write landing here. Like
    /// `Field`, this passes type/sanity checks.
    MisdirectedFrom(BlockAddr),
}

impl fmt::Display for CorruptionStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionStyle::RandomNoise => write!(f, "random noise"),
            CorruptionStyle::Zeroed => write!(f, "zeroed"),
            CorruptionStyle::BitFlip { offset, len } => {
                write!(f, "bit flip @{offset}+{len}")
            }
            CorruptionStyle::Field { offset, value } => {
                write!(f, "field @{offset} := {value:#x}")
            }
            CorruptionStyle::MisdirectedFrom(a) => write!(f, "misdirected from {a}"),
        }
    }
}

/// Whether a fault is permanent or clears after some number of occurrences
/// (§2.3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Transience {
    /// The fault persists for every matching request ("sticky").
    Sticky,
    /// The fault fires for the first `n` matching requests, then clears.
    /// `Transient(1)` models the paper's canonical retry-able fault.
    Transient(u32),
}

impl Transience {
    /// True if a fault with this transience should still fire after having
    /// already fired `prior` times.
    pub fn fires(&self, prior: u32) -> bool {
        match self {
            Transience::Sticky => true,
            Transience::Transient(n) => prior < *n,
        }
    }
}

impl fmt::Display for Transience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transience::Sticky => write!(f, "sticky"),
            Transience::Transient(n) => write!(f, "transient×{n}"),
        }
    }
}

/// Spatial extent of a fault (§2.3.2).
///
/// Media scratches render *contiguous* runs of blocks inaccessible, while a
/// misdirected write corrupts a single block. Fault specifications carry a
/// locality so injected faults can model either.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Locality {
    /// A single block.
    Single,
    /// A contiguous run of `len` blocks starting at the target ("scratch").
    Contiguous {
        /// Number of consecutive blocks covered by the fault.
        len: u64,
    },
}

impl Locality {
    /// Does a fault anchored at `anchor` with this locality cover `addr`?
    pub fn covers(&self, anchor: BlockAddr, addr: BlockAddr) -> bool {
        match self {
            Locality::Single => anchor == addr,
            Locality::Contiguous { len } => addr.0 >= anchor.0 && addr.0 < anchor.0 + len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_kind_applies_to_direction() {
        assert!(FaultKind::ReadError.applies_to(IoKind::Read));
        assert!(!FaultKind::ReadError.applies_to(IoKind::Write));
        assert!(FaultKind::WriteError.applies_to(IoKind::Write));
        assert!(!FaultKind::WriteError.applies_to(IoKind::Read));
        assert!(FaultKind::Corruption(CorruptionStyle::Zeroed).applies_to(IoKind::Read));
        assert!(FaultKind::WholeDisk.applies_to(IoKind::Read));
        assert!(FaultKind::WholeDisk.applies_to(IoKind::Write));
        assert!(FaultKind::Slow { multiplier: 8 }.applies_to(IoKind::Read));
        assert!(FaultKind::Slow { multiplier: 8 }.applies_to(IoKind::Write));
    }

    #[test]
    fn transience_counts_down() {
        assert!(Transience::Sticky.fires(0));
        assert!(Transience::Sticky.fires(1_000_000));
        let t = Transience::Transient(2);
        assert!(t.fires(0));
        assert!(t.fires(1));
        assert!(!t.fires(2));
    }

    #[test]
    fn locality_coverage() {
        let anchor = BlockAddr(10);
        assert!(Locality::Single.covers(anchor, BlockAddr(10)));
        assert!(!Locality::Single.covers(anchor, BlockAddr(11)));
        let scratch = Locality::Contiguous { len: 4 };
        assert!(scratch.covers(anchor, BlockAddr(10)));
        assert!(scratch.covers(anchor, BlockAddr(13)));
        assert!(!scratch.covers(anchor, BlockAddr(14)));
        assert!(!scratch.covers(anchor, BlockAddr(9)));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::ReadError.label(), "read");
        assert_eq!(FaultKind::WriteError.label(), "write");
        assert_eq!(
            FaultKind::Corruption(CorruptionStyle::RandomNoise).label(),
            "corrupt"
        );
        assert_eq!(FaultKind::Slow { multiplier: 4 }.label(), "slow");
        assert_eq!(
            format!("{}", FaultKind::Slow { multiplier: 4 }),
            "slow (4× service time)"
        );
        assert_eq!(format!("{}", IoKind::Read), "read");
        assert_eq!(format!("{}", Transience::Transient(1)), "transient×1");
    }
}
