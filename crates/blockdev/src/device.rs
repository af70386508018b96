//! The [`BlockDevice`] trait and device-level errors.

use std::fmt;
use std::sync::Arc;

use iron_core::{Block, BlockAddr, BlockTag, IoKind};

use crate::page::Page;

/// Errors a block device can return to the layer above.
///
/// These are the *explicit* error codes of the fail-partial model — the ones
/// a file system can notice via `DErrorCode`. Silent corruption, by
/// definition, does not produce a `DiskError`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskError {
    /// A block-level I/O failure (latent sector error / failed write).
    Io {
        /// The failed block.
        addr: BlockAddr,
        /// Whether the failure happened on a read or a write.
        kind: IoKind,
    },
    /// Address beyond the end of the device.
    OutOfRange {
        /// The offending address.
        addr: BlockAddr,
    },
    /// The whole device has failed (classic fail-stop).
    DeviceFailed,
    /// The request exceeded its I/O deadline (sim-clock time). Produced
    /// by a deadline-checking layer (e.g. `RetryLayer`), never by the
    /// medium itself: it turns time-domain faults (slow/hung disks) into
    /// an explicit, detectable error class.
    Timeout {
        /// The block whose request timed out.
        addr: BlockAddr,
        /// Whether the timed-out request was a read or a write.
        kind: IoKind,
    },
}

impl fmt::Display for DiskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskError::Io { addr, kind } => write!(f, "I/O error: {kind} of block {addr} failed"),
            DiskError::OutOfRange { addr } => write!(f, "block {addr} out of range"),
            DiskError::DeviceFailed => write!(f, "device failed"),
            DiskError::Timeout { addr, kind } => {
                write!(f, "I/O deadline exceeded: {kind} of block {addr}")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// Result alias for device operations.
pub type DiskResult<T> = Result<T, DiskError>;

/// A block device as seen by a file system: fixed-size blocks, explicit
/// error codes, typed I/O, and an ordering barrier.
pub trait BlockDevice {
    /// Total number of blocks.
    fn num_blocks(&self) -> u64;

    /// Read one block, tagging the request with the block type the caller
    /// believes it is reading. The tag has **no semantic effect** on a
    /// healthy device; the fault-injection layer uses it for type-aware
    /// targeting, and the trace records it.
    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block>;

    /// Write one block, tagged (see [`Self::read_tagged`]).
    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()>;

    /// [`Self::read_tagged`], as a shared page — the read a layer issues
    /// to the one below it, and the read a checksumming file system
    /// issues, since the page carries its digest. The default wraps what
    /// `read_tagged` returned in a fresh page, so a layer that does not
    /// override it is correct by construction. A layer overrides it to
    /// forward the page it got, or to hand out the one it holds, when the
    /// bytes it returns are that page's.
    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        self.read_tagged(addr, tag).map(|b| Page::new(&b))
    }

    /// [`Self::write_tagged`] of a shared page. The default writes a copy
    /// of its bytes; a layer overrides it to pass the page itself down, or
    /// to keep it.
    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        self.write_tagged(addr, &page.to_block(), tag)
    }

    /// Untyped read (tag [`BlockTag::UNTYPED`]).
    fn read(&mut self, addr: BlockAddr) -> DiskResult<Block> {
        self.read_tagged(addr, BlockTag::UNTYPED)
    }

    /// Untyped write (tag [`BlockTag::UNTYPED`]).
    fn write(&mut self, addr: BlockAddr, block: &Block) -> DiskResult<()> {
        self.write_tagged(addr, block, BlockTag::UNTYPED)
    }

    /// Ordering barrier: all previously issued writes are on the medium
    /// before any later write is started.
    ///
    /// On the simulated disk this charges the rotational delay a real drive
    /// pays when a dependent write misses its angular slot — the cost that
    /// the paper's transactional checksums eliminate for journal commits.
    fn barrier(&mut self) -> DiskResult<()>;

    /// Durability flush: everything previously issued is on the medium
    /// *and* will survive a crash / power loss. A barrier only orders; a
    /// flush seals. The method is deliberately **required** (no default
    /// forwarding to [`Self::barrier`]): an intermediate layer that
    /// silently downgraded flush to barrier would forfeit durability for
    /// the whole stack above it — the exact conflation the crash-state
    /// enumerator exists to catch — so every implementation must state
    /// its flush semantics explicitly.
    fn flush(&mut self) -> DiskResult<()>;

    /// Readahead hint: the caller is about to read `[start, start + len)`
    /// in ascending order (a sequential scan — journal replay, an fsck
    /// region pass, a scrub sweep). Purely advisory: it moves **no data**,
    /// triggers no faults, and appears in no trace, so layered semantics
    /// are bit-identical with or without it. A device with a timing model
    /// may use it the way drive firmware uses its readahead buffer — keep
    /// streaming across track boundaries instead of paying a positioning
    /// charge per track (see `MemDisk`). Intermediate layers forward the
    /// hint down the stack; the default drops it (hints are droppable by
    /// definition).
    fn readahead(&mut self, start: BlockAddr, len: u64) {
        let _ = (start, len);
    }
}

/// Untimed, untraced access to the raw medium.
///
/// This is the harness's side channel: the gray-box block classifier walks
/// the image through `peek`, the corruption injector fabricates bad blocks
/// from real contents, and tests inspect the medium directly. It deliberately
/// bypasses the timing model and the fault plan.
pub trait RawAccess {
    /// Read the raw contents of a block (no timing, no faults, no trace).
    fn peek(&self, addr: BlockAddr) -> Block;

    /// Overwrite the raw contents of a block (no timing, no faults, no
    /// trace).
    fn poke(&mut self, addr: BlockAddr, block: &Block);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_error_display() {
        let e = DiskError::Io {
            addr: BlockAddr(9),
            kind: IoKind::Read,
        };
        assert_eq!(e.to_string(), "I/O error: read of block #9 failed");
        assert_eq!(
            DiskError::OutOfRange { addr: BlockAddr(5) }.to_string(),
            "block #5 out of range"
        );
        assert_eq!(DiskError::DeviceFailed.to_string(), "device failed");
        assert_eq!(
            DiskError::Timeout {
                addr: BlockAddr(2),
                kind: IoKind::Write
            }
            .to_string(),
            "I/O deadline exceeded: write of block #2"
        );
    }
}
