//! Low-level I/O traces.
//!
//! §4.3: failure-policy inference compares "the low-level I/O traces
//! recorded by the fault-injection layer" between fault-free and faulty
//! runs. Traces are how the inference engine sees retries (the same address
//! re-requested), redundancy (a replica address read after a primary
//! failure), and remapping (a write redirected elsewhere).
//!
//! Two recorders write an [`IoTrace`], each where it has a reader: the
//! fault-injection layer (`iron_faultinject::FaultyDisk`, which alone
//! knows a request was [`IoOutcome::SilentlyCorrupted`]) and the opt-in
//! [`TraceLayer`] here. The medium itself ([`crate::MemDisk`]) records
//! nothing.

use std::fmt;
use std::sync::{Arc, Mutex};

use iron_core::{Block, BlockAddr, BlockTag, IoKind};

use crate::device::{BlockDevice, DiskResult, RawAccess};
use crate::page::Page;

/// How a traced request completed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoOutcome {
    /// Completed normally.
    Ok,
    /// Failed with an explicit error code.
    Error,
    /// Completed "normally" but returned corrupted data (only the injector
    /// knows this; the file system sees `Ok`).
    SilentlyCorrupted,
}

/// One traced block request.
#[derive(Clone, Debug)]
pub struct IoEvent {
    /// Monotonic sequence number within the trace.
    pub seq: u64,
    /// Read or write.
    pub kind: IoKind,
    /// Block address.
    pub addr: BlockAddr,
    /// The block-type tag the file system attached.
    pub tag: BlockTag,
    /// Completion status.
    pub outcome: IoOutcome,
}

impl fmt::Display for IoEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>6} {:>5} {:<10} {:<12} {:?}",
            self.seq,
            self.kind,
            self.addr.to_string(),
            self.tag,
            self.outcome
        )
    }
}

/// A shareable, append-only I/O trace. Cloning shares the underlying trace.
#[derive(Clone, Debug, Default)]
pub struct IoTrace {
    events: Arc<Mutex<Vec<IoEvent>>>,
}

impl IoTrace {
    /// A new, empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an event, assigning it the next sequence number.
    pub fn record(&self, kind: IoKind, addr: BlockAddr, tag: BlockTag, outcome: IoOutcome) {
        let mut events = self.events.lock().unwrap();
        let seq = events.len() as u64;
        events.push(IoEvent {
            seq,
            kind,
            addr,
            tag,
            outcome,
        });
    }

    /// Number of events so far (usable as a mark for [`Self::since`]).
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// True if nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all events.
    pub fn events(&self) -> Vec<IoEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Snapshot of events appended after `mark` (a previous `len()`).
    pub fn since(&self, mark: usize) -> Vec<IoEvent> {
        let guard = self.events.lock().unwrap();
        guard
            .get(mark..)
            .map(<[IoEvent]>::to_vec)
            .unwrap_or_default()
    }

    /// Discard everything.
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
    }

    /// Count of requests to `addr` with the given kind.
    pub fn count_requests(&self, addr: BlockAddr, kind: IoKind) -> usize {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.addr == addr && e.kind == kind)
            .count()
    }

    /// Addresses read after the first failed request, in order — the raw
    /// material for detecting `RRetry`/`RRedundancy` in inference.
    pub fn reads_after_first_error(&self) -> Vec<BlockAddr> {
        let guard = self.events.lock().unwrap();
        let Some(fail_pos) = guard.iter().position(|e| e.outcome == IoOutcome::Error) else {
            return Vec::new();
        };
        guard[fail_pos + 1..]
            .iter()
            .filter(|e| e.kind == IoKind::Read)
            .map(|e| e.addr)
            .collect()
    }
}

/// A transparent tracing shim: forwards every request to the inner device
/// and records it (with its outcome) in an [`IoTrace`].
///
/// The fault-injection layer keeps its own trace; this layer exists so a
/// trace can be taken at *any* point of a built stack — most usefully
/// **below the buffer cache**, where it records exactly the destaged
/// traffic the medium observes (the barrier-ordering differential tests
/// are built on this).
pub struct TraceLayer<D> {
    inner: D,
    trace: IoTrace,
}

impl<D: BlockDevice> TraceLayer<D> {
    /// Wrap `inner` with a fresh trace.
    pub fn new(inner: D) -> Self {
        Self::with_trace(inner, IoTrace::new())
    }

    /// Wrap `inner`, recording into an existing (shared) trace.
    pub fn with_trace(inner: D, trace: IoTrace) -> Self {
        TraceLayer { inner, trace }
    }

    /// The shared trace handle.
    pub fn trace(&self) -> IoTrace {
        self.trace.clone()
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap the inner device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Record a forwarded request with its outcome, and hand it back.
    fn record<T>(
        &self,
        kind: IoKind,
        addr: BlockAddr,
        tag: BlockTag,
        r: DiskResult<T>,
    ) -> DiskResult<T> {
        let outcome = if r.is_ok() {
            IoOutcome::Ok
        } else {
            IoOutcome::Error
        };
        self.trace.record(kind, addr, tag, outcome);
        r
    }
}

impl<D: BlockDevice> BlockDevice for TraceLayer<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        let r = self.inner.read_tagged(addr, tag);
        self.record(IoKind::Read, addr, tag, r)
    }

    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        let r = self.inner.read_page(addr, tag);
        self.record(IoKind::Read, addr, tag, r)
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        let r = self.inner.write_tagged(addr, block, tag);
        self.record(IoKind::Write, addr, tag, r)
    }

    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        let r = self.inner.write_page(addr, page, tag);
        self.record(IoKind::Write, addr, tag, r)
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.inner.barrier()
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.inner.flush()
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // A hint moves no data and is not a traced event.
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for TraceLayer<D> {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.inner.peek(addr)
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: &IoTrace, kind: IoKind, addr: u64, outcome: IoOutcome) {
        trace.record(kind, BlockAddr(addr), BlockTag("t"), outcome);
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let t = IoTrace::new();
        ev(&t, IoKind::Read, 1, IoOutcome::Ok);
        ev(&t, IoKind::Write, 2, IoOutcome::Error);
        let events = t.events();
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
    }

    #[test]
    fn count_requests_filters_by_addr_and_kind() {
        let t = IoTrace::new();
        ev(&t, IoKind::Read, 5, IoOutcome::Error);
        ev(&t, IoKind::Read, 5, IoOutcome::Ok);
        ev(&t, IoKind::Write, 5, IoOutcome::Ok);
        ev(&t, IoKind::Read, 6, IoOutcome::Ok);
        assert_eq!(t.count_requests(BlockAddr(5), IoKind::Read), 2);
        assert_eq!(t.count_requests(BlockAddr(5), IoKind::Write), 1);
        assert_eq!(t.count_requests(BlockAddr(7), IoKind::Read), 0);
    }

    #[test]
    fn reads_after_first_error() {
        let t = IoTrace::new();
        ev(&t, IoKind::Read, 1, IoOutcome::Ok);
        ev(&t, IoKind::Read, 2, IoOutcome::Error);
        ev(&t, IoKind::Read, 2, IoOutcome::Error); // retry
        ev(&t, IoKind::Read, 9, IoOutcome::Ok); // replica
        ev(&t, IoKind::Write, 3, IoOutcome::Ok);
        assert_eq!(
            t.reads_after_first_error(),
            vec![BlockAddr(2), BlockAddr(9)]
        );
    }

    #[test]
    fn no_error_means_no_post_error_reads() {
        let t = IoTrace::new();
        ev(&t, IoKind::Read, 1, IoOutcome::Ok);
        assert!(t.reads_after_first_error().is_empty());
    }

    #[test]
    fn since_and_clear() {
        let t = IoTrace::new();
        ev(&t, IoKind::Read, 1, IoOutcome::Ok);
        let mark = t.len();
        ev(&t, IoKind::Read, 2, IoOutcome::Ok);
        assert_eq!(t.since(mark).len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn trace_layer_records_forwarded_requests() {
        let mut d = TraceLayer::new(crate::MemDisk::for_tests(8));
        let trace = d.trace();
        d.write_tagged(BlockAddr(1), &Block::filled(1), BlockTag("data"))
            .unwrap();
        d.read_tagged(BlockAddr(1), BlockTag("data")).unwrap();
        assert!(d.read(BlockAddr(99)).is_err());
        let events = trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, IoKind::Write);
        assert_eq!(events[0].outcome, IoOutcome::Ok);
        assert_eq!(events[1].kind, IoKind::Read);
        assert_eq!(events[2].outcome, IoOutcome::Error);
        // The medium was really written.
        assert_eq!(d.peek(BlockAddr(1)), Block::filled(1));
    }
}
