//! The I/O log: one record per request that crossed a recording point,
//! and the two views the workspace reads off it.
//!
//! §4.3: failure-policy inference compares "the low-level I/O traces
//! recorded by the fault-injection layer" between fault-free and faulty
//! runs. Traces are how the inference engine sees retries (the same
//! address re-requested), redundancy (a replica address read after a
//! primary failure), and remapping (a write redirected elsewhere). Crash
//! enumeration reads the same stream another way: the writes that reached
//! the device, cut into barrier epochs, with the flushes that made
//! earlier epochs durable.
//!
//! An [`IoLog`] keeps the stream once — reads, writes, barriers and
//! flushes in issue order, each with its outcome — and derives both:
//!
//! * **the §4.3 trace** ([`IoLog::events`], [`IoLog::len`],
//!   [`IoLog::since`]): the reads and writes as [`IoEvent`]s, numbered
//!   densely in that view, so a mark taken with `len` stays valid however
//!   many barriers and flushes were recorded around it;
//! * **the crash view** ([`IoLog::snapshot`]): a [`WriteLogSnapshot`] of
//!   the writes that reached the device, each in its barrier epoch, plus
//!   the flush marks.
//!
//! Two devices write a log: the opt-in [`Recorder`] here, which can sit
//! at any point of a stack and keeps each write's payload, and the
//! fault-injection layer (`iron_faultinject::FaultyDisk`), which alone
//! knows a read was [`IoOutcome::SilentlyCorrupted`] and keeps no
//! payloads. The medium itself ([`crate::MemDisk`]) records nothing, and
//! neither `peek`/`poke` (the harness side channel) nor a readahead hint
//! is a recorded request.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use iron_core::{Block, BlockAddr, BlockTag, IoKind};

use crate::device::{BlockDevice, DiskResult, RawAccess};
use crate::page::Page;

/// How a recorded request completed.
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

impl IoOutcome {
    /// `Ok` or `Error`, as the device below answered.
    pub fn of<T>(r: &DiskResult<T>) -> Self {
        if r.is_ok() {
            IoOutcome::Ok
        } else {
            IoOutcome::Error
        }
    }
}

/// What a recorded request asked of the device.
#[derive(Clone, Debug)]
pub enum IoOp {
    /// A block read.
    Read {
        /// Block address.
        addr: BlockAddr,
        /// The block-type tag the file system attached.
        tag: BlockTag,
    },
    /// A block write.
    Write {
        /// Block address.
        addr: BlockAddr,
        /// The block-type tag the file system attached.
        tag: BlockTag,
        /// The bytes written, when the recorder keeps them (a
        /// [`Recorder`] does; the fault-injection layer does not).
        data: Option<Block>,
    },
    /// An ordering barrier.
    Barrier,
    /// A durability flush.
    Flush,
}

/// One recorded request and how it completed.
#[derive(Clone, Debug)]
pub struct IoRecord {
    /// The request.
    pub op: IoOp,
    /// Its completion status.
    pub outcome: IoOutcome,
}

impl IoRecord {
    /// The read or write this record holds, as `(kind, addr, tag)`.
    fn transfer(&self) -> Option<(IoKind, BlockAddr, BlockTag)> {
        match self.op {
            IoOp::Read { addr, tag } => Some((IoKind::Read, addr, tag)),
            IoOp::Write { addr, tag, .. } => Some((IoKind::Write, addr, tag)),
            IoOp::Barrier | IoOp::Flush => None,
        }
    }
}

/// One read or write of the §4.3 trace view.
#[derive(Clone, Debug)]
pub struct IoEvent {
    /// Position in the trace view (reads and writes only, dense).
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

/// One write of the crash view.
#[derive(Clone, Debug)]
pub struct WriteRecord {
    /// Index among the crash view's writes (0-based, dense).
    pub seq: u64,
    /// Barrier epoch the write belongs to.
    pub epoch: u64,
    /// Target block.
    pub addr: BlockAddr,
    /// Payload as issued.
    pub data: Block,
    /// The block-type tag the file system attached.
    pub tag: BlockTag,
}

/// The crash view of an [`IoLog`] at one instant — what the crash-state
/// enumerator works from.
#[derive(Clone, Default)]
pub struct WriteLogSnapshot {
    /// Every write that reached the device, in issue order.
    pub records: Vec<WriteRecord>,
    /// Flush marks: each entry `m` promises epochs `0..m` were durable.
    pub flush_marks: Vec<u64>,
}

impl WriteLogSnapshot {
    /// Number of epochs that contain at least one write.
    pub fn epoch_count(&self) -> u64 {
        self.records.last().map_or(0, |r| r.epoch + 1)
    }

    /// The records of one epoch, in issue order.
    pub fn epoch_records(&self, epoch: u64) -> &[WriteRecord] {
        let lo = self.records.partition_point(|r| r.epoch < epoch);
        let hi = self.records.partition_point(|r| r.epoch <= epoch);
        &self.records[lo..hi]
    }

    /// Write onto `disk`, in issue order, every record `keep` selects, so
    /// an address ends with the last selected write to it. A crash image
    /// is the medium the log was recorded over plus such a selection.
    pub fn apply(&self, disk: &mut impl RawAccess, mut keep: impl FnMut(&WriteRecord) -> bool) {
        for r in self.records.iter().filter(|r| keep(r)) {
            disk.poke(r.addr, &r.data);
        }
    }
}

/// A shareable, append-only log of requests. Cloning shares the
/// underlying log.
#[derive(Clone, Debug, Default)]
pub struct IoLog {
    records: Arc<Mutex<Vec<IoRecord>>>,
}

impl IoLog {
    /// A new, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<IoRecord>> {
        self.records
            .lock()
            .expect("no holder of the log lock panics")
    }

    /// Append one request and its outcome.
    pub fn record(&self, op: IoOp, outcome: IoOutcome) {
        self.lock().push(IoRecord { op, outcome });
    }

    /// Every record so far, barriers and flushes included.
    pub fn records(&self) -> Vec<IoRecord> {
        self.lock().clone()
    }

    /// Reads and writes so far: a mark for [`Self::since`].
    pub fn len(&self) -> usize {
        self.lock()
            .iter()
            .filter(|r| r.transfer().is_some())
            .count()
    }

    /// True if no read or write was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The trace view: every read and write.
    pub fn events(&self) -> Vec<IoEvent> {
        self.since(0)
    }

    /// The trace view from `mark` (a previous [`Self::len`]) on.
    pub fn since(&self, mark: usize) -> Vec<IoEvent> {
        self.lock()
            .iter()
            .filter_map(|r| r.transfer().map(|t| (t, r.outcome)))
            .enumerate()
            .skip(mark)
            .map(|(seq, ((kind, addr, tag), outcome))| IoEvent {
                seq: seq as u64,
                kind,
                addr,
                tag,
                outcome,
            })
            .collect()
    }

    /// Flushes that completed so far: the crash view's flush-mark count,
    /// without copying a payload.
    pub fn flush_count(&self) -> usize {
        self.lock()
            .iter()
            .filter(|r| matches!(r.op, IoOp::Flush) && r.outcome == IoOutcome::Ok)
            .count()
    }

    /// The crash view. Only what reached the device counts: a failed
    /// write never landed, and a failed barrier or flush seals nothing. A
    /// barrier seals the current epoch and a flush seals it durable, but
    /// an epoch that holds no write is never sealed.
    ///
    /// # Panics
    ///
    /// If a completed write was recorded without its payload — the
    /// fault-injection layer's log has no crash view; record through a
    /// [`Recorder`].
    pub fn snapshot(&self) -> WriteLogSnapshot {
        let records = self.lock();
        let mut view = WriteLogSnapshot::default();
        let mut epoch = 0;
        let mut epoch_open = false;
        for r in records.iter().filter(|r| r.outcome == IoOutcome::Ok) {
            match &r.op {
                IoOp::Read { .. } => {}
                IoOp::Write { addr, tag, data } => {
                    view.records.push(WriteRecord {
                        seq: view.records.len() as u64,
                        epoch,
                        addr: *addr,
                        data: data.clone().expect("a crash view needs write payloads"),
                        tag: *tag,
                    });
                    epoch_open = true;
                }
                IoOp::Barrier | IoOp::Flush => {
                    if epoch_open {
                        epoch += 1;
                        epoch_open = false;
                    }
                    if matches!(r.op, IoOp::Flush) {
                        view.flush_marks.push(epoch);
                    }
                }
            }
        }
        view
    }
}

/// A transparent recording layer: forwards every request to the inner
/// device and records it, with its outcome and each write's payload, in
/// an [`IoLog`].
///
/// Placed directly above a medium it records what crash-state
/// enumeration reconstructs; below a buffer cache, exactly the destaged
/// traffic the medium observes; above one, what the file system issued.
pub struct Recorder<D> {
    inner: D,
    log: IoLog,
}

impl<D: BlockDevice> Recorder<D> {
    /// Wrap `inner` with a fresh log.
    pub fn new(inner: D) -> Self {
        Self::with_log(inner, IoLog::new())
    }

    /// Wrap `inner`, recording into an existing (shared) log.
    pub fn with_log(inner: D, log: IoLog) -> Self {
        Recorder { inner, log }
    }

    /// The shared log handle.
    pub fn log(&self) -> IoLog {
        self.log.clone()
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
    fn record<T>(&self, op: IoOp, r: DiskResult<T>) -> DiskResult<T> {
        self.log.record(op, IoOutcome::of(&r));
        r
    }
}

impl<D: BlockDevice> BlockDevice for Recorder<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        let r = self.inner.read_tagged(addr, tag);
        self.record(IoOp::Read { addr, tag }, r)
    }

    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        let r = self.inner.read_page(addr, tag);
        self.record(IoOp::Read { addr, tag }, r)
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        let r = self.inner.write_tagged(addr, block, tag);
        let data = Some(block.clone());
        self.record(IoOp::Write { addr, tag, data }, r)
    }

    /// The page goes down as it is; the log keeps a copy of its bytes.
    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        let r = self.inner.write_page(addr, page, tag);
        let data = Some(page.to_block());
        self.record(IoOp::Write { addr, tag, data }, r)
    }

    fn barrier(&mut self) -> DiskResult<()> {
        let r = self.inner.barrier();
        self.record(IoOp::Barrier, r)
    }

    fn flush(&mut self) -> DiskResult<()> {
        let r = self.inner.flush();
        self.record(IoOp::Flush, r)
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // A hint moves no data and is not a recorded request.
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for Recorder<D> {
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
    use crate::memdisk::MemDisk;

    fn w(d: &mut Recorder<MemDisk>, addr: u64, fill: u8) {
        d.write(BlockAddr(addr), &Block::filled(fill)).unwrap();
    }

    fn epochs(s: &WriteLogSnapshot) -> Vec<u64> {
        s.records.iter().map(|r| r.epoch).collect()
    }

    #[test]
    fn one_stream_holds_every_request_and_both_views_read_it() {
        let mut d = Recorder::new(MemDisk::for_tests(8));
        let log = d.log();
        w(&mut d, 1, 1);
        d.barrier().unwrap();
        d.read_tagged(BlockAddr(1), BlockTag("data")).unwrap();
        assert!(d.read(BlockAddr(99)).is_err());
        d.flush().unwrap();

        let ops: Vec<&str> = log
            .records()
            .iter()
            .map(|r| match r.op {
                IoOp::Read { .. } => "read",
                IoOp::Write { .. } => "write",
                IoOp::Barrier => "barrier",
                IoOp::Flush => "flush",
            })
            .collect();
        assert_eq!(ops, ["write", "barrier", "read", "read", "flush"]);

        let events = log.events();
        assert_eq!(log.len(), 3, "the trace view holds reads and writes");
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [0, 1, 2],
            "numbered densely in that view"
        );
        assert_eq!(events[0].kind, IoKind::Write);
        assert_eq!(events[1].tag, BlockTag("data"));
        assert_eq!(events[2].outcome, IoOutcome::Error);
        assert_eq!(log.since(2).len(), 1);
        assert!(log.since(9).is_empty());

        let s = log.snapshot();
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].data, Block::filled(1));
        assert_eq!(s.flush_marks, vec![1]);
        assert_eq!(d.peek(BlockAddr(1)), Block::filled(1), "medium written");
    }

    #[test]
    fn barriers_seal_epochs_and_flushes_mark_them_durable() {
        let mut d = Recorder::new(MemDisk::for_tests(16));
        let log = d.log();
        w(&mut d, 1, 1);
        w(&mut d, 2, 2);
        d.barrier().unwrap();
        w(&mut d, 3, 3);
        d.flush().unwrap();
        w(&mut d, 4, 4);

        let s = log.snapshot();
        assert_eq!(epochs(&s), vec![0, 0, 1, 2]);
        assert_eq!(s.epoch_count(), 3);
        assert_eq!(s.flush_marks, vec![2], "epochs 0 and 1 sealed durable");
        assert_eq!(log.flush_count(), 1);
        assert_eq!(s.epoch_records(0).len(), 2);
        assert_eq!(s.epoch_records(2)[0].addr, BlockAddr(4));
    }

    #[test]
    fn empty_epochs_are_never_sealed() {
        let mut d = Recorder::new(MemDisk::for_tests(16));
        let log = d.log();
        d.barrier().unwrap();
        d.barrier().unwrap();
        d.flush().unwrap();
        w(&mut d, 1, 1);
        d.barrier().unwrap();
        d.barrier().unwrap();
        w(&mut d, 2, 2);
        let s = log.snapshot();
        assert_eq!(epochs(&s), vec![0, 1]);
        assert_eq!(s.flush_marks, vec![0], "flush before any write marks 0");
    }

    #[test]
    fn only_what_reached_the_device_counts_in_the_crash_view() {
        let mut d = Recorder::new(MemDisk::for_tests(4));
        let log = d.log();
        w(&mut d, 1, 1);
        assert!(d.write(BlockAddr(99), &Block::zeroed()).is_err());
        log.record(IoOp::Barrier, IoOutcome::Error);
        log.record(IoOp::Flush, IoOutcome::Error);
        w(&mut d, 2, 2);
        let s = log.snapshot();
        assert_eq!(
            s.records
                .iter()
                .map(|r| (r.seq, r.addr.0))
                .collect::<Vec<_>>(),
            [(0, 1), (1, 2)],
            "the failed write takes no seq"
        );
        assert_eq!(epochs(&s), vec![0, 0], "a failed barrier seals nothing");
        assert!(s.flush_marks.is_empty(), "a failed flush marks nothing");
        assert_eq!(log.flush_count(), 0);
        assert_eq!(log.len(), 3, "the trace view keeps the failed write");
    }

    #[test]
    fn raw_access_and_hints_are_not_requests() {
        let mut d = Recorder::new(MemDisk::for_tests(16));
        let log = d.log();
        d.poke(BlockAddr(5), &Block::filled(9));
        assert_eq!(d.peek(BlockAddr(5)), Block::filled(9));
        d.readahead(BlockAddr(0), 8);
        assert!(log.records().is_empty());
        w(&mut d, 5, 7);
        assert_eq!(d.inner().peek(BlockAddr(5)), Block::filled(7));
        assert_eq!(log.len(), 1);
    }
}
