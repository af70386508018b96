//! [`CrashRecorder`]: records the write stream with barrier/flush epoch
//! boundaries, for block-layer crash-state enumeration.
//!
//! The paper's fail-partial model says what is on the medium after a crash
//! is *some* barrier-respecting subset of the writes the file system
//! issued: the drive's volatile write cache may hold any suffix of the
//! stream, reordered freely between ordering points. This layer captures
//! everything needed to reconstruct those states:
//!
//! * every write, in issue order, with its payload and block-type tag;
//! * **barrier epochs**: [`BlockDevice::barrier`] seals the current epoch
//!   (ordering only — nothing about durability);
//! * **flush marks**: [`BlockDevice::flush`] seals the epoch *and* records
//!   that every earlier epoch is durably on the medium — a crash can no
//!   longer lose them.
//!
//! A crash image is then "all epochs before some cut, plus any subset of
//! the cut epoch's writes" — `iron-crash` enumerates these and checks the
//! recovery path against each. The recorder itself is transparent: all
//! requests forward to the inner device unchanged, and `peek`/`poke` (the
//! harness side channel) are deliberately not recorded.

use std::sync::{Arc, Mutex};

use iron_core::{Block, BlockAddr, BlockTag};

use crate::device::{BlockDevice, DiskResult, RawAccess};
use crate::page::Page;

/// One recorded write.
#[derive(Clone, Debug)]
pub struct WriteRecord {
    /// Issue-order sequence number (0-based, dense).
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

#[derive(Default)]
struct LogInner {
    records: Vec<WriteRecord>,
    /// Current (open) epoch index.
    epoch: u64,
    /// True once the current epoch holds a write — an empty epoch is never
    /// sealed, matching the buffer cache's epoch accounting.
    epoch_open: bool,
    /// For each completed flush, the first epoch index *not* covered by
    /// it: every epoch `< mark` was durable on the medium at that point.
    flush_marks: Vec<u64>,
}

/// An immutable copy of a [`WriteLog`] taken at one instant — what the
/// enumerator works from.
#[derive(Clone, Default)]
pub struct WriteLogSnapshot {
    /// Every recorded write, in issue order.
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
}

/// A shareable write log; cloning shares the underlying log (like
/// [`crate::IoTrace`]).
#[derive(Clone, Default)]
pub struct WriteLog {
    inner: Arc<Mutex<LogInner>>,
}

impl WriteLog {
    /// A new, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn record_write(&self, addr: BlockAddr, data: Block, tag: BlockTag) {
        let mut g = self.inner.lock().unwrap();
        let seq = g.records.len() as u64;
        let epoch = g.epoch;
        g.records.push(WriteRecord {
            seq,
            epoch,
            addr,
            data,
            tag,
        });
        g.epoch_open = true;
    }

    fn seal_epoch(g: &mut LogInner) {
        if g.epoch_open {
            g.epoch += 1;
            g.epoch_open = false;
        }
    }

    fn record_barrier(&self) {
        Self::seal_epoch(&mut self.inner.lock().unwrap());
    }

    fn record_flush(&self) {
        let mut g = self.inner.lock().unwrap();
        Self::seal_epoch(&mut g);
        let mark = g.epoch;
        g.flush_marks.push(mark);
    }

    /// Number of writes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of flushes recorded so far (cheap — no record copying).
    pub fn flush_count(&self) -> usize {
        self.inner.lock().unwrap().flush_marks.len()
    }

    /// Copy out the full log state.
    pub fn snapshot(&self) -> WriteLogSnapshot {
        let g = self.inner.lock().unwrap();
        WriteLogSnapshot {
            records: g.records.clone(),
            flush_marks: g.flush_marks.clone(),
        }
    }

    /// Discard everything (epoch counter included).
    pub fn clear(&self) {
        *self.inner.lock().unwrap() = LogInner::default();
    }
}

/// A transparent layer that records the write stream crossing it into a
/// [`WriteLog`]. Place it directly above the medium whose crash states
/// are to be enumerated.
pub struct CrashRecorder<D> {
    inner: D,
    log: WriteLog,
}

impl<D: BlockDevice> CrashRecorder<D> {
    /// Wrap `inner` with a fresh log.
    pub fn new(inner: D) -> Self {
        Self::with_log(inner, WriteLog::new())
    }

    /// Wrap `inner`, recording into an existing (shared) log.
    pub fn with_log(inner: D, log: WriteLog) -> Self {
        CrashRecorder { inner, log }
    }

    /// The shared log handle.
    pub fn log(&self) -> WriteLog {
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
}

impl<D: BlockDevice> BlockDevice for CrashRecorder<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.inner.read_tagged(addr, tag)
    }

    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        self.inner.read_page(addr, tag)
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        // Record only writes that reached the device below: a failed write
        // never lands on the medium, so it is not a crash-state candidate.
        self.inner.write_tagged(addr, block, tag)?;
        self.log.record_write(addr, block.clone(), tag);
        Ok(())
    }

    /// The page goes down as it is; the log keeps a copy of its bytes.
    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        self.inner.write_page(addr, page, tag)?;
        self.log.record_write(addr, page.to_block(), tag);
        Ok(())
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.inner.barrier()?;
        self.log.record_barrier();
        Ok(())
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.inner.flush()?;
        self.log.record_flush();
        Ok(())
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // Hints move no data, so there is nothing to record.
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for CrashRecorder<D> {
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

    fn w(d: &mut CrashRecorder<MemDisk>, addr: u64, fill: u8) {
        d.write(BlockAddr(addr), &Block::filled(fill)).unwrap();
    }

    #[test]
    fn records_writes_with_epochs_and_flush_marks() {
        let mut d = CrashRecorder::new(MemDisk::for_tests(16));
        let log = d.log();
        w(&mut d, 1, 1);
        w(&mut d, 2, 2);
        d.barrier().unwrap();
        w(&mut d, 3, 3);
        d.flush().unwrap();
        w(&mut d, 4, 4);

        let s = log.snapshot();
        assert_eq!(s.records.len(), 4);
        assert_eq!(
            s.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 0, 1, 2]
        );
        assert_eq!(s.epoch_count(), 3);
        assert_eq!(s.flush_marks, vec![2], "epochs 0 and 1 sealed durable");
        assert_eq!(s.epoch_records(0).len(), 2);
        assert_eq!(s.epoch_records(2)[0].addr, BlockAddr(4));
    }

    #[test]
    fn empty_epochs_are_never_sealed() {
        let mut d = CrashRecorder::new(MemDisk::for_tests(16));
        let log = d.log();
        d.barrier().unwrap();
        d.barrier().unwrap();
        d.flush().unwrap();
        w(&mut d, 1, 1);
        d.barrier().unwrap();
        d.barrier().unwrap();
        w(&mut d, 2, 2);
        let s = log.snapshot();
        assert_eq!(
            s.records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(s.flush_marks, vec![0], "flush before any write marks 0");
    }

    #[test]
    fn recorder_is_transparent_and_ignores_raw_access() {
        let mut d = CrashRecorder::new(MemDisk::for_tests(16));
        let log = d.log();
        d.poke(BlockAddr(5), &Block::filled(9));
        assert_eq!(d.peek(BlockAddr(5)), Block::filled(9));
        assert_eq!(d.read(BlockAddr(5)).unwrap(), Block::filled(9));
        assert!(log.is_empty(), "peek/poke/read are not crash candidates");
        w(&mut d, 5, 7);
        assert_eq!(d.inner().peek(BlockAddr(5)), Block::filled(7));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn failed_writes_are_not_recorded() {
        let mut d = CrashRecorder::new(MemDisk::for_tests(4));
        let log = d.log();
        assert!(d.write(BlockAddr(99), &Block::zeroed()).is_err());
        assert!(log.is_empty());
    }
}
