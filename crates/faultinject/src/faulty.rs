//! [`FaultyDisk`]: the pseudo-device driver that enacts a [`FaultPlan`].

use std::sync::Arc;

use iron_blockdev::{BlockDevice, DiskError, DiskResult, IoLog, IoOp, IoOutcome, Page, RawAccess};
use iron_core::hash::xorshift64;
use iron_core::model::CorruptionStyle;
use iron_core::{Block, BlockAddr, BlockTag, FaultKind, IoKind, SimClock, BLOCK_SIZE};

use crate::plan::{FaultController, FaultPlan};

/// Floor on the nominal service time used when enacting a
/// [`FaultKind::Slow`] fault: an instant-geometry disk charges ~0 ns per
/// request, so the multiplier is applied to at least this much (0.1 sim
/// ms) to keep slowness observable on any stack.
pub const SLOW_NOMINAL_NS: u64 = 100_000;

/// Sim time charged by a [`FaultKind::Hang`] fault: the request
/// "completes", but only after 30 simulated seconds — far past any
/// reasonable I/O deadline. A stack without deadlines stalls (in sim
/// time); one with deadlines sees a timeout.
pub const HANG_STALL_NS: u64 = 30_000_000_000;

/// A block device that injects faults per a shared [`FaultPlan`].
///
/// Wraps any inner device; healthy requests pass through (and are charged
/// the inner device's service time). Injected read/write failures return the
/// appropriate [`DiskError`] *without* touching the medium — matching §4.2:
/// "To emulate a block failure, we simply return the appropriate error code
/// and do not issue the operation to the underlying disk." Corruption is
/// applied to data read from the medium before returning it.
pub struct FaultyDisk<D> {
    inner: D,
    plan: FaultPlan,
    log: IoLog,
    /// Seed for deterministic noise fabrication.
    noise_seed: u64,
    /// Clock used to enact latency faults (`Slow`/`Hang`). When absent,
    /// latency faults pass the request through without charging time.
    clock: Option<SimClock>,
}

impl<D: BlockDevice + RawAccess> FaultyDisk<D> {
    /// Wrap `inner` with a fresh (empty) fault plan.
    pub fn new(inner: D) -> Self {
        FaultyDisk {
            inner,
            plan: FaultPlan::new(),
            log: IoLog::new(),
            noise_seed: 0x1234_5678_9ABC_DEF0,
            clock: None,
        }
    }

    /// Wrap `inner` with an existing plan (shared with a controller).
    pub fn with_plan(inner: D, plan: FaultPlan) -> Self {
        FaultyDisk {
            inner,
            plan,
            log: IoLog::new(),
            noise_seed: 0x1234_5678_9ABC_DEF0,
            clock: None,
        }
    }

    /// Attach the sim clock that latency faults (`Slow`/`Hang`) charge
    /// their extra service time against. Use the same clock the inner
    /// timed device advances, so deadlines measured above this layer see
    /// the slowness.
    pub fn with_clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Enact a latency fault around an inner operation: run `op`, then
    /// charge the extra sim time the fault demands.
    fn slow_io<T>(
        &mut self,
        kind: FaultKind,
        op: impl FnOnce(&mut D) -> DiskResult<T>,
    ) -> DiskResult<T> {
        let start = self.clock.as_ref().map(SimClock::now_ns);
        let out = op(&mut self.inner);
        if let (Some(clock), Some(start)) = (self.clock.as_ref(), start) {
            let extra = match kind {
                FaultKind::Slow { multiplier } => {
                    let nominal = clock.elapsed_since(start).max(SLOW_NOMINAL_NS);
                    nominal.saturating_mul(u64::from(multiplier.max(1) - 1))
                }
                FaultKind::Hang => HANG_STALL_NS,
                _ => 0,
            };
            clock.advance_ns(extra);
        }
        out
    }

    /// Controller handle for injecting faults while the file system owns
    /// this device.
    pub fn controller(&self) -> FaultController {
        self.plan.controller()
    }

    /// The log of record for fingerprinting: every request, failed and
    /// silently corrupted ones included. Writes carry no payload, so the
    /// log has a trace view and no crash view.
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

    /// Fabricate corrupted contents for `addr` per `style`, based on the
    /// block actually on the medium.
    fn corrupt(&mut self, addr: BlockAddr, style: CorruptionStyle) -> Block {
        match style {
            CorruptionStyle::RandomNoise => {
                let mut b = Block::zeroed();
                // xorshift64 keyed by (seed, addr): deterministic per block,
                // different across blocks.
                let mut x = self.noise_seed ^ (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
                for chunk in b.chunks_mut(8) {
                    let bytes = xorshift64(&mut x).to_le_bytes();
                    let n = chunk.len();
                    chunk.copy_from_slice(&bytes[..n]);
                }
                b
            }
            CorruptionStyle::Zeroed => Block::zeroed(),
            CorruptionStyle::BitFlip { offset, len } => {
                let mut b = self.inner.peek(addr);
                let end = (offset + len).min(BLOCK_SIZE);
                for byte in &mut b[offset.min(BLOCK_SIZE)..end] {
                    *byte = !*byte;
                }
                b
            }
            CorruptionStyle::Field { offset, value } => {
                let mut b = self.inner.peek(addr);
                if offset + 4 <= BLOCK_SIZE {
                    b.put_u32(offset, value);
                }
                b
            }
            CorruptionStyle::MisdirectedFrom(src) => self.inner.peek(src),
        }
    }

    /// Enact the read fault the plan returned for this request (`None`:
    /// none fired) and log its outcome.
    fn read_with(
        &mut self,
        fault: Option<FaultKind>,
        addr: BlockAddr,
        tag: BlockTag,
    ) -> DiskResult<Block> {
        let op = IoOp::Read { addr, tag };
        match fault {
            Some(FaultKind::WholeDisk) => {
                self.log.record(op, IoOutcome::Error);
                Err(DiskError::DeviceFailed)
            }
            Some(FaultKind::ReadError) => {
                self.log.record(op, IoOutcome::Error);
                Err(DiskError::Io {
                    addr,
                    kind: IoKind::Read,
                })
            }
            Some(FaultKind::Corruption(style)) => {
                // The device "succeeds": charge normal service time, then
                // hand back bad bytes.
                let _ = self.inner.read_tagged(addr, tag)?;
                let bad = self.corrupt(addr, style);
                self.log.record(op, IoOutcome::SilentlyCorrupted);
                Ok(bad)
            }
            Some(kind @ (FaultKind::Slow { .. } | FaultKind::Hang)) => {
                // The data is correct and no error code is produced — the
                // fault lives purely in the time domain.
                let block = self.slow_io(kind, |d| d.read_tagged(addr, tag))?;
                self.log.record(op, IoOutcome::Ok);
                Ok(block)
            }
            Some(FaultKind::WriteError) | None => {
                let block = self.inner.read_tagged(addr, tag)?;
                self.log.record(op, IoOutcome::Ok);
                Ok(block)
            }
        }
    }

    /// Check the plan for a write, enact the fault that fired, and log
    /// the outcome; `write` issues the request to the inner device.
    fn write_with(
        &mut self,
        addr: BlockAddr,
        tag: BlockTag,
        write: impl FnOnce(&mut D) -> DiskResult<()>,
    ) -> DiskResult<()> {
        let op = IoOp::Write {
            addr,
            tag,
            data: None,
        };
        match self.plan.check(IoKind::Write, addr, tag) {
            Some(FaultKind::WholeDisk) => {
                self.log.record(op, IoOutcome::Error);
                Err(DiskError::DeviceFailed)
            }
            Some(FaultKind::WriteError) => {
                self.log.record(op, IoOutcome::Error);
                Err(DiskError::Io {
                    addr,
                    kind: IoKind::Write,
                })
            }
            Some(kind @ (FaultKind::Slow { .. } | FaultKind::Hang)) => {
                self.slow_io(kind, write)?;
                self.log.record(op, IoOutcome::Ok);
                Ok(())
            }
            _ => {
                write(&mut self.inner)?;
                self.log.record(op, IoOutcome::Ok);
                Ok(())
            }
        }
    }
}

impl<D: BlockDevice + RawAccess> BlockDevice for FaultyDisk<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        let fault = self.plan.check(IoKind::Read, addr, tag);
        self.read_with(fault, addr, tag)
    }

    /// The plan is checked once, as for a read. A request no read fault
    /// touches is forwarded, so the page below comes up as it is; one a
    /// fault fired on takes `read_with`'s arm and returns a new
    /// page, so a corrupted block is judged by the digest of the bytes it
    /// returns.
    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        match self.plan.check(IoKind::Read, addr, tag) {
            Some(FaultKind::WriteError) | None => {
                let page = self.inner.read_page(addr, tag)?;
                self.log.record(IoOp::Read { addr, tag }, IoOutcome::Ok);
                Ok(page)
            }
            fault => self.read_with(fault, addr, tag).map(|b| Page::new(&b)),
        }
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        self.write_with(addr, tag, |d| d.write_tagged(addr, block, tag))
    }

    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        self.write_with(addr, tag, |d| d.write_page(addr, page, tag))
    }

    fn barrier(&mut self) -> DiskResult<()> {
        let r = self.inner.barrier();
        self.log.record(IoOp::Barrier, IoOutcome::of(&r));
        r
    }

    fn flush(&mut self) -> DiskResult<()> {
        let r = self.inner.flush();
        self.log.record(IoOp::Flush, IoOutcome::of(&r));
        r
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // A hint is not an access: no fault check, no log record. Faults
        // fire on the real tagged reads that follow.
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for FaultyDisk<D> {
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
    use crate::plan::{FaultSpec, FaultTarget};
    use iron_blockdev::MemDisk;
    use iron_core::Transience;

    fn setup() -> (FaultyDisk<MemDisk>, FaultController) {
        let mut inner = MemDisk::for_tests(64);
        for i in 0..64u64 {
            inner.poke(BlockAddr(i), &Block::filled(i as u8 + 1));
        }
        let disk = FaultyDisk::new(inner);
        let ctl = disk.controller();
        (disk, ctl)
    }

    #[test]
    fn passthrough_when_no_faults() {
        let (mut disk, _ctl) = setup();
        assert_eq!(disk.read(BlockAddr(3)).unwrap(), Block::filled(4));
        disk.write(BlockAddr(3), &Block::filled(0xFF)).unwrap();
        assert_eq!(disk.read(BlockAddr(3)).unwrap(), Block::filled(0xFF));
    }

    #[test]
    fn read_error_returns_error_code_and_leaves_medium() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::ReadError,
            FaultTarget::Addr(BlockAddr(7)),
        ));
        assert_eq!(
            disk.read(BlockAddr(7)),
            Err(DiskError::Io {
                addr: BlockAddr(7),
                kind: IoKind::Read
            })
        );
        // Medium untouched; peek still sees the original contents.
        assert_eq!(disk.peek(BlockAddr(7)), Block::filled(8));
    }

    #[test]
    fn write_error_does_not_reach_medium() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::WriteError,
            FaultTarget::Addr(BlockAddr(9)),
        ));
        let r = disk.write(BlockAddr(9), &Block::filled(0xEE));
        assert!(r.is_err());
        assert_eq!(
            disk.peek(BlockAddr(9)),
            Block::filled(10),
            "medium unchanged"
        );
        // Reads of the same block still succeed.
        assert_eq!(disk.read(BlockAddr(9)).unwrap(), Block::filled(10));
    }

    #[test]
    fn transient_read_error_clears_for_retry() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::transient(
            FaultKind::ReadError,
            FaultTarget::Addr(BlockAddr(2)),
            1,
        ));
        assert!(disk.read(BlockAddr(2)).is_err());
        assert_eq!(disk.read(BlockAddr(2)).unwrap(), Block::filled(3));
    }

    #[test]
    fn corruption_returns_success_with_bad_data() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Corruption(CorruptionStyle::RandomNoise),
            FaultTarget::Addr(BlockAddr(5)),
        ));
        let got = disk.read(BlockAddr(5)).unwrap();
        assert_ne!(got, Block::filled(6), "data must be corrupted");
        // Deterministic: the same corruption every time (sticky).
        assert_eq!(disk.read(BlockAddr(5)).unwrap(), got);
        // Trace knows it was silently corrupted even though the FS saw Ok.
        let last = disk.log().events().pop().unwrap();
        assert_eq!(last.outcome, IoOutcome::SilentlyCorrupted);
    }

    #[test]
    fn field_corruption_preserves_rest_of_block() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Corruption(CorruptionStyle::Field {
                offset: 16,
                value: 0xDEAD_BEEF,
            }),
            FaultTarget::Addr(BlockAddr(4)),
        ));
        let got = disk.read(BlockAddr(4)).unwrap();
        assert_eq!(got.get_u32(16), 0xDEAD_BEEF);
        assert_eq!(got[0], 5, "bytes outside the field are intact");
        assert_eq!(got[20], 5);
    }

    #[test]
    fn bitflip_corruption_inverts_range() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Corruption(CorruptionStyle::BitFlip { offset: 0, len: 2 }),
            FaultTarget::Addr(BlockAddr(1)),
        ));
        let got = disk.read(BlockAddr(1)).unwrap();
        assert_eq!(got[0], !2u8);
        assert_eq!(got[1], !2u8);
        assert_eq!(got[2], 2);
    }

    #[test]
    fn misdirected_corruption_returns_other_block() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Corruption(CorruptionStyle::MisdirectedFrom(BlockAddr(20))),
            FaultTarget::Addr(BlockAddr(10)),
        ));
        assert_eq!(disk.read(BlockAddr(10)).unwrap(), Block::filled(21));
    }

    #[test]
    fn type_aware_fault_hits_only_tagged_io() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::ReadError,
            FaultTarget::Tag(BlockTag("super")),
        ));
        assert!(disk.read_tagged(BlockAddr(0), BlockTag("data")).is_ok());
        assert!(disk.read_tagged(BlockAddr(0), BlockTag("super")).is_err());
    }

    #[test]
    fn whole_disk_failure_fails_everything() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec {
            kind: FaultKind::WholeDisk,
            transience: Transience::Sticky,
            target: FaultTarget::Addr(BlockAddr(0)),
            locality: iron_core::model::Locality::Single,
        });
        assert_eq!(disk.read(BlockAddr(0)), Err(DiskError::DeviceFailed));
        assert_eq!(
            disk.write(BlockAddr(30), &Block::zeroed()),
            Err(DiskError::DeviceFailed)
        );
    }

    #[test]
    fn flush_forwards_as_flush_not_barrier() {
        // Audit regression: the fault layer must not downgrade a
        // durability flush to an ordering barrier for the stack below.
        let (mut disk, _ctl) = setup();
        disk.flush().unwrap();
        let s = disk.inner().stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.barriers, 0);
        disk.barrier().unwrap();
        let s = disk.inner().stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.barriers, 1);
    }

    #[test]
    fn slow_fault_charges_multiplied_service_time() {
        let inner = MemDisk::for_tests(64);
        let clock = inner.clock();
        let mut disk = FaultyDisk::new(inner).with_clock(clock.clone());
        let ctl = disk.controller();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Slow { multiplier: 8 },
            FaultTarget::Addr(BlockAddr(3)),
        ));
        let before = clock.now_ns();
        let got = disk.read(BlockAddr(3)).unwrap();
        assert_eq!(got, Block::zeroed(), "data is still correct");
        let slow_elapsed = clock.elapsed_since(before);
        // Instant geometry charges ~0 nominal, so the extra is the floor
        // times (multiplier - 1).
        assert_eq!(slow_elapsed, 7 * SLOW_NOMINAL_NS);
        // Other blocks are unaffected.
        let before = clock.now_ns();
        disk.read(BlockAddr(4)).unwrap();
        assert_eq!(clock.elapsed_since(before), 0);
        // Trace sees a plain Ok — no error code anywhere.
        let events = disk.log().events();
        assert!(events.iter().all(|e| e.outcome == IoOutcome::Ok));
    }

    #[test]
    fn hang_fault_stalls_for_the_full_stall_time() {
        let inner = MemDisk::for_tests(64);
        let clock = inner.clock();
        let mut disk = FaultyDisk::new(inner).with_clock(clock.clone());
        let ctl = disk.controller();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Hang,
            FaultTarget::Addr(BlockAddr(5)),
        ));
        let before = clock.now_ns();
        disk.write(BlockAddr(5), &Block::filled(1)).unwrap();
        assert_eq!(clock.elapsed_since(before), HANG_STALL_NS);
        // The write did land: a hang is not a lost write, just a stall.
        assert_eq!(disk.peek(BlockAddr(5)), Block::filled(1));
    }

    #[test]
    fn latency_faults_without_a_clock_pass_through() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::Slow { multiplier: 1000 },
            FaultTarget::Addr(BlockAddr(1)),
        ));
        ctl.inject(FaultSpec::sticky(
            FaultKind::Hang,
            FaultTarget::Addr(BlockAddr(2)),
        ));
        assert_eq!(disk.read(BlockAddr(1)).unwrap(), Block::filled(2));
        assert_eq!(disk.read(BlockAddr(2)).unwrap(), Block::filled(3));
    }

    /// Twins over one golden, one read with `read_page` and one with
    /// `read_tagged`, under every fault kind and corruption style, sticky
    /// and transient, bare and under a retrying layer: the page holds the
    /// bytes returned and their digest, and the results, traces, clocks
    /// and medium counters of the two are the same.
    #[test]
    fn read_page_is_read_tagged_then_sha1_under_every_fault() {
        use iron_blockdev::{RetryConfig, RetryLayer};
        use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};

        let styles = [
            CorruptionStyle::RandomNoise,
            CorruptionStyle::Zeroed,
            CorruptionStyle::BitFlip { offset: 7, len: 9 },
            CorruptionStyle::Field {
                offset: 16,
                value: 0xDEAD_BEEF,
            },
            CorruptionStyle::MisdirectedFrom(BlockAddr(20)),
        ];
        let mut kinds: Vec<Option<FaultKind>> = vec![
            None,
            Some(FaultKind::ReadError),
            Some(FaultKind::WriteError),
            Some(FaultKind::WholeDisk),
            Some(FaultKind::Slow { multiplier: 4 }),
            Some(FaultKind::Hang),
        ];
        kinds.extend(styles.map(|s| Some(FaultKind::Corruption(s))));

        let (golden, _) = setup();
        let golden = golden.inner().snapshot();
        let faulty = |fault: Option<FaultKind>, transient: bool| {
            let inner = golden.snapshot();
            let clock = inner.clock();
            let disk = FaultyDisk::new(inner).with_clock(clock);
            let target = FaultTarget::Addr(BlockAddr(5));
            if let Some(k) = fault {
                disk.controller().inject(match transient {
                    false => FaultSpec::sticky(k, target),
                    true => FaultSpec::transient(k, target, 1),
                });
            }
            disk
        };
        let retry_policy = || {
            PolicyHandle::new(FailurePolicyTable::with_default(vec![
                RecoveryAction::Retry {
                    budget: 2,
                    backoff: Backoff::none(),
                },
                RecoveryAction::Propagate,
            ]))
        };
        let opened = |p: Arc<Page>| (p.to_block(), p.sha1());
        let hashed = |b: Block| {
            let digest = iron_core::checksum::sha1(&b[..]);
            (b, digest)
        };
        let seen = |d: &FaultyDisk<MemDisk>| {
            let trace: Vec<String> = d.log().events().iter().map(|e| e.to_string()).collect();
            (trace, d.inner().stats(), d.inner().clock().now_ns())
        };
        for fault in kinds {
            for transient in [false, true] {
                let what = format!("{fault:?}, transient {transient}");
                let (mut a, mut b) = (faulty(fault, transient), faulty(fault, transient));
                for addr in [5, 5, 6].map(BlockAddr) {
                    let got = a.read_page(addr, BlockTag("data")).map(opened);
                    let want = b.read_tagged(addr, BlockTag("data")).map(hashed);
                    assert_eq!(got, want, "{what}");
                }
                assert_eq!(seen(&a), seen(&b), "{what}");

                let retry = |d: FaultyDisk<MemDisk>| {
                    let config = RetryConfig::new(retry_policy(), d.inner().clock());
                    RetryLayer::new(d, config)
                };
                let mut a = retry(faulty(fault, transient));
                let mut b = retry(faulty(fault, transient));
                let got = a.read_page(BlockAddr(5), BlockTag("data")).map(opened);
                let want = b.read_tagged(BlockAddr(5), BlockTag("data")).map(hashed);
                assert_eq!(got, want, "retried {what}");
                assert_eq!(a.stats().snapshot(), b.stats().snapshot(), "retried {what}");
                assert_eq!(seen(a.inner()), seen(b.inner()), "retried {what}");
            }
        }
    }

    #[test]
    fn trace_records_errors() {
        let (mut disk, ctl) = setup();
        ctl.inject(FaultSpec::sticky(
            FaultKind::ReadError,
            FaultTarget::Addr(BlockAddr(7)),
        ));
        let _ = disk.read(BlockAddr(6));
        let _ = disk.read(BlockAddr(7));
        let _ = disk.read(BlockAddr(7)); // a "retry"
        disk.barrier().unwrap();
        disk.flush().unwrap();
        let log = disk.log();
        let events = log.events();
        let at_7 = |e: &&iron_blockdev::IoEvent| e.addr == BlockAddr(7) && e.kind == IoKind::Read;
        assert_eq!(events.iter().filter(at_7).count(), 2);
        assert_eq!(events.len(), 3, "the trace view holds the reads");
        assert_eq!(events[0].outcome, IoOutcome::Ok);
        assert_eq!(events[1].outcome, IoOutcome::Error);
        assert_eq!(events[2].outcome, IoOutcome::Error);
        assert_eq!(log.records().len(), 5, "the log holds barrier and flush");
        assert_eq!(log.flush_count(), 1);
    }
}
