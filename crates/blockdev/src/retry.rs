//! [`RetryLayer`]: device-level enactment of the failure-policy engine.
//!
//! Real storage stacks retry beneath the file system — the SCSI mid-layer
//! re-issues failed commands with its own budget before the FS ever sees
//! an error (§3 of the paper notes most FS retry behavior actually lives
//! here). `RetryLayer` is that mid-layer: it wraps any [`BlockDevice`],
//! shares a [`PolicyHandle`] with the layers above, and hands every
//! failed request to the one chain walker ([`PolicyHandle::walk`]) —
//! bounded re-issues with deterministic sim-clock backoff, then
//! propagation. File-system-only rungs (`Redundancy`, `DegradeReadOnly`)
//! are skipped at this level; the layer cannot remount anything
//! read-only, it can only hand the error up to someone who can.
//!
//! The layer also implements **I/O deadlines**: when configured, any
//! request whose simulated service time exceeds the deadline is failed
//! with [`DiskError::Timeout`] even though the medium "completed" it.
//! This is what turns the time-domain fault (`FaultKind::Slow`)
//! into a detectable error class.
//!
//! On the fault-free path the layer reads the clock twice and touches two
//! atomics — the first attempt stays outside the walker, allocates
//! nothing and charges **zero** simulated time, so a policy-equipped
//! stack is sim-time-identical to a bare one (the `retry fs_ops_bare` and
//! `fs_ops_policied` rows of `results/sim_costs.txt` pin this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iron_core::recover::{ErrorClass, PolicyHandle, Step, Verdict, Walk};
use iron_core::{Block, BlockAddr, BlockTag, IoKind, KernelLog, SimClock};

use crate::device::{BlockDevice, DiskError, DiskResult, RawAccess};
use crate::page::Page;

/// Classify a [`DiskError`] for policy lookup.
pub fn classify(err: &DiskError) -> ErrorClass {
    match err {
        DiskError::Io { .. } | DiskError::OutOfRange { .. } => ErrorClass::Io,
        DiskError::DeviceFailed => ErrorClass::DeviceFailed,
        DiskError::Timeout { .. } => ErrorClass::Timeout,
    }
}

/// Configuration for a [`RetryLayer`].
#[derive(Clone, Debug)]
pub struct RetryConfig {
    /// The shared (runtime-swappable) policy table and counters.
    pub policy: PolicyHandle,
    /// The clock backoff delays are charged against — the same clock the
    /// timed disk below advances.
    pub clock: SimClock,
    /// Per-request I/O deadline in sim ns; `None` disables timeouts.
    pub deadline_ns: Option<u64>,
    /// Kernel log that enacted actions are echoed to.
    pub klog: KernelLog,
}

impl RetryConfig {
    /// A config with the given policy and clock, no deadline, and a fresh
    /// log.
    pub fn new(policy: PolicyHandle, clock: SimClock) -> Self {
        RetryConfig {
            policy,
            clock,
            deadline_ns: None,
            klog: KernelLog::new(),
        }
    }

    /// Set the per-request I/O deadline.
    pub fn deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Use an existing kernel log.
    pub fn with_klog(mut self, klog: KernelLog) -> Self {
        self.klog = klog;
        self
    }
}

#[derive(Debug, Default)]
struct StatCells {
    ops: AtomicU64,
    faulted_ops: AtomicU64,
    attempts: AtomicU64,
    masked: AtomicU64,
    timeouts: AtomicU64,
    propagated: AtomicU64,
}

/// Point-in-time counters for one [`RetryLayer`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RetryStatsSnapshot {
    /// Tagged read/write requests seen.
    pub ops: u64,
    /// Requests whose first attempt failed.
    pub faulted_ops: u64,
    /// Total device attempts issued (first attempts + re-issues).
    pub attempts: u64,
    /// Requests that ultimately succeeded after ≥ 1 re-issue.
    pub masked: u64,
    /// Attempts failed by the deadline check.
    pub timeouts: u64,
    /// Requests whose error was returned to the caller.
    pub propagated: u64,
}

/// Shared handle onto a [`RetryLayer`]'s counters.
#[derive(Clone, Debug, Default)]
pub struct RetryStats {
    cells: Arc<StatCells>,
}

impl RetryStats {
    /// Copy out the counters.
    pub fn snapshot(&self) -> RetryStatsSnapshot {
        let c = &self.cells;
        RetryStatsSnapshot {
            ops: c.ops.load(Ordering::Relaxed),
            faulted_ops: c.faulted_ops.load(Ordering::Relaxed),
            attempts: c.attempts.load(Ordering::Relaxed),
            masked: c.masked.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            propagated: c.propagated.load(Ordering::Relaxed),
        }
    }
}

/// A policy-enacting retry/deadline layer beneath the file system.
pub struct RetryLayer<D> {
    inner: D,
    policy: PolicyHandle,
    clock: SimClock,
    deadline_ns: Option<u64>,
    klog: KernelLog,
    stats: RetryStats,
}

impl<D: BlockDevice> RetryLayer<D> {
    /// Wrap `inner` under the given configuration.
    pub fn new(inner: D, config: RetryConfig) -> Self {
        RetryLayer {
            inner,
            policy: config.policy,
            clock: config.clock,
            deadline_ns: config.deadline_ns,
            klog: config.klog,
            stats: RetryStats::default(),
        }
    }

    /// Shared counter handle (clone it before moving the layer into a
    /// stack).
    pub fn stats(&self) -> RetryStats {
        self.stats.clone()
    }

    /// The policy handle this layer consults (clone to reconfigure at
    /// runtime).
    pub fn policy(&self) -> PolicyHandle {
        self.policy.clone()
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Issue one attempt and apply the deadline check: a request that
    /// exceeds its deadline fails with [`DiskError::Timeout`] even if the
    /// medium eventually completed it — the initiator has already given
    /// up by then.
    fn attempt<T>(
        &mut self,
        addr: BlockAddr,
        io: IoKind,
        op: &mut impl FnMut(&mut D) -> DiskResult<T>,
    ) -> DiskResult<T> {
        self.stats.cells.attempts.fetch_add(1, Ordering::Relaxed);
        let start = self.clock.now_ns();
        let out = op(&mut self.inner);
        if out.is_ok() {
            if let Some(deadline) = self.deadline_ns {
                if self.clock.elapsed_since(start) > deadline {
                    self.stats.cells.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.policy.counters().count_timeout();
                    return Err(DiskError::Timeout { addr, kind: io });
                }
            }
        }
        out
    }

    /// First attempt, then — only if it failed — the policy walk.
    fn run<T>(
        &mut self,
        addr: BlockAddr,
        tag: BlockTag,
        io: IoKind,
        mut op: impl FnMut(&mut D) -> DiskResult<T>,
    ) -> DiskResult<T> {
        self.stats.cells.ops.fetch_add(1, Ordering::Relaxed);
        let mut last_err = match self.attempt(addr, io, &mut op) {
            Ok(v) => return Ok(v),
            Err(e) => e,
        };
        self.stats.cells.faulted_ops.fetch_add(1, Ordering::Relaxed);

        // Handles are cloned so the re-issue closure can borrow the layer.
        let (policy, klog, clock) = (self.policy.clone(), self.klog.clone(), self.clock.clone());
        let site = Walk {
            klog: &klog,
            subsystem: "retrylayer",
            clock: Some(&clock),
            can_degrade: false,
            request: &format!("{io} {addr} [{tag}]"),
        };
        let class = classify(&last_err);
        let verdict = policy.walk(&site, tag, io, class, |step| match step {
            Step::Reissue { .. } => self
                .attempt(addr, io, &mut op)
                .map_err(|e| last_err = e)
                .ok(),
            // A device layer has no redundant copy of its own.
            Step::Redundancy => None,
        });
        let cells = &self.stats.cells;
        match verdict {
            Verdict::Recovered(v) => {
                cells.masked.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            Verdict::Degrade | Verdict::Propagate | Verdict::Stop => {
                cells.propagated.fetch_add(1, Ordering::Relaxed);
                Err(last_err)
            }
        }
    }
}

impl<D: BlockDevice> BlockDevice for RetryLayer<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.run(addr, tag, IoKind::Read, |d| d.read_tagged(addr, tag))
    }

    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        self.run(addr, tag, IoKind::Read, |d| d.read_page(addr, tag))
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        self.run(addr, tag, IoKind::Write, |d| {
            d.write_tagged(addr, block, tag)
        })
    }

    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        self.run(addr, tag, IoKind::Write, |d| d.write_page(addr, page, tag))
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.inner.barrier()
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.inner.flush()
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        self.inner.readahead(start, len);
    }
}

impl<D: RawAccess> RawAccess for RetryLayer<D> {
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
    use iron_core::recover::{Backoff, FailurePolicyTable, RecoveryAction};

    /// A flaky test double: fails the first `fail_first` tagged requests
    /// to a chosen address, succeeds afterwards.
    struct Flaky {
        inner: MemDisk,
        victim: BlockAddr,
        remaining: u32,
        attempts_on_victim: u64,
    }

    impl BlockDevice for Flaky {
        fn num_blocks(&self) -> u64 {
            self.inner.num_blocks()
        }
        fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
            if addr == self.victim {
                self.attempts_on_victim += 1;
                if self.remaining > 0 {
                    self.remaining -= 1;
                    return Err(DiskError::Io {
                        addr,
                        kind: IoKind::Read,
                    });
                }
            }
            self.inner.read_tagged(addr, tag)
        }
        fn write_tagged(
            &mut self,
            addr: BlockAddr,
            block: &Block,
            tag: BlockTag,
        ) -> DiskResult<()> {
            self.inner.write_tagged(addr, block, tag)
        }
        fn barrier(&mut self) -> DiskResult<()> {
            self.inner.barrier()
        }
        fn flush(&mut self) -> DiskResult<()> {
            self.inner.flush()
        }
    }

    fn retry_policy(budget: u32, backoff: Backoff) -> PolicyHandle {
        PolicyHandle::new(FailurePolicyTable::with_default(vec![
            RecoveryAction::Retry { budget, backoff },
            RecoveryAction::Propagate,
        ]))
    }

    fn flaky_layer(fail_first: u32, policy: PolicyHandle) -> (RetryLayer<Flaky>, SimClock) {
        let inner = MemDisk::for_tests(16);
        let clock = inner.clock();
        let flaky = Flaky {
            inner,
            victim: BlockAddr(3),
            remaining: fail_first,
            attempts_on_victim: 0,
        };
        let layer = RetryLayer::new(flaky, RetryConfig::new(policy, clock.clone()));
        (layer, clock)
    }

    #[test]
    fn fault_free_path_charges_no_time_and_issues_once() {
        let (mut layer, clock) = flaky_layer(0, retry_policy(3, Backoff::none()));
        let before = clock.now_ns();
        layer.read(BlockAddr(5)).unwrap();
        layer.write(BlockAddr(6), &Block::filled(1)).unwrap();
        assert_eq!(clock.elapsed_since(before), 0);
        let s = layer.stats().snapshot();
        assert_eq!(s.ops, 2);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.faulted_ops, 0);
    }

    #[test]
    fn transient_fault_is_masked_within_budget() {
        let (mut layer, _clock) = flaky_layer(2, retry_policy(3, Backoff::none()));
        let got = layer.read(BlockAddr(3)).unwrap();
        assert_eq!(got, Block::zeroed());
        assert_eq!(
            layer.inner().attempts_on_victim,
            3,
            "2 failures + 1 success"
        );
        let s = layer.stats().snapshot();
        assert_eq!(s.masked, 1);
        assert_eq!(s.propagated, 0);
        assert_eq!(layer.policy().counters().snapshot().retries, 2);
    }

    #[test]
    fn budget_strictly_bounds_attempts_on_sticky_fault() {
        let (mut layer, _clock) = flaky_layer(u32::MAX, retry_policy(3, Backoff::none()));
        assert!(layer.read(BlockAddr(3)).is_err());
        assert_eq!(
            layer.inner().attempts_on_victim,
            4,
            "1 initial + budget of 3, never more"
        );
        let s = layer.stats().snapshot();
        assert_eq!(s.propagated, 1);
        assert_eq!(s.masked, 0);
        let c = layer.policy().counters().snapshot();
        assert_eq!(c.exhausted, 1);
        assert_eq!(c.propagates, 1);
    }

    #[test]
    fn backoff_is_charged_to_the_sim_clock() {
        let (mut layer, clock) = flaky_layer(
            u32::MAX,
            retry_policy(3, Backoff::exponential(1_000, 2, 1_000_000)),
        );
        let before = clock.now_ns();
        assert!(layer.read(BlockAddr(3)).is_err());
        // 1000 + 2000 + 4000 ns of backoff; attempts themselves are instant.
        assert_eq!(clock.elapsed_since(before), 7_000);
        assert_eq!(layer.policy().counters().snapshot().backoff_ns, 7_000);
    }

    #[test]
    fn deadline_turns_slowness_into_timeout() {
        struct SlowDisk {
            inner: MemDisk,
            clock: SimClock,
            stall_ns: u64,
        }
        impl BlockDevice for SlowDisk {
            fn num_blocks(&self) -> u64 {
                self.inner.num_blocks()
            }
            fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
                self.clock.advance_ns(self.stall_ns);
                self.inner.read_tagged(addr, tag)
            }
            fn write_tagged(
                &mut self,
                addr: BlockAddr,
                block: &Block,
                tag: BlockTag,
            ) -> DiskResult<()> {
                self.inner.write_tagged(addr, block, tag)
            }
            fn barrier(&mut self) -> DiskResult<()> {
                self.inner.barrier()
            }
            fn flush(&mut self) -> DiskResult<()> {
                self.inner.flush()
            }
        }
        let inner = MemDisk::for_tests(8);
        let clock = inner.clock();
        let slow = SlowDisk {
            inner,
            clock: clock.clone(),
            stall_ns: 10_000_000,
        };
        // No retry: timeouts propagate immediately.
        let policy = PolicyHandle::new(FailurePolicyTable::propagate_all());
        let mut layer = RetryLayer::new(
            slow,
            RetryConfig::new(policy, clock.clone()).deadline_ns(1_000_000),
        );
        let err = layer.read(BlockAddr(0)).unwrap_err();
        assert_eq!(
            err,
            DiskError::Timeout {
                addr: BlockAddr(0),
                kind: IoKind::Read
            }
        );
        assert_eq!(classify(&err), ErrorClass::Timeout);
        assert_eq!(layer.stats().snapshot().timeouts, 1);
        // Writes are fast and unaffected.
        layer.write(BlockAddr(1), &Block::filled(2)).unwrap();
    }

    #[test]
    fn runtime_policy_swap_changes_behavior_mid_run() {
        let policy = retry_policy(0, Backoff::none());
        let (mut layer, _clock) = flaky_layer(1, policy.clone());
        // Budget 0: the single transient failure propagates.
        assert!(layer.read(BlockAddr(3)).is_err());
        // Re-arm the flakiness, then widen the budget at runtime.
        layer.inner_mut().remaining = 1;
        policy.set(FailurePolicyTable::with_default(vec![
            RecoveryAction::Retry {
                budget: 2,
                backoff: Backoff::none(),
            },
            RecoveryAction::Propagate,
        ]));
        assert!(layer.read(BlockAddr(3)).is_ok(), "new policy masks it");
    }

    #[test]
    fn fs_level_rungs_are_skipped_at_device_level() {
        let policy = PolicyHandle::new(FailurePolicyTable::with_default(vec![
            RecoveryAction::Redundancy,
            RecoveryAction::DegradeReadOnly,
            RecoveryAction::Propagate,
        ]));
        let (mut layer, _clock) = flaky_layer(u32::MAX, policy);
        assert!(layer.read(BlockAddr(3)).is_err());
        assert_eq!(layer.inner().attempts_on_victim, 1, "no retry rung matched");
        let c = layer.policy().counters().snapshot();
        assert_eq!(c.propagates, 1);
        assert_eq!(c.redundancy, 0, "redundancy rung not enacted here");
    }
}
