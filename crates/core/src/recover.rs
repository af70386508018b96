//! The runtime-configurable failure-policy engine (§3, §5).
//!
//! The paper's central argument is that *failure policy should be a
//! first-class, configurable property* of a storage stack, not an accident
//! of scattered `if err` branches. This module is that property made
//! concrete: a [`FailurePolicyTable`] maps `(block type × I/O direction ×
//! error class)` to an ordered [`RecoveryAction`] *escalation chain* —
//! bounded retry with deterministic exponential backoff first, then
//! redundancy, then graceful read-only degradation, and finally
//! propagation or a stop. Every layer that enacts a chain (the
//! device-level `RetryLayer` and all five file-system models) does so
//! through the one walker, [`PolicyHandle::walk`]: it alone looks the
//! chain up, loops a `Retry` rung, charges backoff, orders the rungs and
//! counts what was enacted in [`PolicyCounters`]. A caller supplies only
//! what is its own — how to re-issue the request, what redundancy it
//! has, its log wording, and what each [`Verdict`] means locally.
//!
//! All timing is in *simulated* nanoseconds against [`SimClock`], so a
//! backoff schedule is exactly reproducible: same table, same fault plan,
//! same schedule — at any thread count.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::block::BlockTag;
use crate::clock::SimClock;
use crate::klog::KernelLog;
use crate::model::IoKind;

/// Classification of a failed block I/O, as seen by a policy-enacting
/// layer. Policies discriminate on this axis because the right reaction
/// differs: a timeout on a slow disk wants a retry, a device failure
/// wants immediate degradation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ErrorClass {
    /// An explicit per-request I/O error (the fail-partial model's
    /// "error code" case).
    Io,
    /// The request exceeded its I/O deadline against the sim clock —
    /// the time-domain fault class (slow or hung disk).
    Timeout,
    /// The whole device has failed (fail-stop).
    DeviceFailed,
    /// The request completed but its payload failed a block-content
    /// check (checksum/sanity) — silent corruption made visible.
    Corrupt,
}

impl ErrorClass {
    /// Stable short label, used in klog lines and rendered tables.
    pub fn label(self) -> &'static str {
        match self {
            ErrorClass::Io => "io",
            ErrorClass::Timeout => "timeout",
            ErrorClass::DeviceFailed => "dev-failed",
            ErrorClass::Corrupt => "bad-content",
        }
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A deterministic, capped exponential backoff schedule in simulated
/// nanoseconds.
///
/// `delay_ns(k)` is the wait charged before re-issue number `k` (the
/// first re-issue is attempt 1): `min(base · factor^(k-1), cap)`, with
/// saturating arithmetic so huge factors can never wrap. The schedule is
/// a pure function of the struct — deterministic — and non-decreasing in
/// `k` — monotone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Backoff {
    /// Delay before the first re-issue, in sim ns.
    pub base_ns: u64,
    /// Multiplier applied per further re-issue.
    pub factor: u32,
    /// Upper bound on any single delay, in sim ns.
    pub cap_ns: u64,
}

impl Backoff {
    /// No waiting at all: immediate re-issue (the classic SCSI-layer
    /// tight retry, and stock ext3's inline re-read).
    pub const fn none() -> Self {
        Backoff {
            base_ns: 0,
            factor: 1,
            cap_ns: 0,
        }
    }

    /// Exponential schedule: `base`, `base·factor`, `base·factor²`, …
    /// capped at `cap`.
    pub const fn exponential(base_ns: u64, factor: u32, cap_ns: u64) -> Self {
        Backoff {
            base_ns,
            factor,
            cap_ns,
        }
    }

    /// Delay in sim ns charged before re-issue `attempt` (1-based).
    /// `attempt == 0` (the initial issue) is never delayed.
    pub fn delay_ns(&self, attempt: u32) -> u64 {
        if attempt == 0 || self.base_ns == 0 {
            return 0;
        }
        let mut d = self.base_ns;
        for _ in 1..attempt {
            d = d.saturating_mul(u64::from(self.factor));
            if d >= self.cap_ns {
                return self.cap_ns;
            }
        }
        d.min(self.cap_ns)
    }
}

/// One rung of an escalation chain.
///
/// A chain is walked in order: each action either *handles* the fault
/// (operation succeeds, walk stops), *fails over* (walk continues to the
/// next rung), or *terminates* (`DegradeReadOnly`, `Propagate`, `Stop`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryAction {
    /// Re-issue the request up to `budget` more times, waiting
    /// `backoff.delay_ns(k)` sim ns before re-issue `k`. The *total*
    /// number of device attempts is therefore bounded by `1 + budget`.
    Retry {
        /// Maximum re-issues after the initial attempt.
        budget: u32,
        /// Wait schedule between re-issues.
        backoff: Backoff,
    },
    /// Satisfy the request from a redundant copy (replica, parity,
    /// alternate superblock). Only meaningful to layers that have
    /// redundancy; others skip this rung.
    Redundancy,
    /// Give up on writes but keep serving reads: abort the journal and
    /// remount the file system read-only. Bounds the damage from a
    /// sticky fault instead of propagating garbage.
    DegradeReadOnly,
    /// Return the error to the caller (the paper's `RPropagate`).
    Propagate,
    /// Halt the file system outright (the paper's `RStop`).
    Stop,
}

impl RecoveryAction {
    /// Stable short label, used in klog lines and counters.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryAction::Retry { .. } => "retry",
            RecoveryAction::Redundancy => "redundancy",
            RecoveryAction::DegradeReadOnly => "degrade-ro",
            RecoveryAction::Propagate => "propagate",
            RecoveryAction::Stop => "stop",
        }
    }
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::Retry { budget, backoff } => {
                write!(f, "retry(budget={budget}, base={}ns)", backoff.base_ns)
            }
            other => f.write_str(other.label()),
        }
    }
}

/// One policy rule: a (possibly wildcarded) match on block type, I/O
/// direction, and error class, plus the chain to enact on a hit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PolicyRule {
    /// Block type to match; `None` matches any tag.
    pub tag: Option<BlockTag>,
    /// I/O direction to match; `None` matches both.
    pub io: Option<IoKind>,
    /// Error class to match; `None` matches any class.
    pub class: Option<ErrorClass>,
    /// Escalation chain enacted on a match.
    pub chain: Vec<RecoveryAction>,
}

impl PolicyRule {
    fn matches(&self, tag: BlockTag, io: IoKind, class: ErrorClass) -> bool {
        self.tag.is_none_or(|t| t == tag)
            && self.io.is_none_or(|i| i == io)
            && self.class.is_none_or(|c| c == class)
    }
}

/// An ordered failure-policy table: first matching rule wins; misses fall
/// through to the default chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FailurePolicyTable {
    rules: Vec<PolicyRule>,
    default_chain: Vec<RecoveryAction>,
}

impl FailurePolicyTable {
    /// An empty table whose default chain simply propagates errors.
    pub fn propagate_all() -> Self {
        FailurePolicyTable {
            rules: Vec::new(),
            default_chain: vec![RecoveryAction::Propagate],
        }
    }

    /// A table with the given default chain and no rules yet.
    pub fn with_default(default_chain: Vec<RecoveryAction>) -> Self {
        FailurePolicyTable {
            rules: Vec::new(),
            default_chain,
        }
    }

    /// Append a rule; earlier rules take precedence.
    pub fn rule(
        mut self,
        tag: Option<BlockTag>,
        io: Option<IoKind>,
        class: Option<ErrorClass>,
        chain: Vec<RecoveryAction>,
    ) -> Self {
        self.rules.push(PolicyRule {
            tag,
            io,
            class,
            chain,
        });
        self
    }

    /// The chain for a concrete `(tag, io, class)` triple.
    pub fn chain_for(&self, tag: BlockTag, io: IoKind, class: ErrorClass) -> Vec<RecoveryAction> {
        self.rules
            .iter()
            .find(|r| r.matches(tag, io, class))
            .map(|r| r.chain.clone())
            .unwrap_or_else(|| self.default_chain.clone())
    }

    /// Number of explicit rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no explicit rule is installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Per-action counters, shared by every layer that enacts the same
/// policy. All atomic, so counting is free of locks on the I/O path.
#[derive(Debug, Default)]
struct CounterCells {
    retries: AtomicU64,
    masked: AtomicU64,
    exhausted: AtomicU64,
    redundancy: AtomicU64,
    degrades: AtomicU64,
    propagates: AtomicU64,
    stops: AtomicU64,
    timeouts: AtomicU64,
    backoff_ns: AtomicU64,
}

/// A point-in-time copy of [`PolicyCounters`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PolicyCounterSnapshot {
    /// Re-issues performed by `Retry` rungs.
    pub retries: u64,
    /// Faults fully masked (operation succeeded after ≥1 re-issue).
    pub masked: u64,
    /// Retry budgets exhausted without success.
    pub exhausted: u64,
    /// Requests satisfied by a `Redundancy` rung.
    pub redundancy: u64,
    /// `DegradeReadOnly` transitions enacted.
    pub degrades: u64,
    /// Errors returned to the caller by a `Propagate` rung.
    pub propagates: u64,
    /// `Stop` rungs enacted.
    pub stops: u64,
    /// Requests classified as [`ErrorClass::Timeout`].
    pub timeouts: u64,
    /// Total sim ns charged as backoff delay.
    pub backoff_ns: u64,
}

/// Shared per-action counters with a kernel-log echo.
///
/// Cloning yields a handle onto the same cells.
#[derive(Clone, Debug, Default)]
pub struct PolicyCounters {
    cells: Arc<CounterCells>,
}

impl PolicyCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a read-only degradation. Public because the degradation is
    /// counted where it is enacted: ext3 aborts its journal from sites
    /// that never walk a chain (a failed commit write, say), and every
    /// one of them is a `DegradeReadOnly`.
    pub fn count_degrade(&self) {
        self.cells.degrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a deadline exceeded (the deadline check lives in the device
    /// layer, ahead of any chain).
    pub fn count_timeout(&self) {
        self.cells.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out all counters.
    pub fn snapshot(&self) -> PolicyCounterSnapshot {
        let c = &self.cells;
        PolicyCounterSnapshot {
            retries: c.retries.load(Ordering::Relaxed),
            masked: c.masked.load(Ordering::Relaxed),
            exhausted: c.exhausted.load(Ordering::Relaxed),
            redundancy: c.redundancy.load(Ordering::Relaxed),
            degrades: c.degrades.load(Ordering::Relaxed),
            propagates: c.propagates.load(Ordering::Relaxed),
            stops: c.stops.load(Ordering::Relaxed),
            timeouts: c.timeouts.load(Ordering::Relaxed),
            backoff_ns: c.backoff_ns.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable, runtime-swappable handle onto a [`FailurePolicyTable`]
/// plus its shared [`PolicyCounters`].
///
/// Every layer holding a clone sees a [`Self::set`] immediately — this is
/// the "runtime-configurable" half of the engine.
#[derive(Clone, Debug)]
pub struct PolicyHandle {
    table: Arc<Mutex<FailurePolicyTable>>,
    counters: PolicyCounters,
}

impl PolicyHandle {
    /// Wrap a table in a fresh handle.
    pub fn new(table: FailurePolicyTable) -> Self {
        PolicyHandle {
            table: Arc::new(Mutex::new(table)),
            counters: PolicyCounters::new(),
        }
    }

    /// Replace the table; all clones observe the new policy at once.
    pub fn set(&self, table: FailurePolicyTable) {
        *self.table.lock().unwrap() = table;
    }

    /// The chain for a concrete `(tag, io, class)` triple.
    pub fn chain_for(&self, tag: BlockTag, io: IoKind, class: ErrorClass) -> Vec<RecoveryAction> {
        self.table.lock().unwrap().chain_for(tag, io, class)
    }

    /// The shared counters.
    pub fn counters(&self) -> &PolicyCounters {
        &self.counters
    }

    /// Count an enacted rung and echo it to the site's kernel log.
    ///
    /// Wording is deliberately neutral and info-level: it must not
    /// collide with the fingerprint framework's detection-marker
    /// substrings, nor read as a reaction by itself. `DegradeReadOnly`
    /// never comes here: whoever enacts it counts it (`count_degrade`).
    fn record(&self, site: &Walk<'_>, action: RecoveryAction, suffix: impl fmt::Display) {
        let c = &self.counters.cells;
        let cell = match action {
            RecoveryAction::Retry { .. } => &c.retries,
            RecoveryAction::Redundancy => &c.redundancy,
            RecoveryAction::DegradeReadOnly => unreachable!("counted by its enactor"),
            RecoveryAction::Propagate => &c.propagates,
            RecoveryAction::Stop => &c.stops,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        site.klog.info(
            site.subsystem,
            format!("policy action {}: {}{suffix}", action.label(), site.request),
        );
    }

    /// Walk the escalation chain for a request that has just failed —
    /// the one retry engine of the workspace.
    ///
    /// The chain for `(tag, io, class)` is enacted rung by rung:
    ///
    /// * `Retry { budget, backoff }` asks `step` for
    ///   [`Step::Reissue`] up to `budget` times, charging
    ///   `backoff.delay_ns(k)` to the site's clock before re-issue `k`;
    ///   the first `Some` ends the walk as [`Verdict::Recovered`]. With
    ///   the failed first attempt the caller made itself, a request sees
    ///   at most `1 + budget` attempts per `Retry` rung.
    /// * `Redundancy` asks `step` for [`Step::Redundancy`] once; a caller
    ///   with no redundant copy answers `None` and the walk moves on.
    /// * `DegradeReadOnly`, `Propagate` and `Stop` end the walk with the
    ///   verdict of the same name, which the caller enacts in its own
    ///   terms. A site that has no mount to degrade (`can_degrade:
    ///   false`) skips `DegradeReadOnly`.
    /// * A chain that runs out without a terminal rung propagates.
    ///
    /// Every enacted rung is counted once and echoed to the log, the same
    /// way at every level of the stack.
    pub fn walk<T>(
        &self,
        site: &Walk<'_>,
        tag: BlockTag,
        io: IoKind,
        class: ErrorClass,
        mut step: impl FnMut(Step) -> Option<T>,
    ) -> Verdict<T> {
        let c = &self.counters.cells;
        for action in self.chain_for(tag, io, class) {
            match action {
                RecoveryAction::Retry { budget, backoff } => {
                    for attempt in 1..=budget {
                        let delay = backoff.delay_ns(attempt);
                        if delay > 0 {
                            if let Some(clock) = site.clock {
                                clock.advance_ns(delay);
                            }
                            c.backoff_ns.fetch_add(delay, Ordering::Relaxed);
                        }
                        self.record(site, action, format_args!(" re-issue {attempt}/{budget}"));
                        if let Some(v) = step(Step::Reissue { attempt, budget }) {
                            c.masked.fetch_add(1, Ordering::Relaxed);
                            return Verdict::Recovered(v);
                        }
                    }
                    c.exhausted.fetch_add(1, Ordering::Relaxed);
                }
                RecoveryAction::Redundancy => {
                    if let Some(v) = step(Step::Redundancy) {
                        self.record(site, action, "");
                        return Verdict::Recovered(v);
                    }
                }
                RecoveryAction::DegradeReadOnly => {
                    if site.can_degrade {
                        return Verdict::Degrade;
                    }
                }
                RecoveryAction::Propagate => {
                    self.record(site, action, "");
                    return Verdict::Propagate;
                }
                RecoveryAction::Stop => {
                    self.record(site, action, "");
                    return Verdict::Stop;
                }
            }
        }
        self.record(site, RecoveryAction::Propagate, "");
        Verdict::Propagate
    }
}

/// Where a chain walk happens: what [`PolicyHandle::walk`] needs from its
/// caller besides the re-issue closure.
#[derive(Clone, Copy, Debug)]
pub struct Walk<'a> {
    /// Kernel log the enacted rungs are echoed to.
    pub klog: &'a KernelLog,
    /// Log subsystem of the enacting layer.
    pub subsystem: &'static str,
    /// Clock that backoff delays are charged to; `None` when the layer
    /// keeps no clock (the delay is still counted).
    pub clock: Option<&'a SimClock>,
    /// Whether the layer can enact `DegradeReadOnly`. A device layer
    /// cannot — it has no mount — and hands the error to one that can.
    pub can_degrade: bool,
    /// Names the failed request in the echo, e.g. `"data read 12"`.
    pub request: &'a str,
}

/// What the walker asks of its caller at a rung only the caller can
/// carry out. Answer `Some(value)` when the request is now satisfied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Re-issue the failed request: re-issue `attempt` of `budget`.
    Reissue {
        /// 1-based re-issue number within this `Retry` rung.
        attempt: u32,
        /// The rung's budget.
        budget: u32,
    },
    /// Satisfy the request from a redundant copy, if there is one.
    Redundancy,
}

/// How a chain walk ended; the caller gives each outcome its local
/// meaning (`abort_journal`, `env.panic`, `EIO`, a swallowed error…).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[must_use]
pub enum Verdict<T> {
    /// A `Retry` or `Redundancy` rung produced the value.
    Recovered(T),
    /// A `DegradeReadOnly` rung was reached: stop writing, keep reading.
    Degrade,
    /// A `Propagate` rung was reached, or the chain ran out.
    Propagate,
    /// A `Stop` rung was reached: halt the file system.
    Stop,
}

impl Default for PolicyHandle {
    fn default() -> Self {
        PolicyHandle::new(FailurePolicyTable::propagate_all())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_none_is_zero_everywhere() {
        let b = Backoff::none();
        for k in 0..10 {
            assert_eq!(b.delay_ns(k), 0);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_monotone() {
        let b = Backoff::exponential(1_000, 2, 1_000_000);
        let first: Vec<u64> = (0..40).map(|k| b.delay_ns(k)).collect();
        let second: Vec<u64> = (0..40).map(|k| b.delay_ns(k)).collect();
        assert_eq!(first, second, "schedule is a pure function");
        for w in first.windows(2) {
            assert!(w[0] <= w[1], "schedule is monotone: {} > {}", w[0], w[1]);
        }
        assert_eq!(b.delay_ns(1), 1_000);
        assert_eq!(b.delay_ns(2), 2_000);
        assert_eq!(b.delay_ns(3), 4_000);
        assert_eq!(b.delay_ns(39), 1_000_000, "capped");
    }

    #[test]
    fn backoff_never_overflows() {
        let b = Backoff::exponential(u64::MAX / 2, u32::MAX, u64::MAX);
        assert_eq!(b.delay_ns(u32::MAX), u64::MAX);
    }

    #[test]
    fn first_matching_rule_wins() {
        let retry = RecoveryAction::Retry {
            budget: 3,
            backoff: Backoff::none(),
        };
        let table = FailurePolicyTable::propagate_all()
            .rule(
                Some(BlockTag("inode")),
                None,
                None,
                vec![RecoveryAction::Stop],
            )
            .rule(None, Some(IoKind::Read), None, vec![retry]);
        // Specific tag rule shadows the broader read rule.
        assert_eq!(
            table.chain_for(BlockTag("inode"), IoKind::Read, ErrorClass::Io),
            vec![RecoveryAction::Stop]
        );
        // Other tags fall through to the read rule.
        assert_eq!(
            table.chain_for(BlockTag("data"), IoKind::Read, ErrorClass::Timeout),
            vec![retry]
        );
        // Writes miss every rule and use the default chain.
        assert_eq!(
            table.chain_for(BlockTag("data"), IoKind::Write, ErrorClass::Io),
            vec![RecoveryAction::Propagate]
        );
    }

    #[test]
    fn handle_swap_is_visible_to_clones() {
        let h = PolicyHandle::new(FailurePolicyTable::propagate_all());
        let clone = h.clone();
        h.set(FailurePolicyTable::with_default(vec![
            RecoveryAction::DegradeReadOnly,
        ]));
        assert_eq!(
            clone.chain_for(BlockTag("data"), IoKind::Write, ErrorClass::Io),
            vec![RecoveryAction::DegradeReadOnly]
        );
    }

    #[test]
    fn counters_count_and_log() {
        let h = PolicyHandle::default();
        let klog = KernelLog::new();
        let site = |request| Walk {
            klog: &klog,
            subsystem: "policy",
            clock: None,
            can_degrade: true,
            request,
        };
        let retry = RecoveryAction::Retry {
            budget: 1,
            backoff: Backoff::none(),
        };
        h.record(&site("data read #4"), retry, "");
        h.record(&site("meta write #2"), RecoveryAction::Stop, "");
        h.counters().count_degrade();
        let snap = h.counters().snapshot();
        assert_eq!((snap.retries, snap.stops, snap.degrades), (1, 1, 1));
        assert!(klog.contains("policy action retry: data read #4"));
        assert!(klog.contains("policy action stop: meta write #2"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ErrorClass::Timeout.label(), "timeout");
        assert_eq!(ErrorClass::Corrupt.label(), "bad-content");
        assert_eq!(
            RecoveryAction::Retry {
                budget: 0,
                backoff: Backoff::none()
            }
            .label(),
            "retry"
        );
        assert_eq!(RecoveryAction::DegradeReadOnly.label(), "degrade-ro");
        assert_eq!(
            format!(
                "{}",
                RecoveryAction::Retry {
                    budget: 2,
                    backoff: Backoff::exponential(5, 2, 100)
                }
            ),
            "retry(budget=2, base=5ns)"
        );
    }

    const RETRY3: RecoveryAction = RecoveryAction::Retry {
        budget: 3,
        backoff: Backoff::exponential(1_000, 2, 1_000_000),
    };

    /// Walk `chain` as the default chain of a fresh handle; `step` sees
    /// every rung the walker hands out. Returns the verdict, the steps in
    /// order, the counters, the clock and the log.
    fn walk_chain(
        chain: Vec<RecoveryAction>,
        can_degrade: bool,
        mut step: impl FnMut(Step) -> Option<u8>,
    ) -> (
        Verdict<u8>,
        Vec<Step>,
        PolicyCounterSnapshot,
        SimClock,
        KernelLog,
    ) {
        let h = PolicyHandle::new(FailurePolicyTable::with_default(chain));
        let klog = KernelLog::new();
        let clock = SimClock::new();
        let site = Walk {
            klog: &klog,
            subsystem: "policy",
            clock: Some(&clock),
            can_degrade,
            request: "data read 4",
        };
        let mut seen = Vec::new();
        let verdict = h.walk(&site, BlockTag("data"), IoKind::Read, ErrorClass::Io, |s| {
            seen.push(s);
            step(s)
        });
        (verdict, seen, h.counters().snapshot(), clock, klog)
    }

    #[test]
    fn rungs_run_in_table_order_and_the_first_terminal_ends_the_walk() {
        let chain = vec![
            RecoveryAction::Redundancy,
            RETRY3,
            RecoveryAction::Stop,
            RecoveryAction::Propagate,
        ];
        let (verdict, seen, c, _, klog) = walk_chain(chain, true, |_| None);
        assert_eq!(verdict, Verdict::Stop);
        assert_eq!(
            seen[0],
            Step::Redundancy,
            "redundancy listed first runs first"
        );
        assert_eq!(seen.len(), 4, "then exactly the three re-issues");
        assert_eq!(
            (c.stops, c.propagates),
            (1, 0),
            "nothing past the first terminal"
        );
        assert_eq!(
            c.redundancy, 0,
            "a rung that did not recover is not counted"
        );
        assert!(klog.contains("policy action stop: data read 4"));
    }

    #[test]
    fn retry_rung_issues_at_most_its_budget_and_stops_on_success() {
        let (verdict, seen, c, _, _) =
            walk_chain(vec![RETRY3, RecoveryAction::Propagate], true, |_| None);
        assert_eq!(verdict, Verdict::Propagate);
        let expect: Vec<Step> = (1..=3)
            .map(|attempt| Step::Reissue { attempt, budget: 3 })
            .collect();
        assert_eq!(seen, expect, "1 + budget attempts with the caller's first");
        assert_eq!(
            (c.retries, c.exhausted, c.masked, c.propagates),
            (3, 1, 0, 1)
        );

        let (verdict, seen, c, _, klog) =
            walk_chain(vec![RETRY3, RecoveryAction::Propagate], true, |s| {
                (s == Step::Reissue {
                    attempt: 2,
                    budget: 3,
                })
                .then_some(7)
            });
        assert_eq!(verdict, Verdict::Recovered(7));
        assert_eq!(seen.len(), 2, "no re-issue after the one that succeeded");
        assert_eq!(
            (c.retries, c.exhausted, c.masked, c.propagates),
            (2, 0, 1, 0)
        );
        assert!(klog.contains("policy action retry: data read 4 re-issue 2/3"));
    }

    #[test]
    fn backoff_is_charged_once_per_reissue() {
        let (_, _, c, clock, _) = walk_chain(vec![RETRY3], true, |_| None);
        assert_eq!(clock.now_ns(), 1_000 + 2_000 + 4_000);
        assert_eq!(c.backoff_ns, 7_000);
        // A masked fault pays only for the re-issues it needed.
        let (_, _, c, clock, _) = walk_chain(vec![RETRY3], true, |_| Some(0));
        assert_eq!(clock.now_ns(), 1_000);
        assert_eq!(c.backoff_ns, 1_000);
    }

    #[test]
    fn chain_without_a_terminal_rung_propagates_and_says_so() {
        for chain in [vec![], vec![RETRY3], vec![RecoveryAction::Redundancy]] {
            let (verdict, _, c, _, klog) = walk_chain(chain, true, |_| None);
            assert_eq!(verdict, Verdict::Propagate);
            assert_eq!(c.propagates, 1, "counted like an explicit Propagate rung");
            assert!(klog.contains("policy action propagate: data read 4"));
        }
    }

    #[test]
    fn redundancy_recovers_and_degrade_needs_a_mount() {
        let chain = vec![RecoveryAction::Redundancy, RecoveryAction::DegradeReadOnly];
        let (verdict, _, c, _, _) = walk_chain(chain.clone(), true, |_| Some(9));
        assert_eq!(verdict, Verdict::Recovered(9));
        assert_eq!(c.redundancy, 1);

        let (verdict, _, c, _, _) = walk_chain(chain.clone(), true, |_| None);
        assert_eq!(verdict, Verdict::Degrade);
        assert_eq!((c.degrades, c.propagates), (0, 0), "the enactor counts it");

        // A device layer skips the rung and hands the error up.
        let (verdict, _, c, _, _) = walk_chain(chain, false, |_| None);
        assert_eq!(verdict, Verdict::Propagate);
        assert_eq!(c.propagates, 1);
    }
}
