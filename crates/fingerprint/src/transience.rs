//! The fault-**transience** axis of the campaign: sticky vs transient vs
//! slow faults, driven through the policy-equipped device stack.
//!
//! The Figure 2 campaign asks *which block types* a file system protects;
//! this axis asks *how persistent a fault must be* before the protection
//! gives out. Each cell injects a read-path fault of a chosen transience
//! (sticky, transient-*n*, or a latency fault that only a deadline check
//! can see) beneath a [`iron_blockdev::RetryLayer`] enacting the failure
//! policy, then compares the run against a fault-free reference:
//!
//! * a **transient** fault of budget-reachable depth must be fully masked
//!   at the device level — the file system never sees it;
//! * a **sticky** fault exhausts the budget and propagates;
//! * a **slow** fault ("fail-stutter") trips the I/O deadline and
//!   surfaces as [`iron_blockdev::DiskError::Timeout`], a distinct error
//!   class the policy table can route differently.
//!
//! This is an *axis* of the one campaign driver ([`crate::campaign`]): it
//! contributes its panel values, its device stack and its cell type, and
//! inherits the arming discipline, the references and the sharded keyed
//! merge — so the matrix is **bit-identical** at any thread count.

use std::collections::HashMap;
use std::fmt;

use iron_blockdev::{MemDisk, RetryConfig, RetryStatsSnapshot, StackBuilder};
use iron_core::recover::{
    Backoff, FailurePolicyTable, PolicyCounterSnapshot, PolicyHandle, RecoveryAction,
};
use iron_core::{BlockTag, FaultKind};
use iron_faultinject::{FaultSpec, FaultStackExt, FaultTarget};
use iron_vfs::MountState;

use crate::adapters::FsUnderTest;
use crate::campaign::{drive, run_cell, CellRun};
use crate::workloads::Workload;

/// Service-time multiplier for the slow axis: with the nominal latency
/// charge of [`iron_faultinject::SLOW_NOMINAL_NS`] (100 µs), a ×64 fault
/// charges 6.3 ms — far past the default 1 ms deadline, so every access
/// surfaces as a timeout rather than completing quietly late.
pub const SLOW_MULTIPLIER: u32 = 64;

/// How persistent the injected fault is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultTransience {
    /// The fault fires on every access, forever.
    Sticky,
    /// The fault clears after `n` failures (disk recovered, path rerouted).
    Transient(u32),
    /// The access *succeeds*, but takes [`SLOW_MULTIPLIER`]× the nominal
    /// service time — only an I/O deadline turns this into an error.
    Slow,
}

impl FaultTransience {
    /// The default axis: sticky, budget-reachable transient, and slow.
    pub const ALL: [FaultTransience; 3] = [
        FaultTransience::Sticky,
        FaultTransience::Transient(2),
        FaultTransience::Slow,
    ];

    /// The read-path fault specification aimed at `tag`, anchored on the
    /// first matching access (as in the Figure 2 campaign).
    pub fn spec(&self, tag: BlockTag) -> FaultSpec {
        let target = FaultTarget::TagNth { tag, nth: 0 };
        match *self {
            FaultTransience::Sticky => FaultSpec::sticky(FaultKind::ReadError, target),
            FaultTransience::Transient(n) => FaultSpec::transient(FaultKind::ReadError, target, n),
            FaultTransience::Slow => FaultSpec::sticky(
                FaultKind::Slow {
                    multiplier: SLOW_MULTIPLIER,
                },
                target,
            ),
        }
    }
}

impl fmt::Display for FaultTransience {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTransience::Sticky => write!(f, "sticky"),
            FaultTransience::Transient(n) => write!(f, "transient-{n}"),
            FaultTransience::Slow => write!(f, "slow"),
        }
    }
}

/// Options for a transience campaign.
#[derive(Clone, Debug)]
pub struct TransienceOptions {
    /// Workload columns to run.
    pub workloads: Vec<Workload>,
    /// Row filter: only these tags (empty = all rows).
    pub rows: Vec<BlockTag>,
    /// Transience panels to run.
    pub transiences: Vec<FaultTransience>,
    /// Retry budget of the device-level policy (total attempts per
    /// request ≤ 1 + budget).
    pub retry_budget: u32,
    /// Per-request I/O deadline in sim ns.
    pub deadline_ns: u64,
    /// Worker threads; `0` means one per hardware thread. The matrix is
    /// bit-identical at any width.
    pub threads: usize,
}

impl Default for TransienceOptions {
    fn default() -> Self {
        TransienceOptions {
            workloads: Workload::COLUMNS.to_vec(),
            rows: Vec::new(),
            transiences: FaultTransience::ALL.to_vec(),
            retry_budget: 3,
            deadline_ns: 1_000_000,
            threads: 0,
        }
    }
}

impl TransienceOptions {
    /// The same options at an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The device-level policy every cell's [`iron_blockdev::RetryLayer`]
    /// enacts: bounded retry with deterministic exponential backoff, then
    /// propagation to the file system.
    pub fn device_policy(&self) -> PolicyHandle {
        PolicyHandle::new(FailurePolicyTable::with_default(vec![
            RecoveryAction::Retry {
                budget: self.retry_budget,
                backoff: Backoff::exponential(1_000, 2, 1_000_000),
            },
            RecoveryAction::Propagate,
        ]))
    }
}

/// One transience cell: how the stack disposed of the fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransienceCell {
    /// Whether the run's observable output matched the fault-free
    /// reference — i.e. the fault was fully masked below the API.
    pub matches_reference: bool,
    /// The device-level retry layer's counters for this run.
    pub retry: RetryStatsSnapshot,
    /// The policy engine's per-action counters for this run.
    pub policy: PolicyCounterSnapshot,
    /// The mount state the run ended in.
    pub final_state: MountState,
}

/// A (transience × block type × workload) matrix for one file system.
pub struct TransienceMatrix {
    /// File-system name.
    pub fs_name: &'static str,
    /// Row tags (block types).
    pub rows: Vec<BlockTag>,
    /// Column workloads.
    pub cols: Vec<Workload>,
    /// Transience panels.
    pub transiences: Vec<FaultTransience>,
    /// `cells[(transience, row, col)]`: `None` = fault never fired (gray).
    pub cells: HashMap<(usize, usize, usize), Option<TransienceCell>>,
    /// Cells where the fault fired.
    pub relevant: usize,
}

impl TransienceMatrix {
    /// The cell for (transience index, row index, col index).
    pub fn cell(&self, tr: usize, row: usize, col: usize) -> Option<TransienceCell> {
        self.cells.get(&(tr, row, col)).copied().flatten()
    }
}

/// One transience cell (or, with no fault, a reference run) over the
/// policy-equipped Figure 1 stack: snapshot, clock-attached fault layer,
/// retry/deadline layer, write-through cache. All three share the
/// snapshot's clock, so latency faults are visible to the deadline check
/// and backoff charges land on the same timeline.
fn run_one(
    adapter: &dyn FsUnderTest,
    golden: &MemDisk,
    w: Workload,
    fault: Option<(FaultTransience, BlockTag)>,
    opts: &TransienceOptions,
) -> CellRun<(RetryStatsSnapshot, PolicyCounterSnapshot)> {
    let spec = fault.map(|(tr, tag)| tr.spec(tag));
    run_cell(w, spec, 1, &[0], |plans, env| {
        let snap = golden.snapshot();
        let clock = snap.clock();
        let policy = opts.device_policy();
        let dev = StackBuilder::new(snap)
            .with_timed_faults(plans[0].clone(), clock.clone())
            .with_retry(
                RetryConfig::new(policy.clone(), clock)
                    .deadline_ns(opts.deadline_ns)
                    .with_klog(env.klog.clone()),
            )
            .write_through()
            .build();
        let stats = dev.inner().stats();
        let trace = dev.inner().inner().log();
        let post = move |_| (stats.snapshot(), policy.counters().snapshot());
        (adapter.mount_retry(dev, env.clone()), trace, post)
    })
}

/// Run the (transience × row × workload) campaign for one file system —
/// the bit-identical [`TransienceMatrix`] at any
/// [`TransienceOptions::threads`].
pub fn transience_matrix(adapter: &dyn FsUnderTest, opts: &TransienceOptions) -> TransienceMatrix {
    let (rows, cells) = drive(
        adapter,
        &opts.rows,
        &opts.workloads,
        &opts.transiences,
        opts.threads,
        |golden, w, fault| run_one(adapter, golden, w, fault, opts),
        |_, r, reference| {
            r.fired.then(|| TransienceCell {
                matches_reference: r.mount_error.is_none() && r.output == *reference,
                retry: r.extra.0,
                policy: r.extra.1,
                final_state: r.final_state,
            })
        },
    );
    TransienceMatrix {
        fs_name: adapter.name(),
        rows,
        cols: opts.workloads.clone(),
        transiences: opts.transiences.clone(),
        relevant: cells.values().flatten().count(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::Ext3Adapter;

    fn small(transiences: Vec<FaultTransience>, budget: u32) -> TransienceOptions {
        TransienceOptions {
            workloads: vec![Workload::Read],
            rows: vec![BlockTag("data")],
            transiences,
            retry_budget: budget,
            ..TransienceOptions::default()
        }
    }

    #[test]
    fn transient_fault_within_budget_is_masked_at_device_level() {
        let opts = small(vec![FaultTransience::Transient(2)], 3);
        let m = transience_matrix(&Ext3Adapter::stock(), &opts);
        let cell = m.cell(0, 0, 0).expect("fault fires");
        assert!(cell.matches_reference, "fault fully masked below the API");
        assert!(cell.retry.masked >= 1, "device-level re-issue succeeded");
        assert_eq!(cell.retry.propagated, 0, "nothing escaped to the FS");
        assert_eq!(cell.final_state, MountState::ReadWrite);
    }

    #[test]
    fn sticky_fault_exhausts_the_budget_and_propagates() {
        let opts = small(vec![FaultTransience::Sticky], 2);
        let m = transience_matrix(&Ext3Adapter::stock(), &opts);
        let cell = m.cell(0, 0, 0).expect("fault fires");
        assert!(!cell.matches_reference, "a sticky data fault is visible");
        assert_eq!(cell.retry.masked, 0);
        assert!(cell.retry.propagated >= 1);
        assert!(cell.policy.exhausted >= 1, "the budget ran out");
        assert!(
            cell.retry.attempts >= cell.retry.ops + 2,
            "the budget's re-issues were actually spent"
        );
    }

    #[test]
    fn slow_fault_surfaces_as_deadline_timeouts() {
        let opts = small(vec![FaultTransience::Slow], 2);
        let m = transience_matrix(&Ext3Adapter::stock(), &opts);
        let cell = m.cell(0, 0, 0).expect("fault fires");
        assert!(cell.retry.timeouts >= 1, "slowness became a timeout");
        assert!(
            !cell.matches_reference,
            "a persistently slow block is visible through the deadline"
        );
    }

    /// The full cross product over every row and column, stock and ixt3 —
    /// the `IRON_STRESS=1` CI lane runs this with `--ignored`.
    #[test]
    #[ignore = "full transience cross product; run via the IRON_STRESS=1 lane"]
    fn full_transience_campaign_is_deterministic_stress() {
        for adapter in [Ext3Adapter::stock(), Ext3Adapter::ixt3()] {
            let opts = TransienceOptions::default();
            let a = transience_matrix(&adapter, &opts.clone().with_threads(1));
            let b = transience_matrix(&adapter, &opts.clone().with_threads(4));
            assert_eq!(a.cells, b.cells, "{}: 1 vs 4 threads", a.fs_name);
            assert_eq!(a.relevant, b.relevant);
            assert!(
                a.relevant > 20,
                "{}: axis must be widely relevant",
                a.fs_name
            );
        }
    }
}
