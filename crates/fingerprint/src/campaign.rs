//! The campaign driver, and the fault-mode axis it was written for.
//!
//! §4.4: "Our workload suite contains roughly 30 programs, each file
//! system has on the order of 10 to 20 different block types, and each
//! block can be failed on a read or a write or have its data corrupted.
//! For each file system, this amounts to roughly 400 relevant tests."
//! The campaign runs the full cross product; cells whose fault never
//! fires are the gray "not applicable" cells of Figure 2.
//!
//! The paper's method is one loop, and so is this module: [`run_cell`]
//! does *inject → build stack over a golden snapshot → mount → arm → run →
//! observe* for a single cell, and [`drive`] does *filter rows → goldens →
//! fault-free references → (panel × row × workload) cross product → shard
//! → merge by key* for a whole matrix. An axis — [`FaultMode`] here,
//! [`crate::transience`] and [`crate::cluster`] next door — supplies only
//! its panel values and fault specs, the closure that builds its device
//! stack, and the closure that turns a finished run into its cell type.
//!
//! Every cell is an independent snapshot–mount–run with its own fault
//! plans and [`FsEnv`], so the cross product is embarrassingly parallel:
//! [`drive`] shards it over [`iron_core::exec::WorkerPool`], workers fold
//! finished cells into per-shard vectors keyed by `(panel, row, col)`, and
//! the merge inserts them by key — the result is *bit-identical* to the
//! sequential run at any thread count (pinned by
//! `tests::every_axis_is_bit_identical_at_any_thread_count` and the
//! property suite).

use std::collections::HashMap;

use iron_blockdev::{IoEvent, IoTrace, MemDisk, StackBuilder};
use iron_core::exec::WorkerPool;
use iron_core::klog::LogEntry;
use iron_core::model::CorruptionStyle;
use iron_core::policy::PolicyCell;
use iron_core::{BlockAddr, BlockTag, FaultKind};
use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget};
use iron_vfs::{FsEnv, MountState, SpecificFs, Vfs, VfsError, VfsResult};

use crate::adapters::FsUnderTest;
use crate::observe::{infer, Observation};
use crate::workloads::{run, Workload, WorkloadOutput};

/// The three fault modes of §4.2: block failure on read, block failure on
/// write, and block corruption (on read).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FaultMode {
    /// Latent sector error on read.
    ReadError,
    /// Failed write.
    WriteError,
    /// Silent corruption (random noise), returned on read.
    Corruption,
    /// Transient read error (clears after one failure) — supplementary
    /// mode, not a Figure 2 panel; used by the §6.2 scenario sweep.
    TransientRead,
    /// Silent corruption manifesting as a zeroed block (lost write) —
    /// supplementary mode for the §6.2 scenario sweep.
    ZeroCorruption,
}

impl FaultMode {
    /// All modes, in Figure 2's panel order.
    pub const ALL: [FaultMode; 3] = [
        FaultMode::ReadError,
        FaultMode::WriteError,
        FaultMode::Corruption,
    ];

    /// The fault kind to inject.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultMode::ReadError | FaultMode::TransientRead => FaultKind::ReadError,
            FaultMode::WriteError => FaultKind::WriteError,
            FaultMode::Corruption => FaultKind::Corruption(CorruptionStyle::RandomNoise),
            FaultMode::ZeroCorruption => FaultKind::Corruption(CorruptionStyle::Zeroed),
        }
    }

    /// The full fault specification aimed at `tag`: sticky and anchored on
    /// the first matching access (fail *a* block of the type, not all of
    /// them), except the transient mode which clears after one failure.
    pub fn spec(&self, tag: BlockTag) -> FaultSpec {
        let target = FaultTarget::TagNth { tag, nth: 0 };
        match self {
            FaultMode::TransientRead => FaultSpec::transient(self.kind(), target, 1),
            _ => FaultSpec::sticky(self.kind(), target),
        }
    }

    /// Panel title, as in Figure 2.
    pub fn title(&self) -> &'static str {
        match self {
            FaultMode::ReadError => "Read Failure",
            FaultMode::WriteError => "Write Failure",
            FaultMode::Corruption => "Corruption",
            FaultMode::TransientRead => "Transient Read Failure",
            FaultMode::ZeroCorruption => "Corruption (zeroed)",
        }
    }
}

/// Options restricting a campaign (tests use subsets; the figure binaries
/// run everything).
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Fault modes to run.
    pub modes: Vec<FaultMode>,
    /// Workload columns to run.
    pub workloads: Vec<Workload>,
    /// Row filter: only these tags (empty = all rows).
    pub rows: Vec<BlockTag>,
    /// Worker threads the cell cross product is sharded over; `0` means
    /// one per hardware thread. The matrix is bit-identical at any width,
    /// so this is purely a wall-clock knob.
    pub threads: usize,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            modes: FaultMode::ALL.to_vec(),
            workloads: Workload::COLUMNS.to_vec(),
            rows: Vec::new(),
            threads: 0,
        }
    }
}

impl CampaignOptions {
    /// The same options at an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A Figure 2/3-style policy matrix for one file system.
pub struct PolicyMatrix {
    /// File-system name.
    pub fs_name: &'static str,
    /// Row tags (block types).
    pub rows: Vec<BlockTag>,
    /// Column workloads.
    pub cols: Vec<Workload>,
    /// Fault modes (panels).
    pub modes: Vec<FaultMode>,
    /// `cells[(mode, row, col)]`: `None` = fault never fired (gray).
    pub cells: HashMap<(usize, usize, usize), Option<PolicyCell>>,
    /// Total cells where the fault fired (the "relevant tests" count).
    pub relevant: usize,
}

impl PolicyMatrix {
    /// The cell for (mode index, row index, col index).
    pub fn cell(&self, mode: usize, row: usize, col: usize) -> Option<PolicyCell> {
        self.cells.get(&(mode, row, col)).copied().flatten()
    }
}

/// Everything one cell's run left behind. The observation fields are
/// captured while the file system is still mounted, *before* the axis's
/// post-run hook touches the stack, so unmount or repair I/O can never
/// leak into inference.
pub(crate) struct CellRun<X> {
    pub fired: bool,
    /// The address the first fired fault anchored on.
    pub anchor: Option<BlockAddr>,
    /// Mount failures appear as a `mount:` step.
    pub output: WorkloadOutput,
    pub mount_error: Option<VfsError>,
    pub final_state: MountState,
    pub klog: Vec<LogEntry>,
    pub trace: Vec<IoEvent>,
    /// Whatever the axis's post-run hook returned.
    pub extra: X,
}

impl<X> CellRun<X> {
    /// Classify this run against its fault-free `reference` (§4.3).
    pub fn infer(self, mode: FaultMode, reference: &WorkloadOutput) -> Option<PolicyCell> {
        infer(&Observation {
            mode,
            fired: self.fired,
            anchor: self.anchor,
            reference: reference.clone(),
            faulty: self.output,
            mount_error: self.mount_error,
            final_state: self.final_state,
            klog: self.klog,
            trace: self.trace,
        })
    }
}

/// Run one cell: the single snapshot → mount → arm → run → observe loop
/// every axis rides.
///
/// `spec` (none for a reference run) is injected into the plans of the
/// `faulted` replicas, out of `replicas` fresh fault plans — one per
/// replica on the cluster axis, one otherwise. `build` stamps the golden
/// snapshot, stacks the axis's device layers over the plans and mounts; it
/// hands back the trace to observe and the axis's post-run hook, which
/// receives the still-mounted file system (absent if the mount failed)
/// once the observation is captured.
pub(crate) fn run_cell<F: SpecificFs, P: FnOnce(Option<Vfs<F>>) -> X, X>(
    w: Workload,
    spec: Option<FaultSpec>,
    replicas: usize,
    faulted: &[usize],
    build: impl FnOnce(&[FaultPlan], &FsEnv) -> (VfsResult<F>, IoTrace, P),
) -> CellRun<X> {
    // Special workloads need the fault live during mount; plain workloads
    // arm it afterwards so mount-time accesses (superblock, journal
    // superblock, checksum table) don't eat the fault meant for the
    // workload. One stable FaultId is disarmed across mount and re-armed
    // for the workload proper — disarmed faults see no accesses, so
    // `TagNth` counting starts at the re-arm, and `fired`/`anchor` are
    // read from the same entry no matter which path the run took.
    let special = w.is_special();
    let plans: Vec<FaultPlan> = (0..replicas).map(|_| FaultPlan::new()).collect();
    let mut ids = Vec::new();
    // FaultIds are plan-scoped: each faulted replica gets its own injection
    // of the spec (a reference run has none), with independent TagNth counting.
    for (&ri, spec) in faulted.iter().zip(spec.iter().cycle()) {
        let ctl = plans[ri].controller();
        let id = ctl.inject(*spec);
        if !special {
            ctl.disarm(id);
        }
        ids.push((ctl, id));
    }

    let env = FsEnv::new();
    let (mounted, trace, post) = build(&plans, &env);
    let mut output = WorkloadOutput::default();
    let (vfs, mount_error) = match mounted {
        Ok(fs) => {
            let mut v = Vfs::new(fs);
            output.steps.push("mount:ok".into());
            if !special {
                ids.iter().for_each(|(ctl, id)| ctl.arm(*id));
            }
            let out = run(w, &mut v, Some(&trace));
            output.steps.extend(out.steps);
            output.step_trace_marks = out.step_trace_marks;
            (Some(v), None)
        }
        Err(e) => {
            output.note("mount", Err(e.clone()));
            (None, Some(e))
        }
    };

    // Fields are evaluated in order: `post` runs last, on a captured observation.
    CellRun {
        fired: ids.iter().any(|(ctl, id)| ctl.fired(*id)),
        anchor: ids.iter().find_map(|(ctl, id)| ctl.anchor(*id)),
        output,
        mount_error,
        final_state: env.state(),
        klog: env.klog.entries(),
        trace: trace.events(),
        extra: post(vfs),
    }
}

/// One entry of a campaign's flattened cross product: `(panel, row, col)`.
pub(crate) type CellKey = (usize, usize, usize);

/// Drive one campaign: every `(panel × row × workload)` cell of `adapter`,
/// as the filtered row list plus the cells by key (`None` = gray).
///
/// `run` executes one cell over the golden image it is handed — with a
/// fault, or with `None` for the fault-free reference of a workload —
/// and `classify` turns a faulty run plus its workload's reference output
/// into the axis's cell type. Cells are sharded over `threads` workers
/// (`0` = one per hardware thread) and merged by their unique key, so the
/// result does not depend on scheduling.
pub(crate) fn drive<P: Copy + Sync, X, C: Send>(
    adapter: &dyn FsUnderTest,
    row_filter: &[BlockTag],
    cols: &[Workload],
    panels: &[P],
    threads: usize,
    run: impl Fn(&MemDisk, Workload, Option<(P, BlockTag)>) -> CellRun<X> + Sync,
    classify: impl Fn(P, CellRun<X>, &WorkloadOutput) -> Option<C> + Sync,
) -> (Vec<BlockTag>, HashMap<CellKey, Option<C>>) {
    let mut rows = adapter.rows();
    if !row_filter.is_empty() {
        rows.retain(|t| row_filter.contains(t));
    }
    let pool = WorkerPool::sized(threads);

    // Golden images: one clean, one with a dirty journal. Workers snapshot
    // them read-only, so one pair serves every cell.
    let golden_clean = adapter.golden(false);
    let golden_dirty = adapter.golden(true);
    let golden_for = |w: Workload| {
        if w == Workload::Recovery {
            &golden_dirty
        } else {
            &golden_clean
        }
    };

    // Reference runs (fault-free, through the axis's own stack), one per
    // workload — independent of each other, and each a whole mount-and-run,
    // so they are claimed one at a time and keyed by workload.
    let references: HashMap<Workload, WorkloadOutput> = pool.shard_fine(
        cols,
        |acc: &mut HashMap<Workload, WorkloadOutput>, &w| {
            acc.insert(w, run(golden_for(w), w, None).output);
        },
        |out, shard| out.extend(shard),
    );

    // The flattened cross product, in deterministic (panel, row, col) order.
    let mut todo: Vec<(CellKey, P, BlockTag, Workload)> = Vec::new();
    for (pi, &panel) in panels.iter().enumerate() {
        for (ri, &tag) in rows.iter().enumerate() {
            for (ci, &w) in cols.iter().enumerate() {
                todo.push(((pi, ri, ci), panel, tag, w));
            }
        }
    }

    // Shard the cells: each worker folds finished cells into a private
    // vector; the barrier merge appends them. Keys are unique, so the
    // final keyed insertion is order-independent.
    let done: Vec<(CellKey, Option<C>)> = pool.shard(
        &todo,
        |acc: &mut Vec<(CellKey, Option<C>)>, &(key, panel, tag, w)| {
            let r = run(golden_for(w), w, Some((panel, tag)));
            acc.push((key, classify(panel, r, &references[&w])));
        },
        |out, shard| out.extend(shard),
    );
    (rows, done.into_iter().collect())
}

/// One Figure 2 cell (or, with no fault, a reference run) over the
/// Figure 1 stack: snapshot, fault layer, write-through cache.
fn run_one(
    adapter: &dyn FsUnderTest,
    golden: &MemDisk,
    w: Workload,
    fault: Option<(FaultMode, BlockTag)>,
) -> CellRun<()> {
    let spec = fault.map(|(mode, tag)| mode.spec(tag));
    run_cell(w, spec, 1, &[0], |plans, env| {
        let dev = StackBuilder::new(golden.snapshot())
            .with_faults(plans[0].clone())
            .write_through()
            .build();
        let trace = dev.inner().trace();
        (adapter.mount(dev, env.clone()), trace, |_| ())
    })
}

/// Fingerprint one file system: drive the (mode × row × workload)
/// campaign and build its matrix — the bit-identical [`PolicyMatrix`] at
/// any [`CampaignOptions::threads`].
pub fn fingerprint_fs(adapter: &dyn FsUnderTest, opts: &CampaignOptions) -> PolicyMatrix {
    let (rows, cells) = drive(
        adapter,
        &opts.rows,
        &opts.workloads,
        &opts.modes,
        opts.threads,
        |golden, w, fault| run_one(adapter, golden, w, fault),
        |mode, r, reference| r.infer(mode, reference),
    );
    PolicyMatrix {
        fs_name: adapter.name(),
        rows,
        cols: opts.workloads.clone(),
        modes: opts.modes.clone(),
        relevant: cells.values().flatten().count(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::Ext3Adapter;
    use crate::cluster::{fingerprint_cluster, ClusterCampaignOptions, ReplicaTopology};
    use crate::transience::{transience_matrix, TransienceOptions};
    use iron_core::{DetectionLevel, RecoveryLevel};
    use std::fmt::Debug;
    use std::hash::Hash;

    /// `run(threads)` yields an axis's `(cells, relevant)`; both must not
    /// depend on the worker count.
    fn assert_thread_invariant<K: Eq + Hash + Debug, C: PartialEq + Debug>(
        axis: &str,
        run: impl Fn(usize) -> (HashMap<K, Option<C>>, usize),
    ) {
        let (cells1, relevant1) = run(1);
        assert!(relevant1 > 0, "{axis}: the mini-campaign must fire");
        for threads in [2, 4, 8] {
            let (cells, relevant) = run(threads);
            assert_eq!(cells1, cells, "{axis}: 1 vs {threads} threads");
            assert_eq!(relevant1, relevant, "{axis}: 1 vs {threads} threads");
        }
    }

    /// All three axes ride the same sharded, keyed-merge driver, so every
    /// matrix is bit-identical at any thread count.
    #[test]
    fn every_axis_is_bit_identical_at_any_thread_count() {
        let stock = Ext3Adapter::stock();
        let rows = vec![BlockTag("data"), BlockTag("inode")];
        let workloads = vec![Workload::Read, Workload::Write];
        assert_thread_invariant("fault mode", |threads| {
            let opts = CampaignOptions {
                workloads: workloads.clone(),
                rows: rows.clone(),
                ..CampaignOptions::default()
            };
            let m = fingerprint_fs(&stock, &opts.with_threads(threads));
            (m.cells, m.relevant)
        });
        assert_thread_invariant("transience", |threads| {
            let opts = TransienceOptions {
                workloads: workloads.clone(),
                rows: rows.clone(),
                ..TransienceOptions::default()
            };
            let m = transience_matrix(&stock, &opts.with_threads(threads));
            (m.cells, m.relevant)
        });
        assert_thread_invariant("cluster", |threads| {
            let opts = ClusterCampaignOptions {
                topologies: vec![ReplicaTopology::ALL[1], ReplicaTopology::ALL[3]],
                modes: vec![FaultMode::ReadError, FaultMode::Corruption],
                workloads: vec![Workload::Read],
                rows: rows.clone(),
                threads,
            };
            let m = fingerprint_cluster(&stock, &opts);
            assert!(!m.summary().is_empty());
            (m.cells, m.relevant)
        });
    }

    /// A focused mini-campaign: ext3, inode+data rows, a few columns.
    #[test]
    fn mini_campaign_reproduces_known_ext3_cells() {
        let opts = CampaignOptions {
            modes: vec![FaultMode::ReadError, FaultMode::WriteError],
            workloads: vec![Workload::Read, Workload::Write, Workload::AccessFamily],
            rows: vec![BlockTag("inode"), BlockTag("data")],
            ..CampaignOptions::default()
        };
        let m = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        assert_eq!(m.rows.len(), 2);

        // data × read × ReadError: DErrorCode, RPropagate + RRetry.
        let data_row = m.rows.iter().position(|t| t.0 == "data").unwrap();
        let read_col = m.cols.iter().position(|w| *w == Workload::Read).unwrap();
        let cell = m.cell(0, data_row, read_col).expect("fault fires");
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RPropagate));
        assert!(cell.recovery.contains(RecoveryLevel::RRetry));

        // inode × read-workload × ReadError: DErrorCode, RPropagate+RStop.
        let inode_row = m.rows.iter().position(|t| t.0 == "inode").unwrap();
        let cell = m.cell(0, inode_row, read_col).expect("fault fires");
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));

        // data × write-workload × WriteError: the paper's headline ext3
        // bug — DZero/RZero.
        let write_col = m.cols.iter().position(|w| *w == Workload::Write).unwrap();
        let cell = m.cell(1, data_row, write_col).expect("fault fires");
        assert!(cell.detection.contains(DetectionLevel::DZero));
        assert!(cell.recovery.contains(RecoveryLevel::RZero));
    }

    #[test]
    fn gray_cells_for_inapplicable_combinations() {
        // A journal-commit write fault cannot fire during a pure read
        // workload (nothing commits).
        let opts = CampaignOptions {
            modes: vec![FaultMode::WriteError],
            workloads: vec![Workload::Read],
            rows: vec![BlockTag("j-commit")],
            ..CampaignOptions::default()
        };
        let m = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        assert_eq!(m.cell(0, 0, 0), None, "cell must be gray");
        assert_eq!(m.relevant, 0);
    }

    #[test]
    fn log_writes_column_reaches_journal_types() {
        let opts = CampaignOptions {
            modes: vec![FaultMode::WriteError],
            workloads: vec![Workload::LogWrites],
            rows: vec![BlockTag("j-desc"), BlockTag("j-commit"), BlockTag("j-data")],
            ..CampaignOptions::default()
        };
        let m = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        for ri in 0..3 {
            let cell = m.cell(0, ri, 0);
            assert!(cell.is_some(), "row {} should fire", m.rows[ri]);
            // Stock ext3 ignores journal write errors (logged but
            // committed anyway) — detection happens (a warning is logged)
            // but no stop occurs.
            let cell = cell.unwrap();
            assert!(
                !cell.recovery.contains(RecoveryLevel::RStop),
                "stock ext3 must not stop on journal write failure (PAPER-BUG)"
            );
        }
    }

    /// Regression test for the fault re-arm fix: a fault that fires
    /// *during a failed mount* must still report `fired`/`anchor`. The old
    /// code cleared the plan and re-injected under a hardcoded
    /// `FaultId(0)`, which read the wrong entry on the mount-error path;
    /// `run_one` now keeps one stable id across disarm/arm.
    #[test]
    fn fault_during_failed_mount_records_fired_and_anchor() {
        let adapter = Ext3Adapter::stock();
        let golden = adapter.golden(false);
        let r = run_one(
            &adapter,
            &golden,
            Workload::Mount,
            Some((FaultMode::ReadError, BlockTag("super"))),
        );
        assert!(
            r.mount_error.is_some(),
            "a superblock read error must fail the mount"
        );
        assert!(r.fired, "the fault fired even though mount failed");
        assert!(r.anchor.is_some(), "anchor recorded from the stable id");

        // And the matrix records the cell as relevant, not gray.
        let opts = CampaignOptions {
            modes: vec![FaultMode::ReadError],
            workloads: vec![Workload::Mount],
            rows: vec![BlockTag("super")],
            ..CampaignOptions::default()
        };
        let m = fingerprint_fs(&adapter, &opts);
        assert!(m.cell(0, 0, 0).is_some(), "failed-mount cell must fire");
        assert_eq!(m.relevant, 1);
    }

    /// The supplementary §6.2 modes (transient read, zeroed corruption)
    /// must be as deterministic as the Figure 2 panels: two runs of the
    /// same campaign produce identical matrices.
    #[test]
    fn supplementary_modes_are_deterministic() {
        let opts = CampaignOptions {
            modes: vec![FaultMode::TransientRead, FaultMode::ZeroCorruption],
            workloads: vec![Workload::Read, Workload::Write],
            rows: vec![BlockTag("inode"), BlockTag("data")],
            ..CampaignOptions::default()
        };
        let a = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        let b = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        assert_eq!(a.cells, b.cells, "repeat runs must be bit-identical");
        assert_eq!(a.relevant, b.relevant);
        assert!(a.relevant > 0, "the supplementary modes must fire");
    }

    #[test]
    fn recovery_column_exercises_journal_reads() {
        let opts = CampaignOptions {
            modes: vec![FaultMode::ReadError],
            workloads: vec![Workload::Recovery],
            rows: vec![BlockTag("j-data")],
            ..CampaignOptions::default()
        };
        let m = fingerprint_fs(&Ext3Adapter::stock(), &opts);
        let cell = m.cell(0, 0, 0).expect("replay reads journal data");
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));
    }
}
