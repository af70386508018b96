//! The cross-replica fault campaign: the Figure 2 policy matrix gains a
//! **replica-fault topology** axis.
//!
//! The paper's campaign asks *"how does the file system react when its
//! one disk fails?"*. Stacking the same type-aware fault injector under
//! each replica of an [`iron_cluster::ReplicatedDisk`] asks the
//! storage-system question instead: *which single-disk reactions
//! disappear once a quorum of peers can arbitrate, and which fault
//! topologies still defeat the cluster?* Each campaign cell becomes
//! (topology × fault mode × block type × workload): the fault is injected
//! on a chosen subset of replicas — primary only, a quorum minority, a
//! quorum majority, transient — and the run records both the file
//! system's policy reaction (same [`infer`] vocabulary as Figure 2) and
//! the cluster-tier outcome: did quorum arbitration detect the
//! divergence, was the fault masked from the file system entirely, and
//! did peer repair converge the replicas afterwards?
//!
//! This is an *axis* of the one campaign driver ([`crate::campaign`]): a
//! panel is a (topology, fault mode) pair with one fault plan per replica,
//! the stack is a write-through cache over a quorum-read mirror of the
//! golden image, and the repair/convergence pass is the driver's post-run
//! hook — it runs only after the file-system observation is captured, so
//! `fs_cell` at topology `single` is exactly the Figure 2 cell.

use std::collections::HashMap;

use iron_blockdev::{BufferCache, MemDisk, StackBuilder};
use iron_cluster::{mirror_with, ReadPolicy, ReplicatedDisk};
use iron_core::policy::PolicyCell;
use iron_core::BlockTag;
use iron_ext3::Ext3Fs;
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::Vfs;

use crate::adapters::{Ext3Adapter, FsUnderTest};
use crate::campaign::{drive, run_cell, CellRun, FaultMode};
use crate::workloads::Workload;

/// One point on the campaign's replica-fault axis: how many replicas the
/// volume has and which of them carry the injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ReplicaTopology {
    /// Display name.
    pub name: &'static str,
    /// Replica count.
    pub replicas: usize,
    /// Replica indices carrying the fault.
    pub faulted: &'static [usize],
    /// Override the mode's transience: the fault clears after one firing
    /// (models a transient per-replica hiccup rather than a bad medium).
    pub transient: bool,
}

impl ReplicaTopology {
    /// The standard axis: the single-disk baseline, a fault on the
    /// primary of three, on a quorum minority, on a quorum majority, and
    /// a transient primary fault.
    pub const ALL: [ReplicaTopology; 5] = [
        ReplicaTopology {
            name: "single",
            replicas: 1,
            faulted: &[0],
            transient: false,
        },
        ReplicaTopology {
            name: "primary-of-3",
            replicas: 3,
            faulted: &[0],
            transient: false,
        },
        ReplicaTopology {
            name: "minority-of-3",
            replicas: 3,
            faulted: &[2],
            transient: false,
        },
        ReplicaTopology {
            name: "majority-of-3",
            replicas: 3,
            faulted: &[0, 1],
            transient: false,
        },
        ReplicaTopology {
            name: "transient-primary",
            replicas: 3,
            faulted: &[0],
            transient: true,
        },
    ];
}

/// One cluster-campaign cell: the file system's policy reaction plus the
/// cluster-tier verdict.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusterCell {
    /// The fault fired on at least one faulted replica.
    pub fired: bool,
    /// The single-disk policy inference for this run (what the *file
    /// system* was observed doing) — `None` when its observable output
    /// was indistinguishable from the fault-free reference.
    pub fs_cell: Option<PolicyCell>,
    /// The workload's observable output matched the fault-free reference:
    /// the cluster masked the fault completely.
    pub masked: bool,
    /// Mount failed under this fault.
    pub mount_failed: bool,
    /// Divergences the quorum read path detected during the run.
    pub divergences: u64,
    /// Replica copies healed by post-run peer repair.
    pub healed: u64,
    /// Replica copies peer repair could not heal (no majority).
    pub unrecoverable: u64,
    /// All replica media bit-identical after repair. `None` when the
    /// mount failed (the device is consumed, no repair pass runs).
    pub converged: Option<bool>,
}

/// Options for a cluster campaign.
#[derive(Clone, Debug)]
pub struct ClusterCampaignOptions {
    /// Replica-fault topologies (the new axis).
    pub topologies: Vec<ReplicaTopology>,
    /// Fault modes.
    pub modes: Vec<FaultMode>,
    /// Workload columns.
    pub workloads: Vec<Workload>,
    /// Row filter (empty = all rows).
    pub rows: Vec<BlockTag>,
    /// Worker threads (0 = one per hardware thread). Bit-identical at any
    /// width.
    pub threads: usize,
}

impl Default for ClusterCampaignOptions {
    fn default() -> Self {
        ClusterCampaignOptions {
            topologies: ReplicaTopology::ALL.to_vec(),
            modes: FaultMode::ALL.to_vec(),
            workloads: Workload::COLUMNS.to_vec(),
            rows: Vec::new(),
            threads: 0,
        }
    }
}

/// The 4-axis matrix: `cells[(topology, mode, row, col)]`.
pub struct ClusterMatrix {
    /// File-system name.
    pub fs_name: &'static str,
    /// Topology axis.
    pub topologies: Vec<ReplicaTopology>,
    /// Row tags.
    pub rows: Vec<BlockTag>,
    /// Column workloads.
    pub cols: Vec<Workload>,
    /// Fault modes.
    pub modes: Vec<FaultMode>,
    /// `None` = the fault never fired (gray).
    pub cells: HashMap<(usize, usize, usize, usize), Option<ClusterCell>>,
    /// Cells where the fault fired.
    pub relevant: usize,
}

impl ClusterMatrix {
    /// The cell at (topology, mode, row, col) indices.
    pub fn cell(&self, topo: usize, mode: usize, row: usize, col: usize) -> Option<&ClusterCell> {
        self.cells
            .get(&(topo, mode, row, col))
            .and_then(|c| c.as_ref())
    }

    /// Per-topology roll-up lines for reports: relevant / masked /
    /// converged / unrecoverable counts.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (ti, t) in self.topologies.iter().enumerate() {
            let mut relevant = 0usize;
            let mut masked = 0usize;
            let mut converged = 0usize;
            let mut unrecoverable = 0usize;
            for (&(cti, ..), cell) in &self.cells {
                if cti != ti {
                    continue;
                }
                if let Some(c) = cell {
                    relevant += 1;
                    masked += usize::from(c.masked);
                    converged += usize::from(c.converged == Some(true));
                    unrecoverable += usize::from(c.unrecoverable > 0);
                }
            }
            out.push_str(&format!(
                "{:>18} (n={}): relevant={relevant} masked={masked} \
                 converged={converged} unrecoverable={unrecoverable}\n",
                t.name, t.replicas,
            ));
        }
        out
    }
}

/// The stack every cluster cell mounts over: a write-through cache above
/// a quorum-read replicated volume whose replicas each carry their *own*
/// fault layer over their own golden snapshot.
type ClusterDevice = BufferCache<ReplicatedDisk<FaultyDisk<MemDisk>>>;

/// The cluster tier's verdict on one run, gathered by the post-run hook.
#[derive(Default)]
struct Verdict {
    divergences: u64,
    healed: u64,
    unrecoverable: u64,
    converged: Option<bool>,
}

/// One cluster cell (or, with no fault, a reference run).
fn run_one(
    adapter: &Ext3Adapter,
    golden: &MemDisk,
    w: Workload,
    fault: Option<((ReplicaTopology, FaultMode), BlockTag)>,
) -> CellRun<Verdict> {
    // Fault-free references run at n=1: the differential tier proves a
    // healthy ReplicatedDisk(n) is bit-identical to a bare disk, so one
    // reference per workload serves every topology.
    let (replicas, faulted) = fault.map_or((1, &[][..]), |((t, _), _)| (t.replicas, t.faulted));
    let spec = fault.map(|((topo, mode), tag)| {
        if topo.transient {
            FaultSpec::transient(mode.kind(), FaultTarget::TagNth { tag, nth: 0 }, 1)
        } else {
            mode.spec(tag)
        }
    });
    run_cell(w, spec, replicas, faulted, |plans, env| {
        let vol = mirror_with(golden, replicas, ReadPolicy::Quorum, |md, i| {
            FaultyDisk::with_plan(md, plans[i].clone())
        });
        let stats = vol.stats();
        // Observe I/O from the first faulted replica's vantage point (it
        // is the one whose fault anchors the cell).
        let trace = vol.replica(faulted.first().copied().unwrap_or(0)).trace();
        let dev = StackBuilder::new(vol).write_through().build();
        let plans = plans.to_vec();
        // Post-run cluster phase: take the device back, drop the fault
        // layers' state, and let the peers repair. Unmount errors under an
        // armed write fault are part of the FS's behaviour, not the cluster
        // verdict — ignore them. A failed mount consumed the device, so no
        // repair pass runs.
        let post = move |vfs: Option<Vfs<Ext3Fs<ClusterDevice>>>| {
            let mut verdict = Verdict::default();
            if let Some(mut v) = vfs {
                let _ = v.umount();
                let mut vol = v.into_fs().into_device().into_inner();
                for p in &plans {
                    p.controller().clear();
                }
                let (fg, bg) = (vol.repair_pending(), vol.scrub_repair());
                verdict.healed = fg.healed + bg.healed;
                verdict.unrecoverable = fg.unrecoverable + bg.unrecoverable;
                verdict.converged = Some(vol.replicas_identical());
            }
            verdict.divergences = stats.snapshot().divergences;
            verdict
        };
        (adapter.mount_on(dev, env.clone()), trace, post)
    })
}

/// Run the cluster campaign: the full (topology × mode × row × workload)
/// cross product, sharded over [`ClusterCampaignOptions::threads`] workers
/// with keyed merge — the matrix is bit-identical at any thread count.
pub fn fingerprint_cluster(adapter: &Ext3Adapter, opts: &ClusterCampaignOptions) -> ClusterMatrix {
    // The driver's panel is the flattened (topology × mode) pair.
    let nm = opts.modes.len();
    let panels: Vec<(ReplicaTopology, FaultMode)> = opts
        .topologies
        .iter()
        .flat_map(|&t| opts.modes.iter().map(move |&m| (t, m)))
        .collect();
    let (rows, cells) = drive(
        adapter,
        &opts.rows,
        &opts.workloads,
        &panels,
        opts.threads,
        |golden, w, fault| run_one(adapter, golden, w, fault),
        |(_, mode), r, reference| {
            r.fired.then(|| ClusterCell {
                fired: true,
                masked: r.mount_error.is_none() && r.output == *reference,
                mount_failed: r.mount_error.is_some(),
                divergences: r.extra.divergences,
                healed: r.extra.healed,
                unrecoverable: r.extra.unrecoverable,
                converged: r.extra.converged,
                fs_cell: r.infer(mode, reference),
            })
        },
    );
    ClusterMatrix {
        fs_name: adapter.name(),
        topologies: opts.topologies.clone(),
        rows,
        cols: opts.workloads.clone(),
        modes: opts.modes.clone(),
        relevant: cells.values().flatten().count(),
        cells: (cells.into_iter())
            .map(|((p, r, c), cell)| ((p / nm, p % nm, r, c), cell))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini(
        topo: ReplicaTopology,
        mode: FaultMode,
        row: &'static str,
        w: Workload,
    ) -> ClusterMatrix {
        fingerprint_cluster(
            &Ext3Adapter::stock(),
            &ClusterCampaignOptions {
                topologies: vec![topo],
                modes: vec![mode],
                workloads: vec![w],
                rows: vec![BlockTag(row)],
                ..ClusterCampaignOptions::default()
            },
        )
    }

    #[test]
    fn quorum_masks_single_replica_corruption() {
        // The headline cluster result: sticky corruption on one replica
        // of three is invisible to stock ext3 — the topology axis turns a
        // silent-data-corruption cell into a masked cell.
        let m = mini(
            ReplicaTopology::ALL[1], // primary-of-3
            FaultMode::Corruption,
            "data",
            Workload::Read,
        );
        let cell = m.cell(0, 0, 0, 0).expect("fault fires");
        assert!(cell.fired);
        assert!(
            cell.masked,
            "quorum must mask the corrupt replica: {cell:?}"
        );
        assert!(!cell.mount_failed);
        assert!(cell.divergences >= 1, "arbitration must detect: {cell:?}");
        assert_eq!(cell.converged, Some(true), "peers must reconverge");
        assert_eq!(cell.unrecoverable, 0);
    }

    #[test]
    fn same_corruption_is_not_masked_on_a_single_replica() {
        // The identical fault on the 1-replica topology: the quorum of
        // one passes the corruption straight through, and stock ext3
        // serves corrupt data (the paper's Figure 2 cell).
        let m = mini(
            ReplicaTopology::ALL[0], // single
            FaultMode::Corruption,
            "data",
            Workload::Read,
        );
        let cell = m.cell(0, 0, 0, 0).expect("fault fires");
        assert!(cell.fired);
        assert!(!cell.masked, "no peer can mask on n=1: {cell:?}");
        assert_eq!(cell.divergences, 0, "a quorum of one cannot even detect");
    }

    #[test]
    fn majority_fault_defeats_quorum_arbitration() {
        // Zeroed corruption on two of three replicas: the corrupt copies
        // agree with each other, outvote the good one, and the cluster
        // tier cannot mask — the FS-visible outcome is the single-disk
        // one again.
        let m = mini(
            ReplicaTopology::ALL[3], // majority-of-3
            FaultMode::ZeroCorruption,
            "data",
            Workload::Read,
        );
        let cell = m.cell(0, 0, 0, 0).expect("fault fires");
        assert!(cell.fired);
        assert!(
            !cell.masked,
            "two agreeing corrupt replicas outvote the good one: {cell:?}"
        );
    }

    #[test]
    fn transient_replica_fault_masks_and_converges() {
        let m = mini(
            ReplicaTopology::ALL[4], // transient-primary
            FaultMode::Corruption,
            "data",
            Workload::Read,
        );
        let cell = m.cell(0, 0, 0, 0).expect("fault fires");
        assert!(cell.masked, "one transient hiccup must be masked: {cell:?}");
        assert_eq!(cell.converged, Some(true));
        assert_eq!(cell.unrecoverable, 0);
    }

    #[test]
    fn read_error_on_minority_is_masked_by_failover_to_peers() {
        // A sticky read error on one replica: quorum still has two good
        // copies; stock ext3 — which would RPropagate on a single disk —
        // sees nothing at all.
        let m = mini(
            ReplicaTopology::ALL[2], // minority-of-3
            FaultMode::ReadError,
            "data",
            Workload::Read,
        );
        let cell = m.cell(0, 0, 0, 0).expect("fault fires");
        assert!(
            cell.masked,
            "read errors lose to a healthy majority: {cell:?}"
        );
        assert_eq!(cell.converged, Some(true));
    }
}
