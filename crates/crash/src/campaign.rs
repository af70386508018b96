//! The crash campaign: record one workload, enumerate its crash images,
//! and check every image in parallel — plus the multi-workload *generated
//! campaign* that fans an ACE-style workload family's whole
//! `(workload × cut-epoch × subset)` product over the pool.

use iron_blockdev::{CrashRecorder, MemDisk, WriteLog};
use iron_core::exec::WorkerPool;
use iron_fingerprint::FsUnderTest;
use iron_vfs::{FsEnv, Vfs};

use crate::enumerate::{enumerate_images, EnumOptions};
use crate::oracle::{check_image, walk_tree, FsTree, Violation};
use crate::workload::{run_workload, CrashWorkload};

/// Campaign configuration.
#[derive(Clone, Debug, Default)]
pub struct CrashCampaignOptions {
    /// Enumeration bounds (seed + subsets per epoch).
    pub enumeration: EnumOptions,
    /// Worker threads for image checking; `0` = one per CPU. Reports are
    /// bit-identical at any width.
    pub threads: usize,
}

/// The outcome of one `(file system, workload)` campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// File system name.
    pub fs: String,
    /// Workload name.
    pub workload: String,
    /// Barrier/flush epochs the recorded stream spans.
    pub epochs: u64,
    /// Writes recorded.
    pub writes_recorded: usize,
    /// Flushes (durability points) recorded.
    pub flushes: usize,
    /// Crash images enumerated and checked.
    pub images_checked: usize,
    /// Oracle violations, sorted by image index.
    pub violations: Vec<Violation>,
}

impl CrashReport {
    /// True when every image recovered cleanly.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Walk the untouched golden image — checkpoint zero of every campaign.
fn golden_tree_of(fs: &dyn FsUnderTest, base: &MemDisk) -> FsTree {
    let mounted = fs
        .mount_crash(CrashRecorder::new(base.snapshot()), FsEnv::new())
        .expect("golden image mounts");
    let mut v = Vfs::new(mounted);
    walk_tree(&mut v).expect("golden image walks")
}

/// Record `workload`'s write stream over a snapshot of `base`, enumerate
/// the bounded crash-image set, and check every image over `pool`.
fn campaign_on_base(
    fs: &dyn FsUnderTest,
    workload: &CrashWorkload,
    base: &MemDisk,
    golden_tree: &FsTree,
    enumeration: &EnumOptions,
    pool: WorkerPool,
) -> CrashReport {
    // Record the workload's write stream. Dropping the mount without
    // unmounting is the crash.
    let log = WriteLog::new();
    let shadow = {
        let mounted = fs
            .mount_crash(
                CrashRecorder::with_log(base.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .unwrap_or_else(|e| panic!("{}: workload mount on healthy disk: {e:?}", workload.name));
        let mut v = Vfs::new(mounted);
        run_workload(&mut v, workload, &log)
            .unwrap_or_else(|e| panic!("{}: workload runs on healthy disk: {e:?}", workload.name))
    };
    let snap = log.snapshot();

    let images = enumerate_images(&snap, enumeration);
    let mut found: Vec<(usize, Vec<Violation>)> = pool.shard(
        &images,
        |acc: &mut Vec<(usize, Vec<Violation>)>, spec| {
            let vs = check_image(fs, &workload.name, base, &snap, &shadow, golden_tree, spec);
            if !vs.is_empty() {
                acc.push((spec.index, vs));
            }
        },
        |a, b| a.extend(b),
    );
    // Merge order is thread-arbitrary; the image index restores a total
    // order, making the report bit-identical at any width.
    found.sort_by_key(|(index, _)| *index);

    CrashReport {
        fs: fs.name().to_string(),
        workload: workload.name.to_string(),
        epochs: snap.epoch_count(),
        writes_recorded: snap.records.len(),
        flushes: snap.flush_marks.len(),
        images_checked: images.len(),
        violations: found.into_iter().flat_map(|(_, vs)| vs).collect(),
    }
}

/// Record `workload` on a fresh golden image of `fs`, enumerate the
/// bounded crash-image set, and run recovery plus all four oracles
/// against every image.
///
/// Deterministic for a fixed `(fs, workload, seed)`: the image set, the
/// checks, and the report are identical at any thread count.
pub fn run_crash_campaign(
    fs: &dyn FsUnderTest,
    workload: &CrashWorkload,
    opts: &CrashCampaignOptions,
) -> CrashReport {
    let base = fs.golden(false);
    let golden_tree = golden_tree_of(fs, &base);
    let pool = WorkerPool::sized(opts.threads);
    campaign_on_base(fs, workload, &base, &golden_tree, &opts.enumeration, pool)
}

/// The outcome of a whole generated-family campaign on one file system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneratedCampaignReport {
    /// File system name.
    pub fs: String,
    /// Workloads recorded and enumerated.
    pub workloads_run: usize,
    /// Crash images checked across all workloads.
    pub images_checked: usize,
    /// Workloads with at least one violation.
    pub dirty_workloads: usize,
    /// Every violation, in (workload, image index) order.
    pub violations: Vec<Violation>,
}

impl GeneratedCampaignReport {
    /// True when every image of every workload recovered cleanly.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violation counts keyed by oracle, for matrix summaries.
    pub fn by_oracle(&self) -> std::collections::BTreeMap<crate::oracle::OracleKind, usize> {
        let mut out = std::collections::BTreeMap::new();
        for v in &self.violations {
            *out.entry(v.oracle).or_insert(0) += 1;
        }
        out
    }
}

/// Run a full generated-workload family against one file system: each
/// workload is recorded on a snapshot of the same golden image, its crash
/// images are enumerated, and every image is recovered and oracle-checked.
///
/// The `(workload × cut-epoch × subset)` product is sharded over
/// [`WorkerPool`] with one workload per claim (workloads are the
/// long-running unit; their image sets are checked inline), and the merged
/// report is re-keyed by workload index — bit-identical at any thread
/// count, exactly like [`run_crash_campaign`].
pub fn run_generated_campaign(
    fs: &dyn FsUnderTest,
    workloads: &[CrashWorkload],
    opts: &CrashCampaignOptions,
) -> GeneratedCampaignReport {
    let base = fs.golden(false);
    let golden_tree = golden_tree_of(fs, &base);

    let indexed: Vec<(usize, &CrashWorkload)> = workloads.iter().enumerate().collect();
    let pool = WorkerPool::sized(opts.threads);
    // Workloads are the sharded unit here, so each checks its own images
    // inline.
    let inline = WorkerPool::new(1);
    type Cell = (usize, usize, Vec<Violation>);
    let mut cells: Vec<Cell> = pool.shard_fine(
        &indexed,
        |acc: &mut Vec<Cell>, (idx, w)| {
            let r = campaign_on_base(fs, w, &base, &golden_tree, &opts.enumeration, inline);
            acc.push((*idx, r.images_checked, r.violations));
        },
        |a, b| a.extend(b),
    );
    cells.sort_by_key(|(idx, _, _)| *idx);

    let images_checked = cells.iter().map(|(_, n, _)| n).sum();
    let dirty_workloads = cells.iter().filter(|(_, _, vs)| !vs.is_empty()).count();
    GeneratedCampaignReport {
        fs: fs.name().to_string(),
        workloads_run: workloads.len(),
        images_checked,
        dirty_workloads,
        violations: cells.into_iter().flat_map(|(_, _, vs)| vs).collect(),
    }
}
