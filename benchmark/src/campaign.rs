//! The `campaign` workload: the harness the paper's method runs on.
//!
//! One trial is snapshot → mount → run → observe. The fingerprint campaign
//! runs one trial per (fault mode × block type × workload) cell of five
//! file systems; the crash campaign recovers and checks every enumerated
//! crash image of the standard crash workloads on stock ext3 and ixt3.
//!
//! Both harnesses build their device stacks inside the library, from the
//! golden image the adapter hands them. [`TimedAdapter`] is how this
//! workload puts those stacks on the modelled disk: it forwards
//! [`FsUnderTest`], serves golden images re-homed on the 7200 rpm geometry,
//! and keeps the clock of every disk a trial mounts. The sum of those
//! clocks is the campaign's simulated time.

use std::sync::Mutex;
use std::time::Instant;

use iron_blockdev::{BlockDevice, DiskGeometry, MemDisk, RawAccess};
use iron_core::{BlockAddr, BlockTag, SimClock};
use iron_crash::{
    run_crash_campaign, standard_workloads, CrashCampaignOptions, CrashReport, EnumOptions,
};
use iron_fingerprint::render::render_matrix;
use iron_fingerprint::{
    fingerprint_fs, CampaignDevice, CampaignOptions, CrashDevice, Ext3Adapter, FsUnderTest,
    JfsAdapter, NtfsAdapter, ReiserAdapter, RetryDevice,
};
use iron_vfs::{FsEnv, SpecificFs, VfsResult};

use crate::procstat::cpu_seconds;

/// `image`, byte for byte, on a disk with the mechanical timing model.
/// `MemDisk::snapshot` keeps the geometry, so every trial stamped from the
/// result charges modelled seeks and rotations to its own clock.
fn on_real_geometry(image: &MemDisk) -> MemDisk {
    let mut timed = MemDisk::new(
        image.num_blocks(),
        DiskGeometry::ata_7200rpm(),
        SimClock::new(),
    );
    for a in (0..image.num_blocks()).map(BlockAddr) {
        timed.poke(a, &image.peek(a));
    }
    timed
}

/// An [`FsUnderTest`] that forwards to `inner`, on real disk geometry.
///
/// Both golden images (mkfs + fixture, clean and with a dirty journal) are
/// built once, when the adapter is made: that is this workload's set-up.
pub struct TimedAdapter<A> {
    inner: A,
    clean: MemDisk,
    dirty: MemDisk,
    clocks: Mutex<Vec<SimClock>>,
}

impl<A: FsUnderTest> TimedAdapter<A> {
    /// Build `inner`'s golden images on the modelled disk.
    pub fn new(inner: A) -> Self {
        TimedAdapter {
            clean: on_real_geometry(&inner.golden(false)),
            dirty: on_real_geometry(&inner.golden(true)),
            inner,
            clocks: Mutex::default(),
        }
    }

    fn keep(&self, disk: &MemDisk) {
        self.clocks.lock().expect("clock list").push(disk.clock());
    }

    /// Summed simulated ns of every disk mounted since the last call.
    pub fn take_sim_ns(&self) -> u64 {
        let clocks = std::mem::take(&mut *self.clocks.lock().expect("clock list"));
        clocks.iter().map(SimClock::now_ns).sum()
    }
}

impl<A: FsUnderTest> FsUnderTest for TimedAdapter<A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn rows(&self) -> Vec<BlockTag> {
        self.inner.rows()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        if dirty_journal {
            self.dirty.snapshot()
        } else {
            self.clean.snapshot()
        }
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        self.keep(dev.inner().inner());
        self.inner.mount(dev, env)
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        self.keep(dev.inner());
        self.inner.mount_crash(dev, env)
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        self.keep(dev.inner().inner().inner());
        self.inner.mount_retry(dev, env)
    }

    fn fsck_issues(&self, dev: &MemDisk) -> Option<Vec<String>> {
        self.inner.fsck_issues(dev)
    }
}

/// One part of the campaign: a file system under one of the two harnesses.
pub struct Part {
    /// Its throughput metric: `fingerprint.cells_per_s.<fs>` or
    /// `crash.states_per_s.<fs>`.
    pub metric: &'static str,
    /// Seconds spent building the golden images.
    pub setup_s: f64,
    /// Trials run: cells, or crash images checked.
    pub trials: usize,
    /// Wall seconds of the trials.
    pub wall_s: f64,
    /// Process CPU seconds of the trials.
    pub cpu_s: f64,
    /// Summed simulated ns of every disk a trial mounted.
    pub sim_ns: u64,
    /// The rendered matrix or the crash reports: what must repeat exactly.
    pub output: String,
    /// False when the part's own oracle failed (an unclean ixt3 crash
    /// report).
    pub clean: bool,
}

fn fingerprint_part<A: FsUnderTest>(metric: &'static str, adapter: A) -> Part {
    let t0 = Instant::now();
    let adapter = TimedAdapter::new(adapter);
    let setup_s = t0.elapsed().as_secs_f64();
    let (t0, cpu0) = (Instant::now(), cpu_seconds());
    let matrix = fingerprint_fs(&adapter, &CampaignOptions::default().with_threads(1));
    Part {
        metric,
        setup_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        trials: matrix.modes.len() * matrix.rows.len() * matrix.cols.len(),
        sim_ns: adapter.take_sim_ns(),
        output: render_matrix(&matrix),
        clean: true,
    }
}

fn crash_part(metric: &'static str, adapter: Ext3Adapter, must_be_clean: bool, seed: u64) -> Part {
    let t0 = Instant::now();
    let adapter = TimedAdapter::new(adapter);
    let workloads = standard_workloads();
    let opts = CrashCampaignOptions {
        enumeration: EnumOptions {
            seed,
            ..EnumOptions::default()
        },
        threads: 1,
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let (t0, cpu0) = (Instant::now(), cpu_seconds());
    let reports: Vec<CrashReport> = workloads
        .iter()
        .map(|w| run_crash_campaign(&adapter, w, &opts))
        .collect();
    Part {
        metric,
        setup_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        trials: reports.iter().map(|r| r.images_checked).sum(),
        sim_ns: adapter.take_sim_ns(),
        clean: !must_be_clean || reports.iter().all(CrashReport::is_clean),
        output: format!("{reports:?}"),
    }
}

/// Run the whole campaign once, part by part; each part builds its golden
/// images, runs its trials and frees everything before the next begins.
/// The seed picks the crash enumerator's in-epoch write subsets; the
/// fingerprint matrix has no random input.
pub fn run(seed: u64) -> Vec<Part> {
    vec![
        fingerprint_part("fingerprint.cells_per_s.ext3", Ext3Adapter::stock()),
        fingerprint_part("fingerprint.cells_per_s.ixt3", Ext3Adapter::ixt3()),
        fingerprint_part("fingerprint.cells_per_s.reiser", ReiserAdapter),
        fingerprint_part("fingerprint.cells_per_s.jfs", JfsAdapter),
        fingerprint_part("fingerprint.cells_per_s.ntfs", NtfsAdapter),
        crash_part("crash.states_per_s.ext3", Ext3Adapter::stock(), false, seed),
        crash_part("crash.states_per_s.ixt3", Ext3Adapter::ixt3(), true, seed),
    ]
}
