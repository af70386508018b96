//! One repetition of a serve-path workload: set up a fresh stack, drive the
//! request streams through `iron_serve::serve`, check every reply.

use std::sync::Arc;
use std::time::Instant;

use iron_blockdev::memdisk::DiskStats;
use iron_blockdev::{CacheStats, RetryStatsSnapshot};
use iron_cluster::ClusterStatsSnapshot;
use iron_ext3::Ext3Fs;
use iron_serve::{
    payload, replay_serial, serve, CommitRecord, Response, ServeOptions, ServeReport, Session,
};
use iron_vfs::{SpecificFs, Vfs};

use crate::gen::{Plan, Prep};
use crate::probe::{Layer, ProbeFs, Tracer};
use crate::procstat::cpu_seconds;
use crate::stack::{
    bare_device, format_and_mount, probed_device, BareDevice, DeviceParts, Handles, ProbedDevice,
    REPLICAS,
};

/// A mounted, prepopulated stack.
pub struct Mounted<F: SpecificFs> {
    /// The mount.
    pub vfs: Vfs<F>,
    /// Clocks and counter handles of the stack under it.
    pub handles: Handles,
}

/// The bare stack's file system.
pub type BareFs = Ext3Fs<BareDevice>;
/// The probed stack's file system.
pub type ProbedFs = ProbeFs<Ext3Fs<ProbedDevice>>;

/// Create `prep`'s directories and files, then sync.
pub fn prepopulate<F: SpecificFs>(vfs: &mut Vfs<F>, prep: &[Prep]) {
    for p in prep {
        match p {
            Prep::Dir(path) => vfs.mkdir(path, 0o755),
            Prep::File { path, seed, len } => vfs.write_file(path, &payload(*seed, *len)),
        }
        .expect("prepopulate on a healthy stack");
    }
    vfs.sync().expect("sync after prepopulate");
}

/// Allocate, mkfs, mount and prepopulate the bare stack for `plan`.
pub fn mount_bare(plan: &Plan) -> Mounted<BareFs> {
    let (dev, handles) = bare_device();
    let mut vfs = Vfs::new(format_and_mount(dev, plan.fs, &handles.clocks.cpu));
    prepopulate(&mut vfs, &plan.prep);
    Mounted { vfs, handles }
}

/// The same on the probed stack. The tracer is not recording yet.
pub fn mount_probed(plan: &Plan) -> (Mounted<ProbedFs>, Arc<Tracer>) {
    let (dev, handles, tracer) = probed_device();
    let fs = format_and_mount(dev, plan.fs, &handles.clocks.cpu);
    let mut vfs = Vfs::new(ProbeFs::new(fs, tracer.clone()));
    prepopulate(&mut vfs, &plan.prep);
    (Mounted { vfs, handles }, tracer)
}

/// The measured phase of one repetition.
pub struct Measured {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads).
    pub cpu_s: f64,
    /// Simulated ns under the composition rule.
    pub sim_ns: u64,
    /// Every reply and the commit order.
    pub report: ServeReport,
}

/// Drive `plan`'s streams through `serve` on `threads` workers.
pub fn measure<F: SpecificFs + Send>(m: &mut Mounted<F>, plan: &Plan, threads: usize) -> Measured {
    let opts = ServeOptions::default().with_threads(threads);
    let sim0 = m.handles.clocks.sim_ns();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = serve(&mut m.vfs, &plan.sessions, &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    Measured {
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        sim_ns: m.handles.clocks.sim_ns() - sim0,
        report,
    }
}

/// Replay `plan` serially in `commit_log` order on a fresh mount: what
/// every reply of the concurrent run that produced the log must equal.
pub fn replay(plan: &Plan, commit_log: &[CommitRecord]) -> Vec<Vec<Response>> {
    let mut fresh = mount_bare(plan);
    replay_serial(&mut fresh.vfs, &plan.sessions, commit_log)
}

/// Every public counter of the stack at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    /// File-system CPU clock.
    pub cpu_ns: u64,
    /// Retry backoff clock.
    pub retry_ns: u64,
    /// Replica clocks.
    pub replica_ns: [u64; REPLICAS],
    /// Composite simulated time.
    pub sim_ns: u64,
    /// `BufferCache`.
    pub cache: CacheStats,
    /// `RetryLayer`.
    pub retry: RetryStatsSnapshot,
    /// `ReplicatedDisk`.
    pub cluster: ClusterStatsSnapshot,
    /// Each `MemDisk`.
    pub disks: [DiskStats; REPLICAS],
}

/// Read every counter of `dev`'s stack.
pub fn counters<D: DeviceParts>(dev: &D, h: &Handles) -> Counters {
    Counters {
        cpu_ns: h.clocks.cpu.now_ns(),
        retry_ns: h.clocks.retry.now_ns(),
        replica_ns: std::array::from_fn(|i| h.clocks.replicas[i].now_ns()),
        sim_ns: h.clocks.sim_ns(),
        cache: dev.cache_stats(),
        retry: h.retry.snapshot(),
        cluster: h.cluster.snapshot(),
        disks: std::array::from_fn(|i| dev.replica(i).stats()),
    }
}

/// A serial pass: the streams issued one request per `serve` call.
pub struct SerialPass {
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Counters when the measured phase began.
    pub before: Counters,
    /// Counters when it ended.
    pub after: Counters,
    /// `responses[session][index]`, as one `serve` call would return them.
    pub responses: Vec<Vec<Response>>,
}

/// The order in which a serial pass issues requests: round-robin over the
/// sessions, each in program order.
pub fn issue_order(sessions: &[Session]) -> Vec<(usize, usize)> {
    let longest = sessions.iter().map(|s| s.requests.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| (0..sessions.len()).map(move |s| (s, i)))
        .filter(|&(s, i)| i < sessions[s].requests.len())
        .collect()
}

/// Issue `plan`'s requests in [`issue_order`], one per `serve` call, so
/// that with a tracer every span belongs to exactly one request. The bare
/// and the probed stack both run through here, which is what makes their
/// replies, images and simulated times comparable.
pub fn run_serial<F, D>(
    m: &mut Mounted<F>,
    plan: &Plan,
    device: impl Fn(&F) -> &D,
    tracer: Option<&Tracer>,
) -> SerialPass
where
    F: SpecificFs + Send,
    D: DeviceParts,
{
    let order = issue_order(&plan.sessions);
    let singles: Vec<Session> = order
        .iter()
        .map(|&(s, i)| Session {
            id: 0,
            requests: vec![plan.sessions[s].requests[i].clone()],
        })
        .collect();
    // `serve` builds its lock table per call; one shard keeps that cheap.
    let opts = ServeOptions {
        threads: 1,
        lock_shards: 1,
    };
    let mut responses: Vec<Vec<Response>> = plan
        .sessions
        .iter()
        .map(|s| Vec::with_capacity(s.requests.len()))
        .collect();

    let before = counters(device(m.vfs.fs()), &m.handles);
    if let Some(t) = tracer {
        t.record(true);
    }
    let t0 = Instant::now();
    for (&(s, _), single) in order.iter().zip(&singles) {
        let mut call = || serve(&mut m.vfs, std::slice::from_ref(single), &opts);
        let mut report = match tracer {
            Some(t) => t.span(Layer::Serve, 0, single.requests[0].name(), "", call),
            None => call(),
        };
        responses[s].push(report.responses[0].remove(0));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.record(false);
    }
    SerialPass {
        wall_s,
        before,
        after: counters(device(m.vfs.fs()), &m.handles),
        responses,
    }
}
