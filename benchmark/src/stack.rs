//! The stack under test, assembled from public API only:
//!
//! `Ext3Fs` → `BufferCache` → `RetryLayer` → `ReplicatedDisk` → 3 × `MemDisk`
//!
//! Two builders make the same stack, one bare and one with a
//! [`ProbeDev`] above every device layer. The parameters are fixed here so
//! that every run of every PR measures the same configuration.

use std::sync::Arc;

use iron_blockdev::{
    BlockDevice, BufferCache, CachePolicy, CacheStats, DiskGeometry, MemDisk, RawAccess,
    RetryConfig, RetryLayer, RetryStats, StackBuilder,
};
use iron_cluster::{ClusterStats, ReadPolicy, ReplicatedDisk};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::SimClock;
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::FsEnv;

use crate::probe::{Layer, ProbeDev, Tracer};

/// Blocks per replica: 128 MiB, the size `Ext3Params::medium()` formats.
pub const DISK_BLOCKS: u64 = 32 * 1024;
/// Mirrors in the volume.
pub const REPLICAS: usize = 3;
/// `BufferCache` capacity: 16 MiB, twice ext3's private 2048-block cache.
pub const CACHE_BLOCKS: usize = 4096;
const RETRY_BUDGET: u32 = 3;
const RETRY_DEADLINE_NS: u64 = 1_000_000_000;

/// Which file system a workload mounts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsKind {
    /// Full ixt3: `Mc Mr Dc Dp Tc`, bugs fixed.
    Ixt3,
    /// Stock ext3 with `fix_bugs`, every IRON mechanism off.
    Ext3,
}

impl FsKind {
    fn iron(self) -> IronConfig {
        match self {
            FsKind::Ixt3 => IronConfig::full(),
            FsKind::Ext3 => IronConfig {
                fix_bugs: true,
                ..IronConfig::off()
            },
        }
    }
}

/// Every simulated clock of one stack.
///
/// **Composition rule:** simulated time is
/// `cpu + retry + max_i(replica_i)`. The file system charges checksum and
/// parity CPU to `cpu`, the retry layer charges backoff to `retry`, and the
/// replicas are parallel spindles, so the volume is as slow as its slowest
/// one.
#[derive(Clone, Default)]
pub struct Clocks {
    /// CPU cost the file system charges (`Ext3Options::cpu_clock`).
    pub cpu: SimClock,
    /// Backoff the retry layer charges; stays 0 while no fault is injected.
    pub retry: SimClock,
    /// One clock per replica spindle.
    pub replicas: Vec<SimClock>,
}

impl Clocks {
    /// Fresh clocks at zero for a [`REPLICAS`]-wide volume.
    pub fn new() -> Self {
        Clocks {
            cpu: SimClock::new(),
            retry: SimClock::new(),
            replicas: (0..REPLICAS).map(|_| SimClock::new()).collect(),
        }
    }

    /// Simulated now, under the composition rule.
    pub fn sim_ns(&self) -> u64 {
        let device = self.replicas.iter().map(SimClock::now_ns).max();
        self.cpu.now_ns() + self.retry.now_ns() + device.unwrap_or(0)
    }
}

/// Shared handles onto a built stack: its clocks and the two layers whose
/// counters are reachable through a cloned handle.
pub struct Handles {
    /// The stack's clocks.
    pub clocks: Clocks,
    /// `RetryLayer` counters.
    pub retry: RetryStats,
    /// `ReplicatedDisk` counters.
    pub cluster: ClusterStats,
}

/// What the runner reads from a device stack, bare or probed.
pub trait DeviceParts: BlockDevice + RawAccess {
    /// The `BufferCache` counters.
    fn cache_stats(&self) -> CacheStats;
    /// Replica `i`'s disk.
    fn replica(&self, i: usize) -> &MemDisk;
}

/// The stack without probes.
pub type BareDevice = BufferCache<RetryLayer<ReplicatedDisk<MemDisk>>>;
/// The same stack with a probe above the cache, the retry layer, the
/// volume and each disk.
pub type ProbedDevice =
    ProbeDev<BufferCache<ProbeDev<RetryLayer<ProbeDev<ReplicatedDisk<ProbeDev<MemDisk>>>>>>>;

impl DeviceParts for BareDevice {
    fn cache_stats(&self) -> CacheStats {
        self.stats()
    }
    fn replica(&self, i: usize) -> &MemDisk {
        self.inner().inner().replica(i)
    }
}

impl DeviceParts for ProbedDevice {
    fn cache_stats(&self) -> CacheStats {
        self.inner().stats()
    }
    fn replica(&self, i: usize) -> &MemDisk {
        let retry = self.inner().inner().inner();
        retry.inner().inner().replica(i).inner()
    }
}

fn disks(clocks: &Clocks) -> impl Iterator<Item = MemDisk> + '_ {
    clocks
        .replicas
        .iter()
        .map(|c| MemDisk::new(DISK_BLOCKS, DiskGeometry::ata_7200rpm(), c.clone()))
}

fn retry_config(clocks: &Clocks) -> RetryConfig {
    let policy = PolicyHandle::new(FailurePolicyTable::with_default(vec![
        RecoveryAction::Retry {
            budget: RETRY_BUDGET,
            backoff: Backoff::exponential(1_000, 2, 1_000_000),
        },
        RecoveryAction::Propagate,
    ]));
    RetryConfig::new(policy, clocks.retry.clone()).deadline_ns(RETRY_DEADLINE_NS)
}

/// Build the bare device stack on fresh zeroed disks.
pub fn bare_device() -> (BareDevice, Handles) {
    let clocks = Clocks::new();
    let volume = ReplicatedDisk::new(disks(&clocks).collect(), ReadPolicy::Quorum);
    let cluster = volume.stats();
    let retry = StackBuilder::new(volume)
        .with_retry(retry_config(&clocks))
        .build();
    let handles = Handles {
        retry: retry.stats(),
        cluster,
        clocks,
    };
    let dev = StackBuilder::new(retry)
        .with_cache(CachePolicy::write_back(CACHE_BLOCKS))
        .build();
    (dev, handles)
}

fn probe<D: BlockDevice>(tracer: &Arc<Tracer>, layer: Layer) -> impl FnOnce(D) -> ProbeDev<D> {
    let tracer = tracer.clone();
    move |dev| ProbeDev::new(dev, tracer, layer, 0)
}

/// Build the same stack with a probe above each layer. The tracer is made
/// here because it reads the stack's clocks.
pub fn probed_device() -> (ProbedDevice, Handles, Arc<Tracer>) {
    let clocks = Clocks::new();
    let tracer = Arc::new(Tracer::new(clocks.clone()));
    let replicas = disks(&clocks)
        .enumerate()
        .map(|(i, md)| ProbeDev::new(md, tracer.clone(), Layer::Device, i as u8))
        .collect();
    let volume = ReplicatedDisk::new(replicas, ReadPolicy::Quorum);
    let cluster = volume.stats();
    let retry = StackBuilder::new(volume)
        .layer(probe(&tracer, Layer::Cluster))
        .with_retry(retry_config(&clocks))
        .build();
    let handles = Handles {
        retry: retry.stats(),
        cluster,
        clocks,
    };
    let dev = StackBuilder::new(retry)
        .layer(probe(&tracer, Layer::Retry))
        .with_cache(CachePolicy::write_back(CACHE_BLOCKS))
        .layer(probe(&tracer, Layer::Cache))
        .build();
    (dev, handles, tracer)
}

/// mkfs and mount `kind` on `dev`, charging file-system CPU to `cpu`.
pub fn format_and_mount<D: BlockDevice + RawAccess>(
    dev: D,
    kind: FsKind,
    cpu: &SimClock,
) -> Ext3Fs<D> {
    let iron = kind.iron();
    let params = Ext3Params {
        mirror_metadata: iron.meta_replication,
        ..Ext3Params::medium()
    };
    let opts = Ext3Options {
        iron,
        cpu_clock: Some(cpu.clone()),
        ..Ext3Options::default()
    };
    Ext3Fs::format_and_mount(dev, FsEnv::new(), params, opts)
        .expect("mkfs and mount on a healthy stack")
}
