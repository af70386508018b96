//! The metric tables and the arithmetic that fills them.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `tests/contract.rs` keeps the two in step.

use std::time::Instant;

use iron_blockdev::RawAccess;
use iron_core::checksum::{crc32, sha1};
use iron_core::BlockAddr;
use iron_ext3::{DiskLayout, Superblock};
use iron_serve::{lock_keys, payload};

use crate::gen::Plan;
use crate::probe::{DevIo, Layer, LayerFold, TraceLog};
use crate::run::SerialPass;

/// A metric's name, unit and which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Def {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the stack sees; measured with tracing off.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s", "lower"),
    def("host_ops_per_s", "1/s", "higher"),
    def("cpu_us_per_op", "us", "lower"),
    def("sim_ms_per_op", "ms", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
];

/// One layer each; measured in the traced run. A metric whose layer a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: [Def; 59] = [
    def("serve_vfs.self_host_us_per_op", "us", "lower"),
    def("serve_vfs.fs_calls_per_op", "count", "lower"),
    def("serve_vfs.lock_keys_per_op", "count", "lower"),
    def("serve_vfs.scaling_t2_over_t1", "ratio", "higher"),
    def("req.fsync_sim_p50_ms", "ms", "lower"),
    def("req.fsync_sim_p99_ms", "ms", "lower"),
    def("req.read_sim_p99_ms", "ms", "lower"),
    def("req.read_host_p50_us", "us", "lower"),
    def("req.read_host_p99_us", "us", "lower"),
    def("req.write_host_p50_us", "us", "lower"),
    def("req.write_host_p99_us", "us", "lower"),
    def("fs.self_host_us_per_op", "us", "lower"),
    def("fs.self_host_share", "ratio", "lower"),
    def("fs.cpu_sim_us_per_op", "us", "lower"),
    def("fs.dev_reads_per_op", "count", "lower"),
    def("fs.dev_writes_per_op", "count", "lower"),
    def("fs.barriers_per_op", "count", "lower"),
    def("fs.flushes_per_op", "count", "lower"),
    def("fs.journal_writes_per_op", "count", "lower"),
    def("fs.redundancy_writes_per_op", "count", "lower"),
    def("fs.write_amp", "ratio", "lower"),
    def("fs.read_miss_ratio", "ratio", "lower"),
    def("checksum.crc32_mb_per_s", "MB/s", "higher"),
    def("checksum.sha1_mb_per_s", "MB/s", "higher"),
    def("cache.self_host_us_per_op", "us", "lower"),
    def("cache.self_host_share", "ratio", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.evictions_per_op", "count", "lower"),
    def("cache.writes_absorbed_ratio", "ratio", "higher"),
    def("cache.writebacks_per_op", "count", "lower"),
    def("cache.blocks_per_sweep", "count", "higher"),
    def("cache.barriers_absorbed_ratio", "ratio", "higher"),
    def("retry.self_host_us_per_op", "us", "lower"),
    def("retry.attempts_per_dev_op", "ratio", "lower"),
    def("retry.sim_us_per_op", "us", "lower"),
    def("cluster.self_host_us_per_op", "us", "lower"),
    def("cluster.self_host_share", "ratio", "lower"),
    def("cluster.replica_reads_per_read", "ratio", "lower"),
    def("cluster.replica_writes_per_write", "ratio", "lower"),
    def("cluster.divergences", "count", "lower"),
    def("cluster.sim_skew_ms", "ms", "lower"),
    def("device.host_ns_per_block", "ns", "lower"),
    def("device.host_share", "ratio", "lower"),
    def("device.reads_per_op", "count", "lower"),
    def("device.writes_per_op", "count", "lower"),
    def("device.barriers_per_op", "count", "lower"),
    def("device.flushes_per_op", "count", "lower"),
    def("device.seeks_per_op", "count", "lower"),
    def("device.busy_sim_ms_per_op", "ms", "lower"),
    def("device.snapshot_ms", "ms", "lower"),
    def("fingerprint.cells_per_s.ext3", "1/s", "higher"),
    def("fingerprint.cells_per_s.ixt3", "1/s", "higher"),
    def("fingerprint.cells_per_s.reiser", "1/s", "higher"),
    def("fingerprint.cells_per_s.jfs", "1/s", "higher"),
    def("fingerprint.cells_per_s.ntfs", "1/s", "higher"),
    def("crash.states_per_s.ext3", "1/s", "higher"),
    def("crash.states_per_s.ixt3", "1/s", "higher"),
    def("fsck.check_ms", "ms", "lower"),
    def("trace.overhead_ratio", "ratio", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value of `name`, or 0 when the workload never set it — its
    /// layer did no work.
    pub fn get(&self, name: &str) -> f64 {
        let found = self.0.iter().find(|(n, _)| *n == name);
        found.map_or(0.0, |(_, v)| *v)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `xs`, 0 for no samples.
fn percentile(xs: &mut [u64], p: f64) -> f64 {
    xs.sort_unstable();
    match xs.len() {
        0 => 0.0,
        n => xs[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1] as f64,
    }
}

/// Everything the traced run of a serve-path workload measured.
pub struct TracedRun<'a> {
    /// The workload.
    pub plan: &'a Plan,
    /// The serial pass on the bare stack.
    pub bare: &'a SerialPass,
    /// The serial pass on the probed stack.
    pub probed: &'a SerialPass,
    /// Its spans.
    pub log: &'a TraceLog,
    /// What the file system asked of the device stack meanwhile.
    pub fs_io: DevIo,
}

/// Fill the per-layer metrics the probes and the public counters give.
pub fn per_layer(run: &TracedRun<'_>, out: &mut Values) {
    let ops = run.plan.ops() as f64;
    let per_op = |x: u64| x as f64 / ops;
    let totals = run.log.totals();
    let fold = |layer: Layer| -> &LayerFold { &totals[layer as usize] };
    let self_host_all: u64 = totals.iter().map(|f| f.self_host_ns).sum();
    let self_us = |layer: Layer| fold(layer).self_host_ns as f64 / 1e3 / ops;
    let share = |layer: Layer| ratio(fold(layer).self_host_ns as f64, self_host_all as f64);
    let (b, a) = (&run.probed.before, &run.probed.after);

    out.set("serve_vfs.self_host_us_per_op", self_us(Layer::Serve));
    out.set("serve_vfs.fs_calls_per_op", per_op(fold(Layer::Fs).calls));
    let keys: usize = run
        .plan
        .sessions
        .iter()
        .flat_map(|s| &s.requests)
        .map(|r| lock_keys(r).len())
        .sum();
    out.set("serve_vfs.lock_keys_per_op", keys as f64 / ops);

    let by_op = |ops: &[&str], sim: bool| -> Vec<u64> {
        let of = run.log.requests.iter().filter(|r| ops.contains(&r.op));
        of.map(|r| if sim { r.sim_ns } else { r.host_ns }).collect()
    };
    let mut fsync_sim = by_op(&["fsync", "sync"], true);
    out.set(
        "req.fsync_sim_p50_ms",
        percentile(&mut fsync_sim, 50.0) / 1e6,
    );
    out.set(
        "req.fsync_sim_p99_ms",
        percentile(&mut fsync_sim, 99.0) / 1e6,
    );
    out.set(
        "req.read_sim_p99_ms",
        percentile(&mut by_op(&["read"], true), 99.0) / 1e6,
    );
    let mut read_host = by_op(&["read"], false);
    out.set(
        "req.read_host_p50_us",
        percentile(&mut read_host, 50.0) / 1e3,
    );
    out.set(
        "req.read_host_p99_us",
        percentile(&mut read_host, 99.0) / 1e3,
    );
    let mut write_host = by_op(&["write"], false);
    out.set(
        "req.write_host_p50_us",
        percentile(&mut write_host, 50.0) / 1e3,
    );
    out.set(
        "req.write_host_p99_us",
        percentile(&mut write_host, 99.0) / 1e3,
    );

    let io = run.fs_io;
    out.set("fs.self_host_us_per_op", self_us(Layer::Fs));
    out.set("fs.self_host_share", share(Layer::Fs));
    out.set("fs.cpu_sim_us_per_op", per_op(a.cpu_ns - b.cpu_ns) / 1e3);
    out.set("fs.dev_reads_per_op", per_op(io.reads));
    out.set("fs.dev_writes_per_op", per_op(io.writes));
    out.set("fs.barriers_per_op", per_op(io.barriers));
    out.set("fs.flushes_per_op", per_op(io.flushes));
    out.set("fs.journal_writes_per_op", per_op(io.journal_writes));
    out.set("fs.redundancy_writes_per_op", per_op(io.redundancy_writes));
    let user_blocks = |bytes: u64| bytes as f64 / iron_core::BLOCK_SIZE as f64;
    out.set(
        "fs.write_amp",
        ratio(io.writes as f64, user_blocks(run.plan.user_bytes_written())),
    );
    out.set(
        "fs.read_miss_ratio",
        ratio(io.reads as f64, user_blocks(run.plan.user_bytes_read())),
    );

    let cache = |f: fn(&iron_blockdev::CacheStats) -> u64| (f(&a.cache) - f(&b.cache)) as f64;
    let disk0 = |f: fn(&iron_blockdev::memdisk::DiskStats) -> u64| f(&a.disks[0]) - f(&b.disks[0]);
    out.set("cache.self_host_us_per_op", self_us(Layer::Cache));
    out.set("cache.self_host_share", share(Layer::Cache));
    out.set(
        "cache.hit_ratio",
        ratio(cache(|c| c.hits), cache(|c| c.hits + c.misses)),
    );
    out.set("cache.evictions_per_op", cache(|c| c.evictions) / ops);
    out.set(
        "cache.writes_absorbed_ratio",
        1.0 - ratio(cache(|c| c.writebacks), cache(|c| c.writes_absorbed)),
    );
    out.set("cache.writebacks_per_op", cache(|c| c.writebacks) / ops);
    out.set(
        "cache.blocks_per_sweep",
        ratio(cache(|c| c.writebacks), cache(|c| c.sweeps)),
    );
    out.set(
        "cache.barriers_absorbed_ratio",
        1.0 - ratio(disk0(|d| d.barriers) as f64, cache(|c| c.barriers_absorbed)),
    );

    out.set("retry.self_host_us_per_op", self_us(Layer::Retry));
    out.set(
        "retry.attempts_per_dev_op",
        ratio(
            (a.retry.attempts - b.retry.attempts) as f64,
            (a.retry.ops - b.retry.ops) as f64,
        ),
    );
    out.set("retry.sim_us_per_op", per_op(a.retry_ns - b.retry_ns) / 1e3);

    let replica_io = |f: fn(&iron_blockdev::memdisk::DiskStats) -> u64| -> f64 {
        let each = a.disks.iter().zip(&b.disks).map(|(a, b)| f(a) - f(b));
        each.sum::<u64>() as f64
    };
    out.set("cluster.self_host_us_per_op", self_us(Layer::Cluster));
    out.set("cluster.self_host_share", share(Layer::Cluster));
    out.set(
        "cluster.replica_reads_per_read",
        ratio(
            replica_io(|d| d.reads),
            (a.cluster.reads - b.cluster.reads) as f64,
        ),
    );
    out.set(
        "cluster.replica_writes_per_write",
        ratio(
            replica_io(|d| d.writes),
            (a.cluster.writes - b.cluster.writes) as f64,
        ),
    );
    out.set(
        "cluster.divergences",
        (a.cluster.divergences - b.cluster.divergences) as f64,
    );
    let spindle_ns: Vec<u64> = (a.replica_ns.iter().zip(&b.replica_ns))
        .map(|(a, b)| a - b)
        .collect();
    let slowest = *spindle_ns.iter().max().expect("replicas");
    let fastest = *spindle_ns.iter().min().expect("replicas");
    out.set("cluster.sim_skew_ms", (slowest - fastest) as f64 / 1e6);

    // The mirrors do identical work while no fault is injected, so the
    // device counts are replica 0's and compare directly with `fs.dev_*`.
    out.set(
        "device.host_ns_per_block",
        ratio(
            fold(Layer::Device).self_host_ns as f64,
            replica_io(|d| d.reads + d.writes),
        ),
    );
    out.set("device.host_share", share(Layer::Device));
    out.set("device.reads_per_op", per_op(disk0(|d| d.reads)));
    out.set("device.writes_per_op", per_op(disk0(|d| d.writes)));
    out.set("device.barriers_per_op", per_op(disk0(|d| d.barriers)));
    out.set("device.flushes_per_op", per_op(disk0(|d| d.flushes)));
    out.set("device.seeks_per_op", per_op(disk0(|d| d.seeks)));
    out.set("device.busy_sim_ms_per_op", per_op(slowest) / 1e6);

    out.set(
        "trace.overhead_ratio",
        ratio(run.probed.wall_s, run.bare.wall_s),
    );
}

const CHECKSUM_BLOCKS: usize = 4096;

/// Time `crc32` and `sha1` directly on 16 MiB of 4 KiB blocks.
pub fn checksum_rates(out: &mut Values) {
    let data = payload(0x1905_2005, CHECKSUM_BLOCKS * iron_core::BLOCK_SIZE);
    let mb = data.len() as f64 / 1e6;
    let t0 = Instant::now();
    for block in data.chunks(iron_core::BLOCK_SIZE) {
        std::hint::black_box(crc32(std::hint::black_box(block)));
    }
    out.set("checksum.crc32_mb_per_s", mb / t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    for block in data.chunks(iron_core::BLOCK_SIZE) {
        std::hint::black_box(sha1(std::hint::black_box(block)));
    }
    out.set("checksum.sha1_mb_per_s", mb / t0.elapsed().as_secs_f64());
}

/// Milliseconds `iron_ext3::fsck::check` takes on the unmounted `image`.
pub fn fsck_check_ms<D: RawAccess>(image: &D) -> f64 {
    let sb = Superblock::decode(&image.peek(BlockAddr(0))).expect("ext3 superblock");
    let layout = DiskLayout::compute(sb.params());
    let t0 = Instant::now();
    std::hint::black_box(iron_ext3::fsck::check(image, &layout));
    t0.elapsed().as_secs_f64() * 1e3
}
