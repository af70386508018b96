//! Deterministic cost kernels: what the modelled disk is asked to do, and
//! how long it takes on the simulated clock, for the five mechanisms whose
//! headline is not a wall-clock number. `render()` is committed as
//! `results/sim_costs.txt` and diffed byte for byte by `./ci.sh results`
//! and by `tests/sim_costs_drift.rs`, so a kernel whose `sim_ns` or device
//! work moves by one — up or down — fails the gate. (Wall clock is the
//! whole-stack `benchmark/`'s job.)
//!
//! `sim_ns` is the timed part of a kernel; the counters are the medium's
//! [`DiskStats`] over its whole life (format and mount included), summed
//! over the replicas in the `cluster` rows.
//!
//! | group | kernels | asserted while rendering |
//! |---|---|---|
//! | `cache` | 8 passes over 512 scattered blocks, 512 scattered writes then a flush, and ext3 re-reading 24 files with its own cache shrunk — each with and without the write-back `BufferCache` | cached re-read ≥ 2× and exactly 512 misses |
//! | `cluster` | fan-out writes on 1/2/3 replicas, 512 reads per read policy on 3, and a scrub healing 64 poked blocks | the scrub heals all and leaves the replicas identical |
//! | `retry` | an ext3 write/sync/read workload without and with a `RetryLayer`, and 256 reads each masked by one re-issue | fault-free `RetryLayer` is sim-identical to bare; masked reads cost exactly their backoff |
//! | `journal_commit` | 20 creates synced one at a time (no `Tc`, `Tc`, full ixt3) or in bursts of five (one transaction per commit block, up to eight) | group commit ≥ 1.5× |
//! | `table6_kernels` | the PostMark and TPC-B kernels of Table 6 on stock ext3 and full ixt3 | — |

use std::fmt::Write as _;

use iron_blockdev::memdisk::DiskStats;
use iron_blockdev::{
    BlockDevice, CachePolicy, DiskGeometry, MemDisk, RawAccess, RetryConfig, RetryLayer,
    StackBuilder,
};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{Block, BlockAddr, FaultKind, SimClock};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, Vfs};
use iron_workloads::bench::{run_benchmark_with_stats, Benchmark};

/// Stride between touched blocks — defeats streaming transfers.
const SPREAD: u64 = 16;
const TOUCHED: u64 = 512;

/// Append one kernel's row to the table.
fn row(out: &mut String, group: &str, kernel: &str, sim_ns: u64, d: DiskStats) {
    writeln!(
        out,
        "{group:<15}{kernel:<28}{sim_ns:>12}{:>9}{:>9}{:>9}{:>9}{:>9}",
        d.reads, d.writes, d.barriers, d.flushes, d.seeks
    )
    .unwrap();
}

/// ext3 with the paper's bugs fixed and no IRON mechanism on: Table 6's
/// baseline.
fn stock() -> IronConfig {
    IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    }
}

/// A mechanically-timed disk and its clock.
fn timed_disk(blocks: u64) -> (MemDisk, SimClock) {
    let clock = SimClock::new();
    let disk = MemDisk::new(blocks, DiskGeometry::ata_7200rpm(), clock.clone());
    (disk, clock)
}

fn scattered(i: u64, disk_blocks: u64) -> BlockAddr {
    BlockAddr((i * SPREAD) % disk_blocks)
}

// ---------------------------------------------------------------- cache

const CACHE_DISK: u64 = 8192;

/// 8 passes over 512 scattered blocks.
fn reread<D: BlockDevice>(dev: &mut D, clock: &SimClock) -> u64 {
    let start = clock.now_ns();
    for _ in 0..8 {
        for i in 0..TOUCHED {
            dev.read(scattered(i, CACHE_DISK)).unwrap();
        }
    }
    clock.elapsed_since(start)
}

/// 512 scattered writes in descending order — adversarial for a bare
/// disk, easy prey for the elevator — then a flush.
fn scattered_writes<D: BlockDevice>(dev: &mut D, clock: &SimClock) -> u64 {
    let start = clock.now_ns();
    for i in (0..TOUCHED).rev() {
        dev.write(scattered(i, CACHE_DISK), &Block::filled(i as u8))
            .unwrap();
    }
    dev.flush().unwrap();
    clock.elapsed_since(start)
}

/// ext3 reading 24 files four times over, its internal block cache
/// shrunk so the device-level cache is what matters.
fn ext3_reread<D: BlockDevice + RawAccess>(dev: D, clock: &SimClock) -> (u64, D) {
    let opts = Ext3Options {
        cache_blocks: 8,
        ..Ext3Options::default()
    };
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    for i in 0..24 {
        v.write_file(&format!("/f{i}"), &vec![i as u8; 40_000])
            .unwrap();
    }
    v.sync().unwrap();
    let start = clock.now_ns();
    for _ in 0..4 {
        for i in 0..24 {
            v.read_file(&format!("/f{i}")).unwrap();
        }
    }
    (clock.elapsed_since(start), v.into_fs().into_device())
}

fn cache_rows(out: &mut String) {
    let mut push = |kernel, sim_ns, disk| row(out, "cache", kernel, sim_ns, disk);
    let cached = |blocks| {
        let (md, clock) = timed_disk(CACHE_DISK);
        let dev = StackBuilder::new(md)
            .with_cache(CachePolicy::write_back(blocks))
            .build();
        (dev, clock)
    };

    let (mut dev, clock) = timed_disk(CACHE_DISK);
    let uncached_ns = reread(&mut dev, &clock);
    push("reread_uncached", uncached_ns, dev.stats());

    let (mut dev, clock) = cached(1024);
    let cached_ns = reread(&mut dev, &clock);
    assert_eq!(
        dev.stats().misses,
        TOUCHED,
        "each block fetched exactly once"
    );
    assert!(
        uncached_ns >= 2 * cached_ns,
        "buffer cache must be >=2x on re-reads ({uncached_ns} ns bare, {cached_ns} ns cached)"
    );
    push("reread_cached", cached_ns, dev.inner().stats());

    let (mut dev, clock) = timed_disk(CACHE_DISK);
    let ns = scattered_writes(&mut dev, &clock);
    push("scattered_writes_direct", ns, dev.stats());

    let (mut dev, clock) = cached(1024);
    let ns = scattered_writes(&mut dev, &clock);
    push("scattered_writes_elevator", ns, dev.inner().stats());

    let (dev, clock) = timed_disk(CACHE_DISK);
    let (ns, dev) = ext3_reread(dev, &clock);
    push("ext3_reread_uncached", ns, dev.stats());

    let (dev, clock) = cached(2048);
    let (ns, dev) = ext3_reread(dev, &clock);
    push("ext3_reread_cached", ns, dev.inner().stats());
}

// -------------------------------------------------------------- cluster

const CLUSTER_DISK: u64 = 4096;

/// `n` mechanically-timed replicas, each on a fresh clock of its own.
fn volume(n: usize, policy: ReadPolicy) -> ReplicatedDisk<MemDisk> {
    ReplicatedDisk::from_golden(&timed_disk(CLUSTER_DISK).0, n, policy)
}

/// The replicas are independent spindles serviced in parallel: the
/// volume's time is the slowest replica's clock, its work is their sum.
fn cluster_row(out: &mut String, kernel: &str, vol: &ReplicatedDisk<MemDisk>) {
    let mut disk = DiskStats::default();
    for s in vol.replicas().iter().map(MemDisk::stats) {
        disk.reads += s.reads;
        disk.writes += s.writes;
        disk.barriers += s.barriers;
        disk.flushes += s.flushes;
        disk.seeks += s.seeks;
    }
    let slowest = vol.replicas().iter().map(|r| r.clock().now_ns()).max();
    row(out, "cluster", kernel, slowest.unwrap_or(0), disk);
}

fn cluster_rows(out: &mut String) {
    for n in 1..=3 {
        let mut vol = volume(n, ReadPolicy::Primary);
        for i in 0..TOUCHED {
            vol.write(scattered(i, CLUSTER_DISK), &Block::filled(i as u8))
                .unwrap();
        }
        vol.flush().unwrap();
        cluster_row(out, &format!("write_scattered_n{n}"), &vol);
    }

    // Primary touches one spindle, round-robin spreads seeks across
    // three, quorum pays for every replica on every read.
    for (kernel, policy) in [
        ("read_primary_n3", ReadPolicy::Primary),
        ("read_roundrobin_n3", ReadPolicy::RoundRobin),
        ("read_quorum_n3", ReadPolicy::Quorum),
    ] {
        let mut vol = volume(3, policy);
        for i in 0..TOUCHED {
            vol.read(scattered(i, CLUSTER_DISK)).unwrap();
        }
        cluster_row(out, kernel, &vol);
    }

    // A full-volume scrub healing 64 poked blocks on one replica of three.
    let mut vol = volume(3, ReadPolicy::Quorum);
    for i in 0..64 {
        vol.replica_mut(1)
            .poke(BlockAddr((i * 61) % CLUSTER_DISK), &Block::filled(0xBD));
    }
    let report = vol.scrub_repair();
    assert_eq!(report.scanned, CLUSTER_DISK);
    assert!(report.all_healed(), "{report:?}");
    assert!(vol.replicas_identical());
    cluster_row(out, "scrub_repair_n3", &vol);
}

// ---------------------------------------------------------------- retry

const MASKED_READS: u64 = 256;
const BACKOFF_BASE_NS: u64 = 1_000;

fn budget_3_policy() -> PolicyHandle {
    PolicyHandle::new(FailurePolicyTable::with_default(vec![
        RecoveryAction::Retry {
            budget: 3,
            backoff: Backoff::exponential(BACKOFF_BASE_NS, 2, 1_000_000),
        },
        RecoveryAction::Propagate,
    ]))
}

/// Write 16 files, sync, read them back, unmount.
fn fs_workload<D: BlockDevice + RawAccess>(dev: D, clock: &SimClock) -> (u64, D) {
    let fs = Ext3Fs::format_and_mount(
        dev,
        FsEnv::new(),
        Ext3Params::small(),
        Ext3Options::default(),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    let start = clock.now_ns();
    for i in 0..16 {
        v.write_file(&format!("/f{i}"), &vec![i as u8; 24_000])
            .unwrap();
    }
    v.sync().unwrap();
    for i in 0..16 {
        v.read_file(&format!("/f{i}")).unwrap();
    }
    v.umount().unwrap();
    (clock.elapsed_since(start), v.into_fs().into_device())
}

fn retry_rows(out: &mut String) {
    let mut push = |kernel, sim_ns, disk| row(out, "retry", kernel, sim_ns, disk);

    let (md, clock) = timed_disk(4096);
    let (bare_ns, dev) = fs_workload(md, &clock);
    push("fs_ops_bare", bare_ns, dev.stats());

    let (md, clock) = timed_disk(4096);
    let dev = StackBuilder::new(md)
        .with_retry(RetryConfig::new(budget_3_policy(), clock.clone()).deadline_ns(1_000_000_000))
        .build();
    let (policied_ns, dev) = fs_workload(dev, &clock);
    assert_eq!(
        bare_ns, policied_ns,
        "fault-free RetryLayer must be sim-time-identical to a bare stack"
    );
    push("fs_ops_policied", policied_ns, dev.inner().stats());

    // A depth-1 transient per read: the first attempt fails, the re-issue
    // succeeds, and the only simulated time is the backoff charge.
    let md = MemDisk::for_tests(64);
    let clock = md.clock();
    let faulty = FaultyDisk::new(md).with_clock(clock.clone());
    let ctl = faulty.controller();
    let mut layer = RetryLayer::new(faulty, RetryConfig::new(budget_3_policy(), clock.clone()));
    for _ in 0..MASKED_READS {
        ctl.inject(FaultSpec::transient(
            FaultKind::ReadError,
            FaultTarget::Addr(BlockAddr(5)),
            1,
        ));
        layer.read(BlockAddr(5)).unwrap();
    }
    let ns = clock.now_ns();
    assert_eq!(
        layer.stats().snapshot().masked,
        MASKED_READS,
        "every read was masked"
    );
    assert_eq!(
        ns,
        MASKED_READS * BACKOFF_BASE_NS,
        "sim time is exactly the first-re-issue backoff per read"
    );
    push("masked_transient_reads", ns, layer.inner().inner().stats());
}

// ------------------------------------------------------- journal_commit

/// Create 20 two-block files, syncing after every `files_per_sync`; the
/// time is the disk's whole life, format and mount included.
fn synced_creates(opts: Ext3Options, files_per_sync: usize) -> (u64, DiskStats) {
    let (dev, clock) = timed_disk(4096);
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    for n in 0..20 {
        v.write_file(&format!("/f{n}"), &vec![n as u8; 8192])
            .unwrap();
        if (n + 1) % files_per_sync == 0 {
            v.sync().unwrap();
        }
    }
    (clock.now_ns(), v.into_fs().into_device().stats())
}

fn journal_commit_rows(out: &mut String) {
    let mut push = |kernel, (sim_ns, disk)| {
        row(out, "journal_commit", kernel, sim_ns, disk);
        sim_ns
    };
    let tc = IronConfig {
        txn_checksum: true,
        ..stock()
    };
    // A small commit threshold closes several transactions per burst;
    // `group_commit` alone decides whether they share one descriptor
    // chain, commit block and barrier pair per sync.
    let burst = |group_commit| Ext3Options {
        commit_threshold: 6,
        group_commit,
        checkpoint_lag: 48,
        ..Ext3Options::with_iron(IronConfig::full())
    };

    push(
        "20_synced_creates_no_tc",
        synced_creates(Ext3Options::with_iron(stock()), 1),
    );
    push(
        "20_synced_creates_with_tc",
        synced_creates(Ext3Options::with_iron(tc), 1),
    );
    push(
        "20_synced_creates_full_ixt3",
        synced_creates(Ext3Options::with_iron(IronConfig::full()), 1),
    );
    let unbatched_ns = push("20_burst_creates_unbatched", synced_creates(burst(1), 5));
    let batched_ns = push("20_burst_creates_batched", synced_creates(burst(8), 5));
    assert!(
        2 * unbatched_ns >= 3 * batched_ns,
        "group commit must speed the commit path by >=1.5x in simulated time \
         ({unbatched_ns} ns unbatched vs {batched_ns} ns batched)"
    );
}

// ------------------------------------------------------- table6_kernels

fn table6_rows(out: &mut String) {
    // Stock next to full ixt3, so a column that moves the wrong way shows.
    for (kernel, bench) in [("postmark", Benchmark::PostMark), ("tpcb", Benchmark::TpcB)] {
        for (name, cfg) in [("ext3", stock()), ("ixt3_full", IronConfig::full())] {
            let (sim_ns, disk) = run_benchmark_with_stats(bench, cfg);
            let kernel = format!("{kernel}_{name}");
            row(out, "table6_kernels", &kernel, sim_ns, disk);
        }
    }
}

/// Run every kernel (and its assertions) and render one fixed-width row
/// each: what `results/sim_costs.txt` holds.
pub fn render() -> String {
    let mut out = format!(
        "{:<15}{:<28}{:>12}{:>9}{:>9}{:>9}{:>9}{:>9}\n",
        "group", "kernel", "sim_ns", "reads", "writes", "barriers", "flushes", "seeks"
    );
    cache_rows(&mut out);
    cluster_rows(&mut out);
    retry_rows(&mut out);
    journal_commit_rows(&mut out);
    table6_rows(&mut out);
    out
}
