//! The four Table 6 macro-benchmarks, measured in simulated time.

use iron_blockdev::{DiskGeometry, MemDisk};
use iron_core::hash::xorshift64;
use iron_core::{SimClock, BLOCK_SIZE};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::{FsEnv, OpenFlags, Vfs};

/// The benchmarks of Table 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Benchmark {
    /// Unpack, configure, and build a source tree (the paper's 11 MB SSH
    /// distribution).
    SshBuild,
    /// Read-intensive static web serving (25 MB transferred).
    WebServer,
    /// Metadata-intensive mail-server emulation (create/delete/read/append
    /// transactions over many small files).
    PostMark,
    /// Synchronous debit-credit transactions against a small database.
    TpcB,
}

impl Benchmark {
    /// All four, in Table 6 column order.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::SshBuild,
        Benchmark::WebServer,
        Benchmark::PostMark,
        Benchmark::TpcB,
    ];

    /// Table 6 column label.
    pub fn label(&self) -> &'static str {
        match self {
            Benchmark::SshBuild => "SSH",
            Benchmark::WebServer => "Web",
            Benchmark::PostMark => "Post",
            Benchmark::TpcB => "TPCB",
        }
    }
}

/// Deterministic xorshift64 RNG for workload generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        xorshift64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    (0..len).map(|_| (rng.next() & 0xFF) as u8).collect()
}

type Fs = Ext3Fs<MemDisk>;

fn setup(iron: IronConfig) -> (Vfs<Fs>, SimClock) {
    let clock = SimClock::new();
    let dev = MemDisk::new(32 * 1024, DiskGeometry::ata_7200rpm(), clock.clone());
    let opts = Ext3Options {
        iron,
        cpu_clock: Some(clock.clone()),
        // The paper's testbed has 1 GB of RAM against ~25 MB working sets:
        // effectively everything stays in the page cache after first touch.
        cache_blocks: 32 * 1024,
        ..Default::default()
    };
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::medium(), opts)
        .expect("bench mount");
    (Vfs::new(fs), clock)
}

fn ssh_build(v: &mut Vfs<Fs>, clock: &SimClock) {
    // Compilation is CPU-bound: ~250 ms of simulated compute per source
    // file (the paper's SSH-Build spends most of its 118 s in the
    // compiler, which is exactly why Table 6's SSH column shows little
    // I/O-induced overhead).
    const COMPILE_NS: u64 = 250_000_000;
    // Phase 1 — unpack: a source tree of ~200 files in ~25 directories,
    // ~11 MB total (the tar'd SSH source of the paper).
    let mut rng = Rng(0xBEEF);
    v.mkdir("/ssh", 0o755).unwrap();
    let mut files = Vec::new();
    for d in 0..25 {
        let dir = format!("/ssh/dir{d}");
        v.mkdir(&dir, 0o755).unwrap();
        for f in 0..8 {
            let path = format!("{dir}/src{f}.c");
            let size = 20_000 + rng.below(80_000) as usize;
            v.write_file(&path, &payload(size, rng.next())).unwrap();
            files.push((path, size));
        }
    }
    v.sync().unwrap();
    // Phase 2 — configure: stat + read small prefixes, write small outputs.
    for (path, _) in files.iter().take(60) {
        let _ = v.stat(path).unwrap();
        let fd = v.open(path, OpenFlags::rdonly()).unwrap();
        let _ = v.read(fd, 4096).unwrap();
        v.close(fd).unwrap();
    }
    v.write_file("/ssh/config.h", &payload(8_000, 7)).unwrap();
    v.write_file("/ssh/Makefile.out", &payload(4_000, 8))
        .unwrap();
    // Phase 3 — build: read each source, compile (CPU), write an object
    // file (~40% of source size).
    for (i, (path, size)) in files.iter().enumerate() {
        let _ = v.read_file(path).unwrap();
        clock.advance_ns(COMPILE_NS);
        let obj = format!("/ssh/dir{}/obj{}.o", i % 25, i);
        v.write_file(&obj, &payload(size * 2 / 5, i as u64))
            .unwrap();
    }
    // Link.
    let _ = v.read_file("/ssh/dir0/obj0.o").unwrap();
    v.write_file("/ssh/sshd", &payload(1_500_000, 99)).unwrap();
    v.sync().unwrap();
}

fn web_server(v: &mut Vfs<Fs>, clock: &SimClock) {
    // Serving is network/CPU-bound per request (the paper's web benchmark
    // moves 25 MB over HTTP in ~53 s): charge ~20 ms of request handling
    // per GET.
    const REQUEST_NS: u64 = 20_000_000;
    // Site content: 100 pages, 4–64 KiB (setup is part of the run, as the
    // paper's transfer dominates anyway).
    let mut rng = Rng(0xCAFE);
    v.mkdir("/www", 0o755).unwrap();
    let mut sizes = Vec::new();
    for p in 0..100 {
        let size = 4_096 + rng.below(60_000) as usize;
        v.write_file(&format!("/www/page{p}.html"), &payload(size, p as u64))
            .unwrap();
        sizes.push(size);
    }
    v.sync().unwrap();
    // Serve ~25 MB with a popularity skew (hot pages cached).
    let mut served = 0usize;
    while served < 25 * 1024 * 1024 {
        let p = if rng.below(100) < 80 {
            rng.below(10) // hot set
        } else {
            rng.below(100)
        } as usize;
        let data = v.read_file(&format!("/www/page{p}.html")).unwrap();
        clock.advance_ns(REQUEST_NS);
        served += data.len();
    }
}

fn postmark(v: &mut Vfs<Fs>) {
    // 10 subdirectories, 300 initial files of 4–64 KiB, 800 transactions
    // (scaled from the paper's parameters to the simulated disk).
    let mut rng = Rng(0xD00D);
    let mut files: Vec<String> = Vec::new();
    for d in 0..10 {
        v.mkdir(&format!("/pm{d}"), 0o755).unwrap();
    }
    let mut serial = 0u64;
    let mut create = |v: &mut Vfs<Fs>, rng: &mut Rng, files: &mut Vec<String>| {
        let d = rng.below(10);
        serial += 1;
        let path = format!("/pm{d}/file{serial}");
        let size = 4_096 + rng.below(60_000) as usize;
        v.write_file(&path, &payload(size, serial)).unwrap();
        files.push(path);
    };
    for _ in 0..300 {
        create(v, &mut rng, &mut files);
    }
    for _ in 0..800 {
        match rng.below(4) {
            0 => create(v, &mut rng, &mut files),
            1 => {
                // Delete.
                if files.len() > 50 {
                    let i = rng.below(files.len() as u64) as usize;
                    let path = files.swap_remove(i);
                    v.unlink(&path).unwrap();
                }
            }
            2 => {
                // Read.
                let i = rng.below(files.len() as u64) as usize;
                let _ = v.read_file(&files[i]).unwrap();
            }
            _ => {
                // Append.
                let i = rng.below(files.len() as u64) as usize;
                let fd = v
                    .open(
                        &files[i],
                        OpenFlags {
                            write: true,
                            append: true,
                            ..Default::default()
                        },
                    )
                    .unwrap();
                v.write(fd, &payload(4_096, i as u64)).unwrap();
                v.close(fd).unwrap();
            }
        }
    }
    v.sync().unwrap();
}

fn tpc_b(v: &mut Vfs<Fs>, clock: &SimClock) {
    // A 4 MiB account "database", a branch file, and an append-only
    // history; 1000 randomly generated debit-credit transactions, each
    // synchronously committed (the paper's TPC-B is fsync-bound).
    let mut rng = Rng(0xACC7);
    let db_pages = 1024u64; // 4 MiB
    v.write_file("/accounts.db", &payload(db_pages as usize * BLOCK_SIZE, 1))
        .unwrap();
    v.write_file("/branches.db", &payload(16 * BLOCK_SIZE, 2))
        .unwrap();
    v.write_file("/history.log", b"").unwrap();
    v.sync().unwrap();
    let adb = v.open("/accounts.db", OpenFlags::rdwr()).unwrap();
    let bdb = v.open("/branches.db", OpenFlags::rdwr()).unwrap();
    let hist = v
        .open(
            "/history.log",
            OpenFlags {
                write: true,
                append: true,
                ..Default::default()
            },
        )
        .unwrap();
    for txn in 0..1000u64 {
        let page = rng.below(db_pages);
        let off = page * BLOCK_SIZE as u64;
        let mut rec = v.pread(adb, off, BLOCK_SIZE).unwrap();
        rec[..8].copy_from_slice(&txn.to_le_bytes());
        v.pwrite(adb, off, &rec).unwrap();
        let boff = rng.below(16) * BLOCK_SIZE as u64;
        let mut brec = v.pread(bdb, boff, 64).unwrap();
        brec[..8].copy_from_slice(&txn.to_le_bytes());
        v.pwrite(bdb, boff, &brec).unwrap();
        v.write(hist, &payload(100, txn)).unwrap();
        // Transaction compute (debit/credit bookkeeping).
        clock.advance_ns(500_000);
        // Durability point: commit the transaction.
        v.fsync(hist).unwrap();
    }
    v.close(adb).unwrap();
    v.close(bdb).unwrap();
    v.close(hist).unwrap();
}

/// Run one benchmark under one IRON configuration; returns simulated
/// nanoseconds elapsed over the workload (excluding mkfs/mount) and the
/// disk's statistics over its whole life (mkfs and mount included).
pub fn run_benchmark_with_stats(
    bench: Benchmark,
    iron: IronConfig,
) -> (u64, iron_blockdev::memdisk::DiskStats) {
    let (mut v, clock) = setup(iron);
    let start = clock.now_ns();
    match bench {
        Benchmark::SshBuild => ssh_build(&mut v, &clock),
        Benchmark::WebServer => web_server(&mut v, &clock),
        Benchmark::PostMark => postmark(&mut v),
        Benchmark::TpcB => tpc_b(&mut v, &clock),
    }
    v.umount().expect("bench unmount");
    let elapsed = clock.now_ns() - start;
    let stats = v.into_fs().into_device().stats();
    (elapsed, stats)
}

/// [`run_benchmark_with_stats`] without the statistics.
pub fn run_benchmark(bench: Benchmark, iron: IronConfig) -> u64 {
    run_benchmark_with_stats(bench, iron).0
}

/// One Table 6 row: an IRON variant and its normalized runtimes.
#[derive(Clone, Debug)]
pub struct Table6Row {
    /// Row number (0 = baseline ext3).
    pub index: usize,
    /// The variant.
    pub config: IronConfig,
    /// Normalized runtime per benchmark (vs. row 0).
    pub normalized: Vec<f64>,
}

/// Regenerate Table 6: all 32 variants × the four benchmarks, normalized
/// to stock ext3 (with bugs fixed — ixt3's baseline engine).
///
/// `configs` restricts rows (pass `IronConfig::all_combinations()` for the
/// full table).
pub fn table6(configs: &[IronConfig], benches: &[Benchmark]) -> Vec<Table6Row> {
    let baseline: Vec<u64> = benches
        .iter()
        .map(|b| {
            run_benchmark(
                *b,
                IronConfig {
                    fix_bugs: true,
                    ..IronConfig::off()
                },
            )
        })
        .collect();
    configs
        .iter()
        .enumerate()
        .map(|(index, &config)| {
            let normalized = benches
                .iter()
                .zip(&baseline)
                .map(|(b, base)| run_benchmark(*b, config) as f64 / *base as f64)
                .collect();
            Table6Row {
                index,
                config,
                normalized,
            }
        })
        .collect()
}

/// Render Table 6 rows in the paper's format (slowdowns > 10% would be
/// bold in print; speedups are bracketed).
pub fn render_table6(rows: &[Table6Row], benches: &[Benchmark]) -> String {
    let mut out = String::from("Table 6: Overheads of ixt3 File System Variants\n");
    out.push_str(&format!("{:<4} {:<16}", "#", "Variant"));
    for b in benches {
        out.push_str(&format!("{:>8}", b.label()));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<4} {:<16}", row.index, row.config.label()));
        for v in &row.normalized {
            if *v < 0.995 {
                out.push_str(&format!("  [{v:.2}]"));
            } else {
                out.push_str(&format!("{v:>8.2}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_complete_and_consume_time() {
        for b in Benchmark::ALL {
            let ns = run_benchmark(b, IronConfig::off());
            assert!(ns > 1_000_000, "{b:?} must take visible simulated time");
        }
    }

    #[test]
    fn benchmarks_are_deterministic() {
        let a = run_benchmark(Benchmark::PostMark, IronConfig::off());
        let b = run_benchmark(Benchmark::PostMark, IronConfig::off());
        assert_eq!(a, b);
    }

    #[test]
    fn web_server_is_insensitive_to_iron() {
        // Table 6: the web column is 1.00 for essentially every variant.
        let base = run_benchmark(
            Benchmark::WebServer,
            IronConfig {
                fix_bugs: true,
                ..IronConfig::off()
            },
        );
        let full = run_benchmark(Benchmark::WebServer, IronConfig::full());
        let ratio = full as f64 / base as f64;
        assert!(
            (0.95..1.10).contains(&ratio),
            "web ratio {ratio:.3} should be ~1.00"
        );
    }

    #[test]
    fn transactional_checksums_speed_up_tpcb() {
        // Table 6 row 5: Tc alone gives ~0.80 on TPC-B.
        let base = run_benchmark(
            Benchmark::TpcB,
            IronConfig {
                fix_bugs: true,
                ..IronConfig::off()
            },
        );
        let tc = run_benchmark(
            Benchmark::TpcB,
            IronConfig {
                txn_checksum: true,
                fix_bugs: true,
                ..IronConfig::off()
            },
        );
        let ratio = tc as f64 / base as f64;
        assert!(
            ratio < 0.95,
            "Tc must speed TPC-B up (got ratio {ratio:.3})"
        );
        assert!(ratio > 0.6, "speedup should be moderate (got {ratio:.3})");
    }

    #[test]
    fn metadata_replication_costs_on_postmark() {
        // Table 6 row 2: Mr alone costs ~18% on PostMark.
        let base = run_benchmark(
            Benchmark::PostMark,
            IronConfig {
                fix_bugs: true,
                ..IronConfig::off()
            },
        );
        let mr = run_benchmark(
            Benchmark::PostMark,
            IronConfig {
                meta_replication: true,
                fix_bugs: true,
                ..IronConfig::off()
            },
        );
        let ratio = mr as f64 / base as f64;
        assert!(ratio > 1.03, "Mr must cost on PostMark (got {ratio:.3})");
        assert!(ratio < 1.8, "but not absurdly (got {ratio:.3})");
    }
}
