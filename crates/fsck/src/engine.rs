//! The parallel, pipelined check engine.
//!
//! Pass structure (pFSCK-style):
//!
//! ```text
//! pass 0  superblock sanity            sequential, may abort (fatal)
//! pass 1  directory walk               breadth-first rounds; each round's
//!                                      frontier is sharded across workers
//! ──────────────────────────── barrier ───────────────────────────────
//! pass 2  block-reference scan   ┐     sharded; per-shard ref bitmaps
//!         + bitmap reconcile     │       merged at the join barrier
//! pass 3  link counts            ├──   pipelined: independent jobs run
//! pass 4  inode-table scan       ┘       concurrently on the pool
//! ```
//!
//! Determinism: workers claim chunks racily, so discovery order varies
//! run to run — the final report is canonically sorted, making the issue
//! set identical at every thread count (the differential-oracle
//! invariant the property suites pin).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::Instant;

use iron_core::KernelLog;

use crate::check::{Checkable, FileKind};
use crate::issue::{FsckIssue, FsckReport};
use crate::repair::{self, RepairFailure, RepairPlan, RepairSummary, Repairable};
use iron_core::exec::{Job, WorkerPool};

/// Blocks per bitmap-reconciliation work item.
const REGION_CHUNK: u64 = 1024;

/// Wall time and volume of one pass.
#[derive(Clone, Copy, Debug)]
pub struct PassStat {
    /// Pass name ("superblock", "dir_walk", "block_refs",
    /// "bitmap_reconcile", "link_counts", "inode_scan").
    pub name: &'static str,
    /// Wall-clock nanoseconds the pass took.
    pub wall_ns: u64,
    /// Items processed (inodes, refs, blocks — per the pass).
    pub items: u64,
    /// Issues the pass contributed.
    pub issues: u64,
}

/// Observability counters for one check run.
#[derive(Clone, Debug, Default)]
pub struct FsckStats {
    /// Worker threads the engine ran with.
    pub threads: usize,
    /// Inodes reached by the directory walk.
    pub inodes_walked: u64,
    /// Directory entries parsed.
    pub dir_entries_scanned: u64,
    /// Block references scanned (with multiplicity).
    pub block_refs: u64,
    /// Bitmap-covered blocks reconciled against the reference map.
    pub blocks_reconciled: u64,
    /// Total issues in the final report.
    pub issues_found: u64,
    /// End-to-end wall time.
    pub total_wall_ns: u64,
    /// Per-pass breakdown, in canonical pass order.
    pub passes: Vec<PassStat>,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct FsckOptions {
    /// Worker threads: 1 is the honest sequential baseline, 0 is one worker
    /// per hardware thread (as in the campaign and serve options).
    pub threads: usize,
    /// Kernel log to surface pass counters and summaries through.
    pub klog: Option<KernelLog>,
}

impl Default for FsckOptions {
    fn default() -> Self {
        FsckOptions {
            threads: 1,
            klog: None,
        }
    }
}

/// The check-and-repair engine. Stateless between runs; cheap to build.
pub struct FsckEngine {
    pool: WorkerPool,
    klog: Option<KernelLog>,
}

/// Per-shard accumulator of the directory-walk pass.
#[derive(Default)]
struct WalkAcc {
    issues: Vec<FsckIssue>,
    links: HashMap<u64, u32>,
    children: Vec<u64>,
    scannable: Vec<u64>,
    entries: u64,
}

/// Per-shard block-reference bitmap ("which blocks did my chunk of inodes
/// reference"), merged at the barrier. Duplicates surface either at
/// `note` time (within a shard) or as bit overlap at `merge` time
/// (across shards), so the multiset of duplicate reports is exactly
/// "references minus distinct blocks" — matching a sequential count.
#[derive(Default)]
struct RefMap {
    words: Vec<u64>,
    dups: Vec<u64>,
    /// References beyond the device (counted, never dereferenced).
    overflow: HashMap<u64, u64>,
    total_refs: u64,
}

impl RefMap {
    fn note(&mut self, addr: u64, device_blocks: u64) {
        self.total_refs += 1;
        if addr >= device_blocks {
            *self.overflow.entry(addr).or_insert(0) += 1;
            return;
        }
        if self.words.is_empty() {
            self.words = vec![0u64; (device_blocks as usize).div_ceil(64)];
        }
        let (w, b) = ((addr / 64) as usize, addr % 64);
        if self.words[w] >> b & 1 == 1 {
            self.dups.push(addr);
        } else {
            self.words[w] |= 1 << b;
        }
    }

    fn merge(&mut self, other: RefMap) {
        self.total_refs += other.total_refs;
        for (addr, n) in other.overflow {
            *self.overflow.entry(addr).or_insert(0) += n;
        }
        self.dups.extend(other.dups);
        if self.words.is_empty() {
            self.words = other.words;
            return;
        }
        for (i, (w, o)) in self.words.iter_mut().zip(other.words).enumerate() {
            let mut both = *w & o;
            while both != 0 {
                self.dups
                    .push(i as u64 * 64 + u64::from(both.trailing_zeros()));
                both &= both - 1;
            }
            *w |= o;
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (w, b) = ((addr / 64) as usize, addr % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    fn dup_issues(&self) -> Vec<FsckIssue> {
        let mut out: Vec<FsckIssue> = self
            .dups
            .iter()
            .map(|&addr| FsckIssue::BlockDoublyUsed { addr })
            .collect();
        for (&addr, &n) in &self.overflow {
            for _ in 1..n {
                out.push(FsckIssue::BlockDoublyUsed { addr });
            }
        }
        out
    }
}

/// What each pipelined job hands back.
struct PassOut {
    issues: Vec<FsckIssue>,
    passes: Vec<PassStat>,
    block_refs: u64,
    blocks_reconciled: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn split_region(r: Range<u64>) -> Vec<Range<u64>> {
    let mut out = Vec::new();
    let mut start = r.start;
    while start < r.end {
        let end = (start + REGION_CHUNK).min(r.end);
        out.push(start..end);
        start = end;
    }
    out
}

fn walk_inode<C: Checkable + ?Sized>(fs: &C, ino: u64, total_inodes: u64, acc: &mut WalkAcc) {
    let s = fs.inode(ino);
    if s.free || s.kind.is_none() {
        return; // reported as dangling wherever referenced
    }
    acc.scannable.push(ino);
    if s.kind == Some(FileKind::Directory) {
        for e in fs.dir_entries(ino) {
            acc.entries += 1;
            if e.ino == 0 || e.ino > total_inodes || fs.inode(e.ino).free {
                acc.issues.push(FsckIssue::DanglingEntry {
                    dir: ino,
                    name: e.name,
                    ino: e.ino,
                });
                continue;
            }
            *acc.links.entry(e.ino).or_insert(0) += 1;
            if e.name != "." && e.name != ".." {
                acc.children.push(e.ino);
            }
        }
    }
}

impl FsckEngine {
    /// Build an engine from options.
    pub fn new(opts: FsckOptions) -> Self {
        FsckEngine {
            pool: WorkerPool::sized(opts.threads),
            klog: opts.klog,
        }
    }

    /// Convenience: an engine with `threads` workers and no logging.
    pub fn with_threads(threads: usize) -> Self {
        FsckEngine::new(FsckOptions {
            threads,
            ..FsckOptions::default()
        })
    }

    /// The worker-pool width this engine runs with.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Check `fs` and return the canonically sorted report.
    pub fn check<C: Checkable>(&self, fs: &C) -> FsckReport {
        let t_total = Instant::now();
        let mut stats = FsckStats {
            threads: self.pool.threads(),
            ..FsckStats::default()
        };
        let mut issues = Vec::new();

        // Pass 0: superblock sanity (DSanity). Fatal damage stops here —
        // nothing below the superblock can be trusted.
        let t0 = Instant::now();
        let sb = fs.check_superblock();
        stats.passes.push(PassStat {
            name: "superblock",
            wall_ns: elapsed_ns(t0),
            items: 1,
            issues: sb.issues.len() as u64,
        });
        let fatal = sb.fatal;
        issues.extend(sb.issues);
        if fatal {
            return self.finish(fs, issues, stats, t_total);
        }

        let total_inodes = fs.total_inodes();
        let device_blocks = fs.device_blocks();

        // Pass 1: breadth-first directory walk. Each round shards the
        // current frontier across the pool; reachability and link counts
        // merge at the round barrier.
        let t1 = Instant::now();
        let mut walk_issues = 0u64;
        let root = fs.root_ino();
        let mut reachable: BTreeSet<u64> = BTreeSet::from([root]);
        let mut links: BTreeMap<u64, u32> = BTreeMap::new();
        let mut scannable: Vec<u64> = Vec::new();
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let acc = self.pool.shard(
                &frontier,
                |acc: &mut WalkAcc, &ino| walk_inode(fs, ino, total_inodes, acc),
                |out, shard| {
                    out.issues.extend(shard.issues);
                    for (ino, n) in shard.links {
                        *out.links.entry(ino).or_insert(0) += n;
                    }
                    out.children.extend(shard.children);
                    out.scannable.extend(shard.scannable);
                    out.entries += shard.entries;
                },
            );
            walk_issues += acc.issues.len() as u64;
            issues.extend(acc.issues);
            for (ino, n) in acc.links {
                *links.entry(ino).or_insert(0) += n;
            }
            scannable.extend(acc.scannable);
            stats.dir_entries_scanned += acc.entries;
            frontier = acc
                .children
                .into_iter()
                .filter(|&c| reachable.insert(c))
                .collect();
        }
        scannable.sort_unstable();
        stats.inodes_walked = reachable.len() as u64;
        stats.passes.push(PassStat {
            name: "dir_walk",
            wall_ns: elapsed_ns(t1),
            items: stats.inodes_walked,
            issues: walk_issues,
        });

        // Passes 2–4, pipelined: three independent jobs run concurrently.
        // The block-reference scan and the inode-table scan additionally
        // shard their work across the pool from inside their jobs.
        let pool = self.pool;
        let scannable = &scannable;
        let links = &links;
        let reachable = &reachable;
        let inos: Vec<u64> = (1..=total_inodes)
            .filter(|&i| !fs.is_reserved_ino(i))
            .collect();
        let inos = &inos;

        let job_refs: Job<'_, PassOut> = Box::new(move || {
            let t = Instant::now();
            let refmap = pool.shard(
                scannable,
                |acc: &mut RefMap, &ino| {
                    for addr in fs.block_refs(ino) {
                        acc.note(addr, device_blocks);
                    }
                },
                |out, shard| out.merge(shard),
            );
            let mut issues = refmap.dup_issues();
            let refs_stat = PassStat {
                name: "block_refs",
                wall_ns: elapsed_ns(t),
                items: refmap.total_refs,
                issues: issues.len() as u64,
            };

            let t = Instant::now();
            let chunks: Vec<Range<u64>> = fs
                .data_regions()
                .into_iter()
                .flat_map(split_region)
                .collect();
            let blocks: u64 = chunks.iter().map(|r| r.end - r.start).sum();
            let rec_issues = pool.shard(
                &chunks,
                |acc: &mut Vec<FsckIssue>, r| {
                    for addr in r.clone() {
                        let marked = fs.block_marked(addr);
                        let used = refmap.contains(addr);
                        if used && !marked {
                            acc.push(FsckIssue::BlockNotMarked { addr });
                        }
                        if marked && !used {
                            acc.push(FsckIssue::BlockLeaked { addr });
                        }
                    }
                },
                |out, shard| out.extend(shard),
            );
            let rec_stat = PassStat {
                name: "bitmap_reconcile",
                wall_ns: elapsed_ns(t),
                items: blocks,
                issues: rec_issues.len() as u64,
            };
            issues.extend(rec_issues);
            PassOut {
                issues,
                passes: vec![refs_stat, rec_stat],
                block_refs: refmap.total_refs,
                blocks_reconciled: blocks,
            }
        });

        let job_links: Job<'_, PassOut> = Box::new(move || {
            let t = Instant::now();
            let mut issues = Vec::new();
            for (&ino, &actual) in links {
                let s = fs.inode(ino);
                if !s.free && s.links != actual {
                    issues.push(FsckIssue::WrongLinkCount {
                        ino,
                        stored: s.links,
                        actual,
                    });
                }
            }
            let stat = PassStat {
                name: "link_counts",
                wall_ns: elapsed_ns(t),
                items: links.len() as u64,
                issues: issues.len() as u64,
            };
            PassOut {
                issues,
                passes: vec![stat],
                block_refs: 0,
                blocks_reconciled: 0,
            }
        });

        let job_inodes: Job<'_, PassOut> = Box::new(move || {
            let t = Instant::now();
            let issues = pool.shard(
                inos,
                |acc: &mut Vec<FsckIssue>, &ino| {
                    let marked = fs.inode_marked(ino);
                    let s = fs.inode(ino);
                    if marked == s.free {
                        acc.push(FsckIssue::InodeBitmapMismatch { ino });
                    }
                    if !s.free && !reachable.contains(&ino) {
                        acc.push(FsckIssue::OrphanInode { ino });
                    }
                },
                |out, shard| out.extend(shard),
            );
            let stat = PassStat {
                name: "inode_scan",
                wall_ns: elapsed_ns(t),
                items: inos.len() as u64,
                issues: issues.len() as u64,
            };
            PassOut {
                issues,
                passes: vec![stat],
                block_refs: 0,
                blocks_reconciled: 0,
            }
        });

        for out in self.pool.run_jobs(vec![job_refs, job_links, job_inodes]) {
            issues.extend(out.issues);
            stats.passes.extend(out.passes);
            stats.block_refs += out.block_refs;
            stats.blocks_reconciled += out.blocks_reconciled;
        }

        self.finish(fs, issues, stats, t_total)
    }

    /// Plan and transactionally apply repairs for `report`'s issues.
    pub fn repair<R: Repairable>(
        &self,
        fs: &mut R,
        report: &FsckReport,
    ) -> Result<RepairSummary, RepairFailure> {
        let plan = RepairPlan::new(&report.issues);
        repair::apply(fs, &plan, self.klog.as_ref())
    }

    /// check → repair → re-check. Returns (before, repair summary, after).
    #[allow(clippy::type_complexity)]
    pub fn check_and_repair<R: Repairable>(
        &self,
        fs: &mut R,
    ) -> Result<(FsckReport, RepairSummary, FsckReport), RepairFailure> {
        let before = self.check(fs);
        let summary = self.repair(fs, &before)?;
        let after = self.check(fs);
        Ok((before, summary, after))
    }

    fn finish<C: Checkable>(
        &self,
        fs: &C,
        mut issues: Vec<FsckIssue>,
        mut stats: FsckStats,
        t_total: Instant,
    ) -> FsckReport {
        issues.sort();
        stats.issues_found = issues.len() as u64;
        stats.total_wall_ns = elapsed_ns(t_total);
        if let Some(klog) = &self.klog {
            let name = fs.fs_name();
            for p in &stats.passes {
                klog.info(
                    "fsck",
                    format!(
                        "{name}: pass {}: {} item(s), {} issue(s), {} ns",
                        p.name, p.items, p.issues, p.wall_ns
                    ),
                );
            }
            let msg = format!(
                "{name}: check complete: {} issue(s); {} inode(s), {} entrie(s), \
                 {} block ref(s), {} block(s) reconciled; {} thread(s), {} ns",
                stats.issues_found,
                stats.inodes_walked,
                stats.dir_entries_scanned,
                stats.block_refs,
                stats.blocks_reconciled,
                stats.threads,
                stats.total_wall_ns,
            );
            if issues.is_empty() {
                klog.info("fsck", msg);
            } else {
                klog.warn("fsck", msg);
            }
        }
        FsckReport { issues, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SuperblockReport;
    use crate::mockfs::MockFs;

    #[test]
    fn clean_mock_is_clean_at_every_width() {
        for threads in [1, 2, 4] {
            let fs = MockFs::healthy();
            let report = FsckEngine::with_threads(threads).check(&fs);
            assert!(report.is_clean(), "threads={threads}: {:?}", report.issues);
            assert_eq!(report.stats.threads, threads);
        }
    }

    #[test]
    fn zero_threads_is_one_worker_per_hardware_thread() {
        assert_eq!(
            FsckEngine::with_threads(0).threads(),
            WorkerPool::auto().threads()
        );
    }

    #[test]
    fn every_issue_class_is_detected() {
        let mut fs = MockFs::healthy();
        fs.block_bitmap.remove(&101); // ino 3's block now unmarked
        fs.block_bitmap.insert(150); // stray mark: leaked
        fs.refs.get_mut(&5).unwrap().push(103); // 103 also owned by ino 4
        fs.inodes.get_mut(&3).unwrap().links = 7; // wrong link count
        fs.add_orphan(9, &[]); // allocated+marked, no entry anywhere
        fs.inode_bitmap.remove(&5); // allocated but unmarked
        fs.dirs
            .get_mut(&4)
            .unwrap()
            .push(MockFs::entry("ghost", 12)); // free target
        let report = FsckEngine::with_threads(4).check(&fs);
        let expect = vec![
            FsckIssue::DanglingEntry {
                dir: 4,
                name: "ghost".into(),
                ino: 12,
            },
            FsckIssue::WrongLinkCount {
                ino: 3,
                stored: 7,
                actual: 1,
            },
            FsckIssue::BlockNotMarked { addr: 101 },
            FsckIssue::BlockLeaked { addr: 150 },
            FsckIssue::BlockDoublyUsed { addr: 103 },
            FsckIssue::OrphanInode { ino: 9 },
            FsckIssue::InodeBitmapMismatch { ino: 5 },
        ];
        assert!(report.same_issues(&expect), "got {:?}", report.issues);
    }

    #[test]
    fn out_of_range_refs_are_counted_not_dereferenced() {
        let mut fs = MockFs::healthy();
        let oob = fs.device_blocks + 17;
        fs.refs.get_mut(&3).unwrap().push(oob);
        fs.refs.get_mut(&5).unwrap().push(oob); // second ref: duplicate
        let report = FsckEngine::with_threads(2).check(&fs);
        assert_eq!(
            report.issues,
            vec![FsckIssue::BlockDoublyUsed { addr: oob }],
            "one duplicate for the extra out-of-range reference"
        );
    }

    #[test]
    fn fatal_superblock_short_circuits() {
        let mut fs = MockFs::healthy();
        fs.sb = SuperblockReport {
            issues: vec![FsckIssue::BadSuperblock],
            fatal: true,
        };
        let report = FsckEngine::with_threads(4).check(&fs);
        assert_eq!(report.issues, vec![FsckIssue::BadSuperblock]);
        assert_eq!(report.stats.passes.len(), 1, "no passes after pass 0");
    }

    #[test]
    fn wide_image_reports_identically_at_every_width() {
        let mut fs = MockFs::wide(700);
        fs.scatter_damage(31);
        let oracle = FsckEngine::with_threads(1).check(&fs);
        assert!(!oracle.is_clean(), "damage must be visible");
        for threads in [2, 4, 8] {
            let report = FsckEngine::with_threads(threads).check(&fs);
            assert_eq!(report.issues, oracle.issues, "threads={threads}");
        }
    }

    #[test]
    fn stats_count_the_walk() {
        let fs = MockFs::wide(64);
        let report = FsckEngine::with_threads(4).check(&fs);
        assert!(report.is_clean());
        let s = &report.stats;
        assert_eq!(s.inodes_walked, 2 + 64, "root + wide files + spare dir");
        assert!(s.dir_entries_scanned >= 64);
        assert!(s.block_refs > 0);
        assert!(s.blocks_reconciled > 0);
        assert_eq!(s.issues_found, 0);
        let names: Vec<_> = s.passes.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "superblock",
                "dir_walk",
                "block_refs",
                "bitmap_reconcile",
                "link_counts",
                "inode_scan"
            ]
        );
    }

    #[test]
    fn klog_surfaces_pass_counters() {
        let klog = KernelLog::new();
        let engine = FsckEngine::new(FsckOptions {
            threads: 2,
            klog: Some(klog.clone()),
        });
        let mut fs = MockFs::healthy();
        engine.check(&fs);
        assert!(klog.contains("mockfs: check complete: 0 issue(s)"));
        assert!(klog.contains("pass dir_walk"));
        // A dirty image logs the summary at warning level.
        fs.block_bitmap.insert(199);
        engine.check(&fs);
        assert!(klog.contains("1 issue(s)"));
    }

    #[test]
    fn check_and_repair_round_trip_on_fixable_damage() {
        let mut fs = MockFs::healthy();
        fs.block_bitmap.insert(160); // leak — fixable
        fs.inodes.get_mut(&3).unwrap().links = 9; // fixable
        fs.inode_bitmap.remove(&4); // mismatch — fixable
        let engine = FsckEngine::with_threads(2);
        let (before, summary, after) = engine.check_and_repair(&mut fs).unwrap();
        assert_eq!(before.issues.len(), 3);
        assert_eq!(summary.applied, 3);
        assert_eq!(summary.deferred, 0);
        assert!(after.is_clean(), "after: {:?}", after.issues);
    }
}
