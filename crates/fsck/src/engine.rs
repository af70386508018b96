//! The check engine: six plain passes over a [`Checkable`] view.
//!
//! ```text
//! pass 0  superblock sanity     fatal damage stops the check here
//! pass 1  directory walk        breadth-first from the root: reachability,
//!                               link counts, dangling entries
//! pass 2  block references      every reachable inode's blocks into one
//!                               reference bitmap; duplicates fall out
//! pass 3  bitmap reconcile      allocation bitmap vs. the reference bitmap
//! pass 4  link counts           stored vs. counted by the walk
//! pass 5  inode-table scan      inode bitmap vs. table, orphans
//! ```
//!
//! The passes run one after another. The final report is canonically
//! sorted, so it does not depend on the order a directory lists its
//! children in.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

use iron_core::KernelLog;

use crate::check::{Checkable, FileKind};
use crate::issue::{FsckIssue, FsckReport};
use crate::repair::{self, RepairFailure, RepairPlan, RepairSummary, Repairable};

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

/// The check-and-repair engine. Stateless between runs; cheap to build.
pub struct FsckEngine {
    klog: Option<KernelLog>,
}

/// Which blocks the scanned inodes reference. A second reference to a
/// block is a duplicate, so the duplicate reports are exactly "references
/// minus distinct blocks".
struct RefMap {
    device_blocks: u64,
    words: Vec<u64>,
    dups: Vec<u64>,
    /// References beyond the device (counted, never dereferenced).
    overflow: HashMap<u64, u64>,
    total_refs: u64,
}

impl RefMap {
    fn new(device_blocks: u64) -> Self {
        RefMap {
            device_blocks,
            words: vec![0u64; (device_blocks as usize).div_ceil(64)],
            dups: Vec::new(),
            overflow: HashMap::new(),
            total_refs: 0,
        }
    }

    fn note(&mut self, addr: u64) {
        self.total_refs += 1;
        if addr >= self.device_blocks {
            *self.overflow.entry(addr).or_insert(0) += 1;
            return;
        }
        let (w, b) = ((addr / 64) as usize, addr % 64);
        if self.words[w] >> b & 1 == 1 {
            self.dups.push(addr);
        } else {
            self.words[w] |= 1 << b;
        }
    }

    fn contains(&self, addr: u64) -> bool {
        let (w, b) = ((addr / 64) as usize, addr % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    fn dup_issues(&self) -> impl Iterator<Item = FsckIssue> + '_ {
        let in_range = self.dups.iter().copied();
        let beyond = self
            .overflow
            .iter()
            .flat_map(|(&addr, &n)| (1..n).map(move |_| addr));
        in_range
            .chain(beyond)
            .map(|addr| FsckIssue::BlockDoublyUsed { addr })
    }
}

/// One check in progress: the issues so far and the counters, with the
/// bookkeeping that turns "what the last pass added" into a [`PassStat`].
struct Run {
    issues: Vec<FsckIssue>,
    stats: FsckStats,
    started: Instant,
    pass_started: Instant,
    pass_first_issue: usize,
}

impl Run {
    fn new() -> Self {
        let now = Instant::now();
        Run {
            issues: Vec::new(),
            stats: FsckStats::default(),
            started: now,
            pass_started: now,
            pass_first_issue: 0,
        }
    }

    /// Close the pass that has been running since the previous call.
    fn end_pass(&mut self, name: &'static str, items: u64) {
        let now = Instant::now();
        self.stats.passes.push(PassStat {
            name,
            wall_ns: (now - self.pass_started).as_nanos() as u64,
            items,
            issues: (self.issues.len() - self.pass_first_issue) as u64,
        });
        self.pass_started = now;
        self.pass_first_issue = self.issues.len();
    }
}

impl FsckEngine {
    /// Build an engine; pass counters and summaries go to `klog` if given.
    pub fn new(klog: Option<KernelLog>) -> Self {
        FsckEngine { klog }
    }

    /// Check `fs` and return the canonically sorted report.
    pub fn check<C: Checkable>(&self, fs: &C) -> FsckReport {
        let mut run = Run::new();

        // Pass 0: superblock sanity (DSanity). Fatal damage stops here —
        // nothing below the superblock can be trusted.
        let sb = fs.check_superblock();
        run.issues.extend(sb.issues);
        run.end_pass("superblock", 1);
        if sb.fatal {
            return self.finish(fs, run);
        }

        let total_inodes = fs.total_inodes();

        // Pass 1: breadth-first directory walk from the root.
        let root = fs.root_ino();
        let mut reachable: BTreeSet<u64> = BTreeSet::from([root]);
        let mut links: BTreeMap<u64, u32> = BTreeMap::new();
        let mut scannable: Vec<u64> = Vec::new();
        let mut queue = VecDeque::from([root]);
        while let Some(ino) = queue.pop_front() {
            let s = fs.inode(ino);
            if s.free || s.kind.is_none() {
                continue; // reported as dangling wherever referenced
            }
            scannable.push(ino);
            if s.kind != Some(FileKind::Directory) {
                continue;
            }
            for e in fs.dir_entries(ino) {
                run.stats.dir_entries_scanned += 1;
                if e.ino == 0 || e.ino > total_inodes || fs.inode(e.ino).free {
                    run.issues.push(FsckIssue::DanglingEntry {
                        dir: ino,
                        name: e.name,
                        ino: e.ino,
                    });
                    continue;
                }
                *links.entry(e.ino).or_insert(0) += 1;
                if e.name != "." && e.name != ".." && reachable.insert(e.ino) {
                    queue.push_back(e.ino);
                }
            }
        }
        run.stats.inodes_walked = reachable.len() as u64;
        run.end_pass("dir_walk", run.stats.inodes_walked);

        // Pass 2: every block the walked inodes reference.
        let mut refmap = RefMap::new(fs.device_blocks());
        for &ino in &scannable {
            for addr in fs.block_refs(ino) {
                refmap.note(addr);
            }
        }
        run.issues.extend(refmap.dup_issues());
        run.stats.block_refs = refmap.total_refs;
        run.end_pass("block_refs", refmap.total_refs);

        // Pass 3: the allocation bitmaps against those references.
        for region in fs.data_regions() {
            run.stats.blocks_reconciled += region.end - region.start;
            for addr in region {
                let marked = fs.block_marked(addr);
                let used = refmap.contains(addr);
                if used && !marked {
                    run.issues.push(FsckIssue::BlockNotMarked { addr });
                }
                if marked && !used {
                    run.issues.push(FsckIssue::BlockLeaked { addr });
                }
            }
        }
        run.end_pass("bitmap_reconcile", run.stats.blocks_reconciled);

        // Pass 4: stored link counts against the walk's.
        for (&ino, &actual) in &links {
            let s = fs.inode(ino);
            if !s.free && s.links != actual {
                run.issues.push(FsckIssue::WrongLinkCount {
                    ino,
                    stored: s.links,
                    actual,
                });
            }
        }
        run.end_pass("link_counts", links.len() as u64);

        // Pass 5: the inode table against its bitmap, and orphans.
        let mut scanned = 0;
        for ino in (1..=total_inodes).filter(|&i| !fs.is_reserved_ino(i)) {
            scanned += 1;
            let s = fs.inode(ino);
            if fs.inode_marked(ino) == s.free {
                run.issues.push(FsckIssue::InodeBitmapMismatch { ino });
            }
            if !s.free && !reachable.contains(&ino) {
                run.issues.push(FsckIssue::OrphanInode { ino });
            }
        }
        run.end_pass("inode_scan", scanned);

        self.finish(fs, run)
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

    fn finish<C: Checkable>(&self, fs: &C, run: Run) -> FsckReport {
        let Run {
            mut issues,
            mut stats,
            started,
            ..
        } = run;
        issues.sort();
        stats.issues_found = issues.len() as u64;
        stats.total_wall_ns = started.elapsed().as_nanos() as u64;
        // Wall time stays out of the log: two checks of one image must
        // log the same lines.
        if let Some(klog) = &self.klog {
            let name = fs.fs_name();
            for p in &stats.passes {
                klog.info(
                    "fsck",
                    format!(
                        "{name}: pass {}: {} item(s), {} issue(s)",
                        p.name, p.items, p.issues
                    ),
                );
            }
            let msg = format!(
                "{name}: check complete: {} issue(s); {} inode(s), {} entries, \
                 {} block ref(s), {} block(s) reconciled",
                stats.issues_found,
                stats.inodes_walked,
                stats.dir_entries_scanned,
                stats.block_refs,
                stats.blocks_reconciled,
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
    fn clean_mock_is_clean() {
        let report = FsckEngine::new(None).check(&MockFs::healthy());
        assert!(report.is_clean(), "{:?}", report.issues);
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
        let report = FsckEngine::new(None).check(&fs);
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
        let report = FsckEngine::new(None).check(&fs);
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
        let report = FsckEngine::new(None).check(&fs);
        assert_eq!(report.issues, vec![FsckIssue::BadSuperblock]);
        assert_eq!(report.stats.passes.len(), 1, "no passes after pass 0");
    }

    /// The one image the ext3 oracle cannot judge. The literal is what
    /// the sharded, pipelined engine this one replaced reported for it at
    /// widths 1, 2, 4 and 8 (recorded at 584dd96).
    #[test]
    fn wide_image_reports_the_recorded_issues() {
        let mut fs = MockFs::wide(700);
        fs.scatter_damage(31);
        let report = FsckEngine::new(None).check(&fs);
        let wrong_links = [12, 33, 38, 46, 49, 53].map(|ino| FsckIssue::WrongLinkCount {
            ino,
            stored: 2,
            actual: 1,
        });
        let not_marked = [1011, 1016, 1193].map(|addr| FsckIssue::BlockNotMarked { addr });
        let doubly_used =
            [1026, 1037, 1088, 1140, 1185, 1195].map(|addr| FsckIssue::BlockDoublyUsed { addr });
        let mismatched = [4, 8, 13, 17, 23, 42].map(|ino| FsckIssue::InodeBitmapMismatch { ino });
        let recorded: Vec<FsckIssue> = wrong_links
            .into_iter()
            .chain(not_marked)
            .chain(doubly_used)
            .chain(mismatched)
            .collect();
        assert_eq!(report.issues, recorded);
        let s = &report.stats;
        assert_eq!(
            (
                s.inodes_walked,
                s.dir_entries_scanned,
                s.block_refs,
                s.blocks_reconciled
            ),
            (702, 705, 708, 900)
        );
        let per_pass: Vec<_> = s.passes.iter().map(|p| (p.items, p.issues)).collect();
        assert_eq!(
            per_pass,
            vec![(1, 0), (702, 0), (708, 6), (900, 3), (702, 6), (1023, 6)]
        );
    }

    #[test]
    fn stats_count_the_walk() {
        let fs = MockFs::wide(64);
        let report = FsckEngine::new(None).check(&fs);
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
        let engine = FsckEngine::new(Some(klog.clone()));
        let mut fs = MockFs::healthy();
        engine.check(&fs);
        assert!(klog.contains("mockfs: check complete: 0 issue(s)"));
        assert!(klog.contains("pass dir_walk"));
        // Two checks of one image log identical lines.
        let first = klog.entries();
        assert_eq!(first.len(), 7, "six passes and the summary");
        engine.check(&fs);
        assert_eq!(klog.since(first.len()), first);
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
        let engine = FsckEngine::new(None);
        let (before, summary, after) = engine.check_and_repair(&mut fs).unwrap();
        assert_eq!(before.issues.len(), 3);
        assert_eq!(summary.applied, 3);
        assert_eq!(summary.deferred, 0);
        assert!(after.is_clean(), "after: {:?}", after.issues);
    }
}
