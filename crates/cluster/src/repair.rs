//! Peer-driven repair: heal a divergent or corrupted replica from the
//! quorum majority.
//!
//! The engine mirrors the ixt3 scrub discipline (`iron_ixt3::scrub`):
//! every candidate block is re-read *through the device path* — so
//! per-replica fault layers stay engaged — the majority copy is written
//! to each disagreeing replica, and the repair only counts as healed
//! after a verifying re-read returns the majority content. A replica
//! whose medium sticks at the wrong bytes (or whose read path keeps
//! failing) counts as unrecoverable, never as repaired.
//!
//! Detection vocabulary is `iron-fsck`'s: every queued divergence renders
//! as an [`FsckIssue::ReplicaDivergence`] ([`ReplicatedDisk::findings`]).

use iron_blockdev::{BlockDevice, Page, RawAccess};
use iron_core::{BlockAddr, BlockTag};
use iron_fsck::FsckIssue;

use crate::replicated::ReplicatedDisk;

/// Outcome of a repair pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RepairReport {
    /// Addresses examined.
    pub scanned: u64,
    /// Addresses where at least one replica disagreed with the majority.
    pub divergent: u64,
    /// Replica copies rewritten from peers and verified by re-read.
    pub healed: u64,
    /// Replica copies that could not be healed: no majority to source
    /// from, the repair write failed, or the verifying re-read still
    /// disagreed (sticky fault).
    pub unrecoverable: u64,
}

impl RepairReport {
    /// True if every divergence found was healed.
    pub fn all_healed(&self) -> bool {
        self.unrecoverable == 0
    }

    fn absorb(&mut self, other: RepairReport) {
        self.scanned += other.scanned;
        self.divergent += other.divergent;
        self.healed += other.healed;
        self.unrecoverable += other.unrecoverable;
    }
}

impl<D: BlockDevice + RawAccess> ReplicatedDisk<D> {
    /// Arbitrate one address and heal every disagreeing replica from the
    /// majority. Reads and writes go through each replica's device path
    /// (fault layers engaged); healing is verified by re-read.
    pub fn repair_block(&mut self, addr: BlockAddr, tag: BlockTag) -> RepairReport {
        let mut report = RepairReport {
            scanned: 1,
            ..RepairReport::default()
        };
        let (results, winner) = self.read_all(addr, tag);
        let Some(wi) = winner else {
            // No majority to source a good copy from: every suspect copy
            // at this address is unrecoverable at the cluster tier.
            report.divergent += 1;
            report.unrecoverable += 1;
            return report;
        };
        let good = match &results[wi] {
            Ok(p) => p.clone(),
            Err(_) => unreachable!("winner is a successful read"),
        };
        let mut diverged_here = false;
        for (i, res) in results.iter().enumerate() {
            if matches!(res, Ok(p) if Page::same(p, &good)) {
                continue;
            }
            diverged_here = true;
            if self.replica_mut(i).write_page(addr, &good, tag).is_err() {
                report.unrecoverable += 1;
                continue;
            }
            // Verify through the device path, as ixt3's scrub does: a
            // sticky per-replica fault keeps the copy untrustworthy no
            // matter what the medium now holds.
            match self.replica_mut(i).read_page(addr, tag) {
                Ok(p) if Page::same(&p, &good) => report.healed += 1,
                _ => report.unrecoverable += 1,
            }
        }
        if diverged_here {
            report.divergent += 1;
        }
        report
    }

    /// Heal everything the read/write paths have queued (quorum
    /// mismatches, unreadable copies, stale degraded writes). Drains the
    /// queue; addresses are re-arbitrated at repair time, so entries made
    /// stale by later writes simply verify clean.
    pub fn repair_pending(&mut self) -> RepairReport {
        let pending = self.take_pending();
        let mut addrs: Vec<(u64, BlockTag)> = Vec::new();
        for (&(addr, _replica), &(_kind, tag)) in &pending {
            if addrs.last().map(|&(a, _)| a) != Some(addr) {
                addrs.push((addr, tag));
            }
        }
        let mut report = RepairReport::default();
        for (addr, tag) in addrs {
            report.absorb(self.repair_block(BlockAddr(addr), tag));
        }
        report
    }

    /// Full-volume scrub: arbitrate and heal every block. Catches
    /// divergence no foreground read has touched (the cluster-tier
    /// analogue of ixt3's disk scrubbing).
    pub fn scrub_repair(&mut self) -> RepairReport {
        let mut report = RepairReport::default();
        for addr in 0..self.num_blocks() {
            report.absorb(self.repair_block(BlockAddr(addr), BlockTag("c-scrub")));
        }
        // Everything the scrub found was handled in place.
        self.take_pending();
        report
    }

    /// The queued divergences in `iron-fsck`'s issue vocabulary,
    /// canonically ordered.
    pub fn findings(&self) -> Vec<FsckIssue> {
        self.pending()
            .keys()
            .map(|&(addr, replica)| FsckIssue::ReplicaDivergence { addr, replica })
            .collect()
    }

    /// True if every replica's raw medium is bit-identical (the
    /// post-repair convergence oracle).
    pub fn replicas_identical(&self) -> bool {
        let n = self.num_replicas();
        for addr in 0..self.num_blocks() {
            let first = self.replica(0).peek(BlockAddr(addr));
            for i in 1..n {
                if self.replica(i).peek(BlockAddr(addr)) != first {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicated::ReadPolicy;
    use iron_blockdev::MemDisk;
    use iron_core::{Block, FaultKind};
    use iron_faultinject::{FaultPlan, FaultSpec, FaultTarget, FaultyDisk};

    fn volume(n: usize) -> ReplicatedDisk<MemDisk> {
        let mut golden = MemDisk::for_tests(32);
        for a in 0..32 {
            golden.poke(BlockAddr(a), &Block::filled(a as u8));
        }
        ReplicatedDisk::from_golden(&golden, n, ReadPolicy::Quorum)
    }

    #[test]
    fn scrub_heals_poked_corruption_from_peers() {
        let mut v = volume(3);
        v.replica_mut(1).poke(BlockAddr(4), &Block::filled(0xBD));
        v.replica_mut(1).poke(BlockAddr(9), &Block::filled(0xBD));
        assert!(!v.replicas_identical());
        let r = v.scrub_repair();
        assert_eq!(r.scanned, 32);
        assert_eq!(r.divergent, 2);
        assert_eq!(r.healed, 2);
        assert_eq!(r.unrecoverable, 0);
        assert!(v.replicas_identical());
        // Idempotent: a second scrub finds nothing.
        let r2 = v.scrub_repair();
        assert_eq!(r2.divergent, 0);
    }

    #[test]
    fn quorum_detection_feeds_repair_pending() {
        let mut v = volume(3);
        v.replica_mut(0).poke(BlockAddr(6), &Block::filled(0xEE));
        // Foreground read detects and masks; repair heals what it queued.
        assert_eq!(v.read(BlockAddr(6)).unwrap(), Block::filled(6));
        assert_eq!(v.stats().pending_repairs(), 1);
        let r = v.repair_pending();
        assert_eq!((r.divergent, r.healed), (1, 1));
        assert_eq!(v.stats().pending_repairs(), 0);
        assert!(v.replicas_identical());
    }

    #[test]
    fn degraded_write_leaves_stale_replica_that_repair_heals() {
        let golden = MemDisk::for_tests(32);
        let plans: Vec<FaultPlan> = (0..3).map(|_| FaultPlan::new()).collect();
        let mut v = crate::replicated::mirror_with(&golden, 3, ReadPolicy::Quorum, |md, i| {
            FaultyDisk::with_plan(md, plans[i].clone())
        });
        // Replica 2's next write fails: the volume acknowledges (majority
        // reached the medium) and queues the stale copy.
        let ctl = plans[2].controller();
        let id = ctl.inject(FaultSpec::transient(
            FaultKind::WriteError,
            FaultTarget::Addr(BlockAddr(5)),
            1,
        ));
        v.write(BlockAddr(5), &Block::filled(0x55)).unwrap();
        assert!(ctl.fired(id));
        let s = v.stats().snapshot();
        assert_eq!(s.degraded_writes, 1);
        assert_eq!(v.stats().pending_repairs(), 1);
        assert_eq!(v.replica(2).inner().peek(BlockAddr(5)), Block::zeroed());

        let r = v.repair_pending();
        assert_eq!((r.divergent, r.healed, r.unrecoverable), (1, 1, 0));
        assert_eq!(v.replica(2).inner().peek(BlockAddr(5)), Block::filled(0x55));
    }

    #[test]
    fn sticky_replica_fault_is_unrecoverable_not_healed() {
        let golden = MemDisk::for_tests(32);
        let plans: Vec<FaultPlan> = (0..3).map(|_| FaultPlan::new()).collect();
        let mut v = crate::replicated::mirror_with(&golden, 3, ReadPolicy::Quorum, |md, i| {
            FaultyDisk::with_plan(md, plans[i].clone())
        });
        // Replica 1 sticky-corrupts every read of block 3: repair can
        // rewrite the medium, but the verifying re-read keeps lying, so
        // the copy must count unrecoverable (the scrub discipline).
        plans[1].controller().inject(FaultSpec::sticky(
            FaultKind::Corruption(iron_core::model::CorruptionStyle::Zeroed),
            FaultTarget::Addr(BlockAddr(3)),
        ));
        v.write(BlockAddr(3), &Block::filled(0x33)).unwrap();
        let r = v.repair_block(BlockAddr(3), BlockTag::UNTYPED);
        assert_eq!(r.healed, 0);
        assert_eq!(r.unrecoverable, 1);
    }

    #[test]
    fn findings_render_in_fsck_vocabulary() {
        let mut v = volume(3);
        v.replica_mut(2).poke(BlockAddr(8), &Block::filled(0xAA));
        v.read(BlockAddr(8)).unwrap();
        let findings = v.findings();
        assert_eq!(
            findings,
            vec![FsckIssue::ReplicaDivergence {
                addr: 8,
                replica: 2
            }]
        );
    }

    #[test]
    fn no_majority_is_unrecoverable() {
        let mut v = volume(2);
        v.replica_mut(1).poke(BlockAddr(2), &Block::filled(0x99));
        let r = v.repair_block(BlockAddr(2), BlockTag::UNTYPED);
        assert_eq!(r.healed, 0);
        assert_eq!(r.unrecoverable, 1);
        assert!(!v.replicas_identical());
    }
}
