//! [`ReplicatedDisk`]: one logical volume mirrored across N replicas.
//!
//! Each replica is an arbitrary device stack (typically a [`MemDisk`]
//! with its own fault-injection, cache, and recording layers), so faults can
//! be injected per replica while the file system above sees a single
//! block device. Writes fan out to every replica in index order, as one
//! shared [`Page`], so the replicas' media hold one copy of it; barriers
//! and flushes are forwarded to each replica so per-replica ordering and
//! durability semantics are preserved exactly as on a single disk. Reads
//! follow a configurable [`ReadPolicy`]; the quorum policy arbitrates by
//! content majority and records every disagreement for the repair engine
//! (`repair` module) to heal from the peers.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use iron_blockdev::{BlockDevice, DiskError, DiskResult, MemDisk, Page, RawAccess, StackBuilder};
use iron_core::{Block, BlockAddr, BlockTag, IoKind, SimClock};

/// How reads are routed across the replicas.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ReadPolicy {
    /// Always read replica 0; fail over to the next replica on error.
    #[default]
    Primary,
    /// Rotate the starting replica per read (load spreading); fail over
    /// to the next replica on error.
    RoundRobin,
    /// Read **every** replica and return the content majority. Detects
    /// silent single-replica corruption (`DRedundancy`) that no failover
    /// policy can see; disagreeing replicas are recorded for repair.
    Quorum,
}

/// How a replica was observed to disagree with the volume.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DivergenceKind {
    /// Returned different content than the quorum majority.
    Mismatch,
    /// The replica's read failed with an explicit error.
    Unreadable,
    /// The replica missed a fan-out write (its write failed); its medium
    /// is stale at this address.
    StaleWrite,
}

/// Counters for one replicated volume (a point-in-time copy; obtained
/// from [`ClusterStats::snapshot`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClusterStatsSnapshot {
    /// Logical reads served by the volume.
    pub reads: u64,
    /// Logical writes fanned out.
    pub writes: u64,
    /// Quorum reads that found a content majority.
    pub quorum_reads: u64,
    /// Divergence detection events (one per disagreeing replica per
    /// arbitration; repeated detections of the same block count again).
    pub divergences: u64,
    /// Read attempts that failed over to another replica
    /// (primary/round-robin policies).
    pub failovers: u64,
    /// Writes acknowledged with a minority of replicas failed (the
    /// failed replicas are queued for repair).
    pub degraded_writes: u64,
    /// Quorum reads with no content majority — detected divergence the
    /// volume could not arbitrate (surfaced as an I/O error).
    pub unarbitrated_reads: u64,
    /// Reads whose replica exceeded the I/O deadline; the initiator gave
    /// up on the slow replica and served the request from a peer.
    pub hedged_reads: u64,
    /// Reads that skipped a replica already marked slow (suspect), so a
    /// hung spindle is not consulted — and cannot stall — again.
    pub slow_replica_skips: u64,
}

#[derive(Debug, Default)]
struct ClusterState {
    stats: ClusterStatsSnapshot,
    /// Blocks queued for repair: `(addr, replica) → (kind, tag)`. The
    /// `BTreeMap` keeps findings in canonical `(addr, replica)` order.
    pending: BTreeMap<(u64, usize), (DivergenceKind, BlockTag)>,
}

/// Shared observability handle for a [`ReplicatedDisk`].
///
/// Cloning shares state (the same pattern as `FaultPlan` / `IoLog`), so
/// a harness can keep a handle even after the device itself has been
/// consumed by a failed mount.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    state: Arc<Mutex<ClusterState>>,
}

impl ClusterStats {
    /// Current counter values.
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        self.state.lock().unwrap().stats
    }

    /// Number of `(addr, replica)` pairs currently queued for repair.
    pub fn pending_repairs(&self) -> usize {
        self.state.lock().unwrap().pending.len()
    }
}

/// One logical volume mirrored across N replica devices.
pub struct ReplicatedDisk<D> {
    replicas: Vec<D>,
    policy: ReadPolicy,
    rr_next: usize,
    shared: ClusterStats,
    /// Per-read I/O deadline against the sim clock; `None` disables
    /// hedging entirely (no timing, no suspects — the pre-deadline
    /// behavior, bit for bit).
    deadline: Option<(SimClock, u64)>,
    /// Replicas that exceeded the deadline; skipped on later reads until
    /// [`Self::clear_suspects`].
    suspect: Vec<bool>,
}

impl<D: BlockDevice> ReplicatedDisk<D> {
    /// Mirror a volume over the given replica stacks.
    ///
    /// Panics if `replicas` is empty or the replicas disagree on size —
    /// a mirrored volume must be uniform.
    pub fn new(replicas: Vec<D>, policy: ReadPolicy) -> Self {
        assert!(!replicas.is_empty(), "a volume needs at least one replica");
        let blocks = replicas[0].num_blocks();
        assert!(
            replicas.iter().all(|r| r.num_blocks() == blocks),
            "all replicas of a mirrored volume must be the same size"
        );
        let n = replicas.len();
        ReplicatedDisk {
            replicas,
            policy,
            rr_next: 0,
            shared: ClusterStats::default(),
            deadline: None,
            suspect: vec![false; n],
        }
    }

    /// Arm a per-read I/O deadline: a replica read that charges more than
    /// `deadline_ns` of sim time is treated as hung — the initiator hedges
    /// to the next peer and marks the slow replica suspect, so it is not
    /// consulted again until [`Self::clear_suspects`].
    pub fn with_read_deadline(mut self, clock: SimClock, deadline_ns: u64) -> Self {
        self.deadline = Some((clock, deadline_ns));
        self
    }

    /// Indices of replicas currently marked slow.
    pub fn suspects(&self) -> Vec<usize> {
        self.suspect
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i)
            .collect()
    }

    /// Forgive all slow-replica suspicions (e.g. after an admin replaced
    /// the spindle).
    pub fn clear_suspects(&mut self) {
        self.suspect.iter_mut().for_each(|s| *s = false);
    }

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The active read policy.
    pub fn policy(&self) -> ReadPolicy {
        self.policy
    }

    /// A shared observability handle (counters + repair queue length).
    pub fn stats(&self) -> ClusterStats {
        self.shared.clone()
    }

    /// Borrow replica `i` (harness access to per-replica stacks).
    pub fn replica(&self, i: usize) -> &D {
        &self.replicas[i]
    }

    /// Mutably borrow replica `i`.
    pub fn replica_mut(&mut self, i: usize) -> &mut D {
        &mut self.replicas[i]
    }

    /// All replicas.
    pub fn replicas(&self) -> &[D] {
        &self.replicas
    }

    /// Record a divergence detection and queue the block for repair.
    pub(crate) fn note_divergence(
        &self,
        addr: BlockAddr,
        replica: usize,
        kind: DivergenceKind,
        tag: BlockTag,
    ) {
        let mut st = self.shared.state.lock().unwrap();
        st.stats.divergences += 1;
        st.pending.entry((addr.0, replica)).or_insert((kind, tag));
    }

    /// Drain the repair queue (used by the repair engine).
    pub(crate) fn take_pending(&self) -> BTreeMap<(u64, usize), (DivergenceKind, BlockTag)> {
        std::mem::take(&mut self.shared.state.lock().unwrap().pending)
    }

    /// Copy of the repair queue (for findings/reporting).
    pub(crate) fn pending(&self) -> BTreeMap<(u64, usize), (DivergenceKind, BlockTag)> {
        self.shared.state.lock().unwrap().pending.clone()
    }

    fn bump(&self, f: impl FnOnce(&mut ClusterStatsSnapshot)) {
        f(&mut self.shared.state.lock().unwrap().stats)
    }

    /// Read replica `i`, reporting whether the request exceeded the I/O
    /// deadline. Without a configured deadline nothing is timed.
    fn timed_read(
        &mut self,
        i: usize,
        addr: BlockAddr,
        tag: BlockTag,
    ) -> (DiskResult<Arc<Page>>, bool) {
        match self.deadline.clone() {
            Some((clock, limit)) => {
                let t0 = clock.now_ns();
                let res = self.replicas[i].read_page(addr, tag);
                (res, clock.elapsed_since(t0) > limit)
            }
            None => (self.replicas[i].read_page(addr, tag), false),
        }
    }

    /// True when every replica is marked slow — then skipping is pointless
    /// and the volume falls back to consulting all of them.
    fn all_suspect(&self) -> bool {
        self.suspect.iter().all(|&s| s)
    }

    /// Read every replica and pick the content-majority winner.
    ///
    /// Returns the per-replica pages and the index of a replica holding
    /// the winning content (`None` when no strict majority exists). Pages
    /// vote with [`Page::same`]: replicas that share the written page
    /// agree without comparing a byte.
    /// Replicas marked slow are skipped (their slot reads as a
    /// [`DiskError::Timeout`]); a replica that exceeds the deadline here
    /// is marked for future skipping but its result still participates —
    /// the data already arrived. Beyond suspect bookkeeping it records
    /// nothing — callers decide what a disagreement means.
    pub(crate) fn read_all(
        &mut self,
        addr: BlockAddr,
        tag: BlockTag,
    ) -> (Vec<DiskResult<Arc<Page>>>, Option<usize>) {
        let n = self.replicas.len();
        let all_suspect = self.all_suspect();
        let mut results: Vec<DiskResult<Arc<Page>>> = Vec::with_capacity(n);
        for i in 0..n {
            if self.suspect[i] && !all_suspect {
                self.bump(|s| s.slow_replica_skips += 1);
                results.push(Err(DiskError::Timeout {
                    addr,
                    kind: IoKind::Read,
                }));
                continue;
            }
            let (res, exceeded) = self.timed_read(i, addr, tag);
            if exceeded {
                self.suspect[i] = true;
                self.bump(|s| s.hedged_reads += 1);
            }
            results.push(res);
        }
        // Group successful reads by content; first-seen group wins ties,
        // so arbitration is deterministic in replica order.
        let mut groups: Vec<(usize, usize)> = Vec::new(); // (first idx, count)
        for (i, res) in results.iter().enumerate() {
            if let Ok(b) = res {
                match groups
                    .iter_mut()
                    .find(|(fi, _)| matches!(&results[*fi], Ok(w) if Page::same(w, b)))
                {
                    Some((_, count)) => *count += 1,
                    None => groups.push((i, 1)),
                }
            }
        }
        let winner = groups
            .iter()
            .max_by_key(|(_, count)| *count)
            .filter(|(_, count)| 2 * count > n)
            .map(|(fi, _)| *fi);
        (results, winner)
    }

    fn quorum_read(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        let (results, winner) = self.read_all(addr, tag);
        match winner {
            Some(wi) => {
                self.bump(|s| s.quorum_reads += 1);
                let good = match &results[wi] {
                    Ok(b) => b.clone(),
                    Err(_) => unreachable!("winner is a successful read"),
                };
                for (i, res) in results.iter().enumerate() {
                    match res {
                        Ok(p) if Page::same(p, &good) => {}
                        Ok(_) => self.note_divergence(addr, i, DivergenceKind::Mismatch, tag),
                        // Slowness is a timing condition, not bad data: a
                        // skipped replica's medium is presumed intact, so
                        // it is not queued for repair.
                        Err(DiskError::Timeout { .. }) => {}
                        Err(_) => self.note_divergence(addr, i, DivergenceKind::Unreadable, tag),
                    }
                }
                Ok(good)
            }
            None => {
                // All replicas errored: propagate the first error. A
                // split with no majority (e.g. 1-vs-1 on a 2-replica
                // volume) is *detected* divergence the volume cannot
                // arbitrate — surface it as an explicit read error
                // rather than guessing (RPropagate, not RGuess).
                if results.iter().all(|r| r.is_err()) {
                    let e = results.iter().find_map(|r| r.as_ref().err().copied());
                    return Err(e.expect("at least one replica"));
                }
                self.bump(|s| s.unarbitrated_reads += 1);
                for (i, res) in results.iter().enumerate() {
                    let kind = match res {
                        Ok(_) => DivergenceKind::Mismatch,
                        Err(DiskError::Timeout { .. }) => continue,
                        Err(_) => DivergenceKind::Unreadable,
                    };
                    self.note_divergence(addr, i, kind, tag);
                }
                Err(DiskError::Io {
                    addr,
                    kind: IoKind::Read,
                })
            }
        }
    }

    fn failover_read(
        &mut self,
        addr: BlockAddr,
        tag: BlockTag,
        start: usize,
    ) -> DiskResult<Arc<Page>> {
        let n = self.replicas.len();
        let all_suspect = self.all_suspect();
        let mut last: Option<DiskResult<Arc<Page>>> = None;
        for k in 0..n {
            let i = (start + k) % n;
            if self.suspect[i] && !all_suspect {
                self.bump(|s| s.slow_replica_skips += 1);
                continue;
            }
            let (res, exceeded) = self.timed_read(i, addr, tag);
            if exceeded {
                // The initiator gave up waiting and hedges to the next
                // peer; the slow replica is marked and skipped from now
                // on. Its (late) result is kept only as a last resort.
                self.suspect[i] = true;
                self.bump(|s| s.hedged_reads += 1);
                last = Some(res);
                continue;
            }
            match res {
                Ok(b) => return Ok(b),
                Err(e) => {
                    self.note_divergence(addr, i, DivergenceKind::Unreadable, tag);
                    self.bump(|s| s.failovers += 1);
                    last = Some(Err(e));
                }
            }
        }
        // Every consulted replica was slow or failed: serve the last
        // result — a hedged-but-correct block beats inventing an error.
        last.expect("at least one replica consulted")
    }
}

impl ReplicatedDisk<MemDisk> {
    /// Mirror a golden image across `n` fresh [`MemDisk`] replicas (each a
    /// [`MemDisk::snapshot`]: same bytes, independent clock/trace/stats).
    pub fn from_golden(golden: &MemDisk, n: usize, policy: ReadPolicy) -> Self {
        ReplicatedDisk::new((0..n).map(|_| golden.snapshot()).collect(), policy)
    }
}

/// Mirror a golden image across `n` replicas, each wrapped in its own
/// per-replica stack (fault layer, trace, …) by `wrap(replica_disk, i)`.
pub fn mirror_with<D: BlockDevice>(
    golden: &MemDisk,
    n: usize,
    policy: ReadPolicy,
    mut wrap: impl FnMut(MemDisk, usize) -> D,
) -> ReplicatedDisk<D> {
    ReplicatedDisk::new((0..n).map(|i| wrap(golden.snapshot(), i)).collect(), policy)
}

impl<D: BlockDevice> BlockDevice for ReplicatedDisk<D> {
    fn num_blocks(&self) -> u64 {
        self.replicas[0].num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.read_page(addr, tag).map(|p| p.to_block())
    }

    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        self.bump(|s| s.reads += 1);
        match self.policy {
            ReadPolicy::Primary => self.failover_read(addr, tag, 0),
            ReadPolicy::RoundRobin => {
                let start = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.replicas.len();
                self.failover_read(addr, tag, start)
            }
            ReadPolicy::Quorum => self.quorum_read(addr, tag),
        }
    }

    /// One page, however many replicas: the fan-out shares it.
    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        self.write_page(addr, &Page::new(block), tag)
    }

    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        self.bump(|s| s.writes += 1);
        let n = self.replicas.len();
        let mut ok = 0usize;
        let mut failed: Vec<usize> = Vec::new();
        let mut first_err = None;
        for (i, r) in self.replicas.iter_mut().enumerate() {
            match r.write_page(addr, page, tag) {
                Ok(()) => ok += 1,
                Err(e) => {
                    failed.push(i);
                    first_err.get_or_insert(e);
                }
            }
        }
        if ok == n {
            Ok(())
        } else if 2 * ok > n {
            // Majority reached the medium: acknowledge, queue the stale
            // replicas for repair. The volume runs degraded, not failed.
            self.bump(|s| s.degraded_writes += 1);
            for i in failed {
                self.note_divergence(addr, i, DivergenceKind::StaleWrite, tag);
            }
            Ok(())
        } else {
            Err(first_err.expect("a minority ack implies at least one error"))
        }
    }

    fn barrier(&mut self) -> DiskResult<()> {
        // Every replica orders its own write stream; the fan-out already
        // issued the writes to each in the same order.
        let mut first_err = None;
        for r in &mut self.replicas {
            if let Err(e) = r.barrier() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn flush(&mut self) -> DiskResult<()> {
        // Durability must reach *every* replica medium as a flush — a
        // replica whose flush failed cannot be trusted after a crash.
        let mut first_err = None;
        for r in &mut self.replicas {
            if let Err(e) = r.flush() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // Any replica may serve the scan's reads (policy-dependent), so
        // every spindle gets the hint.
        for r in &mut self.replicas {
            r.readahead(start, len);
        }
    }
}

impl<D: RawAccess> RawAccess for ReplicatedDisk<D> {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.replicas[0].peek(addr)
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        for r in &mut self.replicas {
            r.poke(addr, block);
        }
    }
}

/// Extension trait slotting replication into [`StackBuilder`] pipelines:
/// `StackBuilder::memdisk(n).replicated(3, ReadPolicy::Quorum)` mirrors
/// the current (MemDisk) stack bottom across fresh replicas.
pub trait ClusterStackExt {
    /// Replace the built [`MemDisk`] with `n` mirrored snapshots of it.
    fn replicated(self, n: usize, policy: ReadPolicy) -> StackBuilder<ReplicatedDisk<MemDisk>>;
}

impl ClusterStackExt for StackBuilder<MemDisk> {
    fn replicated(self, n: usize, policy: ReadPolicy) -> StackBuilder<ReplicatedDisk<MemDisk>> {
        let golden = self.build();
        StackBuilder::new(ReplicatedDisk::from_golden(&golden, n, policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume(n: usize, policy: ReadPolicy) -> ReplicatedDisk<MemDisk> {
        ReplicatedDisk::from_golden(&MemDisk::for_tests(64), n, policy)
    }

    #[test]
    fn writes_fan_out_to_every_replica() {
        let mut v = volume(3, ReadPolicy::Primary);
        v.write(BlockAddr(5), &Block::filled(0xAB)).unwrap();
        for i in 0..3 {
            assert_eq!(v.replica(i).peek(BlockAddr(5)), Block::filled(0xAB));
        }
        assert_eq!(v.stats().snapshot().writes, 1);
    }

    /// The pages under `addr`, one per replica.
    fn pages(v: &mut ReplicatedDisk<MemDisk>, addr: BlockAddr) -> Vec<Arc<Page>> {
        let n = v.num_replicas();
        (0..n)
            .map(|i| v.replica_mut(i).read_page(addr, BlockTag::UNTYPED).unwrap())
            .collect()
    }

    #[test]
    fn one_write_is_one_page_on_every_replica() {
        let mut v = volume(3, ReadPolicy::Quorum);
        v.write(BlockAddr(5), &Block::filled(0xAB)).unwrap();
        let p = pages(&mut v, BlockAddr(5));
        assert!(Arc::ptr_eq(&p[0], &p[1]) && Arc::ptr_eq(&p[0], &p[2]));
        assert_eq!(p[0].to_block(), Block::filled(0xAB));
    }

    #[test]
    fn equal_bytes_in_a_distinct_page_vote_with_the_majority() {
        let mut v = volume(3, ReadPolicy::Quorum);
        v.write(BlockAddr(7), &Block::filled(0x11)).unwrap();
        v.replica_mut(2).poke(BlockAddr(7), &Block::filled(0x11));
        let p = pages(&mut v, BlockAddr(7));
        assert!(!Arc::ptr_eq(&p[0], &p[2]), "the poke made its own page");
        assert_eq!(v.read(BlockAddr(7)).unwrap(), Block::filled(0x11));
        assert_eq!(v.stats().snapshot().divergences, 0);
        assert_eq!(v.stats().pending_repairs(), 0);
        assert_eq!(v.repair_block(BlockAddr(7), BlockTag::UNTYPED).divergent, 0);
    }

    #[test]
    fn repair_heals_different_bytes_with_the_majority_page() {
        let mut v = volume(3, ReadPolicy::Quorum);
        v.write(BlockAddr(9), &Block::filled(0x22)).unwrap();
        v.replica_mut(1).poke(BlockAddr(9), &Block::filled(0xBD));
        let r = v.repair_block(BlockAddr(9), BlockTag::UNTYPED);
        assert_eq!((r.divergent, r.healed, r.unrecoverable), (1, 1, 0));
        assert_eq!(v.replica(1).peek(BlockAddr(9)), Block::filled(0x22));
        let p = pages(&mut v, BlockAddr(9));
        assert!(Arc::ptr_eq(&p[0], &p[1]), "healed with the majority's page");
    }

    #[test]
    fn barrier_and_flush_reach_every_replica_medium() {
        let mut v = volume(3, ReadPolicy::Primary);
        v.write(BlockAddr(1), &Block::filled(1)).unwrap();
        v.barrier().unwrap();
        v.write(BlockAddr(2), &Block::filled(2)).unwrap();
        v.flush().unwrap();
        for i in 0..3 {
            let st = v.replica(i).stats();
            assert_eq!(st.barriers, 1, "replica {i} must see the barrier");
            assert_eq!(st.flushes, 1, "replica {i} must see the flush as a flush");
        }
    }

    #[test]
    fn round_robin_spreads_reads() {
        let mut v = volume(3, ReadPolicy::RoundRobin);
        for _ in 0..6 {
            v.read(BlockAddr(0)).unwrap();
        }
        for i in 0..3 {
            assert_eq!(v.replica(i).stats().reads, 2, "replica {i} share");
        }
    }

    #[test]
    fn primary_reads_only_replica_zero_when_healthy() {
        let mut v = volume(3, ReadPolicy::Primary);
        for _ in 0..4 {
            v.read(BlockAddr(0)).unwrap();
        }
        assert_eq!(v.replica(0).stats().reads, 4);
        assert_eq!(v.replica(1).stats().reads, 0);
        assert_eq!(v.replica(2).stats().reads, 0);
    }

    #[test]
    fn quorum_masks_single_replica_corruption_and_records_it() {
        let mut v = volume(3, ReadPolicy::Quorum);
        v.write(BlockAddr(7), &Block::filled(0x11)).unwrap();
        v.replica_mut(0).poke(BlockAddr(7), &Block::filled(0xBD));
        let got = v.read(BlockAddr(7)).unwrap();
        assert_eq!(got, Block::filled(0x11), "majority content wins");
        let s = v.stats().snapshot();
        assert_eq!(s.quorum_reads, 1);
        assert!(s.divergences >= 1);
        assert_eq!(v.stats().pending_repairs(), 1);
    }

    #[test]
    fn single_replica_quorum_cannot_detect_corruption() {
        let mut v = volume(1, ReadPolicy::Quorum);
        v.write(BlockAddr(3), &Block::filled(0x22)).unwrap();
        v.replica_mut(0).poke(BlockAddr(3), &Block::filled(0xBD));
        // The lone copy *is* the majority: corruption passes through
        // silently — exactly why a 1-replica volume stays unrecoverable.
        assert_eq!(v.read(BlockAddr(3)).unwrap(), Block::filled(0xBD));
        assert_eq!(v.stats().snapshot().divergences, 0);
    }

    #[test]
    fn two_replica_split_is_detected_but_unarbitratable() {
        let mut v = volume(2, ReadPolicy::Quorum);
        v.write(BlockAddr(9), &Block::filled(1)).unwrap();
        v.replica_mut(1).poke(BlockAddr(9), &Block::filled(2));
        let err = v.read(BlockAddr(9)).unwrap_err();
        assert_eq!(
            err,
            DiskError::Io {
                addr: BlockAddr(9),
                kind: IoKind::Read
            }
        );
        let s = v.stats().snapshot();
        assert_eq!(s.unarbitrated_reads, 1);
        assert_eq!(v.stats().pending_repairs(), 2, "both copies are suspect");
    }

    #[test]
    fn replicated_stack_builds_behind_stack_builder() {
        use iron_blockdev::CachePolicy;
        let mut dev = StackBuilder::memdisk(32)
            .replicated(3, ReadPolicy::Quorum)
            .with_cache(CachePolicy::write_back(8))
            .build();
        dev.write(BlockAddr(4), &Block::filled(9)).unwrap();
        dev.flush().unwrap();
        let v = dev.into_inner();
        for i in 0..3 {
            assert_eq!(v.replica(i).peek(BlockAddr(4)), Block::filled(9));
        }
    }

    #[test]
    #[should_panic(expected = "same size")]
    fn mismatched_replica_sizes_are_rejected() {
        ReplicatedDisk::new(
            vec![MemDisk::for_tests(16), MemDisk::for_tests(32)],
            ReadPolicy::Primary,
        );
    }
}
