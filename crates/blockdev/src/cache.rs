//! [`BufferCache`]: an LRU write-back buffer cache over any
//! [`BlockDevice`].
//!
//! The paper's Figure 1 stack has a generic buffer/page cache between the
//! file system and the disk; this is that layer. It implements
//! [`BlockDevice`] over any inner device, so it slots transparently under
//! every file-system model:
//!
//! * **Read hits** are served from memory: no inner request, no simulated
//!   mechanical time charged — re-read-heavy workloads run at memory speed.
//! * **Writes are absorbed** (write-back): the block is marked dirty and
//!   destaged later — on eviction, on [`BlockDevice::flush`], or when the
//!   cache is dropped through [`BufferCache::into_inner`] (which *discards*
//!   dirty data, the paper's lost-write window made flesh).
//! * **Barriers are absorbed** too: [`BlockDevice::barrier`] only seals the
//!   current *epoch*. Destaging writes epochs strictly in issue order with
//!   an inner barrier between them, so the ordering contract — everything
//!   written before a barrier reaches the medium before anything written
//!   after it — holds exactly for the traffic the device below observes.
//!   Within an epoch no order is owed, so an epoch's blocks go out in
//!   ascending address order — the elevator of [`crate::sched`] — and the
//!   simulated disk services each adjacent run at streaming rate.
//! * **The dirty set is exact**: one ordered index holds `(epoch, addr)`
//!   for every dirty resident block and nothing else, so its iteration
//!   order *is* the destage order, its size is bounded by the resident
//!   set, and a failed write-back leaves nothing to repair — what was not
//!   written is still in the index.
//! * **Typed I/O is preserved**: each dirty block remembers the
//!   [`BlockTag`] of the write that dirtied it and is destaged under that
//!   tag, so type-aware fault injection below the cache keeps working.
//! * **Errors are strict**: a failed write-back surfaces as the error of
//!   the *triggering* call (the read or write that forced an eviction, or
//!   the flush) — exactly the delayed-error window the paper's §2.2 warns
//!   about. Nothing is retried and nothing is dropped silently: the failed
//!   block stays dirty and the next destage attempt retries it.
//!
//! [`CachePolicy::WriteThrough`] disables all of the above: every request
//! passes straight through and the cache holds nothing. Fingerprinting
//! campaigns run in this mode so their media and traces stay byte-exact
//! while still exercising the redesigned stack API.

use std::collections::BTreeSet;
use std::sync::Arc;

use iron_core::{Block, BlockAddr, BlockTag};

use crate::device::{BlockDevice, DiskError, DiskResult, RawAccess};
use crate::lru::Lru;
use crate::page::Page;
use crate::sched;

/// Caching policy for a [`BufferCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// Write-back caching: reads hit, writes and barriers are absorbed.
    WriteBack {
        /// Capacity in blocks (at least one is always held).
        capacity: usize,
    },
    /// Transparent mode: every request passes straight through. The stack
    /// stays byte- and trace-exact with respect to an uncached stack —
    /// what fingerprinting campaigns need.
    WriteThrough,
}

impl CachePolicy {
    /// Write-back with `capacity` blocks.
    pub fn write_back(capacity: usize) -> Self {
        CachePolicy::WriteBack { capacity }
    }
}

impl Default for CachePolicy {
    /// Write-back, 1024 blocks (4 MiB).
    fn default() -> Self {
        CachePolicy::write_back(1024)
    }
}

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from the cache.
    pub hits: u64,
    /// Reads that went to the inner device.
    pub misses: u64,
    /// Writes absorbed into the cache (write-back mode).
    pub writes_absorbed: u64,
    /// Dirty blocks written back to the inner device.
    pub writebacks: u64,
    /// Destage sweeps issued (each charged one positioning cost below).
    pub sweeps: u64,
    /// Resident blocks evicted.
    pub evictions: u64,
    /// Barriers absorbed into epoch seals (write-back mode).
    pub barriers_absorbed: u64,
    /// Full destages (flushes and dirty evictions).
    pub destages: u64,
}

struct Entry {
    /// The page a read brought up or a write brought down: shared with the
    /// layers it came from or goes to, never copied here.
    page: Arc<Page>,
    /// Tag of the write that dirtied the block (or of the read that
    /// fetched it); dirty blocks are destaged under this tag.
    tag: BlockTag,
    /// The barrier epoch of the write that dirtied the block; `None`
    /// while the block is clean.
    dirty: Option<u64>,
}

/// An LRU write-back buffer cache implementing [`BlockDevice`] over any
/// inner device. See the module docs for semantics.
pub struct BufferCache<D> {
    inner: D,
    policy: CachePolicy,
    /// Resident blocks; the index names the eviction victim.
    entries: Lru<Entry>,
    /// Blocks held before a miss evicts (0 in write-through mode, where
    /// nothing is ever inserted).
    capacity: usize,
    /// Current barrier epoch; destaging never reorders across epochs.
    epoch: u64,
    /// True once the current epoch holds a dirty block (so an empty epoch
    /// is never sealed).
    epoch_dirty: bool,
    /// The dirty index: exactly `(epoch, addr)` of every entry whose
    /// `dirty` is `Some(epoch)`. Iterates in destage order — epochs
    /// ascending, addresses ascending inside an epoch.
    dirty: BTreeSet<(u64, u64)>,
    stats: CacheStats,
}

impl<D: BlockDevice> BufferCache<D> {
    /// Wrap `inner` with the given policy.
    pub fn new(inner: D, policy: CachePolicy) -> Self {
        let capacity = match policy {
            CachePolicy::WriteBack { capacity } => capacity.max(1),
            CachePolicy::WriteThrough => 0,
        };
        BufferCache {
            inner,
            policy,
            entries: Lru::default(),
            capacity,
            epoch: 0,
            epoch_dirty: false,
            dirty: BTreeSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Wrap `inner` with the default write-back policy.
    pub fn write_back(inner: D) -> Self {
        Self::new(inner, CachePolicy::default())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of blocks currently resident.
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    /// Number of resident blocks that are dirty.
    pub fn dirty_blocks(&self) -> usize {
        self.dirty.len()
    }

    /// Access the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Mutable access to the wrapped device.
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwrap the inner device, **discarding dirty blocks** — the
    /// volatile cache vanishing is exactly the paper's lost-write window.
    /// Call [`BlockDevice::flush`] (or [`Self::destage`]) first to keep
    /// them.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Write every dirty block to the inner device: epochs strictly in
    /// issue order with an inner barrier between them, each epoch's blocks
    /// ascending. On a failed write-back (or barrier) the error is
    /// returned, already-destaged blocks stay clean, and the failed block
    /// and everything after it stay dirty — still in the index — for the
    /// next attempt.
    pub fn destage(&mut self) -> DiskResult<()> {
        if self.dirty.is_empty() {
            return Ok(());
        }
        self.stats.destages += 1;
        let mut writing = None;
        while let Some(&(epoch, addr)) = self.dirty.first() {
            if writing != Some(epoch) {
                if writing.is_some() {
                    self.inner.barrier()?;
                }
                writing = Some(epoch);
                let of_epoch = self.dirty.range((epoch, 0)..=(epoch, u64::MAX));
                self.stats.sweeps += sched::sweeps(of_epoch.map(|&(_, a)| a));
            }
            let entry = self
                .entries
                .peek_mut(BlockAddr(addr))
                .expect("a dirty key has an entry");
            self.inner
                .write_page(BlockAddr(addr), &entry.page, entry.tag)?;
            entry.dirty = None;
            self.dirty.pop_first();
            self.stats.writebacks += 1;
        }
        Ok(())
    }

    /// Evict least-recently-used blocks until one more entry fits,
    /// destaging first if the victim is dirty.
    fn make_room(&mut self) -> DiskResult<()> {
        while self.entries.len() >= self.capacity {
            let (victim, entry) = self.entries.oldest().expect("a full cache has an oldest");
            if entry.dirty.is_some() {
                // Ordered write-back of *everything* keeps the epoch
                // ordering invariant without tracking partial epochs; the
                // cost amortizes to one destage per ~capacity writes.
                self.destage()?;
            }
            self.entries.remove(victim);
            self.stats.evictions += 1;
        }
        Ok(())
    }

    fn check_range(&self, addr: BlockAddr) -> DiskResult<()> {
        if addr.0 < self.inner.num_blocks() {
            Ok(())
        } else {
            Err(DiskError::OutOfRange { addr })
        }
    }
}

impl<D: BlockDevice> BlockDevice for BufferCache<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.read_tagged(addr, tag);
        }
        self.read_page(addr, tag).map(|p| p.to_block())
    }

    /// A hit hands out the resident page; a miss keeps the page the inner
    /// device returned.
    fn read_page(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Arc<Page>> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.read_page(addr, tag);
        }
        self.check_range(addr)?;
        if let Some(e) = self.entries.get(addr) {
            self.stats.hits += 1;
            return Ok(e.page.clone());
        }
        self.stats.misses += 1;
        // Make room first so a destage failure surfaces before the medium
        // is touched.
        self.make_room()?;
        let page = self.inner.read_page(addr, tag)?;
        self.entries.insert(
            addr,
            Entry {
                page: page.clone(),
                tag,
                dirty: None,
            },
        );
        Ok(page)
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.write_tagged(addr, block, tag);
        }
        self.write_page(addr, &Page::new(block), tag)
    }

    /// Write-back keeps the caller's page and destages it as it is.
    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, tag: BlockTag) -> DiskResult<()> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.write_page(addr, page, tag);
        }
        self.check_range(addr)?;
        match self.entries.peek(addr).map(|e| e.dirty) {
            None => self.make_room()?,
            // Re-dirtying moves the block to the current epoch: the medium
            // only ever sees the final data, so it must not be written
            // back at the older epoch's position.
            Some(Some(older)) if older != self.epoch => {
                self.dirty.remove(&(older, addr.0));
            }
            Some(_) => {}
        }
        self.entries.insert(
            addr,
            Entry {
                page: page.clone(),
                tag,
                dirty: Some(self.epoch),
            },
        );
        self.dirty.insert((self.epoch, addr.0));
        self.epoch_dirty = true;
        self.stats.writes_absorbed += 1;
        Ok(())
    }

    fn barrier(&mut self) -> DiskResult<()> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.barrier();
        }
        // Seal the epoch; no inner traffic. The ordering the caller asked
        // for is enforced when the epochs are destaged.
        if self.epoch_dirty {
            self.epoch += 1;
            self.epoch_dirty = false;
        }
        self.stats.barriers_absorbed += 1;
        Ok(())
    }

    fn flush(&mut self) -> DiskResult<()> {
        if self.policy == CachePolicy::WriteThrough {
            return self.inner.flush();
        }
        self.destage()?;
        self.inner.flush()
    }

    fn readahead(&mut self, start: BlockAddr, len: u64) {
        // Cache hits within the window cost nothing anyway; the misses
        // stream from the device, so the hint is worth forwarding in
        // either policy.
        self.inner.readahead(start, len);
    }
}

impl<D: BlockDevice + RawAccess> RawAccess for BufferCache<D> {
    /// The harness view is the *logical* contents: a resident dirty block
    /// shadows the (stale) medium.
    fn peek(&self, addr: BlockAddr) -> Block {
        match self.entries.peek(addr) {
            Some(e) if e.dirty.is_some() => e.page.to_block(),
            _ => self.inner.peek(addr),
        }
    }

    /// Pokes hit the medium *and* any resident copy (which becomes clean:
    /// cache and medium now agree).
    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block);
        if let Some(e) = self.entries.peek_mut(addr) {
            e.page = Page::new(block);
            if let Some(epoch) = e.dirty.take() {
                self.dirty.remove(&(epoch, addr.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdisk::MemDisk;
    use crate::trace::{IoTrace, TraceLayer};
    use iron_core::IoKind;

    fn cached(capacity: usize) -> BufferCache<MemDisk> {
        BufferCache::new(MemDisk::for_tests(64), CachePolicy::write_back(capacity))
    }

    /// A cache over a traced medium: the trace sees exactly what is destaged.
    fn traced(capacity: usize) -> (BufferCache<TraceLayer<MemDisk>>, IoTrace) {
        let medium = TraceLayer::new(MemDisk::for_tests(64));
        let trace = medium.trace();
        let cache = BufferCache::new(medium, CachePolicy::write_back(capacity));
        (cache, trace)
    }

    fn written(trace: &IoTrace) -> Vec<u64> {
        trace
            .events()
            .into_iter()
            .filter(|e| e.kind == IoKind::Write)
            .map(|e| e.addr.0)
            .collect()
    }

    #[test]
    fn read_hit_skips_the_inner_device() {
        let mut c = cached(8);
        c.inner_mut().poke(BlockAddr(3), &Block::filled(7));
        assert_eq!(c.read(BlockAddr(3)).unwrap(), Block::filled(7));
        let inner_reads = c.inner().stats().reads;
        assert_eq!(c.read(BlockAddr(3)).unwrap(), Block::filled(7));
        assert_eq!(c.inner().stats().reads, inner_reads, "hit: no inner read");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn writes_are_absorbed_until_flush() {
        let mut c = cached(8);
        c.write(BlockAddr(5), &Block::filled(9)).unwrap();
        assert!(c.inner().peek(BlockAddr(5)).is_zeroed(), "medium stale");
        assert_eq!(c.read(BlockAddr(5)).unwrap(), Block::filled(9));
        c.flush().unwrap();
        assert_eq!(c.inner().peek(BlockAddr(5)), Block::filled(9));
        assert_eq!(c.dirty_blocks(), 0);
    }

    #[test]
    fn destage_preserves_epoch_order_and_sorts_within_epochs() {
        let (mut c, trace) = traced(16);
        // Epoch 0: 30, 10 (any order within); barrier; epoch 1: 20.
        c.write(BlockAddr(30), &Block::filled(1)).unwrap();
        c.write(BlockAddr(10), &Block::filled(2)).unwrap();
        c.barrier().unwrap();
        c.write(BlockAddr(20), &Block::filled(3)).unwrap();
        assert!(trace.is_empty(), "nothing reaches the medium before flush");
        c.flush().unwrap();
        assert_eq!(
            written(&trace),
            vec![10, 30, 20],
            "epoch order, sorted within"
        );
    }

    #[test]
    fn redirtied_block_moves_to_the_later_epoch() {
        let (mut c, trace) = traced(16);
        c.write(BlockAddr(10), &Block::filled(1)).unwrap();
        c.barrier().unwrap();
        c.write(BlockAddr(5), &Block::filled(2)).unwrap();
        c.write(BlockAddr(10), &Block::filled(3)).unwrap(); // re-dirty
        c.flush().unwrap();
        assert_eq!(
            written(&trace),
            vec![5, 10],
            "block 10 destaged once, in epoch 1"
        );
        assert_eq!(c.inner().peek(BlockAddr(10)), Block::filled(3));
    }

    #[test]
    fn destage_tags_match_the_dirtying_write() {
        let (mut c, trace) = traced(8);
        c.write_tagged(BlockAddr(2), &Block::filled(1), BlockTag("j-data"))
            .unwrap();
        c.flush().unwrap();
        assert_eq!(trace.events()[0].tag, BlockTag("j-data"), "tag preserved");
    }

    #[test]
    fn capacity_one_still_reads_everything_correctly() {
        let mut c = cached(1);
        for i in 0..8u64 {
            c.write(BlockAddr(i), &Block::filled(i as u8 + 1)).unwrap();
        }
        for i in 0..8u64 {
            assert_eq!(c.read(BlockAddr(i)).unwrap(), Block::filled(i as u8 + 1));
        }
        c.flush().unwrap();
        for i in 0..8u64 {
            assert_eq!(c.inner().peek(BlockAddr(i)), Block::filled(i as u8 + 1));
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn lru_eviction_keeps_the_recent_block() {
        let mut c = cached(2);
        c.read(BlockAddr(1)).unwrap();
        c.read(BlockAddr(2)).unwrap();
        c.read(BlockAddr(1)).unwrap(); // 1 is now more recent than 2
        c.read(BlockAddr(3)).unwrap(); // evicts 2
        let hits = c.stats().hits;
        c.read(BlockAddr(1)).unwrap();
        assert_eq!(c.stats().hits, hits + 1, "block 1 still resident");
        let misses = c.stats().misses;
        c.read(BlockAddr(2)).unwrap();
        assert_eq!(c.stats().misses, misses + 1, "block 2 was evicted");
    }

    #[test]
    fn hits_move_a_record_and_never_add_one() {
        let mut c = cached(8);
        for i in 0..100_000u64 {
            c.read(BlockAddr(i % 4)).unwrap();
        }
        assert_eq!(c.stats().hits, 100_000 - 4);
        assert_eq!(c.entries.len(), 4, "one record per resident block");
    }

    #[test]
    fn rewrites_move_a_dirty_key_and_never_add_one() {
        let mut c = cached(8);
        for i in 0..100_000u64 {
            c.write(BlockAddr(i % 4), &Block::filled(i as u8)).unwrap();
            if i % 100 == 99 {
                c.barrier().unwrap();
            }
        }
        assert_eq!(c.stats().barriers_absorbed, 1_000);
        assert_eq!(c.dirty.len(), 4, "one key per dirty block");
        // The index is exact: each key names a block dirtied in that epoch.
        for &(epoch, addr) in &c.dirty {
            assert_eq!(c.entries.peek(BlockAddr(addr)).unwrap().dirty, Some(epoch));
        }
        assert_eq!(c.inner().stats().writes, 0, "no flush, no destage");
    }

    #[test]
    fn eviction_is_global_not_per_partition() {
        // Eight blocks fit a capacity-8 cache whatever their addresses:
        // nothing is evicted (and so nothing destaged) before the ninth.
        let (mut c, trace) = traced(8);
        for i in 0..8u64 {
            c.write(BlockAddr(i * 8), &Block::filled(1)).unwrap();
        }
        assert_eq!(c.stats().evictions, 0);
        assert!(trace.is_empty(), "no premature destage");
        c.write(BlockAddr(1), &Block::filled(1)).unwrap();
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().destages, 1, "the dirty victim forced one");
    }

    #[test]
    fn out_of_range_is_rejected_without_caching() {
        let mut c = cached(8);
        assert_eq!(
            c.write(BlockAddr(64), &Block::zeroed()),
            Err(DiskError::OutOfRange {
                addr: BlockAddr(64)
            })
        );
        assert_eq!(
            c.read(BlockAddr(99)),
            Err(DiskError::OutOfRange {
                addr: BlockAddr(99)
            })
        );
        assert_eq!(c.resident(), 0);
    }

    #[test]
    fn write_through_passes_everything_through() {
        let mut c = BufferCache::new(MemDisk::for_tests(16), CachePolicy::WriteThrough);
        c.write(BlockAddr(3), &Block::filled(5)).unwrap();
        assert_eq!(
            c.inner().peek(BlockAddr(3)),
            Block::filled(5),
            "write reached the medium immediately"
        );
        c.read(BlockAddr(3)).unwrap();
        c.read(BlockAddr(3)).unwrap();
        assert_eq!(c.inner().stats().reads, 2, "no read absorption");
        assert_eq!(c.resident(), 0);
        c.barrier().unwrap();
        assert_eq!(c.inner().stats().barriers, 1, "barrier forwarded");
    }

    #[test]
    fn peek_sees_dirty_data_and_poke_updates_residents() {
        let mut c = cached(8);
        c.write(BlockAddr(4), &Block::filled(1)).unwrap();
        assert_eq!(c.peek(BlockAddr(4)), Block::filled(1), "logical view");
        c.poke(BlockAddr(4), &Block::filled(2));
        assert_eq!(c.read(BlockAddr(4)).unwrap(), Block::filled(2));
        assert_eq!(c.inner().peek(BlockAddr(4)), Block::filled(2));
        assert_eq!(c.dirty_blocks(), 0, "poked block is clean");
        // A flush now writes nothing: the poke took the block's key.
        let writes = c.inner().stats().writes;
        c.flush().unwrap();
        assert_eq!(c.inner().stats().writes, writes);
    }

    #[test]
    fn into_inner_discards_dirty_blocks() {
        let mut c = cached(8);
        c.write(BlockAddr(6), &Block::filled(3)).unwrap();
        let inner = c.into_inner();
        assert!(
            inner.peek(BlockAddr(6)).is_zeroed(),
            "unflushed write lost with the cache — the lost-write window"
        );
    }

    #[test]
    fn adjacent_dirty_blocks_destage_as_one_sweep() {
        let mut c = cached(16);
        for i in 10..14u64 {
            c.write(BlockAddr(i), &Block::filled(i as u8)).unwrap();
        }
        c.write(BlockAddr(40), &Block::filled(9)).unwrap();
        c.flush().unwrap();
        assert_eq!(c.stats().sweeps, 2, "run [10..14] plus singleton [40]");
    }

    #[test]
    fn unsorted_writes_destage_sorted_as_one_sweep() {
        let (mut c, trace) = traced(16);
        for a in [7, 5, 6] {
            c.write(BlockAddr(a), &Block::filled(1)).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(written(&trace), vec![5, 6, 7]);
        assert_eq!(c.stats().sweeps, 1);
    }

    #[test]
    fn a_run_longer_than_the_sweep_cap_splits() {
        let mut c = BufferCache::new(MemDisk::for_tests(256), CachePolicy::write_back(256));
        for i in 100..230u64 {
            c.write(BlockAddr(i), &Block::filled(1)).unwrap();
        }
        c.flush().unwrap();
        assert_eq!(c.stats().writebacks, 130);
        assert_eq!(c.stats().sweeps, 2, "128 blocks, then 2");
    }
}
