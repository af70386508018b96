//! [`MemDisk`]: a perfect in-memory disk with a mechanical timing model.
//! It stores blocks, charges service time and counts requests; it does not
//! record them (see [`crate::iolog`] for who does).

use std::sync::Arc;

use iron_core::{Block, BlockAddr, BlockTag, SimClock};

use crate::device::{BlockDevice, DiskError, DiskResult, RawAccess};
use crate::geometry::DiskGeometry;
use crate::page::Page;

/// Cumulative device statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Blocks read.
    pub reads: u64,
    /// Blocks written.
    pub writes: u64,
    /// Ordering barriers issued.
    pub barriers: u64,
    /// Durability flushes issued.
    pub flushes: u64,
    /// Total simulated nanoseconds spent servicing requests.
    pub busy_ns: u64,
    /// Seeks performed (track changes).
    pub seeks: u64,
}

/// Pages per chunk: what a snapshot, and dropping one, pays one refcount
/// for, and how many pointers the first write into a shared chunk copies.
/// Timed at 16, 32, 64 and 128 on the `campaign` benchmark (EXPERIMENTS.md,
/// "The medium's spine").
const CHUNK_PAGES: usize = 64;

type Chunk = Arc<[Arc<Page>; CHUNK_PAGES]>;

/// An in-memory disk that never fails.
///
/// Every request advances the shared [`SimClock`] according to the
/// [`DiskGeometry`] service-time model.
///
/// The medium is copy-on-write on two levels: a spine of shared chunks,
/// each `CHUNK_PAGES` shared pages, one page per block. A
/// [`MemDisk::snapshot`] shares every chunk with its parent; the first
/// write either side makes into a chunk copies that chunk's page pointers,
/// and the pages themselves stay shared until written. A never-written
/// chunk is the all-zero chunk its disk was created with. A page written
/// with [`BlockDevice::write_page`] is the writer's own, shared with every
/// other medium it was written to, and [`BlockDevice::read_page`] hands it
/// out as it is, so whoever shares a page shares its memoized digest.
pub struct MemDisk {
    chunks: Vec<Chunk>,
    /// The last chunk is padded to full length with zero pages, so the
    /// size is kept beside the spine.
    num_blocks: u64,
    geometry: DiskGeometry,
    clock: SimClock,
    stats: DiskStats,
    current_track: u64,
    /// Last block accessed, for sequential-streaming detection.
    last_addr: Option<u64>,
    /// Set by [`BlockDevice::barrier`]: the next media access must wait for
    /// a full platter revolution (the dependent write missed its slot).
    pending_barrier: bool,
    /// Active readahead window `[start, end)` from
    /// [`BlockDevice::readahead`]: the firmware has the scan buffered, so
    /// ascending reads inside it stream across track boundaries. Any
    /// write, barrier, flush, or out-of-window access discards it (the
    /// drive repurposes the buffer the moment the access pattern breaks).
    ra_window: Option<(u64, u64)>,
}

impl MemDisk {
    /// Create a disk of `num_blocks` zeroed blocks.
    pub fn new(num_blocks: u64, geometry: DiskGeometry, clock: SimClock) -> Self {
        let zero_page = Page::new(&Block::zeroed());
        let zero_chunk: Chunk = Arc::new(std::array::from_fn(|_| zero_page.clone()));
        MemDisk {
            chunks: vec![zero_chunk; (num_blocks as usize).div_ceil(CHUNK_PAGES)],
            num_blocks,
            geometry,
            clock,
            stats: DiskStats::default(),
            current_track: 0,
            last_addr: None,
            pending_barrier: false,
            ra_window: None,
        }
    }

    /// Convenience constructor for functional tests: near-instant timing.
    pub fn for_tests(num_blocks: u64) -> Self {
        MemDisk::new(num_blocks, DiskGeometry::instant(), SimClock::new())
    }

    /// An independent disk with the same contents and fresh clock and
    /// statistics — the fingerprinting campaign stamps one golden image
    /// per file system and snapshots it for every (workload × block type ×
    /// fault) cell. Costs one refcount bump per chunk and copies no data:
    /// chunks and pages are shared until either side writes them, and a
    /// write to one side is never visible on the other.
    pub fn snapshot(&self) -> MemDisk {
        MemDisk {
            chunks: self.chunks.clone(),
            num_blocks: self.num_blocks,
            geometry: self.geometry,
            clock: SimClock::new(),
            stats: DiskStats::default(),
            current_track: 0,
            last_addr: None,
            pending_barrier: false,
            ra_window: None,
        }
    }

    /// The shared clock handle.
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// The geometry in use.
    pub fn geometry(&self) -> DiskGeometry {
        self.geometry
    }

    fn check_range(&self, addr: BlockAddr) -> DiskResult<()> {
        if addr.0 < self.num_blocks {
            Ok(())
        } else {
            Err(DiskError::OutOfRange { addr })
        }
    }

    /// Raw access has no error channel: an out-of-range address is a bug in
    /// the calling harness, reported with the address and the disk size.
    fn raw_index(&self, addr: BlockAddr, what: &str) -> usize {
        assert!(
            addr.0 < self.num_blocks,
            "{what} of block {addr} on a disk of {} blocks",
            self.num_blocks
        );
        addr.0 as usize
    }

    /// The page at the in-range index `idx`.
    fn page(&self, idx: usize) -> &Arc<Page> {
        &self.chunks[idx / CHUNK_PAGES][idx % CHUNK_PAGES]
    }

    /// The slot of the in-range index `idx`, for a write. A chunk a
    /// snapshot (or the zero fill) still shares is copied first —
    /// `Arc::make_mut`: its other pointers are still wanted — which leaves
    /// every page in it shared.
    fn slot(&mut self, idx: usize) -> &mut Arc<Page> {
        &mut Arc::make_mut(&mut self.chunks[idx / CHUNK_PAGES])[idx % CHUNK_PAGES]
    }

    /// Put `block` at the in-range index `idx`. A page that already holds
    /// exactly these bytes is kept as it is — its chunk stays shared, it
    /// stays shared, and it keeps its digest — so copying an image block
    /// by block onto a fresh disk leaves every zero block on the zero
    /// page. Otherwise an unshared page is overwritten in place,
    /// forgetting its digest, and a shared one replaced by a fresh one —
    /// not `Arc::make_mut`, which would copy the old contents only to
    /// overwrite them.
    fn store(&mut self, idx: usize, block: &Block) {
        if self.page(idx).bytes() == &**block {
            return;
        }
        let page = self.slot(idx);
        match Arc::get_mut(page) {
            Some(p) => p.overwrite(block),
            None => *page = Page::new(block),
        }
    }

    /// Range-check, charge and count one request; the index it names.
    fn access(&mut self, addr: BlockAddr, is_write: bool) -> DiskResult<usize> {
        self.check_range(addr)?;
        self.charge(addr, is_write);
        match is_write {
            true => self.stats.writes += 1,
            false => self.stats.reads += 1,
        }
        Ok(addr.0 as usize)
    }

    /// Charge service time for accessing `addr`: command overhead, seek,
    /// rotational wait (plus a full lost revolution if a barrier is
    /// pending), and media transfer.
    ///
    /// Sequential accesses (the block immediately after the previous one,
    /// with no intervening barrier) *stream*: real drives service these from
    /// the track buffer / write coalescer at media rate, so they cost only
    /// the transfer time. Non-sequential *reads* pay overhead + seek +
    /// rotation; non-sequential *writes* pay overhead + seek + transfer —
    /// the drive's write-back cache acknowledges them without waiting for
    /// the platter (rotational destaging happens in the background). An
    /// ordering barrier defeats the write cache: the next access waits a
    /// full revolution (its slot has passed by the time prior writes are
    /// on the medium).
    fn charge(&mut self, addr: BlockAddr, is_write: bool) {
        let g = self.geometry;
        let start = self.clock.now_ns();
        // A write or an access outside the readahead window repurposes the
        // firmware's readahead buffer; the streaming benefit is gone.
        if let Some((ra_start, ra_end)) = self.ra_window {
            if is_write || addr.0 < ra_start || addr.0 >= ra_end {
                self.ra_window = None;
            }
        }
        let streaming_read = !is_write
            && !self.pending_barrier
            && self.last_addr == Some(addr.0.wrapping_sub(1))
            && self
                .ra_window
                .is_some_and(|(s, e)| addr.0 >= s && addr.0 < e);
        let sequential = !self.pending_barrier
            && self.last_addr == Some(addr.0.wrapping_sub(1))
            && g.track_of(addr.0) == self.current_track;

        let mut t = start;
        if streaming_read {
            // Firmware readahead: the next track is already (being)
            // buffered, so a track crossing costs no positioning — the
            // scan proceeds at media rate.
            t += g.transfer_ns();
            self.current_track = g.track_of(addr.0);
        } else if sequential {
            t += g.transfer_ns();
        } else {
            t += g.overhead_ns;
            let target_track = g.track_of(addr.0);
            if target_track != self.current_track {
                let total_tracks = self.num_blocks.div_ceil(g.blocks_per_track);
                t += g.seek_ns(self.current_track, target_track, total_tracks);
                self.current_track = target_track;
                self.stats.seeks += 1;
            }
            if self.pending_barrier {
                // The dependent request was held back until prior writes hit
                // the medium; by then the target slot has passed under the
                // head.
                t += g.rev_ns;
                self.pending_barrier = false;
                t += g.rotational_wait_ns(t, g.slot_of(addr.0));
            } else if !is_write {
                t += g.rotational_wait_ns(t, g.slot_of(addr.0));
            }
            t += g.transfer_ns();
        }
        self.last_addr = Some(addr.0);

        self.clock.advance_to_ns(t);
        self.stats.busy_ns += t - start;
    }
}

impl BlockDevice for MemDisk {
    fn num_blocks(&self) -> u64 {
        self.num_blocks
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.read_page(addr, tag).map(|p| p.to_block())
    }

    /// The stored page itself, digest memo and all.
    fn read_page(&mut self, addr: BlockAddr, _tag: BlockTag) -> DiskResult<Arc<Page>> {
        let idx = self.access(addr, false)?;
        Ok(self.page(idx).clone())
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, _tag: BlockTag) -> DiskResult<()> {
        let idx = self.access(addr, true)?;
        self.store(idx, block);
        Ok(())
    }

    /// Stores the caller's page: no copy, and the medium now shares it.
    fn write_page(&mut self, addr: BlockAddr, page: &Arc<Page>, _tag: BlockTag) -> DiskResult<()> {
        let idx = self.access(addr, true)?;
        *self.slot(idx) = page.clone();
        Ok(())
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.stats.barriers += 1;
        self.pending_barrier = true;
        self.ra_window = None;
        Ok(())
    }

    /// The medium itself is nonvolatile (the spine is updated at write
    /// time), so a flush adds no data movement — but it is counted
    /// separately from barriers so layered stacks can assert that a
    /// durability flush issued at the top really arrives at the bottom
    /// *as a flush*, and it pays the same lost-slot penalty a drain of
    /// the drive's write cache costs.
    fn flush(&mut self) -> DiskResult<()> {
        self.stats.flushes += 1;
        self.pending_barrier = true;
        self.ra_window = None;
        Ok(())
    }

    /// Arm the readahead window. Free of charge: the firmware prefetches
    /// in the background, overlapped with host-side processing of the
    /// blocks already delivered; only the scan's own reads are billed.
    fn readahead(&mut self, start: BlockAddr, len: u64) {
        let end = start.0.saturating_add(len).min(self.num_blocks);
        if start.0 < end {
            self.ra_window = Some((start.0, end));
        }
    }
}

impl RawAccess for MemDisk {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.page(self.raw_index(addr, "peek")).to_block()
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        let idx = self.raw_index(addr, "poke");
        self.store(idx, block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{BufferCache, CachePolicy};
    use crate::iolog::{IoOutcome, Recorder};
    use crate::page::SHA1_FILLS;
    use iron_core::checksum::sha1;
    use iron_core::{IoKind, BLOCK_SIZE};

    #[test]
    fn read_write_round_trip() {
        let mut d = MemDisk::for_tests(16);
        let data = Block::filled(0xAB);
        d.write(BlockAddr(3), &data).unwrap();
        assert_eq!(d.read(BlockAddr(3)).unwrap(), data);
        assert!(d.read(BlockAddr(4)).unwrap().is_zeroed());
    }

    /// The sharing the spine exists for, read off the refcounts.
    #[test]
    fn spine_shares_by_chunk_and_a_first_write_copies_one_chunk() {
        // tests/memdisk_cow.rs draws its disk sizes around this value.
        assert_eq!(CHUNK_PAGES, 64);
        let n = 2 * CHUNK_PAGES + 3;
        let mut parent = MemDisk::for_tests(n as u64);
        // A fresh disk is one chunk allocation, its padded last chunk too.
        assert_eq!(parent.chunks.len(), 3);
        assert!(parent
            .chunks
            .iter()
            .all(|c| Arc::ptr_eq(c, &parent.chunks[0])));
        for a in [0, 5, CHUNK_PAGES, n - 1] {
            parent.poke(BlockAddr(a as u64), &Block::filled(a as u8 + 1));
        }

        let chunk_counts = |d: &MemDisk| d.chunks.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let page_counts = |d: &MemDisk| -> Vec<usize> {
            let pages = d.chunks.iter().flat_map(|c| c.iter());
            pages.map(Arc::strong_count).collect()
        };
        let (chunks_before, pages_before) = (chunk_counts(&parent), page_counts(&parent));
        assert_eq!(chunks_before, [1, 1, 1]);
        let mut child = parent.snapshot();
        assert_eq!(chunk_counts(&parent), [2, 2, 2]);
        assert_eq!(page_counts(&parent), pages_before);

        // The first write into a shared chunk copies that chunk's pointers
        // and nothing else: its other pages stay the parent's.
        let written = CHUNK_PAGES + 7;
        child
            .write(BlockAddr(written as u64), &Block::filled(9))
            .unwrap();
        assert_eq!(chunk_counts(&parent), [2, 1, 2]);
        for (i, (ours, theirs)) in child.chunks[1]
            .iter()
            .zip(parent.chunks[1].iter())
            .enumerate()
        {
            assert_eq!(Arc::ptr_eq(ours, theirs), i != 7, "page {i} of chunk 1");
        }
        assert!(parent.peek(BlockAddr(written as u64)).is_zeroed());
        // The second lands in the chunk and the page the first made private.
        let (chunk, page) = (
            Arc::as_ptr(&child.chunks[1]),
            Arc::as_ptr(&child.chunks[1][7]),
        );
        child
            .write(BlockAddr(written as u64), &Block::filled(10))
            .unwrap();
        assert_eq!(Arc::as_ptr(&child.chunks[1]), chunk);
        assert_eq!(Arc::as_ptr(&child.chunks[1][7]), page);

        drop(child);
        assert_eq!(chunk_counts(&parent), chunks_before);
        assert_eq!(page_counts(&parent), pages_before);
    }

    /// The memo a shared page exists for, read off the fill counter:
    /// snapshots share a page's digest, a write forgets it, and a page
    /// hashed above a write-back cache comes back up from the medium, after
    /// a flush and an eviction, as the same page with its digest.
    #[test]
    fn snapshots_sharing_a_page_hash_it_once() {
        let fills = || SHA1_FILLS.with(std::cell::Cell::get);
        let digest_of = |fill: u8| sha1(&[fill; BLOCK_SIZE]);
        let tag = BlockTag::UNTYPED;
        let mut golden = MemDisk::for_tests(8);
        golden.poke(BlockAddr(3), &Block::filled(0x33));
        let (mut a, mut b) = (golden.snapshot(), golden.snapshot());

        let before = fills();
        let page = a.read_page(BlockAddr(3), tag).unwrap();
        assert_eq!(page.to_block(), Block::filled(0x33));
        let digest = page.sha1();
        assert_eq!(digest, digest_of(0x33));
        assert_eq!(fills(), before + 1, "the first ask hashes");
        assert_eq!(b.read_page(BlockAddr(3), tag).unwrap().sha1(), digest);
        assert_eq!(a.read_page(BlockAddr(3), tag).unwrap().sha1(), digest);
        assert_eq!(
            fills(),
            before + 1,
            "the other snapshot and a re-read do not"
        );
        assert_eq!(a.stats().reads, 2, "each is charged as a read");

        // A write into the shared page replaces it in the writer only.
        a.write(BlockAddr(3), &Block::filled(0x44)).unwrap();
        let fresh = a.read_page(BlockAddr(3), tag).unwrap();
        assert_eq!(fresh.sha1(), digest_of(0x44));
        assert_eq!(b.read_page(BlockAddr(3), tag).unwrap().sha1(), digest);
        assert_eq!(fills(), before + 2);

        // The writer's page is now its own: once no reader holds it, a
        // second write lands in place and must forget the memoized digest.
        let at = Arc::as_ptr(&fresh);
        drop(fresh);
        a.poke(BlockAddr(3), &Block::filled(0x55));
        let in_place = a.read_page(BlockAddr(3), tag).unwrap();
        assert_eq!(Arc::as_ptr(&in_place), at, "overwritten in place");
        assert_eq!(in_place.sha1(), digest_of(0x55));
        assert_eq!(fills(), before + 3);

        // Write to read through a write-back cache: the written page is
        // the one the medium keeps and the one a cold read returns.
        let mut c = BufferCache::new(MemDisk::for_tests(8), CachePolicy::write_back(1));
        let page = Page::new(&Block::filled(0x66));
        let digest = page.sha1();
        let before = fills();
        c.write_page(BlockAddr(2), &page, tag).unwrap();
        c.flush().unwrap();
        c.read(BlockAddr(5)).unwrap();
        assert_eq!(c.stats().evictions, 1, "block 2 left the cache");
        let back = c.read_page(BlockAddr(2), tag).unwrap();
        assert_eq!(c.stats().misses, 2, "and came back from the medium");
        assert!(Arc::ptr_eq(&back, &page), "as the page written");
        assert_eq!(back.sha1(), digest);
        assert_eq!(fills(), before, "hashed once, before the write");
    }

    /// Storing the bytes a block already holds keeps its page, the page's
    /// digest and the snapshot's chunk, and is still a charged, counted
    /// write.
    #[test]
    fn storing_the_bytes_already_there_keeps_the_page() {
        let fills = || SHA1_FILLS.with(std::cell::Cell::get);
        let tag = BlockTag::UNTYPED;
        let clock = SimClock::new();
        let mut golden = MemDisk::new(256, DiskGeometry::ata_7200rpm(), clock.clone());
        golden.poke(BlockAddr(3), &Block::filled(0x33));
        let page = golden.page(3).clone();
        let digest = page.sha1();
        let mut child = golden.snapshot();
        let chunk_counts = |d: &MemDisk| d.chunks.iter().map(Arc::strong_count).collect::<Vec<_>>();
        let counts = (chunk_counts(&golden), Arc::strong_count(&page));

        let before = (fills(), child.clock().now_ns());
        child
            .write_tagged(BlockAddr(3), &Block::filled(0x33), tag)
            .unwrap();
        child.poke(BlockAddr(3), &Block::filled(0x33));
        // A zero block of a zero chunk, written and poked with zeroes.
        child
            .write_tagged(BlockAddr(200), &Block::zeroed(), tag)
            .unwrap();
        child.poke(BlockAddr(200), &Block::zeroed());
        assert_eq!((chunk_counts(&golden), Arc::strong_count(&page)), counts);
        assert!(Arc::ptr_eq(child.page(3), &page), "the same page");
        assert!(Arc::ptr_eq(child.page(200), golden.page(200)));
        assert_eq!(child.read_page(BlockAddr(3), tag).unwrap().sha1(), digest);
        assert_eq!(fills(), before.0, "its digest is still memoized");
        assert_eq!(child.stats().writes, 2, "each write is counted");
        assert!(child.clock().now_ns() > before.1, "and charged");
        assert_eq!(clock.now_ns(), 0, "on the child's clock");

        // Different bytes still make the child its own page.
        child.poke(BlockAddr(3), &Block::filled(0x34));
        assert!(!Arc::ptr_eq(child.page(3), &page));
        assert_eq!(golden.peek(BlockAddr(3)), Block::filled(0x33));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = MemDisk::for_tests(4);
        assert_eq!(
            d.read(BlockAddr(4)),
            Err(DiskError::OutOfRange { addr: BlockAddr(4) })
        );
        assert_eq!(
            d.write(BlockAddr(9), &Block::zeroed()),
            Err(DiskError::OutOfRange { addr: BlockAddr(9) })
        );
    }

    #[test]
    fn io_advances_clock_and_stats() {
        let clock = SimClock::new();
        let mut d = MemDisk::new(1024, DiskGeometry::ata_7200rpm(), clock.clone());
        d.read(BlockAddr(0)).unwrap();
        let after_first = clock.now_ns();
        assert!(after_first > 0);
        d.write(BlockAddr(512), &Block::zeroed()).unwrap();
        assert!(clock.now_ns() > after_first);
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.seeks, 1, "block 512 is on a different track");
        assert!(s.busy_ns > 0);
    }

    #[test]
    fn sequential_io_is_much_faster_than_random() {
        let geom = DiskGeometry::ata_7200rpm();
        let clock_seq = SimClock::new();
        let mut seq = MemDisk::new(4096, geom, clock_seq.clone());
        for i in 0..64 {
            seq.read(BlockAddr(i)).unwrap();
        }
        let seq_ns = clock_seq.now_ns();

        let clock_rand = SimClock::new();
        let mut rand = MemDisk::new(4096, geom, clock_rand.clone());
        for i in 0..64u64 {
            // Jump across the disk each time.
            rand.read(BlockAddr((i * 997) % 4096)).unwrap();
        }
        let rand_ns = clock_rand.now_ns();
        assert!(
            rand_ns > seq_ns * 3,
            "random ({rand_ns}ns) should be far slower than sequential ({seq_ns}ns)"
        );
    }

    #[test]
    fn readahead_streams_a_scan_across_track_boundaries() {
        // 4 tracks' worth of blocks (128 blocks/track on ata_7200rpm).
        let geom = DiskGeometry::ata_7200rpm();
        let scan = |hint: bool| {
            let clock = SimClock::new();
            let mut d = MemDisk::new(1024, geom, clock.clone());
            if hint {
                d.readahead(BlockAddr(0), 512);
            }
            for i in 0..512 {
                d.read(BlockAddr(i)).unwrap();
            }
            (clock.now_ns(), d.stats().seeks)
        };
        let (cold_ns, cold_seeks) = scan(false);
        let (ra_ns, ra_seeks) = scan(true);
        assert!(
            ra_ns < cold_ns,
            "hinted scan ({ra_ns}ns) must beat unhinted ({cold_ns}ns)"
        );
        assert!(cold_seeks >= 3, "an unhinted scan seeks at every track");
        assert_eq!(ra_seeks, 0, "a hinted scan never repositions");
        // The hinted scan pays pure media rate after the first block.
        assert!(ra_ns < geom.transfer_ns() * 512 + geom.rev_ns * 2);
    }

    #[test]
    fn readahead_is_invalidated_by_writes_and_barriers() {
        let geom = DiskGeometry::ata_7200rpm();
        let clock = SimClock::new();
        let mut d = MemDisk::new(1024, geom, clock.clone());
        d.readahead(BlockAddr(0), 512);
        for i in 0..128 {
            d.read(BlockAddr(i)).unwrap();
        }
        // A write repurposes the buffer: the scan's next track crossing
        // pays the full positioning charge again.
        d.write(BlockAddr(600), &Block::zeroed()).unwrap();
        let seeks_before = d.stats().seeks;
        d.read(BlockAddr(128)).unwrap();
        d.read(BlockAddr(129)).unwrap();
        assert!(d.stats().seeks > seeks_before, "window must be discarded");

        // Same for a barrier.
        d.readahead(BlockAddr(256), 256);
        d.read(BlockAddr(255)).unwrap(); // position just before the window
        d.barrier().unwrap();
        let t0 = clock.now_ns();
        d.read(BlockAddr(256)).unwrap();
        assert!(
            clock.now_ns() - t0 > geom.transfer_ns(),
            "a post-barrier read must not stream"
        );
    }

    #[test]
    fn readahead_changes_no_content_or_counted_io() {
        let mut d = Recorder::new(MemDisk::for_tests(64));
        d.write(BlockAddr(5), &Block::filled(0x5A)).unwrap();
        let stats_before = d.inner().stats();
        let trace_len = d.log().len();
        d.readahead(BlockAddr(0), 64);
        assert_eq!(d.inner().stats(), stats_before, "a hint reads nothing");
        assert_eq!(d.log().len(), trace_len, "a hint is not a recorded request");
        assert_eq!(d.read(BlockAddr(5)).unwrap(), Block::filled(0x5A));
    }

    #[test]
    fn readahead_hint_near_u64_max_does_not_overflow() {
        let mut d = MemDisk::for_tests(8);
        d.readahead(BlockAddr(2), u64::MAX);
        assert_eq!(d.ra_window, Some((2, 8)), "clamped to the disk");
    }

    #[test]
    #[should_panic(expected = "peek of block #8 on a disk of 8 blocks")]
    fn peek_out_of_range_names_the_address_and_size() {
        MemDisk::for_tests(8).peek(BlockAddr(8));
    }

    #[test]
    #[should_panic(expected = "poke of block #9 on a disk of 8 blocks")]
    fn poke_out_of_range_names_the_address_and_size() {
        MemDisk::for_tests(8).poke(BlockAddr(9), &Block::zeroed());
    }

    #[test]
    fn barrier_costs_a_revolution_on_next_access() {
        let geom = DiskGeometry::ata_7200rpm();
        let clock = SimClock::new();
        let mut d = MemDisk::new(1024, geom, clock.clone());

        // Without barrier: sequential writes stream.
        d.write(BlockAddr(10), &Block::zeroed()).unwrap();
        let t0 = clock.now_ns();
        d.write(BlockAddr(11), &Block::zeroed()).unwrap();
        let no_barrier_cost = clock.now_ns() - t0;

        // With barrier: the next sequential write pays a full revolution.
        d.write(BlockAddr(12), &Block::zeroed()).unwrap();
        let t1 = clock.now_ns();
        d.barrier().unwrap();
        d.write(BlockAddr(13), &Block::zeroed()).unwrap();
        let barrier_cost = clock.now_ns() - t1;

        assert!(
            barrier_cost >= no_barrier_cost + geom.rev_ns,
            "barrier cost {barrier_cost} should exceed streaming cost {no_barrier_cost} by ~one revolution ({})",
            geom.rev_ns
        );
    }

    #[test]
    fn trace_records_tags_and_outcomes() {
        let mut d = Recorder::new(MemDisk::for_tests(8));
        let trace = d.log();
        d.read_tagged(BlockAddr(1), BlockTag("inode")).unwrap();
        d.write_tagged(BlockAddr(2), &Block::zeroed(), BlockTag("j-commit"))
            .unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].tag, BlockTag("inode"));
        assert_eq!(events[0].kind, IoKind::Read);
        assert_eq!(events[1].tag, BlockTag("j-commit"));
        assert_eq!(events[1].outcome, IoOutcome::Ok);
    }

    #[test]
    fn peek_poke_bypass_trace_and_clock() {
        let mut d = Recorder::new(MemDisk::for_tests(8));
        let trace = d.log();
        let clock = d.inner().clock();
        let before = clock.now_ns();
        d.poke(BlockAddr(5), &Block::filled(7));
        assert_eq!(d.peek(BlockAddr(5)), Block::filled(7));
        assert_eq!(clock.now_ns(), before);
        assert!(trace.is_empty());
        // And the real read sees poked contents.
        assert_eq!(d.read(BlockAddr(5)).unwrap(), Block::filled(7));
    }
}
