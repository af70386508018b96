//! Differential property tests of the write-back buffer cache: under any
//! sequence of reads, writes, barriers, and flushes, a cached device must
//! be indistinguishable from the bare disk — same read results, same
//! final medium once flushed — at every capacity down to a single block.
//!
//! Runs on the in-tree `iron-testkit` harness: every case is generated
//! from a reported seed, so any failure reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::{
    BlockDevice, BufferCache, CachePolicy, DiskError, DiskResult, MemDisk, RawAccess, StackBuilder,
    TraceLayer,
};
use iron_core::{Block, BlockAddr, BlockTag, IoKind};
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};
use std::collections::BTreeMap;

const DISK_BLOCKS: u64 = 64;

#[derive(Clone, Debug)]
enum Op {
    /// Write block `addr` filled with `fill`.
    Write(u64, u8),
    /// Read block `addr` (out-of-range addresses probe error paths).
    Read(u64),
    Barrier,
    Flush,
}

fn op_gen() -> impl Gen<Value = Op> {
    gen::weighted(vec![
        (
            5,
            (gen::u64_in(0..DISK_BLOCKS), gen::u8_any())
                .map(|(a, f)| Op::Write(a, f))
                .boxed(),
        ),
        (4, gen::u64_in(0..DISK_BLOCKS + 2).map(Op::Read).boxed()),
        (1, gen::just(Op::Barrier).boxed()),
        (1, gen::just(Op::Flush).boxed()),
    ])
}

fn apply<D: BlockDevice>(dev: &mut D, op: &Op) -> DiskResult<Option<Block>> {
    match op {
        Op::Write(a, f) => dev.write(BlockAddr(*a), &Block::filled(*f)).map(|()| None),
        Op::Read(a) => dev.read(BlockAddr(*a)).map(Some),
        Op::Barrier => dev.barrier().map(|()| None),
        Op::Flush => dev.flush().map(|()| None),
    }
}

/// Cached and uncached devices agree on every operation's result, and on
/// the raw medium after a final flush — for write-back caches of any
/// capacity (including 1, where every access evicts) and for the
/// write-through mode.
#[test]
fn cached_device_is_equivalent_to_bare_disk() {
    let cases = (gen::vec_of(op_gen(), 1..120), gen::usize_in(1..24)).map(|(ops, cap)| (ops, cap));
    check(
        "cached_device_is_equivalent_to_bare_disk",
        Config::cases(150),
        &cases,
        |(ops, cap)| {
            for policy in [CachePolicy::write_back(*cap), CachePolicy::WriteThrough] {
                let mut bare = MemDisk::for_tests(DISK_BLOCKS);
                let mut cached = BufferCache::new(MemDisk::for_tests(DISK_BLOCKS), policy);
                for op in ops {
                    let a = apply(&mut bare, op);
                    let b = apply(&mut cached, op);
                    assert_eq!(a, b, "op {op:?} diverged under {policy:?}");
                }
                cached.flush().expect("flush");
                let medium = cached.into_inner();
                for a in 0..DISK_BLOCKS {
                    assert_eq!(
                        bare.peek(BlockAddr(a)),
                        medium.peek(BlockAddr(a)),
                        "medium diverged at block {a} under {policy:?}"
                    );
                }
            }
        },
    );
}

/// Destaged write-back traffic respects barrier order: writes issued
/// before a barrier reach the medium before any write issued after it,
/// and within an epoch the elevator emits ascending addresses.
#[test]
fn destage_respects_barrier_epochs() {
    let cases = (gen::vec_of(op_gen(), 1..80), gen::usize_in(1..16)).map(|(ops, cap)| (ops, cap));
    check(
        "destage_respects_barrier_epochs",
        Config::cases(150),
        &cases,
        |(ops, cap)| {
            let mut cached = StackBuilder::memdisk(DISK_BLOCKS)
                .layer(TraceLayer::new)
                .with_cache(CachePolicy::write_back(*cap))
                .build();
            let trace = cached.inner().trace();

            // Model the epoch each block's *last* write belongs to: the
            // epoch counter advances on a barrier iff something was
            // written since it last advanced.
            let mut epoch = 0u64;
            let mut epoch_dirty = false;
            let mut expected_epoch: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            let mut mark = trace.len();

            let check_destage_order =
                |mark: usize,
                 trace: &iron_blockdev::IoTrace,
                 expected: &std::collections::HashMap<u64, u64>| {
                    let writes: Vec<u64> = trace
                        .since(mark)
                        .iter()
                        .filter(|e| e.kind == IoKind::Write)
                        .map(|e| e.addr.0)
                        .collect();
                    let epochs: Vec<u64> = writes.iter().map(|a| expected[a]).collect();
                    let mut sorted = epochs.clone();
                    sorted.sort_unstable();
                    assert_eq!(epochs, sorted, "epoch order violated: writes {writes:?}");
                    for pair in writes.windows(2) {
                        if expected[&pair[0]] == expected[&pair[1]] {
                            assert!(
                                pair[0] < pair[1],
                                "within-epoch elevator order violated: {writes:?}"
                            );
                        }
                    }
                };

            for op in ops {
                match op {
                    Op::Write(a, f) => {
                        cached.write(BlockAddr(*a), &Block::filled(*f)).unwrap();
                        expected_epoch.insert(*a, epoch);
                        epoch_dirty = true;
                        // Cache pressure may destage early; fold those
                        // writes into the running check.
                        check_destage_order(mark, &trace, &expected_epoch);
                        mark = trace.len();
                    }
                    Op::Read(a) => {
                        let _ = cached.read(BlockAddr(*a));
                        check_destage_order(mark, &trace, &expected_epoch);
                        mark = trace.len();
                    }
                    Op::Barrier => {
                        cached.barrier().unwrap();
                        if epoch_dirty {
                            epoch += 1;
                            epoch_dirty = false;
                        }
                    }
                    Op::Flush => {
                        cached.flush().unwrap();
                        check_destage_order(mark, &trace, &expected_epoch);
                        mark = trace.len();
                    }
                }
            }
            cached.flush().unwrap();
            check_destage_order(mark, &trace, &expected_epoch);
        },
    );
}

// ----------------------------------------------------------------------
// Failed write-back: the lost-write window.
// ----------------------------------------------------------------------

/// What [`BadSpots`] saw below the cache: a write (and whether it was let
/// through) or a barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seen {
    Write { addr: u64, ok: bool },
    Barrier,
}

/// A disk whose writes to the `bad` addresses fail until `healed` is set,
/// and which lists every write and barrier that reaches it.
struct BadSpots {
    inner: MemDisk,
    bad: Vec<u64>,
    healed: bool,
    seen: Vec<Seen>,
}

impl BadSpots {
    fn new(blocks: u64, bad: &[u64]) -> Self {
        BadSpots {
            inner: MemDisk::for_tests(blocks),
            bad: bad.to_vec(),
            healed: false,
            seen: Vec::new(),
        }
    }
}

impl BlockDevice for BadSpots {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.inner.read_tagged(addr, tag)
    }
    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        let ok = self.healed || !self.bad.contains(&addr.0);
        self.seen.push(Seen::Write { addr: addr.0, ok });
        if !ok {
            return Err(DiskError::Io {
                addr,
                kind: IoKind::Write,
            });
        }
        self.inner.write_tagged(addr, block, tag)
    }
    fn barrier(&mut self) -> DiskResult<()> {
        self.seen.push(Seen::Barrier);
        self.inner.barrier()
    }
    fn flush(&mut self) -> DiskResult<()> {
        self.inner.flush()
    }
}

impl RawAccess for BadSpots {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.inner.peek(addr)
    }
    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block)
    }
}

#[test]
fn failed_writeback_surfaces_on_flush_and_retries() {
    let mut cache = BufferCache::write_back(BadSpots::new(16, &[5]));
    cache.write(BlockAddr(3), &Block::filled(3)).unwrap();
    cache.write(BlockAddr(5), &Block::filled(5)).unwrap();
    cache.write(BlockAddr(9), &Block::filled(9)).unwrap();

    // The absorbed write succeeded; only the flush reports the failure —
    // the paper's lost-write window (§2.2) made concrete.
    let err = cache.flush().unwrap_err();
    assert_eq!(
        err,
        DiskError::Io {
            addr: BlockAddr(5),
            kind: IoKind::Write
        }
    );
    // The failed block is still dirty; the others may or may not have
    // landed, but nothing was silently dropped.
    assert!(cache.dirty_blocks() >= 1);

    // After the spot heals, a retry drains everything.
    cache.inner_mut().healed = true;
    cache.flush().expect("healed flush");
    assert_eq!(cache.dirty_blocks(), 0);
    let medium = cache.into_inner();
    for (a, f) in [(3u64, 3u8), (5, 5), (9, 9)] {
        assert_eq!(medium.inner.peek(BlockAddr(a)), Block::filled(f));
    }
}

/// A failed write-back at *eviction* time is the error of the access that
/// needed the room; the victim stays resident and dirty, and is evicted
/// by the next access once the spot heals.
#[test]
fn failed_writeback_at_eviction_keeps_the_victim() {
    let mut cache = BufferCache::new(BadSpots::new(16, &[5]), CachePolicy::write_back(2));
    cache.write(BlockAddr(5), &Block::filled(5)).unwrap();
    cache.write(BlockAddr(6), &Block::filled(6)).unwrap();
    for _ in 0..2 {
        assert!(
            cache.read(BlockAddr(7)).is_err(),
            "no room without a destage"
        );
        assert_eq!((cache.resident(), cache.dirty_blocks()), (2, 2));
    }
    cache.inner_mut().healed = true;
    assert!(cache.read(BlockAddr(7)).unwrap().is_zeroed());
    assert_eq!((cache.stats().evictions, cache.dirty_blocks()), (1, 0));
    assert_eq!(cache.inner().inner.peek(BlockAddr(5)), Block::filled(5));
}

// ----------------------------------------------------------------------
// The dirty index is exact.
// ----------------------------------------------------------------------

#[derive(Clone, Debug)]
enum IndexOp {
    Write(u64, u8),
    Read(u64),
    Barrier,
    Flush,
    /// Harness store: medium and resident copy agree afterwards.
    Poke(u64, u8),
}

fn index_op_gen() -> impl Gen<Value = IndexOp> {
    let addr = || gen::u64_in(0..DISK_BLOCKS);
    gen::weighted(vec![
        (
            6,
            (addr(), gen::u8_any())
                .map(|(a, f)| IndexOp::Write(a, f))
                .boxed(),
        ),
        (2, addr().map(IndexOp::Read).boxed()),
        (2, gen::just(IndexOp::Barrier).boxed()),
        (1, gen::just(IndexOp::Flush).boxed()),
        (
            1,
            (addr(), gen::u8_any())
                .map(|(a, f)| IndexOp::Poke(a, f))
                .boxed(),
        ),
    ])
}

/// The model of the cache's dirty state: `addr → epoch` of every dirty
/// block, plus the epoch counter (which advances on a barrier iff
/// something was written since it last advanced).
#[derive(Default)]
struct DirtyModel {
    dirty: BTreeMap<u64, u64>,
    epoch: u64,
    epoch_dirty: bool,
}

impl DirtyModel {
    /// What one destage attempt must show below the cache — epochs in
    /// order, one barrier between them, addresses ascending inside each,
    /// stopping at the first write that fails — and whether it fails.
    /// Blocks written are dropped from the model.
    fn destage(&mut self, failing: &[u64]) -> (Vec<Seen>, bool) {
        let mut keys: Vec<(u64, u64)> = self.dirty.iter().map(|(&a, &e)| (e, a)).collect();
        keys.sort_unstable();
        let mut seen = Vec::new();
        for (i, &(epoch, addr)) in keys.iter().enumerate() {
            if i > 0 && keys[i - 1].0 != epoch {
                seen.push(Seen::Barrier);
            }
            let ok = !failing.contains(&addr);
            seen.push(Seen::Write { addr, ok });
            if !ok {
                return (seen, true);
            }
            self.dirty.remove(&addr);
        }
        (seen, false)
    }
}

/// Random traffic over a device that fails chosen write-backs, against
/// [`DirtyModel`]: the dirty count matches after every operation, every
/// destage (flush or eviction) shows exactly the model's order below the
/// cache, and after a failed flush a healed retry writes exactly what the
/// model still holds dirty.
fn dirty_index_matches_the_model(name: &str, cases: u32) {
    let input = (
        gen::vec_of(index_op_gen(), 1..120),
        gen::usize_in(1..80),
        gen::vec_of(gen::u64_in(0..DISK_BLOCKS), 0..4),
    );
    check(name, Config::cases(cases), &input, |(ops, cap, bad)| {
        let mut cache = BufferCache::new(
            BadSpots::new(DISK_BLOCKS, bad),
            CachePolicy::write_back(*cap),
        );
        let mut model = DirtyModel::default();
        let mut logical = [0u8; DISK_BLOCKS as usize];
        for op in ops {
            // A destage, if this operation runs one, runs before the
            // operation's own effect: predict it from the model as it is.
            let before = model.dirty.clone();
            let (predicted, fails) = model.destage(bad);
            let result = match *op {
                IndexOp::Write(a, f) => cache.write(BlockAddr(a), &Block::filled(f)),
                IndexOp::Read(a) => cache.read(BlockAddr(a)).map(|b| {
                    assert_eq!(b, Block::filled(logical[a as usize]), "read of {a}");
                }),
                IndexOp::Barrier => cache.barrier(),
                IndexOp::Flush => cache.flush(),
                IndexOp::Poke(a, f) => {
                    cache.poke(BlockAddr(a), &Block::filled(f));
                    Ok(())
                }
            };
            let seen = std::mem::take(&mut cache.inner_mut().seen);
            if seen.is_empty() && !matches!(op, IndexOp::Flush) {
                model.dirty = before; // no eviction, so no destage
                assert!(result.is_ok(), "{op:?} failed without I/O");
            } else {
                assert_eq!(seen, predicted, "destage order at {op:?}");
                assert_eq!(result.is_err(), fails, "{op:?}");
            }
            match *op {
                IndexOp::Write(a, f) if result.is_ok() => {
                    model.dirty.insert(a, model.epoch);
                    model.epoch_dirty = true;
                    logical[a as usize] = f;
                }
                IndexOp::Barrier if model.epoch_dirty => {
                    model.epoch += 1;
                    model.epoch_dirty = false;
                }
                IndexOp::Poke(a, f) => {
                    model.dirty.remove(&a);
                    logical[a as usize] = f;
                }
                IndexOp::Flush if fails => {
                    assert_eq!(cache.dirty_blocks(), model.dirty.len());
                    cache.inner_mut().healed = true;
                    let (remaining, _) = model.destage(&[]);
                    cache.flush().expect("healed flush");
                    let seen = std::mem::take(&mut cache.inner_mut().seen);
                    assert_eq!(seen, remaining, "healed retry");
                    cache.inner_mut().healed = false;
                }
                _ => {}
            }
            assert_eq!(cache.dirty_blocks(), model.dirty.len(), "after {op:?}");
        }
    });
}

#[test]
fn dirty_index_is_exact() {
    dirty_index_matches_the_model("dirty_index_is_exact", 150);
}

#[test]
#[ignore = "stress lane; run with --ignored"]
fn dirty_index_is_exact_stress() {
    dirty_index_matches_the_model("dirty_index_is_exact_stress", 2000);
}
