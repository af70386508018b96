//! `read_page` ≡ `read_tagged`, and a written page is the page below.
//!
//! `MemDisk` hands out the page it stores, whose digest is memoized, and
//! the snapshots sharing a page share it, so the first property is that
//! the memo never shows: under any interleaving of writes, pokes,
//! snapshots and drops over a family of disks, a page read back holds the
//! bytes of the block and the digest of those bytes. After every step the
//! touched address is read on *every* live disk, so each page a later
//! write replaces — or overwrites in place, being no longer shared — has
//! already been hashed, and a child's write is followed by its parent's
//! re-read of the old digest. The final sweep reads every block,
//! never-written zero pages included.
//!
//! Then the stacks: every layer (`Recorder`, `RetryLayer`, `BufferCache`
//! in both policies, `ReplicatedDisk` under all three read policies) is
//! built twice over one disk; one twin is written with `write_page` and
//! read with `read_page`, the other written with `write_tagged` and read
//! with `read_tagged` and hashed, and the two must agree in every result
//! and in every counter, log and clock below.
//!
//! Last, sharing: a page written at the top of each of those stacks, and
//! of a fault-free `FaultyDisk`, is — pointer for pointer — the page every
//! `MemDisk` below returns, and the page a read at the top returns.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure reruns with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

use iron_blockdev::{
    BlockDevice, BufferCache, CachePolicy, DiskGeometry, MemDisk, Page, RawAccess, Recorder,
    RetryConfig, RetryLayer,
};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::checksum::{sha1, Sha1Digest};
use iron_core::recover::{FailurePolicyTable, PolicyHandle};
use iron_core::{Block, BlockAddr, BlockTag, SimClock};
use iron_faultinject::FaultyDisk;
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};

/// One block; a few, so pages collide often; and one past a chunk of the
/// spine (`memdisk.rs`'s `CHUNK_PAGES` is 64).
const SIZES: [u64; 3] = [1, 5, 66];
/// Snapshots beyond this many live disks are skipped.
const MAX_LIVE: usize = 5;
const TAG: BlockTag = BlockTag("data");

/// The block every write here stores, and its digest, per fill byte.
fn filled(fill: u8) -> (Block, Sha1Digest) {
    static DIGESTS: OnceLock<Vec<Sha1Digest>> = OnceLock::new();
    let digests = DIGESTS.get_or_init(|| (0..=255).map(|f| sha1(&*Block::filled(f))).collect());
    (Block::filled(fill), digests[fill as usize])
}

/// A disk and its reference: the fill byte of every block.
type Modelled = (MemDisk, Vec<u8>);

/// `disk` selects among the live disks, modulo how many there are.
#[derive(Clone, Debug)]
enum Op {
    Write { disk: usize, addr: u64, fill: u8 },
    Poke { disk: usize, addr: u64, fill: u8 },
    Snapshot { disk: usize },
    Drop { disk: usize },
}

fn op_gen() -> impl Gen<Value = Op> {
    let target = || {
        (
            gen::usize_in(0..MAX_LIVE),
            gen::u64_in(0..1 << 16),
            gen::u8_any(),
        )
    };
    gen::weighted(vec![
        (
            4,
            target()
                .map(|(disk, addr, fill)| Op::Write { disk, addr, fill })
                .boxed(),
        ),
        (
            2,
            target()
                .map(|(disk, addr, fill)| Op::Poke { disk, addr, fill })
                .boxed(),
        ),
        (
            2,
            gen::usize_in(0..MAX_LIVE)
                .map(|disk| Op::Snapshot { disk })
                .boxed(),
        ),
        (
            1,
            gen::usize_in(0..MAX_LIVE)
                .map(|disk| Op::Drop { disk })
                .boxed(),
        ),
    ])
}

/// A disk on the mechanical timing model, so a read's charge shows.
fn timed(n: u64) -> MemDisk {
    MemDisk::new(n, DiskGeometry::ata_7200rpm(), SimClock::new())
}

/// A page's bytes and its digest, to compare with [`filled`].
fn opened(page: &Page) -> (Block, Sha1Digest) {
    (page.to_block(), page.sha1())
}

/// Read `addr` as a page on every live disk; each must return its model's
/// bytes and their digest, charged as one read.
fn read_everywhere(live: &mut [Modelled], addr: u64, after: &dyn Debug) {
    for (i, (disk, model)) in live.iter_mut().enumerate() {
        let reads = disk.stats().reads;
        let got = opened(&disk.read_page(BlockAddr(addr), TAG).unwrap());
        assert_eq!(
            got,
            filled(model[addr as usize]),
            "disk {i} block {addr} after {after:?}"
        );
        assert_eq!(disk.stats().reads, reads + 1);
    }
}

/// Twin stacks over one disk: `a` is written with `write_page` and read
/// with `read_page`, `b` written with `write_tagged` and read with
/// `read_tagged` then hashed, at every address after one write through
/// both (so a write-back cache holds a dirty resident, and a page below
/// was just replaced). Results must agree and match the model; `seen`
/// must then say the same of both.
fn twins<S: BlockDevice, T: PartialEq + Debug>(
    what: &str,
    (mut a, mut b): (S, S),
    model: &[u8],
    seen: impl Fn(&S) -> T,
) {
    let mut model = model.to_vec();
    let fill = model[0] ^ 0x5A;
    a.write_page(BlockAddr(0), &Page::new(&Block::filled(fill)), TAG)
        .unwrap();
    b.write_tagged(BlockAddr(0), &Block::filled(fill), TAG)
        .unwrap();
    model[0] = fill;
    for _ in 0..2 {
        for (addr, &fill) in model.iter().enumerate() {
            let addr = BlockAddr(addr as u64);
            let got = opened(&a.read_page(addr, TAG).unwrap());
            let block = b.read_tagged(addr, TAG).unwrap();
            let digest = sha1(&block[..]);
            assert_eq!(got, (block, digest), "{what}: block {addr}");
            assert_eq!(got, filled(fill), "{what}: block {addr}");
        }
    }
    assert_eq!(seen(&a), seen(&b), "{what}");
}

/// Every stack the campaigns and the serve path build, twice over `disk`.
fn through_every_stack(disk: &MemDisk, model: &[u8]) {
    twins(
        "Recorder",
        (
            Recorder::new(disk.snapshot()),
            Recorder::new(disk.snapshot()),
        ),
        model,
        |s| {
            let log = s.log();
            let events: Vec<_> = log.events().iter().map(ToString::to_string).collect();
            let writes: Vec<_> = (log.snapshot().records.into_iter())
                .map(|w| (w.seq, w.epoch, w.addr, w.tag, w.data))
                .collect();
            (s.inner().stats(), events, writes)
        },
    );
    let retry = || {
        let d = disk.snapshot();
        let clock = d.clock();
        retrying(d, clock)
    };
    twins("RetryLayer", (retry(), retry()), model, |s| {
        (s.inner().stats(), s.stats().snapshot())
    });
    for policy in [CachePolicy::WriteThrough, CachePolicy::write_back(2)] {
        let cache = || BufferCache::new(disk.snapshot(), policy);
        twins(&format!("{policy:?}"), (cache(), cache()), model, |s| {
            (s.inner().stats(), s.stats())
        });
    }
    for policy in [
        ReadPolicy::Primary,
        ReadPolicy::RoundRobin,
        ReadPolicy::Quorum,
    ] {
        let mirror = || ReplicatedDisk::from_golden(disk, 3, policy);
        twins(&format!("{policy:?}"), (mirror(), mirror()), model, |s| {
            let replicas: Vec<_> = s.replicas().iter().map(MemDisk::stats).collect();
            (replicas, s.stats().snapshot())
        });
    }
}

fn digests_match_the_bytes(name: &str, cases: u32) {
    let inputs = (gen::usize_in(0..SIZES.len()), gen::vec_of(op_gen(), 1..60));
    check(name, Config::cases(cases), &inputs, |(size, ops)| {
        let n = SIZES[*size];
        let mut live: Vec<Modelled> = vec![(timed(n), vec![0; n as usize])];
        for op in ops {
            let count = live.len();
            let touched = match *op {
                Op::Write { disk, addr, fill } => {
                    let (d, model) = &mut live[disk % count];
                    let a = addr % n;
                    d.write(BlockAddr(a), &Block::filled(fill)).unwrap();
                    model[a as usize] = fill;
                    a
                }
                Op::Poke { disk, addr, fill } => {
                    let (d, model) = &mut live[disk % count];
                    let a = addr % n;
                    d.poke(BlockAddr(a), &Block::filled(fill));
                    model[a as usize] = fill;
                    a
                }
                Op::Snapshot { disk } if count < MAX_LIVE => {
                    let (d, model) = &live[disk % count];
                    let child = (d.snapshot(), model.clone());
                    live.push(child);
                    disk as u64 % n
                }
                Op::Drop { disk } if count > 1 => {
                    live.remove(disk % count);
                    disk as u64 % n
                }
                Op::Snapshot { disk } | Op::Drop { disk } => disk as u64 % n,
            };
            read_everywhere(&mut live, touched, op);
        }
        for a in 0..n {
            read_everywhere(&mut live, a, &"the last op");
        }
        let (disk, model) = &live[live.len() - 1];
        through_every_stack(disk, model);
    });
}

#[test]
fn read_page_is_read_tagged_then_sha1() {
    digests_match_the_bytes("read_page_is_read_tagged_then_sha1", 100);
}

#[test]
#[ignore = "stress lane; run with --ignored (IRON_STRESS=1 ./ci.sh)"]
fn read_page_is_read_tagged_then_sha1_stress() {
    digests_match_the_bytes("read_page_is_read_tagged_then_sha1_stress", 20_000);
}

/// The three cases the memo could get wrong, named: the shared zero page,
/// a child's write under a parent that has hashed the page, and an
/// in-place store into an unshared page that has been hashed.
#[test]
fn the_memo_follows_every_store() {
    let zero = filled(0);
    let mut parent = timed(4);
    let read = |d: &mut MemDisk, a: u64| opened(&d.read_page(BlockAddr(a), TAG).unwrap());
    assert_eq!(read(&mut parent, 1), zero);
    assert_eq!(read(&mut parent, 2), zero);

    parent.write(BlockAddr(1), &Block::filled(7)).unwrap();
    assert_eq!(read(&mut parent, 1), filled(7));
    let mut child = parent.snapshot();
    child.write(BlockAddr(1), &Block::filled(8)).unwrap();
    assert_eq!(read(&mut child, 1), filled(8));
    assert_eq!(read(&mut parent, 1), filled(7));

    // The child's page is its own now: these land in place.
    child.write(BlockAddr(1), &Block::filled(9)).unwrap();
    assert_eq!(read(&mut child, 1), filled(9));
    child.poke(BlockAddr(1), &Block::filled(10));
    assert_eq!(read(&mut child, 1), filled(10));
    assert_eq!(child.peek(BlockAddr(2)), Block::zeroed());
    assert_eq!(read(&mut child, 2), zero);
}

const SHARED: BlockAddr = BlockAddr(3);

/// Write one page at the top of `stack`, let `settle` move it down, and
/// hold it against every page `below` reads from the media underneath and
/// against a read at the top: all must be that page, not a copy of it.
fn shares_the_written_page<S: BlockDevice>(
    what: &str,
    mut stack: S,
    settle: impl FnOnce(&mut S),
    below: impl FnOnce(&mut S) -> Vec<Arc<Page>>,
) {
    let page = Page::new(&Block::filled(0xC3));
    stack.write_page(SHARED, &page, TAG).unwrap();
    settle(&mut stack);
    let media = below(&mut stack);
    assert!(!media.is_empty(), "{what}: no medium below");
    for (i, p) in media.iter().enumerate() {
        assert!(Arc::ptr_eq(p, &page), "{what}: medium {i} holds a copy");
    }
    let top = stack.read_page(SHARED, TAG).unwrap();
    assert!(Arc::ptr_eq(&top, &page), "{what}: the top reads a copy");
}

/// `d` under a retry layer that propagates every error.
fn retrying<D: BlockDevice>(d: D, clock: SimClock) -> RetryLayer<D> {
    let policy = PolicyHandle::new(FailurePolicyTable::propagate_all());
    RetryLayer::new(d, RetryConfig::new(policy, clock))
}

/// The page `SHARED` holds on one medium.
fn on(disk: &mut MemDisk) -> Arc<Page> {
    disk.read_page(SHARED, TAG).unwrap()
}

#[test]
fn a_written_page_is_the_page_below() {
    let disk = || MemDisk::for_tests(8);
    let flush = |s: &mut BufferCache<MemDisk>| s.flush().unwrap();
    let cache = |policy| BufferCache::new(disk(), policy);
    shares_the_written_page(
        "write-back, flushed",
        cache(CachePolicy::write_back(2)),
        flush,
        |s| vec![on(s.inner_mut())],
    );
    shares_the_written_page(
        "write-back, flushed and evicted",
        cache(CachePolicy::write_back(2)),
        |s| {
            s.flush().unwrap();
            s.read(BlockAddr(0)).unwrap();
            s.read(BlockAddr(1)).unwrap();
            assert_eq!(s.stats().evictions, 1);
        },
        |s| vec![on(s.inner_mut())],
    );
    shares_the_written_page(
        "write-through",
        cache(CachePolicy::WriteThrough),
        |_| {},
        |s| vec![on(s.inner_mut())],
    );
    shares_the_written_page(
        "RetryLayer",
        retrying(disk(), SimClock::new()),
        |_| {},
        |s| vec![on(s.inner_mut())],
    );
    shares_the_written_page(
        "Recorder",
        Recorder::new(disk()),
        |_| {},
        |s| vec![on(s.inner_mut())],
    );
    shares_the_written_page(
        "FaultyDisk",
        FaultyDisk::new(disk()),
        |_| {},
        |s| vec![on(s.inner_mut())],
    );
    let replicas = |s: &mut ReplicatedDisk<MemDisk>| {
        (0..s.num_replicas())
            .map(|i| on(s.replica_mut(i)))
            .collect()
    };
    for n in 1..=3 {
        for policy in [
            ReadPolicy::Primary,
            ReadPolicy::RoundRobin,
            ReadPolicy::Quorum,
        ] {
            shares_the_written_page(
                &format!("{n} replicas, {policy:?}"),
                ReplicatedDisk::from_golden(&disk(), n, policy),
                |_| {},
                replicas,
            );
        }
    }
    // The serve path's stack: write-back cache, retry, a quorum volume.
    let volume = ReplicatedDisk::from_golden(&disk(), 3, ReadPolicy::Quorum);
    shares_the_written_page(
        "write-back over retry over a quorum volume",
        BufferCache::new(
            retrying(volume, SimClock::new()),
            CachePolicy::write_back(2),
        ),
        |s| s.flush().unwrap(),
        |s| replicas(s.inner_mut().inner_mut()),
    );
}
