//! `read_with_sha1` ≡ `read_tagged` + `sha1`.
//!
//! `MemDisk` memoizes each page's digest, and the snapshots sharing a page
//! share it, so the property that matters is that the memo never shows:
//! under any interleaving of writes, pokes, snapshots and drops over a
//! family of disks, the digest a read hands back is the digest of the
//! bytes it returns. After every step the touched address is read with its
//! digest on *every* live disk, so each page a later write replaces — or
//! overwrites in place, being no longer shared — has already been hashed,
//! and a child's write is followed by its parent's re-read of the old
//! digest. The final sweep reads every block, never-written zero pages
//! included.
//!
//! Then the stacks: each layer that forwards the call (`CrashRecorder`,
//! `TraceLayer`, `RetryLayer`, write-through `BufferCache`) and each that
//! keeps the default (write-back `BufferCache`, `ReplicatedDisk` under all
//! three read policies) is built twice over one disk; one twin is read with
//! `read_with_sha1`, the other with `read_tagged` and hashed, and the two
//! must agree in every result and in every counter, trace and clock below.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure reruns with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use std::fmt::Debug;
use std::sync::OnceLock;

use iron_blockdev::{
    with_sha1, BlockDevice, BufferCache, CachePolicy, CrashRecorder, DiskGeometry, MemDisk,
    RawAccess, RetryConfig, RetryLayer, TraceLayer,
};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::checksum::{sha1, Sha1Digest};
use iron_core::recover::{FailurePolicyTable, PolicyHandle};
use iron_core::{Block, BlockAddr, BlockTag, SimClock};
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

/// Read `addr` with its digest on every live disk; each must return its
/// model's bytes and their digest, charged as one read.
fn read_everywhere(live: &mut [Modelled], addr: u64, after: &dyn Debug) {
    for (i, (disk, model)) in live.iter_mut().enumerate() {
        let reads = disk.stats().reads;
        let got = disk.read_with_sha1(BlockAddr(addr), TAG).unwrap();
        assert_eq!(
            got,
            filled(model[addr as usize]),
            "disk {i} block {addr} after {after:?}"
        );
        assert_eq!(disk.stats().reads, reads + 1);
    }
}

/// Twin stacks over one disk: `a` is read with `read_with_sha1`, `b` with
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
    for s in [&mut a, &mut b] {
        s.write_tagged(BlockAddr(0), &Block::filled(fill), TAG)
            .unwrap();
    }
    model[0] = fill;
    for _ in 0..2 {
        for (addr, &fill) in model.iter().enumerate() {
            let addr = BlockAddr(addr as u64);
            let got = a.read_with_sha1(addr, TAG).unwrap();
            let want = b.read_tagged(addr, TAG).map(with_sha1).unwrap();
            assert_eq!(got, want, "{what}: block {addr}");
            assert_eq!(got, filled(fill), "{what}: block {addr}");
        }
    }
    assert_eq!(seen(&a), seen(&b), "{what}");
}

/// Every stack the campaigns and the serve path build, twice over `disk`.
fn through_every_stack(disk: &MemDisk, model: &[u8]) {
    twins(
        "CrashRecorder",
        (
            CrashRecorder::new(disk.snapshot()),
            CrashRecorder::new(disk.snapshot()),
        ),
        model,
        |s| (s.inner().stats(), s.log().len()),
    );
    twins(
        "TraceLayer",
        (
            TraceLayer::new(disk.snapshot()),
            TraceLayer::new(disk.snapshot()),
        ),
        model,
        |s| {
            let events = s.trace().events();
            (
                s.inner().stats(),
                events.iter().map(ToString::to_string).collect::<Vec<_>>(),
            )
        },
    );
    let retry = || {
        let d = disk.snapshot();
        let config = RetryConfig::new(
            PolicyHandle::new(FailurePolicyTable::propagate_all()),
            d.clock(),
        );
        RetryLayer::new(d, config)
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
fn read_with_sha1_is_read_tagged_then_sha1() {
    digests_match_the_bytes("read_with_sha1_is_read_tagged_then_sha1", 100);
}

#[test]
#[ignore = "stress lane; run with --ignored (IRON_STRESS=1 ./ci.sh)"]
fn read_with_sha1_is_read_tagged_then_sha1_stress() {
    digests_match_the_bytes("read_with_sha1_is_read_tagged_then_sha1_stress", 20_000);
}

/// The three cases the memo could get wrong, named: the shared zero page,
/// a child's write under a parent that has hashed the page, and an
/// in-place store into an unshared page that has been hashed.
#[test]
fn the_memo_follows_every_store() {
    let zero = filled(0);
    let mut parent = timed(4);
    assert_eq!(parent.read_with_sha1(BlockAddr(1), TAG).unwrap(), zero);
    assert_eq!(parent.read_with_sha1(BlockAddr(2), TAG).unwrap(), zero);

    parent.write(BlockAddr(1), &Block::filled(7)).unwrap();
    assert_eq!(parent.read_with_sha1(BlockAddr(1), TAG).unwrap(), filled(7));
    let mut child = parent.snapshot();
    child.write(BlockAddr(1), &Block::filled(8)).unwrap();
    assert_eq!(child.read_with_sha1(BlockAddr(1), TAG).unwrap(), filled(8));
    assert_eq!(parent.read_with_sha1(BlockAddr(1), TAG).unwrap(), filled(7));

    // The child's page is its own now: these land in place.
    child.write(BlockAddr(1), &Block::filled(9)).unwrap();
    assert_eq!(child.read_with_sha1(BlockAddr(1), TAG).unwrap(), filled(9));
    child.poke(BlockAddr(1), &Block::filled(10));
    assert_eq!(child.read_with_sha1(BlockAddr(1), TAG).unwrap(), filled(10));
    assert_eq!(child.peek(BlockAddr(2)), Block::zeroed());
    assert_eq!(child.read_with_sha1(BlockAddr(2), TAG).unwrap(), zero);
}
