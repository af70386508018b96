//! Copy-on-write isolation of the [`MemDisk`] medium.
//!
//! A snapshot shares its pages with the disk it was taken from, so the
//! property that matters is that the sharing never shows: under any
//! interleaving of writes, pokes, snapshots and drops over a family of
//! disks, every live disk reads block for block like a private deep copy.
//! The reference model is exactly that deep copy — one fill byte per
//! block per disk, cloned whole at every snapshot. The spine shares on two
//! levels (chunks of pages), so the disk sizes and addresses are drawn
//! around the chunk size.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure reruns with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::memdisk::DiskStats;
use iron_blockdev::{BlockDevice, DiskGeometry, MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, SimClock};
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};

/// `memdisk.rs`'s private `CHUNK_PAGES` (a unit test there holds the two
/// equal): the spine shares whole chunks of this many pages.
const F: u64 = 64;
/// One block; one short of a chunk, exactly one, one over; two chunks and a
/// partial third; and the campaign's golden.
const SIZES: [u64; 6] = [1, F - 1, F, F + 1, 2 * F + 3, 4096];
/// Snapshots beyond this many live disks are skipped, bounding the
/// per-step comparison.
const MAX_LIVE: usize = 6;

/// Where the two levels meet on a disk of `n` blocks: the first and last
/// block, both sides of the first two chunk boundaries, and both sides of
/// the start of the last (possibly partial) chunk.
fn edges(n: u64) -> Vec<u64> {
    let last_chunk = (n - 1) / F * F;
    let mut e = vec![0, F - 1, F, 2 * F - 1, 2 * F, last_chunk, n - 1];
    e.extend(last_chunk.checked_sub(1));
    e.retain(|&a| a < n);
    e.sort_unstable();
    e.dedup();
    e
}

/// Three draws in four land on one of `edges(n)`, the fourth anywhere on
/// the disk.
fn addr_of(n: u64, edges: &[u64], draw: u64) -> u64 {
    match draw % 4 {
        0 => (draw / 4) % n,
        _ => edges[(draw / 4) as usize % edges.len()],
    }
}

/// A disk and its reference: the fill byte of every block (every write
/// here is a `Block::filled`), deep-copied at every snapshot.
type Modelled = (MemDisk, Vec<u8>);

/// `disk` selects among the live disks, modulo how many there are — so
/// the same op stream writes to parents, children and grandchildren alike.
/// `addr` is a draw for [`addr_of`].
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
            3,
            gen::usize_in(0..MAX_LIVE)
                .map(|disk| Op::Snapshot { disk })
                .boxed(),
        ),
        (
            2,
            gen::usize_in(0..MAX_LIVE)
                .map(|disk| Op::Drop { disk })
                .boxed(),
        ),
    ])
}

fn assert_matches<'a>(
    live: impl IntoIterator<Item = &'a Modelled>,
    addrs: &[u64],
    after: &dyn std::fmt::Debug,
) {
    for (i, (disk, model)) in live.into_iter().enumerate() {
        for &a in addrs {
            assert_eq!(
                disk.peek(BlockAddr(a)),
                Block::filled(model[a as usize]),
                "disk {i} block {a} after {after:?}"
            );
        }
    }
}

/// Every live disk reads like its deep copy: at the edges and the written
/// address after every step, everywhere when the stream ends.
fn snapshots_match_deep_copies(name: &str, cases: u32) {
    let inputs = (gen::usize_in(0..SIZES.len()), gen::vec_of(op_gen(), 1..80));
    check(name, Config::cases(cases), &inputs, |(size, ops)| {
        let n = SIZES[*size];
        let edges = edges(n);
        let mut live: Vec<Modelled> = vec![(MemDisk::for_tests(n), vec![0; n as usize])];
        for op in ops {
            let count = live.len();
            let mut watched = edges.clone();
            match *op {
                Op::Write { disk, addr, fill } => {
                    let (d, model) = &mut live[disk % count];
                    let a = addr_of(n, &edges, addr);
                    d.write(BlockAddr(a), &Block::filled(fill)).unwrap();
                    model[a as usize] = fill;
                    watched.push(a);
                }
                Op::Poke { disk, addr, fill } => {
                    let (d, model) = &mut live[disk % count];
                    let a = addr_of(n, &edges, addr);
                    d.poke(BlockAddr(a), &Block::filled(fill));
                    model[a as usize] = fill;
                    watched.push(a);
                }
                Op::Snapshot { disk } if count < MAX_LIVE => {
                    let (d, model) = &live[disk % count];
                    let child = (d.snapshot(), model.clone());
                    live.push(child);
                }
                Op::Drop { disk } if count > 1 => {
                    live.remove(disk % count);
                }
                Op::Snapshot { .. } | Op::Drop { .. } => {}
            }
            assert_matches(&live, &watched, op);
        }
        let all: Vec<u64> = (0..n).collect();
        assert_matches(&live, &all, &"the last op");
        // The timed read path serves the same bytes as `peek`.
        for (d, model) in &mut live {
            for (a, &fill) in model.iter().enumerate() {
                assert_eq!(d.read(BlockAddr(a as u64)).unwrap(), Block::filled(fill));
            }
        }
    });
}

#[test]
fn snapshots_behave_like_deep_copies() {
    snapshots_match_deep_copies("snapshots_behave_like_deep_copies", 300);
}

#[test]
#[ignore = "stress lane; run with --ignored (IRON_STRESS=1 ./ci.sh)"]
fn snapshots_behave_like_deep_copies_stress() {
    snapshots_match_deep_copies("snapshots_behave_like_deep_copies_stress", 10_000);
}

/// Every order in which `items` can be taken.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut all = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            all.push(tail);
        }
    }
    all
}

/// A disk, its snapshot, that one's snapshot and that one's: each
/// generation is snapshotted after it wrote some edges, and parent and
/// child both write again afterwards, so every disk owns some pages, shares
/// some with its neighbours and some with the whole chain.
fn chain(n: u64) -> Vec<Option<Modelled>> {
    let e = edges(n);
    let write = |m: &mut Modelled, every: usize, fill: u8| {
        for &a in e.iter().skip(every % 3).step_by(3) {
            m.0.write(BlockAddr(a), &Block::filled(fill)).unwrap();
            m.1[a as usize] = fill;
        }
    };
    let mut disks: Vec<Modelled> = vec![(MemDisk::for_tests(n), vec![0; n as usize])];
    write(&mut disks[0], 0, 1);
    for g in 1..4usize {
        let (parent, model) = &disks[g - 1];
        let mut child = (parent.snapshot(), model.clone());
        write(&mut disks[g - 1], g, 10 + g as u8);
        write(&mut child, g + 1, 20 + g as u8);
        disks.push(child);
    }
    disks.into_iter().map(Some).collect()
}

#[test]
fn a_chain_of_snapshots_survives_every_drop_order() {
    for n in SIZES {
        // Every block where that is cheap; the golden's size at its edges.
        let checked = if n <= 2 * F + 3 {
            (0..n).collect()
        } else {
            edges(n)
        };
        for order in permutations(&[0, 1, 2, 3]) {
            let mut disks = chain(n);
            assert_matches(disks.iter().flatten(), &checked, &"the chain is built");
            for (step, &victim) in order.iter().enumerate() {
                disks[victim] = None;
                assert_matches(disks.iter().flatten(), &checked, &(&order, step));
                // A page the dropped disk was the last to share is now
                // overwritten in place; one still shared must not be.
                for (i, m) in disks.iter_mut().enumerate() {
                    if let Some((d, model)) = m {
                        let fill = 100 + (10 * step + i) as u8;
                        d.write(BlockAddr(n - 1), &Block::filled(fill)).unwrap();
                        model[n as usize - 1] = fill;
                    }
                }
                assert_matches(disks.iter().flatten(), &checked, &(&order, step, "rewrite"));
            }
        }
    }
}

#[test]
fn snapshot_starts_fresh_and_leaves_the_parent_untouched() {
    let clock = SimClock::new();
    let mut parent = MemDisk::new(1024, DiskGeometry::ata_7200rpm(), clock.clone());
    parent.write(BlockAddr(700), &Block::filled(1)).unwrap();
    parent.read(BlockAddr(3)).unwrap();
    parent.barrier().unwrap();
    let (now, stats) = (clock.now_ns(), parent.stats());
    assert!(now > 0 && stats.reads == 1 && stats.writes == 1);

    let mut child = parent.snapshot();
    assert_eq!(child.clock().now_ns(), 0);
    assert_eq!(child.stats(), DiskStats::default());
    assert_eq!(child.peek(BlockAddr(700)), Block::filled(1));

    // The child's I/O is charged to the child alone.
    child.write(BlockAddr(5), &Block::filled(2)).unwrap();
    child.read(BlockAddr(900)).unwrap();
    assert!(child.clock().now_ns() > 0);
    assert_eq!((child.stats().reads, child.stats().writes), (1, 1));
    assert_eq!(clock.now_ns(), now);
    assert_eq!(parent.stats(), stats);
    assert!(parent.peek(BlockAddr(5)).is_zeroed());
}

#[test]
fn fresh_disk_reads_zero_everywhere_and_stays_zero_around_a_write() {
    let mut d = MemDisk::for_tests(64);
    for a in 0..64 {
        assert!(d.peek(BlockAddr(a)).is_zeroed(), "peek {a}");
        assert!(d.read(BlockAddr(a)).unwrap().is_zeroed(), "read {a}");
    }
    // Every slot starts on one shared zero page: a write must replace the
    // slot's page, never scribble on the page its neighbours still use.
    d.write(BlockAddr(9), &Block::filled(0xEE)).unwrap();
    d.poke(BlockAddr(10), &Block::filled(0xDD));
    assert_eq!(d.peek(BlockAddr(9)), Block::filled(0xEE));
    assert_eq!(d.peek(BlockAddr(10)), Block::filled(0xDD));
    for a in (0..64).filter(|a| !(9..=10).contains(a)) {
        assert!(
            d.peek(BlockAddr(a)).is_zeroed(),
            "block {a} after the write"
        );
    }
    assert!(MemDisk::for_tests(64).peek(BlockAddr(9)).is_zeroed());
}
