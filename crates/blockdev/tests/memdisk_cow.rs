//! Copy-on-write isolation of the [`MemDisk`] medium.
//!
//! A snapshot shares its pages with the disk it was taken from, so the
//! property that matters is that the sharing never shows: under any
//! interleaving of writes, pokes, snapshots and drops over a family of
//! disks, every live disk reads block for block like a private deep copy.
//! The reference model is exactly that deep copy — a plain `Vec<Block>`
//! per disk, cloned whole at every snapshot.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure reruns with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::memdisk::DiskStats;
use iron_blockdev::{BlockDevice, DiskGeometry, MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, SimClock};
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};

const DISK_BLOCKS: u64 = 8;
/// Snapshots beyond this many live disks are skipped, bounding the
/// per-step comparison.
const MAX_LIVE: usize = 6;

/// `disk` selects among the live disks, modulo how many there are — so
/// the same op stream writes to parents, children and grandchildren alike.
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
            gen::u64_in(0..DISK_BLOCKS),
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

fn assert_matches(live: &[(MemDisk, Vec<Block>)], after: &Op) {
    for (i, (disk, model)) in live.iter().enumerate() {
        for (a, want) in model.iter().enumerate() {
            assert_eq!(
                &disk.peek(BlockAddr(a as u64)),
                want,
                "disk {i} block {a} after {after:?}"
            );
        }
    }
}

#[test]
fn snapshots_behave_like_deep_copies() {
    check(
        "snapshots_behave_like_deep_copies",
        Config::cases(150),
        &gen::vec_of(op_gen(), 1..80),
        |ops| {
            let zeroed: Vec<Block> = (0..DISK_BLOCKS).map(|_| Block::zeroed()).collect();
            let mut live = vec![(MemDisk::for_tests(DISK_BLOCKS), zeroed)];
            for op in ops {
                let n = live.len();
                match *op {
                    Op::Write { disk, addr, fill } => {
                        let (d, model) = &mut live[disk % n];
                        d.write(BlockAddr(addr), &Block::filled(fill)).unwrap();
                        model[addr as usize] = Block::filled(fill);
                    }
                    Op::Poke { disk, addr, fill } => {
                        let (d, model) = &mut live[disk % n];
                        d.poke(BlockAddr(addr), &Block::filled(fill));
                        model[addr as usize] = Block::filled(fill);
                    }
                    Op::Snapshot { disk } if n < MAX_LIVE => {
                        let (d, model) = &live[disk % n];
                        let child = (d.snapshot(), model.clone());
                        live.push(child);
                    }
                    Op::Drop { disk } if n > 1 => {
                        live.remove(disk % n);
                    }
                    Op::Snapshot { .. } | Op::Drop { .. } => {}
                }
                assert_matches(&live, op);
            }
            // The timed read path serves the same bytes as `peek`.
            for (d, model) in &mut live {
                for (a, want) in model.iter().enumerate() {
                    assert_eq!(&d.read(BlockAddr(a as u64)).unwrap(), want);
                }
            }
        },
    );
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
