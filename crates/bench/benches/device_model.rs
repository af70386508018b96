//! Micro-benchmarks of the simulated block device: raw throughput of the
//! model itself (host-side cost, not simulated time).

use iron_testkit::{black_box, BenchGroup};

use iron_blockdev::{BlockDevice, MemDisk};
use iron_core::{Block, BlockAddr};

fn main() {
    let mut g = BenchGroup::from_env("device_model");

    g.bench("sequential_write_1k_blocks", || {
        let mut d = MemDisk::for_tests(2048);
        let block = Block::filled(0xAA);
        for i in 0..1024u64 {
            d.write(BlockAddr(i), &block).unwrap();
        }
        black_box(d.stats())
    });

    {
        let mut d = MemDisk::for_tests(4096);
        let block = Block::filled(0x55);
        for i in 0..4096u64 {
            d.write(BlockAddr(i), &block).unwrap();
        }
        g.bench("random_read_1k_blocks", || {
            let mut acc = 0u64;
            for i in 0..1024u64 {
                let addr = (i * 2654435761) % 4096;
                acc ^= d.read(BlockAddr(addr)).unwrap()[0] as u64;
            }
            black_box(acc)
        });
    }

    {
        // One campaign trial's device cost, 1000 times over: snapshot a
        // 16 MiB golden (a refcount bump per page), write one block of the
        // snapshot (the copy-on-write fault installs a fresh page), drop it
        // (a refcount drop per page). A lone snapshot is tens of µs — too
        // short for a single smoke iteration to gate.
        let mut golden = MemDisk::for_tests(4096);
        let block = Block::filled(0x33);
        for i in 0..4096u64 {
            golden.write(BlockAddr(i), &block).unwrap();
        }
        g.bench("snapshot_write_drop_x1000", || {
            let mut writes = 0u64;
            for i in 0..1000u64 {
                let mut trial = golden.snapshot();
                trial.write(BlockAddr(i * 4), &block).unwrap();
                writes += trial.stats().writes;
            }
            black_box(writes)
        });
    }

    g.finish();
}
