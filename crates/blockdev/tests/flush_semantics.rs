//! Flush-vs-barrier audit regression tests.
//!
//! The crash model needs the two primitives kept distinct through every
//! layer: a *barrier* only orders writes, a *flush* durably seals them.
//! The audit outcome (see ROADMAP.md): `BlockDevice::flush` no longer has
//! a default body forwarding to `barrier` — a layer that implements
//! `barrier` but forgets `flush` would silently downgrade durability for
//! the whole stack above it, so every implementation is now forced to
//! state its flush semantics explicitly, and `MemDisk` counts the two
//! separately so stacks can assert end-to-end forwarding.

use iron_blockdev::{BlockDevice, CachePolicy, IoLog, MemDisk, RawAccess, Recorder, StackBuilder};
use iron_core::{Block, BlockAddr};

/// A flush issued at the top of the full write-back stack must arrive at
/// the medium *as a flush* — not as a barrier — and a barrier must not
/// masquerade as a flush.
#[test]
fn flush_reaches_the_medium_as_a_flush_through_the_full_stack() {
    let mut dev = StackBuilder::memdisk(64)
        .with_recorder(IoLog::new())
        .with_cache(CachePolicy::write_back(8))
        .build();

    dev.write(BlockAddr(1), &Block::filled(1)).unwrap();
    dev.barrier().unwrap();
    dev.write(BlockAddr(2), &Block::filled(2)).unwrap();

    // Barriers are absorbed into epoch seals: nothing below moves yet.
    let bottom = dev.inner().inner().stats();
    assert_eq!(bottom.flushes, 0, "no flush issued yet");
    assert_eq!(bottom.writes, 0, "writes still absorbed");

    dev.flush().unwrap();
    let bottom = dev.inner().inner().stats();
    assert_eq!(bottom.flushes, 1, "the flush arrived at the bottom");
    assert_eq!(
        bottom.barriers, 1,
        "one destage barrier between the two epochs — not the flush"
    );
    assert_eq!(bottom.writes, 2, "both epochs destaged");
    assert_eq!(dev.inner().inner().peek(BlockAddr(2)), Block::filled(2));
}

/// A bare barrier never counts as a flush anywhere in the stack.
#[test]
fn barrier_is_not_promoted_to_flush() {
    let mut disk = MemDisk::for_tests(16);
    disk.write(BlockAddr(0), &Block::filled(1)).unwrap();
    disk.barrier().unwrap();
    let s = disk.stats();
    assert_eq!(s.barriers, 1);
    assert_eq!(s.flushes, 0);
    disk.flush().unwrap();
    let s = disk.stats();
    assert_eq!(s.barriers, 1, "flush does not inflate the barrier count");
    assert_eq!(s.flushes, 1);
}

/// The recorder keeps the distinction: barriers seal epochs (an
/// ordering fact), only flushes append durability marks.
#[test]
fn recorder_separates_epoch_seals_from_flush_marks() {
    let mut dev = Recorder::new(MemDisk::for_tests(16));
    let log = dev.log();
    dev.write(BlockAddr(1), &Block::filled(1)).unwrap();
    dev.barrier().unwrap();
    dev.write(BlockAddr(2), &Block::filled(2)).unwrap();
    dev.barrier().unwrap();
    let s = log.snapshot();
    assert_eq!(s.epoch_count(), 2);
    assert!(
        s.flush_marks.is_empty(),
        "barriers alone promise no durability"
    );

    dev.write(BlockAddr(3), &Block::filled(3)).unwrap();
    dev.flush().unwrap();
    let s = log.snapshot();
    assert_eq!(s.flush_marks, vec![3], "flush seals epochs 0..3 durable");
    assert_eq!(dev.inner().stats().flushes, 1, "flush forwarded below");
}
