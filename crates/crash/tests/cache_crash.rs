//! Crash semantics of the write-back buffer cache (satellite of the
//! crash-enumeration PR): a write-back cache may absorb writes and
//! barriers at will, but `flush` must destage everything before telling
//! the device to flush — so a crash at any flush boundary shows *exactly*
//! the logical state the caller had built up, no more and no less.
//!
//! The test drives a PRNG op mix (writes, barriers, flushes) through
//! `BufferCache` in write-back mode over a `Recorder`, snapshots the
//! logical model at every flush, then materializes the epoch-prefix crash
//! image at each recorded flush mark and demands bit-exact equality over
//! the whole disk.

use std::collections::BTreeMap;

use iron_blockdev::{BlockDevice, BufferCache, IoLog, MemDisk, RawAccess, Recorder};
use iron_core::{Block, BlockAddr};
use iron_crash::{materialize, CrashImageSpec};
use iron_testkit::Rng;

const BLOCKS: u64 = 64;

#[test]
fn write_back_cache_preserves_every_flush_boundary() {
    let base = MemDisk::for_tests(BLOCKS);
    let log = IoLog::new();
    let mut dev = BufferCache::write_back(Recorder::with_log(base.snapshot(), log.clone()));

    // The logical state the caller believes in, and one frozen copy of it
    // per flush.
    let mut model: BTreeMap<u64, Block> = BTreeMap::new();
    let mut flushed_states: Vec<BTreeMap<u64, Block>> = Vec::new();

    let mut rng = Rng::from_seed(0xCACE_C4A5);
    for step in 0..400u64 {
        if rng.chance(1, 12) {
            dev.barrier().expect("barrier");
        } else if rng.chance(1, 18) {
            dev.flush().expect("flush");
            flushed_states.push(model.clone());
        } else {
            let addr = rng.below(BLOCKS);
            let b = Block::filled((step % 251) as u8 + 1);
            dev.write(BlockAddr(addr), &b).expect("write");
            model.insert(addr, b);
        }
    }
    dev.flush().expect("final flush");
    flushed_states.push(model.clone());

    let stats = dev.stats();
    assert!(
        stats.writes_absorbed > 0 && stats.barriers_absorbed > 0,
        "the cache must actually run in write-back mode for this test to \
         mean anything: {stats:?}"
    );

    let snap = log.snapshot();
    assert_eq!(
        snap.flush_marks.len(),
        flushed_states.len(),
        "every cache flush must reach the device as a flush"
    );

    for (i, expected) in flushed_states.iter().enumerate() {
        let cut = snap.flush_marks[i];
        let img = materialize(&base, &snap, &CrashImageSpec::prefix(cut));
        for addr in 0..BLOCKS {
            let want = expected.get(&addr).cloned().unwrap_or_else(Block::zeroed);
            assert_eq!(
                img.peek(BlockAddr(addr)),
                want,
                "flush {i} (cut epoch {cut}): block {addr} must hold exactly \
                 the pre-flush logical state"
            );
        }
    }
}

/// Barriers seal epochs: an epoch-prefix crash image can never contain a
/// later epoch's write without every earlier epoch in full. The recorder
/// guarantees the epoch numbering; this checks the write-back cache's
/// destage preserves it (destage emits an inner barrier between absorbed
/// epochs rather than flattening them into one).
#[test]
fn destage_keeps_absorbed_epochs_ordered() {
    let base = MemDisk::for_tests(8);
    let log = IoLog::new();
    let mut dev = BufferCache::write_back(Recorder::with_log(base.snapshot(), log.clone()));

    // Three absorbed epochs touching the same block, then one flush.
    for (epoch, val) in [1u8, 2, 3].iter().enumerate() {
        dev.write(BlockAddr(2), &Block::filled(*val))
            .expect("write");
        dev.write(BlockAddr(epoch as u64 + 4), &Block::filled(*val))
            .expect("write");
        dev.barrier().expect("barrier");
    }
    dev.flush().expect("flush");

    let snap = log.snapshot();
    assert!(
        snap.epoch_count() >= 3,
        "three barriered generations must arrive as distinct epochs, got {}",
        snap.epoch_count()
    );
    // Write-back supersession means block 2's intermediate values never
    // reach the wire — but the generation markers must still destage as
    // *ordered* epochs: at any epoch-prefix cut the visible markers form
    // a prefix of [1, 2, 3], and block 2 (final value only, riding the
    // last generation's epoch) appears only once every marker has.
    for cut in 0..=snap.epoch_count() {
        let img = materialize(&base, &snap, &CrashImageSpec::prefix(cut));
        let markers: Vec<u8> = (0..3).map(|e| img.peek(BlockAddr(e + 4))[0]).collect();
        let visible = markers.iter().take_while(|&&m| m != 0).count();
        assert!(
            markers.iter().skip(visible).all(|&m| m == 0),
            "cut {cut}: markers {markers:?} must form a generation prefix — \
             destage flattened the absorbed epoch order"
        );
        assert_eq!(
            markers[..visible].to_vec(),
            (1..=visible as u8).collect::<Vec<_>>(),
            "cut {cut}: visible markers carry their generation values"
        );
        let b2 = img.peek(BlockAddr(2))[0];
        assert!(
            b2 == 0 || (b2 == 3 && visible == 3),
            "cut {cut}: block 2 holds {b2} with {visible} generations visible \
             — a superseded write leaked out of epoch order"
        );
    }
}
