//! Crash-consistency property tests: whatever state a crash leaves the
//! journal in — including a corrupted log — the file system must mount
//! (or refuse cleanly), and the recovered image must pass fsck. With
//! transactional checksums, a corrupted committed transaction must never
//! be replayed.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure prints its case
//! seed and reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::{Block, BlockAddr};
use iron_ext3::journal::classify_log_block;
use iron_ext3::{fsck, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_testkit::gen;
use iron_testkit::prop::{check, Config};
use iron_vfs::{FsEnv, Vfs};

/// Build a crashed image: `n_txns` committed-but-unflushed transactions.
fn crashed_image(n_txns: usize, tc: bool) -> (MemDisk, iron_ext3::DiskLayout) {
    let params = Ext3Params::small();
    let mut dev = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut dev, params).unwrap();
    let iron = IronConfig {
        txn_checksum: tc,
        ..IronConfig::off()
    };
    let opts = Ext3Options {
        iron,
        checkpoint_lag: usize::MAX,
        ..Default::default()
    };
    let fs = Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap();
    let layout = *fs.layout();
    let mut v = Vfs::new(fs);
    for i in 0..n_txns {
        v.mkdir(&format!("/t{i}"), 0o755).unwrap();
        v.write_file(&format!("/t{i}/f"), &vec![i as u8; 2000])
            .unwrap();
        v.sync().unwrap();
    }
    (v.into_fs().into_device(), layout)
}

/// Replay restores the checksum table a committed transaction carried:
/// a data block the transaction wrote keeps its `Dc` entry after
/// recovery. A zero entry reads as "no checksum recorded", which would
/// let a wrong parity reconstruction of the block pass.
#[test]
fn replay_keeps_the_committed_data_checksums() {
    let iron = IronConfig {
        meta_checksum: true,
        data_checksum: true,
        fix_bugs: true,
        ..IronConfig::off()
    };
    let mut dev = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut dev, Ext3Params::small()).unwrap();
    let opts = Ext3Options {
        checkpoint_lag: usize::MAX, // the transaction stays in the log
        ..Ext3Options::with_iron(iron)
    };
    let mut v = Vfs::new(Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap());
    v.write_file("/f", &[0x5A; 3 * 4096]).unwrap();
    v.sync().unwrap();
    let ino = v.resolve("/f").unwrap();
    let blocks = v.fs_mut().blocks_of(ino).unwrap();
    assert_eq!(blocks.len(), 3);
    let entries: Vec<u64> = blocks.iter().map(|&b| v.fs().checksum_entry(b)).collect();
    assert!(entries.iter().all(|&e| e != 0), "{entries:?}");

    // Crash: drop the mount with the transaction committed but not
    // checkpointed, then recover.
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::with_iron(iron)).unwrap();
    assert!(env.klog.contains("1 transaction(s) replayed"));
    let after: Vec<u64> = blocks.iter().map(|&b| fs.checksum_entry(b)).collect();
    assert_eq!(after, entries, "replay kept the data blocks' Dc entries");
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/f").unwrap(), vec![0x5A; 3 * 4096]);
}

/// Corrupt an arbitrary byte of an arbitrary journal block, then recover.
/// The mount may succeed or refuse — but it must never leave a
/// structurally inconsistent image behind, and with `Tc`, never replay a
/// damaged transaction.
fn corrupted_journal_case(txns: usize, tc: bool, victim_off: usize, bits: u8) {
    let (mut dev, layout) = crashed_image(txns, tc);
    // Pick the first non-empty journal block to corrupt.
    let mut target = None;
    for a in layout.journal_start..layout.journal_start + layout.journal_len {
        if !dev.peek(BlockAddr(a)).is_zeroed() {
            target = Some(a);
            break;
        }
    }
    let target = target.expect("journal has content");
    let mut b = dev.peek(BlockAddr(target));
    b[victim_off] ^= bits;
    dev.poke(BlockAddr(target), &b);

    let iron = IronConfig {
        txn_checksum: tc,
        ..IronConfig::off()
    };
    let env = FsEnv::new();
    match Ext3Fs::mount(dev, env.clone(), Ext3Options::with_iron(iron)) {
        Ok(fs) => {
            let l = *fs.layout();
            let dev = fs.into_device();
            if tc {
                // With Tc the replayed subset must be fully consistent.
                let report = fsck::check(&dev, &l);
                assert!(
                    report.is_clean(),
                    "tc image must be consistent: {:?}",
                    report.issues
                );
            }
            // Without Tc the paper's point is precisely that replaying
            // garbage *can* corrupt the image — no cleanliness claim.
        }
        Err(_) => {
            // A refused mount is a legitimate (safe) outcome.
        }
    }
}

#[test]
fn recovery_with_corrupted_journal_is_safe() {
    let inputs = (
        gen::usize_in(1..4),
        gen::bool_any(),
        gen::usize_in(0..4096),
        gen::u8_in(1..255),
    );
    check(
        "recovery_with_corrupted_journal_is_safe",
        Config::cases(32),
        &inputs,
        |&(txns, tc, victim_off, bits)| corrupted_journal_case(txns, tc, victim_off, bits),
    );
}

/// Regression re-encoded from the retired
/// `crash_consistency.proptest-regressions` file (proptest shrank it to
/// `txns = 2, tc = true, victim_off = 8, bits = 2`): a two-bit flip early
/// in the first journal block, with transactional checksums on, must
/// still recover to a structurally consistent image.
#[test]
fn regression_corrupted_journal_txns2_tc_off8_bits2() {
    corrupted_journal_case(2, true, 8, 2);
}

/// An uncorrupted crash must always recover to a clean image where every
/// committed transaction is visible — with or without Tc.
#[test]
fn recovery_without_corruption_restores_everything() {
    let inputs = (gen::usize_in(1..4), gen::bool_any());
    check(
        "recovery_without_corruption_restores_everything",
        Config::cases(32),
        &inputs,
        |&(txns, tc)| {
            let (dev, layout) = crashed_image(txns, tc);
            let iron = IronConfig {
                txn_checksum: tc,
                ..IronConfig::off()
            };
            let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::with_iron(iron)).unwrap();
            let mut v = Vfs::new(fs);
            for i in 0..txns {
                assert_eq!(
                    v.read_file(&format!("/t{i}/f")).unwrap(),
                    vec![i as u8; 2000],
                    "transaction {i} must be recovered"
                );
            }
            let fs = v.into_fs();
            let dev = fs.into_device();
            let report = fsck::check(&dev, &layout);
            assert!(report.is_clean(), "{:?}", report.issues);
        },
    );
}

/// Deterministic companion: corrupting a *journal-data* block (never the
/// control blocks) flips the outcome exactly as the paper says — ext3
/// replays it, Tc rejects it.
#[test]
fn tc_rejects_exactly_the_damaged_transaction() {
    for tc in [false, true] {
        let (mut dev, layout) = crashed_image(2, tc);
        // Corrupt the LAST journal data block (skip control blocks): both
        // transactions journal many of the same metadata blocks, so an
        // early corrupted copy would be healed by the later transaction's
        // replay — the last copy is the one that sticks.
        let mut corrupted = None;
        for a in layout.journal_start..layout.journal_start + layout.journal_len {
            let b = dev.peek(BlockAddr(a));
            if !b.is_zeroed() && classify_log_block(&b).is_none() {
                corrupted = Some(a);
            }
        }
        let victim = corrupted.expect("journal data present");
        dev.poke(BlockAddr(victim), &Block::filled(0xAD));
        let iron = IronConfig {
            txn_checksum: tc,
            ..IronConfig::off()
        };
        let env = FsEnv::new();
        let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::with_iron(iron)).unwrap();
        if tc {
            assert!(
                env.klog.contains("transactional checksum mismatch"),
                "Tc must flag the damaged transaction"
            );
            // Recovery stopped before the damaged (last) transaction; the
            // replayed prefix is structurally sound.
            let l = *fs.layout();
            let dev = fs.into_device();
            assert!(fsck::check(&dev, &l).is_clean());
        } else {
            // Stock ext3 replayed garbage: the 0xAD block landed somewhere.
            let l = *fs.layout();
            let dev = fs.into_device();
            let poisoned = (0..l.fs_blocks).any(|a| {
                dev.peek(BlockAddr(a)) == Block::filled(0xAD) && a < l.journal_start
                    || dev.peek(BlockAddr(a)) == Block::filled(0xAD) && a >= l.groups_start
            });
            assert!(poisoned, "stock replay must have written the garbage home");
        }
    }
}
