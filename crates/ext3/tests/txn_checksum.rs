//! `Tc` is the same number however it is computed: the commit path folds
//! it while writing the log (taking `Mc`'s digests where it has them),
//! replay folds it from the bytes it reads back, and both must equal
//! `txn_checksum` over the log images — and the values pinned below: `Tc`
//! is the SHA-1 of the images' 8-byte SHA-1 prefixes in log order, so the
//! first can be re-derived with any SHA-1 tool. A slip that changes one
//! on-disk byte fails here by name.

use iron_blockdev::{MemDisk, RawAccess};
use iron_core::{Block, BlockAddr};
use iron_ext3::journal::{classify_log_block, txn_checksum, JournalRecord};
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_vfs::{FsEnv, Vfs};

/// A block with no two neighbouring bytes alike.
fn patterned(seed: u8) -> Block {
    let mut b = Block::zeroed();
    for i in 0..b.len() {
        b[i] = (i as u8).wrapping_mul(7).wrapping_add(seed);
    }
    b
}

fn tc_config(mc: bool) -> IronConfig {
    IronConfig {
        meta_checksum: mc,
        txn_checksum: true,
        ..IronConfig::off()
    }
}

/// A fresh small volume whose checkpoint never comes due
/// (`checkpoint_lag: usize::MAX`): every commit stays in the log,
/// un-checkpointed, with the journal marked dirty, until the log fills.
fn crashing_mount(opts: Ext3Options) -> Vfs<Ext3Fs<MemDisk>> {
    let mut dev = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut dev, Ext3Params::small()).unwrap();
    let opts = Ext3Options {
        checkpoint_lag: usize::MAX,
        ..opts
    };
    Vfs::new(Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap())
}

/// One transaction as replay sees it: the log addresses of its images
/// (revokes, descriptors, journal data, in log order) and its commit
/// block's `Tc`.
struct LoggedTxn {
    images: Vec<u64>,
    revokes: usize,
    tc: Option<u64>,
}

/// Parse the log area the way `replay_journal` walks it.
fn read_log(dev: &MemDisk, layout: &DiskLayout) -> Vec<LoggedTxn> {
    let end = layout.journal_start + layout.journal_len;
    let mut txns = Vec::new();
    let (mut images, mut revokes) = (Vec::new(), 0);
    let mut pos = layout.journal_start;
    while pos < end {
        match classify_log_block(&dev.peek(BlockAddr(pos))) {
            Some(JournalRecord::Revoke(_)) => {
                images.push(pos);
                revokes += 1;
                pos += 1;
            }
            Some(JournalRecord::Descriptor(d)) => {
                let n = d.entries.len() as u64;
                images.extend(pos..=pos + n);
                pos += 1 + n;
            }
            Some(JournalRecord::Commit(c)) => {
                txns.push(LoggedTxn {
                    images: std::mem::take(&mut images),
                    revokes: std::mem::take(&mut revokes),
                    tc: c.txn_checksum,
                });
                pos += 1;
            }
            None => break,
        }
    }
    txns
}

fn checksum_of(dev: &MemDisk, images: &[u64]) -> u64 {
    let blocks: Vec<Block> = images.iter().map(|a| dev.peek(BlockAddr(*a))).collect();
    txn_checksum(&blocks.iter().collect::<Vec<_>>())
}

#[test]
fn txn_checksum_of_a_fixed_input_is_pinned() {
    let (a, b, c) = (Block::filled(1), Block::zeroed(), patterned(3));
    assert_eq!(txn_checksum(&[&a, &b, &c]), 0xdcca_a041_4488_f03c);
    // No image: the SHA-1 of nothing.
    assert_eq!(txn_checksum(&[]), 0xda39_a3ee_5e6b_4b0d);
}

#[test]
fn commit_block_tc_of_a_fixed_transaction_is_pinned() {
    let mut v = crashing_mount(Ext3Options::with_iron(tc_config(true)));
    v.mkdir("/a", 0o755).unwrap();
    v.write_file("/a/f", &patterned(9)[..]).unwrap();
    v.sync().unwrap();
    let layout = *v.fs().layout();
    let dev = v.into_fs().into_device();
    let txns = read_log(&dev, &layout);
    let pinned: Vec<(usize, Option<u64>)> = txns.iter().map(|t| (t.images.len(), t.tc)).collect();
    assert_eq!(pinned, vec![(9, Some(0x0368_233e_c772_e523))]);
}

/// After `commit()`, the commit block on the device carries exactly
/// `txn_checksum` over the images replay will read — whether `Mc` lent
/// its digests or not, batched or not, and with a revoke block or not.
#[test]
fn commit_block_tc_equals_txn_checksum_over_the_log_as_replay_reads_it() {
    for mc in [false, true] {
        for group_commit in [1, 3] {
            for with_revoke in [false, true] {
                let case = format!("mc={mc} group_commit={group_commit} revoke={with_revoke}");
                let mut v = crashing_mount(Ext3Options {
                    group_commit,
                    // Every operation below outgrows the threshold, so
                    // with `group_commit > 1` it closes into the batch.
                    commit_threshold: if group_commit > 1 { 3 } else { 64 },
                    ..Ext3Options::with_iron(tc_config(mc))
                });
                v.mkdir("/d", 0o755).unwrap();
                v.write_file("/d/f", &vec![7u8; 9000]).unwrap();
                v.sync().unwrap();
                if with_revoke {
                    v.unlink("/d/f").unwrap();
                }
                v.mkdir("/e", 0o755).unwrap();
                v.write_file("/e/g", &patterned(1)[..]).unwrap();
                v.sync().unwrap();

                let layout = *v.fs().layout();
                let dev = v.into_fs().into_device();
                let txns = read_log(&dev, &layout);
                assert!(txns.len() >= 2, "{case}: {} transactions", txns.len());
                for (i, t) in txns.iter().enumerate() {
                    assert_eq!(
                        t.tc,
                        Some(checksum_of(&dev, &t.images)),
                        "{case}: transaction {i}"
                    );
                }
                let revokes: usize = txns.iter().map(|t| t.revokes).sum();
                assert_eq!(revokes > 0, with_revoke, "{case}: revoke blocks");

                // And replay agrees: every transaction is applied.
                let env = FsEnv::new();
                Ext3Fs::mount(dev, env.clone(), Ext3Options::with_iron(tc_config(mc)))
                    .unwrap_or_else(|e| panic!("{case}: remount: {e:?}"));
                assert!(
                    !env.klog.contains("transactional checksum mismatch"),
                    "{case}"
                );
                assert!(
                    env.klog
                        .contains(&format!("{} transaction(s) replayed", txns.len())),
                    "{case}"
                );
            }
        }
    }
}

/// Replay hashes what came off the disk. Under `Mc` the checksum table
/// still holds the digest of the image that was *meant* to be in the log;
/// a replay that took `Tc`'s input from the table would accept the
/// damaged copy.
#[test]
fn one_flipped_byte_in_a_logged_image_stops_replay_at_that_transaction() {
    for mc in [false, true] {
        let mut v = crashing_mount(Ext3Options::with_iron(tc_config(mc)));
        for i in 0..3 {
            v.mkdir(&format!("/t{i}"), 0o755).unwrap();
            v.write_file(&format!("/t{i}/f"), &vec![i as u8; 2000])
                .unwrap();
            v.sync().unwrap();
        }
        let layout = *v.fs().layout();
        let mut dev = v.into_fs().into_device();
        let txns = read_log(&dev, &layout);
        assert_eq!(txns.len(), 3);

        // The last image of the middle transaction is journal data.
        let victim = BlockAddr(*txns[1].images.last().unwrap());
        let mut b = dev.peek(victim);
        assert!(classify_log_block(&b).is_none(), "victim is a data image");
        b[1234] ^= 0x10;
        dev.poke(victim, &b);

        let env = FsEnv::new();
        let fs = Ext3Fs::mount(dev, env.clone(), Ext3Options::with_iron(tc_config(mc))).unwrap();
        assert!(
            env.klog.contains("transactional checksum mismatch"),
            "mc={mc}"
        );
        assert!(env.klog.contains("1 transaction(s) replayed"), "mc={mc}");
        let mut v = Vfs::new(fs);
        assert_eq!(v.read_file("/t0/f").unwrap(), vec![0u8; 2000], "mc={mc}");
        assert!(
            v.read_file("/t1/f").is_err(),
            "mc={mc}: damaged transaction"
        );
        assert!(v.read_file("/t2/f").is_err(), "mc={mc}: its successor");
    }
}
