//! Crash recovery and the transactional checksum (§6.1): a crash leaves a
//! committed-but-unflushed transaction in the journal; we then corrupt one
//! journal block. Stock ext3 replays the garbage straight over its own
//! metadata; ixt3's transactional checksum detects the damage and skips
//! the transaction.
//!
//! Run with: `cargo run --example crash_recovery`

use ironfs::blockdev::Recorder;
use ironfs::ext3::{BlockType, DiskLayout};
use ironfs::prelude::*;

/// Build an image whose journal holds one committed, un-checkpointed
/// transaction, then corrupt its first journal-data block.
fn crashed_image(tc: bool) -> MemDisk {
    let params = Ext3Params::small();
    let iron = IronConfig {
        txn_checksum: tc,
        ..IronConfig::off()
    };
    let mut clean = StackBuilder::memdisk(4096).build();
    Ext3Fs::<MemDisk>::mkfs(&mut clean, params).unwrap();
    let dev = Recorder::new(clean.snapshot());
    let log = dev.log();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::with_iron(iron)).unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/important", 0o755).unwrap();
    v.write_file("/important/ledger", b"the only copy").unwrap();
    v.sync().unwrap(); // commit, then checkpoint

    // CRASH just after the commit block: every write up to and including
    // it reached the disk, the checkpoint that followed did not.
    let writes = log.snapshot();
    let commit = BlockType::JournalCommit.tag();
    let last = writes.records.iter().rposition(|r| r.tag == commit);
    let last = last.expect("the sync committed") as u64;
    let mut dev = clean;
    writes.apply(&mut dev, |r| r.seq <= last);

    // Disk corruption strikes the journal while the machine is down.
    let layout = DiskLayout::compute(params);
    for a in layout.journal_start..layout.journal_start + layout.journal_len {
        let b = dev.peek(BlockAddr(a));
        if !b.is_zeroed() && ironfs::ext3::journal::classify_log_block(&b).is_none() {
            // First journal-data block: overwrite with garbage.
            dev.poke(BlockAddr(a), &Block::filled(0xDB));
            break;
        }
    }
    dev
}

fn main() {
    println!("A crash + journal corruption, replayed two ways:\n");

    // Stock ext3: no journal-data checking — garbage is replayed.
    {
        let env = FsEnv::new();
        let fs = Ext3Fs::mount(crashed_image(false), env.clone(), Ext3Options::default())
            .expect("mount");
        let mut v = Vfs::new(fs);
        println!("ext3 (no Tc):");
        let dir = v.stat("/important").map(|a| a.ftype);
        println!("  stat /important        -> {dir:?}");
        println!(
            "  stat /important/ledger -> {:?}",
            v.stat("/important/ledger").map(|a| a.size)
        );
        println!("  (some metadata block now contains 0xDB garbage — corruption was replayed)\n");
        assert!(dir.is_ok(), "stock ext3 replays the damaged transaction");
    }

    // ixt3 with Tc: the transaction checksum catches it.
    {
        let env = FsEnv::new();
        let opts = Ext3Options::with_iron(IronConfig {
            txn_checksum: true,
            ..IronConfig::off()
        });
        let fs = Ext3Fs::mount(crashed_image(true), env.clone(), opts).expect("mount");
        let mut v = Vfs::new(fs);
        println!("ixt3 (Tc on):");
        let mismatch = env.klog.contains("transactional checksum mismatch");
        println!("  transactional checksum mismatch logged: {mismatch}");
        let dir = v.stat("/important").map(|a| a.ftype);
        println!(
            "  stat /important        -> {dir:?}  (transaction skipped: the dir never existed)"
        );
        println!("  the damaged transaction was rejected; the file system stays consistent");
        println!("  (and Tc also makes commits ~20% faster on sync-heavy workloads — Table 6)");
        assert!(mismatch, "Tc detects the damaged transaction");
        assert_eq!(dir.unwrap_err().errno(), Some(Errno::ENOENT));
    }
}
