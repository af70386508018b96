//! Eager detection (§3.2): silent corruption sits on the platter like a
//! land mine until someone reads it — unless a scrubber sweeps the disk
//! first. This example corrupts blocks behind the file system's back and
//! lets the ixt3 scrubber find and repair them before any reader trips.
//!
//! Run with: `cargo run --example disk_scrubbing`

use ironfs::ixt3::scrub::scrub;
use ironfs::prelude::*;

fn main() {
    let env = FsEnv::new();
    let dev = StackBuilder::memdisk(4096).build();
    let opts = Ext3Options::with_iron(IronConfig::full());
    let mut fs =
        Ext3Fs::format_and_mount(dev, env.clone(), Ext3Params::small(), opts).expect("mount");

    // A handful of files the user cares about.
    {
        let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
        for i in 0..8 {
            v.write_file(&format!("/doc{i}.txt"), &vec![0x40 + i as u8; 24_000])
                .unwrap();
        }
        v.sync().unwrap();
    }

    // Bit rot strikes: three blocks silently decay on the medium.
    let victims = [
        fs.layout().inode_table(0),    // an inode-table block
        fs.layout().data_start(0) + 5, // two data blocks
        fs.layout().data_start(0) + 11,
    ];
    for v in victims {
        fs.device_mut().poke(BlockAddr(v), &Block::filled(0xEB));
    }
    println!("silently corrupted blocks {victims:?} on the medium\n");

    // Eager detection: one scrub pass.
    let report = scrub(&mut fs);
    println!(
        "scrub: scanned {} blocks, found {} corruptions, repaired {} in place, {} unrecoverable",
        report.scanned, report.corruptions, report.repaired, report.unrecoverable
    );

    // Everything reads back clean — no reader ever saw the damage.
    let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
    for i in 0..8 {
        let data = v.read_file(&format!("/doc{i}.txt")).unwrap();
        assert_eq!(data, vec![0x40 + i as u8; 24_000]);
    }
    println!("all files verified intact after scrub");
    println!("\n(compare `cargo run --release --bin scrubbing_ablation` for the");
    println!(" detection-latency numbers behind lazy vs. eager detection)");
}
