//! Quickstart: format, mount, and use an IRON file system — then watch it
//! shrug off a disk fault that would silently corrupt stock ext3.
//!
//! Run with: `cargo run --example quickstart`

use ironfs::prelude::*;

fn main() {
    // 1. A 16 MiB simulated disk with the fault-injection layer above
    //    it, formatted and mounted as the full ixt3: metadata+data
    //    checksums, metadata replication, per-file parity, transactional
    //    checksums.
    let plan = FaultPlan::new();
    let faults = plan.controller();
    let env = FsEnv::new();
    let dev = StackBuilder::memdisk(4096).with_faults(plan).build();
    let opts = Ext3Options::with_iron(IronConfig::full());
    let fs = Ext3Fs::format_and_mount(dev, env.clone(), Ext3Params::small(), opts).expect("mount");
    let mut v = Vfs::new(fs);

    // 2. Ordinary POSIX-style use.
    v.mkdir("/photos", 0o755).unwrap();
    let album: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
    v.write_file("/photos/vacation.raw", &album).unwrap();
    v.sync().unwrap();
    println!("wrote {} bytes to /photos/vacation.raw", album.len());

    // 3. Disaster: a latent sector error takes out an inode-table block.
    faults.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    println!("injected: sticky read failure on the next inode-table access");

    // 4. ixt3 recovers from its distant replica — the application never
    //    notices. (Stock ext3 would return EIO and remount read-only.)
    let back = v.read_file("/photos/vacation.raw").expect("ixt3 recovers");
    assert_eq!(back, album);
    println!(
        "read back {} bytes intact — RRedundancy in action",
        back.len()
    );

    for line in env.klog.entries() {
        println!("  klog: {line}");
    }
}
