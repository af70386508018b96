//! The one way to format and mount: build the device with
//! [`StackBuilder`], hand it to `Ext3Fs::format_and_mount` with the mount
//! options — stock ext3, any ixt3 configuration and the pipelined commit
//! profile are all that one call.

use ironfs::prelude::*;

fn format_and_mount(opts: Ext3Options) -> Ext3Fs<MemDisk> {
    let dev = StackBuilder::memdisk(4096).build();
    Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).expect("mount")
}

#[test]
fn chained_mount_builds_formats_and_mounts() {
    let dev = StackBuilder::memdisk(4096)
        .with_cache(CachePolicy::write_back(64))
        .build();
    let opts = Ext3Options::default();
    let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).expect("mount");
    let mut v = Vfs::new(fs);
    v.write_file("/f", b"one call").unwrap();
    assert_eq!(v.read_file("/f").unwrap(), b"one call");
}

#[test]
fn ixt3_variants_reserve_the_mirror_iff_replicating() {
    let fs = format_and_mount(Ext3Options::with_iron(IronConfig::full()));
    assert!(fs.layout().params.mirror_metadata);
    assert!(fs.layout().replica_log_len > 0);

    let fs = format_and_mount(Ext3Options::with_iron(IronConfig::off()));
    assert!(!fs.layout().params.mirror_metadata);
    assert_eq!(fs.layout().replica_log_len, 0);
    assert_eq!(fs.layout().fs_blocks, 4096, "no upper half held back");
}

#[test]
fn pipelined_mount_defers_checkpoints() {
    let mut fs = format_and_mount(Ext3Options {
        group_commit: 8,
        checkpoint_lag: 192,
        ..Ext3Options::with_iron(IronConfig::full())
    });
    {
        let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
        v.write_file("/f", &[7u8; 9000]).unwrap();
        v.sync().unwrap();
    }
    let js = fs.device().peek(BlockAddr(fs.layout().journal_super));
    let js = ironfs::ext3::journal::JournalSuper::decode(&js).expect("journal superblock");
    assert!(
        js.dirty,
        "lagged checkpointing must leave the commit awaiting write-back"
    );
}
