//! Spatial locality of failures (§2.3.2 / §3.3): "replicas must account
//! for the spatial locality of failure (e.g., a surface scratch that
//! corrupts a sequence of neighboring blocks); hence, copies should be
//! allocated across remote parts of the disk."
//!
//! These tests drag a simulated scratch across the primary metadata and
//! check that ixt3's distant mirror still recovers, while a hypothetical
//! *adjacent* replica (modeled by scratching both locations) would not.

use iron_blockdev::MemDisk;
use iron_core::model::Locality;
use iron_core::{BlockAddr, Errno, FaultKind, Transience};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, Vfs};

type Fs = Ext3Fs<FaultyDisk<MemDisk>>;

fn mount_full() -> (Vfs<Fs>, iron_faultinject::FaultController, FsEnv) {
    let faulty = FaultyDisk::new(MemDisk::for_tests(4096));
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::format_and_mount(
        faulty,
        env.clone(),
        Ext3Params::small(),
        Ext3Options::with_iron(IronConfig::full()),
    )
    .unwrap();
    (Vfs::new(fs), ctl, env)
}

fn scratch(ctl: &iron_faultinject::FaultController, start: u64, len: u64) {
    ctl.inject(FaultSpec {
        kind: FaultKind::ReadError,
        transience: Transience::Sticky,
        target: FaultTarget::Addr(BlockAddr(start)),
        locality: Locality::Contiguous { len },
    });
}

#[test]
fn scratch_across_metadata_region_recovered_from_distant_mirror() {
    let (mut v, ctl, env) = mount_full();
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/f", b"survives the scratch").unwrap();
    v.sync().unwrap();
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env2 = FsEnv::new();
    let fs = Ext3Fs::mount(
        dev,
        env2.clone(),
        Ext3Options::with_iron(IronConfig::full()),
    )
    .unwrap();
    let mut v = Vfs::new(fs);

    // A scratch across group 0's entire metadata head — both bitmaps and
    // the whole inode table. Every primary copy of the metadata needed to
    // reach /d/f is unreadable. (Data blocks are protected by per-file
    // parity, which lives *near* the data — a scratch across data + parity
    // genuinely loses data, as the control test below demonstrates for
    // adjacent copies.)
    let layout = *v.fs().layout();
    let g0 = layout.group_base(0);
    let metadata_head = 2 + layout.itable_blocks;
    scratch(&ctl, g0, metadata_head);

    assert_eq!(
        v.read_file("/d/f").unwrap(),
        b"survives the scratch",
        "distant replicas sit outside the scratch"
    );
    assert!(env2.klog.contains("recovered from replica"));
    drop(env);
}

#[test]
fn scratch_covering_both_copies_defeats_replication() {
    // Control experiment: if the scratch also reaches the mirror location
    // (as it would for an *adjacent* replica placement, the anti-pattern
    // §3.3 warns about), recovery fails.
    let (mut v, ctl, _env) = mount_full();
    v.write_file("/f", b"x").unwrap();
    v.sync().unwrap();
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env2 = FsEnv::new();
    let fs = Ext3Fs::mount(
        dev,
        env2.clone(),
        Ext3Options::with_iron(IronConfig::full()),
    )
    .unwrap();
    let mut v = Vfs::new(fs);

    let layout = *v.fs().layout();
    let itable = layout.inode_table(0);
    scratch(&ctl, itable, 4);
    scratch(&ctl, layout.replica_of(itable).0, 4); // "adjacent" placement
    let err = v.stat("/f").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert!(env2.klog.contains("replica read failed"));
}

#[test]
fn transient_scratch_heals_on_retry_everywhere() {
    // A transient whole-neighborhood glitch (e.g. a transport brown-out,
    // §2.3.1) clears; the data path's retry plus redundancy hide it.
    let (mut v, ctl, _env) = mount_full();
    v.write_file("/f", &vec![0x31; 20_000]).unwrap();
    v.sync().unwrap();
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let env2 = FsEnv::new();
    let fs = Ext3Fs::mount(
        dev,
        env2.clone(),
        Ext3Options::with_iron(IronConfig::full()),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    let g0 = v.fs().layout().group_base(0);
    ctl.inject(FaultSpec {
        kind: FaultKind::ReadError,
        transience: Transience::Transient(3),
        target: FaultTarget::Addr(BlockAddr(g0)),
        locality: Locality::Contiguous { len: 64 },
    });
    assert_eq!(v.read_file("/f").unwrap(), vec![0x31; 20_000]);
}

// ----------------------------------------------------------------------
// The full Figure 1 stack: ixt3 (all IRON features) over the write-back
// buffer cache AND the fault layer — recovery still works when reads are
// served through a cache.
// ----------------------------------------------------------------------

#[test]
fn cached_stack_recovers_from_replica() {
    use iron_blockdev::{CachePolicy, StackBuilder};
    use iron_core::BlockTag;
    use iron_faultinject::FaultStackExt;

    let plan = iron_faultinject::FaultPlan::new();
    let ctl = plan.controller();
    let dev = StackBuilder::memdisk(4096)
        .with_faults(plan)
        .with_cache(CachePolicy::write_back(32))
        .build();
    let env = FsEnv::new();
    let fs = Ext3Fs::format_and_mount(
        dev,
        env.clone(),
        Ext3Params::small(),
        Ext3Options::with_iron(IronConfig::full()),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    v.write_file("/precious", &vec![7u8; 20_000]).unwrap();
    v.sync().unwrap();

    // Eviction pressure (capacity 32) means the inode block is long gone
    // from the cache; the injected read error fires against the medium and
    // ixt3 falls back to its distant replica.
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    assert_eq!(v.read_file("/precious").unwrap(), vec![7u8; 20_000]);
}
