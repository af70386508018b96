//! Differential tier: a fault-free `ReplicatedDisk(n)` must be
//! *bit-identical* to a bare `MemDisk` for every FS model's standard
//! round-trip (mount → workload → unmount → image compare), at n = 1, 2,
//! 3, under every read policy, and with the write-back cache stacked
//! above the replicated volume. Replication must be invisible to a
//! healthy stack — same bytes on every replica, zero divergences.

use iron_blockdev::{BlockDevice, BufferCache, CachePolicy, MemDisk, RawAccess, StackBuilder};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::BlockAddr;
use iron_vfs::{FsEnv, SpecificFs, Vfs, VfsError};

const DISK_BLOCKS: u64 = 4096;

const POLICIES: [ReadPolicy; 3] = [
    ReadPolicy::Primary,
    ReadPolicy::RoundRobin,
    ReadPolicy::Quorum,
];

/// The standard round-trip workload, identical for every run.
fn workload<F: SpecificFs>(v: &mut Vfs<F>) -> Result<(), VfsError> {
    v.mkdir("/dir1", 0o755)?;
    v.mkdir("/dir1/sub", 0o755)?;
    v.write_file("/dir1/small", b"replicated volumes are invisible")?;
    let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    v.write_file("/big", &big)?;
    v.sync()?;
    v.write_file("/dir1/sub/nested", &big[..5_000])?;
    // Overwrite in place, then read everything back.
    v.write_file("/dir1/small", b"overwritten contents")?;
    assert_eq!(v.read_file("/dir1/small")?, b"overwritten contents");
    assert_eq!(v.read_file("/big")?, big);
    v.unlink("/dir1/sub/nested")?;
    v.sync()?;
    Ok(())
}

/// Raw medium bytes of any device (same oracle as `memdisk_image`, but
/// generic over the device type).
fn image<D: RawAccess + BlockDevice>(d: &D) -> Vec<u8> {
    let mut out = Vec::new();
    for a in 0..d.num_blocks() {
        out.extend_from_slice(&*d.peek(BlockAddr(a)));
    }
    out
}

/// One FS model plugged into the differential driver: how to format a
/// golden image and how to run the round-trip over an arbitrary device,
/// handing the device back afterwards.
trait Model {
    fn name(&self) -> &'static str;
    fn golden(&self) -> MemDisk;
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D;
}

fn check_model<M: Model>(m: &M) {
    let golden = m.golden();
    let bare = m.round_trip(golden.snapshot());
    let bare_img = image(&bare);

    for n in [1usize, 2, 3] {
        for policy in POLICIES {
            let rep = m.round_trip(ReplicatedDisk::from_golden(&golden, n, policy));
            let s = rep.stats().snapshot();
            assert_eq!(
                s.divergences,
                0,
                "{} n={n} {policy:?}: healthy volume must never diverge",
                m.name()
            );
            for i in 0..n {
                assert_eq!(
                    image(rep.replica(i)),
                    bare_img,
                    "{} n={n} {policy:?}: replica {i} differs from bare MemDisk",
                    m.name()
                );
            }
        }

        // Write-back cache stacked above the replicated volume.
        let dev: BufferCache<ReplicatedDisk<MemDisk>> =
            StackBuilder::new(ReplicatedDisk::from_golden(&golden, n, ReadPolicy::Quorum))
                .with_cache(CachePolicy::write_back(64))
                .build();
        let cache = m.round_trip(dev);
        assert_eq!(
            cache.dirty_blocks(),
            0,
            "{} n={n}: unmount must drain the cache",
            m.name()
        );
        let rep = cache.into_inner();
        for i in 0..n {
            assert_eq!(
                image(rep.replica(i)),
                bare_img,
                "{} n={n} cached: replica {i} differs from bare MemDisk",
                m.name()
            );
        }
    }
}

// ======================================================================
// The five FS models
// ======================================================================

struct Ext3Model;
impl Model for Ext3Model {
    fn name(&self) -> &'static str {
        "ext3"
    }
    fn golden(&self) -> MemDisk {
        let mut md = MemDisk::for_tests(DISK_BLOCKS);
        iron_ext3::Ext3Fs::<MemDisk>::mkfs(&mut md, iron_ext3::Ext3Params::small()).unwrap();
        md
    }
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D {
        let fs =
            iron_ext3::Ext3Fs::mount(dev, FsEnv::new(), iron_ext3::Ext3Options::default()).unwrap();
        let mut v = Vfs::new(fs);
        workload(&mut v).unwrap();
        v.umount().unwrap();
        v.into_fs().into_device()
    }
}

struct Ixt3Model;
impl Model for Ixt3Model {
    fn name(&self) -> &'static str {
        "ixt3"
    }
    fn golden(&self) -> MemDisk {
        let mut md = MemDisk::for_tests(DISK_BLOCKS);
        let params = iron_ext3::Ext3Params {
            mirror_metadata: true,
            ..iron_ext3::Ext3Params::small()
        };
        iron_ext3::Ext3Fs::mkfs(&mut md, params).unwrap();
        md
    }
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D {
        let opts = iron_ext3::Ext3Options::with_iron(iron_ext3::IronConfig::full());
        let fs = iron_ext3::Ext3Fs::mount(dev, FsEnv::new(), opts).unwrap();
        let mut v = Vfs::new(fs);
        workload(&mut v).unwrap();
        v.umount().unwrap();
        v.into_fs().into_device()
    }
}

struct ReiserModel;
impl Model for ReiserModel {
    fn name(&self) -> &'static str {
        "ReiserFS"
    }
    fn golden(&self) -> MemDisk {
        let mut md = MemDisk::for_tests(DISK_BLOCKS);
        iron_reiser::ReiserFs::<MemDisk>::mkfs(&mut md, iron_reiser::ReiserParams::small())
            .unwrap();
        md
    }
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D {
        let fs =
            iron_reiser::ReiserFs::mount(dev, FsEnv::new(), iron_reiser::ReiserOptions::default())
                .unwrap();
        let mut v = Vfs::new(fs);
        workload(&mut v).unwrap();
        v.umount().unwrap();
        v.into_fs().into_device()
    }
}

struct JfsModel;
impl Model for JfsModel {
    fn name(&self) -> &'static str {
        "JFS"
    }
    fn golden(&self) -> MemDisk {
        let mut md = MemDisk::for_tests(DISK_BLOCKS);
        iron_jfs::JfsFs::<MemDisk>::mkfs(&mut md, iron_jfs::JfsParams::small()).unwrap();
        md
    }
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D {
        let fs =
            iron_jfs::JfsFs::mount(dev, FsEnv::new(), iron_jfs::JfsOptions::default()).unwrap();
        let mut v = Vfs::new(fs);
        workload(&mut v).unwrap();
        v.umount().unwrap();
        v.into_fs().into_device()
    }
}

struct NtfsModel;
impl Model for NtfsModel {
    fn name(&self) -> &'static str {
        "NTFS"
    }
    fn golden(&self) -> MemDisk {
        let mut md = MemDisk::for_tests(DISK_BLOCKS);
        iron_ntfs::NtfsFs::<MemDisk>::mkfs(&mut md, iron_ntfs::NtfsParams::small()).unwrap();
        md
    }
    fn round_trip<D: BlockDevice + RawAccess>(&self, dev: D) -> D {
        let fs = iron_ntfs::NtfsFs::mount(dev, FsEnv::new()).unwrap();
        let mut v = Vfs::new(fs);
        workload(&mut v).unwrap();
        v.umount().unwrap();
        v.into_fs().into_device()
    }
}

#[test]
fn ext3_replicated_equals_bare() {
    check_model(&Ext3Model);
}

#[test]
fn ixt3_replicated_equals_bare() {
    check_model(&Ixt3Model);
}

#[test]
fn reiser_replicated_equals_bare() {
    check_model(&ReiserModel);
}

#[test]
fn jfs_replicated_equals_bare() {
    check_model(&JfsModel);
}

#[test]
fn ntfs_replicated_equals_bare() {
    check_model(&NtfsModel);
}
