//! Serving-layer differential on NTFS: MFT record and bitmap updates must
//! commute with the serving layer — the unmounted image of a concurrent
//! run is bit-identical to its serial replay at every thread count.

use iron_blockdev::MemDisk;
use iron_ntfs::{NtfsFs, NtfsParams};
use iron_serve::{assert_serial_equivalence, generate, memdisk_image, prepare, WorkloadSpec};
use iron_vfs::{FsEnv, Vfs};

fn mount_prepared(spec: &WorkloadSpec) -> Vfs<NtfsFs<MemDisk>> {
    let mut md = MemDisk::for_tests(4096);
    NtfsFs::<MemDisk>::mkfs(&mut md, NtfsParams::small()).unwrap();
    let fs = NtfsFs::mount(md, FsEnv::new()).unwrap();
    let mut v = Vfs::new(fs);
    prepare(&mut v, spec);
    v
}

#[test]
fn ntfs_serve_matches_serial_replay_bit_identically() {
    let spec = WorkloadSpec::default();
    let sessions = generate(&spec);
    assert_serial_equivalence(
        || mount_prepared(&spec),
        |v| Some(memdisk_image(&v.into_fs().into_device())),
        &sessions,
        &[1, 2, 4, 8],
    );
}
