//! Serving-layer differential on ixt3 (full IRON configuration):
//! checksums, metadata replication, and parity maintenance must all
//! commute with the serving layer — the unmounted image of a concurrent
//! run is bit-identical to its serial replay at every thread count.

use iron_blockdev::MemDisk;
use iron_ext3::{Ext3Options, Ext3Params, IronConfig};
use iron_ixt3::Ixt3Fs;
use iron_serve::{assert_serial_equivalence, generate, memdisk_image, prepare, WorkloadSpec};
use iron_vfs::{FsEnv, Vfs};

fn mount_prepared(spec: &WorkloadSpec) -> Vfs<Ixt3Fs<MemDisk>> {
    let md = MemDisk::for_tests(4096);
    let opts = Ext3Options::with_iron(IronConfig::full());
    let fs = Ixt3Fs::format_and_mount(md, FsEnv::new(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    prepare(&mut v, spec);
    v
}

#[test]
fn ixt3_full_config_serve_matches_serial_replay_bit_identically() {
    let spec = WorkloadSpec::default();
    let sessions = generate(&spec);
    assert_serial_equivalence(
        || mount_prepared(&spec),
        |v| Some(memdisk_image(&v.into_fs().into_device())),
        &sessions,
        &[1, 2, 4, 8],
    );
}
