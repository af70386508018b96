//! Tests of the `Rm` extension: write-failure remapping (`RRemap`,
//! Table 2) — the recovery level the paper describes but no studied
//! system implements.

use iron_blockdev::MemDisk;
use iron_core::{BlockAddr, BlockTag, FaultKind};
use iron_ext3::{fsck, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = Ext3Fs<FaultyDisk<MemDisk>>;

fn mount_rm() -> (Vfs<Fs>, FaultController, FsEnv) {
    let iron = IronConfig {
        fix_bugs: true,
        remap_writes: true,
        ..IronConfig::off()
    };
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), Ext3Options::with_iron(iron)).unwrap();
    (Vfs::new(fs), ctl, env)
}

#[test]
fn failed_data_write_is_remapped_not_aborted() {
    let (mut v, ctl, env) = mount_rm();
    // Fail the first data-block write, sticky on that block.
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::TagNth {
            tag: BlockTag("data"),
            nth: 0,
        },
    ));
    let data: Vec<u8> = (0..20_000u32).map(|i| (i % 233) as u8).collect();
    v.write_file("/f", &data).unwrap();
    v.sync().unwrap();
    assert!(env.klog.contains("remapped to"), "RRemap must be logged");
    assert_eq!(env.state(), MountState::ReadWrite, "no RStop needed");
    // The content is intact — served from the remapped block even after a
    // cold remount.
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let fs = Ext3Fs::mount(
        dev,
        FsEnv::new(),
        Ext3Options::with_iron(IronConfig {
            fix_bugs: true,
            remap_writes: true,
            ..IronConfig::off()
        }),
    )
    .unwrap();
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/f").unwrap(), data);
}

#[test]
fn remapped_image_stays_consistent() {
    let (mut v, ctl, _env) = mount_rm();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::TagNth {
            tag: BlockTag("data"),
            nth: 2,
        },
    ));
    for i in 0..6 {
        v.write_file(&format!("/f{i}"), &vec![i as u8; 12_000])
            .unwrap();
    }
    v.sync().unwrap();
    v.umount().unwrap();
    let fs = v.into_fs();
    let layout = *fs.layout();
    let dev = fs.into_device();
    // The old (unwritable) block was freed; the map and bitmaps agree.
    let report = fsck::check(&dev, &layout);
    assert!(report.is_clean(), "fsck: {:?}", report.issues);
}

#[test]
fn without_rm_the_same_fault_aborts() {
    // Control: same fault, fixed engine without remapping → EIO + RStop.
    let iron = IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    };
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), Ext3Options::with_iron(iron)).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::TagNth {
            tag: BlockTag("data"),
            nth: 0,
        },
    ));
    assert!(v.write_file("/f", &vec![1u8; 8_000]).is_err());
    assert_eq!(env.state(), MountState::ReadOnly);
}

#[test]
fn remap_composes_with_full_ixt3() {
    let iron = IronConfig {
        remap_writes: true,
        ..IronConfig::full()
    };
    assert_eq!(iron.label(), "Mc Mr Dc Dp Tc Rm");
    let faulty = FaultyDisk::new(MemDisk::for_tests(4096));
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let opts = Ext3Options::with_iron(iron);
    let fs = Ext3Fs::format_and_mount(faulty, env.clone(), Ext3Params::small(), opts).unwrap();
    let mut v = Vfs::new(fs);
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::TagNth {
            tag: BlockTag("data"),
            nth: 1,
        },
    ));
    let data: Vec<u8> = (0..30_000u32).map(|i| (i % 199) as u8).collect();
    v.write_file("/f", &data).unwrap();
    v.sync().unwrap();
    assert_eq!(v.read_file("/f").unwrap(), data);
    // Parity still reconstructs after the remap: lose a different block.
    let blocks = v.fs_mut().blocks_of(3).unwrap();
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(blocks[0])),
    ));
    v.umount().unwrap();
    let dev = v.into_fs().into_device();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::with_iron(iron)).unwrap();
    let mut v = Vfs::new(fs);
    assert_eq!(v.read_file("/f").unwrap(), data, "parity + remap compose");
}
