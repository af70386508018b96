//! Fault-injection campaign: typed blocks are silently corrupted through
//! `iron-faultinject` (the corruption is read back through the faulty
//! device and written home, modeling a firmware bug or misdirected write
//! that lands garbage on the medium), and the check must detect the
//! damage.

mod common;

use common::build_image;
use iron_blockdev::{BlockDevice, RawAccess};
use iron_core::model::CorruptionStyle;
use iron_core::{BlockAddr, FaultKind};
use iron_ext3::fsck::check;
use iron_ext3::{DiskLayout, IronConfig};
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};

/// Silently corrupt `addr`: inject the fault, read the block through the
/// faulty device (which fabricates the corrupted contents), and write
/// those contents home so the damage persists on the medium.
fn land_corruption(
    fdev: &mut FaultyDisk<iron_blockdev::MemDisk>,
    layout: &DiskLayout,
    addr: u64,
    style: CorruptionStyle,
) {
    let ctl = fdev.controller();
    let id = ctl.inject(FaultSpec::sticky(
        FaultKind::Corruption(style),
        FaultTarget::Addr(BlockAddr(addr)),
    ));
    let tag = layout.classify_static(addr).tag();
    let bad = fdev
        .read_tagged(BlockAddr(addr), tag)
        .expect("corruption is silent");
    ctl.disarm(id);
    fdev.poke(BlockAddr(addr), &bad);
    assert!(ctl.fired(id), "fault must have fired");
}

/// Damage landed through `FaultyDisk` on each typed metadata block is
/// detected: both bitmaps at once in three styles, and each class alone.
#[test]
fn landed_corruption_is_detected() {
    let (_, probe) = build_image(10, 5_000, IronConfig::off());
    let (dbm, ibm) = (probe.data_bitmap(0).0, probe.inode_bitmap(0).0);
    let itable_mid = probe.inode_table(0) + probe.itable_blocks / 2;
    let total_blocks = CorruptionStyle::Field {
        offset: 8,
        value: 999,
    };
    let cases: Vec<(&str, Vec<u64>, CorruptionStyle)> = vec![
        ("bitmaps", vec![dbm, ibm], CorruptionStyle::RandomNoise),
        ("bitmaps", vec![dbm, ibm], CorruptionStyle::Zeroed),
        (
            "bitmaps",
            vec![dbm, ibm],
            CorruptionStyle::BitFlip { offset: 40, len: 8 },
        ),
        ("super", vec![0], total_blocks),
        ("data_bitmap", vec![dbm], CorruptionStyle::RandomNoise),
        ("inode_bitmap", vec![ibm], CorruptionStyle::Zeroed),
        (
            "inode_table",
            vec![itable_mid],
            CorruptionStyle::RandomNoise,
        ),
    ];
    for (name, addrs, style) in cases {
        let (dev, layout) = build_image(10, 5_000, IronConfig::off());
        let mut fdev = FaultyDisk::new(dev);
        for addr in addrs {
            land_corruption(&mut fdev, &layout, addr, style);
        }
        assert!(
            !check(&fdev, &layout).is_clean(),
            "{name} ({style:?}): damage must be detected"
        );
    }
}
