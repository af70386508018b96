//! Fault-injection campaign: typed blocks are silently corrupted through
//! `iron-faultinject` (the corruption is read back through the faulty
//! device and written home, modeling a firmware bug or misdirected write
//! that lands garbage on the medium), then check → repair → check must
//! detect, repair and come back clean, with the repair's klog line
//! telling the story.

mod common;

use common::{build_image, check_and_repair};
use iron_blockdev::{BlockDevice, RawAccess};
use iron_core::model::CorruptionStyle;
use iron_core::{BlockAddr, FaultKind, KernelLog};
use iron_ext3::fsck::{check, Ext3Image};
use iron_ext3::{DiskLayout, IronConfig};
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};
use iron_fsck::RepairPlan;

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

/// Bitmap corruption is fully repairable: every issue the scan finds maps
/// to an `RRepair` fix, and the post-repair image is completely clean.
#[test]
fn bitmap_corruption_detect_repair_clean() {
    for style in [
        CorruptionStyle::RandomNoise,
        CorruptionStyle::Zeroed,
        CorruptionStyle::BitFlip { offset: 40, len: 8 },
    ] {
        let (dev, layout) = build_image(10, 5_000, IronConfig::off());
        let mut fdev = FaultyDisk::new(dev);
        land_corruption(&mut fdev, &layout, layout.data_bitmap(0).0, style);
        land_corruption(&mut fdev, &layout, layout.inode_bitmap(0).0, style);

        let klog = KernelLog::new();
        let mut img = Ext3Image::new(fdev, layout);
        let (before, summary, after) = check_and_repair(&mut img, Some(&klog)).unwrap();
        assert!(
            !before.is_clean(),
            "corruption must be detected ({style:?})"
        );
        assert_eq!(
            summary.applied,
            before.issues.len(),
            "all bitmap damage is fixable"
        );
        assert_eq!(summary.deferred, 0);
        assert!(after.is_clean(), "{style:?}: {:?}", after.issues);

        // Observability: the repair's klog line.
        assert!(klog.contains(&format!(
            "repair: applied {} fix(es), deferred 0 issue(s)",
            summary.applied
        )));
    }
}

/// A campaign across the typed metadata surface: for every victim class
/// the check detects the damage without panicking, repairs what the
/// planner marks fixable, and the second check reports exactly the
/// deferred remainder.
#[test]
fn typed_campaign_reaches_deferred_fixpoint() {
    let (_, probe_layout) = build_image(10, 5_000, IronConfig::off());
    let itable_mid = probe_layout.inode_table(0) + probe_layout.itable_blocks / 2;
    let victims: Vec<(&str, u64, CorruptionStyle)> = vec![
        (
            "super",
            0,
            CorruptionStyle::Field {
                offset: 8,
                value: 999,
            },
        ), // total_blocks
        (
            "data_bitmap",
            probe_layout.data_bitmap(0).0,
            CorruptionStyle::RandomNoise,
        ),
        (
            "inode_bitmap",
            probe_layout.inode_bitmap(0).0,
            CorruptionStyle::Zeroed,
        ),
        ("inode_table", itable_mid, CorruptionStyle::RandomNoise),
    ];
    for (name, addr, style) in victims {
        let (dev, layout) = build_image(10, 5_000, IronConfig::off());
        let mut fdev = FaultyDisk::new(dev);
        land_corruption(&mut fdev, &layout, addr, style);

        let mut img = Ext3Image::new(fdev, layout);
        let (before, summary, after) = check_and_repair(&mut img, None)
            .unwrap_or_else(|e| panic!("{name}: repair failed: {e}"));
        assert!(!before.is_clean(), "{name}: damage must be detected");
        let plan = RepairPlan::new(&before.issues);
        assert_eq!(summary.applied, plan.fixable(), "{name}");
        assert!(
            after.same_issues(&plan.deferred_issues()),
            "{name}: after != deferred:\n  after: {:?}",
            after.issues
        );
    }
}

/// The corruption fabrication is deterministic, so an identical campaign
/// after a full repair must find — and fix — the identical issue set:
/// the inverse-fix bookkeeping restores the exact pre-damage state.
#[test]
fn repeated_campaign_is_deterministic() {
    let (dev, layout) = build_image(8, 5_000, IronConfig::off());
    let mut fdev = FaultyDisk::new(dev);
    land_corruption(
        &mut fdev,
        &layout,
        layout.data_bitmap(0).0,
        CorruptionStyle::BitFlip { offset: 33, len: 2 },
    );
    let mut img = Ext3Image::new(fdev, layout);
    let first = check(img.device(), &layout);
    assert!(!first.is_clean());
    let (_, s1, after) = check_and_repair(&mut img, None).unwrap();
    assert!(s1.applied > 0);
    assert!(after.is_clean());
    // Same damage again: deterministic fabrication corrupts identically,
    // so the second campaign repairs the identical issue set.
    land_corruption(
        img.device_mut(),
        &layout,
        layout.data_bitmap(0).0,
        CorruptionStyle::BitFlip { offset: 33, len: 2 },
    );
    let second = check(img.device(), &layout);
    assert_eq!(second.issues, first.issues);
    let (_, s2, after2) = check_and_repair(&mut img, None).unwrap();
    assert_eq!(s2.applied, s1.applied);
    assert!(after2.is_clean());
}
