//! Crash faults and media faults composed: a data block that fails to
//! read after recovery must never come back as wrong bytes.
//!
//! For every crash image of every standard workload, recover the image
//! (mount, walk, clean unmount), then for each address the workload wrote
//! as file data, mount the recovered medium again with a sticky read
//! error on that one address and walk the tree. The walk may fail, or it
//! may give back the recovered tree — ixt3 reconstructs the block from
//! parity and verifies it against its `Dc` entry — but a walk that
//! succeeds with a different tree has handed out wrong bytes silently
//! (`RGuess`, which Figure 3 says ixt3 never does). A replay that loses
//! the committed `Dc` entries fails here, first at `create_sync` image 2,
//! block 635.

use std::collections::BTreeSet;

use iron_blockdev::{IoLog, MemDisk, Recorder, StackBuilder};
use iron_core::exec::WorkerPool;
use iron_core::{BlockAddr, FaultKind};
use iron_crash::{
    apply_all, enumerate_images, materialize, run_workload, standard_workloads, CrashImageSpec,
    EnumOptions,
};
use iron_ext3::BlockType;
use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget};
use iron_fingerprint::{Ext3Adapter, FsUnderTest};
use iron_vfs::{FsEnv, FsTree, Vfs};

/// Recover `image`: the tree recovery walks, and the cleanly unmounted
/// medium (the image plus recovery's own writes).
fn recover(fs: &dyn FsUnderTest, image: MemDisk) -> (FsTree, MemDisk) {
    let pre = image.snapshot();
    let rlog = IoLog::new();
    let mounted = fs
        .mount_crash(Recorder::with_log(image, rlog.clone()), FsEnv::new())
        .expect("recovery mounts");
    let mut v = Vfs::new(mounted);
    let tree = v.tree().expect("recovered tree walks");
    v.umount().expect("recovered image unmounts");
    (tree, apply_all(pre, &rlog.snapshot()))
}

/// The tree a mount of `medium` walks with every read of `addr` failing;
/// `None` when the mount or the walk fails.
fn tree_with_failed_read(fs: &dyn FsUnderTest, medium: &MemDisk, addr: u64) -> Option<FsTree> {
    let plan = FaultPlan::new();
    plan.controller().inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr)),
    ));
    let dev = StackBuilder::new(medium.snapshot())
        .with_faults(plan)
        .write_through()
        .build();
    let mounted = fs.mount(dev, FsEnv::new()).ok()?;
    Vfs::new(mounted).tree().ok()
}

/// Every `(workload, image index, address)` at which `fs` handed out a
/// different tree, without an error, after a failed data read.
fn silent_cases(fs: &dyn FsUnderTest) -> Vec<(String, usize, u64)> {
    let base = fs.golden(false);
    let data = BlockType::Data.tag();
    let mut found = Vec::new();
    for w in standard_workloads() {
        let log = IoLog::new();
        let mounted = fs
            .mount_crash(
                Recorder::with_log(base.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .expect("workload mounts");
        run_workload(&mut Vfs::new(mounted), &w, &log).expect("workload runs");
        let snap = log.snapshot();
        let addrs: BTreeSet<u64> = snap
            .records
            .iter()
            .filter(|r| r.tag == data)
            .map(|r| r.addr.0)
            .collect();
        let images = enumerate_images(&snap, &EnumOptions::default());
        let mut silent: Vec<(usize, u64)> = WorkerPool::new(4).shard(
            &images,
            |acc: &mut Vec<(usize, u64)>, spec: &CrashImageSpec| {
                let (tree, medium) = recover(fs, materialize(&base, &snap, spec));
                for &addr in &addrs {
                    if tree_with_failed_read(fs, &medium, addr).is_some_and(|t| t != tree) {
                        acc.push((spec.index, addr));
                    }
                }
            },
            |a, b| a.extend(b),
        );
        silent.sort_unstable();
        found.extend(silent.into_iter().map(|(i, a)| (w.name.to_string(), i, a)));
    }
    found
}

#[test]
fn ixt3_never_hands_out_wrong_bytes_after_recovery() {
    let silent = silent_cases(&Ext3Adapter::ixt3());
    assert!(
        silent.is_empty(),
        "{} silent (workload, image, block) cases, first {:?}",
        silent.len(),
        &silent[..silent.len().min(8)]
    );
}
