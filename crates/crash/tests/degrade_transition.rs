//! Crash-safety of the graceful read-only degradation transition.
//!
//! A sticky metadata write failure exhausts the policy's retry budget and
//! the chain degrades the mount to read-only (journal abort). This test
//! records the whole run — healthy prelude, the degradation itself, the
//! post-degradation read-only tail — and proves that **every** bounded
//! crash image cut across that history recovers to an fsck-clean,
//! walkable file system.

use iron_blockdev::{IoLog, MemDisk, RawAccess, Recorder};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{BlockAddr, BlockTag, Errno, FaultKind, IoKind};
use iron_crash::{apply_all, enumerate_images, materialize, EnumOptions};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, MountState, Vfs};

/// Metadata writes: one re-issue, then degrade to read-only.
fn degrade_policy() -> PolicyHandle {
    PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            None,
            Some(IoKind::Write),
            None,
            vec![
                RecoveryAction::Retry {
                    budget: 1,
                    backoff: Backoff::none(),
                },
                RecoveryAction::DegradeReadOnly,
            ],
        ),
    )
}

fn opts() -> Ext3Options {
    Ext3Options {
        iron: IronConfig::full(),
        policy: degrade_policy(),
        ..Ext3Options::default()
    }
}

#[test]
fn every_crash_image_across_the_degradation_transition_recovers_clean() {
    // Golden base: mkfs only; everything else happens on the record.
    let mut base = MemDisk::for_tests(4096);
    let params = Ext3Params {
        mirror_metadata: true,
        ..Ext3Params::small()
    };
    Ext3Fs::<MemDisk>::mkfs(&mut base, params).unwrap();

    let log = IoLog::new();
    let faulty = FaultyDisk::new(Recorder::with_log(base.snapshot(), log.clone()));
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), opts()).unwrap();
    let mut v = Vfs::new(fs);

    // Healthy prelude: durable files on both sides of a sync.
    v.write_file("/a", b"alpha").unwrap();
    v.write_file("/b", b"beta").unwrap();
    v.sync().unwrap();
    v.write_file("/c", b"gamma").unwrap();

    // Sticky metadata write failure: the retry budget exhausts during
    // checkpoint and the chain degrades the mount to read-only. The
    // fault layer sits ABOVE the recorder, so failed writes never reach
    // the recorded medium — exactly what a real disk would have seen.
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    let _ = v.sync();
    assert_eq!(env.state(), MountState::ReadOnly, "degradation happened");
    // Post-degradation: reads served, writes refused.
    assert_eq!(v.read_file("/a").unwrap(), b"alpha");
    assert_eq!(
        v.write_file("/d", b"x").unwrap_err().errno(),
        Some(Errno::EROFS)
    );
    drop(v); // crash: no unmount

    // Enumerate every bounded crash image across the whole recording —
    // including the cuts that straddle the degradation transition.
    let snap = log.snapshot();
    let images = enumerate_images(&snap, &EnumOptions::default());
    assert!(images.len() > 4, "expected a non-trivial image set");
    for spec in &images {
        let img = materialize(&base, &snap, spec);

        // Recovery: a clean mount replays the journal; record its writes.
        let rlog = IoLog::new();
        {
            let fs = Ext3Fs::mount(
                Recorder::with_log(img.snapshot(), rlog.clone()),
                FsEnv::new(),
                opts(),
            )
            .expect("recovery mount");
            Vfs::new(fs).tree().expect("post-recovery tree walk");
        }

        // Offline check of the post-recovery medium.
        let post = apply_all(img, &rlog.snapshot());
        let sb = iron_ext3::Superblock::decode(&post.peek(BlockAddr(0))).expect("valid superblock");
        let layout = iron_ext3::DiskLayout::compute(sb.params());
        let report = iron_ext3::fsck::check(&post, &layout);
        assert!(
            report.issues.is_empty(),
            "image {} (cut {}, subset {:?}) not fsck-clean: {:?}",
            spec.index,
            spec.cut_epoch,
            spec.subset,
            report.issues
        );
    }
}
