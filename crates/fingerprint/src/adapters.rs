//! Per-file-system adapters for the fingerprinting campaign.
//!
//! The paper notes the one cost of type-aware injection: "the fault
//! injector must be tailored to each file system tested and requires a
//! solid understanding of its on-disk structures" (§4.2). These adapters
//! are those tailorings: each knows how to format and populate a golden
//! image, which block-type rows the file system has, and how to mount it
//! over a fault-armed device.

use iron_blockdev::{BlockDevice, BufferCache, MemDisk, RawAccess, Recorder, RetryLayer};
use iron_core::BlockTag;
use iron_faultinject::FaultyDisk;
use iron_vfs::{FsEnv, SpecificFs, Vfs, VfsError, VfsResult};

use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_jfs::{JfsBlockType, JfsFs, JfsOptions, JfsParams};
use iron_ntfs::{NtfsBlockType, NtfsFs, NtfsOptions, NtfsParams};
use iron_reiser::{ReiserBlockType, ReiserFs, ReiserOptions, ReiserParams};

use crate::workloads::build_fixture;

/// The device stack every campaign instance mounts over: a golden-image
/// snapshot, the fault-injection layer, and the buffer cache in
/// [`iron_blockdev::CachePolicy::WriteThrough`] mode — transparent, so
/// type-aware fault targeting and the recorded traces stay byte-exact
/// while the mounted stack matches Figure 1 layer for layer.
pub type CampaignDevice = BufferCache<FaultyDisk<MemDisk>>;

/// The policy-equipped campaign stack used by the fault-transience axis:
/// the fault layer is clock-attached (so `Slow`/`Hang` faults charge
/// simulated service time) and a [`RetryLayer`] sits between it and the
/// cache, enacting device-level retry/deadline policy exactly where the
/// SCSI mid-layer would.
pub type RetryDevice = BufferCache<RetryLayer<FaultyDisk<MemDisk>>>;

/// The device stack crash-state enumeration records through: the file
/// system writes directly onto the medium with every write, barrier, and
/// flush captured by the recorder — in-epoch reordering then models the
/// drive's volatile write cache.
pub type CrashDevice = Recorder<MemDisk>;

/// A file system packaged for fingerprinting.
///
/// Adapters are shared by reference across the campaign's worker threads
/// (every cell builds its own device stack and mounted instance from the
/// adapter), so implementations must be [`Sync`]; the stock adapters are
/// all stateless or hold immutable configuration.
pub trait FsUnderTest: Sync {
    /// Display name ("ext3", "ReiserFS", "JFS", "NTFS", "ixt3").
    fn name(&self) -> &'static str;

    /// The block-type rows of this file system's policy matrix.
    fn rows(&self) -> Vec<BlockTag>;

    /// Build a golden image: format, populate the fixture, unmount
    /// cleanly. With `dirty_journal`, additionally leave a committed but
    /// un-checkpointed transaction in the log (for the *FS recovery*
    /// column).
    fn golden(&self, dirty_journal: bool) -> MemDisk;

    /// Mount over a (possibly fault-armed) device.
    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>>;

    /// Mount over a crash-recording device (the `iron-crash` stack).
    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>>;

    /// Mount over the policy-equipped retry stack (the fault-transience
    /// axis of the campaign).
    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>>;

    /// Offline structural check of an unmounted medium, for file systems
    /// that have an fsck: `None` when no checker exists, otherwise the
    /// (possibly empty) rendered issue list.
    fn fsck_issues(&self, dev: &MemDisk) -> Option<Vec<String>> {
        let _ = dev;
        None
    }
}

// ======================================================================
// ext3 / ixt3
// ======================================================================

/// Adapter for ext3 — and, with [`IronConfig::full`], for ixt3 (Figure 3).
pub struct Ext3Adapter {
    /// The IRON configuration to mount with.
    pub iron: IronConfig,
    /// Re-introduce the seed journaling bugs fixed in PR 1 (see
    /// [`Ext3Options::legacy_journal_bugs`]). Test-only: lets the
    /// crash-state enumerator regression-prove it would have caught them.
    pub legacy_journal_bugs: bool,
    /// Mount with the pipelined commit profile: group commit plus lagged
    /// checkpointing, with a commit threshold low enough that the modest
    /// crash workloads close several transactions between syncs — so the
    /// batched descriptor/commit path is what the enumerator actually
    /// exercises.
    pub pipelined: bool,
}

impl Ext3Adapter {
    /// Stock ext3.
    pub fn stock() -> Self {
        Ext3Adapter {
            iron: IronConfig::off(),
            legacy_journal_bugs: false,
            pipelined: false,
        }
    }

    /// Full ixt3.
    pub fn ixt3() -> Self {
        Ext3Adapter {
            iron: IronConfig::full(),
            ..Ext3Adapter::stock()
        }
    }

    /// Same configuration with the PR-1 seed journaling bugs re-enabled.
    pub fn with_legacy_journal_bugs(mut self) -> Self {
        self.legacy_journal_bugs = true;
        self
    }

    /// Same configuration mounted with the pipelined commit profile.
    pub fn pipelined(mut self) -> Self {
        self.pipelined = true;
        self
    }

    fn options(&self) -> Ext3Options {
        let mut opts = Ext3Options {
            legacy_journal_bugs: self.legacy_journal_bugs,
            ..Ext3Options::with_iron(self.iron)
        };
        if self.pipelined {
            opts.commit_threshold = 6;
            opts.group_commit = 4;
            opts.checkpoint_lag = 48;
        }
        opts
    }

    /// Mount over any device stack, keeping the concrete type (the cluster
    /// axis takes the device back after the run; a crash test stacks a
    /// lying drive on the recorder).
    pub fn mount_on<D: BlockDevice + RawAccess>(&self, dev: D, env: FsEnv) -> VfsResult<Ext3Fs<D>> {
        Ext3Fs::mount(dev, env, self.options())
    }
}

impl FsUnderTest for Ext3Adapter {
    fn name(&self) -> &'static str {
        let iron_on = self.iron.any_iron() || self.iron.fix_bugs;
        if self.pipelined {
            return if iron_on {
                "ixt3-pipelined"
            } else {
                "ext3-pipelined"
            };
        }
        match (iron_on, self.legacy_journal_bugs) {
            (true, false) => "ixt3",
            (true, true) => "ixt3-legacy",
            (false, false) => "ext3",
            (false, true) => "ext3-legacy",
        }
    }

    fn rows(&self) -> Vec<BlockTag> {
        iron_ext3::BlockType::FIGURE2_ROWS
            .iter()
            .map(|t| t.tag())
            .collect()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        let dev = MemDisk::for_tests(4096);
        let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), self.options())
            .expect("mkfs and mount on healthy disk");
        let mut v = Vfs::new(fs);
        build_fixture(&mut v).expect("fixture on healthy disk");
        v.umount().expect("umount");
        let dev = v.into_fs().into_device();
        if !dirty_journal {
            return dev;
        }
        // Remount in crash mode and leave committed-but-unflushed work.
        let opts = Ext3Options {
            crash_mode: true,
            ..self.options()
        };
        let fs = Ext3Fs::mount(dev, FsEnv::new(), opts).expect("crash-mode mount");
        let mut v = Vfs::new(fs);
        v.mkdir("/recovered_dir", 0o755).expect("op");
        v.write_file("/recovered_file", b"via journal").expect("op");
        v.sync().expect("commit to journal");
        v.into_fs().into_device() // simulated crash: no unmount
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        Ok(Box::new(self.mount_on(dev, env)?))
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        Ok(Box::new(self.mount_on(dev, env)?))
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        Ok(Box::new(self.mount_on(dev, env)?))
    }

    fn fsck_issues(&self, dev: &MemDisk) -> Option<Vec<String>> {
        // The layout is whatever block 0 says, so it is held to mount's
        // bounds before `check` indexes the image by it.
        let layout = iron_ext3::Superblock::decode(&dev.peek(iron_core::BlockAddr(0)))
            .and_then(|sb| iron_ext3::DiskLayout::checked_on(sb.params(), dev.num_blocks()));
        let issues = match layout {
            Some(layout) => iron_ext3::fsck::check(dev, &layout).issues,
            None => vec![iron_ext3::fsck::FsckIssue::BadSuperblock],
        };
        Some(issues.iter().map(|i| format!("{i:?}")).collect())
    }
}

// ======================================================================
// ReiserFS
// ======================================================================

/// Adapter for ReiserFS.
pub struct ReiserAdapter;

fn mount_reiser<D: BlockDevice + RawAccess + 'static>(
    dev: D,
    env: FsEnv,
) -> VfsResult<Box<dyn SpecificFs>> {
    let fs = ReiserFs::mount(dev, env, ReiserOptions::default())?;
    Ok(Box::new(fs))
}

impl FsUnderTest for ReiserAdapter {
    fn name(&self) -> &'static str {
        "ReiserFS"
    }

    fn rows(&self) -> Vec<BlockTag> {
        ReiserBlockType::FIGURE2_ROWS
            .iter()
            .map(|t| t.tag())
            .collect()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        let mut dev = MemDisk::for_tests(4096);
        ReiserFs::<MemDisk>::mkfs(&mut dev, ReiserParams::small()).expect("mkfs");
        let fs =
            ReiserFs::mount(dev, FsEnv::new(), ReiserOptions::default()).expect("mount healthy");
        let mut v = Vfs::new(fs);
        build_fixture(&mut v).expect("fixture");
        // Grow the tree past a single leaf so leaf/internal/root rows are
        // distinct targets.
        for i in 0..150 {
            v.write_file(
                &format!("/pad/f{i:03}"),
                &crate::workloads::pattern(200, i as u8),
            )
            .or_else(|_| -> Result<(), VfsError> {
                v.mkdir("/pad", 0o755)?;
                v.write_file(
                    &format!("/pad/f{i:03}"),
                    &crate::workloads::pattern(200, i as u8),
                )
            })
            .expect("pad files");
        }
        v.umount().expect("umount");
        let dev = v.into_fs().into_device();
        if !dirty_journal {
            return dev;
        }
        let opts = ReiserOptions {
            crash_mode: true,
            ..Default::default()
        };
        let fs = ReiserFs::mount(dev, FsEnv::new(), opts).expect("crash-mode mount");
        let mut v = Vfs::new(fs);
        v.mkdir("/recovered_dir", 0o755).expect("op");
        v.sync().expect("commit");
        v.into_fs().into_device() // simulated crash: no unmount
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_reiser(dev, env)
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_reiser(dev, env)
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_reiser(dev, env)
    }
}

// ======================================================================
// JFS
// ======================================================================

/// Adapter for JFS.
pub struct JfsAdapter;

fn mount_jfs<D: BlockDevice + RawAccess + 'static>(
    dev: D,
    env: FsEnv,
) -> VfsResult<Box<dyn SpecificFs>> {
    Ok(Box::new(JfsFs::mount(dev, env, JfsOptions::default())?))
}

impl FsUnderTest for JfsAdapter {
    fn name(&self) -> &'static str {
        "JFS"
    }

    fn rows(&self) -> Vec<BlockTag> {
        JfsBlockType::FIGURE2_ROWS.iter().map(|t| t.tag()).collect()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        let mut dev = MemDisk::for_tests(4096);
        JfsFs::<MemDisk>::mkfs(&mut dev, JfsParams::small()).expect("mkfs");
        let fs = JfsFs::mount(dev, FsEnv::new(), JfsOptions::default()).expect("mount healthy");
        let mut v = Vfs::new(fs);
        build_fixture(&mut v).expect("fixture");
        v.umount().expect("umount");
        let dev = v.into_fs().into_device();
        if !dirty_journal {
            return dev;
        }
        let opts = JfsOptions {
            crash_mode: true,
            ..Default::default()
        };
        let fs = JfsFs::mount(dev, FsEnv::new(), opts).expect("crash-mode mount");
        let mut v = Vfs::new(fs);
        v.mkdir("/recovered_dir", 0o755).expect("op");
        v.sync().expect("commit");
        v.into_fs().into_device() // simulated crash: no unmount
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_jfs(dev, env)
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_jfs(dev, env)
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_jfs(dev, env)
    }
}

// ======================================================================
// NTFS
// ======================================================================

/// Adapter for NTFS. The paper's NTFS analysis is explicitly partial
/// ("we do not yet have a complete analysis as in Figure 2"); likewise,
/// the NTFS model has no journal recovery, so the *FS recovery* column is
/// inapplicable and renders gray.
pub struct NtfsAdapter;

fn mount_ntfs<D: BlockDevice + RawAccess + 'static>(
    dev: D,
    env: FsEnv,
) -> VfsResult<Box<dyn SpecificFs>> {
    Ok(Box::new(NtfsFs::mount(dev, env, NtfsOptions::default())?))
}

impl FsUnderTest for NtfsAdapter {
    fn name(&self) -> &'static str {
        "NTFS"
    }

    fn rows(&self) -> Vec<BlockTag> {
        NtfsBlockType::TABLE4_ROWS.iter().map(|t| t.tag()).collect()
    }

    fn golden(&self, _dirty_journal: bool) -> MemDisk {
        let mut dev = MemDisk::for_tests(4096);
        NtfsFs::<MemDisk>::mkfs(&mut dev, NtfsParams::small()).expect("mkfs");
        let fs = NtfsFs::mount(dev, FsEnv::new(), NtfsOptions::default()).expect("mount healthy");
        let mut v = Vfs::new(fs);
        build_fixture(&mut v).expect("fixture");
        v.umount().expect("umount");
        v.into_fs().into_device()
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_ntfs(dev, env)
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_ntfs(dev, env)
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        mount_ntfs(dev, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::StackBuilder;

    fn check_adapter(a: &dyn FsUnderTest) {
        // The golden image mounts cleanly and the fixture is present.
        let golden = a.golden(false);
        let dev = StackBuilder::new(golden.snapshot())
            .layer(FaultyDisk::new)
            .write_through()
            .build();
        let env = FsEnv::new();
        let fs = a.mount(dev, env).expect("golden mounts");
        let mut v = Vfs::new(fs);
        assert!(v.stat("/dir1/file_small").is_ok(), "{} fixture", a.name());
        assert!(v.stat("/file_big").unwrap().size > 100_000);
        assert!(!a.rows().is_empty());
    }

    #[test]
    fn all_adapters_produce_valid_goldens() {
        check_adapter(&Ext3Adapter::stock());
        check_adapter(&Ext3Adapter::ixt3());
        check_adapter(&ReiserAdapter);
        check_adapter(&JfsAdapter);
        check_adapter(&NtfsAdapter);
    }

    /// Found by reading (ROADMAP item 4): the fsck-clean oracle took its
    /// layout from `DiskLayout::compute` — an `expect` — on whatever block
    /// 0 said, and `check` then read past the image when the superblock
    /// claimed more blocks than the device has.
    #[test]
    fn fsck_of_garbage_superblock_geometry_is_an_issue_not_a_panic() {
        const TOTAL: usize = 8;
        const BLOCKS_PER_GROUP: usize = 16;
        const INODES_PER_GROUP: usize = 24;
        const JOURNAL: usize = 32;
        let cases: [(usize, u64); 10] = [
            (BLOCKS_PER_GROUP, 0),
            (BLOCKS_PER_GROUP, 40_000),
            (BLOCKS_PER_GROUP, 1 << 40),
            (JOURNAL, 0),
            (JOURNAL, 17),
            (JOURNAL, 1 << 40),
            (TOTAL, 1 << 40),
            (INODES_PER_GROUP, 0),
            (INODES_PER_GROUP, 1 << 20),
            (TOTAL, 8192), // on a 4096-block image
        ];
        for adapter in [Ext3Adapter::stock(), Ext3Adapter::ixt3()] {
            let golden = adapter.golden(false);
            assert_eq!(adapter.fsck_issues(&golden), Some(Vec::new()));
            for (off, value) in cases {
                let mut dev = golden.snapshot();
                let mut sb = dev.peek(iron_core::BlockAddr(0));
                sb.put_u64(off, value);
                dev.poke(iron_core::BlockAddr(0), &sb);
                assert_eq!(
                    adapter.fsck_issues(&dev),
                    Some(vec!["BadSuperblock".to_string()]),
                    "{}: offset {off} = {value}",
                    adapter.name()
                );
            }
        }
    }

    #[test]
    fn dirty_journal_goldens_recover_on_mount() {
        for a in [
            &Ext3Adapter::stock() as &dyn FsUnderTest,
            &ReiserAdapter,
            &JfsAdapter,
        ] {
            let golden = a.golden(true);
            let dev = StackBuilder::new(golden.snapshot())
                .layer(FaultyDisk::new)
                .write_through()
                .build();
            let env = FsEnv::new();
            let fs = a.mount(dev, env.clone()).expect("recovery mount");
            let mut v = Vfs::new(fs);
            assert!(
                v.stat("/recovered_dir").is_ok(),
                "{}: journaled dir survives crash",
                a.name()
            );
        }
    }
}
