//! A drive that lies about barriers: the negative control for the
//! group-commit crash suites.
//!
//! FITO's failure (PAPERS.md): the drive acknowledges a barrier but never
//! forwards it. [`DropsCommitBarrier`] does that to exactly one barrier —
//! the one that orders a journal commit block after its transaction's
//! data — so the data and the commit block share a barrier epoch. The
//! enumerator treats an epoch as a *set* of writes, any subset of which
//! may persist, so some crash images keep the commit block and lose the
//! data it vouches for. A commit path that is safe only because of that
//! barrier must then fail the oracles.

use iron_blockdev::{BlockDevice, DiskResult, MemDisk, RawAccess};
use iron_core::{Block, BlockAddr, BlockTag};
use iron_ext3::BlockType;
use iron_fingerprint::{CampaignDevice, CrashDevice, Ext3Adapter, FsUnderTest, RetryDevice};
use iron_vfs::{FsEnv, SpecificFs, VfsResult};

/// Holds each barrier until the next request and forwards it before that
/// request, unless the request writes a journal commit block: then the
/// barrier is discarded. A barrier held when the file system stops
/// issuing requests is never forwarded; no write follows it, so no crash
/// image depends on it.
pub struct DropsCommitBarrier<D> {
    inner: D,
    held: bool,
}

impl<D: BlockDevice> DropsCommitBarrier<D> {
    pub fn new(inner: D) -> Self {
        DropsCommitBarrier { inner, held: false }
    }

    /// Forward the held barrier, if any.
    fn release(&mut self) -> DiskResult<()> {
        if std::mem::take(&mut self.held) {
            self.inner.barrier()?;
        }
        Ok(())
    }
}

impl<D: BlockDevice> BlockDevice for DropsCommitBarrier<D> {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn read_tagged(&mut self, addr: BlockAddr, tag: BlockTag) -> DiskResult<Block> {
        self.release()?;
        self.inner.read_tagged(addr, tag)
    }

    fn write_tagged(&mut self, addr: BlockAddr, block: &Block, tag: BlockTag) -> DiskResult<()> {
        if tag == BlockType::JournalCommit.tag() {
            self.held = false;
        } else {
            self.release()?;
        }
        self.inner.write_tagged(addr, block, tag)
    }

    fn barrier(&mut self) -> DiskResult<()> {
        self.release()?;
        self.held = true;
        Ok(())
    }

    fn flush(&mut self) -> DiskResult<()> {
        self.release()?;
        self.inner.flush()
    }
}

impl<D: RawAccess> RawAccess for DropsCommitBarrier<D> {
    fn peek(&self, addr: BlockAddr) -> Block {
        self.inner.peek(addr)
    }

    fn poke(&mut self, addr: BlockAddr, block: &Block) {
        self.inner.poke(addr, block)
    }
}

/// The wrapped ext3 adapter in every respect but one: its crash-recording
/// mounts — the workload run and every recovery — sit on a
/// [`DropsCommitBarrier`] above the recorder.
pub struct LyingDrive(pub Ext3Adapter);

impl FsUnderTest for LyingDrive {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn rows(&self) -> Vec<BlockTag> {
        self.0.rows()
    }

    fn golden(&self, dirty_journal: bool) -> MemDisk {
        self.0.golden(dirty_journal)
    }

    fn mount(&self, dev: CampaignDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        self.0.mount(dev, env)
    }

    fn mount_crash(&self, dev: CrashDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        Ok(Box::new(
            self.0.mount_on(DropsCommitBarrier::new(dev), env)?,
        ))
    }

    fn mount_retry(&self, dev: RetryDevice, env: FsEnv) -> VfsResult<Box<dyn SpecificFs>> {
        self.0.mount_retry(dev, env)
    }

    fn fsck_issues(&self, dev: &MemDisk) -> Option<Vec<String>> {
        self.0.fsck_issues(dev)
    }
}
