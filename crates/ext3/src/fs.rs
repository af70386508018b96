//! The ext3/ixt3 engine: mkfs, mount, journaling, and the block-level
//! read/write paths where the failure policy lives.
//!
//! Failure-policy code is deliberately centralized here (the paper blames
//! *failure policy diffusion* for commodity file systems' inconsistencies,
//! §5.6); every `PAPER-BUG` marker reproduces a specific behavior §5.1
//! reports for stock ext3, and `IronConfig::fix_bugs` disables it.
//!
//! A device write whose failure `fix_bugs` reacts to goes through
//! `Ext3Fs::checked_write`, the one place that walks the policy table
//! for a failed write. Four groups of writes react otherwise, each for a
//! reason given where it is issued: the mount and unmount superblock
//! writes (`EIO`, no abort), the journal log and commit blocks (judged by
//! the `Txn<Logged>`/`Txn<Committed>` transitions after the whole batch),
//! replay's home writes and clean journal superblock (recovery semantics),
//! and the `Rm` probe write (its failure triggers the remap).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use iron_blockdev::{retry::classify, BlockDevice, DiskResult, Lru, RawAccess, ScanReadahead};
use iron_core::checksum::{sha1, Sha1Digest};
use iron_core::recover::{
    Backoff, ErrorClass, FailurePolicyTable, PolicyHandle, RecoveryAction, Step,
};
use iron_core::{
    Block, BlockAddr, BlockTag, DetectionLevel, Errno, IoKind, LogLevel, RecoveryLevel, SimClock,
    BLOCK_SIZE,
};
use iron_vfs::{FsEnv, VfsError, VfsResult};

use crate::dir::{self, Listing};
use crate::inode::DiskInode;
use crate::iron::{IronConfig, SHA1_BLOCK_COST_NS, XOR_BLOCK_COST_NS};
use crate::journal::{
    checkpoint_group, classify_log_block, Closed, CommitBlock, Committed, JournalRecord,
    JournalSuper, LogSink, TcFold, Txn,
};
use crate::layout::{BlockType, DiskLayout, Ext3Params, CKSUMS_PER_BLOCK, CKSUM_ENTRY, ROOT_INO};
use crate::superblock::{FsState, Superblock};

/// Mount-time options.
#[derive(Clone, Debug)]
pub struct Ext3Options {
    /// Which IRON mechanisms are active.
    pub iron: IronConfig,
    /// Commit the running transaction once it holds this many blocks.
    pub commit_threshold: usize,
    /// Group commit: batch up to this many closed transactions under one
    /// descriptor chain / commit block / barrier. `1` (the default) commits
    /// each transaction as it reaches the threshold — classic JBD.
    pub group_commit: usize,
    /// Pipelined checkpointing: defer home-location write-back until this
    /// many blocks are awaiting checkpoint, overlapping it with new
    /// transaction building and deduplicating re-dirtied blocks into one
    /// elevator sweep. `0` (the default) checkpoints at every commit.
    pub checkpoint_lag: usize,
    /// Buffer-cache capacity in blocks.
    pub cache_blocks: usize,
    /// Testing knob: re-introduce the two seed journaling bugs fixed in
    /// PR 1 — freed blocks are *not* forgotten/revoked from the running
    /// transaction, and replay applies revoke records globally instead of
    /// sequence-scoped. Exists only so the crash-state enumerator can
    /// regression-prove it would have caught the original bugs. Never set
    /// outside tests.
    pub legacy_journal_bugs: bool,
    /// Clock for charging simulated CPU costs (checksum/XOR); `None`
    /// disables CPU accounting.
    pub cpu_clock: Option<SimClock>,
    /// The failure-policy table driving ext3's recovery reactions.
    /// Defaults to [`ext3_stock_policy`] — the exact escalation chains
    /// §5.1 observes for stock ext3 — and can be swapped at runtime
    /// through any clone of the handle (e.g. to widen a retry budget or
    /// force degradation). Stock PAPER-BUG paths (ignored write errors)
    /// never consult the table: the bug is precisely that no policy runs.
    pub policy: PolicyHandle,
}

/// The failure-policy table reproducing stock ext3's documented behavior
/// (§5.1 of the paper), expressed as escalation chains:
///
/// * **data reads** — one immediate re-read of the originally requested
///   block (`RRetry`), then redundancy (parity, when `Dp` is on), then
///   `EIO` to the caller (`RPropagate`);
/// * **corrupt data reads** (`Dc` checksum mismatch) — no re-read of
///   bytes that arrived "successfully": straight to redundancy, then
///   `EIO`;
/// * **metadata reads** — redundancy (the `Mr` distant replica, when
///   on), else abort the journal and remount read-only (`RStop`);
/// * **writes** (data or metadata, when the error is noticed at all) —
///   graceful read-only degradation rather than propagating garbage.
pub fn ext3_stock_policy() -> FailurePolicyTable {
    use RecoveryAction::{DegradeReadOnly, Propagate, Redundancy, Retry};
    let data = BlockType::Data.tag();
    FailurePolicyTable::with_default(vec![Propagate])
        .rule(
            Some(data),
            Some(IoKind::Read),
            Some(ErrorClass::Corrupt),
            vec![Redundancy, Propagate],
        )
        .rule(
            Some(data),
            Some(IoKind::Read),
            None,
            vec![
                Retry {
                    budget: 1,
                    backoff: Backoff::none(),
                },
                Redundancy,
                Propagate,
            ],
        )
        .rule(
            None,
            Some(IoKind::Read),
            None,
            vec![Redundancy, DegradeReadOnly],
        )
        .rule(None, Some(IoKind::Write), None, vec![DegradeReadOnly])
}

impl Default for Ext3Options {
    fn default() -> Self {
        Ext3Options {
            iron: IronConfig::off(),
            commit_threshold: 64,
            group_commit: 1,
            checkpoint_lag: 0,
            cache_blocks: 2048,
            legacy_journal_bugs: false,
            cpu_clock: None,
            policy: PolicyHandle::new(ext3_stock_policy()),
        }
    }
}

impl Ext3Options {
    /// Options with the given IRON configuration.
    pub fn with_iron(iron: IronConfig) -> Self {
        Ext3Options {
            iron,
            ..Default::default()
        }
    }
}

/// The ext3/ixt3 file system over a block device.
pub struct Ext3Fs<D: BlockDevice + RawAccess> {
    pub(crate) dev: D,
    pub(crate) env: FsEnv,
    pub(crate) opts: Ext3Options,
    pub(crate) layout: DiskLayout,
    pub(crate) sb: Superblock,
    /// Per-group (free_blocks, free_inodes) from the GDT.
    pub(crate) gdt: Vec<(u32, u32)>,
    /// The running transaction, accepting dirty blocks from operations.
    pub(crate) running: Txn,
    /// Group-commit batch: transactions closed at the commit threshold
    /// but not yet logged (merged eagerly; `batched()` counts members).
    closed: Option<Txn<Closed>>,
    /// Committed transactions whose checkpoint is deferred (pipelined
    /// checkpointing). Oldest first; drained by [`Self::drain_checkpoints`].
    pending: Vec<Txn<Committed>>,
    /// Blocks freed by transactions that have not committed yet, as one
    /// overlay bitmap per group that has any (indexed by group; a set bit
    /// is a freed block). JBD's reuse discipline: allocation works against
    /// the *committed* bitmap state — the group's bitmap OR its overlay —
    /// so a block freed in the running transaction (or a closed batch
    /// member) cannot be handed out until the free is durable. An eager
    /// reuse would let an ordered-mode home write clobber contents a
    /// committed mapping still references (found by the iron-crash
    /// enumerator: COW overwrite freed the old block, the next allocation
    /// reused it pre-commit, and a crash left the old file pointing at
    /// foreign bytes). The `legacy_journal_bugs` knob keeps the seed's
    /// eager-reuse behavior.
    pub(crate) uncommitted_frees: Vec<Option<Block>>,
    /// The superblock and GDT images staged in the running transaction
    /// predate the latest counter change (see [`Self::write_counters`]).
    counters_stale: bool,
    /// The page cache above the disk: clean, already-verified copies only
    /// (dirty metadata lives in the running transaction until checkpoint),
    /// least recently used evicted at `opts.cache_blocks`. Hits cost no
    /// disk time and no checksum — why Table 6's read-intensive web
    /// workload shows ~1.00 overhead for every ixt3 variant.
    pub(crate) cache: Lru<Block>,
    /// Next journal sequence number.
    jseq: u64,
    /// Journal log-area write cursor.
    log_head: u64,
    /// Whether the on-disk journal superblock currently says dirty (so a
    /// multi-transaction crash window keeps the first sequence number).
    journal_dirty_on_disk: bool,
    pub(crate) journal_aborted: bool,
    /// In-memory checksum table (truncated SHA-1 per device block; 0 = no
    /// checksum recorded).
    pub(crate) cksums: Vec<u64>,
    /// Checksum-table block indices (relative to `cksum_start`) that are
    /// dirty in memory.
    dirty_cksum_blocks: BTreeSet<u64>,
    /// Dirty per-file parity accumulators (`Dp`): ino → parity block.
    pub(crate) parity_dirty: HashMap<u64, Block>,
    /// Replica write-back set (`Mr`): metadata copies streamed to the
    /// replica log but not yet checkpointed to the distant mirror.
    pub(crate) replica_pending: HashMap<u64, Block>,
    /// Replica-log write cursor.
    replica_log_head: u64,
    /// Commits since the last mirror checkpoint.
    commits_since_mirror_flush: u32,
}

/// [`LogSink`] adapter: appends land at the log cursor as tagged device
/// writes, barriers go straight to the device.
struct JournalLog<'a, D: BlockDevice> {
    dev: &'a mut D,
    head: &'a mut u64,
}

impl<D: BlockDevice> LogSink for JournalLog<'_, D> {
    fn append(&mut self, block: &Block, ty: BlockType) -> bool {
        let r = self
            .dev
            .write_tagged(BlockAddr(*self.head), block, ty.tag());
        *self.head += 1;
        r.is_ok()
    }

    fn barrier(&mut self) {
        let _ = self.dev.barrier();
    }
}

/// The on-disk form of checksum-table block `i` of the table `cksums`
/// (zero past the table's end).
fn encode_cksum_block(cksums: &[u64], i: u64) -> Block {
    let mut cb = Block::zeroed();
    let entries = cksums.chunks(CKSUMS_PER_BLOCK as usize).nth(i as usize);
    for (e, cksum) in entries.into_iter().flatten().enumerate() {
        cb.put_u64(e * CKSUM_ENTRY as usize, *cksum);
    }
    cb
}

/// The superblock in `b` and the layout it describes, if it passes ext3's
/// mount-time sanity checks (`DSanity`, §5.1) on a device of `dev_blocks`
/// blocks: the magic, then the geometry — nothing is computed from, or
/// allocated by, a field before [`DiskLayout::checked_on`] has bounded it
/// (a file system may be smaller than its device; the cost kernels format
/// one so). The error is the kernel-log line.
fn checked_super(b: &Block, dev_blocks: u64) -> Result<(Superblock, DiskLayout), &'static str> {
    let sb =
        Superblock::decode(b).ok_or("VFS: Can't find ext3 filesystem (bad superblock magic)")?;
    let layout = DiskLayout::checked_on(sb.params(), dev_blocks)
        .ok_or("VFS: ext3 superblock geometry is invalid for this device; mount failed")?;
    Ok((sb, layout))
}

/// The on-disk group descriptor table: per group, free blocks then free
/// inodes.
fn encode_gdt(gdt: &[(u32, u32)]) -> Block {
    let mut b = Block::zeroed();
    for (g, (free_blocks, free_inodes)) in gdt.iter().enumerate() {
        b.put_u32(g * 8, *free_blocks);
        b.put_u32(g * 8 + 4, *free_inodes);
    }
    b
}

/// Load checksum-table block `i`, as read from disk, into `cksums`.
fn decode_cksum_block(cksums: &mut [u64], i: u64, block: &Block) {
    let entries = cksums.chunks_mut(CKSUMS_PER_BLOCK as usize).nth(i as usize);
    for (e, cksum) in entries.into_iter().flatten().enumerate() {
        *cksum = block.get_u64(e * CKSUM_ENTRY as usize);
    }
}

impl<D: BlockDevice + RawAccess> Ext3Fs<D> {
    // ==================================================================
    // mkfs
    // ==================================================================

    /// Format a device. Writes every static structure: superblock (+ its
    /// never-updated per-group replicas), GDT, journal superblock, bitmaps,
    /// inode tables, the root directory, the checksum table, and — when
    /// `params.mirror_metadata` — the metadata mirror.
    pub fn mkfs(dev: &mut D, params: Ext3Params) -> VfsResult<()> {
        let layout = DiskLayout::compute(params);
        let mut written: Vec<(u64, Block)> = Vec::new();
        let mut push = |addr: u64, b: Block| written.push((addr, b));

        // Journal superblock, clean.
        push(
            layout.journal_super,
            JournalSuper {
                sequence: 1,
                dirty: false,
                log_len: layout.journal_len,
            }
            .encode(),
        );

        // Root directory: inode 2, one data block in group 0.
        let root_dir_block = layout.data_start(0);
        let mut root_listing = Listing::default();
        let code = dir::ftype_code(iron_vfs::FileType::Directory);
        root_listing.push(ROOT_INO as u32, code, ".");
        root_listing.push(ROOT_INO as u32, code, "..");
        push(root_dir_block, root_listing.pack().remove(0)); // one block

        let mut root_inode = DiskInode::new(iron_vfs::FileType::Directory, 0o755);
        root_inode.size = BLOCK_SIZE as u64;
        root_inode.blocks_count = 1;
        root_inode.direct[0] = root_dir_block as u32;
        let (root_itb, root_off) = layout.inode_location(ROOT_INO);
        let mut itable_block = Block::zeroed();
        root_inode.encode_into(&mut itable_block, root_off);
        push(root_itb.0, itable_block);

        // Per-group bitmaps and free counts.
        let mut gdt: Vec<(u32, u32)> = Vec::new();
        let mut total_free_blocks = 0u64;
        let mut total_free_inodes = 0u64;
        for g in 0..layout.num_groups {
            let base = layout.group_base(g);
            let mut dbm = Block::zeroed();
            // Reserve bitmap blocks, inode table, and the super replica.
            let reserved_head = 2 + layout.itable_blocks;
            for i in 0..reserved_head {
                dbm.set_bit(i);
            }
            dbm.set_bit(params.blocks_per_group - 1); // super replica
            let mut group_free = layout.data_blocks_per_group();
            if g == 0 {
                // Root directory block.
                dbm.set_bit(root_dir_block - base);
                group_free -= 1;
            }
            push(base, dbm);

            let mut ibm = Block::zeroed();
            let mut group_free_inodes = params.inodes_per_group;
            if g == 0 {
                // Inodes 1 (reserved) and 2 (root).
                ibm.set_bit(0);
                ibm.set_bit(1);
                group_free_inodes -= 2;
            }
            push(base + 1, ibm);

            gdt.push((group_free as u32, group_free_inodes as u32));
            total_free_blocks += group_free;
            total_free_inodes += group_free_inodes;
        }

        push(1, encode_gdt(&gdt));

        // Superblock + its per-group replicas (PAPER-BUG fidelity: the
        // replicas are written here and never touched again).
        let sb = Superblock::new(params, total_free_blocks, total_free_inodes);
        let sb_block = sb.encode();
        push(0, sb_block.clone());
        for g in 0..layout.num_groups {
            push(layout.super_replica(g).0, sb_block.clone());
        }

        // Checksum table covering everything written above (zero elsewhere).
        let mut cksums = vec![0u64; params.total_blocks as usize];
        for (addr, b) in &written {
            cksums[*addr as usize] = sha1(&b[..]).truncated64();
        }
        for i in 0..layout.cksum_len {
            written.push((layout.cksum_start + i, encode_cksum_block(&cksums, i)));
        }

        // Write everything (mkfs is assumed to run on a healthy device; a
        // formatting error is fatal).
        let mirror: Vec<(u64, Block)> = if params.mirror_metadata {
            written
                .iter()
                .filter(|(a, _)| *a < params.total_blocks / 2)
                .map(|(a, b)| (layout.replica_of(*a).0, b.clone()))
                .collect()
        } else {
            Vec::new()
        };
        for (addr, b) in written.into_iter().chain(mirror) {
            dev.write_tagged(BlockAddr(addr), &b, layout.classify_static(addr).tag())
                .map_err(VfsError::from)?;
        }
        dev.barrier().map_err(VfsError::from)?;
        Ok(())
    }

    // ==================================================================
    // mount
    // ==================================================================

    /// Mount the file system, replaying the journal if it is dirty.
    ///
    /// Failure policy at mount (§5.1): the superblock and journal
    /// superblock are type-checked (`DSanity`); a read error or failed
    /// check fails the mount (`RStop` + `RPropagate`). Stock ext3 never
    /// consults its superblock replicas (`PAPER-BUG`); with
    /// `Mr` + `fix_bugs` the mirror copy is used.
    ///
    /// Asking for `Mr` on a volume formatted without
    /// `Ext3Params::mirror_metadata` is `EINVAL` and a klog line.
    pub fn mount(mut dev: D, env: FsEnv, opts: Ext3Options) -> VfsResult<Self> {
        // --- superblock ---
        // PAPER-BUG: stock ext3 has superblock replicas but never reads
        // them. ixt3 (Mr + fix_bugs) falls back to the mirror when the
        // primary is unreadable or fails its sanity checks.
        let dev_blocks = dev.num_blocks();
        let primary = match dev.read_tagged(BlockAddr(0), BlockType::Super.tag()) {
            Ok(b) => checked_super(&b, dev_blocks).map_err(|why| env.reject("ext3", why)),
            Err(_) => {
                env.klog
                    .error("ext3", "unable to read superblock; mount failed");
                Err(Errno::EIO.into())
            }
        };
        let (sb, layout) = match primary {
            Ok(checked) => checked,
            Err(e) if opts.iron.meta_replication && opts.iron.fix_bugs => {
                let mirror = BlockAddr(dev_blocks / 2);
                let b = dev
                    .read_tagged(mirror, BlockType::Replica.tag())
                    .map_err(|_| e)?;
                let checked = checked_super(&b, dev_blocks).map_err(|_| Errno::EUCLEAN)?;
                let msg = "superblock recovered from replica";
                let redundancy = RecoveryLevel::RRedundancy;
                env.klog.evidence(LogLevel::Info, "ixt3", redundancy, msg);
                checked
            }
            Err(e) => return Err(e),
        };
        if opts.iron.meta_replication && !sb.mirror_metadata {
            // Without the reserved upper half every replica write would
            // land on the file system's own blocks.
            env.klog.error(
                "ext3",
                "metadata replication (Mr) requested but the volume was \
                 formatted without a metadata mirror; mount failed",
            );
            return Err(Errno::EINVAL.into());
        }

        let mut fs = Ext3Fs {
            dev,
            env,
            layout,
            sb,
            gdt: Vec::new(),
            running: Txn::new(),
            closed: None,
            pending: Vec::new(),
            uncommitted_frees: vec![None; layout.num_groups as usize],
            counters_stale: false,
            cache: Lru::default(),
            jseq: 1,
            log_head: layout.journal_start,
            journal_dirty_on_disk: false,
            journal_aborted: false,
            cksums: vec![0; layout.params.total_blocks as usize],
            dirty_cksum_blocks: BTreeSet::new(),
            parity_dirty: HashMap::new(),
            replica_pending: HashMap::new(),
            replica_log_head: layout.replica_log_start,
            commits_since_mirror_flush: 0,
            opts,
        };

        // --- journal superblock (type-checked) ---
        let js_block = fs
            .dev
            .read_tagged(
                BlockAddr(fs.layout.journal_super),
                BlockType::JournalSuper.tag(),
            )
            .map_err(|e| {
                fs.env
                    .klog
                    .error("ext3", "unable to read journal superblock; mount failed");
                VfsError::from(e)
            })?;
        let js = match JournalSuper::decode(&js_block) {
            Some(js) => js,
            None => {
                let msg = "journal superblock magic invalid; mount failed";
                return Err(fs.env.reject("ext3", msg));
            }
        };
        fs.jseq = js.sequence;

        if js.dirty || fs.sb.state == FsState::Dirty {
            fs.replay_journal()?;
        }

        // --- checksum table (needed when Mc or Dc verifies reads) ---
        // Loaded only AFTER replay: a committed transaction can carry new
        // checksum-table blocks, and replay just wrote them home. Loading
        // before replay left the in-memory table stale, so every block the
        // transaction re-checksummed failed verification on first read
        // (found by the iron-crash enumerator).
        if fs.opts.iron.meta_checksum || fs.opts.iron.data_checksum {
            fs.load_cksum_table()?;
        }

        // --- group descriptors ---
        // Stock ext3 uses them blindly (no sanity checking); ixt3 verifies
        // the block against the checksum table and falls back to the
        // replica — which likewise must wait until replay has restored the
        // committed copies.
        let groups = fs.layout.num_groups as usize;
        let gdt = fs.with_meta(1, BlockType::GroupDesc, |b| {
            (0..groups)
                .map(|g| (b.get_u32(g * 8), b.get_u32(g * 8 + 4)))
                .collect()
        });
        fs.gdt = gdt.inspect_err(|_e| {
            fs.env
                .klog
                .error("ext3", "unable to read group descriptors; mount failed");
        })?;
        // The superblock was decoded before replay, so its free totals
        // predate every transaction replay restored. Like real ext3,
        // recompute them from the group descriptors.
        fs.sb.free_blocks = fs.gdt.iter().map(|&(b, _)| u64::from(b)).sum();
        fs.sb.free_inodes = fs.gdt.iter().map(|&(_, i)| u64::from(i)).sum();

        // Mark mounted (dirty until clean unmount).
        fs.sb.state = FsState::Dirty;
        fs.sb.mount_count += 1;
        let enc = fs.sb.encode();
        // PAPER-BUG: the mount-time superblock update's write error is
        // ignored by stock ext3 (write errors generally are). Not a checked
        // write: ixt3 fails the mount with EIO and aborts no journal
        // (Figure 3's `super` write cell reads `/-`, not `|`).
        let r = fs
            .dev
            .write_tagged(BlockAddr(0), &enc, BlockType::Super.tag());
        if r.is_err() && fs.opts.iron.fix_bugs {
            fs.env
                .klog
                .error("ext3", "superblock update failed at mount");
            return Err(Errno::EIO.into());
        }
        fs.mirror_meta_write(0, &enc);
        fs.note_cksum(0, &enc, true);
        fs.flush_cksum_blocks();
        fs.flush_replicas();

        Ok(fs)
    }

    /// mkfs + mount in one step over a fresh device. The metadata mirror
    /// is reserved iff the mount replicates metadata (`Mr`), whatever
    /// `params.mirror_metadata` says: formatting and mounting together,
    /// there is one right answer.
    pub fn format_and_mount(
        mut dev: D,
        env: FsEnv,
        mut params: Ext3Params,
        opts: Ext3Options,
    ) -> VfsResult<Self> {
        params.mirror_metadata = opts.iron.meta_replication;
        Self::mkfs(&mut dev, params)?;
        Self::mount(dev, env, opts)
    }

    /// The mount environment (also available via `SpecificFs::env`).
    pub fn env_ref(&self) -> &FsEnv {
        &self.env
    }

    /// The computed layout.
    pub fn layout(&self) -> &DiskLayout {
        &self.layout
    }

    /// The active options.
    pub fn options(&self) -> &Ext3Options {
        &self.opts
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutably borrow the underlying device (tests and the scrubber).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consume the file system, returning the device (for crash simulation:
    /// drop the in-memory state, keep the disk image).
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The recorded checksum for a device block (0 = none recorded). Used
    /// by the disk scrubber.
    pub fn checksum_entry(&self, addr: u64) -> u64 {
        self.cksums.get(addr as usize).copied().unwrap_or(0)
    }

    // ==================================================================
    // CPU cost accounting
    // ==================================================================

    pub(crate) fn charge_cpu(&self, ns: u64) {
        if let Some(clock) = &self.opts.cpu_clock {
            clock.advance_ns(ns);
        }
    }

    // ==================================================================
    // Checksum table
    // ==================================================================

    fn load_cksum_table(&mut self) -> VfsResult<()> {
        // Sequential sweep over the on-disk table; hint it like the replay
        // scan so mount-time loading streams at media rate.
        let mut ra = ScanReadahead::new(BlockAddr(self.layout.cksum_start), self.layout.cksum_len);
        for i in 0..self.layout.cksum_len {
            let addr = BlockAddr(self.layout.cksum_start + i);
            ra.hint(&mut self.dev, addr);
            let block = match self.dev.read_tagged(addr, BlockType::CksumTable.tag()) {
                Ok(b) => b,
                Err(_) => {
                    self.env
                        .klog
                        .error("ixt3", format!("checksum table block {addr} unreadable"));
                    if self.opts.iron.meta_replication {
                        match self
                            .dev
                            .read_tagged(self.layout.replica_of(addr.0), BlockType::Replica.tag())
                        {
                            Ok(b) => {
                                self.env.klog.evidence(
                                    LogLevel::Info,
                                    "ixt3",
                                    RecoveryLevel::RRedundancy,
                                    format!("checksum table block {addr} recovered from replica"),
                                );
                                b
                            }
                            Err(_) => return Err(Errno::EIO.into()),
                        }
                    } else {
                        return Err(Errno::EIO.into());
                    }
                }
            };
            decode_cksum_block(&mut self.cksums, i, &block);
        }
        Ok(())
    }

    /// Record the checksum of `block` for address `addr` (if the relevant
    /// mechanism is active), marking its table block dirty.
    pub(crate) fn note_cksum(&mut self, addr: u64, block: &Block, is_meta: bool) {
        self.note_digest(addr, is_meta, || sha1(&block[..]));
    }

    /// [`Self::note_cksum`] with the digest supplied, asked for only when
    /// the checksum is recorded.
    pub(crate) fn note_digest(
        &mut self,
        addr: u64,
        is_meta: bool,
        digest: impl FnOnce() -> Sha1Digest,
    ) {
        let active = if is_meta {
            self.opts.iron.meta_checksum
        } else {
            self.opts.iron.data_checksum
        };
        // An address past the table (a device larger than the volume, named
        // by a journal descriptor) has no entry to record.
        if !active || addr >= self.cksums.len() as u64 {
            return;
        }
        self.charge_cpu(SHA1_BLOCK_COST_NS);
        self.cksums[addr as usize] = digest().truncated64();
        self.dirty_cksum_blocks.insert(addr / CKSUMS_PER_BLOCK);
    }

    /// Verify `block` against the checksum table. Returns `true` if OK (or
    /// if no checksum was recorded for the address), `false` on a mismatch
    /// or for an address past the table, which no block of the volume has.
    /// For the blocks that did not come straight off the device (a replica,
    /// a parity reconstruction, the scrubber's); a device read is checked
    /// in `read_verified`, against the digest the device hands back.
    pub fn verify_cksum(&mut self, addr: u64, block: &Block) -> bool {
        let Some(&expected) = self.cksums.get(addr as usize) else {
            return false;
        };
        if expected == 0 {
            return true;
        }
        self.charge_cpu(SHA1_BLOCK_COST_NS);
        sha1(&block[..]).truncated64() == expected
    }

    /// The expected on-medium content of checksum-table block `i`, built
    /// from the authoritative in-memory table. Table blocks carry no
    /// self-checksums (entry 0, avoiding recursion), so the scrubber
    /// verifies them by comparing against this instead.
    pub fn cksum_table_block(&self, i: u64) -> Block {
        encode_cksum_block(&self.cksums, i)
    }

    /// Collect the dirty checksum-table blocks as a closed transaction to
    /// merge into the commit batch (journaled and checkpointed like any
    /// other metadata). The table's own blocks carry no self-checksums
    /// (entry 0), avoiding recursion.
    fn take_dirty_cksum_txn(&mut self) -> Option<Txn<Closed>> {
        if self.dirty_cksum_blocks.is_empty() {
            return None;
        }
        let dirty: Vec<u64> = std::mem::take(&mut self.dirty_cksum_blocks)
            .into_iter()
            .collect();
        let mut t = Txn::new();
        for i in dirty {
            if i >= self.layout.cksum_len {
                continue;
            }
            let cb = self.cksum_table_block(i);
            let addr = self.layout.cksum_start + i;
            self.cache_put(addr, cb.clone());
            t.put(addr, cb, BlockType::CksumTable);
        }
        Some(t.close())
    }

    /// Write the dirty checksum-table blocks to the medium (also the
    /// scrubber's hook: it verifies the on-medium table against the
    /// in-memory one, so the medium must be current first).
    pub fn flush_cksum_blocks(&mut self) {
        if self.dirty_cksum_blocks.is_empty() {
            return;
        }
        let dirty: Vec<u64> = std::mem::take(&mut self.dirty_cksum_blocks)
            .into_iter()
            .collect();
        for i in dirty {
            if i >= self.layout.cksum_len {
                continue;
            }
            let cb = self.cksum_table_block(i);
            let addr = self.layout.cksum_start + i;
            let tag = BlockType::CksumTable.tag();
            // A failure has had its reaction; the flush goes on.
            let _ = self.checked_write("checksum table write", addr, tag, |dev| {
                dev.write_tagged(BlockAddr(addr), &cb, tag)
            });
            self.mirror_meta_write(addr, &cb);
        }
    }

    // ==================================================================
    // Replication (Mr)
    // ==================================================================

    /// Record the mirror copy of a metadata block (no-op unless `Mr`).
    ///
    /// §6.1: "All metadata blocks are written to a separate replica log;
    /// they are later checkpointed to a fixed location … distant from the
    /// original metadata." The log write streams (sequential); the distant
    /// mirror is updated by [`Self::flush_replicas`], amortizing the long
    /// seeks.
    pub(crate) fn mirror_meta_write(&mut self, addr: u64, block: &Block) {
        if !self.opts.iron.meta_replication {
            return;
        }
        if self.layout.replica_log_len > 0 {
            if self.replica_log_head >= self.layout.replica_log_start + self.layout.replica_log_len
            {
                self.replica_log_head = self.layout.replica_log_start;
            }
            let head = self.replica_log_head;
            self.replica_log_head += 1;
            let tag = BlockType::Replica.tag();
            let logged = self.checked_write("replica write", head, tag, |dev| {
                dev.write_tagged(BlockAddr(head), block, tag)
            });
            if logged.is_err() {
                return;
            }
        }
        self.replica_pending.insert(addr, block.clone());
    }

    /// Checkpoint pending replicas to the distant mirror, elevator-sorted.
    pub fn flush_replicas(&mut self) {
        if self.replica_pending.is_empty() {
            return;
        }
        let mut pending: Vec<(u64, Block)> = self.replica_pending.drain().collect();
        pending.sort_by_key(|(a, _)| *a);
        let tag = BlockType::Replica.tag();
        for (addr, block) in pending {
            let replica = self.layout.replica_of(addr);
            let written = self.checked_write("replica write", replica.0, tag, |dev| {
                dev.write_tagged(replica, &block, tag)
            });
            if written.is_err() {
                return;
            }
        }
        self.commits_since_mirror_flush = 0;
    }

    // ==================================================================
    // Journal control
    // ==================================================================

    /// Abort the journal: ext3's `RStop` — log, mark aborted, remount
    /// read-only.
    pub(crate) fn abort_journal(&mut self, why: &str) {
        if self.journal_aborted {
            return;
        }
        self.journal_aborted = true;
        // The journal abort *is* the DegradeReadOnly rung of the policy
        // engine: count it against the shared policy counters so every
        // degradation — whatever site triggered it — is observable.
        self.opts.policy.counters().count_degrade();
        self.env.klog.error(
            "ext3",
            format!("ext3_abort called: {why}; remounting filesystem read-only"),
        );
        self.env.remount_readonly("ext3", "journal has aborted");
    }

    /// Issue one device write whose failure `fix_bugs` reacts to, and say
    /// whether it landed. `issue` writes block `addr`, tagged `tag`; `what`
    /// names the request in the log (`"parity write"`).
    ///
    /// Stock ext3 ignores the failure (`Ok(false)`). Under `fix_bugs` it is
    /// logged and handed to the policy table's write chain for `tag`: a
    /// `Retry` rung re-issues `issue` (`Ok(true)` once one lands),
    /// `DegradeReadOnly` aborts the journal as `"{what} failure"` (`EIO`),
    /// `Stop` panics. A halted machine issues nothing more.
    pub(crate) fn checked_write(
        &mut self,
        what: &str,
        addr: u64,
        tag: BlockTag,
        mut issue: impl FnMut(&mut D) -> DiskResult<()>,
    ) -> VfsResult<bool> {
        self.env.check_alive()?;
        let Err(e) = issue(&mut self.dev) else {
            return Ok(true);
        };
        if !self.opts.iron.fix_bugs {
            // PAPER-BUG: "when a write fails, ext3 does not record the error
            // code; hence, write errors are often ignored" — no policy runs.
            return Ok(false);
        }
        let msg = format!("{what} of block {addr} failed");
        self.env.klog.error("ext3", msg);
        let key = (tag, IoKind::Write, classify(&e));
        self.walk_chain(what, addr, key, |fs, step| match step {
            Step::Reissue { .. } => issue(&mut fs.dev).ok(),
            // A write has no redundant copy to fall back on.
            Step::Redundancy => None,
        })
        .map(|()| true)
    }

    /// Cache `block` as the verified contents of `addr`, evicting the least
    /// recently used block if that overfills the cache.
    pub(crate) fn cache_put(&mut self, addr: u64, block: Block) {
        self.cache.insert(BlockAddr(addr), block);
        if self.cache.len() > self.opts.cache_blocks.max(1) {
            let (victim, _) = self
                .cache
                .oldest()
                .expect("an overfull cache has an oldest");
            self.cache.remove(victim);
        }
    }

    /// Stage a metadata block into the running transaction. (Checksums are
    /// computed once per commit, over the final images.)
    pub(crate) fn write_meta(&mut self, addr: u64, block: Block, ty: BlockType) {
        self.running.put(addr, block, ty);
        self.cache_staged(addr);
    }

    /// Give the cache the running transaction's image of `addr`, as a
    /// [`Self::cache_put`] of a copy would: a resident entry takes the
    /// bytes where it lies and is touched as an insert touches it; only an
    /// absent one costs a copy.
    pub(crate) fn cache_staged(&mut self, addr: u64) {
        let staged = self.running.get(addr).expect("staged by the caller");
        match self.cache.get_mut(BlockAddr(addr)) {
            Some(cached) => cached.copy_from_slice(&staged[..]),
            None => {
                let copy = staged.clone();
                self.cache_put(addr, copy);
            }
        }
    }

    /// Stage the superblock and GDT after a counter change.
    ///
    /// The images a transaction logs are the ones current when it closes;
    /// every earlier encoding is overwritten in the `Txn` before anyone
    /// reads it (nothing reads block 0 or 1 back after mount). So only the
    /// first change in a transaction — or one that finds either block
    /// gone from the cache — encodes and stages both in full, which fixes
    /// their place in the transaction's first-dirty order. A later change
    /// touches the two cache entries, as staging them would, and leaves
    /// the encoding to [`Self::close_running`].
    pub(crate) fn write_counters(&mut self) {
        let staged = self.running.get(0).is_some() && self.running.get(1).is_some();
        if staged
            && self.cache.get(BlockAddr(0)).is_some()
            && self.cache.get(BlockAddr(1)).is_some()
        {
            self.counters_stale = true;
            return;
        }
        for (addr, image, ty) in self.encode_counters() {
            self.write_meta(addr, image, ty);
        }
        self.counters_stale = false;
    }

    /// The superblock and GDT as the in-memory counters have them.
    fn encode_counters(&self) -> [(u64, Block, BlockType); 2] {
        #[cfg(test)]
        crate::ops::SUPER_ENCODES.with(|n| n.set(n.get() + 1));
        [
            (0, self.sb.encode(), BlockType::Super),
            (1, encode_gdt(&self.gdt), BlockType::GroupDesc),
        ]
    }

    /// Revoke a freed metadata block so neither checkpoint nor journal
    /// replay can resurrect it: the running transaction drops its staged
    /// copy and records the revoke, and every committed-but-not-yet-
    /// checkpointed transaction *forgets* its copy (JBD `journal_forget`)
    /// so a deferred checkpoint cannot write a stale image over the block
    /// once it is reused.
    pub(crate) fn revoke_meta(&mut self, addr: u64) {
        self.running.revoke(addr);
        for t in &mut self.pending {
            t.forget(addr);
        }
        self.cache.remove(BlockAddr(addr));
    }

    /// The freshest staged copy of `addr`, if any: the running
    /// transaction, then the group-commit batch, then the newest pending
    /// committed transaction. The read path consults this before the
    /// buffer cache — the cache can evict, and with pipelined
    /// checkpointing the home location is stale until the drain.
    pub(crate) fn staged_copy(&self, addr: u64) -> Option<&Block> {
        self.running
            .get(addr)
            .or_else(|| self.closed.as_ref().and_then(|c| c.get(addr)))
            .or_else(|| self.pending.iter().rev().find_map(|t| t.get(addr)))
    }

    /// Freeze the running transaction into the group-commit batch.
    fn close_running(&mut self) {
        if self.running.is_empty() {
            return;
        }
        if self.counters_stale {
            // The final counter images, into the transaction and into the
            // cache entries where they lie (no change of recency).
            for (addr, image, ty) in self.encode_counters() {
                if let Some(cached) = self.cache.peek_mut(BlockAddr(addr)) {
                    cached.copy_from_slice(&image[..]);
                }
                self.running.put(addr, image, ty);
            }
            self.counters_stale = false;
        }
        let t = std::mem::take(&mut self.running).close();
        self.closed = Some(match self.closed.take() {
            Some(batch) => batch.merge(t),
            None => t,
        });
    }

    /// True if the batch would still fit in the journal after absorbing
    /// the running transaction (counting descriptor/revoke overhead and
    /// the checksum-table blocks staged at commit time).
    fn batch_has_room(&self) -> bool {
        let blocks = self.closed.as_ref().map_or(0, |t| t.len()) + self.running.len();
        self.layout.journal_holds(blocks)
    }

    /// Commit or batch the running transaction once it passes the
    /// threshold. With `group_commit > 1` the transaction is *closed*
    /// into the batch instead — no I/O — until the batch holds that many
    /// transactions (or would outgrow the journal), then the whole batch
    /// is logged under one descriptor chain, commit block, and barrier
    /// pair.
    pub(crate) fn maybe_commit(&mut self) -> VfsResult<()> {
        if self.running.len() < self.opts.commit_threshold {
            return Ok(());
        }
        let batched = self.closed.as_ref().map_or(0, Txn::batched);
        if self.opts.group_commit > 1
            && batched + 1 < self.opts.group_commit
            && self.batch_has_room()
        {
            self.close_running();
            return Ok(());
        }
        self.commit()
    }

    /// Commit the batch (the group-commit queue plus the running
    /// transaction, merged): revoke records, descriptor chain, journal
    /// copies, commit block — then checkpoint now (`checkpoint_lag == 0`)
    /// or queue the committed transaction for a later pipelined drain.
    ///
    /// The write→commit→checkpoint ordering itself lives in the typestate
    /// chain ([`Txn<Closed>::log`] → [`Txn<Logged>::commit`] →
    /// [`checkpoint_group`]); this method supplies the *policy*: stock
    /// ext3 (`PAPER-BUG`s, §5.1) ignores journal and checkpoint write
    /// errors, `fix_bugs` aborts the journal and propagates `EIO`.
    ///
    /// With `Tc` the pre-commit barrier is skipped and the commit block
    /// carries a checksum over the transaction (§6.1).
    pub fn commit(&mut self) -> VfsResult<()> {
        self.close_running();
        let batch = match self.closed.take() {
            Some(b) if !b.is_empty() => b,
            _ => {
                self.flush_parity()?;
                return Ok(());
            }
        };
        if self.journal_aborted {
            // The batch is dropped: an aborted journal accepts nothing.
            return Err(Errno::EROFS.into());
        }
        let seq = self.jseq;

        // Metadata checksums are computed once per commit over the final
        // block images, and the dirty checksum-table blocks then join the
        // batch — the paper places checksums "first into the journal, and
        // then checkpoint[s them] to their final location, distant from
        // the blocks they checksum."
        let batch = if self.opts.iron.meta_checksum || self.opts.iron.data_checksum {
            if self.opts.iron.meta_checksum {
                for (addr, b, _) in batch.blocks() {
                    self.note_cksum(addr, b, true);
                }
            }
            match self.take_dirty_cksum_txn() {
                Some(ct) => batch.merge(ct),
                None => batch,
            }
        } else {
            batch
        };

        // Space check: drain pending checkpoints (which frees the whole
        // log) if the batch wouldn't fit; without pending transactions
        // fall back to the legacy cursor reset. A batch the empty log
        // cannot hold either is refused: logging it would run past the
        // journal into the checksum table (real JBD fails a handle that
        // wants more credits than the log has, `ENOSPC`).
        let needed = batch.log_space_needed();
        if self.log_head + needed > self.layout.journal_start + self.layout.journal_len {
            if needed > self.layout.journal_len {
                self.abort_journal("transaction larger than the journal");
                return Err(Errno::ENOSPC.into());
            }
            if !self.pending.is_empty() {
                self.drain_checkpoints()?;
            } else {
                self.log_head = self.layout.journal_start;
            }
        }

        // Mark the journal dirty before logging. The recorded sequence is
        // the first *unflushed* transaction: replay applies transactions
        // from that sequence onward and stops at anything older (stale log
        // tails from already-checkpointed transactions). With pipelined
        // checkpointing the journal simply stays dirty across commits
        // until the drain, so the first pending sequence is preserved.
        if !self.journal_dirty_on_disk {
            let js_dirty = JournalSuper {
                sequence: seq,
                dirty: true,
                log_len: self.layout.journal_len,
            };
            let (addr, tag) = (self.layout.journal_super, BlockType::JournalSuper.tag());
            let image = js_dirty.encode();
            self.checked_write("journal superblock write", addr, tag, |dev| {
                dev.write_tagged(BlockAddr(addr), &image, tag)
            })?;
            self.journal_dirty_on_disk = true;
        }

        // Log the batch. Not checked writes: a failed log or commit block
        // write is seen by the transitions after the whole batch has gone
        // down, so no single write can be re-issued. Under `Tc` the log
        // transition folds the transactional checksum as it writes; under
        // `Mc` the loop above has just stored the truncated SHA-1 of every
        // batch image in the table, so `Tc` takes it from there instead of
        // hashing the image again. The table's own blocks joined the batch
        // after that loop and carry no self-checksum.
        let with_tc = self.opts.iron.txn_checksum;
        let meta_checksum = self.opts.iron.meta_checksum;
        let cksums = &self.cksums;
        let noted = |addr: u64, ty: BlockType| {
            (meta_checksum && ty != BlockType::CksumTable).then(|| cksums[addr as usize])
        };
        let logged = {
            let mut sink = JournalLog {
                dev: &mut self.dev,
                head: &mut self.log_head,
            };
            batch.log(seq, &mut sink, with_tc.then_some(&noted))
        };
        if logged.log_write_failed() {
            if self.opts.iron.fix_bugs {
                // ixt3: a failed journal write must not be committed —
                // dropping the Txn<Logged> aborts it (nothing replays
                // without a commit block).
                self.env
                    .klog
                    .error("ext3", "journal write failed; aborting transaction");
                self.abort_journal("journal write failure");
                return Err(Errno::EIO.into());
            }
            // PAPER-BUG: stock ext3 "still writes the rest of the
            // transaction, including the commit block, to the journal;
            // thus, if the journal is later used for recovery, the file
            // system can easily become corrupted."
            self.env
                .klog
                .warn("ext3", "journal write error ignored (stock ext3 behavior)");
        }

        // Transactional checksum (Tc) removes the pre-commit barrier; the
        // commit transition issues the barriers and the commit block.
        if with_tc {
            self.charge_cpu(SHA1_BLOCK_COST_NS * logged.log_block_count() as u64 / 4);
        }
        let committed = {
            let mut sink = JournalLog {
                dev: &mut self.dev,
                head: &mut self.log_head,
            };
            logged.commit(&mut sink)
        };
        if committed.commit_write_failed() {
            if self.opts.iron.fix_bugs {
                committed.abandon();
                self.abort_journal("commit block write failure");
                return Err(Errno::EIO.into());
            }
            // PAPER-BUG: commit-block write error ignored; stock ext3
            // proceeds to checkpoint as if the transaction committed.
            self.env.klog.warn(
                "ext3",
                "commit block write error ignored (stock ext3 behavior)",
            );
        }

        self.jseq = seq + 1;
        // The batch's frees are durable once its commit block is written:
        // freed blocks become allocatable again.
        self.uncommitted_frees.fill(None);

        self.pending.push(committed);
        // Parity before the drain: the clean journal superblock (written
        // at the end of a drain, behind the fix_bugs barrier) must never
        // become durable while parity accumulators are still volatile.
        self.flush_parity()?;
        let pending_blocks: usize = self.pending.iter().map(|t| t.len()).sum();
        if self.opts.checkpoint_lag == 0 || pending_blocks > self.opts.checkpoint_lag {
            self.drain_checkpoints()?;
        }
        Ok(())
    }

    /// Checkpoint: drain every pending committed transaction home in one
    /// elevator-sorted sweep (the kernel's writeback submits checkpoint
    /// I/O in address order), deduplicated across the pending group, then
    /// the mirror copies as a second sorted sweep — batching keeps the
    /// distant-replica cost at two long seeks per drain instead of two per
    /// block — and mark the journal clean.
    pub(crate) fn drain_checkpoints(&mut self) -> VfsResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let group = std::mem::take(&mut self.pending);
        let drained = group.len() as u32;
        let fix_bugs = self.opts.iron.fix_bugs;
        // The failed image is in hand while its chain is walked. `Stop`
        // halts the machine and the rest of the sweep issues nothing; any
        // other verdict lets the sweep finish, and a block that did not
        // reach home aborts the journal after it. PAPER-BUG (stock):
        // checkpoint write errors are ignored ("when checkpointing a
        // transaction to its final location") — the block silently never
        // reaches home.
        let sweep = checkpoint_group(group, |addr, b, ty| {
            let tag = ty.tag();
            let landed = self.checked_write("checkpoint write", addr, tag, |dev| {
                dev.write_tagged(BlockAddr(addr), b, tag)
            });
            matches!(landed, Ok(true))
        });
        self.env.check_alive()?;
        for (addr, b, ty) in &sweep.written {
            if ty.is_metadata() || *ty == BlockType::CksumTable {
                self.mirror_meta_write(*addr, b);
            }
        }
        self.commits_since_mirror_flush += drained;
        if self.commits_since_mirror_flush >= 16 {
            self.flush_replicas();
        }

        if sweep.write_failed && fix_bugs {
            self.abort_journal("checkpoint write failure");
            return Err(Errno::EIO.into());
        }

        // Order checkpoint before the clean journal superblock. Stock
        // ext3 issues both in one barrier epoch, so under a write-back
        // drive cache the clean marker can land while home-location
        // writes are still volatile — a crash there skips replay and
        // loses the committed transaction (found by the iron-crash
        // enumerator; kept paper-faithful for stock ext3, fixed in ixt3).
        if fix_bugs {
            let _ = self.dev.barrier();
        }

        // Mark the journal clean again; only retired (checkpointed)
        // transactions can advance the clean sequence.
        let mut clean_seq = self.jseq;
        for t in sweep.txns {
            clean_seq = clean_seq.max(t.retire() + 1);
        }
        let js_clean = JournalSuper {
            sequence: clean_seq,
            dirty: false,
            log_len: self.layout.journal_len,
        };
        let (addr, tag) = (self.layout.journal_super, BlockType::JournalSuper.tag());
        let image = js_clean.encode();
        // The blocks are home: a failure aborts the journal, and only a
        // `Stop` fails the drain.
        let _ = self.checked_write("journal superblock write", addr, tag, |dev| {
            dev.write_tagged(BlockAddr(addr), &image, tag)
        });
        self.journal_dirty_on_disk = false;
        self.log_head = self.layout.journal_start;
        self.env.check_alive()
    }

    /// Flush dirty per-file parity accumulators (`Dp`).
    pub(crate) fn flush_parity(&mut self) -> VfsResult<()> {
        if self.parity_dirty.is_empty() {
            return Ok(());
        }
        // Elevator order by parity-block address for the flush sweep.
        let mut dirty: Vec<(u64, Block)> = Vec::with_capacity(self.parity_dirty.len());
        for (ino, block) in std::mem::take(&mut self.parity_dirty) {
            let di = self.raw_iget(ino)?;
            if di.parity != 0 {
                dirty.push((di.parity as u64, block));
            }
        }
        dirty.sort_by_key(|(addr, _)| *addr);
        let tag = BlockType::Parity.tag();
        for (addr, block) in dirty {
            let landed = self.checked_write("parity write", addr, tag, |dev| {
                dev.write_tagged(BlockAddr(addr), &block, tag)
            })?;
            if landed {
                self.cache_put(addr, block);
            }
        }
        Ok(())
    }

    /// XOR `old` (absent for a block that had no contents) out of and
    /// `new` into the parity accumulator for `ino`.
    ///
    /// The first touch of a file per commit loads the accumulator from the
    /// cache or the disk — never from nothing: parity restarted from zeros
    /// would later reconstruct wrong bytes as file data, so a parity block
    /// that cannot be read fails the update the way a failed parity write
    /// fails the flush.
    pub(crate) fn parity_update(
        &mut self,
        ino: u64,
        parity_addr: u64,
        old: Option<&Block>,
        new: &Block,
    ) -> VfsResult<()> {
        self.charge_cpu(XOR_BLOCK_COST_NS * 2);
        if !self.parity_dirty.contains_key(&ino) {
            let cur = match self.cache.get(BlockAddr(parity_addr)) {
                Some(b) => b.clone(),
                None => match self
                    .dev
                    .read_tagged(BlockAddr(parity_addr), BlockType::Parity.tag())
                {
                    Ok(b) => b,
                    Err(_) => {
                        let msg = format!("parity block {parity_addr} of inode {ino} unreadable");
                        self.env.klog.error("ixt3", msg);
                        if self.opts.iron.fix_bugs {
                            self.abort_journal("parity read failure");
                        }
                        return Err(Errno::EIO.into());
                    }
                },
            };
            self.parity_dirty.insert(ino, cur);
        }
        let acc = self.parity_dirty.get_mut(&ino).expect("just loaded");
        if let Some(old) = old {
            acc.xor_with(old);
        }
        acc.xor_with(new);
        Ok(())
    }

    // ==================================================================
    // Journal replay (mount-time recovery)
    // ==================================================================

    /// Give journal recovery up: log `why` and remount read-only (the
    /// mount itself succeeds).
    fn abort_recovery(&self, why: String) {
        self.env.klog.error("ext3", why);
        self.env.remount_readonly("ext3", "journal recovery failed");
    }

    /// Read journal block `addr` during replay, hinting the scan `ra` ahead
    /// of it. A read failure in the log stops recovery and mounts read-only
    /// (`RStop` + `RPropagate`): `None`, the `what` block logged.
    fn replay_read(
        &mut self,
        ra: &mut ScanReadahead,
        addr: u64,
        ty: BlockType,
        what: &str,
    ) -> Option<Block> {
        ra.hint(&mut self.dev, BlockAddr(addr));
        let read = self.dev.read_tagged(BlockAddr(addr), ty.tag());
        if read.is_err() {
            self.abort_recovery(format!("{what} {addr} unreadable; aborting recovery"));
        }
        read.ok()
    }

    /// Replay the journal after an unclean shutdown.
    ///
    /// Stock ext3 type-checks journal descriptor and commit blocks
    /// (`DSanity`) but replays journal *data* blindly — a corrupted
    /// journal-data block is written straight over its home location. With
    /// `Tc`, the transaction checksum catches it and the transaction is
    /// skipped (the paper's crash-semantics argument for `Tc`).
    fn replay_journal(&mut self) -> VfsResult<()> {
        self.env
            .klog
            .info("ext3", "recovery required; replaying journal");
        let start = self.layout.journal_start;
        let end = start + self.layout.journal_len;

        // Pass 1: scan transactions (descriptor…data…commit), collecting
        // revokes and the set of committed transactions.
        #[derive(Debug)]
        struct PendingTxn {
            sequence: u64,
            entries: Vec<(u64, BlockType)>,
            data: Vec<Block>,
            /// The commit block's `Tc`, if it carries one.
            checksum: Option<u64>,
            /// `Tc` recomputed from the bytes just read (mounts checking
            /// `Tc` only).
            computed: Option<u64>,
        }
        let mut committed: Vec<PendingTxn> = Vec::new();
        // Revokes are sequence-scoped, as in JBD: a revoke recorded at
        // sequence S suppresses copies of the block logged at sequence <= S
        // only. A later transaction that re-logs the block (after reuse)
        // must still be replayed. Scanned revokes are *tentative* until
        // their own transaction's commit block is seen: a revoke from an
        // uncommitted (crash-torn) transaction must not suppress replay of
        // an earlier committed transaction's staged copy. Found by the
        // iron-crash enumerator on the pipelined profile: with checkpoint
        // lag a committed batch's home blocks aren't written yet, and a
        // torn successor's revoke silently discarded the only good copy of
        // a freed-then-staged directory block.
        let mut scanned_revokes: Vec<(u64, Vec<u64>)> = Vec::new();
        // `Tc` folded over every image read since the last commit block,
        // in log order — always from the bytes that came off the disk,
        // never from the checksum table, which is what a torn or corrupted
        // log would disagree with. commit() folds the revoke blocks too
        // (they are written first, before the descriptor), so replay must
        // fold the same block set — found by the iron-crash enumerator: a
        // fully-durable transaction carrying a revoke failed Tc on replay
        // because the revoke image was missing from the replay-side hash.
        let mut tc = self.opts.iron.txn_checksum.then(TcFold::default);
        // The scan is strictly ascending over the whole journal region, so
        // hint each elevator sweep ahead of its reads: the disk streams the
        // swept blocks from its track buffer instead of re-positioning per
        // block. Purely a timing hint — the tagged read stream (what fault
        // injection and traces see) is unchanged.
        let mut ra = ScanReadahead::new(BlockAddr(start), self.layout.journal_len);
        let mut pos = start;
        'scan: while pos < end {
            let Some(block) =
                self.replay_read(&mut ra, pos, BlockType::JournalDesc, "journal block")
            else {
                return Ok(());
            };
            match classify_log_block(&block) {
                Some(JournalRecord::Revoke(r)) => {
                    if r.sequence < self.jseq {
                        break 'scan;
                    }
                    scanned_revokes.push((r.sequence, r.addrs));
                    if let Some(f) = &mut tc {
                        f.fold(&block, None);
                    }
                    pos += 1;
                }
                Some(JournalRecord::Descriptor(desc)) => {
                    if desc.sequence < self.jseq {
                        // Stale log tail from an already-checkpointed
                        // transaction: recovery ends here.
                        break 'scan;
                    }
                    if let Some(f) = &mut tc {
                        f.fold(&block, None);
                    }
                    let mut data = Vec::new();
                    let n = desc.entries.len() as u64;
                    for i in 0..n {
                        let daddr = pos + 1 + i;
                        if daddr >= end {
                            break 'scan; // truncated transaction
                        }
                        let what = "journal data block";
                        let Some(b) =
                            self.replay_read(&mut ra, daddr, BlockType::JournalData, what)
                        else {
                            return Ok(());
                        };
                        if let Some(f) = &mut tc {
                            f.fold(&b, None);
                        }
                        data.push(b);
                    }
                    let cpos = pos + 1 + n;
                    if cpos >= end {
                        break 'scan;
                    }
                    let what = "commit block";
                    let Some(cblock) =
                        self.replay_read(&mut ra, cpos, BlockType::JournalCommit, what)
                    else {
                        return Ok(());
                    };
                    match CommitBlock::decode(&cblock) {
                        // JBD validates the commit sequence against the
                        // transaction it closes: a stale commit block left
                        // over from an earlier pass through the log must
                        // not validate a torn transaction whose own commit
                        // never landed (found by the iron-crash
                        // enumerator: the stale commit completed a
                        // partially-written transaction and replay copied
                        // leftover journal bytes over home metadata).
                        Some(c) if c.sequence == desc.sequence => {
                            committed.push(PendingTxn {
                                sequence: desc.sequence,
                                entries: desc.entries,
                                data,
                                checksum: c.txn_checksum,
                                computed: tc.as_mut().map(|f| std::mem::take(f).finish()),
                            });
                            pos = cpos + 1;
                        }
                        _ => {
                            // No commit block for this transaction: either
                            // the crash landed mid-commit (normal), the
                            // commit block is corrupt, or it belongs to an
                            // older transaction — the transaction is not
                            // replayed and recovery ends here.
                            self.env.klog.warn(
                                "ext3",
                                format!(
                                    "journal block {cpos} is not this transaction's commit; \
                                     transaction ignored"
                                ),
                            );
                            break 'scan;
                        }
                    }
                }
                _ => {
                    if !block.is_zeroed() {
                        // The journal's type checks rejected this block
                        // (corrupt descriptor or stray contents): recovery
                        // stops here, as in real JBD.
                        self.env.klog.evidence(
                            LogLevel::Warn,
                            "ext3",
                            DetectionLevel::DSanity,
                            format!("journal block {pos} invalid; recovery ends"),
                        );
                    }
                    break 'scan;
                }
            }
        }

        // Transactional checksums are validated *before* the revoke pass:
        // recovery stops at the first transaction whose checksum
        // mismatches, so a revoke carried by a discarded transaction must
        // not suppress replay of an earlier committed transaction's staged
        // copy (found by the batched-commit crash campaigns: a torn batch
        // with its commit block but missing journal data fails Tc, yet its
        // revoke records would otherwise silence the predecessor's
        // directory blocks).
        let damaged = committed
            .iter()
            .position(|txn| match (txn.checksum, txn.computed) {
                (Some(expected), Some(computed)) => computed != expected,
                _ => false,
            });
        if let Some(first) = damaged {
            // Tc detects the damaged transaction; it and everything after
            // it are not replayed (DRedundancy + RStop at transaction
            // granularity).
            self.env.klog.evidence(
                LogLevel::Error,
                "ixt3",
                DetectionLevel::DRedundancy,
                "transactional checksum mismatch; recovery stops here",
            );
            committed.truncate(first);
        }

        // Only revokes whose carrying transaction committed take effect
        // (JBD's revoke pass runs over committed transactions only).
        let committed_seqs: BTreeSet<u64> = committed.iter().map(|t| t.sequence).collect();
        let mut revoked: BTreeMap<u64, u64> = BTreeMap::new();
        for (sequence, addrs) in scanned_revokes {
            if !committed_seqs.contains(&sequence) {
                continue;
            }
            for a in addrs {
                let e = revoked.entry(a).or_insert(sequence);
                *e = (*e).max(sequence);
            }
        }

        // Pass 2: apply, in order. Redo logging is sequential: once a
        // transaction fails its checksum, later transactions may depend on
        // it, so recovery STOPS there (the paper's Tc semantics — "reliably
        // detect the crash and not replay the transaction" — generalized to
        // mid-log damage). The checksum cut already happened above, before
        // the revoke pass, so `committed` holds only transactions that
        // really replay.
        let mut mirror_writes: Vec<(u64, Block)> = Vec::new();
        for txn in &committed {
            for ((addr, ty), data) in txn.entries.iter().zip(&txn.data) {
                let suppressed = if self.opts.legacy_journal_bugs {
                    // Seed bug (see Ext3Options::legacy_journal_bugs): a
                    // revoke suppressed *every* logged copy of the block,
                    // including ones re-logged after reuse.
                    revoked.contains_key(addr)
                } else {
                    revoked.get(addr).is_some_and(|&rs| rs >= txn.sequence)
                };
                if suppressed {
                    continue;
                }
                // PAPER-NOTE: stock ext3 replays journal data with no
                // content checks — corrupted journal data lands on the home
                // location. (Detected only under Tc, above.) Not a checked
                // write: a failure gives recovery up and the mount succeeds.
                let r = self.dev.write_tagged(BlockAddr(*addr), data, ty.tag());
                if r.is_err() && self.opts.iron.fix_bugs {
                    self.abort_recovery(format!("replay write of block {addr} failed"));
                    return Ok(());
                }
                self.note_cksum(*addr, data, ty.is_metadata());
                if self.opts.iron.meta_replication && ty.is_metadata() {
                    mirror_writes.push((*addr, data.clone()));
                }
            }
        }
        for (addr, b) in mirror_writes {
            self.mirror_meta_write(addr, &b);
        }
        self.flush_cksum_blocks();

        // Journal is clean again.
        let js = JournalSuper {
            sequence: self.jseq + committed.len() as u64,
            dirty: false,
            log_len: self.layout.journal_len,
        };
        self.jseq = js.sequence;
        // Recovery semantics again: a failure remounts read-only.
        let r = self.dev.write_tagged(
            BlockAddr(self.layout.journal_super),
            &js.encode(),
            BlockType::JournalSuper.tag(),
        );
        if r.is_err() && self.opts.iron.fix_bugs {
            self.env
                .klog
                .error("ext3", "journal superblock write failed after recovery");
            self.env
                .remount_readonly("ext3", "journal superblock write failure");
        }
        self.env.klog.info(
            "ext3",
            format!(
                "recovery complete; {} transaction(s) replayed",
                committed.len()
            ),
        );
        Ok(())
    }
}
