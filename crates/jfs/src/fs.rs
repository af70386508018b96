//! The JFS model: record-level journaling and the §5.3 failure policy —
//! "the kitchen sink". Directories, file bodies and the namespace
//! operations are [`iron_vfs::flat`]'s, which makes every [`FlatStore`] a
//! `SpecificFs`; this file is what is JFS's own: the inode and
//! extent-block codecs, the generic read path, the journal, the
//! allocation maps, and every `PAPER-BUG`.

use std::collections::BTreeMap;

use iron_blockdev::{BlockDevice, RawAccess};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{
    Block, BlockAddr, DetectionLevel, Errno, IoKind, LogLevel, RecoveryLevel, BLOCK_SIZE,
};
use iron_vfs::flat::{self, Dirent, FlatStore, Node};
use iron_vfs::{Buffers, FileType, FsEnv, StatFs, VfsError, VfsResult};

use crate::journal::{pack_records, JournalSuper, LogRecord, RecordBlock};
use crate::layout::{
    AggregateInodes, BmapDesc, JfsBlockType, JfsLayout, JfsParams, JfsSuper, INODE_SIZE, ROOT_INO,
};

/// Direct block pointers per inode.
const NDIRECT: usize = 8;
/// Pointers per internal (extent) block.
const PTRS_PER_INTERNAL: usize = 1000;

/// Mount options.
#[derive(Clone, Debug)]
pub struct JfsOptions {
    /// Commit once this many records accumulate.
    pub commit_threshold: usize,
}

impl Default for JfsOptions {
    fn default() -> Self {
        JfsOptions {
            commit_threshold: 256,
        }
    }
}

/// The failure-policy table reproducing stock JFS's policy (§5.3): the
/// *generic* code re-reads any failed block exactly once (`RRetry`) and
/// then returns `EIO` (`RPropagate`) — except on the block and inode
/// allocation maps, where an unreadable block crashes the system
/// (`RStop`). A failed journal-superblock write crashes it too. Every
/// other write error is ignored and never consults the table.
pub fn jfs_stock_policy() -> FailurePolicyTable {
    use RecoveryAction::{Propagate, Retry, Stop};
    let once = Retry {
        budget: 1,
        backoff: Backoff::none(),
    };
    let (read, write) = (Some(IoKind::Read), Some(IoKind::Write));
    let journal_super = JfsBlockType::JournalSuper.tag();
    FailurePolicyTable::with_default(vec![Propagate])
        .rule(Some(JfsBlockType::Bmap.tag()), read, None, vec![once, Stop])
        .rule(Some(JfsBlockType::Imap.tag()), read, None, vec![once, Stop])
        .rule(None, read, None, vec![once, Propagate])
        .rule(Some(journal_super), write, None, vec![Stop])
}

const S_IFDIR: u32 = 0x4000;
const S_IFREG: u32 = 0x8000;
const S_IFLNK: u32 = 0xA000;

/// The type a mode word's type bits name, if any.
fn mode_type(mode: u32) -> Option<FileType> {
    match mode & 0xF000 {
        S_IFDIR => Some(FileType::Directory),
        S_IFREG => Some(FileType::Regular),
        S_IFLNK => Some(FileType::Symlink),
        _ => None,
    }
}

fn inode_is_free(di: &Node) -> bool {
    di.mode == 0 && di.nlink == 0
}

/// JFS's inode sanity check: valid type bits and plausible size (the
/// "number of entries less than the maximum possible" family of
/// checks, §5.3).
fn inode_is_sane(di: &Node) -> bool {
    mode_type(di.mode).is_some() && di.size <= ((NDIRECT + PTRS_PER_INTERNAL) * BLOCK_SIZE) as u64
}

/// Encode the 128-byte on-disk inode at `off`. The type lives in the mode
/// word's type bits, which [`Node::mode`] carries verbatim.
fn encode_inode(di: &Node, b: &mut Block, off: usize) {
    b.put_u32(off, di.mode);
    b.put_u32(off + 4, di.uid);
    b.put_u32(off + 8, di.gid);
    b.put_u32(off + 12, di.nlink);
    b.put_u64(off + 16, di.size);
    b.put_u64(off + 24, di.mtime);
    for (i, p) in di.direct.iter().enumerate() {
        b.put_u32(off + 32 + i * 4, *p);
    }
    b.put_u32(off + 64, di.indirect);
}

/// Decode without judging: an inode whose type bits name nothing reads
/// as a regular file until [`inode_is_sane`] rejects it.
fn decode_inode(b: &Block, off: usize) -> Node {
    let mode = b.get_u32(off);
    Node {
        ftype: mode_type(mode).unwrap_or(FileType::Regular),
        mode,
        uid: b.get_u32(off + 4),
        gid: b.get_u32(off + 8),
        nlink: b.get_u32(off + 12),
        size: b.get_u64(off + 16),
        mtime: b.get_u64(off + 24),
        direct: (0..NDIRECT).map(|i| b.get_u32(off + 32 + i * 4)).collect(),
        indirect: b.get_u32(off + 64),
    }
}

/// Internal (extent) block: `{count: u32}` then block pointers; count
/// bounds-checked (§5.3).
fn encode_internal(ptrs: &[u32]) -> Block {
    let mut b = Block::zeroed();
    b.put_u32(0, ptrs.len() as u32);
    for (i, p) in ptrs.iter().enumerate() {
        b.put_u32(8 + i * 4, *p);
    }
    b
}

fn decode_internal(b: &Block) -> Option<Vec<u32>> {
    let count = b.get_u32(0) as usize;
    if count > PTRS_PER_INTERNAL {
        return None;
    }
    Some((0..count).map(|i| b.get_u32(8 + i * 4)).collect())
}

/// The JFS model over a block device.
pub struct JfsFs<D: BlockDevice + RawAccess> {
    dev: D,
    env: FsEnv,
    opts: JfsOptions,
    /// [`jfs_stock_policy`], built once at mount.
    policy: PolicyHandle,
    layout: JfsLayout,
    sb: JfsSuper,
    /// Full images of the dirty metadata blocks, for the checkpoint, and
    /// the block cache.
    buf: Buffers<JfsBlockType>,
    /// Journal records for the running transaction.
    records: Vec<LogRecord>,
    jseq: u64,
    log_head: u64,
    journal_dirty_on_disk: bool,
}

impl<D: BlockDevice + RawAccess> JfsFs<D> {
    // ==================================================================
    // mkfs / mount
    // ==================================================================

    /// Format a device.
    pub fn mkfs(dev: &mut D, params: JfsParams) -> VfsResult<()> {
        let layout = JfsLayout::compute(params);
        let eio = VfsError::from;
        let root_dir_block = layout.alloc_start;

        // Maps: reserve everything up to and including the root dir block.
        let mut bmaps: Vec<Block> = (0..layout.bmap_len).map(|_| Block::zeroed()).collect();
        for b in 0..=root_dir_block {
            let bits = BLOCK_SIZE as u64 * 8;
            bmaps[(b / bits) as usize].set_bit(b % bits);
        }
        let mut imaps: Vec<Block> = (0..layout.imap_len).map(|_| Block::zeroed()).collect();
        imaps[0][0] |= 0b11; // inodes 1 (reserved) and 2 (root)

        // Root inode.
        let mut root = Node::new(
            FileType::Directory,
            Self::mode_word(FileType::Directory, 0o755),
            NDIRECT,
        );
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_dir_block as u32;
        let mut itable0 = Block::zeroed();
        let (_, off) = layout.inode_location(ROOT_INO);
        encode_inode(&root, &mut itable0, off);

        let root_entries = flat::dot_entries::<Self>(ROOT_INO, ROOT_INO);

        let free_blocks = params.total_blocks - root_dir_block - 1;
        let free_inodes = layout.total_inodes() - 2;
        let sb = JfsSuper {
            total_blocks: params.total_blocks,
            journal_blocks: params.journal_blocks,
            itable_blocks: params.itable_blocks,
            free_blocks,
            free_inodes,
            dirty: false,
        };
        let aggr = AggregateInodes {
            bmap_desc: layout.bmap_desc,
            imap_control: layout.imap_control,
            itable_start: layout.itable_start,
        };

        let w = |dev: &mut D, addr: u64, b: &Block, ty: JfsBlockType| {
            dev.write_tagged(BlockAddr(addr), b, ty.tag()).map_err(eio)
        };
        w(dev, 0, &sb.encode(), JfsBlockType::Super)?;
        w(dev, layout.alt_super, &sb.encode(), JfsBlockType::Super)?;
        w(
            dev,
            layout.journal_super,
            &JournalSuper {
                sequence: 1,
                dirty: false,
            }
            .encode(),
            JfsBlockType::JournalSuper,
        )?;
        w(
            dev,
            layout.aggr_inode,
            &aggr.encode(),
            JfsBlockType::AggrInode,
        )?;
        w(
            dev,
            layout.aggr_inode_secondary,
            &aggr.encode(),
            JfsBlockType::AggrInode,
        )?;
        w(
            dev,
            layout.bmap_desc,
            &BmapDesc { free_blocks }.encode(),
            JfsBlockType::BmapDesc,
        )?;
        for (i, bm) in bmaps.iter().enumerate() {
            w(dev, layout.bmap_start + i as u64, bm, JfsBlockType::Bmap)?;
        }
        // Imap control mirrors summary info ("summary info about imaps").
        let mut imc = Block::zeroed();
        imc.put_u64(0, free_inodes);
        imc.put_u64(8, free_inodes);
        w(dev, layout.imap_control, &imc, JfsBlockType::ImapControl)?;
        for (i, im) in imaps.iter().enumerate() {
            w(dev, layout.imap_start + i as u64, im, JfsBlockType::Imap)?;
        }
        for i in 0..params.itable_blocks {
            let block = if i == 0 {
                itable0.clone()
            } else {
                Block::zeroed()
            };
            w(dev, layout.itable_start + i, &block, JfsBlockType::Inode)?;
        }
        w(
            dev,
            root_dir_block,
            &flat::encode_dir_block(&root_entries),
            JfsBlockType::Dir,
        )?;
        dev.barrier().map_err(eio)?;
        Ok(())
    }

    /// Mount, replaying the journal if dirty.
    ///
    /// Superblock policy (§5.3): a primary read *error* falls back to the
    /// alternate copy (`RRedundancy`); a *corrupt* primary fails the mount
    /// without trying the alternate (`PAPER-BUG` inconsistency).
    pub fn mount(mut dev: D, env: FsEnv, opts: JfsOptions) -> VfsResult<Self> {
        let sb_block = match dev.read_tagged(BlockAddr(0), JfsBlockType::Super.tag()) {
            Ok(b) => b,
            Err(_) => {
                let msg = "primary superblock unreadable; trying alternate";
                env.klog
                    .evidence(LogLevel::Warn, "jfs", RecoveryLevel::RRedundancy, msg);
                match dev.read_tagged(BlockAddr(1), JfsBlockType::Super.tag()) {
                    Ok(b) => b,
                    Err(_) => {
                        env.klog.error("jfs", "alternate superblock unreadable too");
                        return Err(Errno::EIO.into());
                    }
                }
            }
        };
        let sb = match JfsSuper::decode(&sb_block) {
            Some(sb) => sb,
            None => {
                // PAPER-BUG: "it does not attempt to read the alternate if
                // it deems the primary corrupted."
                let msg = "superblock magic/version invalid; mount failed";
                return Err(env.reject("jfs", msg));
            }
        };
        let layout = JfsLayout::compute(JfsParams {
            total_blocks: sb.total_blocks,
            journal_blocks: sb.journal_blocks,
            itable_blocks: sb.itable_blocks,
        });

        let mut fs = JfsFs {
            dev,
            env,
            opts,
            policy: PolicyHandle::new(jfs_stock_policy()),
            layout,
            sb,
            buf: Buffers::new(),
            records: Vec::new(),
            jseq: 1,
            log_head: layout.journal_start,
            journal_dirty_on_disk: false,
        };

        // Aggregate inode table — PAPER-BUG: a read error does not fall
        // back to the secondary copy.
        let aggr_block = fs
            .generic_read(fs.layout.aggr_inode, JfsBlockType::AggrInode)
            .inspect_err(|_e| {
                fs.env.klog.error(
                    "jfs",
                    "aggregate inode table unreadable; secondary copy NOT consulted",
                );
            })?;
        if AggregateInodes::decode(&aggr_block).is_none() {
            let msg = "aggregate inode table corrupt; mount failed";
            return Err(fs.env.reject("jfs", msg));
        }

        // Journal superblock.
        let js_block = fs.generic_read(fs.layout.journal_super, JfsBlockType::JournalSuper)?;
        let js = match JournalSuper::decode(&js_block) {
            Some(js) => js,
            None => {
                let msg = "journal superblock invalid; mount failed";
                return Err(fs.env.reject("jfs", msg));
            }
        };
        fs.jseq = js.sequence;
        if js.dirty || fs.sb.dirty {
            fs.replay_journal()?;
        }
        fs.sb.dirty = true;
        let enc = fs.sb.encode();
        // Write errors ignored, per policy (except the journal superblock).
        let _ = fs
            .dev
            .write_tagged(BlockAddr(0), &enc, JfsBlockType::Super.tag());
        fs.buf.cache(0, enc);
        Ok(fs)
    }

    /// Format + mount.
    pub fn format_and_mount(
        mut dev: D,
        env: FsEnv,
        params: JfsParams,
        opts: JfsOptions,
    ) -> VfsResult<Self> {
        Self::mkfs(&mut dev, params)?;
        Self::mount(dev, env, opts)
    }

    /// Consume, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// The layout.
    pub fn layout(&self) -> &JfsLayout {
        &self.layout
    }

    // ==================================================================
    // Generic read helper (the "generic file system code" of §5.3).
    // ==================================================================

    /// Read with the generic-code policy: check the error code, log
    /// through the *generic* subsystem, then let [`jfs_stock_policy`]
    /// decide — one re-read, then `EIO`, or for a map block
    /// (`bmap`/`imap`) a crash (§5.3: "Explicit crashes (RStop) are used
    /// when a block allocation map or inode allocation map read fails").
    fn generic_read(&mut self, addr: u64, ty: JfsBlockType) -> VfsResult<Block> {
        let (dev, env, tag) = (&mut self.dev, &self.env, ty.tag());
        self.buf
            .get(addr, || {
                let e = match dev.read_tagged(BlockAddr(addr), tag) {
                    Ok(b) => return Ok(b),
                    Err(e) => e,
                };
                let req = (IoKind::Read, addr, tag);
                env.walk_io(&self.policy, "jfs", req, &e, |_, _| {
                    env.klog.error(
                        "generic",
                        format!("I/O error reading block {addr}; retrying once"),
                    );
                    dev.read_tagged(BlockAddr(addr), tag)
                })
            })
            .cloned()
    }

    // ==================================================================
    // Journaling (record-level).
    // ==================================================================

    /// Stage a full-block image for checkpoint and append journal records
    /// covering `ranges` of it.
    fn stage(&mut self, addr: u64, block: Block, ty: JfsBlockType, ranges: &[(usize, usize)]) {
        for (off, len) in ranges {
            // Split ranges so each record fits a log block.
            let mut o = *off;
            let end = off + len;
            while o < end {
                let take = (end - o).min(2048);
                self.records.push(LogRecord {
                    addr,
                    offset: o as u16,
                    data: block.get_bytes(o, take).to_vec(),
                });
                o += take;
            }
        }
        self.buf.stage(addr, block, ty);
    }

    /// Stage bitmap block `bm`, journaling only the byte that holds `bit`.
    fn stage_bit(&mut self, addr: u64, bm: Block, ty: JfsBlockType, bit: u64) {
        self.stage(addr, bm, ty, &[((bit / 8) as usize, 1)]);
    }

    /// Commit: journal-superblock (write error ⇒ crash), record blocks
    /// (write errors ignored — `PAPER-BUG` family), checkpoint (write
    /// errors ignored), journal-superblock clean (write error ⇒ crash).
    pub fn commit(&mut self) -> VfsResult<()> {
        if self.records.is_empty() && self.buf.is_empty() {
            return Ok(());
        }
        let seq = self.jseq;
        let blocks = pack_records(seq, &self.records);
        if self.log_head + blocks.len() as u64 > self.layout.journal_start + self.layout.journal_len
        {
            self.log_head = self.layout.journal_start;
        }
        // Journal superblock: the one write JFS refuses to lose. The
        // recorded sequence is the first unflushed transaction, so replay
        // can stop at stale log tails.
        if !self.journal_dirty_on_disk {
            self.write_journal_super(JournalSuper {
                sequence: seq,
                dirty: true,
            })?;
            self.journal_dirty_on_disk = true;
        }
        for rb in &blocks {
            // Other write errors ignored entirely (RZero).
            let _ = self.dev.write_tagged(
                BlockAddr(self.log_head),
                &rb.encode(),
                JfsBlockType::JournalData.tag(),
            );
            self.log_head += 1;
        }
        let _ = self.dev.barrier();
        self.jseq = seq + 1;
        self.records.clear();

        // Checkpoint; write errors ignored (DZero / RZero).
        for (addr, b, ty) in self.buf.drain() {
            let _ = self.dev.write_tagged(BlockAddr(addr), &b, ty.tag());
        }
        self.write_journal_super(JournalSuper {
            sequence: self.jseq,
            dirty: false,
        })?;
        self.journal_dirty_on_disk = false;
        self.log_head = self.layout.journal_start;
        Ok(())
    }

    /// Write the journal superblock, the one write JFS refuses to lose: a
    /// failure is logged and handed to [`jfs_stock_policy`], whose write
    /// chain for it crashes the system.
    fn write_journal_super(&mut self, js: JournalSuper) -> VfsResult<()> {
        let (dev, block) = (&mut self.dev, js.encode());
        let (addr, tag) = (self.layout.journal_super, JfsBlockType::JournalSuper.tag());
        let Err(e) = dev.write_tagged(BlockAddr(addr), &block, tag) else {
            return Ok(());
        };
        self.env
            .klog
            .error("jfs", "fatal: journal superblock write failed");
        let req = (IoKind::Write, addr, tag);
        self.env.walk_io(&self.policy, "jfs", req, &e, |_, _| {
            dev.write_tagged(BlockAddr(addr), &block, tag)
        })
    }

    /// Replay: apply committed record transactions; a sanity-check failure
    /// in the log aborts the replay (§5.3: "during journal replay, a
    /// sanity-check failure causes the replay to abort (RStop)").
    fn replay_journal(&mut self) -> VfsResult<()> {
        self.env.klog.info("jfs", "journal replay started");
        let start = self.layout.journal_start;
        let end = start + self.layout.journal_len;
        let mut pos = start;
        let mut pending: Vec<LogRecord> = Vec::new();
        let mut committed: Vec<LogRecord> = Vec::new();
        let mut applied = 0;
        while pos < end {
            let block = match self
                .dev
                .read_tagged(BlockAddr(pos), JfsBlockType::JournalData.tag())
            {
                Ok(b) => b,
                Err(_) => {
                    self.env.klog.error(
                        "jfs",
                        format!("journal block {pos} unreadable; replay aborted"),
                    );
                    self.env.remount_readonly("jfs", "journal replay aborted");
                    return Ok(());
                }
            };
            if block.is_zeroed() {
                break; // end of log
            }
            let Some(rb) = RecordBlock::decode(&block) else {
                self.env.klog.evidence(
                    LogLevel::Error,
                    "jfs",
                    DetectionLevel::DSanity,
                    format!("journal block {pos} failed sanity check; replay aborted"),
                );
                self.env.remount_readonly("jfs", "journal replay aborted");
                return Ok(());
            };
            if rb.sequence < self.jseq {
                break; // stale tail from a checkpointed transaction
            }
            pending.extend(rb.records);
            if rb.commit {
                committed.append(&mut pending);
                applied += 1;
            }
            pos += 1;
        }
        // Apply the committed records in log order, honoring NOREDOPAGE: a
        // no-redo marker for a block suppresses every record for it logged
        // earlier (the block was freed there; redoing stale bytes would
        // corrupt whatever reallocated it), while records logged after the
        // marker still apply.
        let mut last_noredo: BTreeMap<u64, usize> = BTreeMap::new();
        for (p, r) in committed.iter().enumerate() {
            if r.is_noredo() {
                last_noredo.insert(r.addr, p);
            }
        }
        for (p, r) in committed.iter().enumerate() {
            if r.is_noredo() || last_noredo.get(&r.addr).is_some_and(|&q| q > p) {
                continue;
            }
            let mut home = match self.dev.read(BlockAddr(r.addr)) {
                Ok(b) => b,
                Err(_) => {
                    self.env.klog.error(
                        "jfs",
                        format!("home block {} unreadable during replay", r.addr),
                    );
                    self.env.remount_readonly("jfs", "journal replay aborted");
                    return Ok(());
                }
            };
            home.put_bytes(r.offset as usize, &r.data);
            let _ = self.dev.write(BlockAddr(r.addr), &home);
        }
        let js = JournalSuper {
            sequence: self.jseq + applied,
            dirty: false,
        };
        self.jseq = js.sequence;
        let _ = self.dev.write_tagged(
            BlockAddr(self.layout.journal_super),
            &js.encode(),
            JfsBlockType::JournalSuper.tag(),
        );
        self.env.klog.info(
            "jfs",
            format!("journal replay complete: {applied} transaction(s)"),
        );
        Ok(())
    }

    // ==================================================================
    // Allocation summaries and raw inode reads.
    // ==================================================================

    fn update_super_and_desc(&mut self) {
        let enc = self.sb.encode();
        self.stage(0, enc, JfsBlockType::Super, &[(0, 64)]);
        let desc = BmapDesc {
            free_blocks: self.sb.free_blocks,
        }
        .encode();
        self.stage(
            self.layout.bmap_desc,
            desc,
            JfsBlockType::BmapDesc,
            &[(0, 16)],
        );
    }

    fn get_inode_raw(&mut self, ino: u64) -> VfsResult<Node> {
        if ino == 0 || ino > self.layout.total_inodes() {
            return Err(Errno::ENOENT.into());
        }
        let (blk, off) = self.layout.inode_location(ino);
        let b = self.generic_read(blk.0, JfsBlockType::Inode)?;
        Ok(decode_inode(&b, off))
    }
}

/// JFS's storage primitives under the shared flat-inode file model.
impl<D: BlockDevice + RawAccess> FlatStore for JfsFs<D> {
    const SUBSYSTEM: &'static str = "jfs";
    const ROOT: u64 = ROOT_INO;
    const NDIRECT: usize = NDIRECT;
    const NINDIRECT: usize = PTRS_PER_INTERNAL;
    const SYMLINK_CODE: u8 = 7;

    fn fs_env(&self) -> &FsEnv {
        &self.env
    }

    fn sync_all(&mut self) -> VfsResult<()> {
        self.commit()?;
        self.dev.flush().map_err(VfsError::from)
    }

    fn stat(&self) -> StatFs {
        StatFs {
            block_size: BLOCK_SIZE as u32,
            blocks: self.sb.total_blocks - self.layout.alloc_start,
            blocks_free: self.sb.free_blocks,
            inodes: self.layout.total_inodes(),
            inodes_free: self.sb.free_inodes,
        }
    }

    fn shut_down(&mut self) -> VfsResult<()> {
        self.commit()?;
        self.sb.dirty = false;
        let enc = self.sb.encode();
        let _ = self
            .dev
            .write_tagged(BlockAddr(0), &enc, JfsBlockType::Super.tag());
        let _ = self.dev.flush();
        Ok(())
    }

    fn mode_word(ftype: FileType, perm: u32) -> u32 {
        let bits = match ftype {
            FileType::Regular => S_IFREG,
            FileType::Directory => S_IFDIR,
            FileType::Symlink => S_IFLNK,
        };
        bits | (perm & 0o7777)
    }

    fn load_node(&mut self, ino: u64) -> VfsResult<Node> {
        let di = self.get_inode_raw(ino)?;
        if inode_is_free(&di) {
            return Err(Errno::ENOENT.into());
        }
        if !inode_is_sane(&di) {
            let msg = format!("inode {ino} failed sanity check; remounting read-only");
            let err = self.env.reject("jfs", msg);
            self.env.remount_readonly("jfs", "corrupt inode");
            return Err(err);
        }
        Ok(di)
    }

    fn load_unlink_victim(&mut self, ino: u64) -> VfsResult<Option<Node>> {
        // PAPER-BUG: "although generic code detects read errors and
        // retries, a bug in the JFS implementation leads to ignoring the
        // error and corrupting the file system" — a failed inode read here
        // is ignored and unlink proceeds as if the inode were blank: the
        // entry disappears, but the file's blocks are never freed and the
        // inode slot is clobbered. Nor is the inode sanity-checked.
        Ok(self.get_inode_raw(ino).ok().filter(|di| !inode_is_free(di)))
    }

    fn store_node(&mut self, ino: u64, di: &Node) -> VfsResult<()> {
        let (blk, off) = self.layout.inode_location(ino);
        let mut b = self.generic_read(blk.0, JfsBlockType::Inode)?;
        encode_inode(di, &mut b, off);
        self.stage(blk.0, b, JfsBlockType::Inode, &[(off, INODE_SIZE)]);
        Ok(())
    }

    fn alloc_block(&mut self) -> VfsResult<u64> {
        for i in 0..self.layout.bmap_len {
            let bm_addr = self.layout.bmap_start + i;
            let mut bm = self.generic_read(bm_addr, JfsBlockType::Bmap)?;
            let bits = BLOCK_SIZE as u64 * 8;
            let limit = bits.min(self.sb.total_blocks - i * bits);
            if let Some(bit) = bm.first_zero_bit(limit, 0) {
                bm.set_bit(bit);
                self.stage_bit(bm_addr, bm, JfsBlockType::Bmap, bit);
                self.sb.free_blocks -= 1;
                self.update_super_and_desc();
                return Ok(i * bits + bit);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let blocks = self.layout.alloc_start..self.layout.params.total_blocks;
        self.env.check_bitmap_index("jfs", "block", addr, blocks)?;
        let (bm_addr, bit) = self.layout.bmap_location(addr);
        let mut bm = self.generic_read(bm_addr.0, JfsBlockType::Bmap)?;
        bm.clear_bit(bit);
        self.stage_bit(bm_addr.0, bm, JfsBlockType::Bmap, bit);
        self.sb.free_blocks += 1;
        self.update_super_and_desc();
        // Forget the freed page, as real JFS does: drop its cached and
        // staged images and its pending byte-range records, and log a
        // NOREDOPAGE marker so replay of already-committed transactions
        // cannot redo stale bytes onto the block once it is reallocated
        // (found by the iron-crash enumerator: a directory block freed and
        // reused as file data within one transaction was clobbered at
        // checkpoint even without a crash).
        self.buf.forget(addr);
        self.records.retain(|r| r.addr != addr);
        self.records.push(LogRecord::noredo(addr));
        Ok(())
    }

    fn alloc_node(&mut self) -> VfsResult<u64> {
        for i in 0..self.layout.imap_len {
            let im_addr = self.layout.imap_start + i;
            let mut im = self.generic_read(im_addr, JfsBlockType::Imap)?;
            let bits = BLOCK_SIZE as u64 * 8;
            let limit = bits.min(self.layout.total_inodes() - i * bits);
            if let Some(bit) = im.first_zero_bit(limit, 0) {
                im.set_bit(bit);
                self.stage_bit(im_addr, im, JfsBlockType::Imap, bit);
                self.sb.free_inodes -= 1;
                self.update_super_and_desc();
                return Ok(i * bits + bit + 1);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_node(&mut self, ino: u64) -> VfsResult<()> {
        // Inode numbers are 1-based; one read from a directory entry is
        // checked before it names an imap bit.
        let inodes = 1..self.layout.total_inodes() + 1;
        self.env.check_bitmap_index("jfs", "inode", ino, inodes)?;
        let (im_addr, bit) = self.layout.imap_location(ino);
        let mut im = self.generic_read(im_addr.0, JfsBlockType::Imap)?;
        im.clear_bit(bit);
        self.stage_bit(im_addr.0, im, JfsBlockType::Imap, bit);
        self.sb.free_inodes += 1;
        self.update_super_and_desc();
        self.store_node(ino, &Node::free(NDIRECT))
    }

    fn alloc_ptr_block(&mut self) -> VfsResult<u64> {
        let nb = self.alloc_block()?;
        self.stage(nb, encode_internal(&[]), JfsBlockType::Internal, &[(0, 8)]);
        Ok(nb)
    }

    /// The internal extent block's sanity check failing returns a **blank
    /// page** (`RGuess`, PAPER-BUG) — modeled by treating the whole extent
    /// list as empty.
    fn read_ptr(&mut self, block: u64, slot: usize) -> VfsResult<u64> {
        let b = self.generic_read(block, JfsBlockType::Internal)?;
        match decode_internal(&b) {
            Some(ptrs) => Ok(ptrs.get(slot).copied().unwrap_or(0) as u64),
            None => {
                // PAPER-BUG: "a blank page is sometimes returned to the
                // user … when a read to an internal tree block does not
                // pass its sanity check." No error, no log.
                Ok(0)
            }
        }
    }

    fn write_ptr(&mut self, block: u64, slot: usize, addr: u64) -> VfsResult<()> {
        let b = self.generic_read(block, JfsBlockType::Internal)?;
        let mut ptrs = decode_internal(&b).unwrap_or_default();
        if ptrs.len() <= slot {
            ptrs.resize(slot + 1, 0);
        }
        ptrs[slot] = addr as u32;
        self.stage(
            block,
            encode_internal(&ptrs),
            JfsBlockType::Internal,
            &[(0, 8 + ptrs.len() * 4)],
        );
        Ok(())
    }

    /// A failed sanity check propagates and remounts read-only (§5.3's
    /// general sanity reaction).
    fn read_dir_block(&mut self, addr: u64) -> VfsResult<Vec<Dirent>> {
        let b = self.generic_read(addr, JfsBlockType::Dir)?;
        flat::decode_dir_block(&b).ok_or_else(|| {
            let msg = format!("directory block {addr} failed sanity check");
            let err = self.env.reject("jfs", msg);
            self.env.remount_readonly("jfs", "corrupt directory");
            err
        })
    }

    /// Journals the bytes the entries occupy, not the whole block.
    fn write_dir_block(&mut self, addr: u64, entries: &[Dirent]) -> VfsResult<()> {
        let used = 64 + entries.iter().map(Dirent::packed_len).sum::<usize>();
        self.stage(
            addr,
            flat::encode_dir_block(entries),
            JfsBlockType::Dir,
            &[(0, BLOCK_SIZE.min(used))],
        );
        Ok(())
    }

    fn read_data(&mut self, addr: u64) -> VfsResult<Block> {
        self.generic_read(addr, JfsBlockType::Data)
    }

    /// Data writes: error code recorded nowhere — ignored (DZero), like
    /// ext3 (§5.3: "like ext3, most write errors are ignored").
    fn write_data(&mut self, addr: u64, block: &Block) -> VfsResult<()> {
        let _ = self
            .dev
            .write_tagged(BlockAddr(addr), block, JfsBlockType::Data.tag());
        self.buf.cache(addr, block.clone());
        Ok(())
    }

    /// Commit once enough records have accumulated.
    fn end(&mut self) -> VfsResult<()> {
        if self.records.len() >= self.opts.commit_threshold {
            self.commit()
        } else {
            Ok(())
        }
    }
}
