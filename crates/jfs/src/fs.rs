//! The JFS model: operations, record-level journaling, and the §5.3
//! failure policy — "the kitchen sink".

use std::collections::{BTreeMap, HashMap};

use iron_blockdev::{BlockDevice, RawAccess};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{Block, BlockAddr, Errno, IoKind, BLOCK_SIZE};
use iron_vfs::{
    DirEntry, FileType, FsEnv, InodeAttr, MountState, SpecificFs, StatFs, VfsError, VfsResult,
};

use crate::journal::{pack_records, JournalSuper, LogRecord, RecordBlock};
use crate::layout::{
    AggregateInodes, BmapDesc, JfsBlockType, JfsLayout, JfsParams, JfsSuper, INODE_SIZE, ROOT_INO,
};

/// Direct block pointers per inode.
const NDIRECT: usize = 8;
/// Pointers per internal (extent) block.
const PTRS_PER_INTERNAL: usize = 1000;
/// Maximum directory entries per dir block (sanity-checked bound).
const DIR_MAX_ENTRIES: usize = 128;

/// Mount options.
#[derive(Clone, Debug)]
pub struct JfsOptions {
    /// Commit once this many records accumulate.
    pub commit_threshold: usize,
    /// Stop commits after the log write (simulated crash window).
    pub crash_mode: bool,
}

impl Default for JfsOptions {
    fn default() -> Self {
        JfsOptions {
            commit_threshold: 256,
            crash_mode: false,
        }
    }
}

/// The failure-policy table reproducing stock JFS's read policy (§5.3):
/// the *generic* code re-reads any failed block exactly once (`RRetry`)
/// and then returns `EIO` (`RPropagate`) — except on the block and inode
/// allocation maps, where an unreadable block crashes the system
/// (`RStop`). Write errors never reach the table: stock JFS ignores them
/// (or, for the journal superblock, crashes on the spot).
pub fn jfs_stock_policy() -> FailurePolicyTable {
    use RecoveryAction::{Propagate, Retry, Stop};
    let once = Retry {
        budget: 1,
        backoff: Backoff::none(),
    };
    let read = Some(IoKind::Read);
    FailurePolicyTable::with_default(vec![Propagate])
        .rule(Some(JfsBlockType::Bmap.tag()), read, None, vec![once, Stop])
        .rule(Some(JfsBlockType::Imap.tag()), read, None, vec![once, Stop])
        .rule(None, read, None, vec![once, Propagate])
}

/// A JFS inode (128-byte on-disk record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct JInode {
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    size: u64,
    mtime: u64,
    direct: [u32; NDIRECT],
    internal: u32,
}

const S_IFDIR: u32 = 0x4000;
const S_IFREG: u32 = 0x8000;
const S_IFLNK: u32 = 0xA000;

impl JInode {
    fn empty() -> Self {
        JInode {
            mode: 0,
            uid: 0,
            gid: 0,
            nlink: 0,
            size: 0,
            mtime: 0,
            direct: [0; NDIRECT],
            internal: 0,
        }
    }

    fn new(ftype: FileType, perm: u32) -> Self {
        let bits = match ftype {
            FileType::Regular => S_IFREG,
            FileType::Directory => S_IFDIR,
            FileType::Symlink => S_IFLNK,
        };
        JInode {
            mode: bits | (perm & 0o7777),
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            ..JInode::empty()
        }
    }

    fn is_free(&self) -> bool {
        self.mode == 0 && self.nlink == 0
    }

    fn file_type(&self) -> Option<FileType> {
        match self.mode & 0xF000 {
            S_IFDIR => Some(FileType::Directory),
            S_IFREG => Some(FileType::Regular),
            S_IFLNK => Some(FileType::Symlink),
            _ => None,
        }
    }

    /// JFS's inode sanity check: valid type bits and plausible size (the
    /// "number of entries less than the maximum possible" family of
    /// checks, §5.3).
    fn sanity_check(&self) -> bool {
        self.file_type().is_some()
            && self.size <= ((NDIRECT + PTRS_PER_INTERNAL) * BLOCK_SIZE) as u64
    }

    fn encode_into(&self, b: &mut Block, off: usize) {
        b.put_u32(off, self.mode);
        b.put_u32(off + 4, self.uid);
        b.put_u32(off + 8, self.gid);
        b.put_u32(off + 12, self.nlink);
        b.put_u64(off + 16, self.size);
        b.put_u64(off + 24, self.mtime);
        for (i, p) in self.direct.iter().enumerate() {
            b.put_u32(off + 32 + i * 4, *p);
        }
        b.put_u32(off + 64, self.internal);
    }

    fn decode_from(b: &Block, off: usize) -> JInode {
        let mut direct = [0u32; NDIRECT];
        for (i, p) in direct.iter_mut().enumerate() {
            *p = b.get_u32(off + 32 + i * 4);
        }
        JInode {
            mode: b.get_u32(off),
            uid: b.get_u32(off + 4),
            gid: b.get_u32(off + 8),
            nlink: b.get_u32(off + 12),
            size: b.get_u64(off + 16),
            mtime: b.get_u64(off + 24),
            direct,
            internal: b.get_u32(off + 64),
        }
    }
}

/// Directory block: `{count: u16}` header then packed entries
/// `{ino: u32, ftype: u8, name_len: u8, name}`. The count is
/// sanity-checked against [`DIR_MAX_ENTRIES`] (§5.3).
fn encode_dir_block(entries: &[(u32, u8, String)]) -> Block {
    let mut b = Block::zeroed();
    b.put_u16(0, entries.len() as u16);
    let mut off = 4;
    for (ino, ftype, name) in entries {
        b.put_u32(off, *ino);
        b[off + 4] = *ftype;
        b[off + 5] = name.len() as u8;
        b.put_bytes(off + 6, name.as_bytes());
        off += 6 + name.len();
    }
    b
}

fn decode_dir_block(b: &Block) -> Option<Vec<(u32, u8, String)>> {
    let count = b.get_u16(0) as usize;
    if count > DIR_MAX_ENTRIES {
        return None; // sanity: entry count exceeds the maximum possible
    }
    let mut out = Vec::with_capacity(count);
    let mut off = 4;
    for _ in 0..count {
        if off + 6 > BLOCK_SIZE {
            return None;
        }
        let ino = b.get_u32(off);
        let ftype = b[off + 4];
        let n = b[off + 5] as usize;
        if off + 6 + n > BLOCK_SIZE {
            return None;
        }
        let name = String::from_utf8_lossy(b.get_bytes(off + 6, n)).into_owned();
        out.push((ino, ftype, name));
        off += 6 + n;
    }
    Some(out)
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

fn ftype_code(t: FileType) -> u8 {
    match t {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 7,
    }
}

fn ftype_from(c: u8) -> FileType {
    match c {
        2 => FileType::Directory,
        7 => FileType::Symlink,
        _ => FileType::Regular,
    }
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
    /// Dirty metadata blocks (full images, for checkpoint), in dirty order.
    dirty_order: Vec<u64>,
    dirty: HashMap<u64, (Block, JfsBlockType)>,
    /// Journal records for the running transaction.
    records: Vec<LogRecord>,
    cache: HashMap<u64, Block>,
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
            bmaps[(b / bits) as usize][(b % bits / 8) as usize] |= 1 << (b % 8);
        }
        let mut imaps: Vec<Block> = (0..layout.imap_len).map(|_| Block::zeroed()).collect();
        imaps[0][0] |= 0b11; // inodes 1 (reserved) and 2 (root)

        // Root inode.
        let mut root = JInode::new(FileType::Directory, 0o755);
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_dir_block as u32;
        let mut itable0 = Block::zeroed();
        let (_, off) = layout.inode_location(ROOT_INO);
        root.encode_into(&mut itable0, off);

        let root_entries = vec![
            (
                ROOT_INO as u32,
                ftype_code(FileType::Directory),
                ".".to_string(),
            ),
            (
                ROOT_INO as u32,
                ftype_code(FileType::Directory),
                "..".to_string(),
            ),
        ];

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
            &encode_dir_block(&root_entries),
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
                env.klog
                    .warn("jfs", "primary superblock unreadable; trying alternate");
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
                env.klog
                    .error("jfs", "superblock magic/version invalid; mount failed");
                return Err(Errno::EUCLEAN.into());
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
            dirty_order: Vec::new(),
            dirty: HashMap::new(),
            records: Vec::new(),
            cache: HashMap::new(),
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
            fs.env
                .klog
                .error("jfs", "aggregate inode table corrupt; mount failed");
            return Err(Errno::EUCLEAN.into());
        }

        // Journal superblock.
        let js_block = fs.generic_read(fs.layout.journal_super, JfsBlockType::JournalSuper)?;
        let js = match JournalSuper::decode(&js_block) {
            Some(js) => js,
            None => {
                fs.env
                    .klog
                    .error("jfs", "journal superblock invalid; mount failed");
                return Err(Errno::EUCLEAN.into());
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
        fs.cache.insert(0, enc);
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
        if let Some((b, _)) = self.dirty.get(&addr) {
            return Ok(b.clone());
        }
        if let Some(b) = self.cache.get(&addr) {
            return Ok(b.clone());
        }
        let (dev, env, tag) = (&mut self.dev, &self.env, ty.tag());
        let b = match dev.read_tagged(BlockAddr(addr), tag) {
            Ok(b) => b,
            Err(e) => {
                let req = (IoKind::Read, addr, tag);
                env.walk_io(&self.policy, "jfs", req, &e, |_, _| {
                    env.klog.error(
                        "generic",
                        format!("I/O error reading block {addr}; retrying once"),
                    );
                    dev.read_tagged(BlockAddr(addr), tag)
                })?
            }
        };
        self.cache.insert(addr, b.clone());
        Ok(b)
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
        if !self.dirty.contains_key(&addr) {
            self.dirty_order.push(addr);
        }
        self.cache.insert(addr, block.clone());
        self.dirty.insert(addr, (block, ty));
    }

    fn maybe_commit(&mut self) -> VfsResult<()> {
        if self.records.len() >= self.opts.commit_threshold {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Commit: journal-superblock (write error ⇒ crash), record blocks
    /// (write errors ignored — `PAPER-BUG` family), checkpoint (write
    /// errors ignored), journal-superblock clean (write error ⇒ crash).
    pub fn commit(&mut self) -> VfsResult<()> {
        if self.records.is_empty() && self.dirty.is_empty() {
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
            let js = JournalSuper {
                sequence: seq,
                dirty: true,
            };
            if self
                .dev
                .write_tagged(
                    BlockAddr(self.layout.journal_super),
                    &js.encode(),
                    JfsBlockType::JournalSuper.tag(),
                )
                .is_err()
            {
                return Err(self
                    .env
                    .panic("jfs", "fatal: journal superblock write failed"));
            }
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

        if self.opts.crash_mode {
            self.dirty.clear();
            self.dirty_order.clear();
            return Ok(());
        }

        // Checkpoint; write errors ignored (DZero / RZero).
        for addr in std::mem::take(&mut self.dirty_order) {
            if let Some((b, ty)) = self.dirty.remove(&addr) {
                let _ = self.dev.write_tagged(BlockAddr(addr), &b, ty.tag());
            }
        }
        self.dirty.clear();

        let js_clean = JournalSuper {
            sequence: self.jseq,
            dirty: false,
        };
        if self
            .dev
            .write_tagged(
                BlockAddr(self.layout.journal_super),
                &js_clean.encode(),
                JfsBlockType::JournalSuper.tag(),
            )
            .is_err()
        {
            return Err(self
                .env
                .panic("jfs", "fatal: journal superblock write failed"));
        }
        self.journal_dirty_on_disk = false;
        self.log_head = self.layout.journal_start;
        Ok(())
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
                self.env.klog.error(
                    "jfs",
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
    // Allocation.
    // ==================================================================

    fn alloc_block(&mut self) -> VfsResult<u64> {
        for i in 0..self.layout.bmap_len {
            let bm_addr = self.layout.bmap_start + i;
            let mut bm = self.generic_read(bm_addr, JfsBlockType::Bmap)?;
            let bits = BLOCK_SIZE as u64 * 8;
            let limit = bits.min(self.sb.total_blocks - i * bits);
            for bit in 0..limit {
                let byte = (bit / 8) as usize;
                if bm[byte] & (1 << (bit % 8)) == 0 {
                    bm[byte] |= 1 << (bit % 8);
                    self.stage(bm_addr, bm, JfsBlockType::Bmap, &[(byte, 1)]);
                    self.sb.free_blocks -= 1;
                    self.update_super_and_desc();
                    return Ok(i * bits + bit);
                }
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let (bm_addr, bit) = self.layout.bmap_location(addr);
        let mut bm = self.generic_read(bm_addr.0, JfsBlockType::Bmap)?;
        let byte = (bit / 8) as usize;
        bm[byte] &= !(1 << (bit % 8));
        self.stage(bm_addr.0, bm, JfsBlockType::Bmap, &[(byte, 1)]);
        self.sb.free_blocks += 1;
        self.update_super_and_desc();
        self.cache.remove(&addr);
        // Forget the freed page, as real JFS does: drop its staged
        // checkpoint image and its pending byte-range records, and log a
        // NOREDOPAGE marker so replay of already-committed transactions
        // cannot redo stale bytes onto the block once it is reallocated
        // (found by the iron-crash enumerator: a directory block freed and
        // reused as file data within one transaction was clobbered at
        // checkpoint even without a crash).
        self.dirty.remove(&addr);
        self.records.retain(|r| r.addr != addr);
        self.records.push(LogRecord::noredo(addr));
        Ok(())
    }

    fn alloc_inode(&mut self) -> VfsResult<u64> {
        for i in 0..self.layout.imap_len {
            let im_addr = self.layout.imap_start + i;
            let mut im = self.generic_read(im_addr, JfsBlockType::Imap)?;
            let bits = BLOCK_SIZE as u64 * 8;
            let limit = bits.min(self.layout.total_inodes() - i * bits);
            for bit in 0..limit {
                let byte = (bit / 8) as usize;
                if im[byte] & (1 << (bit % 8)) == 0 {
                    im[byte] |= 1 << (bit % 8);
                    self.stage(im_addr, im, JfsBlockType::Imap, &[(byte, 1)]);
                    self.sb.free_inodes -= 1;
                    self.update_super_and_desc();
                    return Ok(i * bits + bit + 1);
                }
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_inode(&mut self, ino: u64) -> VfsResult<()> {
        let (im_addr, bit) = self.layout.imap_location(ino);
        let mut im = self.generic_read(im_addr.0, JfsBlockType::Imap)?;
        let byte = (bit / 8) as usize;
        im[byte] &= !(1 << (bit % 8));
        self.stage(im_addr.0, im, JfsBlockType::Imap, &[(byte, 1)]);
        self.sb.free_inodes += 1;
        self.update_super_and_desc();
        self.put_inode(ino, &JInode::empty())
    }

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

    // ==================================================================
    // Inodes and file bodies.
    // ==================================================================

    fn get_inode_raw(&mut self, ino: u64) -> VfsResult<JInode> {
        if ino == 0 || ino > self.layout.total_inodes() {
            return Err(Errno::ENOENT.into());
        }
        let (blk, off) = self.layout.inode_location(ino);
        let b = self.generic_read(blk.0, JfsBlockType::Inode)?;
        Ok(JInode::decode_from(&b, off))
    }

    fn get_inode(&mut self, ino: u64) -> VfsResult<JInode> {
        let di = self.get_inode_raw(ino)?;
        if di.is_free() {
            return Err(Errno::ENOENT.into());
        }
        if !di.sanity_check() {
            self.env.klog.error(
                "jfs",
                format!("inode {ino} failed sanity check; remounting read-only"),
            );
            self.env.remount_readonly("jfs", "corrupt inode");
            return Err(Errno::EUCLEAN.into());
        }
        Ok(di)
    }

    fn put_inode(&mut self, ino: u64, di: &JInode) -> VfsResult<()> {
        let (blk, off) = self.layout.inode_location(ino);
        let mut b = self.generic_read(blk.0, JfsBlockType::Inode)?;
        di.encode_into(&mut b, off);
        self.stage(blk.0, b, JfsBlockType::Inode, &[(off, INODE_SIZE)]);
        Ok(())
    }

    /// File block `idx` → device address (0 = hole). The internal extent
    /// block's sanity check failing returns a **blank page** (`RGuess`,
    /// PAPER-BUG) — modeled by treating the whole extent list as empty.
    fn file_block(&mut self, di: &JInode, idx: u64) -> VfsResult<u64> {
        if idx < NDIRECT as u64 {
            return Ok(di.direct[idx as usize] as u64);
        }
        let idx = idx - NDIRECT as u64;
        if idx >= PTRS_PER_INTERNAL as u64 {
            return Err(Errno::EFBIG.into());
        }
        if di.internal == 0 {
            return Ok(0);
        }
        let b = self.generic_read(di.internal as u64, JfsBlockType::Internal)?;
        match decode_internal(&b) {
            Some(ptrs) => Ok(ptrs.get(idx as usize).copied().unwrap_or(0) as u64),
            None => {
                // PAPER-BUG: "a blank page is sometimes returned to the
                // user … when a read to an internal tree block does not
                // pass its sanity check." No error, no log.
                Ok(0)
            }
        }
    }

    fn set_file_block(&mut self, di: &mut JInode, idx: u64, addr: u64) -> VfsResult<()> {
        if idx < NDIRECT as u64 {
            di.direct[idx as usize] = addr as u32;
            return Ok(());
        }
        let idx = (idx - NDIRECT as u64) as usize;
        if idx >= PTRS_PER_INTERNAL {
            return Err(Errno::EFBIG.into());
        }
        if di.internal == 0 {
            let nb = self.alloc_block()?;
            di.internal = nb as u32;
            self.stage(nb, encode_internal(&[]), JfsBlockType::Internal, &[(0, 8)]);
        }
        let iaddr = di.internal as u64;
        let b = self.generic_read(iaddr, JfsBlockType::Internal)?;
        let mut ptrs = decode_internal(&b).unwrap_or_default();
        if ptrs.len() <= idx {
            ptrs.resize(idx + 1, 0);
        }
        ptrs[idx] = addr as u32;
        self.stage(
            iaddr,
            encode_internal(&ptrs),
            JfsBlockType::Internal,
            &[(0, 8 + ptrs.len() * 4)],
        );
        Ok(())
    }

    fn read_data(&mut self, addr: u64) -> VfsResult<Block> {
        self.generic_read(addr, JfsBlockType::Data)
    }

    /// Data writes: error code recorded nowhere — ignored (DZero), like
    /// ext3 (§5.3: "like ext3, most write errors are ignored").
    fn write_data(&mut self, addr: u64, block: &Block) {
        let _ = self
            .dev
            .write_tagged(BlockAddr(addr), block, JfsBlockType::Data.tag());
        self.cache.insert(addr, block.clone());
    }

    // ==================================================================
    // Directories.
    // ==================================================================

    /// Read a directory's entries. A failed sanity check propagates and
    /// remounts read-only (§5.3's general sanity reaction).
    fn dir_entries(&mut self, di: &JInode) -> VfsResult<Vec<(u32, u8, String)>> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::new();
        for idx in 0..nblocks {
            let addr = self.file_block(di, idx)?;
            if addr == 0 {
                continue;
            }
            let b = self.generic_read(addr, JfsBlockType::Dir)?;
            match decode_dir_block(&b) {
                Some(entries) => out.extend(entries),
                None => {
                    self.env
                        .klog
                        .error("jfs", format!("directory block {addr} failed sanity check"));
                    self.env.remount_readonly("jfs", "corrupt directory");
                    return Err(Errno::EUCLEAN.into());
                }
            }
        }
        Ok(out)
    }

    fn write_dir(
        &mut self,
        ino: u64,
        di: &mut JInode,
        entries: &[(u32, u8, String)],
    ) -> VfsResult<()> {
        // Pack into blocks of at most DIR_MAX_ENTRIES and capacity bytes.
        let mut blocks: Vec<Vec<(u32, u8, String)>> = vec![Vec::new()];
        let mut used = 4usize;
        for e in entries {
            let sz = 6 + e.2.len();
            let last = blocks.last_mut().expect("nonempty");
            if used + sz > BLOCK_SIZE || last.len() >= DIR_MAX_ENTRIES {
                blocks.push(Vec::new());
                used = 4;
            }
            blocks.last_mut().expect("nonempty").push(e.clone());
            used += sz;
        }
        let old_nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        for (idx, chunk) in blocks.iter().enumerate() {
            let mut addr = self.file_block(di, idx as u64)?;
            if addr == 0 {
                addr = self.alloc_block()?;
                self.set_file_block(di, idx as u64, addr)?;
            }
            self.stage(
                addr,
                encode_dir_block(chunk),
                JfsBlockType::Dir,
                &[(
                    0,
                    BLOCK_SIZE.min(64 + chunk.iter().map(|e| 6 + e.2.len()).sum::<usize>()),
                )],
            );
        }
        for idx in blocks.len() as u64..old_nblocks {
            let addr = self.file_block(di, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
                self.set_file_block(di, idx, 0)?;
            }
        }
        di.size = (blocks.len() * BLOCK_SIZE) as u64;
        self.put_inode(ino, di)
    }

    fn dir_find(&mut self, di: &JInode, name: &str) -> VfsResult<Option<(u32, u8)>> {
        Ok(self
            .dir_entries(di)?
            .into_iter()
            .find(|(_, _, n)| n == name)
            .map(|(ino, ft, _)| (ino, ft)))
    }

    fn free_body(&mut self, di: &mut JInode) -> VfsResult<()> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        for idx in 0..nblocks {
            let addr = self.file_block(di, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
            }
        }
        if di.internal != 0 {
            self.free_block(di.internal as u64)?;
            di.internal = 0;
        }
        di.direct = [0; NDIRECT];
        di.size = 0;
        Ok(())
    }
}

impl<D: BlockDevice + RawAccess> SpecificFs for JfsFs<D> {
    fn env(&self) -> &FsEnv {
        &self.env
    }

    fn root_ino(&self) -> u64 {
        ROOT_INO
    }

    fn lookup(&mut self, dir: u64, name: &str) -> VfsResult<u64> {
        self.env.check_alive()?;
        let di = self.get_inode(dir)?;
        if di.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        match self.dir_find(&di, name)? {
            Some((ino, _)) => Ok(ino as u64),
            None => Err(Errno::ENOENT.into()),
        }
    }

    fn getattr(&mut self, ino: u64) -> VfsResult<InodeAttr> {
        self.env.check_alive()?;
        let di = self.get_inode(ino)?;
        Ok(InodeAttr {
            ino,
            ftype: di.file_type().unwrap_or(FileType::Regular),
            size: di.size,
            nlink: di.nlink,
            mode: di.mode & 0o7777,
            uid: di.uid,
            gid: di.gid,
            mtime: di.mtime,
        })
    }

    fn chmod(&mut self, ino: u64, mode: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.get_inode(ino)?;
        di.mode = (di.mode & 0xF000) | (mode & 0o7777);
        self.put_inode(ino, &di)?;
        self.maybe_commit()
    }

    fn chown(&mut self, ino: u64, uid: u32, gid: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.get_inode(ino)?;
        di.uid = uid;
        di.gid = gid;
        self.put_inode(ino, &di)?;
        self.maybe_commit()
    }

    fn utimes(&mut self, ino: u64, mtime: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.get_inode(ino)?;
        di.mtime = mtime;
        self.put_inode(ino, &di)?;
        self.maybe_commit()
    }

    fn create(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        if dd.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.alloc_inode()?;
        self.put_inode(ino, &JInode::new(FileType::Regular, mode))?;
        let mut entries = self.dir_entries(&dd)?;
        entries.push((ino as u32, ftype_code(FileType::Regular), name.to_string()));
        self.write_dir(dir, &mut dd, &entries)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn mkdir(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.alloc_inode()?;
        let mut child = JInode::new(FileType::Directory, mode);
        let child_entries = vec![
            (ino as u32, ftype_code(FileType::Directory), ".".to_string()),
            (
                dir as u32,
                ftype_code(FileType::Directory),
                "..".to_string(),
            ),
        ];
        self.put_inode(ino, &child)?;
        let mut child = {
            self.write_dir(ino, &mut child, &child_entries)?;
            child
        };
        let _ = &mut child;
        let mut entries = self.dir_entries(&dd)?;
        entries.push((
            ino as u32,
            ftype_code(FileType::Directory),
            name.to_string(),
        ));
        dd.nlink += 1;
        self.write_dir(dir, &mut dd, &entries)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn unlink(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        let Some((ino32, ft)) = self.dir_find(&dd, name)? else {
            return Err(Errno::ENOENT.into());
        };
        let ino = ino32 as u64;
        if ftype_from(ft) == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        // PAPER-BUG: "although generic code detects read errors and
        // retries, a bug in the JFS implementation leads to ignoring the
        // error and corrupting the file system" — a failed inode read here
        // is ignored and unlink proceeds with a blank inode: the entry
        // disappears, but the file's blocks are never freed and the inode
        // slot is clobbered.
        let mut di = match self.get_inode_raw(ino) {
            Ok(di) => di,
            Err(_) => JInode::empty(),
        };
        let mut entries = self.dir_entries(&dd)?;
        entries.retain(|(_, _, n)| n != name);
        self.write_dir(dir, &mut dd, &entries)?;
        di.nlink = di.nlink.saturating_sub(1);
        if di.nlink == 0 {
            if !di.is_free() {
                self.free_body(&mut di)?;
            }
            self.free_inode(ino)?;
        } else {
            self.put_inode(ino, &di)?;
        }
        self.maybe_commit()
    }

    fn rmdir(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        let Some((ino32, ft)) = self.dir_find(&dd, name)? else {
            return Err(Errno::ENOENT.into());
        };
        if ftype_from(ft) != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        let ino = ino32 as u64;
        let mut di = self.get_inode(ino)?;
        let children = self.dir_entries(&di)?;
        if children.iter().any(|(_, _, n)| n != "." && n != "..") {
            return Err(Errno::ENOTEMPTY.into());
        }
        let mut entries = self.dir_entries(&dd)?;
        entries.retain(|(_, _, n)| n != name);
        dd.nlink = dd.nlink.saturating_sub(1);
        self.write_dir(dir, &mut dd, &entries)?;
        self.free_body(&mut di)?;
        self.free_inode(ino)?;
        self.maybe_commit()
    }

    fn link(&mut self, ino: u64, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let mut di = self.get_inode(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        di.nlink += 1;
        self.put_inode(ino, &di)?;
        let mut entries = self.dir_entries(&dd)?;
        entries.push((
            ino as u32,
            ftype_code(di.file_type().unwrap_or(FileType::Regular)),
            name.to_string(),
        ));
        self.write_dir(dir, &mut dd, &entries)?;
        self.maybe_commit()
    }

    fn symlink(&mut self, dir: u64, name: &str, target: &str) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut dd = self.get_inode(dir)?;
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        if target.len() > BLOCK_SIZE {
            return Err(Errno::ENAMETOOLONG.into());
        }
        let ino = self.alloc_inode()?;
        let mut di = JInode::new(FileType::Symlink, 0o777);
        let baddr = self.alloc_block()?;
        di.direct[0] = baddr as u32;
        di.size = target.len() as u64;
        self.write_data(baddr, &Block::from_bytes(target.as_bytes()));
        self.put_inode(ino, &di)?;
        let mut entries = self.dir_entries(&dd)?;
        entries.push((ino as u32, ftype_code(FileType::Symlink), name.to_string()));
        self.write_dir(dir, &mut dd, &entries)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn readlink(&mut self, ino: u64) -> VfsResult<String> {
        self.env.check_alive()?;
        let di = self.get_inode(ino)?;
        if di.file_type() != Some(FileType::Symlink) {
            return Err(Errno::EINVAL.into());
        }
        if di.direct[0] == 0 {
            return Ok(String::new());
        }
        let b = self.read_data(di.direct[0] as u64)?;
        Ok(String::from_utf8_lossy(b.get_bytes(0, di.size as usize)).into_owned())
    }

    fn rename(
        &mut self,
        src_dir: u64,
        src_name: &str,
        dst_dir: u64,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.env.check_writable()?;
        let sd = self.get_inode(src_dir)?;
        let Some((ino32, ft)) = self.dir_find(&sd, src_name)? else {
            return Err(Errno::ENOENT.into());
        };
        let dd = self.get_inode(dst_dir)?;
        if let Some((existing, eft)) = self.dir_find(&dd, dst_name)? {
            if existing == ino32 {
                return Ok(());
            }
            if ftype_from(eft) == FileType::Directory {
                return Err(Errno::EISDIR.into());
            }
            self.unlink(dst_dir, dst_name)?;
        }
        let mut sd = self.get_inode(src_dir)?;
        let mut entries = self.dir_entries(&sd)?;
        entries.retain(|(_, _, n)| n != src_name);
        let moved_is_dir = ftype_from(ft) == FileType::Directory;
        if moved_is_dir && src_dir != dst_dir {
            sd.nlink = sd.nlink.saturating_sub(1);
        }
        self.write_dir(src_dir, &mut sd, &entries)?;
        let mut dd = self.get_inode(dst_dir)?;
        let mut dentries = self.dir_entries(&dd)?;
        dentries.push((ino32, ft, dst_name.to_string()));
        if moved_is_dir && src_dir != dst_dir {
            dd.nlink += 1;
        }
        self.write_dir(dst_dir, &mut dd, &dentries)?;
        if moved_is_dir && src_dir != dst_dir {
            let mut md = self.get_inode(ino32 as u64)?;
            let mut mentries = self.dir_entries(&md)?;
            for e in &mut mentries {
                if e.2 == ".." {
                    e.0 = dst_dir as u32;
                }
            }
            self.write_dir(ino32 as u64, &mut md, &mentries)?;
        }
        self.maybe_commit()
    }

    fn read(&mut self, ino: u64, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.env.check_alive()?;
        let di = self.get_inode(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        if off >= di.size {
            return Ok(Vec::new());
        }
        let end = (off + len as u64).min(di.size);
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let addr = self.file_block(&di, idx)?;
            if addr == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let b = self.read_data(addr)?;
                out.extend_from_slice(b.get_bytes(within, take));
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write(&mut self, ino: u64, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.env.check_writable()?;
        let mut di = self.get_inode(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        let bs = BLOCK_SIZE as u64;
        let end = off + data.len() as u64;
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let mut addr = self.file_block(&di, idx)?;
            let mut block = if addr == 0 || (within == 0 && take == BLOCK_SIZE) {
                Block::zeroed()
            } else {
                self.read_data(addr)?
            };
            if addr == 0 {
                addr = self.alloc_block()?;
                self.set_file_block(&mut di, idx, addr)?;
            }
            block.put_bytes(within, &data[src..src + take]);
            self.write_data(addr, &block);
            pos += take as u64;
            src += take;
        }
        if end > di.size {
            di.size = end;
        }
        self.put_inode(ino, &di)?;
        self.maybe_commit()?;
        Ok(data.len())
    }

    fn truncate(&mut self, ino: u64, size: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.get_inode(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        if size >= di.size {
            di.size = size;
            self.put_inode(ino, &di)?;
            return self.maybe_commit();
        }
        let bs = BLOCK_SIZE as u64;
        let keep = size.div_ceil(bs);
        let old = di.size.div_ceil(bs);
        for idx in keep..old {
            let addr = self.file_block(&di, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
                self.set_file_block(&mut di, idx, 0)?;
            }
        }
        if !size.is_multiple_of(bs) {
            let idx = size / bs;
            let addr = self.file_block(&di, idx)?;
            if addr != 0 {
                let mut b = self.read_data(addr)?;
                for byte in &mut b[(size % bs) as usize..] {
                    *byte = 0;
                }
                self.write_data(addr, &b);
            }
        }
        di.size = size;
        self.put_inode(ino, &di)?;
        self.maybe_commit()
    }

    fn readdir(&mut self, dir: u64) -> VfsResult<Vec<DirEntry>> {
        self.env.check_alive()?;
        let di = self.get_inode(dir)?;
        if di.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        Ok(self
            .dir_entries(&di)?
            .into_iter()
            .map(|(ino, ft, name)| DirEntry {
                name,
                ino: ino as u64,
                ftype: ftype_from(ft),
            })
            .collect())
    }

    fn fsync(&mut self, _ino: u64) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.dev.flush().map_err(VfsError::from)
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.dev.flush().map_err(VfsError::from)
    }

    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.env.check_alive()?;
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            blocks: self.sb.total_blocks - self.layout.alloc_start,
            blocks_free: self.sb.free_blocks,
            inodes: self.layout.total_inodes(),
            inodes_free: self.sb.free_inodes,
        })
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.sb.dirty = false;
        let enc = self.sb.encode();
        let _ = self
            .dev
            .write_tagged(BlockAddr(0), &enc, JfsBlockType::Super.tag());
        let _ = self.dev.flush();
        self.env.set_state(MountState::Unmounted);
        Ok(())
    }
}
