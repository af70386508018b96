//! The ReiserFS model: tree operations over a block device, the journal,
//! and the §5.2 failure policy (bugs included).

use std::fmt;

use iron_blockdev::{BlockDevice, RawAccess};
use iron_core::hash::fnv1a;
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{Block, BlockAddr, Errno, IoKind, BLOCK_SIZE};
use iron_vfs::{
    Buffers, DirEntry, FileType, FsEnv, InodeAttr, MountState, SpecificFs, StatFs, VfsError,
    VfsResult,
};

use crate::journal::{JournalCommit, JournalDesc, JournalHeader, DESC_CAPACITY};
use crate::layout::{ReiserBlockType, ReiserLayout, ReiserParams, ReiserSuper};
use crate::tree::{
    decode_ptrs, encode_ptrs, Item, ItemKind, ItemRef, Key, Node, NodeView, INTERNAL_MAX,
    LEAF_CAPACITY, PTRS_PER_INDIRECT, TAIL_MAX,
};

/// The root directory's object id.
pub const ROOT_OID: u64 = 2;

/// Mount options.
#[derive(Clone, Debug)]
pub struct ReiserOptions {
    /// Commit once the transaction reaches this many blocks.
    pub commit_threshold: usize,
}

impl Default for ReiserOptions {
    fn default() -> Self {
        ReiserOptions {
            commit_threshold: 64,
        }
    }
}

/// The failure-policy table reproducing stock ReiserFS's policy (§5.2):
/// a failed read of a data block, or of a leaf read for its indirect or
/// direct item, is retried once (`RRetry`); every other read failure
/// propagates at once (`RPropagate`). A failed write of anything but an
/// ordered data block — the superblock, the journal's blocks, a
/// checkpointed metadata block — stops the machine (`RStop`, "first, do
/// no harm"). The ordered data write never consults the table: its
/// failure is ignored (`PAPER-BUG`).
pub fn reiser_stock_policy() -> FailurePolicyTable {
    use RecoveryAction::{Propagate, Retry, Stop};
    use ReiserBlockType::{Data, Direct, Indirect};
    let once = Retry {
        budget: 1,
        backoff: Backoff::none(),
    };
    let (read, write) = (Some(IoKind::Read), Some(IoKind::Write));
    let mut table = FailurePolicyTable::with_default(vec![Propagate]);
    for ty in [Data, Indirect, Direct] {
        table = table.rule(Some(ty.tag()), read, None, vec![once, Propagate]);
    }
    table
        .rule(Some(Data.tag()), write, None, vec![Propagate])
        .rule(None, write, None, vec![Stop])
}

/// FNV-1a 64-bit, ReiserFS-style name hashing for directory keys.
fn name_hash(name: &str) -> u64 {
    // Avoid the reserved offsets 0 and u64::MAX.
    fnv1a(name.as_bytes()).clamp(1, u64::MAX - 1)
}

/// Stat-item payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct StatData {
    ftype: FileType,
    mode: u32,
    nlink: u32,
    uid: u32,
    gid: u32,
    size: u64,
    mtime: u64,
    /// Parent oid (ReiserFS directories have no "." / ".." items; we keep
    /// the parent here for `..` resolution).
    parent: u64,
}

impl StatData {
    fn new(ftype: FileType, mode: u32, parent: u64) -> Self {
        StatData {
            ftype,
            mode,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            uid: 0,
            gid: 0,
            size: 0,
            mtime: 0,
            parent,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; 48];
        out[0] = match self.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 3,
        };
        out[4..8].copy_from_slice(&self.mode.to_le_bytes());
        out[8..12].copy_from_slice(&self.nlink.to_le_bytes());
        out[12..16].copy_from_slice(&self.uid.to_le_bytes());
        out[16..20].copy_from_slice(&self.gid.to_le_bytes());
        out[20..28].copy_from_slice(&self.size.to_le_bytes());
        out[28..36].copy_from_slice(&self.mtime.to_le_bytes());
        out[36..44].copy_from_slice(&self.parent.to_le_bytes());
        out
    }

    fn decode(p: &[u8]) -> Option<StatData> {
        if p.len() < 44 {
            return None;
        }
        let ftype = match p[0] {
            1 => FileType::Regular,
            2 => FileType::Directory,
            3 => FileType::Symlink,
            _ => return None,
        };
        let g = |r: std::ops::Range<usize>| -> u64 {
            let mut buf = [0u8; 8];
            buf[..r.len()].copy_from_slice(&p[r]);
            u64::from_le_bytes(buf)
        };
        Some(StatData {
            ftype,
            mode: g(4..8) as u32,
            nlink: g(8..12) as u32,
            uid: g(12..16) as u32,
            gid: g(16..20) as u32,
            size: g(20..28),
            mtime: g(28..36),
            parent: g(36..44),
        })
    }
}

fn encode_dirent(child: u64, ftype: FileType, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + name.len());
    out.extend_from_slice(&child.to_le_bytes());
    out.push(match ftype {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 3,
    });
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
    out
}

fn decode_dirent(p: &[u8]) -> Option<(u64, FileType, String)> {
    if p.len() < 10 {
        return None;
    }
    let child = u64::from_le_bytes(p[..8].try_into().ok()?);
    let ftype = match p[8] {
        1 => FileType::Regular,
        2 => FileType::Directory,
        3 => FileType::Symlink,
        _ => return None,
    };
    let n = p[9] as usize;
    if 10 + n > p.len() {
        return None;
    }
    Some((
        child,
        ftype,
        String::from_utf8_lossy(&p[10..10 + n]).into_owned(),
    ))
}

/// The ReiserFS model over a block device.
pub struct ReiserFs<D: BlockDevice + RawAccess> {
    dev: D,
    env: FsEnv,
    opts: ReiserOptions,
    /// [`reiser_stock_policy`], built once at mount.
    policy: PolicyHandle,
    layout: ReiserLayout,
    sb: ReiserSuper,
    /// The running transaction's metadata images and the block cache.
    buf: Buffers<ReiserBlockType>,
    jseq: u64,
    log_head: u64,
    journal_dirty_on_disk: bool,
}

impl<D: BlockDevice + RawAccess> ReiserFs<D> {
    // ==================================================================
    // mkfs / mount
    // ==================================================================

    /// Format a device.
    pub fn mkfs(dev: &mut D, params: ReiserParams) -> VfsResult<()> {
        let layout = ReiserLayout::compute(params);
        let root_block = layout.alloc_start;

        // Root directory: a one-leaf tree holding the root stat item.
        let root_stat = Item {
            key: Key::new(ROOT_OID, ItemKind::Stat, 0),
            payload: StatData::new(FileType::Directory, 0o755, ROOT_OID).encode(),
        };
        let root = Node::Leaf(vec![root_stat]);

        // Bitmaps: reserve everything up to and including the root node.
        let mut bitmaps: Vec<Block> = (0..layout.bitmap_len).map(|_| Block::zeroed()).collect();
        for b in 0..=root_block {
            let bits = BLOCK_SIZE as u64 * 8;
            bitmaps[(b / bits) as usize].set_bit(b % bits);
        }

        let free_blocks = params.total_blocks - root_block - 1;
        let sb = ReiserSuper {
            total_blocks: params.total_blocks,
            free_blocks,
            root_block,
            tree_height: 1,
            journal_blocks: params.journal_blocks,
            next_oid: ROOT_OID + 1,
            dirty: false,
        };

        let jh = JournalHeader {
            sequence: 1,
            dirty: false,
        };

        let eio = VfsError::from;
        dev.write_tagged(BlockAddr(0), &sb.encode(), ReiserBlockType::Super.tag())
            .map_err(eio)?;
        dev.write_tagged(
            BlockAddr(layout.journal_header),
            &jh.encode(),
            ReiserBlockType::JournalHeader.tag(),
        )
        .map_err(eio)?;
        for (i, bm) in bitmaps.iter().enumerate() {
            dev.write_tagged(
                BlockAddr(layout.bitmap_start + i as u64),
                bm,
                ReiserBlockType::DataBitmap.tag(),
            )
            .map_err(eio)?;
        }
        dev.write_tagged(
            BlockAddr(root_block),
            &root.encode(),
            ReiserBlockType::LeafNode.tag(),
        )
        .map_err(eio)?;
        dev.barrier().map_err(eio)?;
        Ok(())
    }

    /// Mount, replaying the journal if dirty.
    pub fn mount(mut dev: D, env: FsEnv, opts: ReiserOptions) -> VfsResult<Self> {
        let sb_block = dev
            .read_tagged(BlockAddr(0), ReiserBlockType::Super.tag())
            .map_err(|e| {
                env.klog
                    .error("reiserfs", "unable to read superblock; mount failed");
                VfsError::from(e)
            })?;
        let sb = match ReiserSuper::decode(&sb_block) {
            Some(sb) => sb,
            None => {
                let msg = "sh-2021: reiserfs_fill_super: can not find reiserfs on device";
                return Err(env.reject("reiserfs", msg));
            }
        };
        let layout = ReiserLayout::compute(ReiserParams {
            total_blocks: sb.total_blocks,
            journal_blocks: sb.journal_blocks,
        });

        let mut fs = ReiserFs {
            dev,
            env,
            opts,
            policy: PolicyHandle::new(reiser_stock_policy()),
            layout,
            sb,
            buf: Buffers::new(),
            jseq: 1,
            log_head: layout.journal_start,
            journal_dirty_on_disk: false,
        };

        let jh_block = fs
            .dev
            .read_tagged(
                BlockAddr(layout.journal_header),
                ReiserBlockType::JournalHeader.tag(),
            )
            .map_err(|e| {
                fs.env
                    .klog
                    .error("reiserfs", "journal header unreadable; mount failed");
                VfsError::from(e)
            })?;
        let jh = match JournalHeader::decode(&jh_block) {
            Some(jh) => jh,
            None => {
                let msg = "journal-460: journal header magic invalid; mount failed";
                return Err(fs.env.reject("reiserfs", msg));
            }
        };
        fs.jseq = jh.sequence;
        if jh.dirty || fs.sb.dirty {
            fs.replay_journal()?;
        }
        fs.sb.dirty = true;
        fs.write_super_direct()?;
        Ok(fs)
    }

    /// Format + mount.
    pub fn format_and_mount(
        mut dev: D,
        env: FsEnv,
        params: ReiserParams,
        opts: ReiserOptions,
    ) -> VfsResult<Self> {
        Self::mkfs(&mut dev, params)?;
        Self::mount(dev, env, opts)
    }

    /// Consume, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrow the device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// The layout.
    pub fn layout(&self) -> &ReiserLayout {
        &self.layout
    }

    /// The superblock snapshot (tests).
    pub fn superblock(&self) -> ReiserSuper {
        self.sb
    }

    fn write_super_direct(&mut self) -> VfsResult<()> {
        let enc = self.sb.encode();
        self.buf.cache(0, enc.clone());
        let words = format_args!("journal-2100: superblock write failed");
        self.write_or_stop(0, &enc, ReiserBlockType::Super, words)
    }

    /// Write one block ReiserFS will not lose: a failure is logged in
    /// `words` and handed to [`reiser_stock_policy`], whose write chain
    /// stops the machine ("first, do no harm").
    fn write_or_stop(
        &mut self,
        addr: u64,
        block: &Block,
        ty: ReiserBlockType,
        words: fmt::Arguments<'_>,
    ) -> VfsResult<()> {
        let (dev, tag) = (&mut self.dev, ty.tag());
        let Err(e) = dev.write_tagged(BlockAddr(addr), block, tag) else {
            return Ok(());
        };
        self.env.klog.error("reiserfs", words.to_string());
        let req = (IoKind::Write, addr, tag);
        self.env.walk_io(&self.policy, "reiserfs", req, &e, |_, _| {
            dev.write_tagged(BlockAddr(addr), block, tag)
        })
    }

    // ==================================================================
    // Journal.
    // ==================================================================

    fn maybe_commit(&mut self) -> VfsResult<()> {
        if self.buf.len() >= self.opts.commit_threshold {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Commit the running transaction. Any journal or checkpoint write
    /// failure panics the machine — "first, do no harm" (§5.2).
    pub fn commit(&mut self) -> VfsResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let seq = self.jseq;
        let blocks = self.buf.drain();
        let needed = blocks.len() as u64 + blocks.len().div_ceil(DESC_CAPACITY) as u64 + 1;
        if self.log_head + needed > self.layout.journal_start + self.layout.journal_len {
            self.log_head = self.layout.journal_start;
        }

        // Mark journal dirty: the recorded sequence is the first
        // unflushed transaction, so replay can stop at stale log tails.
        if !self.journal_dirty_on_disk {
            let jh = JournalHeader {
                sequence: seq,
                dirty: true,
            };
            let words = format_args!("journal-601: journal header write failed");
            self.write_or_stop(
                self.layout.journal_header,
                &jh.encode(),
                ReiserBlockType::JournalHeader,
                words,
            )?;
            self.journal_dirty_on_disk = true;
        }

        for chunk in blocks.chunks(DESC_CAPACITY) {
            let desc = JournalDesc {
                sequence: seq,
                addrs: chunk.iter().map(|(a, _, _)| *a).collect(),
            };
            let words = format_args!("journal-601: descriptor write failed");
            self.write_or_stop(
                self.log_head,
                &desc.encode(),
                ReiserBlockType::JournalDesc,
                words,
            )?;
            self.log_head += 1;
            for (_, b, _) in chunk {
                let words = format_args!("journal-601: buffer write failed");
                self.write_or_stop(self.log_head, b, ReiserBlockType::JournalData, words)?;
                self.log_head += 1;
            }
        }
        let _ = self.dev.barrier();
        let commit = JournalCommit {
            sequence: seq,
            count: blocks.len() as u32,
        };
        let words = format_args!("journal-601: commit write failed");
        self.write_or_stop(
            self.log_head,
            &commit.encode(),
            ReiserBlockType::JournalCommit,
            words,
        )?;
        self.log_head += 1;
        let _ = self.dev.barrier();
        self.jseq = seq + 1;

        // Checkpoint.
        for (addr, b, ty) in &blocks {
            let words = format_args!("journal-837: checkpoint write of block {addr} failed");
            self.write_or_stop(*addr, b, *ty, words)?;
        }
        let jh_clean = JournalHeader {
            sequence: self.jseq,
            dirty: false,
        };
        let words = format_args!("journal-601: journal header write failed");
        self.write_or_stop(
            self.layout.journal_header,
            &jh_clean.encode(),
            ReiserBlockType::JournalHeader,
            words,
        )?;
        self.journal_dirty_on_disk = false;
        self.log_head = self.layout.journal_start;
        Ok(())
    }

    /// Replay the journal at mount.
    ///
    /// Descriptor and commit magic numbers are checked (`DSanity`), but
    /// journal *data* is replayed blindly — PAPER-BUG: "there is no sanity
    /// or type checking to detect corrupt journal data; therefore,
    /// replaying a corrupted journal block can make the file system
    /// unusable (e.g., the block is written as the super block)."
    fn replay_journal(&mut self) -> VfsResult<()> {
        self.env
            .klog
            .info("reiserfs", "replaying journal after unclean shutdown");
        let start = self.layout.journal_start;
        let end = start + self.layout.journal_len;
        let mut pos = start;
        let mut replayed = 0;
        'scan: while pos < end {
            let block = self.replay_read(
                pos,
                ReiserBlockType::JournalDesc,
                "read failed during replay",
            )?;
            let Some(desc) = JournalDesc::decode(&block) else {
                break 'scan; // end of valid log
            };
            if desc.sequence < self.jseq {
                break 'scan; // stale tail from a checkpointed transaction
            }
            let mut datas = Vec::new();
            for i in 0..desc.addrs.len() as u64 {
                let daddr = pos + 1 + i;
                if daddr >= end {
                    break 'scan;
                }
                let what = "read failed during replay";
                datas.push(self.replay_read(daddr, ReiserBlockType::JournalData, what)?);
            }
            let cpos = pos + 1 + desc.addrs.len() as u64;
            if cpos >= end {
                break 'scan;
            }
            let cblock =
                self.replay_read(cpos, ReiserBlockType::JournalCommit, "commit read failed")?;
            let Some(commit) = JournalCommit::decode(&cblock) else {
                self.env
                    .klog
                    .info("reiserfs", "uncommitted transaction at log end; ignored");
                break 'scan;
            };
            if commit.sequence != desc.sequence {
                break 'scan;
            }
            // PAPER-BUG: journal data applied with no checks whatsoever.
            for (addr, data) in desc.addrs.iter().zip(&datas) {
                let _ =
                    self.dev
                        .write_tagged(BlockAddr(*addr), data, ReiserBlockType::LeafNode.tag());
            }
            replayed += 1;
            pos = cpos + 1;
        }
        // Re-read the superblock: replay may have rewritten it.
        if let Ok(b) = self
            .dev
            .read_tagged(BlockAddr(0), ReiserBlockType::Super.tag())
        {
            match ReiserSuper::decode(&b) {
                Some(sb) => self.sb = sb,
                None => {
                    // The paper's scenario made real: garbage was replayed
                    // over the superblock and the file system is unusable.
                    let msg = "superblock invalid after journal replay; file system unusable";
                    return Err(self.env.reject("reiserfs", msg));
                }
            }
        }
        let jh = JournalHeader {
            sequence: self.jseq + replayed,
            dirty: false,
        };
        self.jseq = jh.sequence;
        let _ = self.dev.write_tagged(
            BlockAddr(self.layout.journal_header),
            &jh.encode(),
            ReiserBlockType::JournalHeader.tag(),
        );
        self.env.klog.info(
            "reiserfs",
            format!("journal replay complete; {replayed} transaction(s)"),
        );
        Ok(())
    }

    /// Read log block `pos` during replay: a failure, logged as `what`,
    /// aborts the mount with `EIO`.
    fn replay_read(&mut self, pos: u64, ty: ReiserBlockType, what: &str) -> VfsResult<Block> {
        self.dev.read_tagged(BlockAddr(pos), ty.tag()).map_err(|e| {
            let msg = format!("journal-{pos}: {what}; mount aborted");
            self.env.klog.error("reiserfs", msg);
            VfsError::from(e)
        })
    }

    // ==================================================================
    // Block read/write with policy.
    // ==================================================================

    /// Read one block: the running transaction's staged copy, else the
    /// cache, else the device (cached on success). A device error is
    /// checked (`DErrorCode`), logged in the words of the block's kind
    /// (a bitmap block's caller speaks for it), and handed to
    /// [`reiser_stock_policy`]: one re-read for data, indirect and direct
    /// blocks, `EIO` otherwise.
    fn read_block(&mut self, addr: u64, ty: ReiserBlockType) -> VfsResult<&Block> {
        let (dev, env, tag) = (&mut self.dev, &self.env, ty.tag());
        let fetch = || {
            let e = match dev.read_tagged(BlockAddr(addr), tag) {
                Ok(b) => return Ok(b),
                Err(e) => e,
            };
            let words = match ty {
                ReiserBlockType::Data => Some(format!("read of data block {addr} failed")),
                // `bitmap_op` reports it; the allocator's scan is silent.
                ReiserBlockType::DataBitmap => None,
                _ => Some(format!("read of tree block {addr} failed")),
            };
            if let Some(msg) = words {
                env.klog.error("reiserfs", msg);
            }
            let req = (IoKind::Read, addr, tag);
            env.walk_io(&self.policy, "reiserfs", req, &e, |_, _| {
                dev.read_tagged(BlockAddr(addr), tag)
            })
        };
        // Data blocks are written in place and never staged, so only
        // metadata consults the running transaction.
        match ty {
            ReiserBlockType::Data => self.buf.get_cached(addr, fetch),
            _ => self.buf.get(addr, fetch),
        }
    }

    /// Read a tree node in place: [`Self::read_block`], then block-header
    /// sanity checks on what arrived (`DSanity`, [`NodeView::new`]) on
    /// every visit, then `f` on the checked view. A failed sanity check is
    /// logged; on the root or an internal node it then panics (PAPER-BUG:
    /// "ReiserFS sometimes calls panic on failing a sanity check, instead
    /// of simply returning an error code"); on a leaf it propagates
    /// `EUCLEAN`.
    fn with_node<R>(
        &mut self,
        addr: u64,
        level: u16,
        tag: ReiserBlockType,
        f: impl FnOnce(NodeView<'_>) -> R,
    ) -> VfsResult<R> {
        if let Some(view) = NodeView::new(self.read_block(addr, tag)?, Some(level)) {
            return Ok(f(view));
        }
        let msg = format!("vs-5151: tree block {addr} failed sanity check");
        let err = self.env.reject("reiserfs", msg);
        if matches!(tag, ReiserBlockType::Root | ReiserBlockType::Internal) {
            // PAPER-BUG: panic instead of returning an error.
            let msg = format!("vs-6000: corrupted internal tree block {addr}");
            return Err(self.env.panic("reiserfs", msg));
        }
        Err(err)
    }

    fn write_node(&mut self, addr: u64, node: &Node, tag: ReiserBlockType) {
        self.buf.stage(addr, node.encode(), tag);
    }

    /// Write a user data block in place.
    ///
    /// PAPER-BUG: "when an ordered data block write fails, ReiserFS
    /// journals and commits the transaction without handling the error" —
    /// the one write failure that does *not* panic. It is silently
    /// ignored (`RZero`): metadata will point at stale data.
    fn write_data(&mut self, addr: u64, block: &Block) -> VfsResult<()> {
        let _ = self
            .dev
            .write_tagged(BlockAddr(addr), block, ReiserBlockType::Data.tag());
        self.buf.cache(addr, block.clone());
        Ok(())
    }

    // ==================================================================
    // Allocation.
    // ==================================================================

    fn bitmap_op(&mut self, addr: u64, set: bool) -> VfsResult<()> {
        let (bm_addr, bit) = self.layout.bitmap_location(addr);
        let mut bm = self
            .read_block(bm_addr.0, ReiserBlockType::DataBitmap)
            .cloned()
            .inspect_err(|_| {
                let msg = format!("bitmap block {bm_addr} unreadable");
                self.env.klog.error("reiserfs", msg);
            })?;
        if set {
            bm.set_bit(bit);
        } else {
            bm.clear_bit(bit);
        }
        self.buf.stage(bm_addr.0, bm, ReiserBlockType::DataBitmap);
        Ok(())
    }

    fn alloc_block(&mut self) -> VfsResult<u64> {
        // Scan bitmap blocks for a free bit (no sanity checking of bitmap
        // contents, per the paper).
        for i in 0..self.layout.bitmap_len {
            let bm_addr = self.layout.bitmap_start + i;
            let bits_per_block = BLOCK_SIZE as u64 * 8;
            let limit = bits_per_block.min(self.sb.total_blocks - i * bits_per_block);
            let bm = self.read_block(bm_addr, ReiserBlockType::DataBitmap)?;
            if let Some(bit) = bm.first_zero_bit(limit, 0) {
                let addr = i * bits_per_block + bit;
                self.bitmap_op(addr, true)?;
                self.sb.free_blocks = self.sb.free_blocks.saturating_sub(1);
                self.buf.stage(0, self.sb.encode(), ReiserBlockType::Super);
                return Ok(addr);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let blocks = self.layout.alloc_start..self.layout.params.total_blocks;
        self.env
            .check_bitmap_index("reiserfs", "block", addr, blocks)?;
        self.bitmap_op(addr, false)?;
        self.sb.free_blocks += 1;
        self.buf.stage(0, self.sb.encode(), ReiserBlockType::Super);
        // Only the cached image goes: this model never frees a tree node,
        // so a staged block is freed only through a corrupt pointer, and
        // the checkpoint still writes it.
        self.buf.uncache(addr);
        Ok(())
    }

    // ==================================================================
    // Tree operations.
    // ==================================================================

    fn tag_for(&self, addr: u64, level: u16, purpose: ReiserBlockType) -> ReiserBlockType {
        if addr == self.sb.root_block {
            ReiserBlockType::Root
        } else if level > 1 {
            ReiserBlockType::Internal
        } else {
            purpose
        }
    }

    /// Descend from the root towards `key`, checking each internal node
    /// on the way: the address and expected level of the node at the
    /// bottom (a leaf, unless the superblock's height is corrupt). With a
    /// `path`, every internal node passed is pushed onto it as
    /// `(addr, level)`, root first.
    fn descend(
        &mut self,
        key: Key,
        purpose: ReiserBlockType,
        mut path: Option<&mut Vec<(u64, u16)>>,
    ) -> VfsResult<(u64, u16)> {
        let mut addr = self.sb.root_block;
        let mut level = self.sb.tree_height as u16;
        while level > 1 {
            let tag = self.tag_for(addr, level, purpose);
            let child = self.with_node(addr, level, tag, |v| v.child(v.child_index(&key)))?;
            if let Some(path) = path.as_mut() {
                path.push((addr, level));
            }
            addr = child;
            level -= 1;
        }
        Ok((addr, level))
    }

    /// Descend to the leaf for `key` and run `f` on it, in place.
    fn with_leaf<R>(
        &mut self,
        key: Key,
        purpose: ReiserBlockType,
        path: Option<&mut Vec<(u64, u16)>>,
        f: impl FnOnce(NodeView<'_>) -> R,
    ) -> VfsResult<(u64, R)> {
        let (addr, level) = self.descend(key, purpose, path)?;
        let tag = self.tag_for(addr, level, purpose);
        Ok((addr, self.with_node(addr, level, tag, f)?))
    }

    /// Fetch the item with exactly `key`.
    fn tree_get(&mut self, key: Key, purpose: ReiserBlockType) -> VfsResult<Option<Item>> {
        let found = |v: NodeView<'_>| v.find(&key).map(ItemRef::to_item);
        Ok(self.with_leaf(key, purpose, None, found)?.1)
    }

    /// Insert (or replace) an item, splitting nodes as needed.
    fn tree_put(&mut self, item: Item, purpose: ReiserBlockType) -> VfsResult<()> {
        let mut path = Vec::new();
        let all = |v: NodeView<'_>| v.items().map(ItemRef::to_item).collect::<Vec<_>>();
        let (leaf_addr, mut items) = self.with_leaf(item.key, purpose, Some(&mut path), all)?;
        match items.binary_search_by(|i| i.key.cmp(&item.key)) {
            Ok(i) => items[i] = item,
            Err(i) => items.insert(i, item),
        }
        if Node::leaf_used(&items) <= LEAF_CAPACITY {
            self.write_node(leaf_addr, &Node::Leaf(items), ReiserBlockType::LeafNode);
            return Ok(());
        }
        // Split the leaf at the half-occupancy point.
        let mut split_at = 1;
        let mut acc = 0;
        for (i, it) in items.iter().enumerate() {
            acc += it.on_disk_size();
            if acc > LEAF_CAPACITY / 2 {
                split_at = (i + 1).min(items.len() - 1).max(1);
                break;
            }
        }
        let right_items = items.split_off(split_at);
        let sep = right_items[0].key;
        let right_addr = self.alloc_block()?;
        self.write_node(leaf_addr, &Node::Leaf(items), ReiserBlockType::LeafNode);
        self.write_node(
            right_addr,
            &Node::Leaf(right_items),
            ReiserBlockType::LeafNode,
        );
        self.insert_into_parents(path, leaf_addr, sep, right_addr)
    }

    /// Propagate a split upward.
    fn insert_into_parents(
        &mut self,
        mut path: Vec<(u64, u16)>,
        mut left_addr: u64,
        mut sep: Key,
        mut right_addr: u64,
    ) -> VfsResult<()> {
        loop {
            match path.pop() {
                None => {
                    // Root split: grow the tree.
                    let new_root = self.alloc_block()?;
                    let level = self.sb.tree_height as u16 + 1;
                    let node = Node::Internal {
                        level,
                        keys: vec![sep],
                        children: vec![left_addr, right_addr],
                    };
                    self.write_node(new_root, &node, ReiserBlockType::Internal);
                    self.sb.root_block = new_root;
                    self.sb.tree_height += 1;
                    self.buf.stage(0, self.sb.encode(), ReiserBlockType::Super);
                    return Ok(());
                }
                Some((addr, level)) => {
                    // The descent read this parent, so it is buffered: its
                    // decode issues no device read.
                    let tag = self.tag_for(addr, level, ReiserBlockType::Internal);
                    let Node::Internal {
                        mut keys,
                        mut children,
                        ..
                    } = self.with_node(addr, level, tag, |v| v.to_node())?
                    else {
                        unreachable!("parents are internal");
                    };
                    let idx = children
                        .iter()
                        .position(|c| *c == left_addr)
                        .expect("split child is in its parent");
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right_addr);
                    if children.len() <= INTERNAL_MAX {
                        self.write_node(
                            addr,
                            &Node::Internal {
                                level,
                                keys,
                                children,
                            },
                            tag,
                        );
                        return Ok(());
                    }
                    // Split this internal node too.
                    let mid = keys.len() / 2;
                    let sep2 = keys[mid];
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop(); // sep2 moves up
                    let right_children = children.split_off(mid + 1);
                    let new_right = self.alloc_block()?;
                    self.write_node(
                        addr,
                        &Node::Internal {
                            level,
                            keys,
                            children,
                        },
                        ReiserBlockType::Internal,
                    );
                    self.write_node(
                        new_right,
                        &Node::Internal {
                            level,
                            keys: right_keys,
                            children: right_children,
                        },
                        ReiserBlockType::Internal,
                    );
                    left_addr = addr;
                    sep = sep2;
                    right_addr = new_right;
                }
            }
        }
    }

    /// Delete the item with `key` (no-op if absent). Empty leaves stay in
    /// the tree for later reuse (this model never merges nodes; real
    /// ReiserFS rebalances — DESIGN.md records the simplification).
    fn tree_delete(&mut self, key: Key, purpose: ReiserBlockType) -> VfsResult<bool> {
        let others = |v: NodeView<'_>| {
            v.find(&key).map(|_| {
                v.items()
                    .filter(|i| i.key != key)
                    .map(ItemRef::to_item)
                    .collect()
            })
        };
        let (leaf_addr, rest) = self.with_leaf(key, purpose, None, others)?;
        let Some(items) = rest else {
            return Ok(false);
        };
        self.write_node(leaf_addr, &Node::Leaf(items), ReiserBlockType::LeafNode);
        Ok(true)
    }

    /// All items with keys in `[lo, hi]`, left to right.
    fn tree_range(&mut self, lo: Key, hi: Key, purpose: ReiserBlockType) -> VfsResult<Vec<Item>> {
        let root = self.sb.root_block;
        let height = self.sb.tree_height as u16;
        let mut out = Vec::new();
        self.range_walk(root, height, lo, hi, purpose, &mut out)?;
        Ok(out)
    }

    fn range_walk(
        &mut self,
        addr: u64,
        level: u16,
        lo: Key,
        hi: Key,
        purpose: ReiserBlockType,
        out: &mut Vec<Item>,
    ) -> VfsResult<()> {
        let tag = self.tag_for(addr, level, purpose);
        let children = self.with_node(addr, level, tag, |v| {
            if v.is_leaf() {
                let within = v.items().filter(|i| i.key >= lo && i.key <= hi);
                out.extend(within.map(ItemRef::to_item));
                Vec::new()
            } else {
                v.children_between(&lo, &hi).collect()
            }
        })?;
        for child in children {
            self.range_walk(child, level - 1, lo, hi, purpose, out)?;
        }
        Ok(())
    }

    // ==================================================================
    // Object helpers.
    // ==================================================================

    fn stat_of(&mut self, oid: u64) -> VfsResult<StatData> {
        let item = self
            .tree_get(Key::new(oid, ItemKind::Stat, 0), ReiserBlockType::StatItem)?
            .ok_or(Errno::ENOENT)?;
        StatData::decode(&item.payload).ok_or_else(|| {
            let msg = format!("vs-13050: corrupt stat data for object {oid}");
            self.env.reject("reiserfs", msg)
        })
    }

    fn put_stat(&mut self, oid: u64, sd: &StatData) -> VfsResult<()> {
        self.tree_put(
            Item {
                key: Key::new(oid, ItemKind::Stat, 0),
                payload: sd.encode(),
            },
            ReiserBlockType::StatItem,
        )
    }

    /// Find a directory entry, probing past hash collisions.
    fn dirent_find(&mut self, dir: u64, name: &str) -> VfsResult<Option<(u64, u64, FileType)>> {
        let mut h = name_hash(name);
        loop {
            let Some(item) =
                self.tree_get(Key::new(dir, ItemKind::Dir, h), ReiserBlockType::DirItem)?
            else {
                return Ok(None);
            };
            if let Some((child, ftype, ename)) = decode_dirent(&item.payload) {
                if ename == name {
                    return Ok(Some((h, child, ftype)));
                }
            }
            h += 1; // collision probe
        }
    }

    fn dirent_add(&mut self, dir: u64, name: &str, child: u64, ftype: FileType) -> VfsResult<()> {
        let mut h = name_hash(name);
        while self
            .tree_get(Key::new(dir, ItemKind::Dir, h), ReiserBlockType::DirItem)?
            .is_some()
        {
            h += 1;
        }
        self.tree_put(
            Item {
                key: Key::new(dir, ItemKind::Dir, h),
                payload: encode_dirent(child, ftype, name),
            },
            ReiserBlockType::DirItem,
        )
    }

    fn alloc_oid(&mut self) -> u64 {
        let oid = self.sb.next_oid;
        self.sb.next_oid += 1;
        self.buf.stage(0, self.sb.encode(), ReiserBlockType::Super);
        oid
    }

    /// Indirect-item chunk for file block `idx`.
    fn body_ptrs(&mut self, oid: u64, chunk: u64) -> VfsResult<Vec<u32>> {
        Ok(self
            .tree_get(
                Key::new(oid, ItemKind::Indirect, chunk),
                ReiserBlockType::Indirect,
            )?
            .map(|i| decode_ptrs(&i.payload))
            .unwrap_or_default())
    }

    fn put_body_ptrs(&mut self, oid: u64, chunk: u64, ptrs: &[u32]) -> VfsResult<()> {
        self.tree_put(
            Item {
                key: Key::new(oid, ItemKind::Indirect, chunk),
                payload: encode_ptrs(ptrs),
            },
            ReiserBlockType::Indirect,
        )
    }

    fn tail_of(&mut self, oid: u64) -> VfsResult<Option<Vec<u8>>> {
        Ok(self
            .tree_get(Key::new(oid, ItemKind::Direct, 0), ReiserBlockType::Direct)?
            .map(|i| i.payload))
    }

    /// Free a file's body (tail + indirect chunks + data blocks).
    ///
    /// PAPER-BUG: a read failure on an indirect item during this path is
    /// detected but *ignored* — the object is deleted anyway and the data
    /// blocks are never freed, leaking space.
    fn free_body(&mut self, oid: u64, size: u64) -> VfsResult<()> {
        let _ = self.tree_delete(Key::new(oid, ItemKind::Direct, 0), ReiserBlockType::Direct)?;
        let chunks = size
            .div_ceil(BLOCK_SIZE as u64)
            .div_ceil(PTRS_PER_INDIRECT as u64);
        for chunk in 0..chunks.max(1) {
            match self.body_ptrs(oid, chunk) {
                Ok(ptrs) => {
                    for p in ptrs {
                        if p != 0 {
                            self.free_block(p as u64)?;
                        }
                    }
                    let _ = self.tree_delete(
                        Key::new(oid, ItemKind::Indirect, chunk),
                        ReiserBlockType::Indirect,
                    )?;
                }
                Err(VfsError::Errno(Errno::EIO)) => {
                    // PAPER-BUG: detected (logged by read_block) but ignored:
                    // those blocks are now leaked.
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

impl<D: BlockDevice + RawAccess> SpecificFs for ReiserFs<D> {
    fn env(&self) -> &FsEnv {
        &self.env
    }

    fn root_ino(&self) -> u64 {
        ROOT_OID
    }

    fn lookup(&mut self, dir: u64, name: &str) -> VfsResult<u64> {
        self.env.check_alive()?;
        let sd = self.stat_of(dir)?;
        if sd.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        if name == "." {
            return Ok(dir);
        }
        if name == ".." {
            return Ok(sd.parent);
        }
        match self.dirent_find(dir, name)? {
            Some((_, child, _)) => Ok(child),
            None => Err(Errno::ENOENT.into()),
        }
    }

    fn getattr(&mut self, oid: u64) -> VfsResult<InodeAttr> {
        self.env.check_alive()?;
        let sd = self.stat_of(oid)?;
        Ok(InodeAttr {
            ino: oid,
            ftype: sd.ftype,
            size: sd.size,
            nlink: sd.nlink,
            mode: sd.mode,
            uid: sd.uid,
            gid: sd.gid,
            mtime: sd.mtime,
        })
    }

    fn chmod(&mut self, oid: u64, mode: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut sd = self.stat_of(oid)?;
        sd.mode = mode & 0o7777;
        self.put_stat(oid, &sd)?;
        self.maybe_commit()
    }

    fn chown(&mut self, oid: u64, uid: u32, gid: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut sd = self.stat_of(oid)?;
        sd.uid = uid;
        sd.gid = gid;
        self.put_stat(oid, &sd)?;
        self.maybe_commit()
    }

    fn utimes(&mut self, oid: u64, mtime: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut sd = self.stat_of(oid)?;
        sd.mtime = mtime;
        self.put_stat(oid, &sd)?;
        self.maybe_commit()
    }

    fn create(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        let dsd = self.stat_of(dir)?;
        if dsd.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        if self.dirent_find(dir, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let oid = self.alloc_oid();
        self.put_stat(oid, &StatData::new(FileType::Regular, mode, dir))?;
        self.dirent_add(dir, name, oid, FileType::Regular)?;
        self.maybe_commit()?;
        Ok(oid)
    }

    fn mkdir(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        if self.dirent_find(dir, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let oid = self.alloc_oid();
        self.put_stat(oid, &StatData::new(FileType::Directory, mode, dir))?;
        self.dirent_add(dir, name, oid, FileType::Directory)?;
        let mut dsd = self.stat_of(dir)?;
        dsd.nlink += 1;
        self.put_stat(dir, &dsd)?;
        self.maybe_commit()?;
        Ok(oid)
    }

    fn unlink(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let Some((h, child, _)) = self.dirent_find(dir, name)? else {
            return Err(Errno::ENOENT.into());
        };
        let mut sd = self.stat_of(child)?;
        if sd.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.tree_delete(Key::new(dir, ItemKind::Dir, h), ReiserBlockType::DirItem)?;
        sd.nlink = sd.nlink.saturating_sub(1);
        if sd.nlink == 0 {
            self.free_body(child, sd.size)?;
            self.tree_delete(
                Key::new(child, ItemKind::Stat, 0),
                ReiserBlockType::StatItem,
            )?;
        } else {
            self.put_stat(child, &sd)?;
        }
        self.maybe_commit()
    }

    fn rmdir(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let Some((h, child, _)) = self.dirent_find(dir, name)? else {
            return Err(Errno::ENOENT.into());
        };
        let sd = self.stat_of(child)?;
        if sd.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        let entries = self.tree_range(
            Key::min_of(child, ItemKind::Dir),
            Key::max_of(child, ItemKind::Dir),
            ReiserBlockType::DirItem,
        )?;
        if !entries.is_empty() {
            return Err(Errno::ENOTEMPTY.into());
        }
        self.tree_delete(Key::new(dir, ItemKind::Dir, h), ReiserBlockType::DirItem)?;
        self.tree_delete(
            Key::new(child, ItemKind::Stat, 0),
            ReiserBlockType::StatItem,
        )?;
        let mut dsd = self.stat_of(dir)?;
        dsd.nlink = dsd.nlink.saturating_sub(1);
        self.put_stat(dir, &dsd)?;
        self.maybe_commit()
    }

    fn link(&mut self, oid: u64, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        if self.dirent_find(dir, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let mut sd = self.stat_of(oid)?;
        if sd.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        sd.nlink += 1;
        self.put_stat(oid, &sd)?;
        self.dirent_add(dir, name, oid, sd.ftype)?;
        self.maybe_commit()
    }

    fn symlink(&mut self, dir: u64, name: &str, target: &str) -> VfsResult<u64> {
        self.env.check_writable()?;
        if self.dirent_find(dir, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        if target.len() > TAIL_MAX {
            return Err(Errno::ENAMETOOLONG.into());
        }
        let oid = self.alloc_oid();
        let mut sd = StatData::new(FileType::Symlink, 0o777, dir);
        sd.size = target.len() as u64;
        self.put_stat(oid, &sd)?;
        self.tree_put(
            Item {
                key: Key::new(oid, ItemKind::Direct, 0),
                payload: target.as_bytes().to_vec(),
            },
            ReiserBlockType::Direct,
        )?;
        self.dirent_add(dir, name, oid, FileType::Symlink)?;
        self.maybe_commit()?;
        Ok(oid)
    }

    fn readlink(&mut self, oid: u64) -> VfsResult<String> {
        self.env.check_alive()?;
        let sd = self.stat_of(oid)?;
        if sd.ftype != FileType::Symlink {
            return Err(Errno::EINVAL.into());
        }
        let tail = self.tail_of(oid)?.unwrap_or_default();
        Ok(String::from_utf8_lossy(&tail).into_owned())
    }

    fn rename(
        &mut self,
        src_dir: u64,
        src_name: &str,
        dst_dir: u64,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.env.check_writable()?;
        let Some((sh, child, ftype)) = self.dirent_find(src_dir, src_name)? else {
            return Err(Errno::ENOENT.into());
        };
        if let Some((_, existing, eftype)) = self.dirent_find(dst_dir, dst_name)? {
            if existing == child {
                return Ok(());
            }
            if eftype == FileType::Directory {
                return Err(Errno::EISDIR.into());
            }
            if ftype == FileType::Directory {
                return Err(Errno::ENOTDIR.into());
            }
            self.unlink(dst_dir, dst_name)?;
        }
        self.tree_delete(
            Key::new(src_dir, ItemKind::Dir, sh),
            ReiserBlockType::DirItem,
        )?;
        self.dirent_add(dst_dir, dst_name, child, ftype)?;
        if ftype == FileType::Directory && src_dir != dst_dir {
            let mut sd = self.stat_of(child)?;
            sd.parent = dst_dir;
            self.put_stat(child, &sd)?;
            let mut s = self.stat_of(src_dir)?;
            s.nlink = s.nlink.saturating_sub(1);
            self.put_stat(src_dir, &s)?;
            let mut d = self.stat_of(dst_dir)?;
            d.nlink += 1;
            self.put_stat(dst_dir, &d)?;
        }
        self.maybe_commit()
    }

    fn read(&mut self, oid: u64, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.env.check_alive()?;
        let sd = self.stat_of(oid)?;
        if sd.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        if off >= sd.size {
            return Ok(Vec::new());
        }
        let end = off.saturating_add(len as u64).min(sd.size);
        // Tail-stored file?
        if let Some(tail) = self.tail_of(oid)? {
            let lo = off as usize;
            let hi = (end as usize).min(tail.len());
            return Ok(if lo < hi {
                tail[lo..hi].to_vec()
            } else {
                Vec::new()
            });
        }
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        // One indirect-item lookup per chunk, not per block.
        let mut ptrs = (u64::MAX, Vec::new());
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let chunk = idx / PTRS_PER_INDIRECT as u64;
            if ptrs.0 != chunk {
                ptrs = (chunk, self.body_ptrs(oid, chunk)?);
            }
            let ptrs = &ptrs.1;
            let slot = (idx % PTRS_PER_INDIRECT as u64) as usize;
            let ptr = ptrs.get(slot).copied().unwrap_or(0);
            if ptr == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let b = self.read_block(ptr as u64, ReiserBlockType::Data)?;
                out.extend_from_slice(b.get_bytes(within, take));
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write(&mut self, oid: u64, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.env.check_writable()?;
        let mut sd = self.stat_of(oid)?;
        if sd.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        let end = off.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;

        // Small files live as tails (direct items) in the leaf.
        let existing_tail = self.tail_of(oid)?;
        if end <= TAIL_MAX as u64 && (existing_tail.is_some() || sd.size == 0) {
            let mut tail = existing_tail.unwrap_or_default();
            if tail.len() < end as usize {
                tail.resize(end as usize, 0);
            }
            tail[off as usize..end as usize].copy_from_slice(data);
            self.tree_put(
                Item {
                    key: Key::new(oid, ItemKind::Direct, 0),
                    payload: tail,
                },
                ReiserBlockType::Direct,
            )?;
            sd.size = sd.size.max(end);
            self.put_stat(oid, &sd)?;
            self.maybe_commit()?;
            return Ok(data.len());
        }

        // Tail conversion: move an existing tail into a data block.
        if let Some(tail) = existing_tail {
            let baddr = self.alloc_block()?;
            self.write_data(baddr, &Block::from_bytes(&tail))?;
            self.put_body_ptrs(oid, 0, &[baddr as u32])?;
            self.tree_delete(Key::new(oid, ItemKind::Direct, 0), ReiserBlockType::Direct)?;
        }

        let bs = BLOCK_SIZE as u64;
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let chunk = idx / PTRS_PER_INDIRECT as u64;
            let slot = (idx % PTRS_PER_INDIRECT as u64) as usize;
            let mut ptrs = self.body_ptrs(oid, chunk)?;
            if ptrs.len() <= slot {
                ptrs.resize(slot + 1, 0);
            }
            let whole = within == 0 && take == BLOCK_SIZE;
            let mut block = if ptrs[slot] == 0 || whole {
                Block::zeroed()
            } else {
                self.read_block(ptrs[slot] as u64, ReiserBlockType::Data)?
                    .clone()
            };
            if ptrs[slot] == 0 {
                ptrs[slot] = self.alloc_block()? as u32;
                self.put_body_ptrs(oid, chunk, &ptrs)?;
            }
            block.put_bytes(within, &data[src..src + take]);
            self.write_data(ptrs[slot] as u64, &block)?;
            pos += take as u64;
            src += take;
        }
        sd.size = sd.size.max(end);
        self.put_stat(oid, &sd)?;
        self.maybe_commit()?;
        Ok(data.len())
    }

    fn truncate(&mut self, oid: u64, size: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut sd = self.stat_of(oid)?;
        if sd.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        if size >= sd.size {
            // Extension: tail-stored files get their tail padded; block
            // files read zeros from holes.
            if let Some(mut tail) = self.tail_of(oid)? {
                if size <= TAIL_MAX as u64 {
                    tail.resize(size as usize, 0);
                    self.tree_put(
                        Item {
                            key: Key::new(oid, ItemKind::Direct, 0),
                            payload: tail,
                        },
                        ReiserBlockType::Direct,
                    )?;
                } else {
                    let baddr = self.alloc_block()?;
                    self.write_data(baddr, &Block::from_bytes(&tail))?;
                    self.put_body_ptrs(oid, 0, &[baddr as u32])?;
                    self.tree_delete(Key::new(oid, ItemKind::Direct, 0), ReiserBlockType::Direct)?;
                }
            }
            sd.size = size;
            self.put_stat(oid, &sd)?;
            return self.maybe_commit();
        }
        // Shrink.
        if let Some(mut tail) = self.tail_of(oid)? {
            tail.truncate(size as usize);
            self.tree_put(
                Item {
                    key: Key::new(oid, ItemKind::Direct, 0),
                    payload: tail,
                },
                ReiserBlockType::Direct,
            )?;
        } else {
            let bs = BLOCK_SIZE as u64;
            let keep = size.div_ceil(bs);
            let old = sd.size.div_ceil(bs);
            let mut chunk = keep / PTRS_PER_INDIRECT as u64;
            let last_chunk = old.div_ceil(PTRS_PER_INDIRECT as u64);
            while chunk <= last_chunk {
                // PAPER-BUG: indirect read failures here are ignored and
                // the blocks leak (space accounting proceeds regardless).
                match self.body_ptrs(oid, chunk) {
                    Ok(mut ptrs) => {
                        let chunk_base = chunk * PTRS_PER_INDIRECT as u64;
                        for (i, p) in ptrs.iter_mut().enumerate() {
                            if chunk_base + i as u64 >= keep && *p != 0 {
                                self.free_block(*p as u64)?;
                                *p = 0;
                            }
                        }
                        if ptrs.iter().all(|p| *p == 0) {
                            let _ = self.tree_delete(
                                Key::new(oid, ItemKind::Indirect, chunk),
                                ReiserBlockType::Indirect,
                            )?;
                        } else {
                            self.put_body_ptrs(oid, chunk, &ptrs)?;
                        }
                    }
                    Err(VfsError::Errno(Errno::EIO)) => {}
                    Err(e) => return Err(e),
                }
                chunk += 1;
            }
            // Zero the tail of a partial final block.
            if !size.is_multiple_of(bs) {
                let idx = size / bs;
                let ptrs = self.body_ptrs(oid, idx / PTRS_PER_INDIRECT as u64)?;
                if let Some(&p) = ptrs.get((idx % PTRS_PER_INDIRECT as u64) as usize) {
                    if p != 0 {
                        let mut b = self.read_block(p as u64, ReiserBlockType::Data)?.clone();
                        for byte in &mut b[(size % bs) as usize..] {
                            *byte = 0;
                        }
                        self.write_data(p as u64, &b)?;
                    }
                }
            }
        }
        sd.size = size;
        self.put_stat(oid, &sd)?;
        self.maybe_commit()
    }

    fn readdir(&mut self, dir: u64) -> VfsResult<Vec<DirEntry>> {
        self.env.check_alive()?;
        let sd = self.stat_of(dir)?;
        if sd.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        let mut out = vec![
            DirEntry {
                name: ".".into(),
                ino: dir,
                ftype: FileType::Directory,
            },
            DirEntry {
                name: "..".into(),
                ino: sd.parent,
                ftype: FileType::Directory,
            },
        ];
        for item in self.tree_range(
            Key::min_of(dir, ItemKind::Dir),
            Key::max_of(dir, ItemKind::Dir),
            ReiserBlockType::DirItem,
        )? {
            if let Some((child, ftype, name)) = decode_dirent(&item.payload) {
                out.push(DirEntry {
                    name,
                    ino: child,
                    ftype,
                });
            }
        }
        Ok(out)
    }

    fn fsync(&mut self, _oid: u64) -> VfsResult<()> {
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
            inodes: u64::MAX / 2,
            inodes_free: u64::MAX / 2 - self.sb.next_oid,
        })
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.sb.dirty = false;
        self.write_super_direct()?;
        let _ = self.dev.flush();
        self.env.set_state(MountState::Unmounted);
        Ok(())
    }
}
