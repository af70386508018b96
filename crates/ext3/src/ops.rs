//! File-system operations: the [`SpecificFs`] implementation and its
//! supporting machinery (inode I/O, allocation, block maps, directories),
//! with ext3's per-operation failure policy — bugs included.

use iron_blockdev::{retry::classify, BlockDevice, Page, RawAccess};
use iron_core::recover::{ErrorClass, Step, Verdict, Walk};
use iron_core::{
    Block, BlockAddr, BlockTag, DetectionLevel, Errno, IoKind, LogLevel, RecoveryLevel, BLOCK_SIZE,
};
use iron_vfs::{DirEntry, FileType, FsEnv, InodeAttr, MountState, SpecificFs, StatFs, VfsResult};

use crate::dir::{self, ftype_code, ftype_from_code, Listing};
use crate::fs::Ext3Fs;
use crate::inode::{DiskInode, NDIRECT, PTRS_PER_BLOCK};
use crate::iron::SHA1_BLOCK_COST_NS;
use crate::layout::{BlockType, FIRST_FREE_INO, ROOT_INO};
use crate::superblock::FsState;

type Ino = u64;

#[cfg(test)]
thread_local! {
    /// Owned block reads (`edit_meta`'s copy path + `read_data_block`) on
    /// this thread: what the tests count to show a warmed read-only
    /// operation, or an edit of a block already staged, makes none.
    static OWNED_READS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Encodings of the counter blocks (superblock + GDT) on this thread.
    pub(crate) static SUPER_ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<D: BlockDevice + RawAccess> Ext3Fs<D> {
    // ==================================================================
    // Metadata read path — the centerpiece of the failure policy.
    // ==================================================================

    /// Inspect a metadata block in place, with full policy:
    ///
    /// * staged transaction copy and buffer cache are consulted first, and
    ///   `f` looks at the block where it lives — a hit copies nothing;
    /// * a device error is detected via the error code (`DErrorCode`),
    ///   logged, and the metadata-read escalation chain from the policy
    ///   table runs — stock ext3's chain is `Redundancy` (skipped without
    ///   `Mr`) then `DegradeReadOnly` (abort the journal, `EIO`);
    /// * with `Mc`, contents are verified against the checksum table
    ///   (`DRedundancy`); a mismatch walks the same chain under the
    ///   `Corrupt` error class, so `Mr` recovers from the distant replica
    ///   (`RRedundancy`).
    pub(crate) fn with_meta<T>(
        &mut self,
        addr: u64,
        ty: BlockType,
        f: impl FnOnce(&Block) -> T,
    ) -> VfsResult<T> {
        if let Some(b) = self.staged_copy(addr) {
            return Ok(f(b));
        }
        let checksummed = self.opts.iron.meta_checksum;
        let replica = |fs: &mut Self| fs.meta_replica(addr);
        self.with_policed("metadata", addr, ty.tag(), checksummed, replica, f)
    }

    /// Edit a metadata block and stage it: the read-modify-write of
    /// `iput`, the bitmaps and the indirect blocks.
    ///
    /// When the running transaction stages `addr` as `ty`, `f` edits that
    /// copy where it lies (as JBD edits a buffer already joined to the
    /// running transaction), and the cached entry takes the new bytes and
    /// the touch that staging a copy would have given it. Otherwise the
    /// block is read under policy ([`Self::with_meta`]), copied, edited and
    /// staged ([`Self::write_meta`]). Either way an edit makes at most the
    /// one read the block needs; a blind overwrite is a `write_meta`.
    pub(crate) fn edit_meta<T>(
        &mut self,
        addr: u64,
        ty: BlockType,
        f: impl FnOnce(&mut Block) -> T,
    ) -> VfsResult<T> {
        if let Some(staged) = self.running.get_mut(addr, ty) {
            let out = f(staged);
            self.cache_staged(addr);
            return Ok(out);
        }
        #[cfg(test)]
        OWNED_READS.with(|n| n.set(n.get() + 1));
        let mut b = self.with_meta(addr, ty, Block::clone)?;
        let out = f(&mut b);
        self.write_meta(addr, b, ty);
        Ok(out)
    }

    /// The read path under policy, shared by metadata and data: buffer
    /// cache (one LRU touch, `f` applied to the resident block), then the
    /// device; a device error or (when `checksummed`) a content mismatch
    /// is logged and handed to the chain walker, whose re-issues are held
    /// to the same content check and whose `Redundancy` rung is
    /// `redundancy`. Whatever the fetch yields is shown to `f` and then
    /// moved into the cache.
    fn with_policed<T>(
        &mut self,
        what: &str,
        addr: u64,
        tag: BlockTag,
        checksummed: bool,
        mut redundancy: impl FnMut(&mut Self) -> Option<Block>,
        f: impl FnOnce(&Block) -> T,
    ) -> VfsResult<T> {
        if let Some(b) = self.cache.get(BlockAddr(addr)) {
            return Ok(f(b));
        }
        let b = match self.read_verified(addr, tag, checksummed) {
            Ok(b) => b,
            Err(class) => {
                if class == ErrorClass::Corrupt {
                    let msg = format!("checksum mismatch on {what} block {addr} ({tag})");
                    let evidence = DetectionLevel::DRedundancy;
                    self.env
                        .klog
                        .evidence(LogLevel::Error, "ixt3", evidence, msg);
                } else {
                    let msg = format!("I/O error reading {what} block {addr} ({tag})");
                    self.env.klog.error("ext3", msg);
                }
                let key = (tag, IoKind::Read, class);
                self.walk_chain(&format!("{what} read"), addr, key, |fs, step| match step {
                    Step::Reissue { .. } => fs.read_verified(addr, tag, checksummed).ok(),
                    Step::Redundancy => redundancy(fs),
                })?
            }
        };
        let out = f(&b);
        self.cache_put(addr, b);
        Ok(out)
    }

    /// One device read, accepted only if what arrives passes the block's
    /// content check — inline, so attempts stay bounded. A block with a
    /// recorded checksum is read as a shared page, whose digest may be
    /// memoized already; the comparison is made, and charged, on every
    /// read.
    fn read_verified(
        &mut self,
        addr: u64,
        tag: BlockTag,
        checksummed: bool,
    ) -> Result<Block, ErrorClass> {
        // `None`: an address past the table, on a device larger than the
        // volume. It has no entry to pass, but is read first so that an
        // address past the device still fails as the device says.
        let expected = if checksummed {
            self.cksums.get(addr as usize).copied()
        } else {
            Some(0)
        };
        if let Some(expected @ 1..) = expected {
            let page = self
                .dev
                .read_page(BlockAddr(addr), tag)
                .map_err(|e| classify(&e))?;
            self.charge_cpu(SHA1_BLOCK_COST_NS);
            if page.sha1().truncated64() != expected {
                return Err(ErrorClass::Corrupt);
            }
            return Ok(page.to_block());
        }
        let b = self
            .dev
            .read_tagged(BlockAddr(addr), tag)
            .map_err(|e| classify(&e))?;
        if expected.is_none() {
            return Err(ErrorClass::Corrupt);
        }
        Ok(b)
    }

    /// Hand a failed request to the chain walker and give its verdict
    /// ext3's meaning: `DegradeReadOnly` aborts the journal (`EIO`),
    /// `Propagate` is a plain `EIO`, `Stop` panics. `what` names the
    /// request in the log (`"data read"`); `step` re-issues it or tries
    /// its redundant copy. Backoff is charged to the CPU clock when
    /// accounting is on.
    pub(crate) fn walk_chain<T>(
        &mut self,
        what: &str,
        addr: u64,
        (tag, io, class): (BlockTag, IoKind, ErrorClass),
        mut step: impl FnMut(&mut Self, Step) -> Option<T>,
    ) -> VfsResult<T> {
        // Handles are cloned so `step` can borrow the file system.
        let (policy, klog) = (self.opts.policy.clone(), self.env.klog.clone());
        let clock = self.opts.cpu_clock.clone();
        let site = Walk {
            klog: &klog,
            subsystem: "ext3",
            clock: clock.as_ref(),
            can_degrade: true,
            request: &format!("{what} {addr}"),
        };
        match policy.walk(&site, tag, io, class, |s| step(self, s)) {
            Verdict::Recovered(v) => Ok(v),
            Verdict::Degrade => {
                self.abort_journal(&format!("{what} failure"));
                Err(Errno::EIO.into())
            }
            Verdict::Propagate => Err(Errno::EIO.into()),
            Verdict::Stop => Err(self
                .env
                .panic("ext3", format!("unrecoverable {what}, block {addr}"))),
        }
    }

    /// The `Mr` redundancy rung: recover a metadata block from its
    /// distant replica, freshest copy first. `None` when replication is
    /// off or every copy is bad.
    fn meta_replica(&mut self, addr: u64) -> Option<Block> {
        if !self.opts.iron.meta_replication {
            return None;
        }
        let b = match self.replica_pending.get(&addr).cloned() {
            // A replica still in the write-back set is the freshest copy.
            Some(b) => b,
            None => {
                let raddr = self.layout().replica_of(addr);
                match self.dev.read_tagged(raddr, BlockType::Replica.tag()) {
                    Ok(b) if !self.opts.iron.meta_checksum || self.verify_cksum(addr, &b) => b,
                    Ok(_) => {
                        let msg = format!("replica of metadata block {addr} also bad");
                        self.env.klog.error("ixt3", msg);
                        return None;
                    }
                    Err(_) => {
                        let msg = format!("replica read failed for metadata block {addr}");
                        self.env.klog.error("ixt3", msg);
                        return None;
                    }
                }
            }
        };
        let msg = format!("metadata block {addr} recovered from replica");
        self.env
            .klog
            .evidence(LogLevel::Info, "ixt3", RecoveryLevel::RRedundancy, msg);
        Some(b)
    }

    // ==================================================================
    // Data block paths.
    // ==================================================================

    /// Inspect a data block in place. `file` supplies parity context when
    /// available.
    ///
    /// The data-read escalation chain comes from the policy table; the
    /// stock chain reproduces §5.1 exactly — one immediate re-read of the
    /// originally requested block ("when a prefetch read fails, ext3
    /// retries only the originally requested block", `RRetry`), then
    /// redundancy, then `EIO` with no journal abort (`RPropagate`). With
    /// `Dc`, contents are checksum-verified (a mismatch walks the chain
    /// under the `Corrupt` class, which stock policy does *not* re-read);
    /// with `Dp`, the `Redundancy` rung reconstructs the block from the
    /// file's other blocks and its parity block.
    pub(crate) fn with_data<T>(
        &mut self,
        file: Option<(Ino, DiskInode)>,
        addr: u64,
        f: impl FnOnce(&Block) -> T,
    ) -> VfsResult<T> {
        let checksummed = self.opts.iron.data_checksum;
        let parity = |fs: &mut Self| fs.data_parity_recover(file, addr);
        self.with_policed("data", addr, BlockType::Data.tag(), checksummed, parity, f)
    }

    /// An owned copy of a data block, for the sites that go on to modify
    /// it (`write`'s partial-block base, `truncate`): [`Self::with_data`]
    /// plus the clone.
    pub(crate) fn read_data_block(
        &mut self,
        file: Option<(Ino, DiskInode)>,
        addr: u64,
    ) -> VfsResult<Block> {
        #[cfg(test)]
        OWNED_READS.with(|n| n.set(n.get() + 1));
        self.with_data(file, addr, Block::clone)
    }

    /// The `Dp` redundancy rung: rebuild a lost data block from parity.
    /// `None` when parity is off, unavailable for this file, or the
    /// reconstruction fails (including its verification checksum).
    fn data_parity_recover(&mut self, file: Option<(Ino, DiskInode)>, addr: u64) -> Option<Block> {
        if !self.opts.iron.data_parity {
            return None;
        }
        let (ino, di) = file?;
        if di.parity == 0 {
            return None;
        }
        match self.reconstruct_from_parity(ino, di, addr) {
            // A reconstruction is only as good as the parity it came
            // from: a crash can tear data and parity together, so the
            // rebuilt block must pass the same checksum the original
            // failed — otherwise silent garbage would be returned as
            // file data (found by the iron-crash enumerator).
            Ok(b) => {
                if self.opts.iron.data_checksum && !self.verify_cksum(addr, &b) {
                    self.env.klog.error(
                        "ixt3",
                        format!(
                            "parity reconstruction of block {addr} failed its \
                             checksum; returning EIO"
                        ),
                    );
                    return None;
                }
                self.env.klog.evidence(
                    LogLevel::Info,
                    "ixt3",
                    RecoveryLevel::RRedundancy,
                    format!("data block {addr} reconstructed from parity"),
                );
                Some(b)
            }
            Err(_) => {
                self.env.klog.error(
                    "ixt3",
                    format!("parity reconstruction failed for block {addr}"),
                );
                None
            }
        }
    }

    /// XOR together the file's other data blocks and its parity block to
    /// rebuild `failed`.
    fn reconstruct_from_parity(
        &mut self,
        ino: Ino,
        di: DiskInode,
        failed: u64,
    ) -> VfsResult<Block> {
        let mut acc = if let Some(p) = self.parity_dirty.get(&ino) {
            p.clone()
        } else {
            self.dev
                .read_tagged(BlockAddr(di.parity as u64), BlockType::Parity.tag())
                .map_err(iron_vfs::VfsError::from)?
        };
        for baddr in self.file_blocks(&di)? {
            if baddr == failed {
                continue;
            }
            let fetched;
            let b = match self.cache.get(BlockAddr(baddr)) {
                Some(b) => b,
                None => {
                    fetched = self
                        .dev
                        .read_tagged(BlockAddr(baddr), BlockType::Data.tag())
                        .map_err(iron_vfs::VfsError::from)?;
                    &fetched
                }
            };
            acc.xor_with(b);
        }
        Ok(acc)
    }

    /// Write a data block in place (ordered-mode approximation).
    ///
    /// PAPER-BUG (stock): the write's error code is dropped on the floor —
    /// "when a write fails, ext3 does not record the error code; hence,
    /// write errors are often ignored". The page cache still holds the new
    /// contents, so subsequent reads *hide* the failure. With `fix_bugs`
    /// the error walks the write chain (stock: abort the journal) and
    /// propagates.
    pub(crate) fn write_data_block(&mut self, addr: u64, block: Block) -> VfsResult<()> {
        // One page goes down and keeps the digest `Dc` records, so a later
        // read of the block that finds this page does not hash it again.
        let page = Page::new(&block);
        self.note_digest(addr, false, || page.sha1());
        let tag = BlockType::Data.tag();
        let written = self.checked_write("data write", addr, tag, |dev| {
            dev.write_page(BlockAddr(addr), &page, tag)
        });
        self.cache_put(addr, block);
        written.map(drop)
    }

    // ==================================================================
    // Inode I/O.
    // ==================================================================

    /// Read an inode without any sanity checking (internal paths that must
    /// not double-report).
    pub(crate) fn raw_iget(&mut self, ino: Ino) -> VfsResult<DiskInode> {
        let (blk, off) = self.layout().inode_location(ino);
        self.with_meta(blk.0, BlockType::Inode, |b| DiskInode::decode_from(b, off))
    }

    /// Read an inode, applying ext3's sanity checks: a free slot is
    /// `ENOENT`; invalid type bits or an overly-large size are detected
    /// (`DSanity`) and propagate as `EUCLEAN`.
    pub(crate) fn iget(&mut self, ino: Ino) -> VfsResult<DiskInode> {
        if ino == 0 || ino > self.layout().total_inodes() {
            return Err(Errno::ENOENT.into());
        }
        let di = self.raw_iget(ino)?;
        if di.is_free() {
            return Err(Errno::ENOENT.into());
        }
        if !di.sanity_check() {
            let msg = format!("corrupted inode {ino}: bad mode/size (sanity check failed)");
            return Err(self.env.reject("ext3", msg));
        }
        Ok(di)
    }

    /// Write an inode back (read-modify-write of its table block, staged in
    /// the journal).
    pub(crate) fn iput(&mut self, ino: Ino, di: &DiskInode) -> VfsResult<()> {
        let (blk, off) = self.layout().inode_location(ino);
        self.edit_meta(blk.0, BlockType::Inode, |b| di.encode_into(b, off))
    }

    // ==================================================================
    // Allocation.
    // ==================================================================

    /// Allocate a data block, preferring `hint_group`. No sanity checking
    /// of bitmap contents (§5.1): a corrupted bitmap silently misallocates.
    pub(crate) fn alloc_block(&mut self, hint_group: u64) -> VfsResult<u64> {
        let ng = self.layout().num_groups;
        let bpg = self.layout().params.blocks_per_group;
        for i in 0..ng {
            let g = (hint_group + i) % ng;
            let bm_addr = self.layout().data_bitmap(g).0;
            let data_lo = self.layout().data_start(g) - self.layout().group_base(g);
            // Allocate against the committed bitmap state: bits freed by
            // not-yet-committed transactions are still busy (see
            // `uncommitted_frees`). The overlay steps out of `self` while
            // the bitmap is inspected where it lies.
            let freed = self.uncommitted_frees[g as usize].take();
            let found = self.with_meta(bm_addr, BlockType::DataBitmap, |bm| {
                bm.first_zero_bit_masked(freed.as_ref(), bpg, data_lo)
            });
            self.uncommitted_frees[g as usize] = freed;
            if let Some(bit) = found? {
                self.edit_meta(bm_addr, BlockType::DataBitmap, |bm| bm.set_bit(bit))?;
                self.sb.free_blocks = self.sb.free_blocks.saturating_sub(1);
                if let Some(gd) = self.gdt.get_mut(g as usize) {
                    gd.0 = gd.0.saturating_sub(1);
                }
                self.write_counters();
                return Ok(self.layout().group_base(g) + bit);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    /// Free a data block.
    pub(crate) fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let Some(g) = self.layout().group_of_block(addr) else {
            return Ok(()); // out-of-layout pointer: freed "nowhere", silently
        };
        let bm_addr = self.layout().data_bitmap(g).0;
        let bit = addr - self.layout().group_base(g);
        self.edit_meta(bm_addr, BlockType::DataBitmap, |bm| bm.clear_bit(bit))?;
        self.sb.free_blocks += 1;
        if let Some(gd) = self.gdt.get_mut(g as usize) {
            gd.0 += 1;
        }
        self.write_counters();
        // Forget (JBD `journal_forget`): drop any copy of this block staged
        // in the running transaction and revoke it, so neither checkpoint
        // nor replay can write a stale image over the block once it is
        // reused — e.g. a freed directory block reallocated as file data.
        // The legacy knob re-introduces the seed bug of skipping this.
        if !self.opts.legacy_journal_bugs {
            self.revoke_meta(addr);
            self.uncommitted_frees[g as usize]
                .get_or_insert_with(Block::zeroed)
                .set_bit(bit);
        }
        Ok(())
    }

    /// Allocate an inode.
    pub(crate) fn alloc_inode(&mut self) -> VfsResult<Ino> {
        let ipg = self.layout().params.inodes_per_group;
        for g in 0..self.layout().num_groups {
            let bm_addr = self.layout().inode_bitmap(g).0;
            let found = self.with_meta(bm_addr, BlockType::InodeBitmap, |bm| {
                bm.first_zero_bit(ipg, 0)
            })?;
            if let Some(bit) = found {
                self.edit_meta(bm_addr, BlockType::InodeBitmap, |bm| bm.set_bit(bit))?;
                self.sb.free_inodes = self.sb.free_inodes.saturating_sub(1);
                if let Some(gd) = self.gdt.get_mut(g as usize) {
                    gd.1 = gd.1.saturating_sub(1);
                }
                self.write_counters();
                let ino = g * ipg + bit + 1;
                debug_assert!(ino >= FIRST_FREE_INO || ino == ROOT_INO || g > 0);
                return Ok(ino);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    /// Free an inode (clears its bitmap bit and zeroes its table slot).
    pub(crate) fn free_inode(&mut self, ino: Ino) -> VfsResult<()> {
        let ipg = self.layout().params.inodes_per_group;
        let g = (ino - 1) / ipg;
        let bit = (ino - 1) % ipg;
        let bm_addr = self.layout().inode_bitmap(g).0;
        self.edit_meta(bm_addr, BlockType::InodeBitmap, |bm| bm.clear_bit(bit))?;
        self.sb.free_inodes += 1;
        if let Some(gd) = self.gdt.get_mut(g as usize) {
            gd.1 += 1;
        }
        self.write_counters();
        self.iput(ino, &DiskInode::empty())
    }

    // ==================================================================
    // Block map (direct / indirect / double-indirect).
    // ==================================================================

    /// Map a file block index to a device address (0 = hole). Indirect
    /// blocks are read with **no sanity checking** — corrupted pointers are
    /// followed blindly (§5.1).
    pub(crate) fn get_file_block(&mut self, di: &DiskInode, idx: u64) -> VfsResult<u64> {
        let ppb = PTRS_PER_BLOCK as u64;
        if idx < NDIRECT as u64 {
            return Ok(di.direct[idx as usize] as u64);
        }
        let idx = idx - NDIRECT as u64;
        if idx < ppb {
            if di.indirect == 0 {
                return Ok(0);
            }
            return self.indirect_ptr(di.indirect as u64, idx);
        }
        let idx = idx - ppb;
        if idx < ppb * ppb {
            if di.double_indirect == 0 {
                return Ok(0);
            }
            let l2_ptr = self.indirect_ptr(di.double_indirect as u64, idx / ppb)?;
            if l2_ptr == 0 {
                return Ok(0);
            }
            return self.indirect_ptr(l2_ptr, idx % ppb);
        }
        Err(Errno::EFBIG.into())
    }

    /// Pointer `slot` of the indirect block at `addr`.
    fn indirect_ptr(&mut self, addr: u64, slot: u64) -> VfsResult<u64> {
        self.with_meta(addr, BlockType::Indirect, |b| {
            b.get_u32(slot as usize * 4) as u64
        })
    }

    /// The nonzero pointers of the indirect block at `addr`, in slot order.
    fn indirect_ptrs(&mut self, addr: u64) -> VfsResult<Vec<u64>> {
        self.with_meta(addr, BlockType::Indirect, |b| {
            (0..PTRS_PER_BLOCK)
                .map(|i| b.get_u32(i * 4) as u64)
                .filter(|&p| p != 0)
                .collect()
        })
    }

    /// Point file block `idx` at `addr`, allocating indirect blocks as
    /// needed. Updates `di` in place (caller must `iput`).
    pub(crate) fn set_file_block(
        &mut self,
        di: &mut DiskInode,
        idx: u64,
        addr: u64,
        hint_group: u64,
    ) -> VfsResult<()> {
        let ppb = PTRS_PER_BLOCK as u64;
        if idx < NDIRECT as u64 {
            di.direct[idx as usize] = addr as u32;
            return Ok(());
        }
        let idx = idx - NDIRECT as u64;
        if idx < ppb {
            if di.indirect == 0 {
                let nb = self.alloc_block(hint_group)?;
                di.indirect = nb as u32;
                di.blocks_count += 1;
                self.write_meta(nb, Block::zeroed(), BlockType::Indirect);
            }
            let slot = idx as usize * 4;
            let iaddr = di.indirect as u64;
            return self.edit_meta(iaddr, BlockType::Indirect, |ib| {
                ib.put_u32(slot, addr as u32)
            });
        }
        let idx = idx - ppb;
        if idx < ppb * ppb {
            if di.double_indirect == 0 {
                let nb = self.alloc_block(hint_group)?;
                di.double_indirect = nb as u32;
                di.blocks_count += 1;
                self.write_meta(nb, Block::zeroed(), BlockType::Indirect);
            }
            let l1_addr = di.double_indirect as u64;
            let slot = (idx / ppb) as usize * 4;
            // One look at the top block. A missing second-level block is
            // allocated between that look and the edit, and the bitmap
            // search may evict the top block from a small cache: it is
            // edited in the copy that look took, so no read is added.
            let (mut l2_ptr, l1) = self.with_meta(l1_addr, BlockType::Indirect, |l1| {
                let ptr = l1.get_u32(slot) as u64;
                (ptr, (ptr == 0).then(|| l1.clone()))
            })?;
            if let Some(mut l1) = l1 {
                l2_ptr = self.alloc_block(hint_group)?;
                di.blocks_count += 1;
                self.write_meta(l2_ptr, Block::zeroed(), BlockType::Indirect);
                l1.put_u32(slot, l2_ptr as u32);
                self.write_meta(l1_addr, l1, BlockType::Indirect);
            }
            let slot = (idx % ppb) as usize * 4;
            return self.edit_meta(l2_ptr, BlockType::Indirect, |l2| {
                l2.put_u32(slot, addr as u32)
            });
        }
        Err(Errno::EFBIG.into())
    }

    /// Every allocated data-block address of a file, in index order.
    pub(crate) fn file_blocks(&mut self, di: &DiskInode) -> VfsResult<Vec<u64>> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::new();
        for idx in 0..nblocks {
            let a = self.get_file_block(di, idx)?;
            if a != 0 {
                out.push(a);
            }
        }
        Ok(out)
    }

    // ==================================================================
    // Directories.
    // ==================================================================

    /// All entries of a directory (parsed leniently, per ext3).
    pub(crate) fn dir_listing(&mut self, di: &DiskInode) -> VfsResult<Listing> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Listing::default();
        for idx in 0..nblocks {
            let addr = self.get_file_block(di, idx)?;
            if addr == 0 {
                continue;
            }
            self.with_meta(addr, BlockType::Dir, |b| out.read_block(b))?;
        }
        Ok(out)
    }

    /// Rewrite a directory from `listing`, growing/shrinking its blocks.
    pub(crate) fn dir_write(
        &mut self,
        dir_ino: Ino,
        di: &mut DiskInode,
        listing: &Listing,
    ) -> VfsResult<()> {
        let blocks = listing.pack();
        let nblocks = blocks.len();
        let old_nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        let hint = (dir_ino - 1) / self.layout().params.inodes_per_group;
        for (idx, b) in blocks.into_iter().enumerate() {
            let mut addr = self.get_file_block(di, idx as u64)?;
            if addr == 0 {
                addr = self.alloc_block(hint)?;
                di.blocks_count += 1;
                self.set_file_block(di, idx as u64, addr, hint)?;
            }
            self.write_meta(addr, b, BlockType::Dir);
        }
        // Shrink: free surplus blocks.
        for idx in nblocks as u64..old_nblocks {
            let addr = self.get_file_block(di, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
                di.blocks_count = di.blocks_count.saturating_sub(1);
                self.set_file_block(di, idx, 0, hint)?;
            }
        }
        di.size = (nblocks * BLOCK_SIZE) as u64;
        self.iput(dir_ino, di)
    }

    /// Find `name` in a directory, as `(ino, ftype)`: blocks in index
    /// order, done at the first match (as `ext3_find_entry` is), nothing
    /// parsed into owned entries.
    pub(crate) fn dir_find(&mut self, di: &DiskInode, name: &str) -> VfsResult<Option<(u32, u8)>> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        for idx in 0..nblocks {
            let addr = self.get_file_block(di, idx)?;
            if addr == 0 {
                continue;
            }
            let found = self.with_meta(addr, BlockType::Dir, |b| dir::find_in_block(b, name))?;
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// The allocated data-block addresses of a file, in index order —
    /// public so the fingerprinting framework and tests can aim faults at
    /// a specific file's blocks (type-aware injection needs addresses for
    /// dynamic block types).
    pub fn blocks_of(&mut self, ino: Ino) -> VfsResult<Vec<u64>> {
        let di = self.iget(ino)?;
        self.file_blocks(&di)
    }

    /// The (single/double) indirect block addresses of a file, in tree
    /// order — fault-injection targets for the `indirect` block type.
    pub fn indirect_blocks_of(&mut self, ino: Ino) -> VfsResult<Vec<u64>> {
        let di = self.iget(ino)?;
        let mut out = Vec::new();
        if di.indirect != 0 {
            out.push(di.indirect as u64);
        }
        if di.double_indirect != 0 {
            out.push(di.double_indirect as u64);
            out.extend(self.indirect_ptrs(di.double_indirect as u64)?);
        }
        Ok(out)
    }

    /// Group hint for allocating near an inode.
    fn group_hint(&self, ino: Ino) -> u64 {
        (ino - 1) / self.layout().params.inodes_per_group
    }

    // ==================================================================
    // File body management.
    // ==================================================================

    /// Free every data/indirect block of a file (used by unlink and
    /// truncate-to-zero). Read errors on indirect blocks are swallowed when
    /// bugs are intact — PAPER-BUG: "while dealing with indirect blocks …
    /// it updates the bitmaps and super block incorrectly, leaking space"
    /// (that is ReiserFS's flavor; ext3's flavor is the silent truncate,
    /// handled by the caller).
    fn free_file_blocks(&mut self, di: &mut DiskInode) -> VfsResult<()> {
        let nblocks = di.size.div_ceil(BLOCK_SIZE as u64);
        for idx in 0..nblocks {
            let addr = self.get_file_block(di, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
            }
        }
        if di.indirect != 0 {
            self.free_block(di.indirect as u64)?;
            di.indirect = 0;
        }
        if di.double_indirect != 0 {
            let l1_addr = di.double_indirect as u64;
            for p in self.indirect_ptrs(l1_addr)? {
                self.free_block(p)?;
            }
            self.free_block(l1_addr)?;
            di.double_indirect = 0;
        }
        di.direct = [0; NDIRECT];
        di.blocks_count = if di.parity != 0 { 1 } else { 0 };
        di.size = 0;
        Ok(())
    }

    /// Create an inode of the given type, allocating its parity block when
    /// `Dp` is on.
    fn new_inode(&mut self, ftype: FileType, perm: u32) -> VfsResult<Ino> {
        let ino = self.alloc_inode()?;
        let mut di = DiskInode::new(ftype, perm);
        if self.opts.iron.data_parity && ftype == FileType::Regular {
            let p = self.alloc_block(self.group_hint(ino))?;
            di.parity = p as u32;
            di.blocks_count += 1;
            // Preallocated parity starts as zeros (§6.1: "we preallocate
            // parity blocks and assign them to files when they are
            // created").
            let (zeros, tag) = (Block::zeroed(), BlockType::Parity.tag());
            self.checked_write("parity write", p, tag, |dev| {
                dev.write_tagged(BlockAddr(p), &zeros, tag)
            })?;
            self.cache_put(p, zeros);
        }
        self.iput(ino, &di)?;
        Ok(ino)
    }
}

impl<D: BlockDevice + RawAccess> SpecificFs for Ext3Fs<D> {
    fn env(&self) -> &FsEnv {
        self.env_ref()
    }

    fn root_ino(&self) -> u64 {
        ROOT_INO
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.env.check_alive()?;
        let di = self.iget(dir)?;
        if di.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        match self.dir_find(&di, name)? {
            Some((ino, _)) => Ok(ino as u64),
            None => Err(Errno::ENOENT.into()),
        }
    }

    fn getattr(&mut self, ino: Ino) -> VfsResult<InodeAttr> {
        self.env.check_alive()?;
        Ok(self.iget(ino)?.attr(ino))
    }

    fn chmod(&mut self, ino: Ino, mode: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.iget(ino)?;
        di.mode = (di.mode & 0xF000) | (mode & 0o7777);
        self.iput(ino, &di)?;
        self.maybe_commit()
    }

    fn chown(&mut self, ino: Ino, uid: u32, gid: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.iget(ino)?;
        di.uid = uid;
        di.gid = gid;
        self.iput(ino, &di)?;
        self.maybe_commit()
    }

    fn utimes(&mut self, ino: Ino, mtime: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut di = self.iget(ino)?;
        di.mtime = mtime;
        self.iput(ino, &di)?;
        self.maybe_commit()
    }

    fn create(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.env.check_writable()?;
        let mut dd = self.iget(dir)?;
        if dd.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.new_inode(FileType::Regular, mode)?;
        let mut listing = self.dir_listing(&dd)?;
        listing.push(ino as u32, ftype_code(FileType::Regular), name);
        self.dir_write(dir, &mut dd, &listing)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn mkdir(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.env.check_writable()?;
        let mut dd = self.iget(dir)?;
        if dd.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.new_inode(FileType::Directory, mode)?;
        let mut child = self.raw_iget(ino)?;
        let code = ftype_code(FileType::Directory);
        let mut child_listing = Listing::default();
        child_listing.push(ino as u32, code, ".");
        child_listing.push(dir as u32, code, "..");
        self.dir_write(ino, &mut child, &child_listing)?;
        let mut listing = self.dir_listing(&dd)?;
        listing.push(ino as u32, code, name);
        dd.links_count += 1; // child's ".." link
        self.dir_write(dir, &mut dd, &listing)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut dd = self.iget(dir)?;
        let Some((ino, _)) = self.dir_find(&dd, name)? else {
            return Err(Errno::ENOENT.into());
        };
        let ino = ino as u64;
        let mut di = self.iget(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        // PAPER-BUG: ext3's unlink "does not check the linkscount field
        // before modifying it and therefore a corrupted value can lead to a
        // system crash."
        if di.links_count == 0 {
            if self.opts.iron.fix_bugs {
                let msg = format!("inode {ino} has zero link count");
                return Err(self.env.reject("ext3", msg));
            }
            return Err(self.env.panic(
                "ext3",
                format!("kernel BUG: inode {ino} links_count underflow in unlink"),
            ));
        }
        let mut listing = self.dir_listing(&dd)?;
        listing.remove(name);
        self.dir_write(dir, &mut dd, &listing)?;
        di.links_count -= 1;
        if di.links_count == 0 {
            self.free_file_blocks(&mut di)?;
            if di.parity != 0 {
                self.free_block(di.parity as u64)?;
                self.parity_dirty.remove(&ino);
            }
            self.free_inode(ino)?;
        } else {
            self.iput(ino, &di)?;
        }
        self.maybe_commit()
    }

    fn rmdir(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        // PAPER-BUG: rmdir "fails silently" — internal I/O errors are not
        // propagated to the caller.
        let inner = (|| -> VfsResult<()> {
            let mut dd = self.iget(dir)?;
            let Some((ino, _)) = self.dir_find(&dd, name)? else {
                return Err(Errno::ENOENT.into());
            };
            let ino = ino as u64;
            let mut di = self.iget(ino)?;
            if di.file_type() != Some(FileType::Directory) {
                return Err(Errno::ENOTDIR.into());
            }
            let children = self.dir_listing(&di)?;
            if children.iter().any(|(_, _, n)| n != "." && n != "..") {
                return Err(Errno::ENOTEMPTY.into());
            }
            let mut listing = self.dir_listing(&dd)?;
            listing.remove(name);
            dd.links_count = dd.links_count.saturating_sub(1);
            self.dir_write(dir, &mut dd, &listing)?;
            self.free_file_blocks(&mut di)?;
            self.free_inode(ino)?;
            self.maybe_commit()
        })();
        match inner {
            Err(iron_vfs::VfsError::Errno(Errno::EIO)) if !self.opts.iron.fix_bugs => {
                // Swallowed: the user sees success while the directory
                // remains (the paper's silent rmdir failure).
                Ok(())
            }
            other => other,
        }
    }

    fn link(&mut self, ino: Ino, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut dd = self.iget(dir)?;
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let mut di = self.iget(ino)?;
        di.links_count += 1;
        self.iput(ino, &di)?;
        let mut listing = self.dir_listing(&dd)?;
        let ftype = di.file_type().unwrap_or(FileType::Regular);
        listing.push(ino as u32, ftype_code(ftype), name);
        self.dir_write(dir, &mut dd, &listing)?;
        self.maybe_commit()
    }

    fn symlink(&mut self, dir: Ino, name: &str, target: &str) -> VfsResult<Ino> {
        self.env.check_writable()?;
        let mut dd = self.iget(dir)?;
        if self.dir_find(&dd, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        if target.len() > BLOCK_SIZE {
            return Err(Errno::ENAMETOOLONG.into());
        }
        let ino = self.new_inode(FileType::Symlink, 0o777)?;
        let mut di = self.raw_iget(ino)?;
        let baddr = self.alloc_block(self.group_hint(ino))?;
        self.set_file_block(&mut di, 0, baddr, self.group_hint(ino))?;
        di.blocks_count += 1;
        di.size = target.len() as u64;
        self.write_data_block(baddr, Block::from_bytes(target.as_bytes()))?;
        self.iput(ino, &di)?;
        let mut listing = self.dir_listing(&dd)?;
        listing.push(ino as u32, ftype_code(FileType::Symlink), name);
        self.dir_write(dir, &mut dd, &listing)?;
        self.maybe_commit()?;
        Ok(ino)
    }

    fn readlink(&mut self, ino: Ino) -> VfsResult<String> {
        self.env.check_alive()?;
        let di = self.iget(ino)?;
        if di.file_type() != Some(FileType::Symlink) {
            return Err(Errno::EINVAL.into());
        }
        let addr = self.get_file_block(&di, 0)?;
        if addr == 0 {
            return Ok(String::new());
        }
        self.with_data(Some((ino, di)), addr, |b| {
            String::from_utf8_lossy(b.get_bytes(0, di.size as usize)).into_owned()
        })
    }

    fn rename(
        &mut self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.env.check_writable()?;
        let sd = self.iget(src_dir)?;
        let Some((moved_ino, moved_ftype)) = self.dir_find(&sd, src_name)? else {
            return Err(Errno::ENOENT.into());
        };
        let moved_ino = moved_ino as u64;
        let moved_is_dir = ftype_from_code(moved_ftype) == FileType::Directory;

        // Replace an existing destination file.
        let dd = self.iget(dst_dir)?;
        if let Some((existing, existing_ftype)) = self.dir_find(&dd, dst_name)? {
            if existing as u64 != moved_ino {
                if ftype_from_code(existing_ftype) == FileType::Directory {
                    return Err(Errno::EISDIR.into());
                }
                if moved_is_dir {
                    return Err(Errno::ENOTDIR.into());
                }
                self.unlink(dst_dir, dst_name)?;
            } else {
                return Ok(()); // same object
            }
        }

        // Remove from source.
        let mut sd = self.iget(src_dir)?;
        let mut src_listing = self.dir_listing(&sd)?;
        src_listing.remove(src_name);
        if moved_is_dir && src_dir != dst_dir {
            sd.links_count = sd.links_count.saturating_sub(1);
        }
        self.dir_write(src_dir, &mut sd, &src_listing)?;

        // Add to destination.
        let mut dd = self.iget(dst_dir)?;
        let mut dst_listing = self.dir_listing(&dd)?;
        dst_listing.push(moved_ino as u32, moved_ftype, dst_name);
        if moved_is_dir && src_dir != dst_dir {
            dd.links_count += 1;
        }
        self.dir_write(dst_dir, &mut dd, &dst_listing)?;

        // Fix the moved directory's "..".
        if moved_is_dir && src_dir != dst_dir {
            let mut md = self.iget(moved_ino)?;
            let mut moved_listing = self.dir_listing(&md)?;
            moved_listing.repoint("..", dst_dir as u32);
            self.dir_write(moved_ino, &mut md, &moved_listing)?;
        }
        self.maybe_commit()
    }

    fn read(&mut self, ino: Ino, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.env.check_alive()?;
        let di = self.iget(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        if off >= di.size {
            return Ok(Vec::new());
        }
        let end = off.saturating_add(len as u64).min(di.size);
        let mut out = Vec::with_capacity((end - off) as usize);
        let bs = BLOCK_SIZE as u64;
        let mut pos = off;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let addr = self.get_file_block(&di, idx)?;
            if addr == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                self.with_data(Some((ino, di)), addr, |b| {
                    out.extend_from_slice(b.get_bytes(within, take))
                })?;
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.env.check_writable()?;
        let mut di = self.iget(ino)?;
        if di.file_type() == Some(FileType::Directory) {
            return Err(Errno::EISDIR.into());
        }
        let hint = self.group_hint(ino);
        let bs = BLOCK_SIZE as u64;
        let mut pos = off;
        let end = match off.checked_add(data.len() as u64) {
            Some(end) if end <= DiskInode::max_file_size() => end,
            _ => return Err(Errno::EFBIG.into()),
        };
        let mut src = 0usize;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let mut addr = self.get_file_block(&di, idx)?;
            let preexisting = addr != 0;
            // A fresh block has no old contents, and a full-block
            // overwrite without parity does not need them.
            let full = within == 0 && take == BLOCK_SIZE;
            let mut old = if addr == 0 || (full && !self.opts.iron.data_parity) {
                None
            } else {
                Some(self.read_data_block(Some((ino, di)), addr)?)
            };
            if addr == 0 {
                addr = self.alloc_block(hint)?;
                di.blocks_count += 1;
                self.set_file_block(&mut di, idx, addr, hint)?;
            }
            // Parity wants `old` beside `new`; otherwise `new` is `old` edited.
            let parity = self.opts.iron.data_parity && di.parity != 0;
            let mut new = if parity { old.clone() } else { old.take() }.unwrap_or_default();
            new.put_bytes(within, &data[src..src + take]);
            if parity {
                self.parity_update(ino, di.parity as u64, old.as_ref(), &new)?;
            }
            if self.opts.iron.data_checksum && preexisting {
                // `Dc` overwrites are copy-on-write: an in-place overwrite
                // of a mapped block can leave new bytes under the old
                // *committed* checksum (or old bytes under the new one)
                // across a crash — the mismatch reads as EIO after an
                // otherwise clean recovery (found by the iron-crash
                // enumerator once the ordered-data barrier made the
                // data/commit split a pure epoch prefix). Writing a fresh
                // block instead lets the mapping, bitmaps, and checksum
                // entry flip atomically in the journal: before the commit
                // the old block/checksum pair is intact, after it the new
                // pair is — and the ordered barrier puts the fresh
                // contents on the platter before the commit block.
                let fresh = self.alloc_block(hint)?;
                self.write_data_block(fresh, new)?;
                self.free_block(addr)?;
                self.set_file_block(&mut di, idx, fresh, hint)?;
            } else {
                self.write_data_block(addr, new)?;
            }
            pos += take as u64;
            src += take;
        }
        if end > di.size {
            di.size = end;
        }
        self.iput(ino, &di)?;
        self.maybe_commit()?;
        Ok(data.len())
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        // PAPER-BUG: like rmdir, ext3's truncate swallows internal I/O
        // errors ("truncate and rmdir fail silently").
        let inner = (|| -> VfsResult<()> {
            let mut di = self.iget(ino)?;
            if di.file_type() == Some(FileType::Directory) {
                return Err(Errno::EISDIR.into());
            }
            if size >= di.size {
                // Extension: becomes a hole; reads return zeros.
                di.size = size;
                self.iput(ino, &di)?;
                return self.maybe_commit();
            }
            let bs = BLOCK_SIZE as u64;
            let keep_blocks = size.div_ceil(bs);
            let old_blocks = di.size.div_ceil(bs);
            let hint = self.group_hint(ino);
            for idx in keep_blocks..old_blocks {
                let addr = self.get_file_block(&di, idx)?;
                if addr != 0 {
                    if self.opts.iron.data_parity && di.parity != 0 {
                        let old = self.read_data_block(Some((ino, di)), addr)?;
                        self.parity_update(ino, di.parity as u64, Some(&old), &Block::zeroed())?;
                    }
                    self.free_block(addr)?;
                    di.blocks_count = di.blocks_count.saturating_sub(1);
                    self.set_file_block(&mut di, idx, 0, hint)?;
                }
            }
            // Zero the tail of a partial final block.
            if !size.is_multiple_of(bs) {
                let idx = size / bs;
                let addr = self.get_file_block(&di, idx)?;
                if addr != 0 {
                    let mut b = self.read_data_block(Some((ino, di)), addr)?;
                    let keep = (size % bs) as usize;
                    let old = b.clone();
                    for byte in &mut b[keep..] {
                        *byte = 0;
                    }
                    if self.opts.iron.data_parity && di.parity != 0 {
                        self.parity_update(ino, di.parity as u64, Some(&old), &b)?;
                    }
                    if self.opts.iron.data_checksum {
                        // Same COW-under-Dc rule as `write`: the zeroed
                        // tail must swap in atomically with its checksum.
                        let fresh = self.alloc_block(hint)?;
                        self.write_data_block(fresh, b)?;
                        self.free_block(addr)?;
                        self.set_file_block(&mut di, idx, fresh, hint)?;
                    } else {
                        self.write_data_block(addr, b)?;
                    }
                }
            }
            di.size = size;
            self.iput(ino, &di)?;
            self.maybe_commit()
        })();
        match inner {
            Err(iron_vfs::VfsError::Errno(Errno::EIO)) if !self.opts.iron.fix_bugs => Ok(()),
            other => other,
        }
    }

    fn readdir(&mut self, dirino: Ino) -> VfsResult<Vec<DirEntry>> {
        self.env.check_alive()?;
        let di = self.iget(dirino)?;
        if di.file_type() != Some(FileType::Directory) {
            return Err(Errno::ENOTDIR.into());
        }
        let listing = self.dir_listing(&di)?;
        let entries = listing.iter().map(|(ino, ftype, name)| DirEntry {
            name: name.to_string(),
            ino: ino as u64,
            ftype: ftype_from_code(ftype),
        });
        Ok(entries.collect())
    }

    fn fsync(&mut self, _ino: Ino) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.dev.flush().map_err(iron_vfs::VfsError::from)
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.dev.flush().map_err(iron_vfs::VfsError::from)
    }

    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.env.check_alive()?;
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            blocks: self.layout().num_groups * self.layout().data_blocks_per_group(),
            blocks_free: self.sb.free_blocks,
            inodes: self.layout().total_inodes(),
            inodes_free: self.sb.free_inodes,
        })
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.commit()?;
        self.drain_checkpoints()?;
        self.flush_replicas();
        self.env.check_alive()?;
        self.sb.state = FsState::Clean;
        let enc = self.sb.encode();
        // Not a checked write: like the mount's, a failure is EIO and no
        // journal abort.
        let r = self
            .dev
            .write_tagged(BlockAddr(0), &enc, BlockType::Super.tag());
        if r.is_err() && self.opts.iron.fix_bugs {
            self.env
                .klog
                .error("ext3", "superblock write failed at unmount");
            return Err(Errno::EIO.into());
        }
        self.note_cksum(0, &enc, true);
        self.mirror_meta_write(0, &enc);
        let _ = self.dev.flush();
        self.env.set_state(MountState::Unmounted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ext3Options, Ext3Params};
    use iron_blockdev::MemDisk;
    use iron_vfs::Vfs;

    fn owned_reads() -> usize {
        OWNED_READS.with(std::cell::Cell::get)
    }

    /// The counter blocks are encoded per transaction, not per bit: a
    /// 16-block write into a fresh file changes a counter 17 times (the
    /// indirect block too) and encodes the pair when the transaction first
    /// stages them and when it closes — and what then sits in the cache is
    /// the final image.
    #[test]
    fn a_fresh_file_write_encodes_the_counter_blocks_at_most_twice() {
        let md = MemDisk::for_tests(4096);
        let fs = Ext3Fs::format_and_mount(
            md,
            FsEnv::new(),
            Ext3Params::small(),
            Ext3Options::default(),
        )
        .expect("format");
        let mut v = Vfs::new(fs);
        v.sync().unwrap();
        let root = v.fs_mut().root_ino();
        let f = v.fs_mut().create(root, "f", 0o644).unwrap();
        let free = v.fs_mut().statfs().unwrap().blocks_free;
        let before = SUPER_ENCODES.with(std::cell::Cell::get);
        v.fs_mut().write(f, 0, &[7u8; 16 * BLOCK_SIZE]).unwrap();
        v.sync().unwrap();
        let encodes = SUPER_ENCODES.with(std::cell::Cell::get) - before;
        assert!((1..=2).contains(&encodes), "{encodes} encodings");

        let fs = v.fs_mut();
        assert_eq!(fs.sb.free_blocks, free - 17);
        assert_eq!(fs.cache.peek(BlockAddr(0)), Some(&fs.sb.encode()));
        let gdt = fs.cache.peek(BlockAddr(1)).expect("GDT resident");
        let group_free: u64 = (0..fs.gdt.len()).map(|g| gdt.get_u32(g * 8) as u64).sum();
        assert_eq!(group_free, free - 17);
    }

    /// Borrowed ≡ owned, by count: once the cache is warm, every read-only
    /// operation — over a file mapped through all three levels — inspects
    /// its blocks where they are and takes no owned copy.
    #[test]
    fn warmed_read_only_operations_make_no_owned_block_reads() {
        let md = MemDisk::for_tests(4096);
        let fs = Ext3Fs::format_and_mount(
            md,
            FsEnv::new(),
            Ext3Params::small(),
            Ext3Options::default(),
        )
        .expect("format");
        let mut v = Vfs::new(fs);
        v.mkdir("/d", 0o755).unwrap();
        v.write_file("/d/f", b"direct").unwrap();
        v.symlink("/d/f", "/d/link").unwrap();
        // One block behind each level of the map; the rest are holes.
        let f = v.resolve("/d/f").unwrap();
        let indirect = NDIRECT as u64;
        let double = indirect + PTRS_PER_BLOCK as u64;
        for idx in [indirect, double] {
            let at = idx * BLOCK_SIZE as u64;
            v.fs_mut().write(f, at, &[idx as u8; BLOCK_SIZE]).unwrap();
        }
        v.sync().unwrap();
        let size = (double + 1) as usize * BLOCK_SIZE;

        let read_only = |v: &mut Vfs<Ext3Fs<MemDisk>>| {
            let d = v.resolve("/d").unwrap();
            let f = v.fs_mut().lookup(d, "f").unwrap();
            assert_eq!(v.fs_mut().getattr(f).unwrap().size, size as u64);
            let body = v.fs_mut().read(f, 0, usize::MAX).unwrap();
            assert_eq!(body.len(), size);
            assert_eq!(&body[..6], b"direct");
            assert_eq!(body[indirect as usize * BLOCK_SIZE], indirect as u8);
            assert_eq!(body[size - 1], double as u8);
            assert_eq!(v.readdir("/d").unwrap().len(), 4);
            assert_eq!(v.readlink("/d/link").unwrap(), "/d/f");
        };
        read_only(&mut v); // warm
        let before = owned_reads();
        read_only(&mut v);
        assert_eq!(owned_reads() - before, 0, "a warmed read copied a block");

        // The counter is live: a partial-block write needs its base block.
        v.fs_mut().write(f, 3, b"x").unwrap();
        assert!(owned_reads() > before);
    }

    /// A mount whose running transaction never commits on its own.
    fn one_transaction() -> Ext3Fs<MemDisk> {
        let opts = Ext3Options {
            commit_threshold: usize::MAX,
            ..Ext3Options::default()
        };
        let md = MemDisk::for_tests(4096);
        Ext3Fs::format_and_mount(md, FsEnv::new(), Ext3Params::small(), opts).expect("format")
    }

    /// One image per block per transaction: once the running transaction
    /// stages the bitmaps, the inode-table block and a file's indirect
    /// block, a create, an unlink and an append edit those copies where
    /// they lie and take no owned copy of any block.
    #[test]
    fn edits_of_staged_metadata_make_no_owned_block_reads() {
        let mut fs = one_transaction();
        let root = fs.root_ino();
        let bs = BLOCK_SIZE as u64;
        let f = fs.create(root, "f", 0o644).unwrap();
        fs.write(f, 0, &vec![1u8; (NDIRECT + 1) * BLOCK_SIZE])
            .unwrap();
        let g = fs.create(root, "g", 0o644).unwrap();
        fs.write(g, 0, &[2u8; BLOCK_SIZE]).unwrap();

        let before = owned_reads();
        let h = fs.create(root, "h", 0o644).unwrap();
        fs.unlink(root, "g").unwrap();
        let tail = (NDIRECT as u64 + 1) * bs;
        fs.write(f, tail, &[3u8; BLOCK_SIZE]).unwrap();
        assert_eq!(owned_reads() - before, 0, "an edit copied a staged block");

        assert_eq!(fs.lookup(root, "h").unwrap(), h);
        assert!(fs.lookup(root, "g").is_err());
        assert_eq!(fs.read(f, tail - 1, 2).unwrap(), [1, 3]);
        assert_eq!(fs.getattr(f).unwrap().size, tail + bs);
        // What was edited in place is what commits and what fsck finds.
        fs.unmount().unwrap();
        let report = crate::fsck::check(fs.device(), fs.layout());
        assert!(report.issues.is_empty(), "{:?}", report.issues);
    }

    /// A block the running transaction stages under another type is not
    /// edited in place: the edit copies it and restages it under the new
    /// type. Staged under that type, the next edit is in place, and the
    /// cache holds the edited bytes whether its entry was resident or not.
    #[test]
    fn an_edit_of_a_block_staged_as_another_type_takes_the_copy_path() {
        let mut fs = one_transaction();
        let addr = fs.alloc_block(0).unwrap();
        fs.write_meta(addr, Block::filled(5), BlockType::Dir);

        let before = owned_reads();
        fs.edit_meta(addr, BlockType::Indirect, |b| b.put_u32(0, 7))
            .unwrap();
        assert_eq!(owned_reads() - before, 1, "the mismatch takes a copy");
        assert!(fs.running.get_mut(addr, BlockType::Dir).is_none());
        let staged = fs.running.get_mut(addr, BlockType::Indirect).unwrap();
        assert_eq!((staged.get_u32(0), staged[4]), (7, 5));

        for evicted in [false, true] {
            if evicted {
                fs.cache.remove(BlockAddr(addr));
            }
            let before = owned_reads();
            fs.edit_meta(addr, BlockType::Indirect, |b| b[4] += 1)
                .unwrap();
            assert_eq!(owned_reads(), before, "staged as Indirect: in place");
            assert_eq!(fs.cache.peek(BlockAddr(addr)), fs.running.get(addr));
        }
        assert_eq!(fs.running.get(addr).unwrap()[4], 7);
    }
}
