//! The NTFS model: MFT-based storage with the §5.4 retry-heavy policy.
//! Directories, file bodies and the namespace operations are
//! [`iron_vfs::flat`]'s, which makes every [`FlatStore`] a `SpecificFs`;
//! this file is what is NTFS's own: the MFT-record codec, the persistent
//! read and write paths, the logfile, the bitmaps, and every `PAPER-BUG`.

use iron_blockdev::{BlockDevice, DiskResult, RawAccess};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{Block, BlockAddr, BlockTag, Errno, IoKind, BLOCK_SIZE};
use iron_vfs::flat::{self, Dirent, FlatStore, Node};
use iron_vfs::{Buffers, FileType, FsEnv, StatFs, VfsError, VfsResult};

/// The failure-policy table reproducing stock NTFS's persistence (§5.4):
/// a failed read is retried "up to seven times", a failed data write
/// three times, a failed MFT (or any other metadata) write twice — each
/// immediately — and only then does the error propagate (`RPropagate`).
pub fn ntfs_stock_policy() -> FailurePolicyTable {
    use RecoveryAction::{Propagate, Retry};
    let retry = |budget| Retry {
        budget,
        backoff: Backoff::none(),
    };
    let (read, write) = (Some(IoKind::Read), Some(IoKind::Write));
    let data = Some(NtfsBlockType::Data.tag());
    FailurePolicyTable::with_default(vec![Propagate])
        .rule(None, read, None, vec![retry(7), Propagate])
        .rule(data, write, None, vec![retry(3), Propagate])
        .rule(None, write, None, vec![retry(2), Propagate])
}

/// Boot-file magic ("NTFS    ", as on real volumes).
pub const BOOT_MAGIC: u64 = u64::from_le_bytes(*b"NTFS    ");
/// MFT record magic ("FILE").
pub const FILE_MAGIC: u32 = u32::from_le_bytes(*b"FILE");

/// Reserved MFT records (system files), as in real NTFS.
const MFT_RESERVED: u64 = 5;
/// The root directory's MFT record index.
pub const ROOT_REC: u64 = 5;
/// Direct cluster pointers per MFT record.
const NDIRECT: usize = 16;
/// Pointers in an extension run block.
const PTRS_PER_RUN: usize = 1000;

/// NTFS block types (Table 4 rows).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NtfsBlockType {
    /// An MFT record block.
    MftRecord,
    /// Directory index block.
    Dir,
    /// Volume bitmap (free clusters).
    VolumeBitmap,
    /// MFT bitmap (unused records).
    MftBitmap,
    /// The transaction log file.
    Logfile,
    /// User data.
    Data,
    /// The boot file.
    BootFile,
    /// Extension run block (cluster pointers).
    RunBlock,
}

impl NtfsBlockType {
    /// Table 4's NTFS rows.
    pub const TABLE4_ROWS: [NtfsBlockType; 7] = [
        NtfsBlockType::MftRecord,
        NtfsBlockType::Dir,
        NtfsBlockType::VolumeBitmap,
        NtfsBlockType::MftBitmap,
        NtfsBlockType::Logfile,
        NtfsBlockType::Data,
        NtfsBlockType::BootFile,
    ];

    /// The I/O tag.
    pub fn tag(self) -> BlockTag {
        BlockTag(match self {
            NtfsBlockType::MftRecord => "MFT record",
            NtfsBlockType::Dir => "dir",
            NtfsBlockType::VolumeBitmap => "volume bitmap",
            NtfsBlockType::MftBitmap => "MFT bitmap",
            NtfsBlockType::Logfile => "logfile",
            NtfsBlockType::Data => "data",
            NtfsBlockType::BootFile => "boot file",
            NtfsBlockType::RunBlock => "run block",
        })
    }
}

/// Formatting parameters.
#[derive(Clone, Copy, Debug)]
pub struct NtfsParams {
    /// Total device blocks.
    pub total_blocks: u64,
    /// MFT records (one block each in this model).
    pub mft_records: u64,
    /// Logfile blocks.
    pub logfile_blocks: u64,
}

impl NtfsParams {
    /// A small test volume.
    pub fn small() -> Self {
        NtfsParams {
            total_blocks: 4096,
            mft_records: 512,
            logfile_blocks: 64,
        }
    }
}

/// Computed layout.
#[derive(Clone, Copy, Debug)]
struct Layout {
    params: NtfsParams,
    logfile_start: u64,
    volume_bitmap: u64,
    mft_bitmap: u64,
    mft_start: u64,
    alloc_start: u64,
}

impl Layout {
    fn compute(params: NtfsParams) -> Layout {
        let logfile_start = 1;
        let volume_bitmap = logfile_start + params.logfile_blocks;
        let mft_bitmap = volume_bitmap + 1;
        let mft_start = mft_bitmap + 1;
        let alloc_start = mft_start + params.mft_records;
        Layout {
            params,
            logfile_start,
            volume_bitmap,
            mft_bitmap,
            mft_start,
            alloc_start,
        }
    }

    /// The layout of a volume whose geometry was read from its boot file:
    /// `None` unless a device of `device_blocks` can hold it. Each bitmap
    /// is one block, so `total_blocks` is bounded by the device and by a
    /// block's bits; the fixed regions, summed without overflow, must end
    /// inside `total_blocks` — which bounds `mft_records` and
    /// `logfile_blocks` in turn.
    fn checked(params: NtfsParams, device_blocks: u64) -> Option<Layout> {
        let alloc_start = params
            .logfile_blocks
            .checked_add(params.mft_records)?
            .checked_add(3)?; // boot file + the two bitmaps
        let bitmap_bits = BLOCK_SIZE as u64 * 8;
        let fits = params.total_blocks <= device_blocks.min(bitmap_bits)
            && alloc_start <= params.total_blocks;
        fits.then(|| Layout::compute(params))
    }

    fn mft_block(&self, rec: u64) -> u64 {
        self.mft_start + rec
    }
}

/// Encode an MFT record (one block): `FILE` magic, the in-use flag, the
/// type byte, then the attributes and cluster pointers.
fn encode_record(r: &Node, in_use: bool) -> Block {
    let mut b = Block::zeroed();
    b.put_u32(0, FILE_MAGIC);
    b.put_u32(4, u32::from(in_use));
    b[8] = match r.ftype {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 3,
    };
    b.put_u32(12, r.mode);
    b.put_u32(16, r.uid);
    b.put_u32(20, r.gid);
    b.put_u32(24, r.nlink);
    b.put_u64(32, r.size);
    b.put_u64(40, r.mtime);
    for (i, p) in r.direct.iter().enumerate() {
        b.put_u32(48 + i * 4, *p);
    }
    b.put_u32(48 + NDIRECT * 4, r.indirect);
    b
}

/// Decode `(in_use, record)` with NTFS's strong metadata sanity check:
/// the `FILE` magic and a valid type byte. Note what is *not* checked:
/// the block pointers (`PAPER-BUG`).
fn decode_record(b: &Block) -> Option<(bool, Node)> {
    if b.get_u32(0) != FILE_MAGIC {
        return None;
    }
    let ftype = match b[8] {
        1 => FileType::Regular,
        2 => FileType::Directory,
        3 => FileType::Symlink,
        _ => return None,
    };
    let r = Node {
        ftype,
        mode: b.get_u32(12),
        uid: b.get_u32(16),
        gid: b.get_u32(20),
        nlink: b.get_u32(24),
        size: b.get_u64(32),
        mtime: b.get_u64(40),
        direct: (0..NDIRECT).map(|i| b.get_u32(48 + i * 4)).collect(),
        indirect: b.get_u32(48 + NDIRECT * 4),
    };
    Some((b.get_u32(4) != 0, r))
}

/// The NTFS model over a block device.
pub struct NtfsFs<D: BlockDevice + RawAccess> {
    dev: D,
    env: FsEnv,
    /// [`ntfs_stock_policy`], built once at mount.
    policy: PolicyHandle,
    layout: Layout,
    /// The block cache; NTFS writes in place and stages nothing.
    buf: Buffers<NtfsBlockType>,
    free_blocks: u64,
    free_records: u64,
    log_seq: u64,
    log_head: u64,
}

impl<D: BlockDevice + RawAccess> NtfsFs<D> {
    /// Format a volume.
    pub fn mkfs(dev: &mut D, params: NtfsParams) -> VfsResult<()> {
        let layout = Layout::compute(params);
        let eio = VfsError::from;
        let root_dir_block = layout.alloc_start;

        let mut boot = Block::zeroed();
        boot.put_u64(0, BOOT_MAGIC);
        boot.put_u64(8, params.total_blocks);
        boot.put_u64(16, params.mft_records);
        boot.put_u64(24, params.logfile_blocks);
        dev.write_tagged(BlockAddr(0), &boot, NtfsBlockType::BootFile.tag())
            .map_err(eio)?;

        // Bitmaps.
        let mut vbm = Block::zeroed();
        for b in 0..=root_dir_block {
            vbm.set_bit(b);
        }
        dev.write_tagged(
            BlockAddr(layout.volume_bitmap),
            &vbm,
            NtfsBlockType::VolumeBitmap.tag(),
        )
        .map_err(eio)?;
        let mut mbm = Block::zeroed();
        for r in 0..=MFT_RESERVED {
            mbm.set_bit(r);
        }
        dev.write_tagged(
            BlockAddr(layout.mft_bitmap),
            &mbm,
            NtfsBlockType::MftBitmap.tag(),
        )
        .map_err(eio)?;

        // System records 0..4 (placeholders with valid magic) + root (5).
        for r in 0..MFT_RESERVED {
            let sys = Node::new(FileType::Regular, 0o600, NDIRECT);
            dev.write_tagged(
                BlockAddr(layout.mft_block(r)),
                &encode_record(&sys, true),
                NtfsBlockType::MftRecord.tag(),
            )
            .map_err(eio)?;
        }
        let mut root = Node::new(FileType::Directory, 0o755, NDIRECT);
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_dir_block as u32;
        dev.write_tagged(
            BlockAddr(layout.mft_block(ROOT_REC)),
            &encode_record(&root, true),
            NtfsBlockType::MftRecord.tag(),
        )
        .map_err(eio)?;
        dev.write_tagged(
            BlockAddr(root_dir_block),
            &flat::encode_dir_block(&flat::dot_entries::<Self>(ROOT_REC, ROOT_REC)),
            NtfsBlockType::Dir.tag(),
        )
        .map_err(eio)?;
        dev.barrier().map_err(eio)?;
        Ok(())
    }

    /// Mount the volume. The boot file's magic is checked, and — per §5.4,
    /// "the file system becomes unmountable if any of its metadata blocks
    /// (except the journal) are corrupted" — every in-use MFT record is
    /// verified.
    pub fn mount(mut dev: D, env: FsEnv) -> VfsResult<Self> {
        let policy = PolicyHandle::new(ntfs_stock_policy());
        let boot_req = (IoKind::Read, 0, NtfsBlockType::BootFile);
        let boot = persist(&mut dev, &env, &policy, boot_req, |d| {
            d.read_tagged(BlockAddr(0), NtfsBlockType::BootFile.tag())
        })?;
        if boot.get_u64(0) != BOOT_MAGIC {
            return Err(env.reject("ntfs", "boot file invalid; volume unmountable"));
        }
        let params = NtfsParams {
            total_blocks: boot.get_u64(8),
            mft_records: boot.get_u64(16),
            logfile_blocks: boot.get_u64(24),
        };
        // The magic says this is a boot file, not that its geometry is
        // sane: the free-space count below indexes one bitmap block with
        // these numbers.
        let Some(layout) = Layout::checked(params, dev.num_blocks()) else {
            let msg = format!(
                "boot file geometry {params:?} does not fit the device; volume unmountable"
            );
            return Err(env.reject("ntfs", msg));
        };
        let mut fs = NtfsFs {
            dev,
            env,
            policy,
            layout,
            buf: Buffers::new(),
            free_blocks: 0,
            free_records: 0,
            log_seq: 1,
            log_head: layout.logfile_start,
        };
        // Count free space from the bitmaps.
        let vbm = fs.read_block(layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        fs.free_blocks = (layout.alloc_start..params.total_blocks)
            .filter(|&b| !vbm.bit(b))
            .count() as u64;
        let mbm = fs.read_block(layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        fs.free_records = (0..params.mft_records).filter(|&r| !mbm.bit(r)).count() as u64;

        // Mount-time MFT integrity scan: a corrupt metadata block makes
        // the volume unmountable.
        for r in 0..params.mft_records {
            if !mbm.bit(r) {
                continue;
            }
            let b = fs.read_block(layout.mft_block(r), NtfsBlockType::MftRecord)?;
            if decode_record(&b).is_none() {
                let msg = format!("MFT record {r} corrupt; volume unmountable");
                return Err(fs.env.reject("ntfs", msg));
            }
        }
        Ok(fs)
    }

    /// Format + mount.
    pub fn format_and_mount(mut dev: D, env: FsEnv, params: NtfsParams) -> VfsResult<Self> {
        Self::mkfs(&mut dev, params)?;
        Self::mount(dev, env)
    }

    /// Consume, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Borrow the device.
    pub fn device_ref(&self) -> &D {
        &self.dev
    }

    // ------------------------------------------------------------------
    // Retry-heavy I/O (§5.4).
    // ------------------------------------------------------------------

    fn read_block(&mut self, addr: u64, ty: NtfsBlockType) -> VfsResult<Block> {
        let req = (IoKind::Read, addr, ty);
        self.buf.read(addr, || {
            persist(&mut self.dev, &self.env, &self.policy, req, |d| {
                d.read_tagged(BlockAddr(addr), ty.tag())
            })
        })
    }

    /// Write with NTFS's per-type retry counts. Data-write errors are
    /// recorded (logged) but otherwise unused (`PAPER-BUG`); metadata
    /// write errors propagate.
    fn write_block(&mut self, addr: u64, b: &Block, ty: NtfsBlockType) -> VfsResult<()> {
        self.buf.cache(addr, b.clone());
        let req = (IoKind::Write, addr, ty);
        let written = persist(&mut self.dev, &self.env, &self.policy, req, |d| {
            d.write_tagged(BlockAddr(addr), b, ty.tag())
        });
        if ty == NtfsBlockType::Data && matches!(written, Err(VfsError::Errno(_))) {
            // PAPER-BUG: the error code is recorded but not used — the
            // application never hears about it.
            self.env.klog.warn(
                "ntfs",
                format!("data write to block {addr} failed; error recorded, unused"),
            );
            return Ok(());
        }
        written
    }
}

/// One request the NTFS way (§5.4, "persistence is a virtue"): issue it,
/// and if it fails let [`ntfs_stock_policy`] say how often to issue it
/// again, logging every retry and the final failure in stock NTFS's words.
fn persist<D: BlockDevice, T>(
    dev: &mut D,
    env: &FsEnv,
    policy: &PolicyHandle,
    (io, addr, ty): (IoKind, u64, NtfsBlockType),
    mut op: impl FnMut(&mut D) -> DiskResult<T>,
) -> VfsResult<T> {
    let e = match op(dev) {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    let req = (io, addr, ty.tag());
    env.walk_io(policy, "ntfs", req, &e, |attempt, budget| {
        env.klog.warn(
            "ntfs",
            format!("{io} of block {addr} failed; retry {attempt}/{budget}"),
        );
        op(dev)
    })
    .inspect_err(|_| match (io, ty) {
        // `write_block` has its own words for a lost data write.
        (IoKind::Write, NtfsBlockType::Data) => {}
        (IoKind::Write, _) => {
            let msg = format!("write of block {addr} failed");
            env.klog.error("ntfs", msg)
        }
        (IoKind::Read, _) => {
            let msg = format!("read of block {addr} failed permanently");
            env.klog.error("ntfs", msg)
        }
    })
}

/// NTFS's storage primitives under the shared flat-inode file model.
impl<D: BlockDevice + RawAccess> FlatStore for NtfsFs<D> {
    const SUBSYSTEM: &'static str = "ntfs";
    const ROOT: u64 = ROOT_REC;
    const NDIRECT: usize = NDIRECT;
    const NINDIRECT: usize = PTRS_PER_RUN;
    const SYMLINK_CODE: u8 = 3;

    fn fs_env(&self) -> &FsEnv {
        &self.env
    }

    fn sync_all(&mut self) -> VfsResult<()> {
        self.dev.flush().map_err(VfsError::from)
    }

    fn stat(&self) -> StatFs {
        StatFs {
            block_size: BLOCK_SIZE as u32,
            blocks: self.layout.params.total_blocks - self.layout.alloc_start,
            blocks_free: self.free_blocks,
            inodes: self.layout.params.mft_records,
            inodes_free: self.free_records,
        }
    }

    fn shut_down(&mut self) -> VfsResult<()> {
        let _ = self.dev.flush();
        Ok(())
    }

    /// The record stores the permission word as given; the type has a
    /// byte of its own.
    fn mode_word(_ftype: FileType, perm: u32) -> u32 {
        perm
    }

    fn load_node(&mut self, rec: u64) -> VfsResult<Node> {
        if rec >= self.layout.params.mft_records {
            return Err(Errno::ENOENT.into());
        }
        let b = self.read_block(self.layout.mft_block(rec), NtfsBlockType::MftRecord)?;
        match decode_record(&b) {
            Some((true, r)) => Ok(r),
            Some((false, _)) => Err(Errno::ENOENT.into()),
            None => {
                let msg = format!("MFT record {rec} corrupt (bad FILE magic)");
                Err(self.env.reject("ntfs", msg))
            }
        }
    }

    fn load_unlink_victim(&mut self, rec: u64) -> VfsResult<Option<Node>> {
        self.load_node(rec).map(Some)
    }

    fn store_node(&mut self, rec: u64, r: &Node) -> VfsResult<()> {
        self.write_block(
            self.layout.mft_block(rec),
            &encode_record(r, true),
            NtfsBlockType::MftRecord,
        )
    }

    fn alloc_block(&mut self) -> VfsResult<u64> {
        let mut vbm = self.read_block(self.layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        let (total, first) = (self.layout.params.total_blocks, self.layout.alloc_start);
        // First fit over the allocatable area only: the search starts there,
        // and a bit it finds by wrapping into the reserved area is not free.
        let b = vbm.first_zero_bit(total, first).filter(|&b| b >= first);
        let b = b.ok_or(Errno::ENOSPC)?;
        vbm.set_bit(b);
        self.write_block(self.layout.volume_bitmap, &vbm, NtfsBlockType::VolumeBitmap)?;
        self.free_blocks -= 1;
        Ok(b)
    }

    fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let blocks = self.layout.alloc_start..self.layout.params.total_blocks;
        self.env.check_bitmap_index("ntfs", "block", addr, blocks)?;
        let mut vbm = self.read_block(self.layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        vbm.clear_bit(addr);
        self.write_block(self.layout.volume_bitmap, &vbm, NtfsBlockType::VolumeBitmap)?;
        self.free_blocks += 1;
        self.buf.forget(addr);
        Ok(())
    }

    fn alloc_node(&mut self) -> VfsResult<u64> {
        let mut mbm = self.read_block(self.layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        let (total, first) = (self.layout.params.mft_records, MFT_RESERVED + 1);
        let r = mbm.first_zero_bit(total, first).filter(|&r| r >= first);
        let r = r.ok_or(Errno::ENOSPC)?;
        mbm.set_bit(r);
        self.write_block(self.layout.mft_bitmap, &mbm, NtfsBlockType::MftBitmap)?;
        self.free_records -= 1;
        Ok(r)
    }

    fn free_node(&mut self, rec: u64) -> VfsResult<()> {
        let records = 0..self.layout.params.mft_records;
        self.env
            .check_bitmap_index("ntfs", "MFT record", rec, records)?;
        let mut mbm = self.read_block(self.layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        mbm.clear_bit(rec);
        self.write_block(self.layout.mft_bitmap, &mbm, NtfsBlockType::MftBitmap)?;
        self.free_records += 1;
        // Clear the record block but keep a valid FILE magic with
        // in_use=false (mirrors how NTFS recycles records).
        self.write_block(
            self.layout.mft_block(rec),
            &encode_record(&Node::free(NDIRECT), false),
            NtfsBlockType::MftRecord,
        )
    }

    fn alloc_ptr_block(&mut self) -> VfsResult<u64> {
        let addr = self.alloc_block()?;
        self.write_block(addr, &Block::zeroed(), NtfsBlockType::RunBlock)?;
        Ok(addr)
    }

    /// Pointers are used with **no validation** (`PAPER-BUG`).
    fn read_ptr(&mut self, block: u64, slot: usize) -> VfsResult<u64> {
        let b = self.read_block(block, NtfsBlockType::RunBlock)?;
        Ok(b.get_u32(8 + slot * 4) as u64)
    }

    fn write_ptr(&mut self, block: u64, slot: usize, addr: u64) -> VfsResult<()> {
        let mut b = self.read_block(block, NtfsBlockType::RunBlock)?;
        b.put_u32(8 + slot * 4, addr as u32);
        self.write_block(block, &b, NtfsBlockType::RunBlock)
    }

    fn read_dir_block(&mut self, addr: u64) -> VfsResult<Vec<Dirent>> {
        let b = self.read_block(addr, NtfsBlockType::Dir)?;
        flat::decode_dir_block(&b).ok_or_else(|| {
            let msg = format!("directory index block {addr} corrupt");
            self.env.reject("ntfs", msg)
        })
    }

    fn write_dir_block(&mut self, addr: u64, entries: &[Dirent]) -> VfsResult<()> {
        self.write_block(addr, &flat::encode_dir_block(entries), NtfsBlockType::Dir)
    }

    fn read_data(&mut self, addr: u64) -> VfsResult<Block> {
        self.read_block(addr, NtfsBlockType::Data)
    }

    fn write_data(&mut self, addr: u64, block: &Block) -> VfsResult<()> {
        // PAPER-BUG vector: `addr` is used unvalidated — if the MFT
        // record's pointer was corrupted, this write lands on whatever
        // structure the pointer names.
        self.write_block(addr, block, NtfsBlockType::Data)
    }

    /// The transaction log file: one record block per operation, written
    /// before the operation changes anything else.
    fn begin(&mut self, op: &str) -> VfsResult<()> {
        if self.log_head >= self.layout.logfile_start + self.layout.params.logfile_blocks {
            self.log_head = self.layout.logfile_start;
        }
        let mut b = Block::zeroed();
        b.put_u64(0, self.log_seq);
        b.put_bytes(16, &op.as_bytes()[..op.len().min(64)]);
        self.log_seq += 1;
        let addr = self.log_head;
        self.log_head += 1;
        self.write_block(addr, &b, NtfsBlockType::Logfile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::MemDisk;
    use iron_vfs::Vfs;

    fn mount() -> Vfs<NtfsFs<MemDisk>> {
        let dev = MemDisk::for_tests(4096);
        Vfs::new(NtfsFs::format_and_mount(dev, FsEnv::new(), NtfsParams::small()).unwrap())
    }

    #[test]
    fn basic_operations() {
        let mut v = mount();
        v.mkdir("/d", 0o755).unwrap();
        v.write_file("/d/f", b"ntfs!").unwrap();
        assert_eq!(v.read_file("/d/f").unwrap(), b"ntfs!");
        v.rename("/d/f", "/top").unwrap();
        v.symlink("/top", "/ln").unwrap();
        assert_eq!(v.read_file("/ln").unwrap(), b"ntfs!");
        v.unlink("/top").unwrap();
        v.unlink("/ln").unwrap();
        v.rmdir("/d").unwrap();
    }

    #[test]
    fn large_file_via_run_block() {
        let mut v = mount();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 249) as u8).collect();
        v.write_file("/big", &data).unwrap();
        assert_eq!(v.read_file("/big").unwrap(), data);
    }

    #[test]
    fn persistence_across_remount() {
        let mut v = mount();
        v.write_file("/keep", &vec![0x7A; 30_000]).unwrap();
        v.umount().unwrap();
        let dev = v.into_fs().into_device();
        let fs = NtfsFs::mount(dev, FsEnv::new()).unwrap();
        let mut v = Vfs::new(fs);
        assert_eq!(v.read_file("/keep").unwrap(), vec![0x7A; 30_000]);
    }

    #[test]
    fn mft_records_carry_file_magic() {
        let v = mount();
        let fs = v.into_fs();
        let dev = fs.into_device();
        let layout = Layout::compute(NtfsParams::small());
        let b = dev.peek(BlockAddr(layout.mft_block(ROOT_REC)));
        assert_eq!(b.get_u32(0), FILE_MAGIC);
    }
}
