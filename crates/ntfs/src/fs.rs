//! The NTFS model: MFT-based storage with the §5.4 retry-heavy policy.

use std::collections::HashMap;

use iron_blockdev::{BlockDevice, DiskResult, RawAccess};
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{Block, BlockAddr, BlockTag, Errno, IoKind, BLOCK_SIZE};
use iron_vfs::{
    DirEntry, FileType, FsEnv, InodeAttr, MountState, SpecificFs, StatFs, VfsError, VfsResult,
};

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
/// Max directory entries per index block (sanity bound).
const DIR_MAX: usize = 128;

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

/// Mount options.
#[derive(Clone, Debug, Default)]
pub struct NtfsOptions {
    /// Skip the mount-time MFT integrity scan (tests only).
    pub skip_verify: bool,
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

    fn mft_block(&self, rec: u64) -> u64 {
        self.mft_start + rec
    }
}

/// A decoded MFT record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct MftRecord {
    in_use: bool,
    ftype: FileType,
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    size: u64,
    mtime: u64,
    direct: [u32; NDIRECT],
    run_block: u32,
}

impl MftRecord {
    fn new(ftype: FileType, mode: u32) -> Self {
        MftRecord {
            in_use: true,
            ftype,
            mode,
            uid: 0,
            gid: 0,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            size: 0,
            mtime: 0,
            direct: [0; NDIRECT],
            run_block: 0,
        }
    }

    fn encode(&self) -> Block {
        let mut b = Block::zeroed();
        b.put_u32(0, FILE_MAGIC);
        b.put_u32(4, u32::from(self.in_use));
        b[8] = match self.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 3,
        };
        b.put_u32(12, self.mode);
        b.put_u32(16, self.uid);
        b.put_u32(20, self.gid);
        b.put_u32(24, self.nlink);
        b.put_u64(32, self.size);
        b.put_u64(40, self.mtime);
        for (i, p) in self.direct.iter().enumerate() {
            b.put_u32(48 + i * 4, *p);
        }
        b.put_u32(48 + NDIRECT * 4, self.run_block);
        b
    }

    /// Decode with NTFS's strong metadata sanity check: the `FILE` magic
    /// and a valid type byte. Note what is *not* checked: the block
    /// pointers (`PAPER-BUG`).
    fn decode(b: &Block) -> Option<MftRecord> {
        if b.get_u32(0) != FILE_MAGIC {
            return None;
        }
        let ftype = match b[8] {
            1 => FileType::Regular,
            2 => FileType::Directory,
            3 => FileType::Symlink,
            _ => return None,
        };
        let mut direct = [0u32; NDIRECT];
        for (i, p) in direct.iter_mut().enumerate() {
            *p = b.get_u32(48 + i * 4);
        }
        Some(MftRecord {
            in_use: b.get_u32(4) != 0,
            ftype,
            mode: b.get_u32(12),
            uid: b.get_u32(16),
            gid: b.get_u32(20),
            nlink: b.get_u32(24),
            size: b.get_u64(32),
            mtime: b.get_u64(40),
            direct,
            run_block: b.get_u32(48 + NDIRECT * 4),
        })
    }
}

fn encode_dir(entries: &[(u32, u8, String)]) -> Block {
    let mut b = Block::zeroed();
    b.put_u16(0, entries.len() as u16);
    let mut off = 4;
    for (rec, ft, name) in entries {
        b.put_u32(off, *rec);
        b[off + 4] = *ft;
        b[off + 5] = name.len() as u8;
        b.put_bytes(off + 6, name.as_bytes());
        off += 6 + name.len();
    }
    b
}

fn decode_dir(b: &Block) -> Option<Vec<(u32, u8, String)>> {
    let count = b.get_u16(0) as usize;
    if count > DIR_MAX {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    let mut off = 4;
    for _ in 0..count {
        if off + 6 > BLOCK_SIZE {
            return None;
        }
        let rec = b.get_u32(off);
        let ft = b[off + 4];
        let n = b[off + 5] as usize;
        if off + 6 + n > BLOCK_SIZE {
            return None;
        }
        out.push((
            rec,
            ft,
            String::from_utf8_lossy(b.get_bytes(off + 6, n)).into_owned(),
        ));
        off += 6 + n;
    }
    Some(out)
}

fn ft_code(t: FileType) -> u8 {
    match t {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 3,
    }
}

fn ft_from(c: u8) -> FileType {
    match c {
        2 => FileType::Directory,
        3 => FileType::Symlink,
        _ => FileType::Regular,
    }
}

/// The NTFS model over a block device.
pub struct NtfsFs<D: BlockDevice + RawAccess> {
    dev: D,
    env: FsEnv,
    /// [`ntfs_stock_policy`], built once at mount.
    policy: PolicyHandle,
    layout: Layout,
    cache: HashMap<u64, Block>,
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
            vbm[(b / 8) as usize] |= 1 << (b % 8);
        }
        dev.write_tagged(
            BlockAddr(layout.volume_bitmap),
            &vbm,
            NtfsBlockType::VolumeBitmap.tag(),
        )
        .map_err(eio)?;
        let mut mbm = Block::zeroed();
        for r in 0..=MFT_RESERVED {
            mbm[(r / 8) as usize] |= 1 << (r % 8);
        }
        dev.write_tagged(
            BlockAddr(layout.mft_bitmap),
            &mbm,
            NtfsBlockType::MftBitmap.tag(),
        )
        .map_err(eio)?;

        // System records 0..4 (placeholders with valid magic) + root (5).
        for r in 0..MFT_RESERVED {
            let sys = MftRecord::new(FileType::Regular, 0o600);
            dev.write_tagged(
                BlockAddr(layout.mft_block(r)),
                &sys.encode(),
                NtfsBlockType::MftRecord.tag(),
            )
            .map_err(eio)?;
        }
        let mut root = MftRecord::new(FileType::Directory, 0o755);
        root.size = BLOCK_SIZE as u64;
        root.direct[0] = root_dir_block as u32;
        dev.write_tagged(
            BlockAddr(layout.mft_block(ROOT_REC)),
            &root.encode(),
            NtfsBlockType::MftRecord.tag(),
        )
        .map_err(eio)?;
        let entries = vec![
            (
                ROOT_REC as u32,
                ft_code(FileType::Directory),
                ".".to_string(),
            ),
            (
                ROOT_REC as u32,
                ft_code(FileType::Directory),
                "..".to_string(),
            ),
        ];
        dev.write_tagged(
            BlockAddr(root_dir_block),
            &encode_dir(&entries),
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
    pub fn mount(mut dev: D, env: FsEnv, opts: NtfsOptions) -> VfsResult<Self> {
        let policy = PolicyHandle::new(ntfs_stock_policy());
        let boot_req = (IoKind::Read, 0, NtfsBlockType::BootFile);
        let boot = persist(&mut dev, &env, &policy, boot_req, |d| {
            d.read_tagged(BlockAddr(0), NtfsBlockType::BootFile.tag())
        })?;
        if boot.get_u64(0) != BOOT_MAGIC {
            env.klog
                .error("ntfs", "boot file invalid; volume unmountable");
            return Err(Errno::EUCLEAN.into());
        }
        let params = NtfsParams {
            total_blocks: boot.get_u64(8),
            mft_records: boot.get_u64(16),
            logfile_blocks: boot.get_u64(24),
        };
        let layout = Layout::compute(params);
        let mut fs = NtfsFs {
            dev,
            env,
            policy,
            layout,
            cache: HashMap::new(),
            free_blocks: 0,
            free_records: 0,
            log_seq: 1,
            log_head: layout.logfile_start,
        };
        // Count free space from the bitmaps.
        let vbm = fs.read_block(layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        fs.free_blocks = (layout.alloc_start..params.total_blocks)
            .filter(|b| vbm[(b / 8) as usize] & (1 << (b % 8)) == 0)
            .count() as u64;
        let mbm = fs.read_block(layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        fs.free_records = (0..params.mft_records)
            .filter(|r| mbm[(r / 8) as usize] & (1 << (r % 8)) == 0)
            .count() as u64;

        if !opts.skip_verify {
            // Mount-time MFT integrity scan: a corrupt metadata block makes
            // the volume unmountable.
            for r in 0..params.mft_records {
                let in_use = mbm[(r / 8) as usize] & (1 << (r % 8)) != 0;
                if !in_use {
                    continue;
                }
                let b = fs.read_block(layout.mft_block(r), NtfsBlockType::MftRecord)?;
                if MftRecord::decode(&b).is_none() {
                    fs.env.klog.error(
                        "ntfs",
                        format!("MFT record {r} corrupt; volume unmountable"),
                    );
                    return Err(Errno::EUCLEAN.into());
                }
            }
        }
        Ok(fs)
    }

    /// Format + mount.
    pub fn format_and_mount(mut dev: D, env: FsEnv, params: NtfsParams) -> VfsResult<Self> {
        Self::mkfs(&mut dev, params)?;
        Self::mount(dev, env, NtfsOptions::default())
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
        if let Some(b) = self.cache.get(&addr) {
            return Ok(b.clone());
        }
        let req = (IoKind::Read, addr, ty);
        let b = persist(&mut self.dev, &self.env, &self.policy, req, |d| {
            d.read_tagged(BlockAddr(addr), ty.tag())
        })?;
        self.cache.insert(addr, b.clone());
        Ok(b)
    }

    /// Write with NTFS's per-type retry counts. Data-write errors are
    /// recorded (logged) but otherwise unused (`PAPER-BUG`); metadata
    /// write errors propagate.
    fn write_block(&mut self, addr: u64, b: &Block, ty: NtfsBlockType) -> VfsResult<()> {
        self.cache.insert(addr, b.clone());
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

    fn log_op(&mut self, what: &str) -> VfsResult<()> {
        // The transaction log file: one record block per operation.
        if self.log_head >= self.layout.logfile_start + self.layout.params.logfile_blocks {
            self.log_head = self.layout.logfile_start;
        }
        let mut b = Block::zeroed();
        b.put_u64(0, self.log_seq);
        b.put_bytes(16, &what.as_bytes()[..what.len().min(64)]);
        self.log_seq += 1;
        let addr = self.log_head;
        self.log_head += 1;
        self.write_block(addr, &b, NtfsBlockType::Logfile)
    }

    // ------------------------------------------------------------------
    // Records, allocation, directories.
    // ------------------------------------------------------------------

    fn get_record(&mut self, rec: u64) -> VfsResult<MftRecord> {
        if rec >= self.layout.params.mft_records {
            return Err(Errno::ENOENT.into());
        }
        let b = self.read_block(self.layout.mft_block(rec), NtfsBlockType::MftRecord)?;
        match MftRecord::decode(&b) {
            Some(r) if r.in_use => Ok(r),
            Some(_) => Err(Errno::ENOENT.into()),
            None => {
                self.env
                    .klog
                    .error("ntfs", format!("MFT record {rec} corrupt (bad FILE magic)"));
                Err(Errno::EUCLEAN.into())
            }
        }
    }

    fn put_record(&mut self, rec: u64, r: &MftRecord) -> VfsResult<()> {
        self.write_block(
            self.layout.mft_block(rec),
            &r.encode(),
            NtfsBlockType::MftRecord,
        )
    }

    fn alloc_block(&mut self) -> VfsResult<u64> {
        let mut vbm = self.read_block(self.layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        for b in self.layout.alloc_start..self.layout.params.total_blocks {
            if vbm[(b / 8) as usize] & (1 << (b % 8)) == 0 {
                vbm[(b / 8) as usize] |= 1 << (b % 8);
                self.write_block(self.layout.volume_bitmap, &vbm, NtfsBlockType::VolumeBitmap)?;
                self.free_blocks -= 1;
                return Ok(b);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_block(&mut self, addr: u64) -> VfsResult<()> {
        let mut vbm = self.read_block(self.layout.volume_bitmap, NtfsBlockType::VolumeBitmap)?;
        vbm[(addr / 8) as usize] &= !(1 << (addr % 8));
        self.write_block(self.layout.volume_bitmap, &vbm, NtfsBlockType::VolumeBitmap)?;
        self.free_blocks += 1;
        self.cache.remove(&addr);
        Ok(())
    }

    fn alloc_record(&mut self) -> VfsResult<u64> {
        let mut mbm = self.read_block(self.layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        for r in MFT_RESERVED + 1..self.layout.params.mft_records {
            if mbm[(r / 8) as usize] & (1 << (r % 8)) == 0 {
                mbm[(r / 8) as usize] |= 1 << (r % 8);
                self.write_block(self.layout.mft_bitmap, &mbm, NtfsBlockType::MftBitmap)?;
                self.free_records -= 1;
                return Ok(r);
            }
        }
        Err(Errno::ENOSPC.into())
    }

    fn free_record(&mut self, rec: u64) -> VfsResult<()> {
        let mut mbm = self.read_block(self.layout.mft_bitmap, NtfsBlockType::MftBitmap)?;
        mbm[(rec / 8) as usize] &= !(1 << (rec % 8));
        self.write_block(self.layout.mft_bitmap, &mbm, NtfsBlockType::MftBitmap)?;
        self.free_records += 1;
        // Clear the record block but keep a valid FILE magic with
        // in_use=false (mirrors how NTFS recycles records).
        let mut empty = MftRecord::new(FileType::Regular, 0);
        empty.in_use = false;
        empty.nlink = 0;
        self.put_record(rec, &empty)
    }

    /// File block `idx` → cluster address (0 = hole). Pointers are used
    /// with **no validation** (`PAPER-BUG`).
    fn file_block(&mut self, r: &MftRecord, idx: u64) -> VfsResult<u64> {
        if idx < NDIRECT as u64 {
            return Ok(r.direct[idx as usize] as u64);
        }
        let idx = (idx - NDIRECT as u64) as usize;
        if idx >= PTRS_PER_RUN {
            return Err(Errno::EFBIG.into());
        }
        if r.run_block == 0 {
            return Ok(0);
        }
        let b = self.read_block(r.run_block as u64, NtfsBlockType::RunBlock)?;
        Ok(b.get_u32(8 + idx * 4) as u64)
    }

    fn set_file_block(&mut self, r: &mut MftRecord, idx: u64, addr: u64) -> VfsResult<()> {
        if idx < NDIRECT as u64 {
            r.direct[idx as usize] = addr as u32;
            return Ok(());
        }
        let idx = (idx - NDIRECT as u64) as usize;
        if idx >= PTRS_PER_RUN {
            return Err(Errno::EFBIG.into());
        }
        if r.run_block == 0 {
            r.run_block = self.alloc_block()? as u32;
            self.write_block(
                r.run_block as u64,
                &Block::zeroed(),
                NtfsBlockType::RunBlock,
            )?;
        }
        let raddr = r.run_block as u64;
        let mut b = self.read_block(raddr, NtfsBlockType::RunBlock)?;
        b.put_u32(8 + idx * 4, addr as u32);
        self.write_block(raddr, &b, NtfsBlockType::RunBlock)
    }

    fn dir_entries(&mut self, r: &MftRecord) -> VfsResult<Vec<(u32, u8, String)>> {
        let nblocks = r.size.div_ceil(BLOCK_SIZE as u64);
        let mut out = Vec::new();
        for idx in 0..nblocks {
            let addr = self.file_block(r, idx)?;
            if addr == 0 {
                continue;
            }
            let b = self.read_block(addr, NtfsBlockType::Dir)?;
            match decode_dir(&b) {
                Some(e) => out.extend(e),
                None => {
                    self.env
                        .klog
                        .error("ntfs", format!("directory index block {addr} corrupt"));
                    return Err(Errno::EUCLEAN.into());
                }
            }
        }
        Ok(out)
    }

    fn write_dir(
        &mut self,
        rec: u64,
        r: &mut MftRecord,
        entries: &[(u32, u8, String)],
    ) -> VfsResult<()> {
        let mut blocks: Vec<Vec<(u32, u8, String)>> = vec![Vec::new()];
        let mut used = 4usize;
        for e in entries {
            let sz = 6 + e.2.len();
            if used + sz > BLOCK_SIZE || blocks.last().expect("nonempty").len() >= DIR_MAX {
                blocks.push(Vec::new());
                used = 4;
            }
            blocks.last_mut().expect("nonempty").push(e.clone());
            used += sz;
        }
        let old = r.size.div_ceil(BLOCK_SIZE as u64);
        for (idx, chunk) in blocks.iter().enumerate() {
            let mut addr = self.file_block(r, idx as u64)?;
            if addr == 0 {
                addr = self.alloc_block()?;
                self.set_file_block(r, idx as u64, addr)?;
            }
            self.write_block(addr, &encode_dir(chunk), NtfsBlockType::Dir)?;
        }
        for idx in blocks.len() as u64..old {
            let addr = self.file_block(r, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
                self.set_file_block(r, idx, 0)?;
            }
        }
        r.size = (blocks.len() * BLOCK_SIZE) as u64;
        self.put_record(rec, r)
    }

    fn dir_find(&mut self, r: &MftRecord, name: &str) -> VfsResult<Option<(u32, u8)>> {
        Ok(self
            .dir_entries(r)?
            .into_iter()
            .find(|(_, _, n)| n == name)
            .map(|(rec, ft, _)| (rec, ft)))
    }

    fn free_body(&mut self, r: &mut MftRecord) -> VfsResult<()> {
        let nblocks = r.size.div_ceil(BLOCK_SIZE as u64);
        for idx in 0..nblocks {
            let addr = self.file_block(r, idx)?;
            if addr != 0 {
                self.free_block(addr)?;
            }
        }
        if r.run_block != 0 {
            self.free_block(r.run_block as u64)?;
            r.run_block = 0;
        }
        r.direct = [0; NDIRECT];
        r.size = 0;
        Ok(())
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

impl<D: BlockDevice + RawAccess> SpecificFs for NtfsFs<D> {
    fn env(&self) -> &FsEnv {
        &self.env
    }

    fn root_ino(&self) -> u64 {
        ROOT_REC
    }

    fn lookup(&mut self, dir: u64, name: &str) -> VfsResult<u64> {
        self.env.check_alive()?;
        let r = self.get_record(dir)?;
        if r.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        match self.dir_find(&r, name)? {
            Some((rec, _)) => Ok(rec as u64),
            None => Err(Errno::ENOENT.into()),
        }
    }

    fn getattr(&mut self, rec: u64) -> VfsResult<InodeAttr> {
        self.env.check_alive()?;
        let r = self.get_record(rec)?;
        Ok(InodeAttr {
            ino: rec,
            ftype: r.ftype,
            size: r.size,
            nlink: r.nlink,
            mode: r.mode & 0o7777,
            uid: r.uid,
            gid: r.gid,
            mtime: r.mtime,
        })
    }

    fn chmod(&mut self, rec: u64, mode: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut r = self.get_record(rec)?;
        r.mode = mode & 0o7777;
        self.log_op("chmod")?;
        self.put_record(rec, &r)
    }

    fn chown(&mut self, rec: u64, uid: u32, gid: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut r = self.get_record(rec)?;
        r.uid = uid;
        r.gid = gid;
        self.log_op("chown")?;
        self.put_record(rec, &r)
    }

    fn utimes(&mut self, rec: u64, mtime: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut r = self.get_record(rec)?;
        r.mtime = mtime;
        self.log_op("utimes")?;
        self.put_record(rec, &r)
    }

    fn create(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        if d.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        if self.dir_find(&d, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        self.log_op("create")?;
        let rec = self.alloc_record()?;
        self.put_record(rec, &MftRecord::new(FileType::Regular, mode))?;
        let mut entries = self.dir_entries(&d)?;
        entries.push((rec as u32, ft_code(FileType::Regular), name.to_string()));
        self.write_dir(dir, &mut d, &entries)?;
        Ok(rec)
    }

    fn mkdir(&mut self, dir: u64, name: &str, mode: u32) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        if self.dir_find(&d, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        self.log_op("mkdir")?;
        let rec = self.alloc_record()?;
        let mut child = MftRecord::new(FileType::Directory, mode);
        self.put_record(rec, &child)?;
        let child_entries = vec![
            (rec as u32, ft_code(FileType::Directory), ".".to_string()),
            (dir as u32, ft_code(FileType::Directory), "..".to_string()),
        ];
        self.write_dir(rec, &mut child, &child_entries)?;
        let mut entries = self.dir_entries(&d)?;
        entries.push((rec as u32, ft_code(FileType::Directory), name.to_string()));
        d.nlink += 1;
        self.write_dir(dir, &mut d, &entries)?;
        Ok(rec)
    }

    fn unlink(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        let Some((rec32, ft)) = self.dir_find(&d, name)? else {
            return Err(Errno::ENOENT.into());
        };
        if ft_from(ft) == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        let rec = rec32 as u64;
        let mut r = self.get_record(rec)?;
        self.log_op("unlink")?;
        let mut entries = self.dir_entries(&d)?;
        entries.retain(|(_, _, n)| n != name);
        self.write_dir(dir, &mut d, &entries)?;
        r.nlink = r.nlink.saturating_sub(1);
        if r.nlink == 0 {
            self.free_body(&mut r)?;
            self.free_record(rec)?;
        } else {
            self.put_record(rec, &r)?;
        }
        Ok(())
    }

    fn rmdir(&mut self, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        let Some((rec32, ft)) = self.dir_find(&d, name)? else {
            return Err(Errno::ENOENT.into());
        };
        if ft_from(ft) != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        let rec = rec32 as u64;
        let mut r = self.get_record(rec)?;
        if self
            .dir_entries(&r)?
            .iter()
            .any(|(_, _, n)| n != "." && n != "..")
        {
            return Err(Errno::ENOTEMPTY.into());
        }
        self.log_op("rmdir")?;
        let mut entries = self.dir_entries(&d)?;
        entries.retain(|(_, _, n)| n != name);
        d.nlink = d.nlink.saturating_sub(1);
        self.write_dir(dir, &mut d, &entries)?;
        self.free_body(&mut r)?;
        self.free_record(rec)
    }

    fn link(&mut self, rec: u64, dir: u64, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        if self.dir_find(&d, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        let mut r = self.get_record(rec)?;
        if r.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.log_op("link")?;
        r.nlink += 1;
        self.put_record(rec, &r)?;
        let mut entries = self.dir_entries(&d)?;
        entries.push((rec as u32, ft_code(r.ftype), name.to_string()));
        self.write_dir(dir, &mut d, &entries)
    }

    fn symlink(&mut self, dir: u64, name: &str, target: &str) -> VfsResult<u64> {
        self.env.check_writable()?;
        let mut d = self.get_record(dir)?;
        if self.dir_find(&d, name)?.is_some() {
            return Err(Errno::EEXIST.into());
        }
        if target.len() > BLOCK_SIZE {
            return Err(Errno::ENAMETOOLONG.into());
        }
        self.log_op("symlink")?;
        let rec = self.alloc_record()?;
        let mut r = MftRecord::new(FileType::Symlink, 0o777);
        let baddr = self.alloc_block()?;
        r.direct[0] = baddr as u32;
        r.size = target.len() as u64;
        self.write_block(
            baddr,
            &Block::from_bytes(target.as_bytes()),
            NtfsBlockType::Data,
        )?;
        self.put_record(rec, &r)?;
        let mut entries = self.dir_entries(&d)?;
        entries.push((rec as u32, ft_code(FileType::Symlink), name.to_string()));
        self.write_dir(dir, &mut d, &entries)?;
        Ok(rec)
    }

    fn readlink(&mut self, rec: u64) -> VfsResult<String> {
        self.env.check_alive()?;
        let r = self.get_record(rec)?;
        if r.ftype != FileType::Symlink {
            return Err(Errno::EINVAL.into());
        }
        if r.direct[0] == 0 {
            return Ok(String::new());
        }
        let b = self.read_block(r.direct[0] as u64, NtfsBlockType::Data)?;
        Ok(String::from_utf8_lossy(b.get_bytes(0, r.size as usize)).into_owned())
    }

    fn rename(
        &mut self,
        src_dir: u64,
        src_name: &str,
        dst_dir: u64,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.env.check_writable()?;
        let sd = self.get_record(src_dir)?;
        let Some((rec32, ft)) = self.dir_find(&sd, src_name)? else {
            return Err(Errno::ENOENT.into());
        };
        let dd = self.get_record(dst_dir)?;
        if let Some((existing, eft)) = self.dir_find(&dd, dst_name)? {
            if existing == rec32 {
                return Ok(());
            }
            if ft_from(eft) == FileType::Directory {
                return Err(Errno::EISDIR.into());
            }
            self.unlink(dst_dir, dst_name)?;
        }
        self.log_op("rename")?;
        let mut sd = self.get_record(src_dir)?;
        let mut entries = self.dir_entries(&sd)?;
        entries.retain(|(_, _, n)| n != src_name);
        let is_dir = ft_from(ft) == FileType::Directory;
        if is_dir && src_dir != dst_dir {
            sd.nlink = sd.nlink.saturating_sub(1);
        }
        self.write_dir(src_dir, &mut sd, &entries)?;
        let mut dd = self.get_record(dst_dir)?;
        let mut dentries = self.dir_entries(&dd)?;
        dentries.push((rec32, ft, dst_name.to_string()));
        if is_dir && src_dir != dst_dir {
            dd.nlink += 1;
        }
        self.write_dir(dst_dir, &mut dd, &dentries)?;
        if is_dir && src_dir != dst_dir {
            let mut m = self.get_record(rec32 as u64)?;
            let mut mentries = self.dir_entries(&m)?;
            for e in &mut mentries {
                if e.2 == ".." {
                    e.0 = dst_dir as u32;
                }
            }
            self.write_dir(rec32 as u64, &mut m, &mentries)?;
        }
        Ok(())
    }

    fn read(&mut self, rec: u64, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.env.check_alive()?;
        let r = self.get_record(rec)?;
        if r.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        if off >= r.size {
            return Ok(Vec::new());
        }
        let end = (off + len as u64).min(r.size);
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::with_capacity((end - off) as usize);
        let mut pos = off;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let addr = self.file_block(&r, idx)?;
            if addr == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                let b = self.read_block(addr, NtfsBlockType::Data)?;
                out.extend_from_slice(b.get_bytes(within, take));
            }
            pos += take as u64;
        }
        Ok(out)
    }

    fn write(&mut self, rec: u64, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.env.check_writable()?;
        let mut r = self.get_record(rec)?;
        if r.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.log_op("write")?;
        let bs = BLOCK_SIZE as u64;
        let end = off + data.len() as u64;
        let mut pos = off;
        let mut src = 0usize;
        while pos < end {
            let idx = pos / bs;
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let mut addr = self.file_block(&r, idx)?;
            let mut block = if addr == 0 || (within == 0 && take == BLOCK_SIZE) {
                Block::zeroed()
            } else {
                self.read_block(addr, NtfsBlockType::Data)?
            };
            if addr == 0 {
                addr = self.alloc_block()?;
                self.set_file_block(&mut r, idx, addr)?;
            }
            block.put_bytes(within, &data[src..src + take]);
            // PAPER-BUG vector: `addr` is used unvalidated — if the MFT
            // record's pointer was corrupted, this write lands on whatever
            // structure the pointer names.
            self.write_block(addr, &block, NtfsBlockType::Data)?;
            pos += take as u64;
            src += take;
        }
        if end > r.size {
            r.size = end;
        }
        self.put_record(rec, &r)?;
        Ok(data.len())
    }

    fn truncate(&mut self, rec: u64, size: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let mut r = self.get_record(rec)?;
        if r.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.log_op("truncate")?;
        if size < r.size {
            let bs = BLOCK_SIZE as u64;
            let keep = size.div_ceil(bs);
            let old = r.size.div_ceil(bs);
            for idx in keep..old {
                let addr = self.file_block(&r, idx)?;
                if addr != 0 {
                    self.free_block(addr)?;
                    self.set_file_block(&mut r, idx, 0)?;
                }
            }
            if !size.is_multiple_of(bs) {
                let idx = size / bs;
                let addr = self.file_block(&r, idx)?;
                if addr != 0 {
                    let mut b = self.read_block(addr, NtfsBlockType::Data)?;
                    for byte in &mut b[(size % bs) as usize..] {
                        *byte = 0;
                    }
                    self.write_block(addr, &b, NtfsBlockType::Data)?;
                }
            }
        }
        r.size = size;
        self.put_record(rec, &r)
    }

    fn readdir(&mut self, dir: u64) -> VfsResult<Vec<DirEntry>> {
        self.env.check_alive()?;
        let r = self.get_record(dir)?;
        if r.ftype != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        Ok(self
            .dir_entries(&r)?
            .into_iter()
            .map(|(rec, ft, name)| DirEntry {
                name,
                ino: rec as u64,
                ftype: ft_from(ft),
            })
            .collect())
    }

    fn fsync(&mut self, _rec: u64) -> VfsResult<()> {
        self.env.check_alive()?;
        self.dev.flush().map_err(VfsError::from)
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.dev.flush().map_err(VfsError::from)
    }

    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.env.check_alive()?;
        Ok(StatFs {
            block_size: BLOCK_SIZE as u32,
            blocks: self.layout.params.total_blocks - self.layout.alloc_start,
            blocks_free: self.free_blocks,
            inodes: self.layout.params.mft_records,
            inodes_free: self.free_records,
        })
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        let _ = self.dev.flush();
        self.env.set_state(MountState::Unmounted);
        Ok(())
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
        let fs = NtfsFs::mount(dev, FsEnv::new(), NtfsOptions::default()).unwrap();
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
