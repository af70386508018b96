//! The flat-inode file model the JFS and NTFS models share.
//!
//! Both keep a file as a fixed-size node (an inode, an MFT record) with a
//! few direct block pointers plus one pointer block for the rest, and a
//! directory as a file of packed-entry blocks. The paper studies the two
//! for their failure *policy* (§5.3, §5.4), not for their namespace
//! algebra, so the algebra is written once, here, against [`FlatStore`]:
//! the primitives a model supplies with its own codec, I/O policy,
//! allocator and journal. Every `FlatStore` is a
//! [`SpecificFs`] through the blanket impl at the bottom of this file,
//! which never asks which model it serves; every difference is a
//! `FlatStore` method or constant.

use iron_core::{Block, Errno, BLOCK_SIZE};

use crate::env::{FsEnv, MountState};
use crate::fs::SpecificFs;
use crate::types::{DirEntry, FileType, Ino, InodeAttr, StatFs, VfsResult};

/// A node as the shared code sees it; the model owns the on-disk codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    /// File type.
    pub ftype: FileType,
    /// The model's on-disk mode word ([`FlatStore::mode_word`]), carried
    /// verbatim; its low twelve bits are the permissions.
    pub mode: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Link count.
    pub nlink: u32,
    /// Size in bytes.
    pub size: u64,
    /// Modification time.
    pub mtime: u64,
    /// The first [`FlatStore::NDIRECT`] block pointers (0 = hole).
    pub direct: Vec<u32>,
    /// The pointer block mapping the blocks after those (0 = none).
    pub indirect: u32,
}

impl Node {
    /// An empty node of type `ftype`, linked once (a directory twice).
    pub fn new(ftype: FileType, mode: u32, ndirect: usize) -> Node {
        Node {
            ftype,
            mode,
            uid: 0,
            gid: 0,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            size: 0,
            mtime: 0,
            direct: vec![0; ndirect],
            indirect: 0,
        }
    }

    /// What a released slot holds: no type bits, no links.
    pub fn free(ndirect: usize) -> Node {
        Node {
            nlink: 0,
            ..Node::new(FileType::Regular, 0, ndirect)
        }
    }
}

/// One directory entry, as packed in a directory block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dirent {
    /// The node the name refers to.
    pub id: u32,
    /// The model's file-type code, kept exactly as read so that rewriting
    /// a directory never alters an entry it did not touch.
    pub code: u8,
    /// The name.
    pub name: String,
}

impl Dirent {
    /// Bytes this entry occupies in a directory block.
    pub fn packed_len(&self) -> usize {
        DIRENT_HEADER + self.name.len()
    }
}

/// Most entries a directory block may hold; a larger count on disk fails
/// the block's sanity check.
const DIR_MAX_ENTRIES: usize = 128;
/// `{count: u16}` and padding.
const DIR_HEADER: usize = 4;
/// `{id: u32, code: u8, name_len: u8}`.
const DIRENT_HEADER: usize = 6;

/// Pack `entries` into one directory block: the header, then each entry's
/// header and name back to back.
pub fn encode_dir_block(entries: &[Dirent]) -> Block {
    let mut b = Block::zeroed();
    b.put_u16(0, entries.len() as u16);
    let mut off = DIR_HEADER;
    for e in entries {
        b.put_u32(off, e.id);
        b[off + 4] = e.code;
        b[off + 5] = e.name.len() as u8;
        b.put_bytes(off + DIRENT_HEADER, e.name.as_bytes());
        off += e.packed_len();
    }
    b
}

/// Unpack a directory block; `None` if its count or an entry's extent is
/// more than a block can hold.
pub fn decode_dir_block(b: &Block) -> Option<Vec<Dirent>> {
    let count = b.get_u16(0) as usize;
    if count > DIR_MAX_ENTRIES {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    let mut off = DIR_HEADER;
    for _ in 0..count {
        if off + DIRENT_HEADER > BLOCK_SIZE {
            return None;
        }
        let n = b[off + 5] as usize;
        if off + DIRENT_HEADER + n > BLOCK_SIZE {
            return None;
        }
        out.push(Dirent {
            id: b.get_u32(off),
            code: b[off + 4],
            name: String::from_utf8_lossy(b.get_bytes(off + DIRENT_HEADER, n)).into_owned(),
        });
        off += DIRENT_HEADER + n;
    }
    Some(out)
}

/// What a flat-inode model supplies: its storage primitives, each with
/// the model's own failure policy inside.
pub trait FlatStore {
    /// Kernel-log subsystem the model reports under.
    const SUBSYSTEM: &'static str;
    /// The root directory's node.
    const ROOT: Ino;
    /// Direct block pointers per node.
    const NDIRECT: usize;
    /// Pointers a pointer block holds.
    const NINDIRECT: usize;
    /// Directory-entry type code of a symlink (a regular file is 1 and a
    /// directory 2 in both models).
    const SYMLINK_CODE: u8;

    /// The environment the model was mounted with.
    fn fs_env(&self) -> &FsEnv;

    /// Make everything written so far durable (`fsync` and `sync` alike).
    fn sync_all(&mut self) -> VfsResult<()>;

    /// [`SpecificFs::statfs`], past its liveness check.
    fn stat(&self) -> StatFs;

    /// [`SpecificFs::unmount`], past its liveness check: flush and mark
    /// the volume clean.
    fn shut_down(&mut self) -> VfsResult<()>;

    /// The mode word a node of type `ftype` with permission bits `perm`
    /// carries on disk.
    fn mode_word(ftype: FileType, perm: u32) -> u32;

    /// Read node `id`, sanity-checked the model's way; a free slot is
    /// `ENOENT`.
    fn load_node(&mut self, id: Ino) -> VfsResult<Node>;

    /// Read the node `unlink` is about to drop a link from. `None` means
    /// there is nothing to release but the slot itself.
    fn load_unlink_victim(&mut self, id: Ino) -> VfsResult<Option<Node>>;

    /// Write node `id`.
    fn store_node(&mut self, id: Ino, node: &Node) -> VfsResult<()>;

    /// Claim a free node slot.
    fn alloc_node(&mut self) -> VfsResult<Ino>;

    /// Release node slot `id` and blank it.
    fn free_node(&mut self, id: Ino) -> VfsResult<()>;

    /// Claim a free block.
    fn alloc_block(&mut self) -> VfsResult<u64>;

    /// Release block `addr`.
    fn free_block(&mut self, addr: u64) -> VfsResult<()>;

    /// Claim a block and initialise it as an empty pointer block.
    fn alloc_ptr_block(&mut self) -> VfsResult<u64>;

    /// Slot `slot` of pointer block `block` (0 = hole).
    fn read_ptr(&mut self, block: u64, slot: usize) -> VfsResult<u64>;

    /// Point slot `slot` of pointer block `block` at `addr`.
    fn write_ptr(&mut self, block: u64, slot: usize, addr: u64) -> VfsResult<()>;

    /// Read directory block `addr` through [`decode_dir_block`], reacting
    /// the model's way to one that fails it.
    fn read_dir_block(&mut self, addr: u64) -> VfsResult<Vec<Dirent>>;

    /// Write `entries` ([`encode_dir_block`]) as directory block `addr`.
    fn write_dir_block(&mut self, addr: u64, entries: &[Dirent]) -> VfsResult<()>;

    /// Read data block `addr`.
    fn read_data(&mut self, addr: u64) -> VfsResult<Block>;

    /// Write data block `addr`.
    fn write_data(&mut self, addr: u64, block: &Block) -> VfsResult<()>;

    /// A mutating operation named `op` has passed its checks and is about
    /// to change the disk. Nothing to do unless the model logs intent.
    fn begin(&mut self, _op: &str) -> VfsResult<()> {
        Ok(())
    }

    /// The operation [`Self::begin`] opened made its last change. Nothing
    /// to do unless the model defers work to here.
    fn end(&mut self) -> VfsResult<()> {
        Ok(())
    }
}

// ----------------------------------------------------------------------
// File bodies and directories.
// ----------------------------------------------------------------------

fn new_node<S: FlatStore>(ftype: FileType, perm: u32) -> Node {
    Node::new(ftype, S::mode_word(ftype, perm), S::NDIRECT)
}

fn dirent<S: FlatStore>(id: Ino, ftype: FileType, name: &str) -> Dirent {
    let code = match ftype {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => S::SYMLINK_CODE,
    };
    Dirent {
        id: id as u32,
        code,
        name: name.to_string(),
    }
}

fn type_of<S: FlatStore>(e: &Dirent) -> FileType {
    match e.code {
        2 => FileType::Directory,
        c if c == S::SYMLINK_CODE => FileType::Symlink,
        _ => FileType::Regular,
    }
}

/// The `.` and `..` a directory `id` under `parent` starts with.
pub fn dot_entries<S: FlatStore>(id: Ino, parent: Ino) -> [Dirent; 2] {
    [
        dirent::<S>(id, FileType::Directory, "."),
        dirent::<S>(parent, FileType::Directory, ".."),
    ]
}

/// File block `idx` of `n` → device address (0 = hole).
fn file_block<S: FlatStore>(s: &mut S, n: &Node, idx: u64) -> VfsResult<u64> {
    let idx = idx as usize;
    if idx < S::NDIRECT {
        return Ok(n.direct[idx] as u64);
    }
    if idx - S::NDIRECT >= S::NINDIRECT {
        return Err(Errno::EFBIG.into());
    }
    if n.indirect == 0 {
        return Ok(0);
    }
    s.read_ptr(n.indirect as u64, idx - S::NDIRECT)
}

fn set_file_block<S: FlatStore>(s: &mut S, n: &mut Node, idx: u64, addr: u64) -> VfsResult<()> {
    let idx = idx as usize;
    if idx < S::NDIRECT {
        n.direct[idx] = addr as u32;
        return Ok(());
    }
    if idx - S::NDIRECT >= S::NINDIRECT {
        return Err(Errno::EFBIG.into());
    }
    if n.indirect == 0 {
        n.indirect = s.alloc_ptr_block()? as u32;
    }
    s.write_ptr(n.indirect as u64, idx - S::NDIRECT, addr)
}

fn blocks_of(n: &Node) -> u64 {
    n.size.div_ceil(BLOCK_SIZE as u64)
}

/// The block-sized pieces of the byte range `off..end`: `(file block,
/// offset within it, length)`.
fn pieces(off: u64, end: u64) -> impl Iterator<Item = (u64, usize, usize)> {
    let bs = BLOCK_SIZE as u64;
    let mut pos = off;
    std::iter::from_fn(move || {
        (pos < end).then(|| {
            let within = (pos % bs) as usize;
            let take = ((end - pos) as usize).min(BLOCK_SIZE - within);
            let piece = (pos / bs, within, take);
            pos += take as u64;
            piece
        })
    })
}

/// Release file blocks `from..` of `n`, clearing each pointer.
fn free_tail<S: FlatStore>(s: &mut S, n: &mut Node, from: u64) -> VfsResult<()> {
    for idx in from..blocks_of(n) {
        let addr = file_block(s, n, idx)?;
        if addr != 0 {
            s.free_block(addr)?;
            set_file_block(s, n, idx, 0)?;
        }
    }
    Ok(())
}

fn free_body<S: FlatStore>(s: &mut S, n: &mut Node) -> VfsResult<()> {
    for idx in 0..blocks_of(n) {
        let addr = file_block(s, n, idx)?;
        if addr != 0 {
            s.free_block(addr)?;
        }
    }
    if n.indirect != 0 {
        s.free_block(n.indirect as u64)?;
        n.indirect = 0;
    }
    n.direct.fill(0);
    n.size = 0;
    Ok(())
}

fn dir_entries<S: FlatStore>(s: &mut S, dir: &Node) -> VfsResult<Vec<Dirent>> {
    let mut out = Vec::new();
    for idx in 0..blocks_of(dir) {
        let addr = file_block(s, dir, idx)?;
        if addr != 0 {
            out.extend(s.read_dir_block(addr)?);
        }
    }
    Ok(out)
}

fn dir_find<S: FlatStore>(s: &mut S, dir: &Node, name: &str) -> VfsResult<Option<Dirent>> {
    Ok(dir_entries(s, dir)?.into_iter().find(|e| e.name == name))
}

/// Rewrite directory `id` to hold exactly `entries`: pack them into as
/// few blocks as the byte and entry-count limits allow, release the
/// blocks no longer needed, and store the node.
fn write_dir<S: FlatStore>(
    s: &mut S,
    id: Ino,
    dir: &mut Node,
    entries: &[Dirent],
) -> VfsResult<()> {
    let mut blocks: Vec<&[Dirent]> = Vec::new();
    let (mut start, mut used) = (0, DIR_HEADER);
    for (i, e) in entries.iter().enumerate() {
        if used + e.packed_len() > BLOCK_SIZE || i - start >= DIR_MAX_ENTRIES {
            blocks.push(&entries[start..i]);
            (start, used) = (i, DIR_HEADER);
        }
        used += e.packed_len();
    }
    blocks.push(&entries[start..]);
    for (idx, chunk) in blocks.iter().enumerate() {
        let mut addr = file_block(s, dir, idx as u64)?;
        if addr == 0 {
            addr = s.alloc_block()?;
            set_file_block(s, dir, idx as u64, addr)?;
        }
        s.write_dir_block(addr, chunk)?;
    }
    free_tail(s, dir, blocks.len() as u64)?;
    dir.size = (blocks.len() * BLOCK_SIZE) as u64;
    s.store_node(id, dir)
}

fn add_entry<S: FlatStore>(s: &mut S, id: Ino, dir: &mut Node, e: Dirent) -> VfsResult<()> {
    let mut entries = dir_entries(s, dir)?;
    entries.push(e);
    write_dir(s, id, dir, &entries)
}

fn remove_entry<S: FlatStore>(s: &mut S, id: Ino, dir: &mut Node, name: &str) -> VfsResult<()> {
    let mut entries = dir_entries(s, dir)?;
    entries.retain(|e| e.name != name);
    write_dir(s, id, dir, &entries)
}

fn load_dir<S: FlatStore>(s: &mut S, id: Ino) -> VfsResult<Node> {
    let n = s.load_node(id)?;
    if n.ftype != FileType::Directory {
        return Err(Errno::ENOTDIR.into());
    }
    Ok(n)
}

/// Directory `id`, for adding `name` to: `EEXIST` if it is there already.
fn load_parent<S: FlatStore>(s: &mut S, id: Ino, name: &str) -> VfsResult<Node> {
    let dir = load_dir(s, id)?;
    if dir_find(s, &dir, name)?.is_some() {
        return Err(Errno::EEXIST.into());
    }
    Ok(dir)
}

fn load_file<S: FlatStore>(s: &mut S, id: Ino) -> VfsResult<Node> {
    let n = s.load_node(id)?;
    if n.ftype == FileType::Directory {
        return Err(Errno::EISDIR.into());
    }
    Ok(n)
}

// ----------------------------------------------------------------------
// Every flat store is a specific file system.
// ----------------------------------------------------------------------

fn setattr<S: FlatStore>(
    s: &mut S,
    op: &str,
    ino: Ino,
    change: impl FnOnce(&mut Node),
) -> VfsResult<()> {
    s.fs_env().check_writable()?;
    let mut n = s.load_node(ino)?;
    change(&mut n);
    s.begin(op)?;
    s.store_node(ino, &n)?;
    s.end()
}

impl<S: FlatStore> SpecificFs for S {
    fn env(&self) -> &FsEnv {
        self.fs_env()
    }

    fn root_ino(&self) -> Ino {
        S::ROOT
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.fs_env().check_alive()?;
        let d = load_dir(self, dir)?;
        match dir_find(self, &d, name)? {
            Some(e) => Ok(e.id as u64),
            None => Err(Errno::ENOENT.into()),
        }
    }

    fn getattr(&mut self, ino: Ino) -> VfsResult<InodeAttr> {
        self.fs_env().check_alive()?;
        let n = self.load_node(ino)?;
        Ok(InodeAttr {
            ino,
            ftype: n.ftype,
            size: n.size,
            nlink: n.nlink,
            mode: n.mode & 0o7777,
            uid: n.uid,
            gid: n.gid,
            mtime: n.mtime,
        })
    }

    fn chmod(&mut self, ino: Ino, mode: u32) -> VfsResult<()> {
        setattr(self, "chmod", ino, |n| {
            n.mode = S::mode_word(n.ftype, mode & 0o7777)
        })
    }

    fn chown(&mut self, ino: Ino, uid: u32, gid: u32) -> VfsResult<()> {
        setattr(self, "chown", ino, |n| (n.uid, n.gid) = (uid, gid))
    }

    fn utimes(&mut self, ino: Ino, mtime: u64) -> VfsResult<()> {
        setattr(self, "utimes", ino, |n| n.mtime = mtime)
    }

    fn create(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.fs_env().check_writable()?;
        let mut d = load_parent(self, dir, name)?;
        self.begin("create")?;
        let ino = self.alloc_node()?;
        self.store_node(ino, &new_node::<S>(FileType::Regular, mode))?;
        add_entry(self, dir, &mut d, dirent::<S>(ino, FileType::Regular, name))?;
        self.end()?;
        Ok(ino)
    }

    fn mkdir(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.fs_env().check_writable()?;
        let mut d = load_parent(self, dir, name)?;
        self.begin("mkdir")?;
        let ino = self.alloc_node()?;
        let mut child = new_node::<S>(FileType::Directory, mode);
        self.store_node(ino, &child)?;
        write_dir(self, ino, &mut child, &dot_entries::<S>(ino, dir))?;
        d.nlink += 1;
        add_entry(
            self,
            dir,
            &mut d,
            dirent::<S>(ino, FileType::Directory, name),
        )?;
        self.end()?;
        Ok(ino)
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.fs_env().check_writable()?;
        let mut d = self.load_node(dir)?;
        let e = dir_find(self, &d, name)?.ok_or(Errno::ENOENT)?;
        if type_of::<S>(&e) == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        let ino = e.id as u64;
        let victim = self.load_unlink_victim(ino)?;
        self.begin("unlink")?;
        remove_entry(self, dir, &mut d, name)?;
        match victim {
            Some(mut n) if n.nlink > 1 => {
                n.nlink -= 1;
                self.store_node(ino, &n)?;
            }
            Some(mut n) => {
                free_body(self, &mut n)?;
                self.free_node(ino)?;
            }
            None => self.free_node(ino)?,
        }
        self.end()
    }

    fn rmdir(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.fs_env().check_writable()?;
        let mut d = self.load_node(dir)?;
        let e = dir_find(self, &d, name)?.ok_or(Errno::ENOENT)?;
        if type_of::<S>(&e) != FileType::Directory {
            return Err(Errno::ENOTDIR.into());
        }
        let ino = e.id as u64;
        let mut n = self.load_node(ino)?;
        let children = dir_entries(self, &n)?;
        if children.iter().any(|c| c.name != "." && c.name != "..") {
            return Err(Errno::ENOTEMPTY.into());
        }
        self.begin("rmdir")?;
        d.nlink = d.nlink.saturating_sub(1);
        remove_entry(self, dir, &mut d, name)?;
        free_body(self, &mut n)?;
        self.free_node(ino)?;
        self.end()
    }

    fn link(&mut self, ino: Ino, dir: Ino, name: &str) -> VfsResult<()> {
        self.fs_env().check_writable()?;
        let mut d = load_parent(self, dir, name)?;
        let mut n = load_file(self, ino)?;
        self.begin("link")?;
        n.nlink += 1;
        self.store_node(ino, &n)?;
        add_entry(self, dir, &mut d, dirent::<S>(ino, n.ftype, name))?;
        self.end()
    }

    fn symlink(&mut self, dir: Ino, name: &str, target: &str) -> VfsResult<Ino> {
        self.fs_env().check_writable()?;
        let mut d = load_parent(self, dir, name)?;
        if target.len() > BLOCK_SIZE {
            return Err(Errno::ENAMETOOLONG.into());
        }
        self.begin("symlink")?;
        let ino = self.alloc_node()?;
        let mut n = new_node::<S>(FileType::Symlink, 0o777);
        let addr = self.alloc_block()?;
        n.direct[0] = addr as u32;
        n.size = target.len() as u64;
        self.write_data(addr, &Block::from_bytes(target.as_bytes()))?;
        self.store_node(ino, &n)?;
        add_entry(self, dir, &mut d, dirent::<S>(ino, FileType::Symlink, name))?;
        self.end()?;
        Ok(ino)
    }

    fn readlink(&mut self, ino: Ino) -> VfsResult<String> {
        self.fs_env().check_alive()?;
        let n = self.load_node(ino)?;
        if n.ftype != FileType::Symlink {
            return Err(Errno::EINVAL.into());
        }
        if n.direct[0] == 0 {
            return Ok(String::new());
        }
        // The size comes straight from disk; the target lives in one block.
        if n.size > BLOCK_SIZE as u64 {
            let msg = format!("symlink {ino} has impossible size {}", n.size);
            self.fs_env().klog.error(S::SUBSYSTEM, msg);
            return Err(Errno::EUCLEAN.into());
        }
        let b = self.read_data(n.direct[0] as u64)?;
        Ok(String::from_utf8_lossy(b.get_bytes(0, n.size as usize)).into_owned())
    }

    fn rename(
        &mut self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.fs_env().check_writable()?;
        let sd = load_dir(self, src_dir)?;
        let moved = dir_find(self, &sd, src_name)?.ok_or(Errno::ENOENT)?;
        let dd = load_dir(self, dst_dir)?;
        if let Some(old) = dir_find(self, &dd, dst_name)? {
            if old.id == moved.id {
                return Ok(());
            }
            if type_of::<S>(&old) == FileType::Directory {
                return Err(Errno::EISDIR.into());
            }
            self.unlink(dst_dir, dst_name)?;
        }
        self.begin("rename")?;
        let ino = moved.id as u64;
        let reparent = type_of::<S>(&moved) == FileType::Directory && src_dir != dst_dir;
        let mut sd = self.load_node(src_dir)?;
        if reparent {
            sd.nlink = sd.nlink.saturating_sub(1);
        }
        remove_entry(self, src_dir, &mut sd, src_name)?;
        let mut dd = self.load_node(dst_dir)?;
        if reparent {
            dd.nlink += 1;
        }
        let renamed = Dirent {
            name: dst_name.to_string(),
            ..moved
        };
        add_entry(self, dst_dir, &mut dd, renamed)?;
        if reparent {
            let mut m = self.load_node(ino)?;
            let mut entries = dir_entries(self, &m)?;
            for e in entries.iter_mut().filter(|e| e.name == "..") {
                e.id = dst_dir as u32;
            }
            write_dir(self, ino, &mut m, &entries)?;
        }
        self.end()
    }

    fn read(&mut self, ino: Ino, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.fs_env().check_alive()?;
        let n = load_file(self, ino)?;
        if off >= n.size {
            return Ok(Vec::new());
        }
        let end = off.saturating_add(len as u64).min(n.size);
        let mut out = Vec::with_capacity((end - off) as usize);
        for (idx, within, take) in pieces(off, end) {
            let addr = file_block(self, &n, idx)?;
            if addr == 0 {
                out.extend(std::iter::repeat_n(0u8, take));
            } else {
                out.extend_from_slice(self.read_data(addr)?.get_bytes(within, take));
            }
        }
        Ok(out)
    }

    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.fs_env().check_writable()?;
        let mut n = load_file(self, ino)?;
        let end = off.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
        self.begin("write")?;
        let mut src = 0;
        for (idx, within, take) in pieces(off, end) {
            let mut addr = file_block(self, &n, idx)?;
            let mut block = if addr == 0 || take == BLOCK_SIZE {
                Block::zeroed()
            } else {
                self.read_data(addr)?
            };
            if addr == 0 {
                addr = self.alloc_block()?;
                set_file_block(self, &mut n, idx, addr)?;
            }
            block.put_bytes(within, &data[src..src + take]);
            self.write_data(addr, &block)?;
            src += take;
        }
        n.size = n.size.max(end);
        self.store_node(ino, &n)?;
        self.end()?;
        Ok(data.len())
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> VfsResult<()> {
        self.fs_env().check_writable()?;
        let mut n = load_file(self, ino)?;
        self.begin("truncate")?;
        if size < n.size {
            let bs = BLOCK_SIZE as u64;
            free_tail(self, &mut n, size.div_ceil(bs))?;
            if !size.is_multiple_of(bs) {
                // Zero the tail of the block the new end falls in.
                let addr = file_block(self, &n, size / bs)?;
                if addr != 0 {
                    let mut b = self.read_data(addr)?;
                    b[(size % bs) as usize..].fill(0);
                    self.write_data(addr, &b)?;
                }
            }
        }
        n.size = size;
        self.store_node(ino, &n)?;
        self.end()
    }

    fn readdir(&mut self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        self.fs_env().check_alive()?;
        let d = load_dir(self, dir)?;
        Ok(dir_entries(self, &d)?
            .into_iter()
            .map(|e| DirEntry {
                ftype: type_of::<S>(&e),
                ino: e.id as u64,
                name: e.name,
            })
            .collect())
    }

    fn fsync(&mut self, _ino: Ino) -> VfsResult<()> {
        self.sync()
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.fs_env().check_alive()?;
        self.sync_all()
    }

    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.fs_env().check_alive()?;
        Ok(self.stat())
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.fs_env().check_alive()?;
        self.shut_down()?;
        self.fs_env().set_state(MountState::Unmounted);
        Ok(())
    }
}
