//! [`RamFs`]: an in-memory reference implementation of [`SpecificFs`].
//!
//! RamFs has no disk and therefore no failure policy — it exists (a) as the
//! executable specification the on-disk models are tested against, and
//! (b) to exercise the generic [`crate::Vfs`] layer in isolation.

use std::collections::BTreeMap;

use iron_core::Errno;

use crate::env::{FsEnv, MountState};
use crate::fs::SpecificFs;
use crate::types::{DirEntry, FileType, Ino, InodeAttr, StatFs, VfsResult};

#[derive(Clone, Debug)]
enum Node {
    File { data: Vec<u8> },
    Dir { entries: BTreeMap<String, Ino> },
    Symlink { target: String },
}

#[derive(Clone, Debug)]
struct Inode {
    node: Node,
    attr: InodeAttr,
}

/// An in-memory file system.
pub struct RamFs {
    env: FsEnv,
    inodes: BTreeMap<Ino, Inode>,
    next_ino: Ino,
}

const ROOT: Ino = 1;

impl RamFs {
    /// A fresh, empty file system with its own environment.
    pub fn new() -> Self {
        Self::with_env(FsEnv::new())
    }

    /// A fresh, empty file system sharing the given environment.
    pub fn with_env(env: FsEnv) -> Self {
        let mut inodes = BTreeMap::new();
        let mut entries = BTreeMap::new();
        entries.insert(".".to_string(), ROOT);
        entries.insert("..".to_string(), ROOT);
        inodes.insert(
            ROOT,
            Inode {
                node: Node::Dir { entries },
                attr: InodeAttr::new(ROOT, FileType::Directory, 0o755),
            },
        );
        RamFs {
            env,
            inodes,
            next_ino: 2,
        }
    }

    fn inode(&self, ino: Ino) -> VfsResult<&Inode> {
        self.inodes.get(&ino).ok_or_else(|| Errno::ENOENT.into())
    }

    fn inode_mut(&mut self, ino: Ino) -> VfsResult<&mut Inode> {
        self.inodes
            .get_mut(&ino)
            .ok_or_else(|| Errno::ENOENT.into())
    }

    fn dir_entries(&self, ino: Ino) -> VfsResult<&BTreeMap<String, Ino>> {
        match &self.inode(ino)?.node {
            Node::Dir { entries } => Ok(entries),
            _ => Err(Errno::ENOTDIR.into()),
        }
    }

    fn dir_entries_mut(&mut self, ino: Ino) -> VfsResult<&mut BTreeMap<String, Ino>> {
        match &mut self.inode_mut(ino)?.node {
            Node::Dir { entries } => Ok(entries),
            _ => Err(Errno::ENOTDIR.into()),
        }
    }

    fn alloc(&mut self, node: Node, ftype: FileType, mode: u32) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(
            ino,
            Inode {
                node,
                attr: InodeAttr::new(ino, ftype, mode),
            },
        );
        ino
    }

    fn insert_entry(&mut self, dir: Ino, name: &str, ino: Ino) -> VfsResult<()> {
        let entries = self.dir_entries_mut(dir)?;
        if entries.contains_key(name) {
            return Err(Errno::EEXIST.into());
        }
        entries.insert(name.to_string(), ino);
        Ok(())
    }

    /// Drop an inode once its link count reaches zero.
    fn maybe_free(&mut self, ino: Ino) {
        if let Some(inode) = self.inodes.get(&ino) {
            if inode.attr.nlink == 0 {
                self.inodes.remove(&ino);
            }
        }
    }
}

impl Default for RamFs {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecificFs for RamFs {
    fn env(&self) -> &FsEnv {
        &self.env
    }

    fn root_ino(&self) -> Ino {
        ROOT
    }

    fn lookup(&mut self, dir: Ino, name: &str) -> VfsResult<Ino> {
        self.env.check_alive()?;
        self.dir_entries(dir)?
            .get(name)
            .copied()
            .ok_or_else(|| Errno::ENOENT.into())
    }

    fn getattr(&mut self, ino: Ino) -> VfsResult<InodeAttr> {
        self.env.check_alive()?;
        Ok(self.inode(ino)?.attr)
    }

    fn chmod(&mut self, ino: Ino, mode: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        self.inode_mut(ino)?.attr.mode = mode;
        Ok(())
    }

    fn chown(&mut self, ino: Ino, uid: u32, gid: u32) -> VfsResult<()> {
        self.env.check_writable()?;
        let attr = &mut self.inode_mut(ino)?.attr;
        attr.uid = uid;
        attr.gid = gid;
        Ok(())
    }

    fn utimes(&mut self, ino: Ino, mtime: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        self.inode_mut(ino)?.attr.mtime = mtime;
        Ok(())
    }

    fn create(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.env.check_writable()?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.alloc(Node::File { data: Vec::new() }, FileType::Regular, mode);
        self.insert_entry(dir, name, ino)?;
        Ok(ino)
    }

    fn mkdir(&mut self, dir: Ino, name: &str, mode: u32) -> VfsResult<Ino> {
        self.env.check_writable()?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(Errno::EEXIST.into());
        }
        let mut entries = BTreeMap::new();
        let ino = self.alloc(
            Node::Dir {
                entries: BTreeMap::new(),
            },
            FileType::Directory,
            mode,
        );
        entries.insert(".".to_string(), ino);
        entries.insert("..".to_string(), dir);
        match &mut self.inode_mut(ino)?.node {
            Node::Dir { entries: e } => *e = entries,
            _ => unreachable!("just allocated as dir"),
        }
        self.insert_entry(dir, name, ino)?;
        self.inode_mut(dir)?.attr.nlink += 1;
        Ok(ino)
    }

    fn unlink(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let ino = self.lookup(dir, name)?;
        if self.inode(ino)?.attr.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.dir_entries_mut(dir)?.remove(name);
        self.inode_mut(ino)?.attr.nlink -= 1;
        self.maybe_free(ino);
        Ok(())
    }

    fn rmdir(&mut self, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        let ino = self.lookup(dir, name)?;
        {
            let inode = self.inode(ino)?;
            match &inode.node {
                Node::Dir { entries } => {
                    if entries.keys().any(|k| k != "." && k != "..") {
                        return Err(Errno::ENOTEMPTY.into());
                    }
                }
                _ => return Err(Errno::ENOTDIR.into()),
            }
        }
        self.dir_entries_mut(dir)?.remove(name);
        self.inodes.remove(&ino);
        self.inode_mut(dir)?.attr.nlink -= 1;
        Ok(())
    }

    fn link(&mut self, ino: Ino, dir: Ino, name: &str) -> VfsResult<()> {
        self.env.check_writable()?;
        if self.inode(ino)?.attr.ftype == FileType::Directory {
            return Err(Errno::EISDIR.into());
        }
        self.insert_entry(dir, name, ino)?;
        self.inode_mut(ino)?.attr.nlink += 1;
        Ok(())
    }

    fn symlink(&mut self, dir: Ino, name: &str, target: &str) -> VfsResult<Ino> {
        self.env.check_writable()?;
        if self.dir_entries(dir)?.contains_key(name) {
            return Err(Errno::EEXIST.into());
        }
        let ino = self.alloc(
            Node::Symlink {
                target: target.to_string(),
            },
            FileType::Symlink,
            0o777,
        );
        self.inode_mut(ino)?.attr.size = target.len() as u64;
        self.insert_entry(dir, name, ino)?;
        Ok(ino)
    }

    fn readlink(&mut self, ino: Ino) -> VfsResult<String> {
        self.env.check_alive()?;
        match &self.inode(ino)?.node {
            Node::Symlink { target } => Ok(target.clone()),
            _ => Err(Errno::EINVAL.into()),
        }
    }

    fn rename(
        &mut self,
        src_dir: Ino,
        src_name: &str,
        dst_dir: Ino,
        dst_name: &str,
    ) -> VfsResult<()> {
        self.env.check_writable()?;
        let ino = self.lookup(src_dir, src_name)?;
        // Replace any existing destination (files only, to keep it simple).
        if let Ok(existing) = self.lookup(dst_dir, dst_name) {
            if existing != ino {
                if self.inode(existing)?.attr.ftype == FileType::Directory {
                    return Err(Errno::EISDIR.into());
                }
                self.dir_entries_mut(dst_dir)?.remove(dst_name);
                self.inode_mut(existing)?.attr.nlink -= 1;
                self.maybe_free(existing);
            }
        }
        self.dir_entries_mut(src_dir)?.remove(src_name);
        self.dir_entries_mut(dst_dir)?
            .insert(dst_name.to_string(), ino);
        // Fix ".." if a directory moved between parents.
        if src_dir != dst_dir {
            if let Node::Dir { entries } = &mut self.inode_mut(ino)?.node {
                entries.insert("..".to_string(), dst_dir);
                self.inode_mut(src_dir)?.attr.nlink -= 1;
                self.inode_mut(dst_dir)?.attr.nlink += 1;
            }
        }
        Ok(())
    }

    fn read(&mut self, ino: Ino, off: u64, len: usize) -> VfsResult<Vec<u8>> {
        self.env.check_alive()?;
        match &self.inode(ino)?.node {
            Node::File { data } => {
                let off = off as usize;
                if off >= data.len() {
                    return Ok(Vec::new());
                }
                let end = off.saturating_add(len).min(data.len());
                Ok(data[off..end].to_vec())
            }
            Node::Dir { .. } => Err(Errno::EISDIR.into()),
            Node::Symlink { .. } => Err(Errno::EINVAL.into()),
        }
    }

    fn write(&mut self, ino: Ino, off: u64, data: &[u8]) -> VfsResult<usize> {
        self.env.check_writable()?;
        let inode = self.inode_mut(ino)?;
        match &mut inode.node {
            Node::File { data: file } => {
                let end = off.checked_add(data.len() as u64).ok_or(Errno::EFBIG)?;
                let (off, end) = (off as usize, end as usize);
                if end > file.len() {
                    file.resize(end, 0);
                }
                file[off..end].copy_from_slice(data);
                inode.attr.size = file.len() as u64;
                Ok(data.len())
            }
            Node::Dir { .. } => Err(Errno::EISDIR.into()),
            Node::Symlink { .. } => Err(Errno::EINVAL.into()),
        }
    }

    fn truncate(&mut self, ino: Ino, size: u64) -> VfsResult<()> {
        self.env.check_writable()?;
        let inode = self.inode_mut(ino)?;
        match &mut inode.node {
            Node::File { data } => {
                data.resize(size as usize, 0);
                inode.attr.size = size;
                Ok(())
            }
            _ => Err(Errno::EISDIR.into()),
        }
    }

    fn readdir(&mut self, dir: Ino) -> VfsResult<Vec<DirEntry>> {
        self.env.check_alive()?;
        let entries = self.dir_entries(dir)?.clone();
        entries
            .into_iter()
            .map(|(name, ino)| {
                let ftype = self.inode(ino)?.attr.ftype;
                Ok(DirEntry { name, ino, ftype })
            })
            .collect()
    }

    fn fsync(&mut self, _ino: Ino) -> VfsResult<()> {
        self.env.check_alive()
    }

    fn sync(&mut self) -> VfsResult<()> {
        self.env.check_alive()
    }

    fn statfs(&mut self) -> VfsResult<StatFs> {
        self.env.check_alive()?;
        Ok(StatFs {
            block_size: iron_core::BLOCK_SIZE as u32,
            blocks: u64::MAX / 2,
            blocks_free: u64::MAX / 2,
            inodes: u64::MAX / 2,
            inodes_free: u64::MAX / 2 - self.inodes.len() as u64,
        })
    }

    fn unmount(&mut self) -> VfsResult<()> {
        self.env.check_alive()?;
        self.env.set_state(MountState::Unmounted);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::OpenFlags;
    use crate::vfs::Vfs;

    fn vfs() -> Vfs<RamFs> {
        Vfs::new(RamFs::new())
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut v = vfs();
        v.write_file("/hello.txt", b"hello world").unwrap();
        assert_eq!(v.read_file("/hello.txt").unwrap(), b"hello world");
        let attr = v.stat("/hello.txt").unwrap();
        assert_eq!(attr.size, 11);
        assert_eq!(attr.ftype, FileType::Regular);
    }

    #[test]
    fn nested_directories_and_traversal() {
        let mut v = vfs();
        v.mkdir("/a", 0o755).unwrap();
        v.mkdir("/a/b", 0o755).unwrap();
        v.mkdir("/a/b/c", 0o755).unwrap();
        v.write_file("/a/b/c/f.txt", b"deep").unwrap();
        assert_eq!(v.read_file("/a/b/c/f.txt").unwrap(), b"deep");
        // Relative traversal via chdir, "." and "..".
        v.chdir("/a/b").unwrap();
        assert_eq!(v.read_file("c/f.txt").unwrap(), b"deep");
        assert_eq!(v.read_file("./c/../c/f.txt").unwrap(), b"deep");
        assert_eq!(v.read_file("../b/c/f.txt").unwrap(), b"deep");
    }

    #[test]
    fn enoent_and_eexist() {
        let mut v = vfs();
        assert_eq!(v.stat("/missing").unwrap_err().errno(), Some(Errno::ENOENT));
        v.mkdir("/d", 0o755).unwrap();
        assert_eq!(
            v.mkdir("/d", 0o755).unwrap_err().errno(),
            Some(Errno::EEXIST)
        );
    }

    #[test]
    fn unlink_and_rmdir_semantics() {
        let mut v = vfs();
        v.mkdir("/d", 0o755).unwrap();
        v.write_file("/d/f", b"x").unwrap();
        assert_eq!(
            v.rmdir("/d").unwrap_err().errno(),
            Some(Errno::ENOTEMPTY),
            "non-empty dir must not be removable"
        );
        assert_eq!(v.unlink("/d").unwrap_err().errno(), Some(Errno::EISDIR));
        v.unlink("/d/f").unwrap();
        v.rmdir("/d").unwrap();
        assert_eq!(v.stat("/d").unwrap_err().errno(), Some(Errno::ENOENT));
    }

    #[test]
    fn hard_links_share_data() {
        let mut v = vfs();
        v.write_file("/orig", b"content").unwrap();
        v.link("/orig", "/alias").unwrap();
        assert_eq!(v.stat("/alias").unwrap().nlink, 2);
        assert_eq!(v.read_file("/alias").unwrap(), b"content");
        v.unlink("/orig").unwrap();
        assert_eq!(v.read_file("/alias").unwrap(), b"content");
        assert_eq!(v.stat("/alias").unwrap().nlink, 1);
    }

    #[test]
    fn symlinks_follow_and_nofollow() {
        let mut v = vfs();
        v.write_file("/target", b"real").unwrap();
        v.symlink("/target", "/lnk").unwrap();
        assert_eq!(v.read_file("/lnk").unwrap(), b"real");
        assert_eq!(v.stat("/lnk").unwrap().ftype, FileType::Regular);
        assert_eq!(v.lstat("/lnk").unwrap().ftype, FileType::Symlink);
        assert_eq!(v.readlink("/lnk").unwrap(), "/target");
    }

    #[test]
    fn symlink_loops_return_eloop() {
        let mut v = vfs();
        v.symlink("/b", "/a").unwrap();
        v.symlink("/a", "/b").unwrap();
        assert_eq!(v.stat("/a").unwrap_err().errno(), Some(Errno::ELOOP));
    }

    #[test]
    fn rename_replaces_destination() {
        let mut v = vfs();
        v.write_file("/one", b"1").unwrap();
        v.write_file("/two", b"2").unwrap();
        v.rename("/one", "/two").unwrap();
        assert_eq!(v.stat("/one").unwrap_err().errno(), Some(Errno::ENOENT));
        assert_eq!(v.read_file("/two").unwrap(), b"1");
    }

    #[test]
    fn rename_directory_across_parents_updates_dotdot() {
        let mut v = vfs();
        v.mkdir("/p1", 0o755).unwrap();
        v.mkdir("/p2", 0o755).unwrap();
        v.mkdir("/p1/child", 0o755).unwrap();
        v.write_file("/p1/child/f", b"x").unwrap();
        v.rename("/p1/child", "/p2/moved").unwrap();
        assert_eq!(v.read_file("/p2/moved/f").unwrap(), b"x");
        v.chdir("/p2/moved").unwrap();
        v.chdir("..").unwrap();
        assert_eq!(v.stat("moved").unwrap().ftype, FileType::Directory);
    }

    #[test]
    fn fd_offsets_and_append() {
        let mut v = vfs();
        let fd = v.creat("/f").unwrap();
        v.write(fd, b"abc").unwrap();
        v.write(fd, b"def").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.read_file("/f").unwrap(), b"abcdef");

        let fd = v
            .open(
                "/f",
                OpenFlags {
                    write: true,
                    append: true,
                    ..Default::default()
                },
            )
            .unwrap();
        v.write(fd, b"!").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.read_file("/f").unwrap(), b"abcdef!");
    }

    #[test]
    fn pread_pwrite_do_not_move_offset() {
        let mut v = vfs();
        v.write_file("/f", b"0123456789").unwrap();
        let fd = v.open("/f", OpenFlags::rdwr()).unwrap();
        assert_eq!(v.pread(fd, 4, 3).unwrap(), b"456");
        assert_eq!(v.read(fd, 2).unwrap(), b"01");
        v.pwrite(fd, 0, b"XX").unwrap();
        assert_eq!(v.read(fd, 2).unwrap(), b"23");
        v.close(fd).unwrap();
        assert_eq!(&v.read_file("/f").unwrap()[..2], b"XX");
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        let mut v = vfs();
        v.write_file("/f", b"hello world").unwrap();
        v.truncate("/f", 5).unwrap();
        assert_eq!(v.read_file("/f").unwrap(), b"hello");
        v.truncate("/f", 8).unwrap();
        assert_eq!(v.read_file("/f").unwrap(), b"hello\0\0\0");
    }

    #[test]
    fn readdir_lists_entries() {
        let mut v = vfs();
        v.mkdir("/d", 0o755).unwrap();
        v.write_file("/d/x", b"").unwrap();
        v.write_file("/d/y", b"").unwrap();
        let names: Vec<String> = v
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec![".", "..", "x", "y"]);
    }

    #[test]
    fn chroot_limits_namespace() {
        let mut v = vfs();
        v.mkdir("/jail", 0o755).unwrap();
        v.write_file("/jail/inside", b"in").unwrap();
        v.write_file("/outside", b"out").unwrap();
        v.chroot("/jail").unwrap();
        assert_eq!(v.read_file("/inside").unwrap(), b"in");
        assert_eq!(v.stat("/outside").unwrap_err().errno(), Some(Errno::ENOENT));
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let mut v = vfs();
        assert_eq!(v.read(Fd(42), 1).unwrap_err().errno(), Some(Errno::EBADF));
        let fd = v.creat("/f").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.close(fd).unwrap_err().errno(), Some(Errno::EBADF));
    }

    use crate::types::Fd;

    #[test]
    fn umount_then_everything_is_enodev() {
        let mut v = vfs();
        v.write_file("/f", b"x").unwrap();
        v.umount().unwrap();
        assert_eq!(v.stat("/f").unwrap_err().errno(), Some(Errno::ENODEV));
    }

    #[test]
    fn readonly_env_rejects_writes() {
        let mut v = vfs();
        v.write_file("/f", b"x").unwrap();
        v.fs().env().remount_readonly("test", "forced ro");
        assert_eq!(
            v.write_file("/g", b"y").unwrap_err().errno(),
            Some(Errno::EROFS)
        );
        // Reads still work.
        assert_eq!(v.read_file("/f").unwrap(), b"x");
    }

    #[test]
    fn chmod_chown_utimes() {
        let mut v = vfs();
        v.write_file("/f", b"x").unwrap();
        v.chmod("/f", 0o600).unwrap();
        v.chown("/f", 10, 20).unwrap();
        v.utimes("/f", 999).unwrap();
        let a = v.stat("/f").unwrap();
        assert_eq!((a.mode, a.uid, a.gid, a.mtime), (0o600, 10, 20, 999));
    }

    #[test]
    fn open_create_flag_creates() {
        let mut v = vfs();
        let fd = v
            .open(
                "/new",
                OpenFlags {
                    read: true,
                    write: true,
                    create: true,
                    ..Default::default()
                },
            )
            .unwrap();
        v.write(fd, b"made").unwrap();
        v.close(fd).unwrap();
        assert_eq!(v.read_file("/new").unwrap(), b"made");
    }
}
