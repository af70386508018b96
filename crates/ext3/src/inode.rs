//! On-disk inodes.
//!
//! 128-byte records packed into per-group inode tables. Twelve direct block
//! pointers plus single and double indirect pointers (the paper's workloads
//! deliberately create files large enough to exercise the indirect tree —
//! §4.1). One extra pointer slot holds the ixt3 per-file parity block.

use iron_core::Block;
use iron_vfs::{FileType, InodeAttr};

use crate::layout::INODE_SIZE;

/// Number of direct block pointers.
pub const NDIRECT: usize = 12;
/// Pointers per indirect block (u32 entries).
pub const PTRS_PER_BLOCK: usize = iron_core::BLOCK_SIZE / 4;

/// Mode bits for file types (as in real ext2).
pub const S_IFDIR: u32 = 0x4000;
/// Regular-file mode bit.
pub const S_IFREG: u32 = 0x8000;
/// Symlink mode bit.
pub const S_IFLNK: u32 = 0xA000;
const S_IFMT: u32 = 0xF000;

/// A decoded on-disk inode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskInode {
    /// Type and permission bits.
    pub mode: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Hard-link count.
    pub links_count: u32,
    /// Size in bytes.
    pub size: u64,
    /// Modification time.
    pub mtime: u64,
    /// Allocated block count (data + indirect).
    pub blocks_count: u32,
    /// Direct block pointers (0 = hole/unallocated).
    pub direct: [u32; NDIRECT],
    /// Single-indirect pointer block.
    pub indirect: u32,
    /// Double-indirect pointer block.
    pub double_indirect: u32,
    /// ixt3: this file's parity block (0 = none).
    pub parity: u32,
}

impl DiskInode {
    /// An empty (free) inode slot.
    pub fn empty() -> Self {
        DiskInode {
            mode: 0,
            uid: 0,
            gid: 0,
            links_count: 0,
            size: 0,
            mtime: 0,
            blocks_count: 0,
            direct: [0; NDIRECT],
            indirect: 0,
            double_indirect: 0,
            parity: 0,
        }
    }

    /// A fresh inode of the given type.
    pub fn new(ftype: FileType, perm: u32) -> Self {
        let type_bits = match ftype {
            FileType::Regular => S_IFREG,
            FileType::Directory => S_IFDIR,
            FileType::Symlink => S_IFLNK,
        };
        DiskInode {
            mode: type_bits | (perm & 0o7777),
            links_count: if ftype == FileType::Directory { 2 } else { 1 },
            ..DiskInode::empty()
        }
    }

    /// True if the slot is unused.
    pub fn is_free(&self) -> bool {
        self.links_count == 0 && self.mode == 0
    }

    /// [`Self::is_free`] of the inode at `offset` in `block`, read from
    /// its `mode` and `links_count` alone.
    pub fn is_free_at(block: &Block, offset: usize) -> bool {
        block.get_u32(offset + 12) == 0 && block.get_u32(offset) == 0
    }

    /// The file type encoded in `mode`, if the type bits are valid.
    pub fn file_type(&self) -> Option<FileType> {
        match self.mode & S_IFMT {
            S_IFDIR => Some(FileType::Directory),
            S_IFREG => Some(FileType::Regular),
            S_IFLNK => Some(FileType::Symlink),
            _ => None,
        }
    }

    /// Largest file size addressable with direct + single + double
    /// indirect pointers.
    pub fn max_file_size() -> u64 {
        let bs = iron_core::BLOCK_SIZE as u64;
        let ppb = PTRS_PER_BLOCK as u64;
        (NDIRECT as u64 + ppb + ppb * ppb) * bs
    }

    /// ext3's open-time sanity check (§5.1: "when the file-size field of an
    /// inode contains an overly-large value, open detects this and reports
    /// an error"). Also rejects invalid type bits.
    pub fn sanity_check(&self) -> bool {
        self.file_type().is_some() && self.size <= Self::max_file_size()
    }

    /// Attributes for the VFS.
    pub fn attr(&self, ino: u64) -> InodeAttr {
        InodeAttr {
            ino,
            ftype: self.file_type().unwrap_or(FileType::Regular),
            size: self.size,
            nlink: self.links_count,
            mode: self.mode & 0o7777,
            uid: self.uid,
            gid: self.gid,
            mtime: self.mtime,
        }
    }

    /// Serialize into `block` at byte `offset`.
    pub fn encode_into(&self, block: &mut Block, offset: usize) {
        debug_assert!(offset + INODE_SIZE <= iron_core::BLOCK_SIZE);
        block.put_u32(offset, self.mode);
        block.put_u32(offset + 4, self.uid);
        block.put_u32(offset + 8, self.gid);
        block.put_u32(offset + 12, self.links_count);
        block.put_u64(offset + 16, self.size);
        block.put_u64(offset + 24, self.mtime);
        block.put_u32(offset + 32, self.blocks_count);
        for (i, ptr) in self.direct.iter().enumerate() {
            block.put_u32(offset + 40 + i * 4, *ptr);
        }
        block.put_u32(offset + 88, self.indirect);
        block.put_u32(offset + 92, self.double_indirect);
        block.put_u32(offset + 96, self.parity);
    }

    /// Deserialize from `block` at byte `offset`.
    pub fn decode_from(block: &Block, offset: usize) -> DiskInode {
        let mut direct = [0u32; NDIRECT];
        for (i, ptr) in direct.iter_mut().enumerate() {
            *ptr = block.get_u32(offset + 40 + i * 4);
        }
        DiskInode {
            mode: block.get_u32(offset),
            uid: block.get_u32(offset + 4),
            gid: block.get_u32(offset + 8),
            links_count: block.get_u32(offset + 12),
            size: block.get_u64(offset + 16),
            mtime: block.get_u64(offset + 24),
            blocks_count: block.get_u32(offset + 32),
            direct,
            indirect: block.get_u32(offset + 88),
            double_indirect: block.get_u32(offset + 92),
            parity: block.get_u32(offset + 96),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_at_various_offsets() {
        let mut ino = DiskInode::new(FileType::Regular, 0o644);
        ino.size = 123_456;
        ino.direct[0] = 900;
        ino.direct[11] = 911;
        ino.indirect = 1000;
        ino.double_indirect = 1001;
        ino.parity = 77;
        ino.blocks_count = 31;
        for slot in [0usize, 1, 31] {
            let mut b = Block::zeroed();
            ino.encode_into(&mut b, slot * INODE_SIZE);
            assert_eq!(DiskInode::decode_from(&b, slot * INODE_SIZE), ino);
        }
    }

    #[test]
    fn is_free_at_agrees_with_the_decoded_inode() {
        let mut cases = vec![DiskInode::empty(), DiskInode::new(FileType::Regular, 0)];
        let mut linked = DiskInode::empty();
        linked.links_count = 1;
        let mut sized = DiskInode::empty();
        sized.size = 4096;
        cases.extend([linked, sized]);
        for ino in cases {
            let mut b = Block::filled(0xFF);
            ino.encode_into(&mut b, INODE_SIZE);
            assert_eq!(
                DiskInode::is_free_at(&b, INODE_SIZE),
                ino.is_free(),
                "{ino:?}"
            );
        }
    }

    #[test]
    fn file_types_encode_correctly() {
        assert_eq!(
            DiskInode::new(FileType::Directory, 0o755).file_type(),
            Some(FileType::Directory)
        );
        assert_eq!(
            DiskInode::new(FileType::Symlink, 0o777).file_type(),
            Some(FileType::Symlink)
        );
        let mut bad = DiskInode::new(FileType::Regular, 0o644);
        bad.mode = 0x1234; // invalid type bits
        assert_eq!(bad.file_type(), None);
    }

    #[test]
    fn sanity_check_rejects_huge_size() {
        let mut ino = DiskInode::new(FileType::Regular, 0o644);
        assert!(ino.sanity_check());
        ino.size = DiskInode::max_file_size() + 1;
        assert!(!ino.sanity_check(), "overly-large size must be detected");
    }

    #[test]
    fn empty_slot_is_free() {
        assert!(DiskInode::empty().is_free());
        assert!(!DiskInode::new(FileType::Regular, 0o644).is_free());
    }

    #[test]
    fn max_file_size_covers_double_indirect() {
        // 12 direct + 1024 single + 1024² double, in 4 KiB blocks.
        assert_eq!(DiskInode::max_file_size(), (12 + 1024 + 1024 * 1024) * 4096);
    }

    #[test]
    fn directory_starts_with_two_links() {
        assert_eq!(DiskInode::new(FileType::Directory, 0o755).links_count, 2);
        assert_eq!(DiskInode::new(FileType::Regular, 0o644).links_count, 1);
    }
}
