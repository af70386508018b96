//! # iron-vfs
//!
//! The *generic* half of the file-system split in Figure 1 of the paper:
//! "This layer is often split into two pieces: a high-level component common
//! to all file systems, and a specific component that maps generic
//! operations onto the data structures of the particular file system."
//!
//! * [`SpecificFs`] is the interface each specific file system (ext3,
//!   ReiserFS, JFS, NTFS, ixt3) implements — inode-level operations.
//! * [`Vfs`] wraps a `SpecificFs` and provides the POSIX-style syscall
//!   surface the fingerprinting workloads exercise (every singlet in
//!   Table 3): path traversal, file descriptors, cwd/chroot state.
//! * [`FsEnv`] is the simulated kernel environment: the kernel log plus the
//!   mount state machine (read-write → read-only → crashed). ReiserFS's
//!   `panic()` and ext3's journal abort are transitions of this machine,
//!   observable by the fingerprinting framework.
//! * [`Vfs::tree`] walks the whole namespace into one [`FsTree`] — the
//!   one recursive walk every namespace comparison uses.
//! * [`flat`] is the flat-inode file model the JFS and NTFS models share:
//!   one implementation of directories, file bodies and every namespace
//!   operation over the storage primitives of a [`flat::FlatStore`].
//!
//! The paper notes that *failure policy diffusion* between generic and
//! specific code causes illogical inconsistencies (§5.6); keeping the split
//! explicit lets our models place each behavior where the real system had
//! it (e.g. JFS's single-retry lives in "generic" helper code in the
//! `iron-jfs` crate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod flat;
pub mod fs;
pub mod paths;
pub mod ramfs;
pub mod tree;
pub mod types;
pub mod vfs;

pub use env::{FsEnv, MountState};
pub use fs::SpecificFs;
pub use tree::{FsTree, TreeNode};
pub use types::{DirEntry, Fd, FileType, InodeAttr, OpenFlags, StatFs, VfsError, VfsResult};
pub use vfs::Vfs;
