//! The in-tree request/response protocol.
//!
//! Modeled on the service surface of a master/chunkserver file service
//! (upload / get / append / delete RPCs) flattened onto one VFS: every
//! request names its targets by **absolute path** and carries no session
//! state — NFSv3-style statelessness — so any request can be replayed in
//! isolation and a commit-ordered log of requests is a complete execution
//! trace. Write payloads travel as a `(seed, len)` pair and are expanded
//! by the serving worker (the marshalling cost stays on the client-facing
//! thread, outside the file-system critical section); read replies carry a
//! digest rather than the data so traces stay small while remaining
//! sensitive to every byte.
//!
//! Symlinks are deliberately absent: the lock manager keys on lexical
//! paths ([`iron_vfs::paths`]), and a symlink would let a request touch
//! paths outside its lexical lock set.

use iron_core::hash::splitmix64;
use iron_vfs::{InodeAttr, VfsError};

/// One client request. Paths are absolute; see the module docs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Resolve a path and return its inode (an NFS-style lookup handle).
    Open {
        /// Absolute path to resolve.
        path: String,
    },
    /// Create a regular file.
    Create {
        /// Absolute path of the file to create.
        path: String,
        /// Permission bits.
        mode: u32,
    },
    /// Create a directory.
    Mkdir {
        /// Absolute path of the directory to create.
        path: String,
        /// Permission bits.
        mode: u32,
    },
    /// Remove a file link.
    Unlink {
        /// Absolute path of the link to remove.
        path: String,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Absolute path of the directory to remove.
        path: String,
    },
    /// Rename (replacing any existing destination).
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Positional read.
    Read {
        /// Absolute path of the file.
        path: String,
        /// Byte offset.
        off: u64,
        /// Bytes to read.
        len: usize,
    },
    /// Positional write of `len` bytes expanded from `seed` (see
    /// [`payload`]).
    Write {
        /// Absolute path of the file.
        path: String,
        /// Byte offset.
        off: u64,
        /// Payload length in bytes.
        len: usize,
        /// Payload generator seed.
        seed: u64,
    },
    /// List a directory.
    Readdir {
        /// Absolute path of the directory.
        path: String,
    },
    /// `stat` a path (following symlink-free resolution).
    Stat {
        /// Absolute path.
        path: String,
    },
    /// Flush one file to stable storage.
    Fsync {
        /// Absolute path of the file.
        path: String,
    },
    /// Flush the whole file system.
    Sync,
}

impl Request {
    /// Short operation name, for labels and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Open { .. } => "open",
            Request::Create { .. } => "create",
            Request::Mkdir { .. } => "mkdir",
            Request::Unlink { .. } => "unlink",
            Request::Rmdir { .. } => "rmdir",
            Request::Rename { .. } => "rename",
            Request::Read { .. } => "read",
            Request::Write { .. } => "write",
            Request::Readdir { .. } => "readdir",
            Request::Stat { .. } => "stat",
            Request::Fsync { .. } => "fsync",
            Request::Sync => "sync",
        }
    }
}

/// The success half of a reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Reply {
    /// A resolved handle (`Open`, `Create`, `Mkdir`).
    Handle {
        /// Inode number of the target.
        ino: u64,
    },
    /// Read data, summarized (`Read`).
    Data {
        /// Bytes actually read.
        len: usize,
        /// Digest of the data (see [`digest`]).
        digest: u64,
    },
    /// Bytes accepted (`Write`).
    Written {
        /// Bytes written.
        n: usize,
    },
    /// Directory listing, entry names in the file system's order
    /// (`Readdir`).
    Entries(Vec<String>),
    /// Full attributes (`Stat`).
    Attr(InodeAttr),
    /// Success with no payload (`Unlink`, `Rmdir`, `Rename`, `Fsync`,
    /// `Sync`).
    Unit,
}

/// What a request returns: a [`Reply`] or the errno/panic the VFS raised.
pub type Response = Result<Reply, VfsError>;

/// Expand a `(seed, len)` write descriptor into its payload bytes.
///
/// A splitmix64 stream: cheap, deterministic, and with enough entropy that
/// torn or misplaced writes change the [`digest`] of any read that
/// observes them.
pub fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut out = vec![0u8; len];
    let mut words = out.chunks_exact_mut(8);
    for word in &mut words {
        word.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&splitmix64(&mut state).to_le_bytes()[..tail.len()]);
    out
}

/// The digest read replies carry: [`iron_core::hash::digest64`], a word at
/// a time. It stands in for putting the data on the wire, so it costs what
/// a copy costs, not a multiply per byte.
pub use iron_core::hash::digest64 as digest;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_deterministic_and_length_exact() {
        for len in [0usize, 1, 7, 8, 9, 4096] {
            let a = payload(42, len);
            let b = payload(42, len);
            assert_eq!(a.len(), len);
            assert_eq!(a, b);
        }
        assert_ne!(payload(1, 64), payload(2, 64), "seeds must differ");
    }

    #[test]
    fn payload_bytes_are_those_of_the_per_word_expansion() {
        // Literals computed with the loop this one replaced
        // (`extend_from_slice(&bytes[..take])` per splitmix64 word).
        assert_eq!(
            payload(42, 24),
            [
                3, 241, 102, 178, 51, 227, 239, 40, 82, 159, 15, 19, 87, 103, 82, 71, 148, 227, 74,
                14, 255, 225, 28, 88
            ]
        );
        let fnv = iron_core::hash::fnv1a;
        assert_eq!(fnv(&payload(7, 4099)), 0xDB77_0954_D897_72A9);
        for (len, pinned) in [
            (0usize, 0xCBF2_9CE4_8422_2325u64),
            (1, 0xAF63_BE4C_8601_B992),
            (7, 0x5D05_424A_0EE2_17BC),
            (8, 0xF207_37D7_4A2E_107C),
            (9, 0x7054_10D3_0C45_7E2A),
            (4095, 0xD1CB_876E_582E_811E),
            (4096, 0xAB58_F47F_D706_9B3C),
            (4097, 0x2EC2_EB3A_603A_2982),
        ] {
            assert_eq!(fnv(&payload(42, len)), pinned, "len {len}");
        }
    }

    #[test]
    fn digest_of_a_payload_block_is_pinned() {
        assert_eq!(digest(&payload(42, 4096)), 0x5C32_2BEB_BCB4_0352);
    }

    #[test]
    fn digest_is_byte_sensitive() {
        let mut data = payload(7, 256);
        let d0 = digest(&data);
        data[100] ^= 1;
        assert_ne!(d0, digest(&data));
    }

    #[test]
    fn request_names_cover_every_variant() {
        assert_eq!(Request::Sync.name(), "sync");
        assert_eq!(Request::Open { path: "/x".into() }.name(), "open");
    }
}
