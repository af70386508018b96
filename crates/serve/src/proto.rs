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
//! Symlinks are deliberately absent: a request's footprint is the
//! lexical paths it names ([`lock_keys`]), and a symlink would let it
//! touch a path its text does not name.

use std::collections::BTreeMap;

use iron_core::hash::splitmix64;
use iron_vfs::paths::{normalize, prefixes};
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

/// Shared (reader) or exclusive (writer) intent on one path key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockMode {
    /// Concurrent holders allowed.
    Shared,
    /// Sole holder.
    Exclusive,
}

/// A request's path footprint as lock keys: normalized, sorted ascending,
/// deduplicated with exclusive winning over shared.
///
/// * The whole-fs key `""` is shared (`Sync` takes it exclusive — it
///   observes and flushes everything).
/// * Every proper ancestor directory of each named path is shared
///   ([`iron_vfs::paths::prefixes`]): resolution reads those directories.
/// * The target itself is shared for read-only requests (`Open`, `Stat`,
///   `Read`, `Readdir`) and exclusive for mutating ones (`Create`,
///   `Mkdir`, `Unlink`, `Rmdir`, `Write`, `Fsync`, both ends of `Rename`).
///
/// Two requests' footprints conflict iff they name overlapping paths and
/// at least one mutates. The engine takes no path locks — every request is
/// one FS critical section — so this is a measure of a request, not a
/// step of executing it.
pub fn lock_keys(req: &Request) -> Vec<(String, LockMode)> {
    let mut set: BTreeMap<String, LockMode> = BTreeMap::new();
    let need = |set: &mut BTreeMap<String, LockMode>, key: String, mode: LockMode| {
        let slot = set.entry(key).or_insert(mode);
        if mode == LockMode::Exclusive {
            *slot = LockMode::Exclusive;
        }
    };
    let path_locks = |set: &mut BTreeMap<String, LockMode>, path: &str, mode: LockMode| {
        for p in prefixes(path) {
            need(set, p, LockMode::Shared);
        }
        need(set, normalize(path), mode);
    };

    // The whole-fs key: "" sorts before every "/"-prefixed path, so it is
    // always the first key.
    let fs_mode = if matches!(req, Request::Sync) {
        LockMode::Exclusive
    } else {
        LockMode::Shared
    };
    need(&mut set, String::new(), fs_mode);

    match req {
        Request::Open { path }
        | Request::Stat { path }
        | Request::Read { path, .. }
        | Request::Readdir { path } => {
            path_locks(&mut set, path, LockMode::Shared);
        }
        Request::Create { path, .. }
        | Request::Mkdir { path, .. }
        | Request::Unlink { path }
        | Request::Rmdir { path }
        | Request::Write { path, .. }
        | Request::Fsync { path } => {
            path_locks(&mut set, path, LockMode::Exclusive);
        }
        Request::Rename { from, to } => {
            path_locks(&mut set, from, LockMode::Exclusive);
            path_locks(&mut set, to, LockMode::Exclusive);
        }
        Request::Sync => {}
    }
    set.into_iter().collect()
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
    fn lock_keys_are_sorted_and_deduped() {
        let req = Request::Rename {
            from: "/a/b/f".into(),
            to: "/a/c/f".into(),
        };
        let keys = lock_keys(&req);
        assert!(keys.windows(2).all(|w| w[0].0 < w[1].0), "{keys:?}");
        // Shared prefix "/a" appears once; both ends exclusive.
        assert_eq!(keys.iter().filter(|(k, _)| k == "/a").count(), 1);
        assert_eq!(
            keys.iter().find(|(k, _)| k == "/a/b/f").unwrap().1,
            LockMode::Exclusive
        );
        assert_eq!(
            keys.iter().find(|(k, _)| k == "/a/c/f").unwrap().1,
            LockMode::Exclusive
        );
    }

    #[test]
    fn exclusive_wins_dedup_when_target_is_anothers_prefix() {
        // Rename of "/a" while "/a" is also a prefix of "/a/x": renaming
        // "/a" to "/b" with "/a/x" in the picture must keep "/a" exclusive.
        let req = Request::Rename {
            from: "/a".into(),
            to: "/a/x".into(), // degenerate (EINVAL at the VFS)
        };
        let keys = lock_keys(&req);
        assert_eq!(
            keys.iter().find(|(k, _)| k == "/a").unwrap().1,
            LockMode::Exclusive
        );
    }

    #[test]
    fn whole_fs_key_modes() {
        assert_eq!(
            lock_keys(&Request::Sync),
            vec![(String::new(), LockMode::Exclusive)]
        );
        let read = lock_keys(&Request::Read {
            path: "/f".into(),
            off: 0,
            len: 1,
        });
        assert_eq!(read[0], (String::new(), LockMode::Shared));
        assert_eq!(read[1], ("/".into(), LockMode::Shared));
        assert_eq!(read[2], ("/f".into(), LockMode::Shared));
    }

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
