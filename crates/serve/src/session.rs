//! Deterministic multi-client workload generation.
//!
//! Sessions are generated from a seed so every differential run — and
//! every rerun of a failing case — sees the same traffic. The namespace
//! is deliberately small and shared: a handful of directories and shared
//! files that many sessions hit (conflicts exercise the lock manager),
//! plus per-session private files (non-conflicting traffic exercises
//! actual concurrency).

use crate::engine::{replay_serial, CommitRecord, Session};
use crate::proto::{Reply, Request};
use iron_core::hash::splitmix64;
use iron_vfs::{SpecificFs, Vfs};

/// Shape of a generated workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Number of client sessions.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Master seed; every session derives its own stream from it.
    pub seed: u64,
    /// Shared directories `/d0..`.
    pub dirs: usize,
    /// Shared files `/s0..`.
    pub shared_files: usize,
    /// Maximum bytes per write.
    pub max_io: usize,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sessions: 8,
            requests_per_session: 32,
            seed: 0x5E7E_1905_2005_0001,
            dirs: 4,
            shared_files: 4,
            max_io: 3000,
        }
    }
}

impl WorkloadSpec {
    fn dir(&self, r: u64) -> String {
        format!("/d{}", r as usize % self.dirs.max(1))
    }

    fn shared(&self, r: u64) -> String {
        format!("/s{}", r as usize % self.shared_files.max(1))
    }

    fn private(&self, sid: usize, r: u64) -> String {
        format!("{}/p{sid}_{}", self.dir(r), r % 3)
    }
}

/// The serial setup phase: directories and shared files every generated
/// session assumes exist (shared files carry initial content so reads
/// race writes from the first request on).
pub fn setup_requests(spec: &WorkloadSpec) -> Vec<Request> {
    let mut reqs = Vec::new();
    for d in 0..spec.dirs {
        reqs.push(Request::Mkdir {
            path: format!("/d{d}"),
            mode: 0o755,
        });
    }
    for s in 0..spec.shared_files {
        let path = format!("/s{s}");
        reqs.push(Request::Create {
            path: path.clone(),
            mode: 0o644,
        });
        reqs.push(Request::Write {
            path,
            off: 0,
            len: (spec.max_io / 2).max(1),
            seed: spec.seed ^ (s as u64).wrapping_mul(0xA5A5),
        });
    }
    reqs.push(Request::Sync);
    reqs
}

/// Apply the setup phase to a freshly mounted file system; panics if any
/// setup request fails (the fixture would be broken, not the engine).
pub fn prepare<F: SpecificFs>(vfs: &mut Vfs<F>, spec: &WorkloadSpec) {
    let setup = Session {
        id: 0,
        requests: setup_requests(spec),
    };
    let log: Vec<CommitRecord> = (0..setup.requests.len())
        .map(|index| CommitRecord { session: 0, index })
        .collect();
    let sessions = [setup];
    let responses = replay_serial(vfs, &sessions, &log);
    for (i, r) in responses[0].iter().enumerate() {
        assert!(
            matches!(
                r,
                Ok(Reply::Handle { .. } | Reply::Written { .. } | Reply::Unit)
            ),
            "setup request {i} ({:?}) failed: {r:?}",
            sessions[0].requests[i]
        );
    }
}

/// Generate `spec.sessions` deterministic sessions.
///
/// The mix is chosen to keep conflicts common without making every
/// request a conflict: shared-file writes and renames collide across
/// sessions, private-file traffic runs parallel, and occasional
/// `Sync`/`Readdir`/`Mkdir`/`Rmdir` sprinkle in whole-fs and
/// directory-level locking.
pub fn generate(spec: &WorkloadSpec) -> Vec<Session> {
    (0..spec.sessions)
        .map(|sid| {
            let mut rng =
                spec.seed ^ (sid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x00C1_1E57;
            let requests = (0..spec.requests_per_session)
                .map(|_| {
                    let roll = splitmix64(&mut rng) % 100;
                    let r = splitmix64(&mut rng);
                    let io = (splitmix64(&mut rng) as usize % spec.max_io.max(1)).max(1);
                    let off = splitmix64(&mut rng) % (2 * spec.max_io as u64 + 1);
                    match roll {
                        0..=21 => Request::Write {
                            path: spec.shared(r),
                            off: off / 4, // overlap-heavy offsets
                            len: io,
                            seed: splitmix64(&mut rng),
                        },
                        22..=35 => Request::Write {
                            path: spec.private(sid, r),
                            off,
                            len: io,
                            seed: splitmix64(&mut rng),
                        },
                        36..=50 => Request::Read {
                            path: spec.shared(r),
                            off: off / 4,
                            len: io,
                        },
                        51..=57 => Request::Create {
                            path: spec.private(sid, r),
                            mode: 0o644,
                        },
                        58..=63 => Request::Unlink {
                            path: spec.private(sid, r),
                        },
                        64..=70 => Request::Stat {
                            path: spec.shared(r),
                        },
                        71..=76 => Request::Readdir { path: spec.dir(r) },
                        77..=82 => Request::Rename {
                            from: spec.shared(r),
                            to: spec.shared(r.wrapping_add(1)),
                        },
                        83..=87 => Request::Mkdir {
                            path: format!("{}/sub{sid}", spec.dir(r)),
                            mode: 0o755,
                        },
                        88..=90 => Request::Rmdir {
                            path: format!("{}/sub{sid}", spec.dir(r)),
                        },
                        91..=95 => Request::Fsync {
                            path: spec.shared(r),
                        },
                        96..=97 => Request::Open {
                            path: spec.private(sid, r),
                        },
                        _ => Request::Sync,
                    }
                })
                .collect();
            Session { id: sid, requests }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(generate(&spec), generate(&spec));
        let other = WorkloadSpec { seed: 1, ..spec };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn sessions_have_contract_ids_and_requested_shape() {
        let spec = WorkloadSpec {
            sessions: 5,
            requests_per_session: 11,
            ..Default::default()
        };
        let ss = generate(&spec);
        assert_eq!(ss.len(), 5);
        for (i, s) in ss.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.requests.len(), 11);
        }
    }

    #[test]
    fn workload_mixes_conflicting_and_private_traffic() {
        let spec = WorkloadSpec {
            sessions: 8,
            requests_per_session: 64,
            ..Default::default()
        };
        let ss = generate(&spec);
        let all: Vec<&Request> = ss.iter().flat_map(|s| s.requests.iter()).collect();
        let shared_writes = all
            .iter()
            .filter(|r| matches!(r, Request::Write { path, .. } if path.starts_with("/s")))
            .count();
        let private_writes = all
            .iter()
            .filter(|r| matches!(r, Request::Write { path, .. } if path.starts_with("/d")))
            .count();
        let renames = all
            .iter()
            .filter(|r| matches!(r, Request::Rename { .. }))
            .count();
        assert!(shared_writes > 0 && private_writes > 0 && renames > 0);
    }

    #[test]
    fn prepare_seeds_the_namespace() {
        use iron_vfs::ramfs::RamFs;
        let spec = WorkloadSpec::default();
        let mut v = Vfs::new(RamFs::new());
        prepare(&mut v, &spec);
        for d in 0..spec.dirs {
            assert!(v.stat(&format!("/d{d}")).is_ok());
        }
        for s in 0..spec.shared_files {
            let attr = v.stat(&format!("/s{s}")).unwrap();
            assert!(attr.size > 0, "shared file should carry initial content");
        }
    }
}
