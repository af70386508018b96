//! The request engine: drains many client sessions concurrently against
//! one mounted file system, and replays the same trace serially.
//!
//! ## Execution model
//!
//! Sessions are independent clients; each session's requests execute in
//! program order, different sessions interleave. Workers claim sessions
//! one at a time from the shared pool ([`iron_core::exec::WorkerPool::shard_fine`]).
//! For each request a worker:
//!
//! 1. expands the write payload (marshalling, outside the FS mutex),
//! 2. runs the whole request — resolution, the operation, and the append
//!    of `(session, index)` to the global commit log — in one critical
//!    section of the engine's single FS mutex (the models beneath are
//!    `&mut self`: the paper's file systems are single-threaded kernels,
//!    so the FS mutex *is* the storage stack),
//! 3. digests a read's bytes after releasing the mutex.
//!
//! That critical section is the request's **commit point**. The commit log
//! is therefore a total order consistent with every session's program
//! order.
//!
//! ## Why concurrent ≡ serial replay
//!
//! Every request runs whole at its commit point, so a concurrent run is,
//! by construction, the serial execution of its commit log — which is
//! precisely what [`replay_serial`] re-executes. The differential suites
//! assert the equivalence (identical per-request responses, bit-identical
//! disk image) at every thread count; that property is the serving
//! layer's correctness oracle, in the same way cached==bare and
//! parallel==sequential were for the cache and campaign engines.

use std::sync::Mutex;

use iron_core::exec::WorkerPool;
use iron_core::Errno;
use iron_vfs::{FileType, SpecificFs, Vfs, VfsResult};

use crate::proto::{digest, payload, Reply, Request, Response};

/// One simulated client: an id and its ordered request list.
///
/// Engine contract: `sessions[i].id == i` (responses are indexed by
/// session id).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Session {
    /// Session id — must equal the session's index in the slice handed to
    /// [`serve`].
    pub id: usize,
    /// Requests, executed in order.
    pub requests: Vec<Request>,
}

/// One entry of the commit log: which request committed at this position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CommitRecord {
    /// Session id.
    pub session: usize,
    /// Request index within the session.
    pub index: usize,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Worker threads; `0` means one per hardware thread.
    pub threads: usize,
    /// Read by nothing: the engine takes no path locks. The field stays
    /// while the whole-stack benchmark builds `ServeOptions` by field
    /// (ROADMAP 3(h)).
    pub lock_shards: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 1,
            lock_shards: 64,
        }
    }
}

impl ServeOptions {
    /// Builder-style thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// What a serve run produced: every response, and the commit order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeReport {
    /// `responses[session][index]` is the reply to that request.
    pub responses: Vec<Vec<Response>>,
    /// Global commit order; exactly one record per request, consistent
    /// with each session's program order.
    pub commit_log: Vec<CommitRecord>,
}

impl ServeReport {
    /// Total requests served.
    pub fn total_ops(&self) -> usize {
        self.commit_log.len()
    }
}

/// The engine's single FS critical section: the mounted file system plus
/// the commit log, advanced together.
struct Core<'a, F: SpecificFs> {
    vfs: &'a mut Vfs<F>,
    log: Vec<CommitRecord>,
}

impl<F: SpecificFs> Core<'_, F> {
    fn commit(&mut self, session: usize, index: usize) {
        self.log.push(CommitRecord { session, index });
    }
}

/// Resolve `path` to a non-directory inode.
fn resolve_file<F: SpecificFs>(vfs: &mut Vfs<F>, path: &str) -> VfsResult<u64> {
    let ino = vfs.resolve(path)?;
    if vfs.fs_mut().getattr(ino)?.ftype == FileType::Directory {
        return Err(Errno::EISDIR.into());
    }
    Ok(ino)
}

/// Execute one request against the shared core in one critical section:
/// resolution, the operation and the commit-log append. Only the read
/// digest runs after the core is released.
fn run_request<F: SpecificFs>(
    core: &Mutex<Core<'_, F>>,
    session: usize,
    index: usize,
    req: &Request,
    data: Option<&[u8]>,
) -> Response {
    let mut c = core
        .lock()
        .expect("a worker panicked inside the FS critical section");
    let vfs = &mut *c.vfs;
    let r = match req {
        Request::Open { path } => vfs.resolve(path).map(|ino| Reply::Handle { ino }),
        Request::Stat { path } => vfs.stat(path).map(Reply::Attr),
        // "." and ".." are filtered so replies are identical across file
        // systems that do and don't synthesize dot entries.
        Request::Readdir { path } => vfs.readdir(path).map(|es| {
            Reply::Entries(
                es.into_iter()
                    .map(|e| e.name)
                    .filter(|n| n != "." && n != "..")
                    .collect(),
            )
        }),
        Request::Sync => vfs.sync().map(|()| Reply::Unit),
        Request::Create { path, mode } => vfs
            .resolve_parent(path)
            .and_then(|(dir, name)| vfs.fs_mut().create(dir, &name, *mode))
            .map(|ino| Reply::Handle { ino }),
        Request::Mkdir { path, mode } => vfs
            .resolve_parent(path)
            .and_then(|(dir, name)| vfs.fs_mut().mkdir(dir, &name, *mode))
            .map(|ino| Reply::Handle { ino }),
        Request::Unlink { path } => vfs
            .resolve_parent(path)
            .and_then(|(dir, name)| vfs.fs_mut().unlink(dir, &name))
            .map(|()| Reply::Unit),
        Request::Rmdir { path } => vfs
            .resolve_parent(path)
            .and_then(|(dir, name)| vfs.fs_mut().rmdir(dir, &name))
            .map(|()| Reply::Unit),
        Request::Rename { from, to } => vfs
            .resolve_nofollow(from)
            .and_then(|_| vfs.rename(from, to))
            .map(|()| Reply::Unit),
        Request::Read { path, off, len } => {
            let got = resolve_file(vfs, path).and_then(|ino| vfs.fs_mut().read(ino, *off, *len));
            c.commit(session, index);
            drop(c);
            // Digest outside the critical section: unmarshalling is the
            // client-facing thread's job.
            return got.map(|bytes| Reply::Data {
                len: bytes.len(),
                digest: digest(&bytes),
            });
        }
        Request::Write { path, off, .. } => {
            let bytes = data.expect("write payload expanded by caller");
            resolve_file(vfs, path)
                .and_then(|ino| vfs.fs_mut().write(ino, *off, bytes))
                .map(|n| Reply::Written { n })
        }
        Request::Fsync { path } => vfs
            .resolve(path)
            .and_then(|ino| vfs.fs_mut().fsync(ino))
            .map(|()| Reply::Unit),
    };
    c.commit(session, index);
    r
}

/// Check that `log` is a valid commit order for `sessions`: one record
/// per request, in-range, and respecting every session's program order.
pub fn validate_commit_log(sessions: &[Session], log: &[CommitRecord]) -> Result<(), String> {
    let total: usize = sessions.iter().map(|s| s.requests.len()).sum();
    if log.len() != total {
        return Err(format!(
            "commit log has {} records, expected {total}",
            log.len()
        ));
    }
    let mut next: Vec<usize> = vec![0; sessions.len()];
    for (pos, rec) in log.iter().enumerate() {
        let Some(n) = next.get_mut(rec.session) else {
            return Err(format!("record {pos}: unknown session {}", rec.session));
        };
        if rec.index != *n {
            return Err(format!(
                "record {pos}: session {} commits index {} but program order expects {}",
                rec.session, rec.index, *n
            ));
        }
        *n += 1;
    }
    Ok(())
}

fn expand_payload(req: &Request) -> Option<Vec<u8>> {
    match req {
        Request::Write { len, seed, .. } => Some(payload(*seed, *len)),
        _ => None,
    }
}

/// Drain `sessions` against `vfs` with `opts.threads` workers.
///
/// # Panics
/// Panics if `sessions[i].id != i`, or (debug) if the produced commit log
/// fails [`validate_commit_log`] — which would mean an engine bug, not a
/// workload problem.
pub fn serve<F: SpecificFs + Send>(
    vfs: &mut Vfs<F>,
    sessions: &[Session],
    opts: &ServeOptions,
) -> ServeReport {
    for (i, s) in sessions.iter().enumerate() {
        assert_eq!(s.id, i, "session ids must equal their slice index");
    }
    let pool = WorkerPool::sized(opts.threads);
    let core = Mutex::new(Core {
        vfs,
        log: Vec::new(),
    });

    let mut collected: Vec<(usize, Vec<Response>)> = pool.shard_fine(
        sessions,
        |acc: &mut Vec<(usize, Vec<Response>)>, session| {
            let mut responses = Vec::with_capacity(session.requests.len());
            for (index, req) in session.requests.iter().enumerate() {
                let data = expand_payload(req);
                responses.push(run_request(&core, session.id, index, req, data.as_deref()));
            }
            acc.push((session.id, responses));
        },
        |out, shard| out.extend(shard),
    );
    collected.sort_by_key(|(id, _)| *id);

    let log = core.into_inner().unwrap().log;
    debug_assert!(
        validate_commit_log(sessions, &log).is_ok(),
        "engine produced an invalid commit log"
    );
    ServeReport {
        responses: collected.into_iter().map(|(_, rs)| rs).collect(),
        commit_log: log,
    }
}

/// Replay `sessions` one request at a time in `commit_log` order — the
/// serial oracle a concurrent run is compared against.
///
/// # Panics
/// Panics if the commit log is not a valid total order for `sessions`
/// (see [`validate_commit_log`]).
pub fn replay_serial<F: SpecificFs>(
    vfs: &mut Vfs<F>,
    sessions: &[Session],
    commit_log: &[CommitRecord],
) -> Vec<Vec<Response>> {
    if let Err(e) = validate_commit_log(sessions, commit_log) {
        panic!("invalid commit log: {e}");
    }
    let core = Mutex::new(Core {
        vfs,
        log: Vec::new(),
    });
    let mut responses: Vec<Vec<Option<Response>>> = sessions
        .iter()
        .map(|s| vec![None; s.requests.len()])
        .collect();
    for rec in commit_log {
        let req = &sessions[rec.session].requests[rec.index];
        let data = expand_payload(req);
        let resp = run_request(&core, rec.session, rec.index, req, data.as_deref());
        responses[rec.session][rec.index] = Some(resp);
    }
    let log = core.into_inner().unwrap().log;
    assert_eq!(
        log, commit_log,
        "serial replay must commit in the given order"
    );
    responses
        .into_iter()
        .map(|rs| {
            rs.into_iter()
                .map(|r| r.expect("every request replayed"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_vfs::ramfs::RamFs;

    fn reqs(v: Vec<Request>) -> Vec<Session> {
        vec![Session { id: 0, requests: v }]
    }

    #[test]
    fn single_session_round_trip() {
        let mut vfs = Vfs::new(RamFs::new());
        let sessions = reqs(vec![
            Request::Mkdir {
                path: "/d".into(),
                mode: 0o755,
            },
            Request::Create {
                path: "/d/f".into(),
                mode: 0o644,
            },
            Request::Write {
                path: "/d/f".into(),
                off: 0,
                len: 100,
                seed: 9,
            },
            Request::Read {
                path: "/d/f".into(),
                off: 0,
                len: 100,
            },
            Request::Stat {
                path: "/d/f".into(),
            },
            Request::Fsync {
                path: "/d/f".into(),
            },
            Request::Readdir { path: "/d".into() },
            Request::Rename {
                from: "/d/f".into(),
                to: "/g".into(),
            },
            Request::Unlink { path: "/g".into() },
            Request::Rmdir { path: "/d".into() },
            Request::Sync,
        ]);
        let report = serve(&mut vfs, &sessions, &ServeOptions::default());
        assert_eq!(report.total_ops(), 11);
        assert!(validate_commit_log(&sessions, &report.commit_log).is_ok());
        let expect_digest = digest(&payload(9, 100));
        assert_eq!(
            report.responses[0][3],
            Ok(Reply::Data {
                len: 100,
                digest: expect_digest
            })
        );
        assert_eq!(report.responses[0][6], Ok(Reply::Entries(vec!["f".into()])));
        assert!(
            report.responses[0].iter().all(|r| r.is_ok()),
            "{:?}",
            report.responses
        );
    }

    #[test]
    fn errors_are_replies_not_panics() {
        // One request of every kind that can fail, each failing in
        // resolution, plus a `Sync`: every one is a reply that commits once.
        let missing = || "/missing".to_string();
        let cases: Vec<(Request, Response)> = vec![
            (
                Request::Create {
                    path: "/missing/f".into(),
                    mode: 0o644,
                },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Mkdir {
                    path: "/missing/d".into(),
                    mode: 0o755,
                },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Unlink {
                    path: "/missing/f".into(),
                },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Rmdir {
                    path: "/missing/d".into(),
                },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Rename {
                    from: "/missing/a".into(),
                    to: "/missing/b".into(),
                },
                Err(Errno::ENOENT.into()),
            ),
            (Request::Open { path: missing() }, Err(Errno::ENOENT.into())),
            (Request::Stat { path: missing() }, Err(Errno::ENOENT.into())),
            (
                Request::Readdir { path: missing() },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Read {
                    path: missing(),
                    off: 0,
                    len: 8,
                },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Fsync { path: missing() },
                Err(Errno::ENOENT.into()),
            ),
            (
                Request::Write {
                    path: "/".into(),
                    off: 0,
                    len: 8,
                    seed: 1,
                },
                Err(Errno::EISDIR.into()),
            ),
            (Request::Sync, Ok(Reply::Unit)),
        ];
        let (requests, expected): (Vec<_>, Vec<_>) = cases.into_iter().unzip();
        let sessions = reqs(requests);
        let mut vfs = Vfs::new(RamFs::new());
        let report = serve(&mut vfs, &sessions, &ServeOptions::default());
        for (i, want) in expected.iter().enumerate() {
            let kind = sessions[0].requests[i].name();
            assert_eq!(&report.responses[0][i], want, "{kind}");
        }
        assert_eq!(report.commit_log.len(), 12);
        assert!(validate_commit_log(&sessions, &report.commit_log).is_ok());
    }

    #[test]
    fn replay_reproduces_a_serial_run() {
        let mk_sessions = || {
            reqs(vec![
                Request::Create {
                    path: "/f".into(),
                    mode: 0o644,
                },
                Request::Write {
                    path: "/f".into(),
                    off: 0,
                    len: 64,
                    seed: 3,
                },
                Request::Read {
                    path: "/f".into(),
                    off: 0,
                    len: 64,
                },
            ])
        };
        let sessions = mk_sessions();
        let mut vfs = Vfs::new(RamFs::new());
        let report = serve(&mut vfs, &sessions, &ServeOptions::default());
        let mut vfs2 = Vfs::new(RamFs::new());
        let replayed = replay_serial(&mut vfs2, &sessions, &report.commit_log);
        assert_eq!(report.responses, replayed);
    }

    #[test]
    fn commit_log_validation_rejects_bad_orders() {
        let sessions = reqs(vec![Request::Sync, Request::Sync]);
        let ok = vec![
            CommitRecord {
                session: 0,
                index: 0,
            },
            CommitRecord {
                session: 0,
                index: 1,
            },
        ];
        assert!(validate_commit_log(&sessions, &ok).is_ok());
        let reversed = vec![
            CommitRecord {
                session: 0,
                index: 1,
            },
            CommitRecord {
                session: 0,
                index: 0,
            },
        ];
        assert!(validate_commit_log(&sessions, &reversed).is_err());
        assert!(
            validate_commit_log(&sessions, &ok[..1]).is_err(),
            "short log"
        );
        let alien = vec![
            CommitRecord {
                session: 1,
                index: 0,
            },
            CommitRecord {
                session: 0,
                index: 0,
            },
        ];
        assert!(validate_commit_log(&sessions, &alien).is_err());
    }
}
