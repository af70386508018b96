//! Scripted crash workloads and the shadow model the oracles check
//! against.
//!
//! Each workload is an op script run over the VFS while an
//! [`iron_blockdev::Recorder`] logs the request stream. [`apply`]
//! is the one interpreter of an op. [`run_workload`] runs every op twice:
//! on the file system under test, then on a shadow `RamFs` — the same
//! reference model every differential in the workspace uses. From the
//! shadow it records what a correct file system must preserve: at every
//! `Sync` a checkpoint holds the shadow's tree ([`iron_vfs::Vfs::tree`])
//! together with the recorder's flush count — the durability promise the
//! sync just bought — and per-path version history feeds the atomicity
//! oracle.
//!
//! Paths are owned ([`CrashPath`], a `Cow<'static, str>`): the
//! hand-written suites below borrow string literals for free, while the
//! ACE-style generator ([`crate::gen`]) builds its workloads from
//! computed paths. All workload paths live under [`CRASH_ROOT`], so the
//! oracles can tell workload state apart from the pre-existing golden
//! fixture.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use iron_blockdev::IoLog;
use iron_vfs::ramfs::RamFs;
use iron_vfs::{FsTree, SpecificFs, TreeNode, Vfs, VfsResult};

/// Directory every workload confines itself to.
pub const CRASH_ROOT: &str = "/crash";

/// An owned-or-borrowed workload path. Hand-written scripts borrow
/// `'static` literals; generated workloads own their computed strings.
pub type CrashPath = Cow<'static, str>;

/// One step of a crash workload.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashOp {
    /// Create a directory.
    Mkdir(CrashPath),
    /// Create or overwrite a file with `pattern(len, seed)` content.
    Write(CrashPath, usize, u8),
    /// Truncate a file to `size` — shrink, or extend with a zero hole.
    Truncate(CrashPath, u64),
    /// Remove a file.
    Unlink(CrashPath),
    /// Remove an (empty) directory.
    Rmdir(CrashPath),
    /// Rename a file or directory.
    Rename(CrashPath, CrashPath),
    /// `sync()`: commit and flush — a durability checkpoint.
    Sync,
}

impl CrashOp {
    /// `Mkdir` from any path-ish value.
    pub fn mkdir(p: impl Into<CrashPath>) -> Self {
        CrashOp::Mkdir(p.into())
    }
    /// `Write` from any path-ish value.
    pub fn write(p: impl Into<CrashPath>, len: usize, seed: u8) -> Self {
        CrashOp::Write(p.into(), len, seed)
    }
    /// `Truncate` from any path-ish value.
    pub fn truncate(p: impl Into<CrashPath>, size: u64) -> Self {
        CrashOp::Truncate(p.into(), size)
    }
    /// `Unlink` from any path-ish value.
    pub fn unlink(p: impl Into<CrashPath>) -> Self {
        CrashOp::Unlink(p.into())
    }
    /// `Rmdir` from any path-ish value.
    pub fn rmdir(p: impl Into<CrashPath>) -> Self {
        CrashOp::Rmdir(p.into())
    }
    /// `Rename` from any pair of path-ish values.
    pub fn rename(from: impl Into<CrashPath>, to: impl Into<CrashPath>) -> Self {
        CrashOp::Rename(from.into(), to.into())
    }
}

/// A named op script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashWorkload {
    /// Display name (appears in violation reports).
    pub name: Cow<'static, str>,
    /// The script.
    pub ops: Vec<CrashOp>,
}

impl CrashWorkload {
    /// Build a workload from a name and a script.
    pub fn new(name: impl Into<Cow<'static, str>>, ops: Vec<CrashOp>) -> Self {
        CrashWorkload {
            name: name.into(),
            ops,
        }
    }
}

/// Deterministic file content, reproducible from `(len, seed)`.
pub fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (seed as usize)
                .wrapping_mul(131)
                .wrapping_add(i.wrapping_mul(31)) as u8
        })
        .collect()
}

/// Run `op` on `v` — the one interpreter of [`CrashOp`]. It drives the
/// file system under test, the shadow model [`run_workload`] keeps beside
/// it, and the generator's legality check ([`crate::gen`]).
pub fn apply<F: SpecificFs>(v: &mut Vfs<F>, op: &CrashOp) -> VfsResult<()> {
    match op {
        CrashOp::Mkdir(p) => v.mkdir(p, 0o755),
        CrashOp::Write(p, len, seed) => v.write_file(p, &pattern(*len, *seed)),
        CrashOp::Truncate(p, size) => v.truncate(p, *size),
        CrashOp::Unlink(p) => v.unlink(p),
        CrashOp::Rmdir(p) => v.rmdir(p),
        CrashOp::Rename(from, to) => v.rename(from, to),
        CrashOp::Sync => v.sync(),
    }
}

/// The expected tree at one durability checkpoint.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Index (into the op script) of the `Sync` that took this snapshot.
    pub op_index: usize,
    /// Recorder flush count right after the sync. The checkpoint's
    /// durability promise is `flush_marks[flush_count - 1]`: crash images
    /// containing every epoch below that mark must show this tree.
    pub flush_count: usize,
    /// The model's tree at the sync.
    pub tree: FsTree,
}

/// Everything the oracles need to know about what the workload did.
#[derive(Clone, Debug, Default)]
pub struct ShadowModel {
    /// One checkpoint per `Sync`, in script order.
    pub checkpoints: Vec<Checkpoint>,
    /// Every content version each file path ever held, in order.
    pub versions: BTreeMap<String, Vec<Vec<u8>>>,
    /// Every path that was ever a directory.
    pub ever_dirs: BTreeSet<String>,
    /// Paths written exactly once whose namespace entry was never touched
    /// by any other op — the only paths the strict create-atomicity
    /// oracle applies to (in-place overwrites legitimately tear under
    /// ordered-mode journaling, and a path reused across object kinds —
    /// rmdir-then-create — may legitimately resurface as its old object).
    pub create_once: BTreeSet<String>,
    /// Op index of the last modification touching each path. Durability
    /// checks skip paths modified after the checkpoint they test.
    pub last_modified: BTreeMap<String, usize>,
    /// The model's tree at the end of the script (what a loss-free
    /// replay must show).
    pub final_tree: FsTree,
}

/// The paths `op` touched, as `(name after the op, name before it)`. A
/// rename touches its source and target and, when a directory moved,
/// every node now under the target, found in the model's tree `after`.
fn touched(op: &CrashOp, after: &FsTree) -> Vec<(String, String)> {
    match op {
        CrashOp::Mkdir(p)
        | CrashOp::Write(p, ..)
        | CrashOp::Truncate(p, _)
        | CrashOp::Unlink(p)
        | CrashOp::Rmdir(p) => vec![(p.to_string(), p.to_string())],
        CrashOp::Rename(from, to) => {
            let prefix = format!("{to}/");
            let moved = after
                .range(prefix.clone()..)
                .take_while(|(p, _)| p.starts_with(&prefix))
                .map(|(p, _)| (p.clone(), format!("{from}{}", &p[to.len()..])));
            std::iter::once((to.to_string(), from.to_string()))
                .chain(moved)
                .collect()
        }
        CrashOp::Sync => Vec::new(),
    }
}

/// Run `w` over a mounted file system and over a shadow `RamFs`, and
/// record from the shadow what the oracles check against. `log` must be
/// the recorder's log, so checkpoints capture the flush count their
/// `sync` reached.
///
/// The file system under test runs each op first; its error is the
/// workload's error. The shadow must then accept the op too — a shadow
/// that refuses what the file system accepted is a harness bug.
pub fn run_workload(
    v: &mut Vfs<Box<dyn SpecificFs>>,
    w: &CrashWorkload,
    log: &IoLog,
) -> VfsResult<ShadowModel> {
    let mut model = Vfs::new(RamFs::new());
    let mut shadow = ShadowModel::default();
    let mut mutated: BTreeSet<String> = BTreeSet::new();

    for (op_index, op) in w.ops.iter().enumerate() {
        let op_index = op_index + 1; // 0 is reserved for the golden baseline
        apply(v, op)?;
        // A write that creates its file is the one op that leaves its path
        // eligible for the create-once oracle; every other op, an
        // overwrite included, marks what it touched as mutated.
        let created = matches!(op, CrashOp::Write(p, ..) if model.lstat(p).is_err());
        apply(&mut model, op).unwrap_or_else(|e| {
            panic!(
                "{}: op {op_index} ({op:?}) ran on the file system, but the shadow refuses it: {e:?}",
                w.name
            )
        });
        let after = model.tree().expect("the shadow walks");
        if *op == CrashOp::Sync {
            shadow.checkpoints.push(Checkpoint {
                op_index,
                flush_count: log.flush_count(),
                tree: after,
            });
            continue;
        }
        for (new, old) in touched(op, &after) {
            match after.get(&new) {
                Some(TreeNode::File(data)) => shadow
                    .versions
                    .entry(new.clone())
                    .or_default()
                    .push(data.clone()),
                Some(TreeNode::Dir) => {
                    shadow.ever_dirs.insert(new.clone());
                }
                _ => {}
            }
            for p in [old, new] {
                if !created {
                    mutated.insert(p.clone());
                }
                shadow.last_modified.insert(p, op_index);
            }
        }
    }

    shadow.create_once = shadow
        .versions
        .iter()
        .filter(|(p, vs)| vs.len() == 1 && !mutated.contains(*p))
        .map(|(p, _)| p.clone())
        .collect();
    shadow.final_tree = model.tree().expect("the shadow walks");
    Ok(shadow)
}

fn mk(p: &'static str) -> CrashOp {
    CrashOp::mkdir(p)
}
fn wr(p: &'static str, len: usize, seed: u8) -> CrashOp {
    CrashOp::write(p, len, seed)
}
fn tr(p: &'static str, size: u64) -> CrashOp {
    CrashOp::truncate(p, size)
}
fn un(p: &'static str) -> CrashOp {
    CrashOp::unlink(p)
}
fn rd(p: &'static str) -> CrashOp {
    CrashOp::rmdir(p)
}
fn rn(from: &'static str, to: &'static str) -> CrashOp {
    CrashOp::rename(from, to)
}
const SYNC: CrashOp = CrashOp::Sync;

/// The standard workload suite. Between them the scripts exercise synced
/// creates (durability), unsynced creates (atomicity), a rewrite of a
/// synced file (legitimately tearable), rename, unlink, truncate (shrink
/// and extend, synced and torn), and directory-block free-and-reuse (the
/// journal-revoke hazard). The rewrite is not in place: a
/// [`CrashOp::Write`] truncates first, so every write lands on freshly
/// allocated blocks and no workload here overwrites a mapped block.
pub fn standard_workloads() -> Vec<CrashWorkload> {
    vec![
        CrashWorkload::new(
            "create_sync",
            vec![
                mk("/crash"),
                wr("/crash/a", 3000, 11),
                wr("/crash/b", 9000, 12),
                SYNC,
                wr("/crash/c", 5000, 13),
                mk("/crash/d"),
                wr("/crash/d/e", 12000, 14),
                SYNC,
                wr("/crash/late", 4000, 15),
            ],
        ),
        CrashWorkload::new(
            "overwrite_rename",
            vec![
                mk("/crash"),
                wr("/crash/log", 8000, 21),
                SYNC,
                wr("/crash/log", 8000, 22),
                rn("/crash/log", "/crash/log.old"),
                wr("/crash/log", 2000, 23),
                SYNC,
                wr("/crash/tmp", 1000, 24),
                un("/crash/tmp"),
            ],
        ),
        CrashWorkload::new(
            "reuse_dir",
            vec![
                mk("/crash"),
                mk("/crash/d"),
                wr("/crash/d/f", 6000, 31),
                SYNC,
                un("/crash/d/f"),
                rd("/crash/d"),
                SYNC,
                mk("/crash/e"),
                wr("/crash/e/g", 6000, 32),
                SYNC,
            ],
        ),
        // Metadata freed and reused as *file data* within one transaction:
        // the freed directory block is reallocated to /crash/big before the
        // sync commits. A journal that forgets to revoke the freed block's
        // staged copy writes stale directory bytes over the file's data at
        // checkpoint/replay time (the PR-1 `journal_forget` seed bug).
        CrashWorkload::new(
            "free_reuse",
            vec![
                mk("/crash"),
                mk("/crash/d"),
                wr("/crash/d/f", 6000, 41),
                un("/crash/d/f"),
                rd("/crash/d"),
                wr("/crash/big", 24000, 42),
                SYNC,
            ],
        ),
        // Truncate in both directions around durability points: a synced
        // file shrunk below a block boundary (freed tail blocks are the
        // journal-forget hazard again, this time on the truncate path),
        // an extension over the shrink (the hole must read back zeroed),
        // and an unsynced truncate the atomicity oracle must tolerate in
        // either pre- or post-image.
        CrashWorkload::new(
            "truncate_churn",
            vec![
                mk("/crash"),
                wr("/crash/t", 14000, 91),
                SYNC,
                tr("/crash/t", 3000),
                wr("/crash/fill", 16000, 92),
                SYNC,
                tr("/crash/t", 10000),
                tr("/crash/fill", 0),
                SYNC,
                wr("/crash/tail", 5000, 93),
                tr("/crash/tail", 2000),
            ],
        ),
    ]
}

/// The batched-commit workload family. Each script issues enough
/// operations between syncs that a mount with the pipelined commit
/// profile (low commit threshold, `group_commit > 1`) closes several
/// transactions into one batch — the sync then commits the whole batch
/// under a single descriptor chain, commit block, and barrier pair. The
/// scripts deliberately spread interesting hazards *across* the batched
/// transactions: block free-and-reuse in a later transaction of the same
/// batch (the merged revoke set), renames over batch boundaries, and an
/// uncommitted tail after the last sync.
pub fn batch_workloads() -> Vec<CrashWorkload> {
    vec![
        // Many small synced creates: the bread-and-butter group-commit
        // case. Two bursts of eight writes, each burst committed as one
        // batch, plus an unsynced tail the atomicity oracle must see as
        // all-or-nothing.
        CrashWorkload::new(
            "batch_streams",
            vec![
                mk("/crash"),
                wr("/crash/s0", 7000, 50),
                wr("/crash/s1", 7000, 51),
                wr("/crash/s2", 7000, 52),
                wr("/crash/s3", 7000, 53),
                wr("/crash/s4", 7000, 54),
                wr("/crash/s5", 7000, 55),
                wr("/crash/s6", 7000, 56),
                wr("/crash/s7", 7000, 57),
                SYNC,
                wr("/crash/s8", 5000, 58),
                wr("/crash/s9", 5000, 59),
                wr("/crash/s10", 5000, 60),
                wr("/crash/s11", 5000, 61),
                SYNC,
                wr("/crash/tail", 3000, 62),
            ],
        ),
        // Rename/unlink churn inside a batch: directory blocks logged by
        // an early transaction of the batch are re-logged by a later one,
        // so the merged batch carries multiple staged versions of the same
        // block and replay must apply the newest.
        CrashWorkload::new(
            "batch_rename_mix",
            vec![
                mk("/crash"),
                mk("/crash/d"),
                wr("/crash/d/a", 6000, 70),
                wr("/crash/d/b", 6000, 71),
                wr("/crash/log", 8000, 72),
                rn("/crash/log", "/crash/log.old"),
                wr("/crash/log", 4000, 73),
                un("/crash/d/a"),
                wr("/crash/big", 20000, 74),
                SYNC,
                wr("/crash/post", 5000, 75),
                SYNC,
            ],
        ),
        // free_reuse across batch members: a directory block freed by one
        // transaction in the batch is reallocated as file data by a later
        // transaction of the *same* batch. The merged revoke set must
        // still suppress the stale staged copy at replay time. The freed
        // tail of a truncate rides the same hazard.
        CrashWorkload::new(
            "batch_free_reuse",
            vec![
                mk("/crash"),
                mk("/crash/d"),
                wr("/crash/d/f", 6000, 81),
                wr("/crash/x", 7000, 82),
                un("/crash/d/f"),
                rd("/crash/d"),
                tr("/crash/x", 1000),
                wr("/crash/big", 24000, 83),
                SYNC,
            ],
        ),
    ]
}
