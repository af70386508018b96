//! Recovery oracles and the per-image check.
//!
//! For each enumerated crash image the checker mounts the image (letting
//! journal replay run), walks the whole tree ([`Vfs::tree`]), cleanly
//! unmounts, and reconstructs the post-recovery medium from the image plus
//! the recovery mount's own write stream. The recovered tree is held
//! against the shadow model's trees ([`crate::workload::run_workload`],
//! taken from `RamFs` by the same walk). Four oracles then apply:
//!
//! * **FsckClean** — recovery itself succeeds (mount, walk, unmount) and
//!   the file system's offline checker finds nothing afterwards.
//! * **Durability** — the latest checkpoint whose flush mark the image
//!   contains must be visible: every file synced there and not modified
//!   since must exist with exactly its synced content. The golden fixture
//!   is checkpoint zero and must always survive.
//! * **Atomicity** — a file created exactly once is all-or-nothing: if it
//!   is visible at all, its content is the full written version. Paths
//!   that were never created must not appear.
//! * **Idempotence** — mounting the recovered medium a second time
//!   changes nothing user-visible.
//!
//! Every violation carries the [`CrashImageSpec`] witness, so it replays
//! from `(seed, image index)` alone.

use std::fmt;

use iron_blockdev::{IoLog, MemDisk, Recorder, WriteLogSnapshot};
use iron_fingerprint::FsUnderTest;
use iron_vfs::{FsEnv, FsTree, TreeNode, Vfs};

use crate::image::{apply_all, materialize, CrashImageSpec};
use crate::workload::{ShadowModel, CRASH_ROOT};

/// Which oracle a violation tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OracleKind {
    /// Recovery failed or the offline checker found damage afterwards.
    FsckClean,
    /// Synced state went missing or changed.
    Durability,
    /// A create tore, or a never-created path appeared.
    Atomicity,
    /// A second recovery changed the tree.
    Idempotence,
}

impl OracleKind {
    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            OracleKind::FsckClean => "fsck-clean",
            OracleKind::Durability => "durability",
            OracleKind::Atomicity => "atomicity",
            OracleKind::Idempotence => "idempotence",
        }
    }
}

/// One oracle violation, with its replayable crash-image witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// File system under test.
    pub fs: String,
    /// Workload name. Owned: generated workloads have computed names.
    pub workload: String,
    /// The crash image that produced it — cut epoch and exact write
    /// subset.
    pub image: CrashImageSpec,
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] image {} (cut epoch {}, subset {:?}) {}: {}",
            self.fs,
            self.workload,
            self.image.index,
            self.image.cut_epoch,
            self.image.subset,
            self.oracle.label(),
            self.detail
        )
    }
}

fn describe_node(n: Option<&TreeNode>) -> String {
    match n {
        None => "missing".to_string(),
        Some(TreeNode::Dir) => "a directory".to_string(),
        Some(TreeNode::File(d)) => format!("a {}-byte file", d.len()),
        Some(TreeNode::Symlink(t)) => format!("a symlink to {t}"),
    }
}

/// Run recovery and all four oracles against one crash image.
///
/// Fully deterministic: no RNG, no clocks — campaigns may fan images over
/// any number of worker threads and re-sort by image index to get
/// bit-identical reports.
pub fn check_image(
    fs: &dyn FsUnderTest,
    workload_name: &str,
    base: &MemDisk,
    log: &WriteLogSnapshot,
    shadow: &ShadowModel,
    golden_tree: &FsTree,
    spec: &CrashImageSpec,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let viol = |oracle: OracleKind, detail: String| Violation {
        fs: fs.name().to_string(),
        workload: workload_name.to_string(),
        image: spec.clone(),
        oracle,
        detail,
    };

    // Recovery: mount the image (journal replay runs here), walk, unmount.
    let disk = materialize(base, log, spec);
    let rlog = IoLog::new();
    let tree = match fs.mount_crash(Recorder::with_log(disk, rlog.clone()), FsEnv::new()) {
        Err(e) => {
            out.push(viol(
                OracleKind::FsckClean,
                format!("recovery mount failed: {e:?}"),
            ));
            return out;
        }
        Ok(mounted) => {
            let mut v = Vfs::new(mounted);
            let walked = v.tree();
            let unmounted = v.umount();
            match walked {
                Err(e) => {
                    out.push(viol(
                        OracleKind::FsckClean,
                        format!("post-recovery tree walk failed: {e}"),
                    ));
                    return out;
                }
                Ok(t) => {
                    if let Err(e) = unmounted {
                        out.push(viol(
                            OracleKind::FsckClean,
                            format!("clean unmount after recovery failed: {e:?}"),
                        ));
                        return out;
                    }
                    t
                }
            }
        }
    };

    // The recovered, cleanly-unmounted medium: image + recovery's writes.
    let post = apply_all(materialize(base, log, spec), &rlog.snapshot());

    // (a) Offline check finds nothing after recovery.
    if let Some(issues) = fs.fsck_issues(&post) {
        if !issues.is_empty() {
            out.push(viol(
                OracleKind::FsckClean,
                format!("fsck after recovery: {}", issues.join("; ")),
            ));
        }
    }

    // (b) Durability. Baseline: the golden fixture (it is the base of
    // every image) — any path the workload never touched must be intact.
    for (path, node) in golden_tree {
        if shadow.last_modified.contains_key(path) {
            continue;
        }
        if tree.get(path) != Some(node) {
            out.push(viol(
                OracleKind::Durability,
                format!(
                    "golden fixture path {path} expected {}, found {}",
                    describe_node(Some(node)),
                    describe_node(tree.get(path))
                ),
            ));
        }
    }
    // The latest checkpoint whose flush mark this image fully contains.
    let applicable = shadow.checkpoints.iter().rfind(|c| {
        c.flush_count > 0
            && c.flush_count <= log.flush_marks.len()
            && log.flush_marks[c.flush_count - 1] <= spec.cut_epoch
    });
    if let Some(cp) = applicable {
        let mark = log.flush_marks[cp.flush_count - 1];
        let modified_since = |path: &String| {
            shadow
                .last_modified
                .get(path)
                .is_some_and(|&m| m > cp.op_index)
        };
        // Files first, then directories: one pass each over the tree.
        for (path, node) in &cp.tree {
            let TreeNode::File(content) = node else {
                continue;
            };
            if modified_since(path) {
                continue;
            }
            let ok = matches!(tree.get(path), Some(TreeNode::File(d)) if d == content);
            if !ok {
                let found = match tree.get(path) {
                    Some(TreeNode::File(d)) if d.len() == content.len() => {
                        let off = d
                            .iter()
                            .zip(content.iter())
                            .position(|(a, b)| a != b)
                            .unwrap_or(0);
                        format!(
                            "a {}-byte file with wrong content (first diff at byte {off})",
                            d.len()
                        )
                    }
                    other => describe_node(other),
                };
                out.push(viol(
                    OracleKind::Durability,
                    format!(
                        "{path}: synced at op {} (flush mark {mark} \u{2264} cut {}), expected a \
                         {}-byte file, found {found}",
                        cp.op_index,
                        spec.cut_epoch,
                        content.len(),
                    ),
                ));
            }
        }
        for (path, node) in &cp.tree {
            if *node != TreeNode::Dir || modified_since(path) {
                continue;
            }
            if tree.get(path) != Some(&TreeNode::Dir) {
                out.push(viol(
                    OracleKind::Durability,
                    format!(
                        "{path}: directory synced at op {} missing after recovery",
                        cp.op_index
                    ),
                ));
            }
        }
    }

    // (c) Atomicity, scoped to the workload's namespace.
    for (path, node) in &tree {
        if path != CRASH_ROOT && !path.starts_with("/crash/") {
            continue;
        }
        match node {
            TreeNode::Dir => {
                if !shadow.ever_dirs.contains(path) {
                    out.push(viol(
                        OracleKind::Atomicity,
                        format!("{path}: phantom directory (never created by the workload)"),
                    ));
                }
            }
            TreeNode::File(data) => match shadow.versions.get(path) {
                None => out.push(viol(
                    OracleKind::Atomicity,
                    format!("{path}: phantom file (never created by the workload)"),
                )),
                Some(versions) => {
                    // `write_file` on a fresh path is create-then-write —
                    // two journaled operations. A commit landing between
                    // them (routine under group commit, where transactions
                    // close on size, not op boundaries) legitimately
                    // exposes the just-created empty file; only *content*
                    // tears are violations.
                    let created_empty = data.is_empty() && !versions[0].is_empty();
                    if shadow.create_once.contains(path) && data != &versions[0] && !created_empty {
                        let expected = &versions[0];
                        let detail = if data.len() != expected.len() {
                            format!(
                                "{path}: torn create — visible with {} bytes, the only version \
                                 ever written has {}",
                                data.len(),
                                expected.len()
                            )
                        } else {
                            let off = data
                                .iter()
                                .zip(expected.iter())
                                .position(|(a, b)| a != b)
                                .unwrap_or(0);
                            format!(
                                "{path}: torn create — {} bytes visible but content diverges \
                                 from the only version ever written at byte {off}",
                                data.len()
                            )
                        };
                        out.push(viol(OracleKind::Atomicity, detail));
                    }
                }
            },
            TreeNode::Symlink(_) => {}
        }
    }

    // (d) Idempotence: a second mount of the recovered medium changes
    // nothing user-visible.
    let rlog2 = IoLog::new();
    match fs.mount_crash(Recorder::with_log(post.snapshot(), rlog2), FsEnv::new()) {
        Err(e) => out.push(viol(
            OracleKind::Idempotence,
            format!("second recovery mount failed: {e:?}"),
        )),
        Ok(mounted) => {
            let mut v2 = Vfs::new(mounted);
            match v2.tree() {
                Err(e) => out.push(viol(
                    OracleKind::Idempotence,
                    format!("second recovery walk failed: {e}"),
                )),
                Ok(tree2) => {
                    if tree2 != tree {
                        let diff: Vec<&String> = tree
                            .keys()
                            .chain(tree2.keys())
                            .filter(|p| tree.get(*p) != tree2.get(*p))
                            .take(4)
                            .collect();
                        out.push(viol(
                            OracleKind::Idempotence,
                            format!("second recovery changed the tree at {diff:?}"),
                        ));
                    }
                }
            }
            let _ = v2.umount();
        }
    }

    out
}
