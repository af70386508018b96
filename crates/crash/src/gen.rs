//! ACE-style bounded workload generation (CrashMonkey/ACE, OSDI '18):
//! systematically enumerate **every** length-2 and length-3 operation
//! sequence over a tiny fixed namespace, with sync placement varied per
//! sequence — instead of hand-writing workloads and hoping the
//! interesting interleavings are among them.
//!
//! The bounds, after ACE:
//!
//! * **namespace**: 2 directories × 2 files × 2 content seeds
//!   ([`GEN_DIRS`], [`GEN_FILES`], [`GEN_CONTENT`]) — small enough that
//!   seq-3 stays tractable, rich enough for every pairwise interaction
//!   (create/unlink fights, rename into a directory, rmdir-then-reuse,
//!   truncate over a synced write, ...);
//! * **vocabulary**: `{Mkdir, Write, Truncate, Unlink, Rmdir, Rename,
//!   Sync}` — `Sync` is not enumerated as an op but injected as a
//!   *placement* ([`SyncPlacement`]): none, trailing, or after every
//!   prefix;
//! * **pruning**: sequences that do not replay on `RamFs` — the model
//!   the workload shadow runs, through the same interpreter
//!   ([`crate::workload::apply`]) — are skipped during enumeration (unlink
//!   before create, rmdir of a non-empty or absent directory, rename
//!   without a source, ...), and
//!   name-isomorphic sequences (identical up to a consistent swap of the
//!   two dirs, the two files, or the two content seeds) are collapsed to
//!   their lexicographically-least representative.
//!
//! The surviving seq-2 + seq-3 family is 369 workloads (39 of them
//! seq-2). Generation is a pure function of [`GenOptions`] — no RNG,
//! no clocks — so the family is bit-identical across runs, machines, and
//! thread counts, and any `(workload name, image index)` pair is a
//! complete replayable witness.

use iron_vfs::ramfs::RamFs;
use iron_vfs::Vfs;

use crate::workload::{apply, CrashOp, CrashWorkload, CRASH_ROOT};

/// The two directories of the generated namespace.
pub const GEN_DIRS: [&str; 2] = ["/crash/d0", "/crash/d1"];
/// The two files of the generated namespace (both at the crash root;
/// renames can move them into the directories).
pub const GEN_FILES: [&str; 2] = ["/crash/f0", "/crash/f1"];
/// The two content seeds: `(len, seed)` for [`crate::workload::pattern`].
/// Lengths straddle a block boundary so the two contents differ in shape,
/// not just bytes.
pub const GEN_CONTENT: [(usize, u8); 2] = [(2600, 0xA1), (6200, 0xB2)];
/// Truncate-shrink target: below one block, so shrinking the larger
/// content frees a whole tail block (the journal-forget hazard).
pub const GEN_SHRINK: u64 = 1024;
/// Truncate-extend target: past both content lengths, so the extension
/// is a hole that must read back zeroed.
pub const GEN_EXTEND: u64 = 9000;

/// Where syncs are injected into a core sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPlacement {
    /// No sync at all: every op rides in unflushed epochs.
    None,
    /// One sync after the whole sequence.
    Trailing,
    /// A sync after every op — each prefix becomes a durability
    /// checkpoint.
    AfterEach,
}

impl SyncPlacement {
    /// All placements, in emission order.
    pub const ALL: [SyncPlacement; 3] = [
        SyncPlacement::None,
        SyncPlacement::Trailing,
        SyncPlacement::AfterEach,
    ];

    fn suffix(&self) -> &'static str {
        match self {
            SyncPlacement::None => "none",
            SyncPlacement::Trailing => "trail",
            SyncPlacement::AfterEach => "each",
        }
    }
}

/// Generation bounds.
#[derive(Clone, Debug)]
pub struct GenOptions {
    /// Shortest core sequence emitted.
    pub min_len: usize,
    /// Longest core sequence emitted.
    pub max_len: usize,
    /// Sync placements emitted per core sequence.
    pub placements: Vec<SyncPlacement>,
}

impl GenOptions {
    /// All length-2 sequences, all three sync placements — the default
    /// test tier's family.
    pub fn seq2() -> Self {
        GenOptions {
            min_len: 2,
            max_len: 2,
            placements: SyncPlacement::ALL.to_vec(),
        }
    }

    /// All length-2 *and* length-3 sequences — the full ACE bound, run in
    /// the stress lane.
    pub fn seq3() -> Self {
        GenOptions {
            min_len: 2,
            max_len: 3,
            placements: SyncPlacement::ALL.to_vec(),
        }
    }
}

/// The fixed table of op instances the generator sequences over. `Sync`
/// is deliberately absent — sync placement is a separate axis. The table
/// is closed under the three namespace swaps (dirs, files, seeds), which
/// is what makes isomorphism pruning a permutation of indices.
pub fn op_instances() -> Vec<CrashOp> {
    let [d0, d1] = GEN_DIRS;
    let [f0, f1] = GEN_FILES;
    let [(l0, s0), (l1, s1)] = GEN_CONTENT;
    vec![
        CrashOp::mkdir(d0),
        CrashOp::mkdir(d1),
        CrashOp::write(f0, l0, s0),
        CrashOp::write(f0, l1, s1),
        CrashOp::write(f1, l0, s0),
        CrashOp::write(f1, l1, s1),
        CrashOp::truncate(f0, GEN_SHRINK),
        CrashOp::truncate(f0, GEN_EXTEND),
        CrashOp::truncate(f1, GEN_SHRINK),
        CrashOp::truncate(f1, GEN_EXTEND),
        CrashOp::unlink(f0),
        CrashOp::unlink(f1),
        CrashOp::rmdir(d0),
        CrashOp::rmdir(d1),
        CrashOp::rename(f0, f1),
        CrashOp::rename(f1, f0),
        CrashOp::rename(f0, "/crash/d0/f0"),
        CrashOp::rename(f0, "/crash/d1/f0"),
        CrashOp::rename(f1, "/crash/d0/f1"),
        CrashOp::rename(f1, "/crash/d1/f1"),
        CrashOp::rename(d0, d1),
        CrashOp::rename(d1, d0),
    ]
}

/// A sequence is legal iff it replays without error on `RamFs` — the
/// specification every differential in the workspace holds the file
/// systems to — after the `Mkdir(CRASH_ROOT)` every workload starts with.
fn replays_on_ramfs<'a>(ops: impl IntoIterator<Item = &'a CrashOp>) -> bool {
    let mut v = Vfs::new(RamFs::new());
    apply(&mut v, &CrashOp::mkdir(CRASH_ROOT)).is_ok()
        && ops.into_iter().all(|op| apply(&mut v, op).is_ok())
}

/// One namespace isomorphism: a consistent swap of the two dirs, the two
/// files, and/or the two content seeds, expressed as a permutation of the
/// instance table.
fn swap_paths(s: &str, swap_d: bool, swap_f: bool) -> String {
    let mut out = s.to_string();
    if swap_d {
        out = out
            .replace("d0", "\u{1}")
            .replace("d1", "d0")
            .replace('\u{1}', "d1");
    }
    if swap_f {
        out = out
            .replace("f0", "\u{1}")
            .replace("f1", "f0")
            .replace('\u{1}', "f1");
    }
    out
}

fn map_op(op: &CrashOp, swap_d: bool, swap_f: bool, swap_s: bool) -> CrashOp {
    match op {
        CrashOp::Mkdir(p) => CrashOp::mkdir(swap_paths(p, swap_d, swap_f)),
        CrashOp::Write(p, len, seed) => {
            let (mut len, mut seed) = (*len, *seed);
            if swap_s {
                let [(l0, s0), (l1, s1)] = GEN_CONTENT;
                (len, seed) = if (len, seed) == (l0, s0) {
                    (l1, s1)
                } else {
                    (l0, s0)
                };
            }
            CrashOp::write(swap_paths(p, swap_d, swap_f), len, seed)
        }
        CrashOp::Truncate(p, size) => CrashOp::truncate(swap_paths(p, swap_d, swap_f), *size),
        CrashOp::Unlink(p) => CrashOp::unlink(swap_paths(p, swap_d, swap_f)),
        CrashOp::Rmdir(p) => CrashOp::rmdir(swap_paths(p, swap_d, swap_f)),
        CrashOp::Rename(a, b) => {
            CrashOp::rename(swap_paths(a, swap_d, swap_f), swap_paths(b, swap_d, swap_f))
        }
        CrashOp::Sync => CrashOp::Sync,
    }
}

/// The 8 instance-index permutations of the isomorphism group
/// (dir-swap × file-swap × seed-swap). Index 0 is the identity.
fn isomorphism_tables(instances: &[CrashOp]) -> Vec<Vec<usize>> {
    let mut tables = Vec::with_capacity(8);
    for bits in 0u8..8 {
        let (swap_d, swap_f, swap_s) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
        let table: Vec<usize> = instances
            .iter()
            .map(|op| {
                let mapped = map_op(op, swap_d, swap_f, swap_s);
                instances
                    .iter()
                    .position(|o| *o == mapped)
                    .expect("instance table is closed under the isomorphism group")
            })
            .collect();
        tables.push(table);
    }
    tables
}

/// A sequence is canonical iff it is lexicographically minimal within its
/// isomorphism orbit. Legality is invariant under the group (the rules
/// never distinguish d0 from d1, f0 from f1, or the two seeds), so every
/// orbit of a legal sequence is fully legal and exactly one member
/// survives.
fn is_canonical(seq: &[usize], tables: &[Vec<usize>]) -> bool {
    let mut image = Vec::with_capacity(seq.len());
    for table in &tables[1..] {
        image.clear();
        image.extend(seq.iter().map(|&i| table[i]));
        if image.as_slice() < seq {
            return false;
        }
    }
    true
}

/// Enumerate every legal, canonical core sequence of instance indices
/// with length in `[min_len, max_len]`, in lexicographic order.
fn core_sequences(instances: &[CrashOp], min_len: usize, max_len: usize) -> Vec<Vec<usize>> {
    let tables = isomorphism_tables(instances);
    let mut out = Vec::new();
    // DFS stack of sequences; each candidate replays on an empty RamFs,
    // so the model needs no snapshot.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(seq) = stack.pop() {
        // Children in reverse so the LIFO pops them in ascending order —
        // purely cosmetic (output sorted), determinism holds either way.
        for idx in (0..instances.len()).rev() {
            let mut next = seq.clone();
            next.push(idx);
            if !replays_on_ramfs(next.iter().map(|&i| &instances[i])) {
                continue;
            }
            if next.len() >= min_len && is_canonical(&next, &tables) {
                out.push(next.clone());
            }
            if next.len() < max_len {
                stack.push(next);
            }
        }
    }
    out.sort();
    out
}

/// Generate the bounded workload family for `opts`.
///
/// Every workload starts with `Mkdir(CRASH_ROOT)` (the namespace the
/// oracles scope to), then the core sequence with syncs injected per
/// placement. Names encode the complete recipe —
/// `g<len>#<i0>.<i1>[.<i2>]-<placement>` — so a violation's workload name
/// plus image index replays from the generator alone.
pub fn generate_workloads(opts: &GenOptions) -> Vec<CrashWorkload> {
    let instances = op_instances();
    let cores = core_sequences(&instances, opts.min_len, opts.max_len);
    let mut out = Vec::with_capacity(cores.len() * opts.placements.len());
    for core in &cores {
        for placement in &opts.placements {
            let mut ops = Vec::with_capacity(2 + core.len() * 2);
            ops.push(CrashOp::mkdir(CRASH_ROOT));
            for &idx in core {
                ops.push(instances[idx].clone());
                if *placement == SyncPlacement::AfterEach {
                    ops.push(CrashOp::Sync);
                }
            }
            if *placement == SyncPlacement::Trailing {
                ops.push(CrashOp::Sync);
            }
            let sig: Vec<String> = core.iter().map(|i| format!("{i:02}")).collect();
            let name = format!("g{}#{}-{}", core.len(), sig.join("."), placement.suffix());
            out.push(CrashWorkload::new(name, ops));
        }
    }
    out
}

/// Find one generated workload by its name (the replay path for a
/// violation witness).
pub fn find_generated(opts: &GenOptions, name: &str) -> Option<CrashWorkload> {
    generate_workloads(opts)
        .into_iter()
        .find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_table_is_closed_under_the_isomorphism_group() {
        // isomorphism_tables panics if not; also verify each is a
        // permutation and an involution composition (applying twice with
        // the same bits is the identity).
        let instances = op_instances();
        let tables = isomorphism_tables(&instances);
        assert_eq!(tables.len(), 8);
        for table in &tables {
            let mut seen: Vec<usize> = table.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..instances.len()).collect::<Vec<_>>());
        }
        assert_eq!(tables[0], (0..instances.len()).collect::<Vec<_>>());
        for table in &tables {
            for i in 0..instances.len() {
                assert_eq!(table[table[i]], i, "swap twice = identity");
            }
        }
    }

    #[test]
    fn legality_pruning_rejects_the_obvious() {
        let instances = op_instances();
        let legal = |seq: &[usize]| replays_on_ramfs(seq.iter().map(|&i| &instances[i]));
        // 0/1 mkdir d0/d1, 2 write f0, 6 truncate f0, 10 unlink f0,
        // 12/13 rmdir d0/d1, 14 rename f0 f1, 16 rename f0 d0/f0,
        // 20 rename d0 d1.
        assert!(!legal(&[10]), "unlink before create (ENOENT)");
        assert!(!legal(&[12]), "rmdir before mkdir (ENOENT)");
        assert!(!legal(&[6]), "truncate missing (ENOENT)");
        assert!(!legal(&[14]), "rename missing source (ENOENT)");
        assert!(legal(&[2]), "write creates");
        assert!(!legal(&[2, 16]), "rename into missing dir (ENOENT)");
        assert!(!legal(&[0, 0]), "mkdir of an existing name (EEXIST)");
        assert!(legal(&[2, 0, 16]));
        assert!(!legal(&[2, 0, 16, 12]), "rmdir non-empty (ENOTEMPTY)");
        assert!(!legal(&[0, 1, 20]), "rename onto an existing dir (EISDIR)");
        assert!(legal(&[2, 0, 16, 20]));
        assert!(
            !legal(&[2, 0, 16, 20, 13]),
            "dir rename moves contained files"
        );
    }

    #[test]
    fn canonicalization_keeps_exactly_one_orbit_member() {
        let instances = op_instances();
        let tables = isomorphism_tables(&instances);
        // Write(f0,c0); Unlink(f0) is canonical; the f1/c1-swapped twins
        // are not.
        assert!(is_canonical(&[2, 10], &tables));
        assert!(!is_canonical(&[4, 11], &tables), "file-swapped twin");
        assert!(!is_canonical(&[3, 10], &tables), "seed-swapped twin");
        assert!(!is_canonical(&[1, 13], &tables), "dir-swapped twin");
        assert!(is_canonical(&[0, 12], &tables));
    }
}
