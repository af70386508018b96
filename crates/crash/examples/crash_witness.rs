//! Replay and explain one violation witness from the crash matrix:
//!
//! ```text
//! crash_witness <ext3|ixt3|reiser|jfs> <workload-index> <image-index>
//! ```
//!
//! Prints the recorded flush marks, every write with a `+` mark when the
//! chosen image includes it, the recovery mount's kernel log, the
//! recovered tree with per-file content verdicts against the shadow
//! model, and the post-recovery fsck issues — everything needed to
//! diagnose a `[fs/workload] image N (cut epoch K, subset [...])` line
//! from `crash_matrix` or a failing oracle test.

use iron_blockdev::{IoLog, Recorder};
use iron_crash::{
    apply_all, enumerate_images, materialize, run_workload, standard_workloads, EnumOptions,
};
use iron_fingerprint::{Ext3Adapter, FsUnderTest, JfsAdapter, ReiserAdapter};
use iron_vfs::{FsEnv, TreeNode, Vfs};

fn main() {
    let mut args = std::env::args().skip(1);
    let fsname = args.next().unwrap();
    let wli: usize = args.next().unwrap().parse().unwrap();
    let idx: usize = args.next().unwrap().parse().unwrap();
    let fs: Box<dyn FsUnderTest> = match fsname.as_str() {
        "ext3" => Box::new(Ext3Adapter::stock()),
        "ixt3" => Box::new(Ext3Adapter::ixt3()),
        "reiser" => Box::new(ReiserAdapter),
        "jfs" => Box::new(JfsAdapter),
        other => panic!("unknown fs {other}"),
    };
    let fs = fs.as_ref();
    let workloads = standard_workloads();
    let w = &workloads[wli];
    let base = fs.golden(false);
    let log = IoLog::new();
    let shadow = {
        let mounted = fs
            .mount_crash(
                Recorder::with_log(base.snapshot(), log.clone()),
                FsEnv::new(),
            )
            .unwrap();
        let mut v = Vfs::new(mounted);
        run_workload(&mut v, w, &log).unwrap()
    };
    let snap = log.snapshot();
    eprintln!("flush marks: {:?}", snap.flush_marks);
    let images = enumerate_images(&snap, &EnumOptions::default());
    let spec = &images[idx];
    eprintln!("spec: cut={} subset={:?}", spec.cut_epoch, spec.subset);
    for r in &snap.records {
        let inc = r.epoch < spec.cut_epoch
            || (r.epoch == spec.cut_epoch && spec.subset.binary_search(&r.seq).is_ok());
        eprintln!(
            "  {} epoch {} seq {:3} addr {:4} tag {:?}",
            if inc { "+" } else { " " },
            r.epoch,
            r.seq,
            r.addr.0,
            r.tag
        );
    }
    let disk = materialize(&base, &snap, spec);
    let rlog = IoLog::new();
    let env = FsEnv::new();
    eprintln!("mounting...");
    let mounted = fs.mount_crash(Recorder::with_log(disk, rlog.clone()), env.clone());
    for e in env.klog.entries() {
        eprintln!("  klog: {e:?}");
    }
    let mounted = match mounted {
        Err(e) => {
            eprintln!("mount failed: {e:?}");
            return;
        }
        Ok(m) => m,
    };
    let mut v = Vfs::new(mounted);
    let tree = v.tree();
    match &tree {
        Err(e) => eprintln!("walk error: {e}"),
        Ok(t) => {
            for (p, n) in t {
                match n {
                    TreeNode::File(d) => {
                        let vs = shadow.versions.get(p);
                        let tag = match vs {
                            Some(vs) if vs.iter().any(|v| v == d) => "matches a version",
                            Some(vs) => {
                                let exp = &vs[vs.len() - 1];
                                let diff = d
                                    .iter()
                                    .zip(exp.iter())
                                    .position(|(a, b)| a != b)
                                    .map(|o| format!("first diff at byte {o}"))
                                    .unwrap_or_else(|| "no common-prefix diff".into());
                                eprintln!("  MISMATCH {p}: {diff}");
                                "MISMATCH"
                            }
                            None => "not a workload file",
                        };
                        eprintln!("  {p}: {} bytes ({tag})", d.len());
                    }
                    _ => eprintln!("  {p}: {n:?}"),
                }
            }
        }
    }
    let u = v.umount();
    eprintln!("unmount: {u:?}");
    for e in env.klog.entries() {
        eprintln!("  klog: {e:?}");
    }
    let post = apply_all(materialize(&base, &snap, spec), &rlog.snapshot());
    if let Some(issues) = fs.fsck_issues(&post) {
        eprintln!("fsck issues: {issues:?}");
    }
}
