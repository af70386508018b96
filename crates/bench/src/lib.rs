//! # iron-bench
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index), plus [`sim_costs`]: the deterministic cost kernels. Every binary's
//! stdout is committed as `results/<bin>.txt` and `./ci.sh results` diffs
//! them byte for byte. Wall clock is not measured here — that is the
//! whole-stack `benchmark/`.
//!
//! | binary | regenerates |
//! |---|---|
//! | `taxonomy` | Tables 1 & 2 (IRON taxonomy) |
//! | `workloads_table` | Table 3 (applied workloads) |
//! | `blocktypes_table` | Table 4 (block types per file system) |
//! | `figure2` | Figure 2 (ext3 / ReiserFS / JFS failure policies) |
//! | `ntfs_study` | §5.4 (NTFS qualitative results) |
//! | `table5` | Table 5 (IRON techniques summary) |
//! | `figure3` | Figure 3 (ixt3 failure policy) + the §6.2 scenario count |
//! | `table6` | Table 6 (overheads of ixt3 variants; `--quick` for a subset) |
//! | `space_overhead` | §6.2 space-overhead numbers |
//! | `scrubbing_ablation` | §3.2 eager-vs-lazy detection trade-off |
//! | `sim_costs` | simulated time and device work of the cache, replication, retry, journal-commit and Table-6 kernels |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sim_costs;

use iron_fingerprint::summary::{render_table5, TechniqueSummary};
use iron_fingerprint::{
    fingerprint_fs, CampaignOptions, Ext3Adapter, FsUnderTest, JfsAdapter, NtfsAdapter,
    PolicyMatrix, ReiserAdapter,
};

/// Run a full fingerprinting campaign for the named file system.
pub fn full_campaign(which: &str) -> PolicyMatrix {
    let opts = CampaignOptions::default();
    match which {
        "ext3" => fingerprint_fs(&Ext3Adapter::stock(), &opts),
        "ixt3" => fingerprint_fs(&Ext3Adapter::ixt3(), &opts),
        "reiserfs" => fingerprint_fs(&ReiserAdapter, &opts),
        "jfs" => fingerprint_fs(&JfsAdapter, &opts),
        "ntfs" => fingerprint_fs(&NtfsAdapter, &opts),
        other => panic!("unknown file system {other}"),
    }
}

/// The adapters for the three Figure 2 file systems.
pub fn figure2_adapters() -> Vec<(&'static str, Box<dyn FsUnderTest>)> {
    vec![
        ("ext3", Box::new(Ext3Adapter::stock())),
        ("reiserfs", Box::new(ReiserAdapter)),
        ("jfs", Box::new(JfsAdapter)),
    ]
}

/// What the `table5` binary prints: Table 5, then each file system's count
/// of cells per level it exhibits.
pub fn table5_report(summaries: &[TechniqueSummary]) -> String {
    let mut out = format!("{}\n", render_table5(summaries));
    out.push_str("Raw counts (cells exhibiting each level / relevant cells):\n");
    for s in summaries {
        out.push_str(&format!(
            "\n{} ({} relevant cells)\n",
            s.fs_name, s.relevant
        ));
        for (l, c) in &s.detection_counts {
            if *c > 0 {
                out.push_str(&format!("  {l} {c}\n"));
            }
        }
        for (l, c) in &s.recovery_counts {
            if *c > 0 {
                out.push_str(&format!("  {l} {c}\n"));
            }
        }
    }
    out
}
