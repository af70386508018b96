//! Tier-1 guard for the committed taxonomy tables and failure-policy
//! results: Tables 1 and 2, ext3, ReiserFS and JFS (Figure 2), NTFS
//! (§5.4), Table 5 and the ixt3 matrix (Figure 3) must render byte for
//! byte as they stand in `results/` — each column is what its stock
//! policy table enacts. (`ci.sh`'s `== results ==` step diffs every
//! generator in full, but `cargo test` alone never ran one.)

use std::sync::OnceLock;

use iron_bench::{figure2_adapters, full_campaign, table5_report};
use iron_core::taxonomy::render_table;
use iron_core::{DetectionLevel, RecoveryLevel};
use iron_fingerprint::render::render_matrix;
use iron_fingerprint::summary::summarize;
use iron_fingerprint::PolicyMatrix;

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The full campaign of `fs`, built once and shared by every test here.
fn matrix(fs: &str) -> &'static PolicyMatrix {
    const NAMES: [&str; 5] = ["ext3", "reiserfs", "jfs", "ixt3", "ntfs"];
    static MATRICES: [OnceLock<PolicyMatrix>; NAMES.len()] =
        [const { OnceLock::new() }; NAMES.len()];
    let i = NAMES.iter().position(|n| *n == fs).expect("a known fs");
    MATRICES[i].get_or_init(|| full_campaign(fs))
}

/// `taxonomy` prints Table 1, then Table 2, each followed by a blank line.
#[test]
fn taxonomy_tables_match_results_taxonomy() {
    let out = format!(
        "{}\n{}\n",
        render_table::<DetectionLevel>(1),
        render_table::<RecoveryLevel>(2)
    );
    assert!(
        out == committed("taxonomy.txt"),
        "results/taxonomy.txt differs from the rendered tables:\n{out}"
    );
}

/// `figure2` prints ext3, ReiserFS, JFS, each followed by a blank line.
#[test]
fn figure2_matrices_match_results_figure2() {
    let out: String = figure2_adapters()
        .iter()
        .map(|(name, _)| format!("{}\n\n", render_matrix(matrix(name))))
        .collect();
    assert!(
        out == committed("figure2.txt"),
        "results/figure2.txt differs from the rendered matrices:\n{out}"
    );
}

/// `ntfs_study` prints the matrix, then its §5.4 tallies.
#[test]
fn ntfs_matrix_matches_results_ntfs_study() {
    let head = format!("{}\n\n§5.4 checks:\n", render_matrix(matrix("ntfs")));
    let file = committed("ntfs_study.txt");
    assert!(
        file.starts_with(&head),
        "results/ntfs_study.txt no longer starts with the rendered NTFS matrix:\n{head}"
    );
}

/// `table5` prints the whole report over ext3, ReiserFS, JFS and ixt3.
#[test]
fn table5_matches_results_table5() {
    let summaries: Vec<_> = ["ext3", "reiserfs", "jfs", "ixt3"]
        .iter()
        .map(|fs| summarize(matrix(fs)))
        .collect();
    let out = table5_report(&summaries);
    assert!(
        out == committed("table5.txt"),
        "results/table5.txt differs from the rendered report:\n{out}"
    );
}

/// `figure3` prints the ixt3 matrix, then its §6.2 robustness count.
#[test]
fn ixt3_matrix_matches_results_figure3() {
    let head = format!("{}\n\nixt3 robustness: ", render_matrix(matrix("ixt3")));
    let file = committed("figure3.txt");
    assert!(
        file.starts_with(&head),
        "results/figure3.txt no longer starts with the rendered ixt3 matrix:\n{head}"
    );
}
