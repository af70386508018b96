//! Tier-1 guard for the committed failure-policy matrices: ext3, ReiserFS
//! and JFS (Figure 2) and NTFS (§5.4) must render byte for byte as they
//! stand in `results/` — each column is what its stock policy table
//! enacts. (`ci.sh`'s `== results ==` step diffs every generator in
//! full, but `cargo test` alone never ran one.)

use iron_bench::figure2_adapters;
use iron_fingerprint::render::render_matrix;
use iron_fingerprint::{fingerprint_fs, CampaignOptions, NtfsAdapter};

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn rendered(adapter: &dyn iron_fingerprint::FsUnderTest) -> String {
    render_matrix(&fingerprint_fs(adapter, &CampaignOptions::default()))
}

/// `figure2` prints ext3, ReiserFS, JFS, each followed by a blank line.
#[test]
fn figure2_matrices_match_results_figure2() {
    let out: String = figure2_adapters()
        .iter()
        .map(|(_, adapter)| format!("{}\n\n", rendered(adapter.as_ref())))
        .collect();
    assert!(
        out == committed("figure2.txt"),
        "results/figure2.txt differs from the rendered matrices:\n{out}"
    );
}

/// `ntfs_study` prints the matrix, then its §5.4 tallies.
#[test]
fn ntfs_matrix_matches_results_ntfs_study() {
    let head = format!("{}\n\n§5.4 checks:\n", rendered(&NtfsAdapter));
    let file = committed("ntfs_study.txt");
    assert!(
        file.starts_with(&head),
        "results/ntfs_study.txt no longer starts with the rendered NTFS matrix:\n{head}"
    );
}
