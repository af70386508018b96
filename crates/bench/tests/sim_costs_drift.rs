//! Tier-1 guard for `results/sim_costs.txt`: the deterministic cost
//! kernels must render byte for byte as committed — which also runs their
//! in-kernel assertions on every `cargo test` — and every result generator
//! must have a committed file (and the reverse), so neither can go missing
//! until a later `./ci.sh results`.

use std::collections::BTreeSet;
use std::path::Path;

fn repo(path: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(path)
}

#[test]
fn sim_costs_match_results_sim_costs() {
    let path = repo("results/sim_costs.txt");
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let out = iron_bench::sim_costs::render();
    assert!(
        out == committed,
        "results/sim_costs.txt differs from the rendered kernels:\n{out}"
    );
}

/// File stems in `dir` with extension `ext`.
fn stems(dir: &str, ext: &str) -> BTreeSet<String> {
    let dir = repo(dir);
    std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir:?}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn every_generator_has_a_results_file_and_the_reverse() {
    assert_eq!(stems("crates/bench/src/bin", "rs"), stems("results", "txt"));
}
