//! The paper's qualitative claims (§6.2), asserted against the committed
//! `results/table6.txt` and `results/space_overhead.txt`.
//!
//! The drift tests (`figure2_drift.rs`, `sim_costs_drift.rs`, `./ci.sh
//! results`) check that a result file did not change; they cannot tell a
//! right number from a wrong one that was re-baselined. Each test here is
//! one sentence of the paper, so a change that flips a sign fails
//! `cargo test` instead of being committed as the new baseline. A known
//! departure is a named exception that cites the EXPERIMENTS.md paragraph
//! explaining it.

/// One row of Table 6: its number, its mechanisms, and the four
/// normalized columns (SSH, Web, PostMark, TPC-B). A bracketed cell is a
/// speed-up; its value is the number inside the brackets.
struct Row {
    index: usize,
    mechanisms: Vec<String>,
    ssh: f64,
    web: f64,
    postmark: f64,
    tpcb: f64,
}

impl Row {
    fn has(&self, mechanism: &str) -> bool {
        self.mechanisms.iter().any(|m| m == mechanism)
    }
}

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn cell(s: &str) -> f64 {
    s.trim_matches(|c| c == '[' || c == ']')
        .parse()
        .unwrap_or_else(|e| panic!("table6 cell {s:?}: {e}"))
}

fn table6() -> Vec<Row> {
    let rows: Vec<Row> = committed("table6.txt")
        .lines()
        .filter_map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            let index = words.first()?.parse().ok()?;
            let (names, cells) = words[1..].split_at(words.len() - 5);
            Some(Row {
                index,
                mechanisms: names.iter().map(|m| m.to_string()).collect(),
                ssh: cell(cells[0]),
                web: cell(cells[1]),
                postmark: cell(cells[2]),
                tpcb: cell(cells[3]),
            })
        })
        .collect();
    assert_eq!(rows.len(), 32, "table6.txt holds rows 0-31");
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(r.index, i, "table6.txt rows are in order");
    }
    rows
}

/// §6.2, first conclusion: SSH-Build and the web server are unaffected
/// by every variant.
#[test]
fn ssh_and_web_pay_nothing_in_any_variant() {
    for r in table6() {
        for (column, v) in [("SSH", r.ssh), ("Web", r.web)] {
            assert!(
                (v - 1.00).abs() <= 0.02 + 1e-9,
                "row {}: {column} {v:.2} is not within 0.02 of 1.00",
                r.index
            );
        }
    }
}

/// The `Dc` PostMark cells that come out as speed-ups. Known departure:
/// EXPERIMENTS.md, Table 6, "Open finding — the PostMark column of every
/// `Dc` variant is wrong" (ROADMAP item 1). Fixing it removes this list.
const DC_POSTMARK_EXCEPTIONS: [usize; 8] = [4, 5, 6, 7, 12, 13, 14, 15];

/// §6.2, second conclusion: PostMark and TPC-B pay for replication,
/// data checksums and parity. Without `Tc` to offset them, no row with
/// `Mr`, `Dc` or `Dp` runs faster than stock ext3.
#[test]
fn redundancy_costs_postmark_and_tpcb_without_tc() {
    let mut exceptions = Vec::new();
    for r in table6() {
        if r.has("Tc") || !(r.has("Mr") || r.has("Dc") || r.has("Dp")) {
            continue;
        }
        assert!(
            r.tpcb >= 1.00,
            "row {}: TPC-B {:.2} < 1.00",
            r.index,
            r.tpcb
        );
        if r.postmark < 1.00 {
            exceptions.push(r.index);
        }
    }
    assert_eq!(
        exceptions, DC_POSTMARK_EXCEPTIONS,
        "the PostMark speed-ups on redundancy rows are no longer exactly the \
         named `Dc` exceptions; if the `Dc` write path was fixed, delete them"
    );
}

/// §6.2, third conclusion: a transactional checksum alone speeds up
/// TPC-B (paper 0.80), because it removes the pre-commit barrier.
#[test]
fn tc_alone_speeds_up_tpcb() {
    let rows = table6();
    let tc = &rows[16];
    assert_eq!(tc.mechanisms, ["Tc"]);
    assert!(tc.tpcb < 1.00, "Tc alone: TPC-B {:.2} >= 1.00", tc.tpcb);
}

/// §6.2, third conclusion: combined with everything else, `Tc` offsets
/// part of the cost (paper 1.42 → 1.21).
#[test]
fn tc_offsets_the_combined_tpcb_cost() {
    let rows = table6();
    let (all, all_but_tc) = (&rows[31], &rows[15]);
    assert_eq!(all.mechanisms, ["Mc", "Mr", "Dc", "Dp", "Tc"]);
    assert_eq!(all_but_tc.mechanisms, ["Mc", "Mr", "Dc", "Dp"]);
    assert!(
        all.tpcb < all_but_tc.tpcb,
        "TPC-B with Tc {:.2} is not below without {:.2}",
        all.tpcb,
        all_but_tc.tpcb
    );
}

/// §6.2, space: parity costs 3–17 % of user data, depending on the
/// volume. The two volumes the paper's band describes are desktop and
/// developer; media's large files fall below it (EXPERIMENTS.md §6.2).
#[test]
fn parity_space_falls_in_the_papers_band() {
    let text = committed("space_overhead.txt");
    let header = text
        .lines()
        .find(|l| l.starts_with("volume"))
        .expect("space_overhead.txt has a header row");
    let column = header
        .split_whitespace()
        .position(|h| h == "parity%")
        .expect("a parity% column");
    for volume in ["desktop", "developer"] {
        let line = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(volume))
            .unwrap_or_else(|| panic!("space_overhead.txt has no {volume} row"));
        let parity: f64 = line
            .split_whitespace()
            .nth(column)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (3.0..=17.0).contains(&parity),
            "{volume}: parity {parity}% outside 3-17%"
        );
    }
}
