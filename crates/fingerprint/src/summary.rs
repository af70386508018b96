//! Table 5: the IRON-techniques summary.
//!
//! "The table depicts a summary of the IRON techniques used by the file
//! systems under test. More check marks indicate a higher relative
//! frequency of usage of the given technique." We aggregate each file
//! system's matrix: for every level, the fraction of relevant cells that
//! exhibit it, bucketed into 0–4 check marks.

use iron_core::policy::{LevelSet, PolicyCell};
use iron_core::{DetectionLevel, Level, RecoveryLevel};

use crate::campaign::PolicyMatrix;

/// Per-level usage for one file system.
#[derive(Clone, Debug)]
pub struct TechniqueSummary {
    /// File-system name.
    pub fs_name: &'static str,
    /// Relevant (fault-fired) cell count.
    pub relevant: usize,
    /// Count of cells exhibiting each detection level.
    pub detection_counts: Vec<(DetectionLevel, usize)>,
    /// Count of cells exhibiting each recovery level.
    pub recovery_counts: Vec<(RecoveryLevel, usize)>,
}

/// Aggregate a matrix into its Table 5 column.
pub fn summarize(m: &PolicyMatrix) -> TechniqueSummary {
    TechniqueSummary {
        fs_name: m.fs_name,
        relevant: m.relevant,
        detection_counts: counts(m, |cell| cell.detection),
        recovery_counts: counts(m, |cell| cell.recovery),
    }
}

/// Each level of axis `L`, in taxonomy order, with the number of the
/// matrix's cells whose `set` holds it.
fn counts<L: Level>(m: &PolicyMatrix, set: impl Fn(&PolicyCell) -> LevelSet<L>) -> Vec<(L, usize)> {
    let cells = || m.cells.values().flatten();
    L::ALL
        .iter()
        .map(|&l| (l, cells().filter(|cell| set(cell).contains(l)).count()))
        .collect()
}

/// Bucket a usage fraction into the paper's check-mark notation.
pub fn checkmarks(count: usize, relevant: usize) -> &'static str {
    if count == 0 || relevant == 0 {
        return "";
    }
    let frac = count as f64 / relevant as f64;
    if frac < 0.05 {
        "√"
    } else if frac < 0.20 {
        "√√"
    } else if frac < 0.45 {
        "√√√"
    } else {
        "√√√√"
    }
}

/// Render Table 5 from several file systems' summaries.
pub fn render_table5(summaries: &[TechniqueSummary]) -> String {
    let mut out = String::from(
        "Table 5: IRON Techniques Summary (more check marks = higher relative frequency)\n",
    );
    out.push_str(&format!("{:<14}", "Level"));
    for s in summaries {
        out.push_str(&format!("{:<10}", s.fs_name));
    }
    out.push('\n');
    rows(&mut out, summaries, |s| &s.detection_counts);
    rows(&mut out, summaries, |s| &s.recovery_counts);
    out
}

/// One row per level of axis `L`, with each summary's check marks from its
/// `counts`.
fn rows<L: Level>(
    out: &mut String,
    summaries: &[TechniqueSummary],
    counts: impl Fn(&TechniqueSummary) -> &[(L, usize)],
) {
    for (i, level) in L::ALL.iter().enumerate() {
        out.push_str(&format!("{:<14}", level.to_string()));
        for s in summaries {
            out.push_str(&format!("{:<10}", checkmarks(counts(s)[i].1, s.relevant)));
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkmark_buckets() {
        assert_eq!(checkmarks(0, 100), "");
        assert_eq!(checkmarks(1, 100), "√");
        assert_eq!(checkmarks(10, 100), "√√");
        assert_eq!(checkmarks(30, 100), "√√√");
        assert_eq!(checkmarks(60, 100), "√√√√");
        assert_eq!(checkmarks(5, 0), "");
    }
}
