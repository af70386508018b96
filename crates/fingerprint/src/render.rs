//! Text rendering of policy matrices (Figure 2 / Figure 3) in the paper's
//! visual language: one panel per fault mode, detection and recovery
//! sub-tables, workload columns a–t, block-type rows, superimposed glyphs.

use crate::campaign::PolicyMatrix;

/// Width of one rendered cell.
const CELL: usize = 3;

/// Render the full figure for a matrix: for each fault mode, a Detection
/// and a Recovery panel.
pub fn render_matrix(m: &PolicyMatrix) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Failure policy of {} — columns: {}\n",
        m.fs_name,
        m.cols
            .iter()
            .map(|w| format!("{}:{}", w.letter(), w.describe()))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    out.push_str(
        "Key  detection: '-'=DErrorCode '|'=DSanity '\\'=DRedundancy blank=DZero '·'=not applicable\n",
    );
    out.push_str(
        "Key  recovery : '-'=RPropagate '|'=RStop '/'=RRetry '\\'=RRedundancy 'g'=RGuess blank=RZero\n\n",
    );
    let row_w = m.rows.iter().map(|t| t.0.len()).max().unwrap_or(8).max(8);

    for (mi, mode) in m.modes.iter().enumerate() {
        for (panel, is_detection) in [("Detection", true), ("Recovery", false)] {
            out.push_str(&format!("== {} / {} ==\n", mode.title(), panel));
            // Header row of column letters.
            out.push_str(&" ".repeat(row_w + 1));
            for w in &m.cols {
                out.push_str(&format!("{:<CELL$}", w.letter()));
            }
            out.push('\n');
            for (ri, tag) in m.rows.iter().enumerate() {
                out.push_str(&format!("{:<row_w$} ", tag.0));
                for ci in 0..m.cols.len() {
                    let text = match m.cells.get(&(mi, ri, ci)) {
                        Some(Some(cell)) => {
                            let g = if is_detection {
                                cell.detection.glyphs()
                            } else {
                                cell.recovery.glyphs()
                            };
                            if g == "." {
                                " ".to_string() // Zero level: blank, as in the paper
                            } else {
                                g
                            }
                        }
                        _ => "·".to_string(), // gray: not applicable
                    };
                    out.push_str(&format!("{text:<CELL$}"));
                }
                out.push('\n');
            }
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "{} relevant (fault-fired) scenarios out of {} cells\n",
        m.relevant,
        m.modes.len() * m.rows.len() * m.cols.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapters::{Ext3Adapter, FsUnderTest};
    use crate::campaign::{fingerprint_fs, CampaignOptions, FaultMode};
    use crate::workloads::Workload;
    use iron_core::BlockTag;

    #[test]
    fn render_contains_rows_columns_and_keys() {
        let opts = CampaignOptions {
            modes: vec![FaultMode::ReadError],
            workloads: vec![Workload::Read, Workload::Getdirentries],
            rows: vec![BlockTag("data"), BlockTag("dir")],
            ..CampaignOptions::default()
        };
        let adapter = Ext3Adapter::stock();
        let m = fingerprint_fs(&adapter, &opts);
        let text = render_matrix(&m);
        assert!(text.contains("ext3"));
        assert!(text.contains("Read Failure"));
        assert!(text.contains("Detection"));
        assert!(text.contains("Recovery"));
        assert!(text.contains("data"));
        assert!(text.contains("dir"));
        assert!(text.contains("relevant"));
        let _ = adapter.rows();
    }
}
