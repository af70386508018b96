//! The **IRON taxonomy** (§3, Tables 1 and 2 of the paper).
//!
//! The taxonomy gives a vocabulary for *failure policy*: which techniques a
//! file system uses to detect partial disk faults (Level D) and to recover
//! from them (Level R). The fingerprinting framework classifies observed
//! behavior into these levels, and the resulting per-(workload × block type ×
//! fault) sets of levels *are* Figure 2 and Figure 3 of the paper.

use std::fmt;

/// One axis of the IRON taxonomy: Table 1 (detection) or Table 2
/// (recovery). Each level's name, glyph, technique and comment are
/// written once, as its [`LevelRow`].
pub trait Level: Copy + Eq + fmt::Display + 'static {
    /// The axis, as its table's title names it ("Detection").
    const AXIS: &'static str;
    /// Every level in taxonomy order, the zero level first.
    const ALL: &'static [Self];

    /// The level's bit in a [`LevelSet`](crate::policy::LevelSet): its
    /// position in [`Level::ALL`].
    fn index(self) -> usize;

    /// The level's row of its table.
    fn row(self) -> LevelRow;
}

/// One level's row of Table 1 or 2, with its glyph in Figures 2 and 3.
#[derive(Clone, Copy, Debug)]
pub struct LevelRow {
    /// The level's name, e.g. `DSanity`.
    pub name: &'static str,
    /// The single character the Figure 2/3 matrices superimpose; blank
    /// for the zero level.
    pub glyph: char,
    /// The technique, as the table words it.
    pub technique: &'static str,
    /// The table's comment column.
    pub comment: &'static str,
}

/// Level D of the IRON taxonomy: how a file system *detects* that a block
/// could not be accessed or was corrupted (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DetectionLevel {
    /// No detection at all: the file system assumes the disk works.
    DZero,
    /// Check error codes returned by the lower levels of the storage stack.
    DErrorCode,
    /// Verify data structures for consistency (magic numbers, field ranges,
    /// cross-block checks).
    DSanity,
    /// Redundancy over one or more blocks — checksums, replica comparison —
    /// detecting corruption in an end-to-end way.
    DRedundancy,
}

impl Level for DetectionLevel {
    const AXIS: &'static str = "Detection";
    const ALL: &'static [Self] = &[
        DetectionLevel::DZero,
        DetectionLevel::DErrorCode,
        DetectionLevel::DSanity,
        DetectionLevel::DRedundancy,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Glyphs follow the paper's key: blank for `DZero`, `-` for
    /// `DErrorCode`, `|` for `DSanity`, `\` for `DRedundancy`.
    fn row(self) -> LevelRow {
        let (name, glyph, technique, comment) = match self {
            DetectionLevel::DZero => ("DZero", ' ', "No detection", "Assumes disk works"),
            DetectionLevel::DErrorCode => (
                "DErrorCode",
                '-',
                "Check return codes from lower levels",
                "Assumes lower level can detect errors",
            ),
            DetectionLevel::DSanity => (
                "DSanity",
                '|',
                "Check data structures for consistency",
                "May require extra space per block",
            ),
            DetectionLevel::DRedundancy => (
                "DRedundancy",
                '\\',
                "Redundancy over one or more blocks",
                "Detect corruption in end-to-end way",
            ),
        };
        LevelRow {
            name,
            glyph,
            technique,
            comment,
        }
    }
}

/// Level R of the IRON taxonomy: how a file system *recovers* once a fault
/// is detected (Table 2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RecoveryLevel {
    /// No recovery; not even client notification.
    RZero,
    /// Propagate the error to the calling application.
    RPropagate,
    /// Stop activity: crash/panic, remount read-only, or abort the journal.
    RStop,
    /// Manufacture a response (e.g. return a blank block) and keep running.
    RGuess,
    /// Retry the failed read or write.
    RRetry,
    /// Repair inconsistent data structures (fsck-style).
    RRepair,
    /// Remap the block (or a whole semantic unit) to a different locale.
    RRemap,
    /// Use block replication, parity, or another redundant copy.
    RRedundancy,
}

impl Level for RecoveryLevel {
    const AXIS: &'static str = "Recovery";
    const ALL: &'static [Self] = &[
        RecoveryLevel::RZero,
        RecoveryLevel::RPropagate,
        RecoveryLevel::RStop,
        RecoveryLevel::RGuess,
        RecoveryLevel::RRetry,
        RecoveryLevel::RRepair,
        RecoveryLevel::RRemap,
        RecoveryLevel::RRedundancy,
    ];

    fn index(self) -> usize {
        self as usize
    }

    /// Glyphs follow the paper's key: blank for `RZero`, `/` for `RRetry`,
    /// `-` for `RPropagate`, `|` for `RStop`, `\` for `RRedundancy`. Levels
    /// the paper's figures never needed glyphs for get distinct characters.
    fn row(self) -> LevelRow {
        let (name, glyph, technique, comment) = match self {
            RecoveryLevel::RZero => ("RZero", ' ', "No recovery", "Assumes disk works"),
            RecoveryLevel::RPropagate => ("RPropagate", '-', "Propagate error", "Informs user"),
            RecoveryLevel::RStop => (
                "RStop",
                '|',
                "Stop activity (crash, prevent writes)",
                "Limit amount of damage",
            ),
            RecoveryLevel::RGuess => (
                "RGuess",
                'g',
                "Return \"guess\" at block contents",
                "Could be wrong; failure hidden",
            ),
            RecoveryLevel::RRetry => (
                "RRetry",
                '/',
                "Retry read or write",
                "Handles failures that are transient",
            ),
            RecoveryLevel::RRepair => ("RRepair", 'r', "Repair data structs", "Could lose data"),
            RecoveryLevel::RRemap => (
                "RRemap",
                'm',
                "Remaps block or file to different locale",
                "Assumes disk informs FS of failures",
            ),
            RecoveryLevel::RRedundancy => (
                "RRedundancy",
                '\\',
                "Block replication or other forms",
                "Enables recovery from loss/corruption",
            ),
        };
        LevelRow {
            name,
            glyph,
            technique,
            comment,
        }
    }
}

// `write_str`, not `pad`: `results/table5.txt` records level names printed
// with a width that this ignores.
impl fmt::Display for DetectionLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().name)
    }
}

impl fmt::Display for RecoveryLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().name)
    }
}

/// Render Table `n` of the paper, the levels of axis `L`, as text.
pub fn render_table<L: Level>(n: u32) -> String {
    let mut out = format!("Table {n}: The Levels of the IRON {} Taxonomy\n", L::AXIS);
    let row = |level: &str, technique: &str, comment: &str| {
        format!("{level:<14} {technique:<42} {comment}\n")
    };
    out.push_str(&row("Level", "Technique", "Comment"));
    for l in L::ALL {
        let r = l.row();
        out.push_str(&row(r.name, r.technique, r.comment));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_match_paper_key() {
        assert_eq!(DetectionLevel::DZero.row().glyph, ' ');
        assert_eq!(DetectionLevel::DErrorCode.row().glyph, '-');
        assert_eq!(DetectionLevel::DSanity.row().glyph, '|');
        assert_eq!(DetectionLevel::DRedundancy.row().glyph, '\\');
        assert_eq!(RecoveryLevel::RRetry.row().glyph, '/');
        assert_eq!(RecoveryLevel::RPropagate.row().glyph, '-');
        assert_eq!(RecoveryLevel::RStop.row().glyph, '|');
        assert_eq!(RecoveryLevel::RRedundancy.row().glyph, '\\');
    }

    #[test]
    fn all_levels_enumerated_in_order() {
        assert_eq!(DetectionLevel::ALL.len(), 4);
        assert_eq!(RecoveryLevel::ALL.len(), 8);
        assert!(DetectionLevel::ALL.windows(2).all(|w| w[0] < w[1]));
        assert!(RecoveryLevel::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tables_render_every_row() {
        let t1 = render_table::<DetectionLevel>(1);
        for d in DetectionLevel::ALL {
            assert!(t1.contains(&d.to_string()), "missing {d}");
        }
        let t2 = render_table::<RecoveryLevel>(2);
        for r in RecoveryLevel::ALL {
            assert!(t2.contains(&r.to_string()), "missing {r}");
        }
    }

    #[test]
    fn display_names_unique() {
        let mut names: Vec<String> = RecoveryLevel::ALL.iter().map(|r| r.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), RecoveryLevel::ALL.len());
    }
}
