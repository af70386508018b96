//! The IRON switchboard: which §6 mechanisms are active.
//!
//! Table 6 of the paper evaluates all 32 combinations of five mechanisms;
//! [`IronConfig::all_combinations`] enumerates them in the paper's row
//! order. `fix_bugs` additionally disables every `PAPER-BUG` in the engine —
//! the paper notes "In the process of building ixt3, we also fixed numerous
//! bugs within ext3."

use std::fmt;

/// Which IRON mechanisms are enabled in the ext3/ixt3 engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IronConfig {
    /// `Mc`: checksum metadata blocks; verify on read.
    pub meta_checksum: bool,
    /// `Mr`: replicate metadata to the distant mirror region; read the
    /// replica when the primary fails or fails its checksum.
    pub meta_replication: bool,
    /// `Dc`: checksum data blocks; verify on read.
    pub data_checksum: bool,
    /// `Dp`: per-file parity block; reconstruct a lost data block.
    pub data_parity: bool,
    /// `Tc`: transactional checksums — commit without the pre-commit
    /// barrier; recovery validates the transaction checksum.
    pub txn_checksum: bool,
    /// Fix the stock-ext3 `PAPER-BUG`s (check write error codes, propagate
    /// truncate/rmdir errors, check link counts, squelch post-abort writes).
    pub fix_bugs: bool,
}

impl IronConfig {
    /// Stock ext3: nothing enabled, bugs intact.
    pub fn off() -> Self {
        IronConfig::default()
    }

    /// Full ixt3: every mechanism on, bugs fixed (Figure 3's configuration).
    pub fn full() -> Self {
        IronConfig {
            meta_checksum: true,
            meta_replication: true,
            data_checksum: true,
            data_parity: true,
            txn_checksum: true,
            fix_bugs: true,
        }
    }

    /// True if any on-read verification or redundancy is active.
    pub fn any_iron(&self) -> bool {
        self.meta_checksum
            || self.meta_replication
            || self.data_checksum
            || self.data_parity
            || self.txn_checksum
    }

    /// The 32 Table-6 variants, in the paper's row order (row 0 = baseline
    /// ext3 … row 31 = all five). The paper's rows enumerate combinations
    /// of {Mc, Mr, Dc, Dp, Tc} by subset size; we enumerate the same sets
    /// by bitmask, which covers the same 32 configurations.
    ///
    /// All variants have `fix_bugs` set (ixt3 is the bug-fixed engine).
    pub fn all_combinations() -> Vec<IronConfig> {
        (0u8..32)
            .map(|mask| IronConfig {
                meta_checksum: mask & 1 != 0,
                meta_replication: mask & 2 != 0,
                data_checksum: mask & 4 != 0,
                data_parity: mask & 8 != 0,
                txn_checksum: mask & 16 != 0,
                fix_bugs: true,
            })
            .collect()
    }

    /// Table-6-style label, e.g. `"Mc Mr Tc"`; baseline renders as
    /// `"(ext3)"`.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.meta_checksum {
            parts.push("Mc");
        }
        if self.meta_replication {
            parts.push("Mr");
        }
        if self.data_checksum {
            parts.push("Dc");
        }
        if self.data_parity {
            parts.push("Dp");
        }
        if self.txn_checksum {
            parts.push("Tc");
        }
        if parts.is_empty() {
            "(ext3)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl fmt::Display for IronConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Simulated CPU cost of computing a SHA-1 over one 4 KiB block, charged to
/// the simulated clock when checksumming is active (~25 µs, a 2.4 GHz P4 of
/// the paper's era at roughly 160 MB/s SHA-1 throughput). It models the
/// paper's CPU and is independent of how fast `iron_core::checksum` runs
/// on the host.
pub const SHA1_BLOCK_COST_NS: u64 = 25_000;

/// Simulated CPU cost of XORing one 4 KiB block into a parity accumulator.
pub const XOR_BLOCK_COST_NS: u64 = 1_500;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_all_false() {
        let c = IronConfig::off();
        assert!(!c.any_iron());
        assert!(!c.fix_bugs);
        assert_eq!(c.label(), "(ext3)");
    }

    #[test]
    fn full_enables_everything() {
        let c = IronConfig::full();
        assert!(c.any_iron());
        assert!(c.meta_checksum && c.meta_replication && c.data_checksum);
        assert!(c.data_parity && c.txn_checksum && c.fix_bugs);
        assert_eq!(c.label(), "Mc Mr Dc Dp Tc");
    }

    #[test]
    fn thirty_two_distinct_combinations() {
        let all = IronConfig::all_combinations();
        assert_eq!(all.len(), 32);
        let mut labels: Vec<String> = all.iter().map(IronConfig::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 32, "every combination is distinct");
        assert_eq!(all[0].label(), "(ext3)");
        assert!(all.iter().all(|c| c.fix_bugs));
    }
}
