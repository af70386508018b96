//! The §6.2 space-overhead analysis.
//!
//! "To evaluate space overhead, we measured a number of local file systems
//! and computed the increase in space required if all metadata was
//! replicated, room for checksums was included, and an extra block for
//! parity was allocated. Overall, we found that the space overhead of
//! checksumming and metadata replication is small, in the 3% to 10% range
//! … parity-block overhead … in the range of 3% to 17% depending on the
//! volume analyzed."
//!
//! We generate volume profiles with file-size distributions modeled on
//! measured desktop volumes (many small files, a heavy tail of large ones
//! — Douceur & Bolosky's study, the paper's citation \[18\] for free-space
//! availability), then compute the same three overheads from the ext3
//! layout's geometry.

use iron_core::hash::xorshift64;
use iron_core::BLOCK_SIZE;
use iron_ext3::inode::{NDIRECT, PTRS_PER_BLOCK};
use iron_ext3::layout::INODE_SIZE;

/// A synthetic volume: a named file-size population.
#[derive(Clone, Debug)]
pub struct VolumeProfile {
    /// Display name.
    pub name: &'static str,
    /// Sizes of every file on the volume, bytes.
    pub file_sizes: Vec<u64>,
}

/// Approximate lognormal via the product of uniform draws from the
/// xorshift64 stream at `rng`.
fn lognormalish(rng: &mut u64, median: f64, spread: f64) -> u64 {
    let mut x = median;
    for _ in 0..4 {
        let u = (xorshift64(rng) % 10_000) as f64 / 10_000.0; // [0,1)
        x *= spread.powf(u - 0.5);
    }
    x.max(1.0) as u64
}

impl VolumeProfile {
    /// A desktop-style volume: thousands of small files (median ~4 KiB),
    /// long tail into megabytes. Parity overhead is highest here.
    pub fn desktop() -> Self {
        let mut rng = 11;
        VolumeProfile {
            name: "desktop",
            file_sizes: (0..8000)
                .map(|_| lognormalish(&mut rng, 4096.0, 64.0))
                .collect(),
        }
    }

    /// A developer volume: source trees (small-medium files) plus build
    /// artifacts.
    pub fn developer() -> Self {
        let mut rng = 23;
        VolumeProfile {
            name: "developer",
            file_sizes: (0..6000)
                .map(|_| lognormalish(&mut rng, 16_384.0, 32.0))
                .collect(),
        }
    }

    /// A media volume: few, large files. Parity overhead is lowest here.
    pub fn media() -> Self {
        let mut rng = 37;
        VolumeProfile {
            name: "media",
            file_sizes: (0..800)
                .map(|_| lognormalish(&mut rng, 400_000.0, 16.0))
                .collect(),
        }
    }

    /// All built-in profiles.
    pub fn all() -> Vec<VolumeProfile> {
        vec![Self::desktop(), Self::developer(), Self::media()]
    }
}

/// Space-overhead percentages relative to the volume's user data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpaceOverheads {
    /// Total user data bytes on the volume.
    pub data_bytes: u64,
    /// Metadata bytes (inodes + indirect blocks + directory estimate +
    /// static structures), as a % of data.
    pub metadata_pct: f64,
    /// Checksum table (8 bytes per block, data and metadata), %.
    pub checksum_pct: f64,
    /// Metadata replication (one extra copy of all metadata), %.
    pub replication_pct: f64,
    /// Per-file parity block, %.
    pub parity_pct: f64,
}

/// Compute the §6.2 overheads for a profile under the ext3/ixt3 layout.
pub fn analyze_profile(profile: &VolumeProfile) -> SpaceOverheads {
    let bs = BLOCK_SIZE as u64;
    let mut data_blocks = 0u64;
    let mut indirect_blocks = 0u64;
    for &size in &profile.file_sizes {
        let blocks = size.div_ceil(bs);
        data_blocks += blocks;
        // Indirect tree cost, as in the ext3 model.
        if blocks > NDIRECT as u64 {
            indirect_blocks += 1; // single indirect
            let beyond = blocks.saturating_sub((NDIRECT + PTRS_PER_BLOCK) as u64);
            if beyond > 0 {
                indirect_blocks += 1 + beyond.div_ceil(PTRS_PER_BLOCK as u64);
            }
        }
    }
    let nfiles = profile.file_sizes.len() as u64;
    let inode_bytes = nfiles * INODE_SIZE as u64;
    // Directory estimate: ~32 bytes of entry per file, one block minimum
    // per ~100 files of directory structure.
    let dir_bytes = (nfiles * 32).max(bs);
    // Static structures (bitmaps ~ 1 bit/block ⇒ /8/bs fraction, tables).
    let bitmap_bytes = data_blocks.div_ceil(8);
    let metadata_bytes = inode_bytes + indirect_blocks * bs + dir_bytes + bitmap_bytes + 16 * bs;

    let data_bytes = data_blocks * bs;
    let checksum_bytes = (data_blocks + metadata_bytes.div_ceil(bs)) * 8;
    let parity_bytes = nfiles * bs;

    let pct = |x: u64| 100.0 * x as f64 / data_bytes as f64;
    SpaceOverheads {
        data_bytes,
        metadata_pct: pct(metadata_bytes),
        checksum_pct: pct(checksum_bytes),
        replication_pct: pct(metadata_bytes),
        parity_pct: pct(parity_bytes),
    }
}

/// Render the space-overhead report for a set of profiles.
pub fn render_report(profiles: &[VolumeProfile]) -> String {
    let mut out = String::from("Space overheads (percent of user data), per volume profile\n");
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
        "volume", "data(MB)", "metadata%", "checksum%", "replication%", "parity%"
    ));
    for p in profiles {
        let r = analyze_profile(p);
        out.push_str(&format!(
            "{:<12} {:>10.1} {:>10.2} {:>12.2} {:>12.2} {:>10.2}\n",
            p.name,
            r.data_bytes as f64 / 1e6,
            r.metadata_pct,
            r.checksum_pct,
            r.replication_pct,
            r.parity_pct
        ));
    }
    out.push_str(
        "\nPaper (§6.2): checksumming + metadata replication small (3–10%);\n\
         parity 3–17% depending on the volume analyzed.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_overhead_tracks_mean_file_size() {
        let desktop = analyze_profile(&VolumeProfile::desktop());
        let media = analyze_profile(&VolumeProfile::media());
        assert!(
            desktop.parity_pct > media.parity_pct,
            "small files ⇒ higher parity overhead ({:.2}% vs {:.2}%)",
            desktop.parity_pct,
            media.parity_pct
        );
    }

    #[test]
    fn overheads_land_in_paper_ranges() {
        for p in VolumeProfile::all() {
            let r = analyze_profile(&p);
            let meta_plus_cksum = r.replication_pct + r.checksum_pct;
            assert!(
                (0.3..=12.0).contains(&meta_plus_cksum),
                "{}: replication+checksum {meta_plus_cksum:.2}% outside a plausible band",
                p.name
            );
            assert!(
                (0.2..=25.0).contains(&r.parity_pct),
                "{}: parity {:.2}% outside a plausible band",
                p.name,
                r.parity_pct
            );
        }
        // The desktop profile specifically should be in the paper's upper
        // parity band.
        let desktop = analyze_profile(&VolumeProfile::desktop());
        assert!(
            desktop.parity_pct > 3.0,
            "desktop parity {:.2}% should exceed 3%",
            desktop.parity_pct
        );
    }

    #[test]
    fn profiles_are_deterministic() {
        assert_eq!(
            analyze_profile(&VolumeProfile::desktop()),
            analyze_profile(&VolumeProfile::desktop())
        );
    }

    #[test]
    fn report_renders_every_profile() {
        let text = render_report(&VolumeProfile::all());
        assert!(text.contains("desktop"));
        assert!(text.contains("developer"));
        assert!(text.contains("media"));
    }
}
