//! Bounded, deterministic enumeration of crash images.
//!
//! The full crash-state space is exponential (any subset of any unflushed
//! epoch). The bound taken here: **every** epoch-prefix image — including
//! the empty image and the full-log image — plus, per epoch, either *all*
//! proper non-empty in-epoch subsets (when the epoch is small enough to
//! afford it) or a fixed number of subsets sampled with the testkit PRNG.
//! The whole set is a pure function of the recorded log and the seed, so
//! any finding is reproducible from `(seed, image index)` alone.

use std::collections::BTreeSet;

use iron_blockdev::WriteLogSnapshot;
use iron_testkit::Rng;

use crate::image::CrashImageSpec;

/// Epochs at or below this write count get exhaustive subset enumeration
/// (at most 2^4 - 2 = 14 extra images each).
const EXHAUSTIVE_LIMIT: usize = 4;

/// Enumeration bounds.
#[derive(Clone, Debug)]
pub struct EnumOptions {
    /// PRNG seed for in-epoch subset sampling.
    pub seed: u64,
    /// Subsets sampled per epoch too large for exhaustive enumeration
    /// (duplicates are discarded, so this is an upper bound).
    pub subsets_per_epoch: usize,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions {
            // SOSP 2005 date pun, grouped for legibility of the pun.
            #[allow(clippy::unusual_byte_groupings)]
            seed: 0x1905_2005_C4A5_4ED,
            subsets_per_epoch: 5,
        }
    }
}

/// Enumerate the bounded crash-image set for a recorded write stream.
///
/// Deterministic: the same log and options always produce the same specs
/// in the same order, with `index` fields `0..n`.
pub fn enumerate_images(log: &WriteLogSnapshot, opts: &EnumOptions) -> Vec<CrashImageSpec> {
    let epochs = log.epoch_count();
    let mut rng = Rng::from_seed(opts.seed);
    let mut images: Vec<CrashImageSpec> = Vec::new();

    // Every epoch prefix: cut 0 (nothing landed) .. cut `epochs` (all of it).
    for cut in 0..=epochs {
        images.push(CrashImageSpec::prefix(cut));
    }

    // In-epoch subsets: the write-back cache may persist any proper,
    // non-empty subset of the cut epoch (empty and full coincide with the
    // prefix images above).
    for cut in 0..epochs {
        let recs = log.epoch_records(cut);
        let n = recs.len();
        if n < 2 {
            continue;
        }
        if n <= EXHAUSTIVE_LIMIT {
            for mask in 1..(1u64 << n) - 1 {
                let subset: Vec<u64> = recs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, r)| r.seq)
                    .collect();
                images.push(CrashImageSpec {
                    index: 0,
                    cut_epoch: cut,
                    subset,
                });
            }
        } else {
            let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
            for _ in 0..opts.subsets_per_epoch {
                // Proper subset of size 1..n via a partial Fisher-Yates
                // shuffle — works for epochs of any width.
                let size = rng.range(1, n);
                let mut idx: Vec<usize> = (0..n).collect();
                for i in 0..size {
                    let j = i + rng.below((n - i) as u64) as usize;
                    idx.swap(i, j);
                }
                let mut subset: Vec<u64> = idx[..size].iter().map(|&i| recs[i].seq).collect();
                subset.sort_unstable();
                if seen.insert(subset.clone()) {
                    images.push(CrashImageSpec {
                        index: 0,
                        cut_epoch: cut,
                        subset,
                    });
                }
            }
        }
    }

    for (i, img) in images.iter_mut().enumerate() {
        img.index = i;
    }
    images
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::{BlockDevice, MemDisk, Recorder};
    use iron_core::{Block, BlockAddr};

    fn sample_log(writes_per_epoch: &[usize]) -> WriteLogSnapshot {
        let mut dev = Recorder::new(MemDisk::for_tests(256));
        let mut addr = 0u64;
        for &n in writes_per_epoch {
            for _ in 0..n {
                dev.write(BlockAddr(addr), &Block::filled(addr as u8))
                    .unwrap();
                addr += 1;
            }
            dev.barrier().unwrap();
        }
        dev.log().snapshot()
    }

    #[test]
    fn enumeration_is_deterministic_and_indexed() {
        let log = sample_log(&[3, 8, 1]);
        let a = enumerate_images(&log, &EnumOptions::default());
        let b = enumerate_images(&log, &EnumOptions::default());
        assert_eq!(a, b);
        for (i, img) in a.iter().enumerate() {
            assert_eq!(img.index, i);
            assert!(img.cut_epoch <= log.epoch_count());
            // Subsets stay within their epoch and are sorted.
            let seqs: Vec<u64> = log
                .epoch_records(img.cut_epoch)
                .iter()
                .map(|r| r.seq)
                .collect();
            assert!(img.subset.windows(2).all(|w| w[0] < w[1]));
            assert!(img.subset.iter().all(|s| seqs.contains(s)));
        }
    }

    #[test]
    fn small_epochs_enumerate_exhaustively() {
        let log = sample_log(&[3]);
        let images = enumerate_images(&log, &EnumOptions::default());
        // Prefixes 0 and 1, plus 2^3 - 2 proper non-empty subsets.
        assert_eq!(images.len(), 2 + 6);
        let subsets: BTreeSet<_> = images
            .iter()
            .map(|i| (i.cut_epoch, i.subset.clone()))
            .collect();
        assert_eq!(subsets.len(), images.len(), "no duplicate images");
    }

    #[test]
    fn different_seeds_may_sample_but_always_cover_prefixes() {
        let log = sample_log(&[12, 12]);
        let images = enumerate_images(
            &log,
            &EnumOptions {
                seed: 7,
                subsets_per_epoch: 4,
            },
        );
        for cut in 0..=2 {
            assert!(images
                .iter()
                .any(|i| i.cut_epoch == cut && i.subset.is_empty()));
        }
        assert!(images.len() <= 3 + 8);
    }
}
