//! Crash-image reconstruction from a recorded write stream.
//!
//! A crash image is identified by a cut epoch `k` and a subset `S` of
//! epoch `k`'s writes: everything in epochs `< k` landed (barriers forbid
//! reordering across epochs), plus exactly the writes in `S` (a write-back
//! drive cache may persist any subset of an unflushed epoch). Writes are
//! replayed in issue order, so the per-address final value is the last
//! applied write — the same convergence a real cache destage has.

use iron_blockdev::{MemDisk, WriteLogSnapshot};

/// One crash state, by construction recipe. Together with the recorded
/// log and the golden base image this is a complete, replayable witness.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashImageSpec {
    /// Stable index within the enumerated image set.
    pub index: usize,
    /// Epochs strictly before this one are fully applied.
    pub cut_epoch: u64,
    /// Sequence numbers of `cut_epoch` writes additionally applied,
    /// sorted ascending. Empty = the pure epoch-prefix image.
    pub subset: Vec<u64>,
}

impl CrashImageSpec {
    /// A pure epoch-prefix image.
    pub fn prefix(cut_epoch: u64) -> Self {
        CrashImageSpec {
            index: 0,
            cut_epoch,
            subset: Vec::new(),
        }
    }
}

/// Rebuild the on-medium state this crash image describes.
pub fn materialize(base: &MemDisk, log: &WriteLogSnapshot, spec: &CrashImageSpec) -> MemDisk {
    let mut disk = base.snapshot();
    log.apply(&mut disk, |r| {
        r.epoch < spec.cut_epoch
            || (r.epoch == spec.cut_epoch && spec.subset.binary_search(&r.seq).is_ok())
    });
    disk
}

/// Apply every recorded write to `disk` in issue order. Used to
/// reconstruct the post-recovery medium from a pre-mount image plus the
/// write stream the recovery mount produced.
pub fn apply_all(mut disk: MemDisk, log: &WriteLogSnapshot) -> MemDisk {
    log.apply(&mut disk, |_| true);
    disk
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::{BlockDevice, RawAccess, Recorder};
    use iron_core::{Block, BlockAddr};

    #[test]
    fn materialize_applies_prefix_and_subset_in_issue_order() {
        let base = MemDisk::for_tests(8);
        let mut dev = Recorder::new(base.snapshot());
        // epoch 0: two writes to the same address — order matters.
        dev.write(BlockAddr(1), &Block::filled(1)).unwrap();
        dev.write(BlockAddr(1), &Block::filled(2)).unwrap();
        dev.barrier().unwrap();
        // epoch 1
        dev.write(BlockAddr(2), &Block::filled(3)).unwrap();
        let log = dev.log().snapshot();

        // Cut at epoch 0 with only the first write applied.
        let img = materialize(
            &base,
            &log,
            &CrashImageSpec {
                index: 0,
                cut_epoch: 0,
                subset: vec![0],
            },
        );
        assert_eq!(img.peek(BlockAddr(1)), Block::filled(1));
        assert_eq!(img.peek(BlockAddr(2)), Block::zeroed());

        // Full prefix of epoch 1: epoch 0 converged to the *last* write.
        let img = materialize(&base, &log, &CrashImageSpec::prefix(1));
        assert_eq!(img.peek(BlockAddr(1)), Block::filled(2));
        assert_eq!(img.peek(BlockAddr(2)), Block::zeroed());

        let img = materialize(&base, &log, &CrashImageSpec::prefix(2));
        assert_eq!(img.peek(BlockAddr(2)), Block::filled(3));
    }
}
