//! The elevator, which is a sort.
//!
//! Within a barrier epoch no ordering is owed to the layer below (the
//! [`crate::BlockDevice::barrier`] contract only orders *across*
//! barriers), so [`crate::BufferCache`] destages an epoch's blocks
//! ascending, as a disk elevator would — and that is the iteration order
//! of its dirty index, so nothing here schedules anything. This module
//! keeps the unit that order is counted in, the *sweep* (a run of adjacent
//! addresses issued back to back: [`crate::MemDisk`] charges command
//! overhead, seek and rotation **once** and streams the rest at media
//! rate), and the cursor that hints one sweep at a time ahead of a scan.

use iron_core::BlockAddr;

/// Cap on blocks per sweep: bounds the time one batch keeps the device
/// busy, and models the bounded readahead segment a real drive divides
/// its cache into.
const MAX_SWEEP: u64 = 128;

/// Number of sweeps an ascending write stream makes: maximal runs of
/// adjacent addresses, split every `MAX_SWEEP` blocks.
pub(crate) fn sweeps(addrs: impl IntoIterator<Item = u64>) -> u64 {
    let (mut count, mut len, mut next) = (0, 0, None);
    for addr in addrs {
        if next != Some(addr) || len == MAX_SWEEP {
            count += 1;
            len = 0;
        }
        len += 1;
        next = addr.checked_add(1);
    }
    count
}

/// Cursor that feeds [`crate::BlockDevice::readahead`] hints to a device
/// ahead of an ascending scan of a region, one 128-block chunk (the sweep
/// cap) at a time.
///
/// Call [`ScanReadahead::hint`] just before each read: the first read
/// landing in a chunk hints that whole chunk, so the device's track buffer
/// can stream the rest of it without re-positioning. Sequential log scans
/// (journal replay, the checksum-table load, scrub) are its callers.
pub struct ScanReadahead {
    start: u64,
    end: u64,
    /// First block of the first chunk neither hinted nor skipped.
    next: u64,
}

impl ScanReadahead {
    /// A hint schedule for an ascending scan of `len` blocks at `start`.
    pub fn new(start: BlockAddr, len: u64) -> Self {
        ScanReadahead {
            start: start.0,
            end: start.0.saturating_add(len),
            next: start.0,
        }
    }

    /// Note that the scan is about to read `addr`; if that enters a chunk
    /// not yet hinted, hint it. Chunks the scan jumped past are abandoned;
    /// a read outside the region, or in a chunk already hinted, does
    /// nothing.
    pub fn hint<D: crate::BlockDevice + ?Sized>(&mut self, dev: &mut D, addr: BlockAddr) {
        if addr.0 < self.next || addr.0 >= self.end {
            return;
        }
        let chunk = addr.0 - (addr.0 - self.start) % MAX_SWEEP;
        let len = MAX_SWEEP.min(self.end - chunk);
        dev.readahead(BlockAddr(chunk), len);
        self.next = chunk + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockDevice, DiskResult};
    use iron_core::{Block, BlockTag};

    #[test]
    fn empty_input_makes_no_sweep() {
        assert_eq!(sweeps([]), 0);
    }

    #[test]
    fn adjacent_addresses_form_one_sweep() {
        assert_eq!(sweeps([5, 6, 7]), 1);
    }

    #[test]
    fn gaps_split_sweeps() {
        assert_eq!(sweeps([10, 11, 20, 21, 22, 40]), 3);
    }

    #[test]
    fn long_runs_split_at_the_cap() {
        assert_eq!(sweeps(0..MAX_SWEEP), 1);
        assert_eq!(sweeps(0..MAX_SWEEP + 1), 2);
        assert_eq!(sweeps(7..7 + 3 * MAX_SWEEP), 3);
    }

    /// Records the hints it is given; reads succeed and return zeroes.
    struct Hints(Vec<(u64, u64)>);

    impl BlockDevice for Hints {
        fn num_blocks(&self) -> u64 {
            u64::MAX
        }
        fn read_tagged(&mut self, _: BlockAddr, _: BlockTag) -> DiskResult<Block> {
            Ok(Block::zeroed())
        }
        fn write_tagged(&mut self, _: BlockAddr, _: &Block, _: BlockTag) -> DiskResult<()> {
            Ok(())
        }
        fn barrier(&mut self) -> DiskResult<()> {
            Ok(())
        }
        fn flush(&mut self) -> DiskResult<()> {
            Ok(())
        }
        fn readahead(&mut self, start: BlockAddr, len: u64) {
            self.0.push((start.0, len));
        }
    }

    fn hints_of(start: u64, len: u64, reads: impl IntoIterator<Item = u64>) -> Vec<(u64, u64)> {
        let mut dev = Hints(Vec::new());
        let mut ra = ScanReadahead::new(BlockAddr(start), len);
        for addr in reads {
            ra.hint(&mut dev, BlockAddr(addr));
        }
        dev.0
    }

    #[test]
    fn a_full_scan_hints_each_chunk_once_as_it_enters_it() {
        assert_eq!(
            hints_of(10, 300, 10..310),
            vec![(10, 128), (138, 128), (266, 44)]
        );
        assert!(hints_of(0, 0, 0..10).is_empty());
    }

    #[test]
    fn a_scan_that_jumps_abandons_the_chunks_it_skipped() {
        // [100, 400) is skipped: chunk [0, 128) was hinted on entry,
        // [128, 256) and [256, 384) are never entered, and 400 lands in
        // the middle of [384, 512), which is hinted whole.
        let reads = (0..100).chain(400..1000);
        assert_eq!(
            hints_of(0, 1000, reads),
            vec![
                (0, 128),
                (384, 128),
                (512, 128),
                (640, 128),
                (768, 128),
                (896, 104)
            ]
        );
    }

    #[test]
    fn reads_outside_the_region_hint_nothing() {
        assert!(hints_of(100, 50, (0..100).chain(150..400)).is_empty());
        // …and leave the cursor alone, below the region or past its end.
        assert_eq!(hints_of(100, 50, [5, 150, 100, 101]), vec![(100, 50)]);
    }

    #[test]
    fn a_region_ending_at_u64_max_does_not_overflow() {
        assert_eq!(
            hints_of(u64::MAX - 10, 100, [u64::MAX - 10, u64::MAX - 1]),
            vec![(u64::MAX - 10, 10)]
        );
    }
}
