//! [`FaultStackExt`]: slot the fault-injection layer into a
//! [`StackBuilder`] stack.
//!
//! `iron-blockdev` owns the builder but cannot name [`FaultyDisk`]; this
//! extension trait adds `.with_faults(plan)` on top of the generic
//! [`StackBuilder::layer`] hook, so campaign and test code reads as the
//! Figure 1 stack it builds:
//!
//! ```
//! use iron_blockdev::StackBuilder;
//! use iron_faultinject::{FaultPlan, FaultStackExt};
//!
//! let plan = FaultPlan::new();
//! let dev = StackBuilder::memdisk(1024)
//!     .with_faults(plan)
//!     .write_through()
//!     .build();
//! # let _ = dev;
//! ```

use iron_blockdev::{BlockDevice, RawAccess, StackBuilder};
use iron_core::SimClock;

use crate::faulty::FaultyDisk;
use crate::plan::FaultPlan;

/// Extension methods adding fault injection to a [`StackBuilder`] stack.
pub trait FaultStackExt<D: BlockDevice + RawAccess> {
    /// Wrap the stack in a [`FaultyDisk`] consulting `plan`. Place it
    /// directly above the disk, below any cache, exactly where the paper
    /// puts its pseudo-device driver (§4.2).
    fn with_faults(self, plan: FaultPlan) -> StackBuilder<FaultyDisk<D>>;

    /// Like [`Self::with_faults`], but also attaches `clock` so latency
    /// faults ([`iron_core::FaultKind::Slow`]) charge their
    /// extra service time. Pass the same clock the timed disk below
    /// advances, so deadline checks above this layer observe the stall.
    fn with_timed_faults(self, plan: FaultPlan, clock: SimClock) -> StackBuilder<FaultyDisk<D>>;
}

impl<D: BlockDevice + RawAccess> FaultStackExt<D> for StackBuilder<D> {
    fn with_faults(self, plan: FaultPlan) -> StackBuilder<FaultyDisk<D>> {
        self.layer(|dev| FaultyDisk::with_plan(dev, plan))
    }

    fn with_timed_faults(self, plan: FaultPlan, clock: SimClock) -> StackBuilder<FaultyDisk<D>> {
        self.layer(|dev| FaultyDisk::with_plan(dev, plan).with_clock(clock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::CachePolicy;
    use iron_core::{Block, BlockAddr, BlockTag, FaultKind, IoKind};

    use crate::plan::{FaultSpec, FaultTarget};

    #[test]
    fn faults_fire_through_a_built_stack() {
        let plan = FaultPlan::new();
        plan.controller().inject(FaultSpec::sticky(
            FaultKind::ReadError,
            FaultTarget::Tag(BlockTag("data")),
        ));
        let mut dev = StackBuilder::memdisk(64)
            .with_faults(plan)
            .with_cache(CachePolicy::write_back(8))
            .build();
        // Writes pass (only reads are faulted), so the destage succeeds…
        dev.write_tagged(BlockAddr(5), &Block::filled(1), BlockTag("data"))
            .unwrap();
        dev.flush().unwrap();
        // …and an uncached read sees the injected error through the cache.
        let err = dev.read_tagged(BlockAddr(6), BlockTag("data")).unwrap_err();
        assert_eq!(
            err,
            iron_blockdev::DiskError::Io {
                addr: BlockAddr(6),
                kind: IoKind::Read
            }
        );
    }
}
