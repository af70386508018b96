//! [`StackBuilder`]: fluent construction of the storage stack.
//!
//! The paper's Figure 1 stack — disk, fault-injection driver, buffer
//! cache, file system — used to be hand-assembled at every test and bench
//! site. The builder makes the layering explicit and order-checked at the
//! type level:
//!
//! ```
//! use iron_blockdev::{CachePolicy, StackBuilder};
//!
//! let dev = StackBuilder::memdisk(4096)
//!     .with_cache(CachePolicy::write_back(256))
//!     .build();
//! // `dev` is a BufferCache<MemDisk>; mount any SpecificFs over it.
//! # let _ = dev;
//! ```
//!
//! Layers from other crates slot in through [`StackBuilder::layer`]; the
//! fault-injection crate ships a `FaultStackExt` extension trait that adds
//! `.with_faults(plan)` on top of it.

use crate::cache::{BufferCache, CachePolicy};
use crate::device::BlockDevice;
use crate::iolog::{IoLog, Recorder};
use crate::memdisk::MemDisk;
use crate::retry::{RetryConfig, RetryLayer};

/// Builds a device stack bottom-up: start from a disk, wrap layers in
/// order, [`Self::build`] to take the finished device.
pub struct StackBuilder<D> {
    dev: D,
}

impl StackBuilder<MemDisk> {
    /// Start from a perfect in-memory disk with near-instant timing — the
    /// functional-test workhorse.
    pub fn memdisk(num_blocks: u64) -> Self {
        StackBuilder {
            dev: MemDisk::for_tests(num_blocks),
        }
    }
}

impl<D: BlockDevice> StackBuilder<D> {
    /// Start from an existing device (e.g. a golden-image snapshot).
    pub fn new(dev: D) -> Self {
        StackBuilder { dev }
    }

    /// Wrap the stack in an arbitrary layer. This is the extension point
    /// other crates use to insert their devices without `iron-blockdev`
    /// depending on them.
    pub fn layer<E: BlockDevice>(self, wrap: impl FnOnce(D) -> E) -> StackBuilder<E> {
        StackBuilder {
            dev: wrap(self.dev),
        }
    }

    /// Record every request crossing this point into `log`. Place it
    /// directly above a medium to record what crash-state enumeration
    /// reconstructs, below the cache to observe destaged (medium-visible)
    /// traffic, above it to observe what the file system issued.
    pub fn with_recorder(self, log: IoLog) -> StackBuilder<Recorder<D>> {
        self.layer(|dev| Recorder::with_log(dev, log))
    }

    /// Enact device-level failure policy at this point in the stack: a
    /// [`RetryLayer`] that walks the configured escalation chain (bounded
    /// retry with sim-clock backoff, then propagation) and applies the
    /// configured I/O deadline. Place it above the fault-injection layer
    /// and below the cache — where the SCSI mid-layer sits.
    pub fn with_retry(self, config: RetryConfig) -> StackBuilder<RetryLayer<D>> {
        self.layer(|dev| RetryLayer::new(dev, config))
    }

    /// Top the stack with the buffer cache under the given policy.
    pub fn with_cache(self, policy: CachePolicy) -> StackBuilder<BufferCache<D>> {
        self.layer(|dev| BufferCache::new(dev, policy))
    }

    /// Top the stack with the cache in transparent [`CachePolicy::WriteThrough`]
    /// mode — the byte- and trace-exact configuration fingerprinting
    /// campaigns require.
    pub fn write_through(self) -> StackBuilder<BufferCache<D>> {
        self.with_cache(CachePolicy::WriteThrough)
    }

    /// Take the finished device.
    pub fn build(self) -> D {
        self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::RawAccess;
    use iron_core::{Block, BlockAddr};

    #[test]
    fn builder_layers_compose_in_order() {
        let medium_trace = IoLog::new();
        let mut dev = StackBuilder::memdisk(64)
            .with_recorder(medium_trace.clone())
            .with_cache(CachePolicy::write_back(8))
            .build();
        dev.write(BlockAddr(1), &Block::filled(7)).unwrap();
        assert!(
            medium_trace.is_empty(),
            "write absorbed above the medium trace point"
        );
        dev.flush().unwrap();
        assert_eq!(medium_trace.len(), 1, "destage crossed the trace point");
        assert_eq!(dev.inner().inner().peek(BlockAddr(1)), Block::filled(7));
    }

    #[test]
    fn write_through_stack_is_transparent() {
        let trace = IoLog::new();
        let mut dev = StackBuilder::memdisk(16)
            .with_recorder(trace.clone())
            .write_through()
            .build();
        dev.write(BlockAddr(2), &Block::filled(1)).unwrap();
        dev.read(BlockAddr(2)).unwrap();
        dev.read(BlockAddr(2)).unwrap();
        assert_eq!(trace.len(), 3, "every request reached the medium side");
    }

    #[test]
    fn custom_layer_hook() {
        struct Nop<D>(D);
        impl<D: BlockDevice> BlockDevice for Nop<D> {
            fn num_blocks(&self) -> u64 {
                self.0.num_blocks()
            }
            fn read_tagged(
                &mut self,
                addr: BlockAddr,
                tag: iron_core::BlockTag,
            ) -> crate::DiskResult<Block> {
                self.0.read_tagged(addr, tag)
            }
            fn write_tagged(
                &mut self,
                addr: BlockAddr,
                block: &Block,
                tag: iron_core::BlockTag,
            ) -> crate::DiskResult<()> {
                self.0.write_tagged(addr, block, tag)
            }
            fn barrier(&mut self) -> crate::DiskResult<()> {
                self.0.barrier()
            }
            fn flush(&mut self) -> crate::DiskResult<()> {
                self.0.flush()
            }
        }
        let mut dev = StackBuilder::memdisk(8).layer(Nop).build();
        dev.write(BlockAddr(0), &Block::filled(9)).unwrap();
        assert_eq!(dev.read(BlockAddr(0)).unwrap(), Block::filled(9));
    }
}
