//! # ironfs — a reproduction of *IRON File Systems* (SOSP 2005)
//!
//! > "Commodity file systems trust disks to either work or fail
//! > completely, yet modern disks exhibit more complex failure modes."
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`core`] — the fail-partial failure model and IRON taxonomy;
//! * [`blockdev`] — the simulated disk (typed I/O, mechanical timing);
//! * [`faultinject`] — the type-aware fault-injection pseudo-device;
//! * [`vfs`] — the generic file-system layer (POSIX surface, mount state);
//! * [`ext3`], [`reiser`], [`jfs`], [`ntfs`] — behavioral models of the
//!   four commodity file systems, measured failure policies and bugs
//!   included;
//! * [`fsck`] — the fsck issue vocabulary and the transactional
//!   `RRepair`/`RRemap` repair executor; `ext3` holds the checker and
//!   the repairer;
//! * [`ixt3`] — the prototype IRON file system (checksums, replication,
//!   parity, transactional checksums, scrubbing);
//! * [`fingerprint`] — the failure-policy fingerprinting framework
//!   (workloads, campaigns, inference, Figure 2/3 rendering);
//! * [`serve`] — the concurrent multi-client serving layer (request
//!   protocol, sharded path-lock manager, commit-order serial-replay
//!   oracle);
//! * [`cluster`] — replicated multi-disk volumes above the block layer
//!   (write fan-out, primary/round-robin/quorum read policies,
//!   peer-driven repair of divergent replicas);
//! * [`workloads`] — the Table 6 macro-benchmarks and space-overhead
//!   analysis.
//!
//! ## Quickstart
//!
//! ```
//! use ironfs::prelude::*;
//!
//! // Format and mount a full ixt3 (checksums + replication + parity + Tc).
//! let dev = StackBuilder::memdisk(4096).build();
//! let opts = Ext3Options::with_iron(IronConfig::full());
//! let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts)
//!     .expect("mount");
//! let mut v = Vfs::new(fs);
//! v.write_file("/hello.txt", b"don't trust the disk").unwrap();
//! assert_eq!(v.read_file("/hello.txt").unwrap(), b"don't trust the disk");
//! ```
//!
//! See `examples/` for fault injection, crash recovery, and scrubbing
//! walk-throughs, and the `iron-bench` crate for the binaries that
//! regenerate every table and figure of the paper.

#![forbid(unsafe_code)]

pub use iron_blockdev as blockdev;
pub use iron_cluster as cluster;
pub use iron_core as core;
pub use iron_crash as crash;
pub use iron_ext3 as ext3;
pub use iron_faultinject as faultinject;
pub use iron_fingerprint as fingerprint;
pub use iron_fsck as fsck;
pub use iron_ixt3 as ixt3;
pub use iron_jfs as jfs;
pub use iron_ntfs as ntfs;
pub use iron_reiser as reiser;
pub use iron_serve as serve;
pub use iron_vfs as vfs;
pub use iron_workloads as workloads;

/// The cross-crate surface the examples and integration tests of this
/// package share, in one import: build a storage stack, format and mount
/// ext3/ixt3 over it, aim faults at it, fingerprint a file system.
/// Anything else is one `ironfs::<crate>::` path away.
///
/// ```
/// use ironfs::prelude::*;
///
/// let dev = StackBuilder::memdisk(4096)
///     .with_cache(CachePolicy::write_back(256))
///     .build();
/// let opts = Ext3Options::default();
/// let fs = Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
/// let mut v = Vfs::new(fs);
/// v.write_file("/hello", b"hi").unwrap();
/// ```
pub mod prelude {
    pub use iron_core::{Block, BlockAddr, BlockTag, Errno, FaultKind};

    pub use iron_blockdev::{BlockDevice, CachePolicy, MemDisk, RawAccess, StackBuilder};

    pub use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget, FaultyDisk};

    pub use iron_vfs::{FsEnv, SpecificFs, Vfs, VfsError};

    pub use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};

    pub use iron_fingerprint::{
        fingerprint_fs, CampaignOptions, Ext3Adapter, FaultMode, FsUnderTest, JfsAdapter,
        NtfsAdapter, ReiserAdapter, Workload,
    };
}
