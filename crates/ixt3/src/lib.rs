//! # iron-ixt3
//!
//! **ixt3** — the paper's prototype IRON file system (§6): "Within ixt3, we
//! investigate the costs of using checksums to detect data corruption,
//! replication to provide redundancy for metadata structures, and parity
//! protection for user data."
//!
//! The mechanisms themselves live in the shared engine in `iron-ext3`
//! (ixt3 *is* a modified ext3 — the paper built it by embellishing ext3,
//! and so do we). This crate provides:
//!
//! * [`Ixt3Fs`] — the prototype's name: an alias, mounted like any ext3
//!   (`Ixt3Fs::format_and_mount` with an `IronConfig`);
//! * [`scrub`] — a disk scrubber implementing *eager* detection (§3.2):
//!   walk the device, verify checksums, and repair bad blocks from
//!   replicas/parity before a reader ever trips over them;
//! * the ixt3-specific test suite (robustness under §6.2's fault matrix).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scrub;

use iron_ext3::Ext3Fs;

/// The ixt3 file system: an [`Ext3Fs`] with IRON mechanisms enabled.
///
/// ixt3 is not a distinct on-disk format — it is ext3 plus checksum
/// tables, a metadata mirror, and per-file parity, all laid out by the same
/// `mkfs`. Any [`iron_ext3::IronConfig`] combination can be mounted (the
/// paper's Table 6 sweeps all 32) through the one spelling every ext3
/// mount uses, [`Ext3Fs::format_and_mount`], which reserves the mirror iff
/// the configuration replicates metadata; `IronConfig::full()` is the
/// Figure 3 configuration.
pub type Ixt3Fs<D> = Ext3Fs<D>;

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::MemDisk;
    use iron_ext3::{Ext3Options, Ext3Params, IronConfig};
    use iron_vfs::{FsEnv, Vfs};

    #[test]
    fn full_mount_round_trip() {
        let dev = MemDisk::for_tests(4096);
        let opts = Ext3Options::with_iron(IronConfig::full());
        let fs = Ixt3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap();
        let mut v = Vfs::new(fs);
        v.write_file("/x", b"ixt3").unwrap();
        assert_eq!(v.read_file("/x").unwrap(), b"ixt3");
        assert!(v.fs().options().iron.meta_replication);
        assert!(v.fs().layout().params.mirror_metadata);
    }
}
