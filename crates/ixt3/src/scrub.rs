//! Disk scrubbing: eager detection (§3.2 of the paper).
//!
//! "Disk scrubbing is a classic eager technique used by RAID systems to
//! scan a disk and thereby discover latent sector errors. Disk scrubbing is
//! particularly valuable if a means for recovery is available … If combined
//! with other detection techniques (such as checksums), scrubbing can
//! discover block corruption as well."
//!
//! Our scrubber does both: it walks every checksummed block, detecting
//! latent sector errors via error codes and corruption via the checksum
//! table, and repairs what it can — metadata from the distant replica
//! (`Mr`), file data from parity (`Dp`). The `scrubbing_ablation` bench
//! quantifies the detection-latency benefit using the Monte-Carlo model in
//! `iron-faultinject`.

use iron_blockdev::{BlockDevice, RawAccess, ScanReadahead};
use iron_core::{BlockAddr, BLOCK_SIZE};
use iron_ext3::layout::BlockType;
use iron_ext3::Ext3Fs;
use iron_vfs::SpecificFs;

/// Results of one scrub pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks examined.
    pub scanned: u64,
    /// Latent sector errors discovered (explicit read errors).
    pub latent_errors: u64,
    /// Silent corruptions discovered (checksum mismatches).
    pub corruptions: u64,
    /// Blocks repaired in place (from replica or parity).
    pub repaired: u64,
    /// Blocks found bad with no redundancy to repair from.
    pub unrecoverable: u64,
}

/// Run one scrub pass over the file system.
///
/// Walks every block with a recorded checksum (scrubbing an unchecksummed
/// configuration detects only explicit read errors, exactly as the paper
/// notes for return-code-based scrubbing). Bad metadata blocks are
/// repaired from the replica when `Mr` is active; bad data blocks are
/// reconstructed through the parity path when `Dp` is active.
pub fn scrub<D: BlockDevice + RawAccess>(fs: &mut Ext3Fs<D>) -> ScrubReport {
    let mut report = ScrubReport::default();
    // Scrub verifies the on-medium checksum table against the in-memory
    // one and primaries against the mirror — make both current first.
    fs.flush_cksum_table();
    fs.flush_replicas();
    let layout = *fs.layout();
    let iron = fs.options().iron;

    // Whether an on-medium block is good. Checksum-table blocks carry no
    // self-checksums (entry 0 — that would be recursive), so they are
    // verified byte-for-byte against the authoritative in-memory table
    // (when any checksumming is active at all — an unchecksummed mount
    // never maintains the table); everything else goes through the
    // checksum table.
    fn content_ok<D: BlockDevice + RawAccess>(
        fs: &mut Ext3Fs<D>,
        addr: u64,
        ty: BlockType,
        b: &iron_core::Block,
    ) -> bool {
        if ty == BlockType::CksumTable {
            let iron = fs.options().iron;
            if !(iron.meta_checksum || iron.data_checksum) {
                return true;
            }
            let i = addr - fs.layout().cksum_start;
            *b == fs.cksum_table_block(i)
        } else {
            fs.checksum_entry(addr) == 0 || fs.verify_block(addr, b)
        }
    }

    // Map data blocks to (ino, index) so parity repair has file context.
    let mut owner: std::collections::HashMap<u64, (u64, u64)> = std::collections::HashMap::new();
    if iron.data_parity {
        for ino in 1..=layout.total_inodes() {
            if fs.getattr(ino).is_err() {
                continue;
            }
            if let Ok(blocks) = fs.blocks_of(ino) {
                for (idx, addr) in blocks.into_iter().enumerate() {
                    owner.insert(addr, (ino, idx as u64));
                }
            }
        }
    }

    // The scrub walks the whole device in ascending order; hint each
    // elevator sweep ahead of its reads so the pass streams at media rate.
    // Repair writes invalidate the hint window, which is correct: after a
    // repair the head has moved and the next sweep re-positions anyway.
    let mut ra = ScanReadahead::new(BlockAddr(0), layout.fs_blocks);
    for addr in 0..layout.fs_blocks {
        let ty = layout.classify_static(addr);
        // Only the journal log area is skipped: it is transient, and its
        // blocks are verified transactionally by Tc at recovery time.
        // The checksum table itself *is* scrubbed — a corrupt table block
        // would otherwise turn every covered block into a false
        // corruption verdict on its next read.
        if matches!(ty, BlockType::JournalData | BlockType::JournalSuper) {
            continue;
        }
        report.scanned += 1;

        ra.hint(fs.device_mut(), BlockAddr(addr));
        let outcome = fs.device_mut().read_tagged(BlockAddr(addr), ty.tag());
        let (is_bad, is_latent) = match outcome {
            Err(_) => (true, true),
            Ok(b) => (!content_ok(fs, addr, ty, &b), false),
        };
        if !is_bad {
            continue;
        }
        if is_latent {
            report.latent_errors += 1;
        } else {
            report.corruptions += 1;
        }
        fs.env_ref().klog.warn(
            "ixt3-scrub",
            format!(
                "scrub found {} block {addr} ({})",
                if is_latent { "unreadable" } else { "corrupt" },
                ty.tag()
            ),
        );

        // Attempt repair: find a verified good copy of the block. The
        // checksum table is mirrored like any other metadata (its flush
        // goes through the replica path), so it heals from the replica
        // even though `is_metadata()` excludes it.
        let good = if (ty.is_metadata() || ty == BlockType::CksumTable) && iron.meta_replication {
            let replica = layout.replica_of(addr);
            match fs
                .device_mut()
                .read_tagged(replica, BlockType::Replica.tag())
            {
                Ok(copy) if content_ok(fs, addr, ty, &copy) => Some(copy),
                _ => None,
            }
        } else if ty == BlockType::Data && iron.data_parity {
            // Reading through the file system reconstructs from parity;
            // write the result back in place.
            owner.get(&addr).copied().and_then(|(ino, idx)| {
                fs.read(ino, idx * BLOCK_SIZE as u64, BLOCK_SIZE)
                    .ok()
                    .map(|bytes| iron_core::Block::from_bytes(&bytes))
            })
        } else {
            None
        };

        // Write the good copy back, then *re-read and verify*. A sticky
        // latent error also fails the write-back or the re-read; counting
        // a blind write-back as `repaired` would mis-report an
        // unrecoverable block as healed.
        let repaired = match good {
            Some(block) => {
                fs.device_mut()
                    .write_tagged(BlockAddr(addr), &block, ty.tag())
                    .is_ok()
                    && match fs.device_mut().read_tagged(BlockAddr(addr), ty.tag()) {
                        Ok(after) => after == block,
                        Err(_) => false,
                    }
            }
            None => false,
        };

        if repaired {
            report.repaired += 1;
            fs.env_ref()
                .klog
                .info("ixt3-scrub", format!("block {addr} repaired in place"));
        } else {
            report.unrecoverable += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_blockdev::MemDisk;
    use iron_core::Block;
    use iron_ext3::{Ext3Options, Ext3Params, IronConfig};
    use iron_vfs::{FsEnv, Vfs};

    fn format_and_mount<D: BlockDevice + RawAccess>(dev: D, iron: IronConfig) -> Ext3Fs<D> {
        let opts = Ext3Options::with_iron(iron);
        Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts).unwrap()
    }

    #[test]
    fn clean_disk_scrubs_clean() {
        let mut fs = format_and_mount(MemDisk::for_tests(4096), IronConfig::full());
        let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
        v.write_file("/f", &vec![7u8; 20_000]).unwrap();
        v.sync().unwrap();
        drop(v);
        let report = scrub(&mut fs);
        assert_eq!(report.latent_errors, 0);
        assert_eq!(report.corruptions, 0);
        assert_eq!(report.unrecoverable, 0);
        assert!(report.scanned > 1000);
    }

    #[test]
    fn scrub_detects_and_repairs_corrupt_metadata() {
        let mut fs = format_and_mount(MemDisk::for_tests(4096), IronConfig::full());
        {
            let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
            v.write_file("/f", b"protected").unwrap();
            v.sync().unwrap();
        }
        // Corrupt the inode-table block holding /f's inode, on the medium.
        let (blk, _) = fs.layout().inode_location(3);
        let original = fs.device().peek(blk);
        fs.device_mut().poke(blk, &Block::filled(0xBD));
        let report = scrub(&mut fs);
        assert_eq!(report.corruptions, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(fs.device().peek(blk), original, "primary healed in place");
    }

    #[test]
    fn scrub_repairs_corrupt_data_from_parity() {
        let mut fs = format_and_mount(MemDisk::for_tests(4096), IronConfig::full());
        let data: Vec<u8> = (0..16_000u32).map(|i| (i % 199) as u8).collect();
        {
            let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
            v.write_file("/f", &data).unwrap();
            v.sync().unwrap();
        }
        let victim = fs.blocks_of(3).unwrap()[1];
        let original = fs.device().peek(BlockAddr(victim));
        fs.device_mut()
            .poke(BlockAddr(victim), &Block::filled(0x66));
        let report = scrub(&mut fs);
        assert!(report.corruptions >= 1);
        assert!(report.repaired >= 1);
        assert_eq!(
            fs.device().peek(BlockAddr(victim)),
            original,
            "data block healed from parity"
        );
    }

    /// Regression test for the repair-verification fix: a *sticky* latent
    /// read error cannot be healed by writing the replica back — the
    /// medium still errors on every read. The old code counted the blind
    /// write-back as `repaired`; the scrubber must re-read and count the
    /// block `unrecoverable` instead.
    #[test]
    fn sticky_latent_error_is_unrecoverable_not_repaired() {
        use iron_blockdev::StackBuilder;
        use iron_core::FaultKind;
        use iron_faultinject::{FaultPlan, FaultSpec, FaultStackExt, FaultTarget};

        let plan = FaultPlan::new();
        let ctl = plan.controller();
        let stack = StackBuilder::memdisk(4096).with_faults(plan).build();
        let mut fs = format_and_mount(stack, IronConfig::full());
        {
            let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
            v.write_file("/f", b"protected").unwrap();
            v.sync().unwrap();
        }
        // Sticky read error on the inode-table block holding /f's inode.
        let (blk, _) = fs.layout().inode_location(3);
        ctl.inject(FaultSpec::sticky(
            FaultKind::ReadError,
            FaultTarget::Addr(blk),
        ));
        let report = scrub(&mut fs);
        assert_eq!(report.latent_errors, 1);
        assert_eq!(
            report.repaired, 0,
            "a blind write-back over a sticky error must not count as repair"
        );
        assert_eq!(report.unrecoverable, 1);
    }

    /// Regression test for the skip-predicate fix: the checksum table
    /// itself must be scrubbed (a corrupt table block turns every covered
    /// block into a false corruption verdict) and heals from its replica.
    #[test]
    fn scrub_detects_and_repairs_corrupt_cksum_table_block() {
        let mut fs = format_and_mount(MemDisk::for_tests(4096), IronConfig::full());
        {
            let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
            v.write_file("/f", b"protected").unwrap();
            v.sync().unwrap();
        }
        // Make the table and its mirror current, then corrupt the first
        // table block on the medium.
        fs.flush_cksum_table();
        fs.flush_replicas();
        let addr = BlockAddr(fs.layout().cksum_start);
        let expected = fs.cksum_table_block(0);
        fs.device_mut().poke(addr, &Block::filled(0xEE));
        let report = scrub(&mut fs);
        assert!(report.corruptions >= 1, "table corruption must be seen");
        assert!(report.repaired >= 1, "table block heals from the replica");
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(fs.device().peek(addr), expected, "table healed in place");
    }

    #[test]
    fn scrub_without_checksums_misses_corruption() {
        // Return-code-only scrubbing (no Mc/Dc) discovers block failure but
        // not corruption — §3.2's point.
        let mut fs = format_and_mount(MemDisk::for_tests(4096), IronConfig::off());
        {
            let mut v = Vfs::new(&mut fs as &mut dyn SpecificFs);
            v.write_file("/f", b"unprotected").unwrap();
            v.sync().unwrap();
        }
        let victim = fs.blocks_of(3).unwrap()[0];
        fs.device_mut()
            .poke(BlockAddr(victim), &Block::filled(0x01));
        let report = scrub(&mut fs);
        assert_eq!(report.corruptions, 0, "silent corruption stays silent");
        assert_eq!(report.unrecoverable, 0);
    }
}
