//! The PR's end-to-end acceptance scenario: a sticky corruption injected
//! on **exactly one replica** of a 3-replica ixt3 volume — aimed to
//! defeat ixt3's own internal redundancy by hitting both an inode-table
//! block and its Mr mirror — is detected by quorum read arbitration,
//! masked from the file system, and healed from peers, leaving all three
//! replica images bit-identical and fsck-clean. The *same* damage on a
//! 1-replica volume remains unrecoverable: the paper's single-disk
//! fail-partial world has no peer to arbitrate against.

use iron_blockdev::{BlockDevice, MemDisk, RawAccess};
use iron_cluster::{ReadPolicy, ReplicatedDisk};
use iron_core::{Block, BlockAddr};
use iron_ext3::fsck::FsckIssue;
use iron_ext3::{DiskLayout, Ext3Fs, Ext3Options, Ext3Params, IronConfig, Superblock};
use iron_vfs::{FsEnv, Vfs};

const MARKER: &[u8] = b"quorum arbitration must return exactly these bytes";

fn full() -> Ext3Options {
    Ext3Options::with_iron(IronConfig::full())
}

/// Build a clean full-ixt3 golden image with a marker file, returning the
/// image, the marker's inode number, and the offline layout.
fn golden_ixt3() -> (MemDisk, u64, DiskLayout) {
    let md = MemDisk::for_tests(4096);
    let fs = Ext3Fs::format_and_mount(md, FsEnv::new(), Ext3Params::small(), full()).unwrap();
    let mut v = Vfs::new(fs);
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/marker", MARKER).unwrap();
    let filler: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
    v.write_file("/d/filler", &filler).unwrap();
    let ino = v.stat("/d/marker").unwrap().ino;
    v.umount().unwrap();
    let golden = v.into_fs().into_device();
    let sb = Superblock::decode(&golden.peek(BlockAddr(0))).unwrap();
    let layout = DiskLayout::compute(sb.params());
    (golden, ino, layout)
}

/// Corrupt the marker's inode-table block *and* its Mr mirror on one
/// replica's raw medium — silent corruption that defeats ixt3's own
/// metadata replication on that copy.
fn corrupt_beyond_internal_redundancy(
    disk: &mut MemDisk,
    ino: u64,
    layout: &DiskLayout,
) -> [BlockAddr; 2] {
    let (inode_blk, _) = layout.inode_location(ino);
    let mirror_blk = layout.replica_of(inode_blk.0);
    disk.poke(inode_blk, &Block::filled(0xBD));
    disk.poke(mirror_blk, &Block::filled(0xBD));
    [inode_blk, mirror_blk]
}

#[test]
fn single_replica_corruption_is_detected_and_healed_on_three_replica_volume() {
    let (golden, ino, layout) = golden_ixt3();
    let mut vol = ReplicatedDisk::from_golden(&golden, 3, ReadPolicy::Quorum);
    let hit = corrupt_beyond_internal_redundancy(vol.replica_mut(0), ino, &layout);
    assert!(!vol.replicas_identical());

    // Mount and read through the damage: quorum arbitration masks the
    // corrupt copy, so ixt3 sees clean metadata and serves the file.
    let fs = Ext3Fs::mount(vol, FsEnv::new(), full()).unwrap();
    let mut v = Vfs::new(fs);
    assert_eq!(
        v.read_file("/d/marker").unwrap(),
        MARKER,
        "quorum must mask single-replica corruption from the reader"
    );
    v.umount().unwrap();
    let mut vol = v.into_fs().into_device();

    // Detection happened at the cluster tier, in fsck vocabulary.
    let s = vol.stats().snapshot();
    assert!(
        s.divergences >= 1,
        "arbitration must have flagged replica 0"
    );
    assert!(vol.stats().pending_repairs() >= 1);
    let findings = vol.findings();
    assert!(
        findings
            .iter()
            .any(|f| matches!(f, FsckIssue::ReplicaDivergence { replica: 0, .. })),
        "{findings:?}"
    );

    // Heal what foreground reads queued, then scrub for anything the
    // workload never touched (the filler file's path may not have read
    // both damaged blocks).
    let fg = vol.repair_pending();
    assert!(fg.healed >= 1, "queued divergences must heal from peers");
    assert_eq!(fg.unrecoverable, 0);
    let bg = vol.scrub_repair();
    assert!(bg.all_healed());

    // Converged: bit-identical replicas, each one the golden bytes at the
    // damaged addresses, each one fsck-clean on its own.
    assert!(vol.replicas_identical());
    for addr in hit {
        for i in 0..3 {
            assert_eq!(vol.replica(i).peek(addr), golden.peek(addr));
        }
    }
    for i in 0..3 {
        let report = iron_ext3::fsck::check(vol.replica(i), &layout);
        assert!(
            report.is_clean(),
            "replica {i} must be fsck-clean after peer repair: {:?}",
            report.issues
        );
    }
}

#[test]
fn same_corruption_on_single_replica_volume_is_unrecoverable() {
    let (golden, ino, layout) = golden_ixt3();
    let mut vol = ReplicatedDisk::from_golden(&golden, 1, ReadPolicy::Quorum);
    let hit = corrupt_beyond_internal_redundancy(vol.replica_mut(0), ino, &layout);

    // Offline, the lone image is already damaged beyond ixt3's internal
    // redundancy: both the inode block and its Mr mirror are gone.
    assert!(!iron_ext3::fsck::check(vol.replica(0), &layout).is_clean());

    // A quorum of one is no quorum: the cluster tier cannot even *see*
    // the corruption, let alone source a good copy.
    assert_eq!(vol.read(hit[0]).unwrap(), Block::filled(0xBD));
    assert_eq!(vol.stats().snapshot().divergences, 0);
    let r = vol.scrub_repair();
    assert_eq!(r.healed, 0, "nothing can heal without a peer majority");

    // The file system itself cannot recover either: its scrub finds the
    // damage unrecoverable (mirror is corrupt too), and the marker file
    // cannot be served correctly.
    // (Mount refusing outright would be an equally valid "unrecoverable".)
    if let Ok(fs) = Ext3Fs::mount(vol, FsEnv::new(), full()) {
        let mut v = Vfs::new(fs);
        let got = v.read_file("/d/marker");
        assert!(
            got.is_err() || got.unwrap() != MARKER,
            "a 1-replica volume must not silently serve the marker"
        );
        let mut fs = v.into_fs();
        let sr = iron_ixt3::scrub::scrub(&mut fs);
        assert!(
            sr.unrecoverable >= 1,
            "ixt3 scrub must report the double-corruption unrecoverable: {sr:?}"
        );
        // The medium still does not hold the golden bytes.
        let vol = fs.into_device();
        assert_ne!(vol.replica(0).peek(hit[0]), golden.peek(hit[0]));
    }
}
