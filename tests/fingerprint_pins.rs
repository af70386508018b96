//! Byte-for-byte pins of the two fingerprint axes no result file records:
//! the replica-fault topology matrix (`fingerprint_cluster`) and the fault
//! transience matrix (`transience_matrix`). Each goes through workload
//! output equality, and the cluster axis through `infer` as well, so a
//! change to either moves these digests.
//!
//! The option sets are the smallest that still cover the *read* and *FS
//! recovery* columns and a corruption panel, on stock ext3 and on ixt3,
//! whose replica and parity reads are its `RRedundancy` evidence.

use std::collections::BTreeMap;
use std::fmt::Debug;

use ironfs::core::hash::digest64;
use ironfs::core::BlockTag;
use ironfs::fingerprint::{
    fingerprint_cluster, transience_matrix, ClusterCampaignOptions, Ext3Adapter, FaultMode,
    ReplicaTopology, TransienceOptions, Workload,
};

/// `digest64` of the matrix's `Debug` rendering, cells in key order.
fn digest<K: Ord + Debug, C: Debug>(
    rows: &[BlockTag],
    relevant: usize,
    cells: impl IntoIterator<Item = (K, Option<C>)>,
) -> u64 {
    let cells: BTreeMap<K, Option<C>> = cells.into_iter().collect();
    digest64(format!("{rows:?} {relevant} {cells:?}").as_bytes())
}

#[test]
fn cluster_matrix_is_pinned() {
    let opts = ClusterCampaignOptions {
        topologies: ReplicaTopology::ALL.to_vec(),
        modes: vec![FaultMode::ReadError, FaultMode::Corruption],
        workloads: vec![Workload::Read, Workload::Recovery],
        rows: Vec::new(),
        threads: 0,
    };
    let got: Vec<(&str, u64)> = [Ext3Adapter::stock(), Ext3Adapter::ixt3()]
        .iter()
        .map(|a| {
            let m = fingerprint_cluster(a, &opts);
            (m.fs_name, digest(&m.rows, m.relevant, m.cells))
        })
        .collect();
    let want = [
        ("ext3", 0xAC8E_68DD_ED62_3B61),
        ("ixt3", 0x7AE1_9429_FFBE_C35C),
    ];
    assert_eq!(got, want);
}

#[test]
fn transience_matrix_is_pinned() {
    let opts = TransienceOptions {
        workloads: vec![Workload::Read, Workload::Recovery],
        ..TransienceOptions::default()
    };
    let got: Vec<(&str, u64)> = [Ext3Adapter::stock(), Ext3Adapter::ixt3()]
        .iter()
        .map(|a| {
            let m = transience_matrix(a, &opts);
            (m.fs_name, digest(&m.rows, m.relevant, m.cells))
        })
        .collect();
    let want = [
        ("ext3", 0x0E24_089F_CD92_369A),
        ("ixt3", 0xF202_24DF_1FDE_C4BB),
    ];
    assert_eq!(got, want);
}
