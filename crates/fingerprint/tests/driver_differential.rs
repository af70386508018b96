//! Differentials across the campaign's axes.
//!
//! The fault-mode, transience and cluster campaigns ride one driver, so the
//! degenerate point of each newer axis must reproduce the Figure 2 campaign:
//! a one-replica "cluster" is a single disk, and a sticky read fault below
//! a retry layer is still a sticky read fault. These run the full Figure-2
//! options on stock ext3 and ixt3.

use iron_fingerprint::{
    fingerprint_cluster, fingerprint_fs, transience_matrix, CampaignOptions,
    ClusterCampaignOptions, Ext3Adapter, FaultMode, FaultTransience, FsUnderTest, PolicyMatrix,
    ReplicaTopology, TransienceOptions,
};

fn each_cell(m: &PolicyMatrix) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    let (rows, cols) = (m.rows.len(), m.cols.len());
    (0..m.modes.len())
        .flat_map(move |mi| (0..rows).flat_map(move |ri| (0..cols).map(move |ci| (mi, ri, ci))))
}

/// The file system's reaction must be inferred from what it did *during
/// the workload*: the cluster axis's post-run unmount and peer repair may
/// not leak into `fs_cell`. (Before the drivers were unified the cluster
/// copy read the mount state after unmounting, and `RStop` vanished from
/// 48 stock-ext3 and 27 ixt3 cells.)
#[test]
fn single_replica_cluster_reproduces_the_figure2_matrix() {
    let single = ReplicaTopology::ALL[0];
    assert_eq!((single.name, single.replicas), ("single", 1));
    for adapter in [Ext3Adapter::stock(), Ext3Adapter::ixt3()] {
        let fs = fingerprint_fs(&adapter, &CampaignOptions::default());
        let cluster = fingerprint_cluster(
            &adapter,
            &ClusterCampaignOptions {
                topologies: vec![single],
                ..ClusterCampaignOptions::default()
            },
        );
        assert_eq!(cluster.relevant, fs.relevant, "{}", adapter.name());
        for (mi, ri, ci) in each_cell(&fs) {
            assert_eq!(
                cluster.cell(0, mi, ri, ci).and_then(|c| c.fs_cell),
                fs.cell(mi, ri, ci),
                "{}: {:?} × {} × {:?}",
                adapter.name(),
                fs.modes[mi],
                fs.rows[ri],
                fs.cols[ci],
            );
        }
    }
}

/// The arming discipline (disarm across mount unless the workload is
/// special, re-arm the same fault for the workload) is shared: a sticky
/// read fault fires in exactly the cells where Figure 2's read-failure
/// panel is not gray, retry layer or not.
#[test]
fn sticky_transience_fires_exactly_where_read_errors_fire() {
    for adapter in [Ext3Adapter::stock(), Ext3Adapter::ixt3()] {
        let fs = fingerprint_fs(
            &adapter,
            &CampaignOptions {
                modes: vec![FaultMode::ReadError],
                ..CampaignOptions::default()
            },
        );
        let sticky = transience_matrix(
            &adapter,
            &TransienceOptions {
                transiences: vec![FaultTransience::Sticky],
                ..TransienceOptions::default()
            },
        );
        assert!(fs.relevant > 0);
        assert_eq!(sticky.relevant, fs.relevant, "{}", adapter.name());
        for (mi, ri, ci) in each_cell(&fs) {
            assert_eq!(
                sticky.cell(mi, ri, ci).is_some(),
                fs.cell(mi, ri, ci).is_some(),
                "{}: {} × {:?}",
                adapter.name(),
                fs.rows[ri],
                fs.cols[ci],
            );
        }
    }
}
