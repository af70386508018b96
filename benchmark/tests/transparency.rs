//! The instrument must not change what it measures.
//!
//! The repo's oracle style (cached ≡ bare, parallel ≡ sequential) applied
//! to the probes: the same request stream on the bare and on the probed
//! stack must give identical replies, a bit-identical replica image,
//! identical counters and identical simulated time on every clock.

use iron_benchmark::campaign::TimedAdapter;
use iron_benchmark::gen::{self, Plan};
use iron_benchmark::probe::Layer;
use iron_benchmark::run::{mount_bare, mount_probed, run_serial, Counters, SerialPass};
use iron_benchmark::stack::{DeviceParts, REPLICAS};
use iron_benchmark::SERVE_WORKLOADS;
use iron_fingerprint::render::render_matrix;
use iron_fingerprint::{fingerprint_fs, CampaignOptions, Ext3Adapter, FaultMode, Workload};
use iron_serve::memdisk_image;

/// The first `n` requests of every client: a prefix of a valid stream is
/// valid, and keeps the debug-build test short.
fn prefix(workload: &str, n: usize) -> Plan {
    let mut plan = gen::generate(workload, 5).expect("a serve-path workload");
    for (s, e) in plan.sessions.iter_mut().zip(&mut plan.expect) {
        s.requests.truncate(n);
        e.truncate(n);
    }
    plan
}

fn images<D: DeviceParts>(dev: &D) -> Vec<Vec<u8>> {
    (0..REPLICAS)
        .map(|i| memdisk_image(dev.replica(i)))
        .collect()
}

fn assert_counters_equal(bare: &Counters, probed: &Counters, when: &str) {
    assert_eq!(bare.sim_ns, probed.sim_ns, "{when}: simulated time");
    assert_eq!(bare.cpu_ns, probed.cpu_ns, "{when}: cpu clock");
    assert_eq!(bare.retry_ns, probed.retry_ns, "{when}: retry clock");
    assert_eq!(bare.replica_ns, probed.replica_ns, "{when}: replica clocks");
    assert_eq!(bare.cache, probed.cache, "{when}: cache counters");
    assert_eq!(bare.retry, probed.retry, "{when}: retry counters");
    assert_eq!(bare.cluster, probed.cluster, "{when}: cluster counters");
    assert_eq!(bare.disks, probed.disks, "{when}: disk counters");
}

fn bare_pass(plan: &Plan) -> (SerialPass, Vec<Vec<u8>>) {
    let mut m = mount_bare(plan);
    let pass = run_serial(&mut m, plan, |fs| fs.device(), None);
    m.vfs.umount().expect("unmount");
    (pass, images(m.vfs.fs().device()))
}

#[test]
fn probes_change_no_reply_no_image_byte_and_no_simulated_ns() {
    for w in SERVE_WORKLOADS {
        let plan = prefix(w, 400);
        let (bare, bare_images) = bare_pass(&plan);

        let (mut m, tracer) = mount_probed(&plan);
        let probed = run_serial(&mut m, &plan, |fs| fs.inner().device(), Some(&tracer));
        m.vfs.umount().expect("unmount");
        let probed_images = images(m.vfs.fs().inner().device());

        assert_eq!(bare.responses, probed.responses, "{w}: replies");
        assert_counters_equal(&bare.before, &probed.before, &format!("{w} before"));
        assert_counters_equal(&bare.after, &probed.after, &format!("{w} after"));
        assert!(bare_images == probed_images, "{w}: replica images differ");
        assert!(
            bare_images.iter().all(|i| *i == bare_images[0]),
            "{w}: mirrors diverged"
        );

        // The spans themselves: one record per request, and self times
        // that add up to the end-to-end simulated time exactly.
        let log = tracer.take();
        assert_eq!(
            log.requests.len(),
            plan.ops(),
            "{w}: one record per request"
        );
        let totals = log.totals();
        let self_sim: u64 = totals.iter().map(|f| f.self_sim_ns).sum();
        assert_eq!(
            self_sim,
            probed.after.sim_ns - probed.before.sim_ns,
            "{w}: per-layer simulated self times"
        );
        let self_host: u64 = totals.iter().map(|f| f.self_host_ns).sum();
        assert_eq!(
            self_host,
            totals[Layer::Serve as usize].host_ns,
            "{w}: per-layer host self times add up to the request spans"
        );
        assert_eq!(totals[Layer::Serve as usize].calls as usize, plan.ops());
    }
}

#[test]
fn a_serial_pass_repeats_exactly() {
    let plan = prefix("postmark", 400);
    let (a, a_images) = bare_pass(&plan);
    let (b, b_images) = bare_pass(&plan);
    assert_eq!(a.responses, b.responses);
    assert_counters_equal(&a.after, &b.after, "second pass");
    assert!(a_images == b_images);
}

#[test]
fn the_timed_adapter_changes_no_fingerprint_cell() {
    let opts = CampaignOptions {
        modes: vec![FaultMode::ReadError, FaultMode::WriteError],
        workloads: vec![Workload::Read, Workload::Creat, Workload::Recovery],
        rows: Vec::new(),
        threads: 1,
    };
    let bare = fingerprint_fs(&Ext3Adapter::ixt3(), &opts);
    let timed_adapter = TimedAdapter::new(Ext3Adapter::ixt3());
    let timed = fingerprint_fs(&timed_adapter, &opts);
    assert_eq!(render_matrix(&bare), render_matrix(&timed));
    assert!(
        timed_adapter.take_sim_ns() > 0,
        "trials ran on a timed disk"
    );
}
