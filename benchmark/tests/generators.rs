//! The generators are pure functions of the seed, seeds matter, and every
//! generated request succeeds with the reply the shadow model expects — on
//! `RamFs`, so the check does not lean on the file systems under test.

use iron_benchmark::gen::{self, Plan};
use iron_benchmark::run::prepopulate;
use iron_benchmark::SERVE_WORKLOADS;
use iron_serve::{serve, ServeOptions};
use iron_vfs::ramfs::RamFs;
use iron_vfs::Vfs;

fn plan(workload: &str, seed: u64) -> Plan {
    gen::generate(workload, seed).expect("a serve-path workload")
}

fn assert_all_replies_expected(plan: &Plan, threads: usize) {
    let mut vfs = Vfs::new(RamFs::new());
    prepopulate(&mut vfs, &plan.prep);
    let opts = ServeOptions::default().with_threads(threads);
    let report = serve(&mut vfs, &plan.sessions, &opts);
    for (s, replies) in report.responses.iter().enumerate() {
        assert_eq!(replies.len(), plan.expect[s].len());
        for (i, reply) in replies.iter().enumerate() {
            assert!(
                plan.expect[s][i].met_by(reply),
                "session {s} request {i} {:?}: expected {:?}, got {reply:?}",
                plan.sessions[s].requests[i],
                plan.expect[s][i],
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_plan() {
    for w in SERVE_WORKLOADS {
        assert!(plan(w, 7) == plan(w, 7), "{w}");
    }
}

#[test]
fn different_seeds_give_different_streams_of_equal_size() {
    for w in SERVE_WORKLOADS {
        let (a, b) = (plan(w, 7), plan(w, 8));
        assert!(a.sessions != b.sessions, "{w}: seeds 7 and 8 agree");
        assert_eq!(a.ops(), b.ops(), "{w}: stratified counts");
    }
}

#[test]
fn every_one_client_request_succeeds_on_ramfs_as_the_shadow_model_says() {
    for w in ["postmark", "tpcb", "webread"] {
        let p = plan(w, 11);
        assert_eq!((p.sessions.len(), p.threads), (1, 1), "{w}");
        assert_all_replies_expected(&p, 1);
    }
}

#[test]
fn multiclient_requests_succeed_serially_and_concurrently() {
    let p = plan("multiclient", 11);
    assert_eq!((p.sessions.len(), p.threads), (2, 2));
    assert_all_replies_expected(&p, 1);
    assert_all_replies_expected(&p, 2);
}

#[test]
fn workloads_are_sized_as_documented() {
    let kib = |bytes: u64| bytes / 1024;
    let web = plan("webread", 1);
    let site: u64 = web
        .prep
        .iter()
        .map(|p| match p {
            gen::Prep::File { len, .. } => *len as u64,
            gen::Prep::Dir(_) => 0,
        })
        .sum();
    // Larger than both caches together (8 MiB + 16 MiB).
    assert!(kib(site) > 40 * 1024, "webread site is {} KiB", kib(site));
    assert_eq!(web.user_bytes_written(), 0, "webread writes nothing");
    assert_eq!(plan("tpcb", 1).ops() % 6, 0, "six requests per TPC-B txn");
}
