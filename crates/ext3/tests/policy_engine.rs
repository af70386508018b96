//! The runtime-configurable failure-policy engine, end to end on ext3:
//! transient faults masked by bounded retry, sticky faults escalated to
//! graceful read-only degradation, checkpoint write retry, runtime policy
//! swap, and deterministic backoff accounting.

use iron_blockdev::MemDisk;
use iron_core::recover::{Backoff, FailurePolicyTable, PolicyHandle, RecoveryAction};
use iron_core::{BlockAddr, BlockTag, Errno, FaultKind, IoKind, SimClock};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, MountState, Vfs};

type Fs = Ext3Fs<FaultyDisk<MemDisk>>;

/// mkfs a MemDisk, wrap it in a FaultyDisk, mount ext3 with `opts`.
fn mount_with(opts: Ext3Options) -> (Vfs<Fs>, FaultController, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).expect("mkfs");
    let faulty = FaultyDisk::new(md);
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), opts).expect("mount");
    (Vfs::new(fs), ctl, env)
}

/// Remount the same device cold (fresh cache, fresh env) with `opts`.
fn remount(v: Vfs<Fs>, opts: Ext3Options) -> (Vfs<Fs>, FsEnv) {
    let dev = v.into_fs().into_device();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(dev, env.clone(), opts).expect("remount");
    (Vfs::new(fs), env)
}

/// A policy whose read chain retries `budget` times then escalates to
/// read-only degradation (instead of stock's propagate).
fn retry_then_degrade(budget: u32, backoff: Backoff) -> PolicyHandle {
    PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            None,
            Some(IoKind::Read),
            None,
            vec![
                RecoveryAction::Retry { budget, backoff },
                RecoveryAction::DegradeReadOnly,
            ],
        ),
    )
}

#[test]
fn transient_fault_of_budget_reachable_depth_is_fully_masked() {
    let (mut v, ctl, env) = mount_with(Ext3Options::default());
    v.write_file("/f", b"masked by retry").unwrap();
    v.sync().unwrap();
    let addr = v.fs_mut().blocks_of(3).unwrap()[0];

    let policy = retry_then_degrade(3, Backoff::none());
    let opts = Ext3Options {
        policy: policy.clone(),
        ..Ext3Options::default()
    };
    let (mut v, env2) = remount(v, opts);
    drop(env);
    // Depth 2 < budget 3: reachable.
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr)),
        2,
    ));
    let trace = v.fs_mut().device().log();
    let mark = trace.len();
    let got = v.read_file("/f").unwrap();
    assert_eq!(got, b"masked by retry", "op succeeds — fault fully masked");
    assert_eq!(env2.state(), MountState::ReadWrite, "no degradation");

    // RRetry observable with > 1 attempt: 2 failures + 1 success.
    let attempts = trace
        .since(mark)
        .iter()
        .filter(|e| e.addr == BlockAddr(addr) && e.kind == IoKind::Read)
        .count();
    assert_eq!(attempts, 3, "1 initial + 2 re-issues");
    let c = policy.counters().snapshot();
    assert_eq!(c.retries, 2);
    assert_eq!(c.masked, 1);
    assert_eq!(c.degrades, 0);
    assert!(env2.klog.contains("policy action retry: data read"));
}

#[test]
fn same_fault_made_sticky_escalates_to_degrade_read_only() {
    let (mut v, ctl, env) = mount_with(Ext3Options::default());
    v.write_file("/healthy", b"pre-degradation bytes").unwrap(); // ino 3
    v.write_file("/victim", b"doomed").unwrap(); // ino 4
    v.sync().unwrap();
    let victim_addr = v.fs_mut().blocks_of(4).unwrap()[0];

    let policy = retry_then_degrade(3, Backoff::none());
    let opts = Ext3Options {
        policy: policy.clone(),
        ..Ext3Options::default()
    };
    let (mut v, env2) = remount(v, opts);
    drop(env);
    // The same fault, sticky: budget exhausts, chain escalates.
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(victim_addr)),
    ));
    let err = v.read_file("/victim").unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));
    assert_eq!(
        env2.state(),
        MountState::ReadOnly,
        "chain escalated through retry to DegradeReadOnly"
    );
    assert!(env2.klog.contains("ext3_abort"));
    let c = policy.counters().snapshot();
    assert_eq!(c.retries, 3, "full budget spent first");
    assert_eq!(c.exhausted, 1);
    assert_eq!(c.degrades, 1);

    // After degradation: reads still served…
    assert_eq!(v.read_file("/healthy").unwrap(), b"pre-degradation bytes");
    // …writes return EROFS.
    let werr = v.write_file("/new", b"x").unwrap_err();
    assert_eq!(werr.errno(), Some(Errno::EROFS));
    let werr = v.unlink("/healthy").unwrap_err();
    assert_eq!(werr.errno(), Some(Errno::EROFS));
}

#[test]
fn degraded_mode_serves_all_pre_degradation_data_intact() {
    let (mut v, ctl, env) = mount_with(Ext3Options::default());
    v.write_file("/victim", b"trigger").unwrap(); // ino 3
    let mut expected = Vec::new();
    for i in 0..8u8 {
        let path = format!("/file{i}");
        let body: Vec<u8> = (0..1024u32).map(|j| (j as u8) ^ i).collect();
        v.write_file(&path, &body).unwrap();
        expected.push((path, body));
    }
    v.sync().unwrap();
    let victim_addr = v.fs_mut().blocks_of(3).unwrap()[0];

    let opts = Ext3Options {
        policy: retry_then_degrade(1, Backoff::none()),
        ..Ext3Options::default()
    };
    let (mut v, env2) = remount(v, opts);
    drop(env);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(victim_addr)),
    ));
    assert!(v.read_file("/victim").is_err());
    assert_eq!(env2.state(), MountState::ReadOnly);

    // Every byte written before the degradation is still served intact.
    for (path, body) in &expected {
        assert_eq!(&v.read_file(path).unwrap(), body, "{path} intact");
    }
    // And the namespace still lists everything.
    let names = v.readdir("/").unwrap();
    assert!(names.iter().any(|e| e.name == "file7"));
}

/// Property form of the test above: whatever the pre-degradation file
/// set looks like — any count, any sizes, any contents — the degraded
/// read-only mount serves every byte of it intact.
#[test]
fn degraded_mode_preserves_any_generated_file_set() {
    use iron_testkit::gen;
    use iron_testkit::prop::{check, Config};

    let cases = gen::vec_of((gen::usize_in(1..30_000), gen::u8_any()), 1..10);
    check(
        "degraded_mode_preserves_any_generated_file_set",
        Config::cases(12),
        &cases,
        |files| {
            let (mut v, ctl, env) = mount_with(Ext3Options::default());
            v.write_file("/victim", b"trigger").unwrap(); // ino 3
            let mut expected = Vec::new();
            for (i, (len, seed)) in files.iter().enumerate() {
                let path = format!("/f{i}");
                let body: Vec<u8> = (0..*len)
                    .map(|j| (j as u8).wrapping_mul(31).wrapping_add(*seed))
                    .collect();
                v.write_file(&path, &body).unwrap();
                expected.push((path, body));
            }
            v.sync().unwrap();
            let victim_addr = v.fs_mut().blocks_of(3).unwrap()[0];

            let opts = Ext3Options {
                policy: retry_then_degrade(1, Backoff::none()),
                ..Ext3Options::default()
            };
            let (mut v, env2) = remount(v, opts);
            drop(env);
            ctl.inject(FaultSpec::sticky(
                FaultKind::ReadError,
                FaultTarget::Addr(BlockAddr(victim_addr)),
            ));
            assert!(v.read_file("/victim").is_err());
            assert_eq!(env2.state(), MountState::ReadOnly);
            for (path, body) in &expected {
                assert_eq!(&v.read_file(path).unwrap(), body, "{path} intact");
            }
        },
    );
}

#[test]
fn stock_rretry_cell_is_produced_by_the_policy_engine() {
    // The stock one-shot data-read retry now routes through the table:
    // removing the Retry rung removes the second attempt.
    let (mut v, ctl, env) = mount_with(Ext3Options::default());
    v.write_file("/f", b"no retry left").unwrap();
    v.sync().unwrap();
    let addr = v.fs_mut().blocks_of(3).unwrap()[0];

    let no_retry = PolicyHandle::new(FailurePolicyTable::with_default(vec![
        RecoveryAction::Propagate,
    ]));
    let (mut v, _env2) = remount(
        v,
        Ext3Options {
            policy: no_retry,
            ..Ext3Options::default()
        },
    );
    drop(env);
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr)),
    ));
    let trace = v.fs_mut().device().log();
    let mark = trace.len();
    assert!(v.read_file("/f").is_err());
    let attempts = trace
        .since(mark)
        .iter()
        .filter(|e| e.addr == BlockAddr(addr) && e.kind == IoKind::Read)
        .count();
    assert_eq!(attempts, 1, "no Retry rung, no second attempt");
}

#[test]
fn runtime_policy_swap_widens_the_budget_mid_mount() {
    let (mut v, ctl, env) = mount_with(Ext3Options::default());
    v.write_file("/a", b"first").unwrap(); // ino 3
    v.write_file("/b", b"second").unwrap(); // ino 4
    v.sync().unwrap();
    let (addr_a, addr_b) = {
        let fs = v.fs_mut();
        (fs.blocks_of(3).unwrap()[0], fs.blocks_of(4).unwrap()[0])
    };

    let opts = Ext3Options::default(); // stock: data-read budget 1
    let handle = opts.policy.clone();
    let (mut v, env2) = remount(v, opts);
    drop(env);

    // Depth 2 beats stock's budget of 1: propagates.
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr_a)),
        2,
    ));
    assert!(v.read_file("/a").is_err());

    // Swap the table at runtime through the shared handle…
    handle.set(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            None,
            Some(IoKind::Read),
            None,
            vec![
                RecoveryAction::Retry {
                    budget: 4,
                    backoff: Backoff::none(),
                },
                RecoveryAction::Propagate,
            ],
        ),
    );
    // …and the same depth-2 fault is now masked.
    ctl.inject(FaultSpec::transient(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(addr_b)),
        2,
    ));
    assert_eq!(v.read_file("/b").unwrap(), b"second");
    assert_eq!(env2.state(), MountState::ReadWrite);
}

#[test]
fn backoff_is_charged_deterministically_to_the_cpu_clock() {
    let run = || {
        let (mut v, ctl, env) = mount_with(Ext3Options::default());
        v.write_file("/f", b"backoff").unwrap();
        v.sync().unwrap();
        let addr = v.fs_mut().blocks_of(3).unwrap()[0];

        let clock = SimClock::new();
        let policy = retry_then_degrade(3, Backoff::exponential(1_000, 2, 1_000_000));
        let counters = policy.counters().clone();
        let opts = Ext3Options {
            policy,
            cpu_clock: Some(clock.clone()),
            ..Ext3Options::default()
        };
        let (mut v, _env2) = remount(v, opts);
        drop(env);
        ctl.inject(FaultSpec::transient(
            FaultKind::ReadError,
            FaultTarget::Addr(BlockAddr(addr)),
            3,
        ));
        let t0 = clock.now_ns();
        v.read_file("/f").unwrap();
        (clock.now_ns() - t0, counters.snapshot().backoff_ns)
    };
    let (t1, b1) = run();
    let (t2, b2) = run();
    assert_eq!(b1, 1_000 + 2_000 + 4_000, "1k + 2k + 4k exponential");
    assert_eq!(t1, b1, "cpu clock advanced by exactly the backoff");
    assert_eq!((t1, b1), (t2, b2), "bit-identical across runs");
}

#[test]
fn checkpoint_write_retry_masks_a_transient_fault_without_abort() {
    // fix_bugs notices checkpoint write failures; a policy with a
    // metadata-write Retry rung masks a transient one instead of
    // aborting the journal.
    let iron = IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    };
    let policy = PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            None,
            Some(IoKind::Write),
            None,
            vec![
                RecoveryAction::Retry {
                    budget: 2,
                    backoff: Backoff::none(),
                },
                RecoveryAction::DegradeReadOnly,
            ],
        ),
    );
    let opts = Ext3Options {
        iron,
        policy: policy.clone(),
        ..Ext3Options::default()
    };
    let (mut v, ctl, env) = mount_with(opts);
    // Journal writes carry j-* tags, so an inode-tagged write fault hits
    // exactly the checkpoint home-location write, not the log.
    ctl.inject(FaultSpec::transient(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("inode")),
        1,
    ));
    v.write_file("/f", b"checkpointed").unwrap();
    v.sync().unwrap();
    assert_eq!(env.state(), MountState::ReadWrite, "no abort: masked");
    assert!(!env.klog.contains("ext3_abort"));
    let c = policy.counters().snapshot();
    assert!(c.masked >= 1, "checkpoint re-issue succeeded: {c:?}");

    // The same fault sticky exhausts the budget and degrades.
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    v.write_file("/g", b"doomed").unwrap();
    let _ = v.sync();
    assert_eq!(env.state(), MountState::ReadOnly, "sticky fault degrades");
    assert!(env.klog.contains("ext3_abort"));
}

#[test]
fn checkpoint_write_chain_ending_in_stop_halts_the_machine() {
    // The checkpoint site enacts the whole metadata-write chain, not just
    // its leading Retry rungs: a sticky fault runs the budget out, and the
    // terminal Stop panics instead of aborting the journal.
    let iron = IronConfig {
        fix_bugs: true,
        ..IronConfig::off()
    };
    let policy = PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            Some(BlockTag("inode")),
            Some(IoKind::Write),
            None,
            vec![
                RecoveryAction::Retry {
                    budget: 2,
                    backoff: Backoff::none(),
                },
                RecoveryAction::Stop,
            ],
        ),
    );
    let opts = Ext3Options {
        iron,
        policy: policy.clone(),
        ..Ext3Options::default()
    };
    let (mut v, ctl, env) = mount_with(opts);
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    let trace = v.fs_mut().device().log();
    v.write_file("/f", b"never home").unwrap();
    assert!(v.sync().unwrap_err().is_panic());
    assert_eq!(env.state(), MountState::Crashed);
    assert!(env.klog.contains("unrecoverable checkpoint write"));
    assert!(!env.klog.contains("ext3_abort"), "stopped, not degraded");
    let c = policy.counters().snapshot();
    assert_eq!((c.retries, c.exhausted, c.stops, c.degrades), (2, 1, 1, 0));
    // 1 + budget attempts at the one inode block, and nothing after it.
    let events = trace.events();
    let attempts = events
        .iter()
        .filter(|e| e.tag == BlockTag("inode") && e.kind == IoKind::Write);
    assert_eq!(attempts.count(), 3);
    assert_eq!(events.last().unwrap().tag, BlockTag("inode"));
}

/// Full ixt3 over a faulty disk formatted with the metadata mirror, with a
/// sticky write fault on `tag` armed before the mount and `policy` as the
/// table.
fn full_ixt3_with_write_fault(tag: &'static str, policy: PolicyHandle) -> (Vfs<Fs>, FsEnv) {
    let mut md = MemDisk::for_tests(4096);
    let params = Ext3Params {
        mirror_metadata: true,
        ..Ext3Params::small()
    };
    Ext3Fs::<MemDisk>::mkfs(&mut md, params).expect("mkfs");
    let faulty = FaultyDisk::new(md);
    faulty.controller().inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag(tag)),
    ));
    let env = FsEnv::new();
    let opts = Ext3Options {
        policy,
        ..Ext3Options::with_iron(IronConfig::full())
    };
    let fs = Ext3Fs::mount(faulty, env.clone(), opts).expect("mount");
    (Vfs::new(fs), env)
}

#[test]
fn stock_table_degrades_every_checked_write_site_the_same_way() {
    // Under the stock table every checked write's chain is a bare
    // `DegradeReadOnly`: the journal aborts in the site's own words and the
    // mount goes read-only. The first operation to fail reports EROFS when
    // the abort came at mount time, EIO when the operation hit the fault.
    let cases = [
        ("cksum", Errno::EROFS, "checksum table write"),
        ("m-replica", Errno::EROFS, "replica write"),
        ("d-parity", Errno::EIO, "parity write"),
        ("j-super", Errno::EIO, "journal superblock write"),
    ];
    for (tag, errno, what) in cases {
        let policy = Ext3Options::default().policy;
        let (mut v, env) = full_ixt3_with_write_fault(tag, policy.clone());
        let err = v
            .write_file("/f", b"under a write fault")
            .and_then(|_| v.sync())
            .unwrap_err();
        assert_eq!(err.errno(), Some(errno), "{tag}");
        assert_eq!(env.state(), MountState::ReadOnly, "{tag}");
        let line = format!("ext3_abort called: {what} failure");
        assert!(env.klog.contains(&line), "{tag}: no `{line}`");
        let c = policy.counters().snapshot();
        assert_eq!((c.degrades, c.retries, c.stops), (1, 0, 0), "{tag}");
    }
}

#[test]
fn a_write_retry_rung_masks_a_transient_journal_superblock_fault() {
    let policy = PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            None,
            Some(IoKind::Write),
            None,
            vec![
                RecoveryAction::Retry {
                    budget: 1,
                    backoff: Backoff::none(),
                },
                RecoveryAction::DegradeReadOnly,
            ],
        ),
    );
    let opts = Ext3Options {
        policy: policy.clone(),
        ..Ext3Options::with_iron(IronConfig::full())
    };
    let faulty = FaultyDisk::new(MemDisk::for_tests(4096));
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::format_and_mount(faulty, env.clone(), Ext3Params::small(), opts)
        .expect("format and mount");
    let mut v = Vfs::new(fs);
    // The commit's dirty journal superblock fails once; its re-issue lands.
    ctl.inject(FaultSpec::transient(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("j-super")),
        1,
    ));
    v.write_file("/f", b"committed").unwrap();
    v.sync().unwrap();
    assert_eq!(env.state(), MountState::ReadWrite, "masked, not aborted");
    assert!(!env.klog.contains("ext3_abort"));
    let c = policy.counters().snapshot();
    assert!(c.masked >= 1, "the re-issue landed: {c:?}");
    assert_eq!(v.read_file("/f").unwrap(), b"committed");
}

#[test]
fn a_stop_row_on_replica_writes_halts_the_machine() {
    let policy = PolicyHandle::new(
        FailurePolicyTable::with_default(vec![RecoveryAction::Propagate]).rule(
            Some(BlockTag("m-replica")),
            Some(IoKind::Write),
            None,
            vec![RecoveryAction::Stop],
        ),
    );
    let (_v, env) = full_ixt3_with_write_fault("m-replica", policy.clone());
    assert_eq!(env.state(), MountState::Crashed, "stopped, not degraded");
    assert!(env.klog.contains("unrecoverable replica write"));
    assert!(!env.klog.contains("ext3_abort"));
    let c = policy.counters().snapshot();
    assert_eq!((c.stops, c.degrades), (1, 0));
}
