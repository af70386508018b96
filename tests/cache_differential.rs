//! Differential tests of the full storage stack with and without the
//! buffer cache: a file system mounted over a write-back cache must be
//! observationally identical to the same file system on the bare disk —
//! same syscall results, same on-medium image after unmount — and the
//! write-through mode must preserve fault-injection traces byte for byte.
//!
//! Runs on the in-tree `iron-testkit` harness: every case is generated
//! from a reported seed, so any failure reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};
use ironfs::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Write(u8, Vec<u8>),
    Read(u8),
    Mkdir(u8),
    Unlink(u8),
    Stat(u8),
    Sync,
}

fn path(n: u8) -> String {
    match n % 8 {
        0 => "/a".into(),
        1 => "/b".into(),
        2 => "/dir".into(),
        3 => "/dir/x".into(),
        4 => "/dir/y".into(),
        5 => "/f1".into(),
        6 => "/f2".into(),
        _ => "/f3".into(),
    }
}

fn op_gen() -> impl Gen<Value = Op> {
    gen::one_of(vec![
        (gen::u8_any(), gen::bytes(0..3000))
            .map(|(p, d)| Op::Write(p, d))
            .boxed(),
        gen::u8_any().map(Op::Read).boxed(),
        gen::u8_any().map(Op::Mkdir).boxed(),
        gen::u8_any().map(Op::Unlink).boxed(),
        gen::u8_any().map(Op::Stat).boxed(),
        gen::just(Op::Sync).boxed(),
    ])
}

fn apply<F: SpecificFs>(v: &mut Vfs<F>, op: &Op) -> Result<Vec<u8>, VfsError> {
    match op {
        Op::Write(p, data) => v.write_file(&path(*p), data).map(|()| vec![]),
        Op::Read(p) => v.read_file(&path(*p)),
        Op::Mkdir(p) => v.mkdir(&path(*p), 0o755).map(|_| vec![]),
        Op::Unlink(p) => v.unlink(&path(*p)).map(|()| vec![]),
        Op::Stat(p) => v.stat(&path(*p)).map(|a| a.size.to_le_bytes().to_vec()),
        Op::Sync => v.sync().map(|()| vec![]),
    }
}

fn drive<F: SpecificFs>(mut v: Vfs<F>, ops: &[Op]) -> Vec<String> {
    ops.iter()
        .map(|op| format!("{:?}", apply(&mut v, op)))
        .collect()
}

fn mkfs_image() -> MemDisk {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).unwrap();
    md
}

/// ext3 over a small write-back cache behaves exactly like ext3 on the
/// bare disk, op for op, and unmount leaves the identical medium.
#[test]
fn ext3_over_writeback_cache_matches_bare_disk() {
    let cases = gen::vec_of(op_gen(), 1..40);
    check(
        "ext3_over_writeback_cache_matches_bare_disk",
        Config::cases(40),
        &cases,
        |ops| {
            let image = mkfs_image();

            let bare_fs =
                Ext3Fs::mount(image.snapshot(), FsEnv::new(), Ext3Options::default()).unwrap();
            let mut bare = Vfs::new(bare_fs);

            let cached_dev = StackBuilder::new(image.snapshot())
                .with_cache(CachePolicy::write_back(48))
                .build();
            let cached_fs =
                Ext3Fs::mount(cached_dev, FsEnv::new(), Ext3Options::default()).unwrap();
            let mut cached = Vfs::new(cached_fs);

            for op in ops {
                let a = apply(&mut bare, op);
                let b = apply(&mut cached, op);
                assert_eq!(a, b, "op {op:?} diverged");
            }

            bare.umount().unwrap();
            cached.umount().unwrap();
            let bare_md = bare.into_fs().into_device();
            let cache = cached.into_fs().into_device();
            assert_eq!(cache.dirty_blocks(), 0, "unmount drains the cache");
            let cached_md = cache.into_inner();
            for a in 0..bare_md.num_blocks() {
                assert_eq!(
                    bare_md.peek(BlockAddr(a)),
                    cached_md.peek(BlockAddr(a)),
                    "medium diverged at block {a}"
                );
            }
        },
    );
}

/// With the cache in write-through mode, a fault-armed stack produces the
/// *identical* I/O trace to the same stack without the cache — the
/// property that keeps fingerprinting campaigns byte-exact.
#[test]
fn write_through_preserves_fault_traces_exactly() {
    let cases = gen::vec_of(op_gen(), 1..30);
    check(
        "write_through_preserves_fault_traces_exactly",
        Config::cases(30),
        &cases,
        |ops| {
            let image = mkfs_image();
            let spec = FaultSpec::sticky(
                FaultKind::WriteError,
                FaultTarget::TagNth {
                    tag: BlockTag("inode"),
                    nth: 0,
                },
            );

            let run = |with_cache: bool| {
                let plan = FaultPlan::new();
                plan.controller().inject(spec);
                let faulty = FaultyDisk::with_plan(image.snapshot(), plan);
                let trace = faulty.log();
                let env = FsEnv::new();
                let results = if with_cache {
                    let dev = StackBuilder::new(faulty).write_through().build();
                    match Ext3Fs::mount(dev, env.clone(), Ext3Options::default()) {
                        Ok(fs) => drive(Vfs::new(fs), ops),
                        Err(e) => vec![format!("mount:{e:?}")],
                    }
                } else {
                    match Ext3Fs::mount(faulty, env.clone(), Ext3Options::default()) {
                        Ok(fs) => drive(Vfs::new(fs), ops),
                        Err(e) => vec![format!("mount:{e:?}")],
                    }
                };
                let events: Vec<String> = trace.events().iter().map(|e| e.to_string()).collect();
                (results, events, env.state())
            };

            let (r_bare, t_bare, s_bare) = run(false);
            let (r_cached, t_cached, s_cached) = run(true);
            assert_eq!(r_bare, r_cached, "syscall results diverged");
            assert_eq!(t_bare, t_cached, "I/O traces diverged");
            assert_eq!(s_bare, s_cached, "mount state diverged");
        },
    );
}

/// The lost-write window (§2.2) made concrete: with a write-back cache
/// over a fault-armed disk, the application's write and sync succeed —
/// the failure only surfaces when the cache destages, exactly the hazard
/// the paper describes for errors detected "below the buffer cache".
#[test]
fn writeback_over_faulty_disk_defers_the_write_error() {
    let image = mkfs_image();
    let plan = FaultPlan::new();
    let ctl = plan.controller();
    let dev = StackBuilder::new(image.snapshot())
        .with_faults(plan)
        .with_cache(CachePolicy::write_back(1024))
        .build();
    let fs = Ext3Fs::mount(dev, FsEnv::new(), Ext3Options::default()).unwrap();
    let mut v = Vfs::new(fs);

    // The write itself succeeds unconditionally — it is absorbed by the
    // cache and never touches the (about to fail) disk.
    v.write_file("/doomed", &[7u8; 9000]).unwrap();
    ctl.inject(FaultSpec::sticky(
        FaultKind::WriteError,
        FaultTarget::Tag(BlockTag("data")),
    ));

    // Only sync's destage discovers the failure: the error surfaces at
    // fsync time, blocks after the bad one are still dirty, and an
    // application that never syncs would never hear about it at all.
    let err = v.sync().unwrap_err();
    assert_eq!(err.errno(), Some(Errno::EIO));

    // ext3's unmount ignores the flush error (PAPER-BUG) and tears the
    // stack down with data still trapped above the fault.
    v.umount().expect("unmount ignores the flush failure");
    let mut cache = v.into_fs().into_device();
    assert!(
        cache.dirty_blocks() > 0,
        "the doomed blocks are still dirty"
    );
    let err = cache.destage().unwrap_err();
    assert_eq!(VfsError::from(err).errno(), Some(Errno::EIO));
}
