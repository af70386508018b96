//! Property-based differential testing: arbitrary operation sequences are
//! applied both to the ext3 model and to the in-memory reference
//! (`RamFs`); every observable result must agree, and the ext3 image must
//! pass `fsck` afterwards — on a healthy disk *and* across a
//! crash-and-recover cycle.
//!
//! Runs on the in-tree `iron-testkit` harness: a failure prints its case
//! seed and reruns deterministically with
//! `IRON_TESTKIT_SEED=<seed> cargo test -q <test_name>`.

use iron_blockdev::MemDisk;
use iron_ext3::{fsck, Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_testkit::gen::{self, Gen};
use iron_testkit::prop::{check, Config};
use iron_vfs::{ramfs::RamFs, FsEnv, SpecificFs, Vfs, VfsError};

/// A file-system operation over a small namespace.
#[derive(Clone, Debug)]
enum Op {
    Create(u8),
    Mkdir(u8),
    Write(u8, u16, Vec<u8>),
    Truncate(u8, u16),
    Read(u8),
    Unlink(u8),
    Rmdir(u8),
    Rename(u8, u8),
    Link(u8, u8),
    Symlink(u8, u8),
    Stat(u8),
    Readdir(u8),
    Sync,
}

fn path(n: u8) -> String {
    // A small namespace mixing root-level and nested names.
    match n % 12 {
        0 => "/a".into(),
        1 => "/b".into(),
        2 => "/c".into(),
        3 => "/dir".into(),
        4 => "/dir/x".into(),
        5 => "/dir/y".into(),
        6 => "/dir/sub".into(),
        7 => "/dir/sub/z".into(),
        8 => "/f1".into(),
        9 => "/f2".into(),
        10 => "/dir/f3".into(),
        _ => "/dir/sub/f4".into(),
    }
}

fn op_gen() -> impl Gen<Value = Op> {
    gen::one_of(vec![
        gen::u8_any().map(Op::Create).boxed(),
        gen::u8_any().map(Op::Mkdir).boxed(),
        (gen::u8_any(), gen::u16_any(), gen::bytes(0..2048))
            .map(|(p, o, d)| Op::Write(p, o % 8192, d))
            .boxed(),
        (gen::u8_any(), gen::u16_any())
            .map(|(p, s)| Op::Truncate(p, s % 8192))
            .boxed(),
        gen::u8_any().map(Op::Read).boxed(),
        gen::u8_any().map(Op::Unlink).boxed(),
        gen::u8_any().map(Op::Rmdir).boxed(),
        (gen::u8_any(), gen::u8_any())
            .map(|(a, b)| Op::Rename(a, b))
            .boxed(),
        (gen::u8_any(), gen::u8_any())
            .map(|(a, b)| Op::Link(a, b))
            .boxed(),
        (gen::u8_any(), gen::u8_any())
            .map(|(a, b)| Op::Symlink(a, b))
            .boxed(),
        gen::u8_any().map(Op::Stat).boxed(),
        gen::u8_any().map(Op::Readdir).boxed(),
        gen::just(Op::Sync).boxed(),
    ])
}

fn ops_gen(max_len: usize) -> impl Gen<Value = Vec<Op>> {
    gen::vec_of(op_gen(), 1..max_len)
}

fn apply<F: SpecificFs>(v: &mut Vfs<F>, op: &Op) -> Result<Vec<u8>, VfsError> {
    match op {
        Op::Create(p) => v
            .creat(&path(*p))
            .and_then(|fd| v.close(fd))
            .map(|_| vec![]),
        Op::Mkdir(p) => v.mkdir(&path(*p), 0o755).map(|_| vec![]),
        Op::Write(p, off, data) => {
            let fd = v.open(&path(*p), iron_vfs::OpenFlags::rdwr())?;
            let r = v.pwrite(fd, *off as u64, data);
            v.close(fd)?;
            r.map(|n| n.to_le_bytes().to_vec())
        }
        Op::Truncate(p, s) => v.truncate(&path(*p), *s as u64).map(|_| vec![]),
        Op::Read(p) => v.read_file(&path(*p)),
        Op::Unlink(p) => v.unlink(&path(*p)).map(|_| vec![]),
        Op::Rmdir(p) => v.rmdir(&path(*p)).map(|_| vec![]),
        Op::Rename(a, b) => v.rename(&path(*a), &path(*b)).map(|_| vec![]),
        Op::Link(a, b) => v.link(&path(*a), &path(*b)).map(|_| vec![]),
        Op::Symlink(a, b) => v.symlink(&path(*a), &path(*b)).map(|_| vec![]),
        Op::Stat(p) => v.stat(&path(*p)).map(|a| {
            // Directory sizes are representation-specific (ext3 counts
            // blocks, the reference counts nothing): compare 0 for dirs.
            let size = if a.ftype == iron_vfs::FileType::Directory {
                0
            } else {
                a.size
            };
            let mut out = size.to_le_bytes().to_vec();
            out.push(a.nlink as u8);
            out.push(match a.ftype {
                iron_vfs::FileType::Regular => 0,
                iron_vfs::FileType::Directory => 1,
                iron_vfs::FileType::Symlink => 2,
            });
            out
        }),
        Op::Readdir(p) => v.readdir(&path(*p)).map(|es| {
            let mut names: Vec<String> = es.into_iter().map(|e| e.name).collect();
            names.sort();
            names.join(",").into_bytes()
        }),
        Op::Sync => v.sync().map(|_| vec![]),
    }
}

fn run_differential(ops: &[Op], iron: IronConfig, crash_and_recover: bool) {
    let dev = MemDisk::for_tests(4096);
    let opts = Ext3Options::with_iron(iron);
    let fs =
        Ext3Fs::format_and_mount(dev, FsEnv::new(), Ext3Params::small(), opts.clone()).unwrap();
    let mut ext3 = Vfs::new(fs);
    let mut ram = Vfs::new(RamFs::new());

    for op in ops {
        let a = apply(&mut ext3, op);
        let b = apply(&mut ram, op);
        match (&a, &b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "divergent success on {op:?}"),
            (Err(x), Err(y)) => assert_eq!(
                x.errno(),
                y.errno(),
                "divergent errno on {op:?}: ext3={x:?} ram={y:?}"
            ),
            _ => panic!("divergence on {op:?}: ext3={a:?} ram={b:?}"),
        }
    }

    ext3.sync().unwrap();
    let mut fs = ext3.into_fs();
    let layout = *fs.layout();

    if crash_and_recover {
        // Crash (drop in-memory state), recover, and re-verify every file.
        let dev = fs.into_device();
        let fs2 = Ext3Fs::mount(dev, FsEnv::new(), opts).expect("recovery mount");
        let mut ext3 = Vfs::new(fs2);
        for n in 0..12u8 {
            let p = path(n);
            let a = ext3.read_file(&p);
            let b = ram.read_file(&p);
            match (&a, &b) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "post-recovery divergence at {p}"),
                (Err(x), Err(y)) => assert_eq!(x.errno(), y.errno(), "post-recovery errno at {p}"),
                _ => panic!("post-recovery divergence at {p}: {a:?} vs {b:?}"),
            }
        }
        fs = ext3.into_fs();
    }

    let dev = fs.into_device();
    let report = fsck::check(&dev, &layout);
    assert!(report.is_clean(), "fsck issues: {:?}", report.issues);
}

#[test]
fn ext3_matches_reference() {
    check(
        "ext3_matches_reference",
        Config::cases(24),
        &ops_gen(60),
        |ops| run_differential(ops, IronConfig::off(), false),
    );
}

#[test]
fn full_ixt3_matches_reference() {
    check(
        "full_ixt3_matches_reference",
        Config::cases(24),
        &ops_gen(40),
        |ops| run_differential(ops, IronConfig::full(), false),
    );
}

#[test]
fn ext3_consistent_after_crash_recovery() {
    check(
        "ext3_consistent_after_crash_recovery",
        Config::cases(24),
        &ops_gen(40),
        |ops| run_differential(ops, IronConfig::off(), true),
    );
}

/// Regression re-encoded from the retired
/// `ext3_proptest.proptest-regressions` file (proptest shrank it to
/// `ops = [Mkdir(60), Rename(132, 1), Stat(121)]`): renaming a directory
/// over a path and stat'ing the result must agree with the reference.
#[test]
fn regression_mkdir_rename_stat() {
    let ops = [Op::Mkdir(60), Op::Rename(132, 1), Op::Stat(121)];
    run_differential(&ops, IronConfig::off(), false);
    run_differential(&ops, IronConfig::full(), false);
    run_differential(&ops, IronConfig::off(), true);
}

/// Regression re-encoded from the retired
/// `ext3_proptest.proptest-regressions` file (proptest shrank it to
/// `ops = [Mkdir(255), Rename(183, 64)]`): renaming a fresh directory
/// into a nested path must agree with the reference.
#[test]
fn regression_mkdir_rename_nested() {
    let ops = [Op::Mkdir(255), Op::Rename(183, 64)];
    run_differential(&ops, IronConfig::off(), false);
    run_differential(&ops, IronConfig::full(), false);
    run_differential(&ops, IronConfig::off(), true);
}
