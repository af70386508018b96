//! The read path, pinned from outside: a borrowed read must touch, fill
//! and evict ext3's private cache exactly as the owned read it replaced
//! did, and report a bad block with the same errno and the same klog text.
//! (That a warmed read makes no owned copy at all is counted inside the
//! crate, where the counter lives: `ops.rs`'s test module.)

use iron_blockdev::{IoEvent, MemDisk, Recorder};
use iron_core::model::CorruptionStyle;
use iron_core::{BlockAddr, BlockTag, Errno, FaultKind, IoKind};
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_faultinject::{FaultController, FaultSpec, FaultTarget, FaultyDisk};
use iron_vfs::{FsEnv, MountState, Vfs};

/// The device's `(kind, addr, tag)` sequence, one token per request.
fn render(events: &[IoEvent]) -> String {
    let tokens: Vec<String> = events
        .iter()
        .map(|e| {
            let k = if e.kind == IoKind::Read { 'r' } else { 'w' };
            format!("{k}{}:{}", e.addr.0, e.tag)
        })
        .collect();
    tokens.join(" ")
}

/// What the sequence below put on the device at the commit before reads
/// borrowed (5ac38e4, `read_policed` returning `b.clone()`).
const PARENT_IO: &str = "\
    r269:inode r285:dir r268:i-bitmap r269:inode r267:bitmap r285:dir w288:data \
    w289:data w290:data w291:data w292:data w293:data w294:data w295:data w296:data \
    w297:data w298:data w299:data w300:data w302:data w303:data w2:j-super w3:j-desc \
    w4:j-data w5:j-data w6:j-data w7:j-data w8:j-data w9:j-data w10:j-data w11:j-data \
    w12:j-data w13:j-commit w0:super w1:g-desc w267:bitmap w268:i-bitmap w269:inode \
    w285:dir w286:dir w287:dir w301:indirect w2:j-super r285:dir r286:dir r288:data \
    r289:data r290:data r291:data r292:data r293:data r294:data r295:data r296:data \
    r297:data r298:data r299:data r301:indirect r300:data r302:data r269:inode r285:dir \
    r287:dir r303:data r286:dir r288:data r289:data r290:data r291:data r292:data \
    r293:data r294:data r295:data r296:data r297:data r298:data r299:data r301:indirect \
    r300:data r302:data r269:inode r285:dir r286:dir r267:bitmap r301:indirect \
    r268:i-bitmap r285:dir r287:dir w2:j-super w3:j-revoke w4:j-desc w5:j-data w6:j-data \
    w7:j-data w8:j-data w9:j-data w10:j-data w11:j-data w12:j-commit w0:super w1:g-desc \
    w267:bitmap w268:i-bitmap w269:inode w286:dir w287:dir w2:j-super r285:dir r287:dir";

/// A cache of four blocks under two directories and a 14-block file: every
/// hit, touch and eviction decides which block is read from the device
/// next, so an LRU touch moved, added or dropped shows as a different
/// sequence. The benchmark's caches are too large to see this.
#[test]
fn four_block_cache_issues_the_parent_commits_device_io() {
    let mut md = MemDisk::for_tests(4096);
    Ext3Fs::<MemDisk>::mkfs(&mut md, Ext3Params::small()).expect("mkfs");
    let dev = Recorder::new(md);
    let trace = dev.log();
    let opts = Ext3Options {
        cache_blocks: 4,
        ..Ext3Options::default()
    };
    let mut v = Vfs::new(Ext3Fs::mount(dev, FsEnv::new(), opts).expect("mount"));
    let mark = trace.len();

    v.mkdir("/a", 0o755).unwrap();
    v.mkdir("/b", 0o755).unwrap();
    // 14 blocks: twelve direct, two behind the indirect block.
    let body: Vec<u8> = (0..14 * 4096u32).map(|i| (i / 4096) as u8).collect();
    v.write_file("/a/big", &body).unwrap();
    v.write_file("/b/small", b"small").unwrap();
    v.sync().unwrap();
    assert_eq!(v.read_file("/a/big").unwrap(), body);
    v.stat("/b/small").unwrap();
    assert_eq!(v.read_file("/b/small").unwrap(), b"small");
    assert_eq!(v.readdir("/a").unwrap().len(), 3);
    assert_eq!(
        v.stat("/a/missing").unwrap_err().errno(),
        Some(Errno::ENOENT)
    );
    assert_eq!(v.read_file("/a/big").unwrap(), body);
    v.unlink("/a/big").unwrap();
    v.unlink("/b/small").unwrap();
    v.sync().unwrap();
    assert_eq!(v.readdir("/b").unwrap().len(), 2);

    assert_eq!(render(&trace.since(mark)), PARENT_IO);
}

type Faulty = Ext3Fs<FaultyDisk<MemDisk>>;

/// `/d/f` (two blocks) written and unmounted under `iron`, then mounted
/// cold over a fault injector.
fn cold_mount(iron: IronConfig) -> (Vfs<Faulty>, FaultController, FsEnv) {
    let opts = Ext3Options {
        iron,
        ..Ext3Options::default()
    };
    let md = MemDisk::for_tests(4096);
    let fs = Ext3Fs::format_and_mount(md, FsEnv::new(), Ext3Params::small(), opts.clone())
        .expect("format");
    let mut v = Vfs::new(fs);
    v.mkdir("/d", 0o755).unwrap();
    v.write_file("/d/f", &[7u8; 8192]).unwrap();
    v.umount().unwrap();
    let faulty = FaultyDisk::new(v.into_fs().into_device());
    let ctl = faulty.controller();
    let env = FsEnv::new();
    let fs = Ext3Fs::mount(faulty, env.clone(), opts).expect("mount");
    (Vfs::new(fs), ctl, env)
}

fn log_since(env: &FsEnv, mark: usize) -> Vec<String> {
    env.klog
        .since(mark)
        .iter()
        .map(ToString::to_string)
        .collect()
}

fn corrupt(target: FaultTarget) -> FaultSpec {
    FaultSpec::sticky(FaultKind::Corruption(CorruptionStyle::RandomNoise), target)
}

// Three Figure-2 cells by name, so a slip in `with_meta`/`with_data` fails
// here and not only as a diff in the 3480-cell matrix.

/// ext3, dir × corruption: `DZero` / `RZero` — noise parses as an empty
/// directory, nothing is logged, nothing stops.
#[test]
fn ext3_corrupt_dir_block_reads_as_an_empty_directory() {
    let (mut v, ctl, env) = cold_mount(IronConfig::off());
    let d = v.resolve("/d").unwrap();
    let dir_block = v.fs_mut().blocks_of(d).unwrap()[0];
    let mark = env.klog.len();
    ctl.inject(corrupt(FaultTarget::Addr(BlockAddr(dir_block))));
    assert_eq!(v.stat("/d/f").unwrap_err().errno(), Some(Errno::ENOENT));
    assert_eq!(v.readdir("/d").unwrap().len(), 0);
    assert_eq!(env.state(), MountState::ReadWrite);
    assert_eq!(log_since(&env, mark), [""; 0]);
}

/// ixt3 (`Mc` + `Dc`, no redundancy), data and dir × corruption:
/// `DRedundancy`; data is `RPropagate` and never cached, metadata `RStop`.
#[test]
fn ixt3_checksum_mismatch_is_logged_and_not_cached() {
    let iron = IronConfig {
        meta_checksum: true,
        data_checksum: true,
        fix_bugs: true,
        ..IronConfig::off()
    };
    let (mut v, ctl, env) = cold_mount(iron);
    let f = v.resolve("/d/f").unwrap();
    let data_block = v.fs_mut().blocks_of(f).unwrap()[1];
    let mark = env.klog.len();
    let fault = ctl.inject(corrupt(FaultTarget::Addr(BlockAddr(data_block))));
    assert_eq!(v.read_file("/d/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_eq!(env.state(), MountState::ReadWrite);
    assert_eq!(
        log_since(&env, mark),
        [
            format!("[ERROR] ixt3: checksum mismatch on data block {data_block} (data)"),
            format!("[INFO] ext3: policy action propagate: data read {data_block}"),
        ]
    );
    // The rejected bytes were not cached: with the fault gone the read succeeds.
    ctl.disarm(fault);
    assert_eq!(v.read_file("/d/f").unwrap(), [7u8; 8192]);

    let (mut v, ctl, env) = cold_mount(iron);
    let mark = env.klog.len();
    ctl.inject(corrupt(FaultTarget::Tag(BlockTag("dir"))));
    assert_eq!(v.stat("/d/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_eq!(env.state(), MountState::ReadOnly);
    let log = log_since(&env, mark);
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(
        log[0].starts_with("[ERROR] ixt3: checksum mismatch on metadata block ")
            && log[0].ends_with(" (dir)"),
        "{log:?}"
    );
    assert_eq!(
        log[1..],
        [
            "[ERROR] ext3: ext3_abort called: metadata read failure; remounting filesystem read-only",
            "[ERROR] ext3: journal has aborted",
        ]
    );
}

/// ext3, data and inode × read failure: `DErrorCode`; data is `RRetry`
/// (the one block, once) then `RPropagate`, metadata `RStop`.
#[test]
fn ext3_read_error_on_the_miss_path_retries_data_once_and_stops_on_metadata() {
    let (mut v, ctl, env) = cold_mount(IronConfig::off());
    let f = v.resolve("/d/f").unwrap();
    let data_block = v.fs_mut().blocks_of(f).unwrap()[0];
    let trace = v.fs().device().log();
    let (mark, io_mark) = (env.klog.len(), trace.len());
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Addr(BlockAddr(data_block)),
    ));
    assert_eq!(v.read_file("/d/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_eq!(env.state(), MountState::ReadWrite);
    assert_eq!(
        log_since(&env, mark),
        [
            format!("[ERROR] ext3: I/O error reading data block {data_block} (data)"),
            format!("[INFO] ext3: policy action retry: data read {data_block} re-issue 1/1"),
            format!("[INFO] ext3: policy action propagate: data read {data_block}"),
        ]
    );
    assert_eq!(
        render(&trace.since(io_mark)),
        format!("r{data_block}:data r{data_block}:data")
    );

    let (mut v, ctl, env) = cold_mount(IronConfig::off());
    let mark = env.klog.len();
    ctl.inject(FaultSpec::sticky(
        FaultKind::ReadError,
        FaultTarget::Tag(BlockTag("inode")),
    ));
    assert_eq!(v.stat("/d/f").unwrap_err().errno(), Some(Errno::EIO));
    assert_eq!(env.state(), MountState::ReadOnly);
    let log = log_since(&env, mark);
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(
        log[0].starts_with("[ERROR] ext3: I/O error reading metadata block ")
            && log[0].ends_with(" (inode)"),
        "{log:?}"
    );
    assert!(log[1].contains("ext3_abort called: metadata read failure"));
}
