//! Two legal requests whose `off + len` does not fit in a `u64`: a read
//! "to end of file" (`len: usize::MAX`) and a write just below
//! `u64::MAX`. Every model used to add the two unchecked — the read
//! panicked the serving thread (`capacity overflow` / a reversed slice
//! range; debug builds on the add itself), and the write wrapped to a tiny
//! `end`, skipped its loop and reported 100 bytes written. Reads clamp,
//! writes are `EFBIG`, on the reference model and all five on-disk ones.

use iron_blockdev::MemDisk;
use iron_core::Errno;
use iron_ext3::{Ext3Fs, Ext3Options, Ext3Params, IronConfig};
use iron_jfs::{JfsFs, JfsOptions, JfsParams};
use iron_ntfs::{NtfsFs, NtfsParams};
use iron_reiser::{ReiserFs, ReiserOptions, ReiserParams};
use iron_serve::{digest, payload, serve, Reply, Request, ServeOptions, Session};
use iron_vfs::ramfs::RamFs;
use iron_vfs::{FsEnv, SpecificFs, Vfs};

const SIZE: usize = 5000;

fn serve_both<F: SpecificFs + Send>(model: &str, mut v: Vfs<F>) {
    let body = payload(0xF11E, SIZE);
    v.write_file("/f", &body).unwrap();
    let path = || "/f".to_string();
    let requests = vec![
        Request::Read {
            path: path(),
            off: 1,
            len: usize::MAX,
        },
        Request::Write {
            path: path(),
            off: u64::MAX - 10,
            len: 100,
            seed: 9,
        },
        Request::Stat { path: path() },
        Request::Read {
            path: path(),
            off: 0,
            len: SIZE,
        },
    ];
    let sessions = [Session { id: 0, requests }];
    let report = serve(&mut v, &sessions, &ServeOptions::default().with_threads(1));
    let r = &report.responses[0];
    assert_eq!(
        r[0],
        Ok(Reply::Data {
            len: SIZE - 1,
            digest: digest(&body[1..]),
        }),
        "{model}: a read past the end returns the file's tail"
    );
    assert_eq!(
        r[1].as_ref().map_err(|e| e.errno()),
        Err(Some(Errno::EFBIG)),
        "{model}: a write whose end overflows is EFBIG"
    );
    match &r[2] {
        Ok(Reply::Attr(attr)) => assert_eq!(attr.size, SIZE as u64, "{model}: size unchanged"),
        other => panic!("{model}: stat returned {other:?}"),
    }
    assert_eq!(
        r[3],
        Ok(Reply::Data {
            len: SIZE,
            digest: digest(&body),
        }),
        "{model}: contents unchanged"
    );
}

#[test]
fn overflowing_offsets_clamp_reads_and_refuse_writes_on_every_model() {
    serve_both("ramfs", Vfs::new(RamFs::new()));

    let disk = || MemDisk::for_tests(4096);
    for (model, iron) in [("ext3", IronConfig::off()), ("ixt3", IronConfig::full())] {
        let opts = Ext3Options::with_iron(iron);
        let fs = Ext3Fs::format_and_mount(disk(), FsEnv::new(), Ext3Params::small(), opts);
        serve_both(model, Vfs::new(fs.unwrap()));
    }

    let mut md = disk();
    ReiserFs::<MemDisk>::mkfs(&mut md, ReiserParams::small()).unwrap();
    let fs = ReiserFs::mount(md, FsEnv::new(), ReiserOptions::default()).unwrap();
    serve_both("reiserfs", Vfs::new(fs));

    let mut md = disk();
    JfsFs::<MemDisk>::mkfs(&mut md, JfsParams::small()).unwrap();
    let fs = JfsFs::mount(md, FsEnv::new(), JfsOptions::default()).unwrap();
    serve_both("jfs", Vfs::new(fs));

    let mut md = disk();
    NtfsFs::<MemDisk>::mkfs(&mut md, NtfsParams::small()).unwrap();
    let fs = NtfsFs::mount(md, FsEnv::new()).unwrap();
    serve_both("ntfs", Vfs::new(fs));
}
