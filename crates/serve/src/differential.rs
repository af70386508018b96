//! The differential oracle: a concurrent serve run must equal its own
//! serial replay — identical per-request responses, identical final
//! file-system contents, and (where the mount sits on a raw medium) a
//! bit-identical disk image.
//!
//! This is the serving layer's analogue of the workspace's earlier
//! parallel==sequential proofs (pFSCK-style fsck shards, campaign cells):
//! parallelism must be purely a wall-clock knob.

use iron_blockdev::{BlockDevice, MemDisk, RawAccess};
use iron_core::BlockAddr;
use iron_vfs::{SpecificFs, TreeNode, Vfs};

use crate::engine::{replay_serial, serve, ServeOptions, Session};
use crate::proto::digest;

/// Flatten a `MemDisk`'s full medium into bytes for equality checks.
pub fn memdisk_image(md: &MemDisk) -> Vec<u8> {
    let blocks = md.num_blocks();
    let mut out = Vec::with_capacity(blocks as usize * iron_core::BLOCK_SIZE);
    for a in 0..blocks {
        out.extend_from_slice(&*md.peek(BlockAddr(a)));
    }
    out
}

/// A semantic fingerprint of the mounted namespace: every path with its
/// type, size, link count, and content digest, in sorted order. Works for
/// any [`SpecificFs`] (including ones with no raw medium, like `RamFs`),
/// so the oracle can compare final states even where no disk image
/// exists.
pub fn fs_fingerprint<F: SpecificFs>(vfs: &mut Vfs<F>) -> Vec<String> {
    let tree = vfs.tree().expect("fingerprint walk");
    let mut out: Vec<String> = tree
        .into_iter()
        .map(|(path, node)| {
            let attr = vfs.lstat(&path).expect("fingerprint lstat");
            match node {
                TreeNode::Dir => format!("{path} dir nlink={}", attr.nlink),
                TreeNode::File(data) => format!(
                    "{path} file size={} nlink={} digest={:016x}",
                    attr.size,
                    attr.nlink,
                    digest(&data)
                ),
                TreeNode::Symlink(target) => format!("{path} symlink -> {target}"),
            }
        })
        .collect();
    out.sort();
    out
}

fn assert_images_equal(concurrent: &Option<Vec<u8>>, serial: &Option<Vec<u8>>, threads: usize) {
    match (concurrent, serial) {
        (Some(c), Some(s)) => {
            assert_eq!(c.len(), s.len(), "t={threads}: image sizes differ");
            if let Some(pos) = c.iter().zip(s.iter()).position(|(a, b)| a != b) {
                panic!(
                    "t={threads}: disk image diverged from serial replay at byte {pos} \
                     (block {}): concurrent={:#04x} serial={:#04x}",
                    pos / iron_core::BLOCK_SIZE,
                    c[pos],
                    s[pos]
                );
            }
        }
        (None, None) => {}
        _ => panic!("t={threads}: one run produced an image and the other did not"),
    }
}

/// Run the full differential oracle at every width in `threads`.
///
/// `mk` builds a freshly mounted, identically prepared file system;
/// `extract` consumes the unmounted wrapper and returns the raw medium
/// bytes (or `None` for media-less file systems). For each width: serve
/// concurrently, replay the commit log serially on a second identical
/// mount, and assert responses, namespace fingerprints, and images all
/// match.
pub fn assert_serial_equivalence<F, Mk, Img>(
    mk: Mk,
    extract: Img,
    sessions: &[Session],
    threads: &[usize],
) where
    F: SpecificFs + Send,
    Mk: Fn() -> Vfs<F>,
    Img: Fn(Vfs<F>) -> Option<Vec<u8>>,
{
    for &t in threads {
        let opts = ServeOptions::default().with_threads(t);

        let mut concurrent = mk();
        let report = serve(&mut concurrent, sessions, &opts);
        let fp_concurrent = fs_fingerprint(&mut concurrent);
        concurrent.umount().expect("concurrent unmount");
        let img_concurrent = extract(concurrent);

        let mut serial = mk();
        let replayed = replay_serial(&mut serial, sessions, &report.commit_log);
        let fp_serial = fs_fingerprint(&mut serial);
        serial.umount().expect("serial unmount");
        let img_serial = extract(serial);

        assert_eq!(
            report.responses, replayed,
            "t={t}: concurrent responses != serial replay in commit order"
        );
        assert_eq!(
            fp_concurrent, fp_serial,
            "t={t}: final namespace diverged from serial replay"
        );
        assert_images_equal(&img_concurrent, &img_serial, t);
    }
}
