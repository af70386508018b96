//! The Table 3 workload suite.
//!
//! "The first set of programs, called singlets, each focus upon a single
//! call in the file system API (e.g., mkdir). The second set, generics,
//! stresses functionality common across the API (e.g., path traversal)."
//!
//! The suite is arranged as the columns *a–t* of Figure 2. Each workload
//! runs against a standard fixture tree (built by [`build_fixture`]) that
//! deliberately touches every block type: small and tail-sized files,
//! files large enough to need indirect/extent structures (§4.1: "our
//! workloads ensure that sufficiently large files are created to access
//! these structures"), populated directories, hard links, and symlinks.

use iron_core::hash::digest64;
use iron_core::Errno;
use iron_vfs::{OpenFlags, SpecificFs, Vfs, VfsError, VfsResult};

/// The Figure 2 workload columns.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Workload {
    /// a: path traversal (generic).
    PathTraversal,
    /// b: access, chdir, chroot, stat, statfs, lstat, open.
    AccessFamily,
    /// c: chmod, chown, utimes.
    AttrFamily,
    /// d: read.
    Read,
    /// e: readlink.
    Readlink,
    /// f: getdirentries.
    Getdirentries,
    /// g: creat.
    Creat,
    /// h: link.
    Link,
    /// i: mkdir.
    Mkdir,
    /// j: rename.
    Rename,
    /// k: symlink.
    Symlink,
    /// l: write.
    Write,
    /// m: truncate.
    Truncate,
    /// n: rmdir.
    Rmdir,
    /// o: unlink.
    Unlink,
    /// p: mount.
    Mount,
    /// q: fsync, sync.
    SyncFamily,
    /// r: umount.
    Umount,
    /// s: FS recovery (journal replay).
    Recovery,
    /// t: log write operations.
    LogWrites,
}

impl Workload {
    /// All columns in Figure 2's order a–t.
    pub const COLUMNS: [Workload; 20] = [
        Workload::PathTraversal,
        Workload::AccessFamily,
        Workload::AttrFamily,
        Workload::Read,
        Workload::Readlink,
        Workload::Getdirentries,
        Workload::Creat,
        Workload::Link,
        Workload::Mkdir,
        Workload::Rename,
        Workload::Symlink,
        Workload::Write,
        Workload::Truncate,
        Workload::Rmdir,
        Workload::Unlink,
        Workload::Mount,
        Workload::SyncFamily,
        Workload::Umount,
        Workload::Recovery,
        Workload::LogWrites,
    ];

    /// The Figure 2 column letter.
    pub fn letter(&self) -> char {
        (b'a'
            + Workload::COLUMNS
                .iter()
                .position(|w| w == self)
                .expect("in COLUMNS") as u8) as char
    }

    /// Human-readable description (the figure caption's naming).
    pub fn describe(&self) -> &'static str {
        match self {
            Workload::PathTraversal => "path traversal",
            Workload::AccessFamily => "access,chdir,chroot,stat,statfs,lstat,open",
            Workload::AttrFamily => "chmod,chown,utimes",
            Workload::Read => "read",
            Workload::Readlink => "readlink",
            Workload::Getdirentries => "getdirentries",
            Workload::Creat => "creat",
            Workload::Link => "link",
            Workload::Mkdir => "mkdir",
            Workload::Rename => "rename",
            Workload::Symlink => "symlink",
            Workload::Write => "write",
            Workload::Truncate => "truncate",
            Workload::Rmdir => "rmdir",
            Workload::Unlink => "unlink",
            Workload::Mount => "mount",
            Workload::SyncFamily => "fsync,sync",
            Workload::Umount => "umount",
            Workload::Recovery => "FS recovery",
            Workload::LogWrites => "log write operations",
        }
    }

    /// Workloads that need special campaign setup (mount-time faults or a
    /// dirty journal) rather than a plain post-mount run.
    pub fn is_special(&self) -> bool {
        matches!(self, Workload::Mount | Workload::Recovery)
    }
}

/// What one workload step returned through the API.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Success. `summary` is the result (a size, a name list, or a read's
    /// length and digest); `blank` marks a read that returned all-zero
    /// data — a fabricated page is the paper's `RGuess` fingerprint.
    Ok {
        /// The result, summarized.
        summary: String,
        /// The data read was all zeros.
        blank: bool,
    },
    /// Failure with an errno.
    Errno(Errno),
    /// The simulated kernel panicked. Its message is not part of the
    /// observable output.
    Panic,
}

/// One step of a workload run: the operation and its outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Step {
    /// The operation's name within its workload (`"read-big"`, `"mount"`).
    pub op: &'static str,
    /// What it returned.
    pub outcome: Outcome,
}

impl Step {
    /// A step whose success is summarized by `r`'s string.
    pub fn new(op: &'static str, r: VfsResult<String>) -> Self {
        Step::of(op, r.map(|summary| (summary, false)))
    }

    /// A read step: the data's length and digest, and whether it was
    /// all zeros. The digest is an observation, not a checksum:
    /// `digest64` reads a word at a time (SHA-1 here was a tenth of the
    /// campaign's CPU).
    pub fn read(op: &'static str, r: VfsResult<Vec<u8>>) -> Self {
        Step::of(
            op,
            r.map(|d| {
                let blank = !d.is_empty() && d.iter().all(|&b| b == 0);
                (format!("{}b:{:016x}", d.len(), digest64(&d)), blank)
            }),
        )
    }

    fn of(op: &'static str, r: VfsResult<(String, bool)>) -> Self {
        let outcome = match r {
            Ok((summary, blank)) => Outcome::Ok { summary, blank },
            Err(VfsError::Errno(e)) => Outcome::Errno(e),
            Err(VfsError::KernelPanic(_)) => Outcome::Panic,
        };
        Step { op, outcome }
    }
}

/// The observable output of one workload run: one [`Step`] per operation.
/// Two runs behaved identically iff their outputs are equal — this is the
/// comparison §4.3 performs across "all observable outputs from the
/// system".
#[derive(Clone, Debug, Default)]
pub struct WorkloadOutput {
    /// One entry per step.
    pub steps: Vec<Step>,
    /// I/O-trace length at the end of each step (when a trace was
    /// supplied). Inference uses these to tell an in-operation retry from
    /// the workload merely re-touching a block in a later step. Not part
    /// of output equality.
    pub step_trace_marks: Vec<usize>,
}

impl PartialEq for WorkloadOutput {
    fn eq(&self, other: &Self) -> bool {
        self.steps == other.steps
    }
}

impl Eq for WorkloadOutput {}

impl WorkloadOutput {
    /// True if any step failed with an errno (panics excluded — a panic is
    /// `RStop`, not an error propagated to the caller).
    pub fn any_errno(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.outcome, Outcome::Errno(_)))
    }

    /// True if any step ended in a simulated kernel panic.
    pub fn any_panic(&self) -> bool {
        self.steps.iter().any(|s| s.outcome == Outcome::Panic)
    }
}

/// Size of the "big" fixture file — large enough to force indirect /
/// extent / multi-chunk structures in every model.
pub const BIG_FILE_SIZE: usize = 120 * 1024;

/// Deterministic contents for fixture files.
pub fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Populate the standard fixture tree on a freshly formatted file system.
pub fn build_fixture<F: SpecificFs>(v: &mut Vfs<F>) -> Result<(), VfsError> {
    v.mkdir("/dir1", 0o755)?;
    v.mkdir("/dir1/sub", 0o755)?;
    for i in 0..6 {
        v.write_file(&format!("/dir1/entry{i}"), &pattern(64, i as u8))?;
    }
    v.write_file("/dir1/file_small", &pattern(4096, 1))?;
    v.write_file("/dir1/sub/deep", &pattern(100, 2))?;
    v.write_file("/file_big", &pattern(BIG_FILE_SIZE, 3))?;
    v.write_file("/file_tail", &pattern(100, 4))?;
    v.write_file("/file_todelete", &pattern(5000, 5))?;
    v.write_file("/file_totrunc", &pattern(BIG_FILE_SIZE, 6))?;
    v.write_file("/file_torename", &pattern(2000, 7))?;
    v.mkdir("/dir_todelete", 0o755)?;
    v.link("/dir1/file_small", "/hard")?;
    v.symlink("/dir1/file_small", "/sym")?;
    v.sync()?;
    Ok(())
}

/// Run one (non-special) workload, producing its observable output.
///
/// Panics from the simulated kernel are captured as output steps, and all
/// steps after a panic short-circuit (the machine is down). When `trace`
/// is supplied, the trace length is recorded at each step boundary so
/// inference can scope retry detection to a single operation.
pub fn run<F: SpecificFs>(
    w: Workload,
    v: &mut Vfs<F>,
    trace: Option<&iron_blockdev::IoLog>,
) -> WorkloadOutput {
    let mut out = TracedOutput {
        out: WorkloadOutput::default(),
        trace,
    };
    match w {
        Workload::PathTraversal => {
            out.note("walk", v.stat("/dir1/sub/deep").map(|a| a.size.to_string()));
            out.note(
                "walk-dots",
                v.stat("/dir1/./sub/../sub/deep")
                    .map(|a| a.size.to_string()),
            );
        }
        Workload::AccessFamily => {
            out.done("access", v.access("/dir1/file_small"));
            out.done("chdir", v.chdir("/dir1"));
            out.note("stat", v.stat("file_small").map(|a| a.size.to_string()));
            out.note(
                "statfs",
                v.statfs()
                    .map(|s| format!("bf={} if={}", s.blocks_free > 0, s.inodes_free > 0)),
            );
            out.note("lstat", v.lstat("/sym").map(|a| format!("{:?}", a.ftype)));
            out.done(
                "open",
                v.open("/dir1/file_small", OpenFlags::rdonly())
                    .and_then(|fd| v.close(fd)),
            );
            out.done("chroot", v.chroot("/dir1"));
        }
        Workload::AttrFamily => {
            out.done("chmod", v.chmod("/dir1/file_small", 0o600));
            out.done("chown", v.chown("/dir1/file_small", 7, 8));
            out.done("utimes", v.utimes("/dir1/file_small", 1234));
        }
        Workload::Read => {
            out.read("read-big", v.read_file("/file_big"));
            if !out.any_panic() {
                // The extent/indirect-mapped region alone: a file system
                // that fabricates a blank page for a failed extent lookup
                // (JFS's §5.3 bug) is exposed by this step's blank read.
                out.read(
                    "read-big-extent-region",
                    v.open("/file_big", OpenFlags::rdonly()).and_then(|fd| {
                        let r = v.pread(fd, (BIG_FILE_SIZE - 40_000) as u64, 40_000);
                        v.close(fd)?;
                        r
                    }),
                );
            }
            if !out.any_panic() {
                out.read("read-tail", v.read_file("/file_tail"));
            }
        }
        Workload::Readlink => {
            out.note("readlink", v.readlink("/sym"));
        }
        Workload::Getdirentries => {
            out.note(
                "readdir",
                v.readdir("/dir1").map(|es| {
                    let mut names: Vec<String> = es.into_iter().map(|e| e.name).collect();
                    names.sort();
                    names.join(",")
                }),
            );
        }
        Workload::Creat => {
            out.done(
                "creat",
                v.creat("/newfile").and_then(|fd| {
                    v.write(fd, &pattern(2000, 9))?;
                    v.close(fd)?;
                    Ok(())
                }),
            );
        }
        Workload::Link => {
            out.done("link", v.link("/dir1/file_small", "/newhard"));
        }
        Workload::Mkdir => {
            out.done("mkdir", v.mkdir("/newdir", 0o755));
        }
        Workload::Rename => {
            out.done("rename", v.rename("/file_torename", "/renamed"));
        }
        Workload::Symlink => {
            out.done("symlink", v.symlink("/file_big", "/newsym"));
        }
        Workload::Write => {
            out.done(
                "write-small",
                v.open("/dir1/file_small", OpenFlags::rdwr())
                    .and_then(|fd| {
                        v.pwrite(fd, 100, &pattern(1000, 10))?;
                        v.close(fd)?;
                        Ok(())
                    }),
            );
            if !out.any_panic() {
                out.done(
                    "write-big",
                    v.open("/file_big", OpenFlags::rdwr()).and_then(|fd| {
                        // Overwrite deep into the indirect region.
                        v.pwrite(fd, (BIG_FILE_SIZE - 9000) as u64, &pattern(8000, 11))?;
                        v.close(fd)?;
                        Ok(())
                    }),
                );
            }
        }
        Workload::Truncate => {
            out.done("trunc-mid", v.truncate("/file_totrunc", 10_000));
            if !out.any_panic() {
                out.done("trunc-zero", v.truncate("/file_totrunc", 0));
            }
        }
        Workload::Rmdir => {
            out.done("rmdir", v.rmdir("/dir_todelete"));
        }
        Workload::Unlink => {
            out.done("unlink", v.unlink("/file_todelete"));
        }
        Workload::Mount => {
            // Handled by the campaign (the mount already happened, under
            // fault); a successful mount is probed with one stat.
            out.done("post-mount-stat", v.stat("/dir1"));
        }
        Workload::SyncFamily => {
            out.done(
                "dirty+fsync",
                v.open("/dir1/file_small", OpenFlags::rdwr())
                    .and_then(|fd| {
                        v.pwrite(fd, 0, b"fsync me")?;
                        v.fsync(fd)?;
                        v.close(fd)?;
                        Ok(())
                    }),
            );
            if !out.any_panic() {
                out.done("sync", v.sync());
            }
        }
        Workload::Umount => {
            out.done("umount", v.umount());
        }
        Workload::Recovery => {
            // The replay happened at mount; probe that recovered state is
            // usable.
            out.done("post-recovery-stat", v.stat("/dir1"));
            if !out.any_panic() {
                out.read("post-recovery-read", v.read_file("/file_tail"));
            }
        }
        Workload::LogWrites => {
            out.done("metadata-op", v.mkdir("/logged_dir", 0o755));
            if !out.any_panic() {
                out.done("force-commit", v.sync());
            }
        }
    }
    out.out
}

/// Wrapper recording a trace mark after every step.
struct TracedOutput<'a> {
    out: WorkloadOutput,
    trace: Option<&'a iron_blockdev::IoLog>,
}

impl TracedOutput<'_> {
    fn note(&mut self, op: &'static str, r: VfsResult<String>) {
        self.push(Step::new(op, r));
    }

    /// A step whose success has nothing to summarize.
    fn done<T>(&mut self, op: &'static str, r: VfsResult<T>) {
        self.note(op, r.map(|_| String::new()));
    }

    fn read(&mut self, op: &'static str, r: VfsResult<Vec<u8>>) {
        self.push(Step::read(op, r));
    }

    fn push(&mut self, step: Step) {
        self.out.steps.push(step);
        if let Some(t) = self.trace {
            self.out.step_trace_marks.push(t.len());
        }
    }

    fn any_panic(&self) -> bool {
        self.out.any_panic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_vfs::ramfs::RamFs;

    #[test]
    fn columns_are_a_through_t() {
        assert_eq!(Workload::COLUMNS.len(), 20);
        assert_eq!(Workload::PathTraversal.letter(), 'a');
        assert_eq!(Workload::Read.letter(), 'd');
        assert_eq!(Workload::Mount.letter(), 'p');
        assert_eq!(Workload::LogWrites.letter(), 't');
    }

    #[test]
    fn fixture_and_all_workloads_run_clean_on_reference_fs() {
        for w in Workload::COLUMNS {
            let mut v = Vfs::new(RamFs::new());
            build_fixture(&mut v).unwrap();
            let out = run(w, &mut v, None);
            assert!(
                !out.any_errno() && !out.any_panic(),
                "workload {w:?} errored on healthy RamFs: {:?}",
                out.steps
            );
        }
    }

    #[test]
    fn outputs_are_deterministic() {
        let mk = || {
            let mut v = Vfs::new(RamFs::new());
            build_fixture(&mut v).unwrap();
            run(Workload::Read, &mut v, None)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn output_error_detection() {
        let mut out = WorkloadOutput::default();
        out.steps.push(Step::new("x", Ok("fine".into())));
        assert!(!out.any_errno());
        out.steps.push(Step::new("y", Err(Errno::EIO.into())));
        assert!(out.any_errno());
        assert!(!out.any_panic());
        out.steps
            .push(Step::new("z", Err(VfsError::KernelPanic("boom".into()))));
        assert!(out.any_panic());
    }

    #[test]
    fn panic_messages_are_not_compared_and_blank_reads_are_seen() {
        let panic = |why: &str| Step::new("p", Err(VfsError::KernelPanic(why.into())));
        assert_eq!(panic("one"), panic("two"));
        let blank = Step::read("r", Ok(vec![0; 8]));
        assert!(matches!(blank.outcome, Outcome::Ok { blank: true, .. }));
        assert_ne!(blank, Step::read("r", Ok(vec![1; 8])));
    }
}
