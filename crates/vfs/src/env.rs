//! The simulated kernel environment: mount state machine + kernel log.
//!
//! The paper's recovery taxonomy includes `RStop` at several granularities
//! (§3.3): crash the machine, remount read-only, or abort the journal. The
//! [`MountState`] machine makes those observable outcomes explicit, and
//! [`FsEnv`] bundles it with the kernel log the fingerprinting framework
//! inspects.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use iron_blockdev::{retry::classify, DiskError, DiskResult};
use iron_core::recover::{PolicyHandle, Step, Verdict, Walk};
use iron_core::{BlockTag, DetectionLevel, Errno, IoKind, KernelLog, LogLevel};

use crate::types::{VfsError, VfsResult};

/// The state of a mounted file system (and its simulated machine).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MountState {
    /// Healthy, read-write.
    ReadWrite,
    /// Remounted read-only after a fault (`RStop` at intermediate
    /// granularity): reads proceed, writes fail with `EROFS`.
    ReadOnly,
    /// The simulated kernel panicked (`RStop` at the coarsest granularity):
    /// nothing proceeds.
    Crashed,
    /// Cleanly unmounted.
    Unmounted,
}

/// Shared kernel environment handed to a file system at mount time.
///
/// Cloning shares state (log and mount state), so the harness keeps a handle
/// while the file system owns another.
#[derive(Clone, Debug)]
pub struct FsEnv {
    /// The kernel log.
    pub klog: KernelLog,
    state: Arc<Mutex<MountState>>,
}

impl FsEnv {
    /// A fresh environment in the `ReadWrite` state with an empty log.
    pub fn new() -> Self {
        FsEnv {
            klog: KernelLog::new(),
            state: Arc::new(Mutex::new(MountState::ReadWrite)),
        }
    }

    /// Current mount state.
    pub fn state(&self) -> MountState {
        *self.state.lock().unwrap()
    }

    /// Force a specific state (used by mount/unmount paths and tests).
    pub fn set_state(&self, s: MountState) {
        *self.state.lock().unwrap() = s;
    }

    /// Simulate a kernel panic: log it, mark the machine crashed, and return
    /// the error the caller should propagate.
    ///
    /// Use as `return Err(env.panic("reiserfs", "..."))`.
    pub fn panic(&self, subsystem: &'static str, msg: impl Into<String>) -> VfsError {
        let msg = msg.into();
        self.klog.panic(subsystem, msg.clone());
        *self.state.lock().unwrap() = MountState::Crashed;
        VfsError::KernelPanic(msg)
    }

    /// A sanity check rejected what was read (`DSanity`): log `msg` as
    /// evidence of it and return the `EUCLEAN` the caller should propagate.
    ///
    /// Use as `return Err(env.reject("ntfs", "..."))`.
    pub fn reject(&self, subsystem: &'static str, msg: impl Into<String>) -> VfsError {
        self.klog
            .evidence(LogLevel::Error, subsystem, DetectionLevel::DSanity, msg);
        Errno::EUCLEAN.into()
    }

    /// [`Self::reject`] `index` unless it lies in `range`: an address read
    /// from disk is checked against the volume geometry before it indexes
    /// an allocation bitmap.
    pub fn check_bitmap_index(
        &self,
        subsystem: &'static str,
        what: &str,
        index: u64,
        range: Range<u64>,
    ) -> VfsResult<()> {
        if range.contains(&index) {
            return Ok(());
        }
        let msg = format!("{what} {index} is outside the volume ({range:?}); not freed");
        Err(self.reject(subsystem, msg))
    }

    /// Remount read-only (e.g. after ext3 aborts its journal). Idempotent;
    /// does not downgrade a crash.
    pub fn remount_readonly(&self, subsystem: &'static str, msg: impl Into<String>) {
        let mut st = self.state.lock().unwrap();
        if *st == MountState::ReadWrite {
            self.klog.error(subsystem, msg);
            *st = MountState::ReadOnly;
        }
    }

    /// The failure path of a file system that keeps no redundant copy:
    /// a request for block `addr` has just failed with `err`, so walk
    /// `policy`'s chain for it. `reissue(attempt, budget)` issues the
    /// request again (and logs the retry in the caller's own words); the
    /// verdict is enacted generically — `Stop` panics, `DegradeReadOnly`
    /// remounts read-only, and both it and `Propagate` return `EIO`.
    pub fn walk_io<T>(
        &self,
        policy: &PolicyHandle,
        subsystem: &'static str,
        (io, addr, tag): (IoKind, u64, BlockTag),
        err: &DiskError,
        mut reissue: impl FnMut(u32, u32) -> DiskResult<T>,
    ) -> VfsResult<T> {
        let site = Walk {
            klog: &self.klog,
            subsystem,
            clock: None,
            can_degrade: true,
            request: &format!("{io} {addr} [{tag}]"),
        };
        let step = |step| match step {
            Step::Reissue { attempt, budget } => reissue(attempt, budget).ok(),
            Step::Redundancy => None,
        };
        match policy.walk(&site, tag, io, classify(err), step) {
            Verdict::Recovered(v) => return Ok(v),
            Verdict::Stop => {
                let msg = format!("unrecoverable {io} of block {addr} [{tag}]");
                return Err(self.panic(subsystem, msg));
            }
            Verdict::Degrade => {
                policy.counters().count_degrade();
                let msg = format!("{io} of block {addr} [{tag}] failed; remounting read-only");
                self.remount_readonly(subsystem, msg);
            }
            Verdict::Propagate => {}
        }
        Err(Errno::EIO.into())
    }

    /// Fail fast if the machine crashed or the file system is unmounted.
    /// Call at the top of every operation.
    pub fn check_alive(&self) -> VfsResult<()> {
        match self.state() {
            MountState::Crashed => Err(VfsError::KernelPanic("system crashed".into())),
            MountState::Unmounted => Err(Errno::ENODEV.into()),
            _ => Ok(()),
        }
    }

    /// Fail with `EROFS` if the file system cannot accept writes (also
    /// applies [`Self::check_alive`]).
    pub fn check_writable(&self) -> VfsResult<()> {
        self.check_alive()?;
        match self.state() {
            MountState::ReadOnly => Err(Errno::EROFS.into()),
            _ => Ok(()),
        }
    }
}

impl Default for FsEnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_read_write() {
        let env = FsEnv::new();
        assert_eq!(env.state(), MountState::ReadWrite);
        assert!(env.check_alive().is_ok());
        assert!(env.check_writable().is_ok());
    }

    #[test]
    fn panic_crashes_machine() {
        let env = FsEnv::new();
        let err = env.panic("reiserfs", "journal write failed");
        assert!(err.is_panic());
        assert_eq!(env.state(), MountState::Crashed);
        assert!(env.check_alive().is_err());
        assert!(env.klog.contains("journal write failed"));
    }

    #[test]
    fn remount_readonly_blocks_writes_only() {
        let env = FsEnv::new();
        env.remount_readonly("ext3", "ext3_abort: aborting journal");
        assert_eq!(env.state(), MountState::ReadOnly);
        assert!(env.check_alive().is_ok());
        assert_eq!(
            env.check_writable().unwrap_err().errno(),
            Some(Errno::EROFS)
        );
    }

    #[test]
    fn remount_readonly_does_not_undo_crash() {
        let env = FsEnv::new();
        let _ = env.panic("x", "boom");
        env.remount_readonly("x", "should be ignored");
        assert_eq!(env.state(), MountState::Crashed);
        assert!(!env.klog.contains("should be ignored"));
    }

    #[test]
    fn unmounted_returns_enodev() {
        let env = FsEnv::new();
        env.set_state(MountState::Unmounted);
        assert_eq!(env.check_alive().unwrap_err().errno(), Some(Errno::ENODEV));
    }

    #[test]
    fn walk_io_enacts_each_verdict() {
        use iron_core::recover::{Backoff, FailurePolicyTable, RecoveryAction};
        let req = (IoKind::Read, 7, BlockTag("data"));
        let err = DiskError::DeviceFailed;
        let run = |chain: Vec<RecoveryAction>, heals_at: u32| {
            let env = FsEnv::new();
            let policy = PolicyHandle::new(FailurePolicyTable::with_default(chain));
            let out = env.walk_io(&policy, "fs", req, &err, |attempt, _| {
                if attempt == heals_at {
                    Ok(attempt)
                } else {
                    Err(DiskError::DeviceFailed)
                }
            });
            (out, env.state(), policy.counters().snapshot())
        };
        let retry = RecoveryAction::Retry {
            budget: 2,
            backoff: Backoff::none(),
        };

        let (out, state, c) = run(vec![retry, RecoveryAction::Stop], 2);
        assert_eq!((out.unwrap(), state), (2, MountState::ReadWrite));
        assert_eq!((c.retries, c.masked), (2, 1));

        let (out, state, _) = run(vec![retry, RecoveryAction::Propagate], 0);
        assert_eq!(out.unwrap_err().errno(), Some(Errno::EIO));
        assert_eq!(state, MountState::ReadWrite);

        let (out, state, c) = run(vec![RecoveryAction::DegradeReadOnly], 0);
        assert_eq!(out.unwrap_err().errno(), Some(Errno::EIO));
        assert_eq!((state, c.degrades), (MountState::ReadOnly, 1));

        let (out, state, c) = run(vec![RecoveryAction::Stop], 0);
        assert!(out.unwrap_err().is_panic());
        assert_eq!((state, c.stops), (MountState::Crashed, 1));
    }

    #[test]
    fn clones_share_state() {
        let a = FsEnv::new();
        let b = a.clone();
        a.remount_readonly("fs", "ro");
        assert_eq!(b.state(), MountState::ReadOnly);
    }
}
