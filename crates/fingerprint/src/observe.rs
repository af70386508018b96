//! Failure-policy inference (§4.3, automated).
//!
//! "To determine how a fault affected the file system, we compare the
//! results of running with and without the fault. We perform this
//! comparison across all observable outputs from the system: the error
//! codes and data returned by the file system API, the contents of the
//! system log, and the low-level I/O traces recorded by the
//! fault-injection layer."
//!
//! Each observable feeds a specific classification rule:
//!
//! | evidence | inferred level |
//! |---|---|
//! | any reaction to an explicit error code | `DErrorCode` |
//! | log/sanity rejection of corrupt contents (`EUCLEAN`, magic/sanity messages, refused mount) | `DSanity` |
//! | checksum-mismatch messages | `DRedundancy` |
//! | error returned through the API | `RPropagate` |
//! | crash / read-only remount / refused mount | `RStop` |
//! | repeated I/O to the faulted address in the trace | `RRetry` |
//! | replica/parity/alternate reads in trace or log | `RRedundancy` |
//! | fabricated (all-zero) data returned without error | `RGuess` |
//! | fault fired, nothing else observed | `DZero`/`RZero` |

use iron_blockdev::trace::{IoEvent, IoOutcome};
use iron_core::klog::{LogEntry, LogLevel};
use iron_core::policy::{DetectionSet, PolicyCell, RecoverySet};
use iron_core::{BlockAddr, DetectionLevel, Errno, IoKind, RecoveryLevel};
use iron_vfs::{MountState, VfsError};

use crate::campaign::FaultMode;
use crate::workloads::WorkloadOutput;

/// Everything observed from one faulty run, paired with its fault-free
/// reference.
#[derive(Debug)]
pub struct Observation {
    /// The injected fault's mode.
    pub mode: FaultMode,
    /// Did the fault actually fire? (If not, the cell is inapplicable.)
    pub fired: bool,
    /// The address the fault anchored on.
    pub anchor: Option<BlockAddr>,
    /// Output of the fault-free reference run.
    pub reference: WorkloadOutput,
    /// Output of the faulty run (mount failures appear as a `mount:` step).
    pub faulty: WorkloadOutput,
    /// Error from the mount itself, if mounting failed.
    pub mount_error: Option<VfsError>,
    /// Mount state after the run.
    pub final_state: MountState,
    /// Kernel-log lines from the faulty run.
    pub klog: Vec<LogEntry>,
    /// I/O-trace events from the faulty run.
    pub trace: Vec<IoEvent>,
}

const SANITY_MARKERS: [&str; 10] = [
    "sanity",
    "magic",
    "corrupt",
    "invalid",
    "unusable",
    "unmountable",
    "can not find",
    "Can't find",
    "needs cleaning",
    "vs-", // ReiserFS sanity-check message prefixes
];

const REDUNDANCY_LOG_MARKERS: [&str; 5] = [
    "recovered from replica",
    "reconstructed from parity",
    "trying alternate",
    "checksum mismatch",
    "transactional checksum mismatch",
];

/// The most attempts (trace events matching `is_attempt`) that any one
/// operation made.
///
/// An FS-level retry re-issues the request *within one operation*; the
/// workload touching the same block again in a later step is not a retry.
/// `marks` (trace lengths at step ends) scope the count: each segment
/// between two marks, and the tail after the last, is one operation.
/// Without marks the whole trace is one.
pub fn most_attempts_in_one_step(
    trace: &[IoEvent],
    marks: &[usize],
    is_attempt: impl Fn(&IoEvent) -> bool,
) -> usize {
    let mut prev = 0;
    let ends = marks.iter().copied().chain([trace.len()]);
    ends.map(|end| {
        let step = &trace[prev..end];
        prev = end;
        step.iter().filter(|e| is_attempt(e)).count()
    })
    .max()
    .unwrap_or(0)
}

impl Observation {
    fn outputs_deviate(&self) -> bool {
        self.reference != self.faulty
    }

    fn api_error_appeared(&self) -> bool {
        // Panics are RStop, not error propagation; mount failures count as
        // propagation only when they surface an errno.
        (self.faulty.any_errno() && !self.reference.any_errno())
            || matches!(self.mount_error, Some(VfsError::Errno(_)))
    }

    fn euclean_appeared(&self) -> bool {
        self.faulty.steps.iter().any(|s| s.contains("EUCLEAN"))
            || matches!(self.mount_error, Some(VfsError::Errno(Errno::EUCLEAN)))
    }

    fn log_has(&self, markers: &[&str]) -> bool {
        self.klog
            .iter()
            .any(|e| markers.iter().any(|m| e.message.contains(m)))
    }

    fn any_noise_logged(&self) -> bool {
        self.klog.iter().any(|e| e.level >= LogLevel::Warn)
    }

    fn stopped(&self) -> bool {
        matches!(self.final_state, MountState::Crashed | MountState::ReadOnly)
            || self.mount_error.is_some()
    }

    /// Did the trace show repeated attempts at the faulted address?
    fn retried(&self) -> bool {
        let Some(anchor) = self.anchor else {
            return false;
        };
        let kind = match self.mode {
            FaultMode::WriteError => IoKind::Write,
            _ => IoKind::Read,
        };
        let marks = &self.faulty.step_trace_marks;
        let at_fault = |e: &IoEvent| e.addr == anchor && e.kind == kind;
        most_attempts_in_one_step(&self.trace, marks, at_fault) >= 2
    }

    /// Did the trace show redundancy being consulted after the fault?
    fn used_redundancy(&self) -> bool {
        if self.log_has(&REDUNDANCY_LOG_MARKERS[..3]) {
            return true;
        }
        // Explicit redundancy block types read successfully after the
        // first faulted event.
        let first_bad = self
            .trace
            .iter()
            .position(|e| e.outcome != IoOutcome::Ok)
            .unwrap_or(0);
        self.trace[first_bad..].iter().any(|e| {
            e.kind == IoKind::Read
                && e.outcome == IoOutcome::Ok
                && (e.tag.0 == "m-replica" || e.tag.0 == "d-parity")
        })
    }

    /// Did a read step fabricate blank content (an all-zero result that
    /// the reference run did not produce)?
    fn blank_data_returned(&self) -> bool {
        self.faulty.steps.iter().any(|s| {
            s.contains(":ok:") && s.ends_with(":zero") && !self.reference.steps.contains(s)
        })
    }
}

/// Classify an observation into a Figure 2/3 cell.
///
/// Returns `None` when the fault never fired — the gray "not applicable"
/// cells of the paper's figures.
pub fn infer(obs: &Observation) -> Option<PolicyCell> {
    if !obs.fired {
        return None;
    }
    let mut detection = DetectionSet::EMPTY;
    let mut recovery = RecoverySet::EMPTY;

    let reacted = obs.outputs_deviate()
        || obs.api_error_appeared()
        || obs.any_noise_logged()
        || obs.stopped();

    match obs.mode {
        FaultMode::ReadError | FaultMode::WriteError | FaultMode::TransientRead => {
            // The device announced the fault with an error code; any
            // reaction at all means the code was checked.
            if reacted {
                detection.insert(DetectionLevel::DErrorCode);
            } else {
                detection.insert(DetectionLevel::DZero);
            }
        }
        FaultMode::Corruption | FaultMode::ZeroCorruption => {
            // Silent corruption: detection needs positive evidence.
            if obs.log_has(&["checksum mismatch"]) {
                detection.insert(DetectionLevel::DRedundancy);
            }
            if obs.euclean_appeared() || obs.log_has(&SANITY_MARKERS) {
                detection.insert(DetectionLevel::DSanity);
            }
            if obs.blank_data_returned() && detection.is_empty() {
                // The content was rejected internally (a sanity check) and
                // a blank substitute fabricated.
                detection.insert(DetectionLevel::DSanity);
            }
            if detection.is_empty() {
                detection.insert(DetectionLevel::DZero);
            }
        }
    }

    // Recovery classification.
    if obs.stopped() {
        recovery.insert(RecoveryLevel::RStop);
    }
    if obs.api_error_appeared() {
        recovery.insert(RecoveryLevel::RPropagate);
    }
    if obs.retried() {
        recovery.insert(RecoveryLevel::RRetry);
    }
    if obs.used_redundancy() {
        recovery.insert(RecoveryLevel::RRedundancy);
    }
    if obs.blank_data_returned() && !obs.api_error_appeared() {
        recovery.insert(RecoveryLevel::RGuess);
    }
    if recovery.is_empty() {
        recovery.insert(RecoveryLevel::RZero);
    }

    Some(PolicyCell {
        detection,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iron_core::BlockTag;

    fn base_obs(mode: FaultMode) -> Observation {
        Observation {
            mode,
            fired: true,
            anchor: Some(BlockAddr(100)),
            reference: WorkloadOutput {
                steps: vec!["stat:ok:42".into()],
                step_trace_marks: Vec::new(),
            },
            faulty: WorkloadOutput {
                steps: vec!["stat:ok:42".into()],
                step_trace_marks: Vec::new(),
            },
            mount_error: None,
            final_state: MountState::ReadWrite,
            klog: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn log(msg: &str, level: LogLevel) -> LogEntry {
        LogEntry {
            level,
            subsystem: "test",
            message: msg.into(),
        }
    }

    fn ev(addr: u64, kind: IoKind, tag: &'static str, outcome: IoOutcome) -> IoEvent {
        IoEvent {
            seq: 0,
            kind,
            addr: BlockAddr(addr),
            tag: BlockTag(tag),
            outcome,
        }
    }

    #[test]
    fn unfired_fault_is_gray() {
        let mut obs = base_obs(FaultMode::ReadError);
        obs.fired = false;
        assert_eq!(infer(&obs), None);
    }

    #[test]
    fn silently_ignored_write_error_is_zero_zero() {
        let obs = base_obs(FaultMode::WriteError);
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DZero));
        assert!(cell.recovery.contains(RecoveryLevel::RZero));
        assert_eq!(cell.detection.len(), 1);
    }

    #[test]
    fn propagated_read_error_with_stop() {
        let mut obs = base_obs(FaultMode::ReadError);
        obs.faulty.steps = vec!["stat:err:EIO".into()];
        obs.final_state = MountState::ReadOnly;
        obs.klog
            .push(log("I/O error reading block", LogLevel::Error));
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RPropagate));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));
    }

    #[test]
    fn retry_seen_in_trace() {
        let mut obs = base_obs(FaultMode::ReadError);
        obs.faulty.steps = vec!["stat:err:EIO".into()];
        obs.trace = vec![
            ev(100, IoKind::Read, "data", IoOutcome::Error),
            ev(100, IoKind::Read, "data", IoOutcome::Error),
        ];
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RRetry));
    }

    #[test]
    fn replica_read_is_redundancy() {
        let mut obs = base_obs(FaultMode::ReadError);
        obs.klog
            .push(log("I/O error reading metadata block", LogLevel::Error));
        obs.trace = vec![
            ev(100, IoKind::Read, "inode", IoOutcome::Error),
            ev(2148, IoKind::Read, "m-replica", IoOutcome::Ok),
        ];
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RRedundancy));
        assert!(!cell.recovery.contains(RecoveryLevel::RPropagate));
    }

    #[test]
    fn corruption_with_checksum_log_is_dredundancy() {
        let mut obs = base_obs(FaultMode::Corruption);
        obs.klog
            .push(log("checksum mismatch on data block 99", LogLevel::Error));
        obs.faulty.steps = vec!["stat:err:EIO".into()];
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DRedundancy));
    }

    #[test]
    fn corruption_silently_used_is_dzero() {
        let mut obs = base_obs(FaultMode::Corruption);
        // Output deviates (garbage parsed) but nothing was detected.
        obs.faulty.steps = vec!["stat:err:ENOENT".into()];
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DZero));
        assert!(
            cell.recovery.contains(RecoveryLevel::RPropagate),
            "the spurious ENOENT still reaches the user"
        );
    }

    #[test]
    fn corruption_with_sanity_message_is_dsanity() {
        let mut obs = base_obs(FaultMode::Corruption);
        obs.faulty.steps = vec!["stat:err:EUCLEAN".into()];
        obs.klog
            .push(log("inode 5 failed sanity check", LogLevel::Error));
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DSanity));
        assert!(!cell.detection.contains(DetectionLevel::DRedundancy));
    }

    #[test]
    fn blank_page_is_guess_with_sanity() {
        let mut obs = base_obs(FaultMode::Corruption);
        obs.reference.steps = vec!["read:ok:8192b:abcd12".into()];
        obs.faulty.steps = vec!["read:ok:8192b:000000:zero".into()];
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RGuess));
        assert!(cell.detection.contains(DetectionLevel::DSanity));
    }

    #[test]
    fn panic_counts_as_stop() {
        let mut obs = base_obs(FaultMode::WriteError);
        obs.faulty.steps = vec!["sync:PANIC".into()];
        obs.final_state = MountState::Crashed;
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));
    }
}
