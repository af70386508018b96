//! Failure-policy inference (§4.3, automated).
//!
//! "To determine how a fault affected the file system, we compare the
//! results of running with and without the fault. We perform this
//! comparison across all observable outputs from the system: the error
//! codes and data returned by the file system API, the contents of the
//! system log, and the low-level I/O traces recorded by the
//! fault-injection layer."
//!
//! Each observable feeds a specific classification rule. The log is read
//! through [`LogEntry::evidence`], the levels the emitting site declared a
//! line evidence of, never through its words:
//!
//! | evidence | inferred level |
//! |---|---|
//! | any reaction to an explicit error code | `DErrorCode` |
//! | an `EUCLEAN` step, or a log line with `DSanity` evidence (refused mount, failed sanity check) | `DSanity` |
//! | a log line with `DRedundancy` evidence (checksum mismatch) | `DRedundancy` |
//! | error returned through the API | `RPropagate` |
//! | crash / read-only remount / refused mount | `RStop` |
//! | repeated I/O to the faulted address in the trace | `RRetry` |
//! | a replica/parity read in the trace, or a log line with `RRedundancy` evidence | `RRedundancy` |
//! | a blank (all-zero) read returned without error | `RGuess` |
//! | fault fired, nothing else observed | `DZero`/`RZero` |

use iron_blockdev::{IoEvent, IoOutcome};
use iron_core::klog::{LogEntry, LogLevel};
use iron_core::policy::{DetectionSet, PolicyCell, RecoverySet};
use iron_core::{BlockAddr, DetectionLevel, Errno, IoKind, RecoveryLevel};
use iron_ext3::BlockType;
use iron_vfs::{MountState, VfsError};

use crate::campaign::FaultMode;
use crate::workloads::{Outcome, WorkloadOutput};

/// Everything observed from one faulty run, paired with its fault-free
/// reference.
#[derive(Debug)]
pub struct Observation<'a> {
    /// The injected fault's mode.
    pub mode: FaultMode,
    /// Did the fault actually fire? (If not, the cell is inapplicable.)
    pub fired: bool,
    /// The address the fault anchored on.
    pub anchor: Option<BlockAddr>,
    /// Output of the fault-free reference run.
    pub reference: &'a WorkloadOutput,
    /// Output of the faulty run (a failed mount appears as a `"mount"` step).
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

impl Observation<'_> {
    fn outputs_deviate(&self) -> bool {
        *self.reference != self.faulty
    }

    fn api_error_appeared(&self) -> bool {
        // Panics are RStop, not error propagation; mount failures count as
        // propagation only when they surface an errno.
        (self.faulty.any_errno() && !self.reference.any_errno())
            || matches!(self.mount_error, Some(VfsError::Errno(_)))
    }

    /// A refused mount is a `"mount"` step too.
    fn euclean_appeared(&self) -> bool {
        let euclean = Outcome::Errno(Errno::EUCLEAN);
        self.faulty.steps.iter().any(|s| s.outcome == euclean)
    }

    /// Every level a line of the faulty run's log declared evidence of.
    fn logged(&self) -> PolicyCell {
        let mut cell = PolicyCell::default();
        for e in &self.klog {
            cell.detection = cell.detection.union(e.evidence.detection);
            cell.recovery = cell.recovery.union(e.evidence.recovery);
        }
        cell
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
    fn used_redundancy(&self, logged: &PolicyCell) -> bool {
        if logged.recovery.contains(RecoveryLevel::RRedundancy) {
            return true;
        }
        // Explicit redundancy block types read successfully after the
        // first faulted event.
        let first_bad = self
            .trace
            .iter()
            .position(|e| e.outcome != IoOutcome::Ok)
            .unwrap_or(0);
        let redundancy = [BlockType::Replica.tag(), BlockType::Parity.tag()];
        self.trace[first_bad..].iter().any(|e| {
            e.kind == IoKind::Read && e.outcome == IoOutcome::Ok && redundancy.contains(&e.tag)
        })
    }

    /// Did a read step fabricate blank content (an all-zero result that
    /// the reference run did not produce)?
    fn blank_data_returned(&self) -> bool {
        self.faulty.steps.iter().any(|s| {
            matches!(s.outcome, Outcome::Ok { blank: true, .. })
                && !self.reference.steps.contains(s)
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
    let logged = obs.logged();

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
            if logged.detection.contains(DetectionLevel::DRedundancy) {
                detection.insert(DetectionLevel::DRedundancy);
            }
            if obs.euclean_appeared() || logged.detection.contains(DetectionLevel::DSanity) {
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
    if obs.used_redundancy(&logged) {
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
    use crate::workloads::Step;
    use iron_core::BlockTag;

    fn output(steps: Vec<Step>) -> WorkloadOutput {
        WorkloadOutput {
            steps,
            step_trace_marks: Vec::new(),
        }
    }

    fn stat() -> WorkloadOutput {
        output(vec![Step::new("stat", Ok("42".into()))])
    }

    fn err(e: Errno) -> WorkloadOutput {
        output(vec![Step::new("stat", Err(e.into()))])
    }

    fn base_obs(mode: FaultMode, reference: &WorkloadOutput) -> Observation<'_> {
        Observation {
            mode,
            fired: true,
            anchor: Some(BlockAddr(100)),
            reference,
            faulty: stat(),
            mount_error: None,
            final_state: MountState::ReadWrite,
            klog: Vec::new(),
            trace: Vec::new(),
        }
    }

    fn log(msg: &str, level: LogLevel, evidence: PolicyCell) -> LogEntry {
        LogEntry {
            level,
            subsystem: "test",
            message: msg.into(),
            evidence,
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
        let reference = stat();
        let mut obs = base_obs(FaultMode::ReadError, &reference);
        obs.fired = false;
        assert_eq!(infer(&obs), None);
    }

    #[test]
    fn silently_ignored_write_error_is_zero_zero() {
        let reference = stat();
        let obs = base_obs(FaultMode::WriteError, &reference);
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DZero));
        assert!(cell.recovery.contains(RecoveryLevel::RZero));
        assert_eq!(cell.detection.len(), 1);
    }

    #[test]
    fn propagated_read_error_with_stop() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::ReadError, &reference);
        obs.faulty = err(Errno::EIO);
        obs.final_state = MountState::ReadOnly;
        let none = PolicyCell::default();
        obs.klog
            .push(log("I/O error reading block", LogLevel::Error, none));
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RPropagate));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));
    }

    #[test]
    fn retry_seen_in_trace() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::ReadError, &reference);
        obs.faulty = err(Errno::EIO);
        obs.trace = vec![
            ev(100, IoKind::Read, "data", IoOutcome::Error),
            ev(100, IoKind::Read, "data", IoOutcome::Error),
        ];
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RRetry));
    }

    #[test]
    fn replica_read_is_redundancy() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::ReadError, &reference);
        let none = PolicyCell::default();
        obs.klog.push(log(
            "I/O error reading metadata block",
            LogLevel::Error,
            none,
        ));
        obs.trace = vec![
            ev(100, IoKind::Read, "inode", IoOutcome::Error),
            ev(2148, IoKind::Read, "m-replica", IoOutcome::Ok),
        ];
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RRedundancy));
        assert!(!cell.recovery.contains(RecoveryLevel::RPropagate));
    }

    #[test]
    fn logged_redundancy_evidence_is_redundancy() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::ReadError, &reference);
        let replica = RecoveryLevel::RRedundancy.into();
        obs.klog.push(log(
            "superblock recovered from replica",
            LogLevel::Info,
            replica,
        ));
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RRedundancy));
    }

    #[test]
    fn corruption_with_checksum_evidence_is_dredundancy() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::Corruption, &reference);
        let checksum = DetectionLevel::DRedundancy.into();
        obs.klog.push(log(
            "checksum mismatch on data block 99",
            LogLevel::Error,
            checksum,
        ));
        obs.faulty = err(Errno::EIO);
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DRedundancy));
    }

    #[test]
    fn words_without_evidence_are_not_evidence() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::Corruption, &reference);
        let none = PolicyCell::default();
        obs.klog
            .push(log("inode 5 failed sanity check", LogLevel::Error, none));
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DZero));
    }

    #[test]
    fn corruption_silently_used_is_dzero() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::Corruption, &reference);
        // Output deviates (garbage parsed) but nothing was detected.
        obs.faulty = err(Errno::ENOENT);
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DZero));
        assert!(
            cell.recovery.contains(RecoveryLevel::RPropagate),
            "the spurious ENOENT still reaches the user"
        );
    }

    #[test]
    fn corruption_with_sanity_evidence_is_dsanity() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::Corruption, &reference);
        obs.faulty = err(Errno::EUCLEAN);
        let sanity = DetectionLevel::DSanity.into();
        obs.klog
            .push(log("inode 5 failed sanity check", LogLevel::Error, sanity));
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DSanity));
        assert!(!cell.detection.contains(DetectionLevel::DRedundancy));
    }

    #[test]
    fn blank_page_is_guess_with_sanity() {
        let reference = output(vec![Step::read("read", Ok(vec![7; 8192]))]);
        let mut obs = base_obs(FaultMode::Corruption, &reference);
        obs.faulty = output(vec![Step::read("read", Ok(vec![0; 8192]))]);
        let cell = infer(&obs).unwrap();
        assert!(cell.recovery.contains(RecoveryLevel::RGuess));
        assert!(cell.detection.contains(DetectionLevel::DSanity));
    }

    #[test]
    fn panic_counts_as_stop() {
        let reference = stat();
        let mut obs = base_obs(FaultMode::WriteError, &reference);
        let panic = VfsError::KernelPanic("boom".into());
        obs.faulty = output(vec![Step::new("sync", Err(panic))]);
        obs.final_state = MountState::Crashed;
        let cell = infer(&obs).unwrap();
        assert!(cell.detection.contains(DetectionLevel::DErrorCode));
        assert!(cell.recovery.contains(RecoveryLevel::RStop));
    }
}
