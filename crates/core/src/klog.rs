//! The simulated kernel log.
//!
//! The paper's inference step compares "the contents of the system log"
//! across fault-free and faulty runs (§4.3). Our file-system models emit
//! their detection/recovery messages here — e.g. ReiserFS's
//! `REISERFS: panic` or ext3's `ext3_abort` — and the fingerprinting
//! framework reads them back. A line that is evidence of an IRON level
//! says so in [`LogEntry::evidence`], logged with [`KernelLog::evidence`];
//! the message text is for people and tests.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::policy::PolicyCell;

/// Severity of a log line.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LogLevel {
    /// Informational chatter.
    Info,
    /// A warning (fault noticed, non-fatal handling).
    Warn,
    /// An error (fault noticed, operation failed).
    Error,
    /// A simulated kernel panic.
    Panic,
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LogLevel::Info => "INFO",
            LogLevel::Warn => "WARN",
            LogLevel::Error => "ERROR",
            LogLevel::Panic => "PANIC",
        })
    }
}

/// One kernel-log line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Severity.
    pub level: LogLevel,
    /// Emitting subsystem (e.g. `"ext3"`, `"jfs"`, `"generic"`).
    pub subsystem: &'static str,
    /// The message text.
    pub message: String,
    /// The IRON levels this line is evidence of: a sanity check that
    /// rejected a block (`DSanity`), a checksum that did not match
    /// (`DRedundancy`), a copy served from a replica or parity
    /// (`RRedundancy`). Empty for every other line.
    pub evidence: PolicyCell,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.level, self.subsystem, self.message)
    }
}

/// A shareable, append-only in-memory kernel log.
///
/// Cloning yields a handle to the same log.
#[derive(Clone, Debug, Default)]
pub struct KernelLog {
    entries: Arc<Mutex<Vec<LogEntry>>>,
}

impl KernelLog {
    /// A new, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a line that is evidence of the IRON levels in `evidence`.
    pub fn evidence(
        &self,
        level: LogLevel,
        subsystem: &'static str,
        evidence: impl Into<PolicyCell>,
        message: impl Into<String>,
    ) {
        self.entries.lock().unwrap().push(LogEntry {
            level,
            subsystem,
            message: message.into(),
            evidence: evidence.into(),
        });
    }

    /// Append an [`LogLevel::Info`] line.
    pub fn info(&self, subsystem: &'static str, message: impl Into<String>) {
        self.evidence(LogLevel::Info, subsystem, PolicyCell::default(), message);
    }

    /// Append a [`LogLevel::Warn`] line.
    pub fn warn(&self, subsystem: &'static str, message: impl Into<String>) {
        self.evidence(LogLevel::Warn, subsystem, PolicyCell::default(), message);
    }

    /// Append an [`LogLevel::Error`] line.
    pub fn error(&self, subsystem: &'static str, message: impl Into<String>) {
        self.evidence(LogLevel::Error, subsystem, PolicyCell::default(), message);
    }

    /// Append a [`LogLevel::Panic`] line.
    pub fn panic(&self, subsystem: &'static str, message: impl Into<String>) {
        self.evidence(LogLevel::Panic, subsystem, PolicyCell::default(), message);
    }

    /// Number of lines logged so far. Use as a mark for [`Self::since`].
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every line.
    pub fn entries(&self) -> Vec<LogEntry> {
        self.entries.lock().unwrap().clone()
    }

    /// Snapshot of lines appended after the given mark (a previous `len()`).
    pub fn since(&self, mark: usize) -> Vec<LogEntry> {
        let guard = self.entries.lock().unwrap();
        guard
            .get(mark..)
            .map(<[LogEntry]>::to_vec)
            .unwrap_or_default()
    }

    /// True if any line's message contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .any(|e| e.message.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_query() {
        let log = KernelLog::new();
        assert!(log.is_empty());
        log.info("ext3", "mounted filesystem");
        log.error("ext3", "ext3_abort: journal has aborted");
        assert_eq!(log.len(), 2);
        assert!(log.contains("journal has aborted"));
        assert!(!log.contains("panic"));
    }

    #[test]
    fn since_returns_suffix() {
        let log = KernelLog::new();
        log.info("a", "one");
        let mark = log.len();
        log.warn("b", "two");
        log.panic("c", "three");
        let tail = log.since(mark);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].message, "two");
        assert_eq!(tail[1].level, LogLevel::Panic);
        assert!(log.since(99).is_empty());
    }

    #[test]
    fn clones_share_entries() {
        let a = KernelLog::new();
        let b = a.clone();
        a.error("x", "boom");
        assert!(b.contains("boom"));
    }

    #[test]
    fn display_format() {
        let e = LogEntry {
            level: LogLevel::Panic,
            subsystem: "reiserfs",
            message: "journal-601: buffer write failed".into(),
            evidence: PolicyCell::default(),
        };
        assert_eq!(
            e.to_string(),
            "[PANIC] reiserfs: journal-601: buffer write failed"
        );
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(LogLevel::Info < LogLevel::Warn);
        assert!(LogLevel::Warn < LogLevel::Error);
        assert!(LogLevel::Error < LogLevel::Panic);
    }
}
