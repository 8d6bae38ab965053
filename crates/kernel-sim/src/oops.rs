//! Kernel oops capture.
//!
//! In the real kernel, a fault taken in kernel context kills the machine (or
//! at best taints it). Here it produces an [`Oops`] record: the experiments
//! of §2.2 need to *observe* kernel crashes caused by verified programs, not
//! actually crash.

use std::cell::RefCell;

use crate::mem::Fault;

/// Why the kernel oopsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OopsReason {
    /// A memory fault taken in kernel context.
    Fault(Fault),
    /// A panic (BUG()-style assertion) in kernel context.
    Panic(String),
    /// A hard lockup: a CPU made no progress past the watchdog horizon.
    HardLockup,
    /// A fatal RCU stall escalated to an oops.
    RcuStallFatal,
}

impl std::fmt::Display for OopsReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OopsReason::Fault(fault) => write!(f, "memory fault: {fault}"),
            OopsReason::Panic(msg) => write!(f, "kernel panic: {msg}"),
            OopsReason::HardLockup => write!(f, "hard lockup"),
            OopsReason::RcuStallFatal => write!(f, "fatal RCU stall"),
        }
    }
}

/// A single recorded oops.
#[derive(Debug, Clone)]
pub struct Oops {
    /// The cause.
    pub reason: OopsReason,
    /// Where it happened (free-form: helper name, program id, ...).
    pub context: String,
    /// Virtual-clock timestamp.
    pub at_ns: u64,
}

/// The oops log; once non-empty the kernel is considered tainted.
#[derive(Debug, Default)]
pub struct OopsLog {
    oopses: RefCell<Vec<Oops>>,
}

impl OopsLog {
    /// Records an oops.
    pub fn record(&self, at_ns: u64, reason: OopsReason, context: impl Into<String>) {
        self.oopses.borrow_mut().push(Oops {
            reason,
            context: context.into(),
            at_ns,
        });
    }

    /// Number of oopses recorded.
    pub fn count(&self) -> usize {
        self.oopses.borrow().len()
    }

    /// Whether any oops has occurred (kernel tainted).
    pub fn tainted(&self) -> bool {
        !self.oopses.borrow().is_empty()
    }

    /// Snapshot of all oopses.
    pub fn snapshot(&self) -> Vec<Oops> {
        self.oopses.borrow().clone()
    }

    /// Clears the log; used by benches between iterations.
    pub fn clear(&self) {
        self.oopses.borrow_mut().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_untainted() {
        let log = OopsLog::default();
        assert!(!log.tainted());
        assert_eq!(log.count(), 0);
    }

    #[test]
    fn recording_taints() {
        let log = OopsLog::default();
        log.record(7, OopsReason::Fault(Fault::NullDeref { addr: 0 }), "helper");
        assert!(log.tainted());
        assert_eq!(log.count(), 1);
        let snap = log.snapshot();
        assert_eq!(snap[0].at_ns, 7);
        assert_eq!(snap[0].context, "helper");
        assert!(matches!(snap[0].reason, OopsReason::Fault(_)));
    }

    #[test]
    fn display_is_informative() {
        let r = OopsReason::Fault(Fault::NullDeref { addr: 0x10 });
        assert!(r.to_string().contains("NULL dereference"));
        assert!(OopsReason::Panic("boom".into())
            .to_string()
            .contains("boom"));
    }

    #[test]
    fn clear_untaints() {
        let log = OopsLog::default();
        log.record(0, OopsReason::HardLockup, "cpu0");
        log.clear();
        assert!(!log.tainted());
    }
}
