//! Structured audit log.
//!
//! Every subsystem appends [`AuditEvent`]s here; integration tests and the
//! experiment harness assert on the log instead of scraping text output.

use std::cell::RefCell;

use crate::mem::Fault;

/// The kind of a recorded event, used for counting and filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// A kernel oops was recorded (fault or panic in kernel context).
    Oops,
    /// The RCU stall detector fired for an over-long read-side section.
    RcuStall,
    /// `synchronize_rcu` was invoked from within a read-side section.
    RcuDeadlock,
    /// An execution finished while still holding object references.
    RefLeak,
    /// A reference count was decremented below zero.
    RefUnderflow,
    /// An execution finished while still holding spinlocks.
    LockLeak,
    /// A spinlock was re-acquired by its current owner (AA deadlock).
    LockDeadlock,
    /// A watchdog terminated an extension.
    WatchdogFired,
    /// An extension panicked and was terminated safely.
    ExtensionPanic,
    /// An extension exceeded its stack-depth guard.
    StackOverflowGuard,
    /// An extension was loaded (either framework).
    ExtensionLoaded,
    /// An extension load was rejected.
    LoadRejected,
    /// A sanitizing wrapper rejected a bad argument before unsafe code.
    WrapperRejected,
    /// The fault-injection plane injected a fault (see [`crate::inject`]).
    FaultInjected,
    /// An extension crossed the quarantine threshold (or a quarantined
    /// extension was refused entry).
    Quarantined,
    /// The sandbox lane trapped an SFI domain violation (the run aborts;
    /// the kernel stays pristine).
    DomainTrap,
    /// An LSM-style policy hook denied a gated operation (including
    /// fail-closed denials when the policy program itself was killed).
    PolicyDenied,
    /// Free-form informational event.
    Info,
}

/// A single audit record.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Virtual-clock timestamp at which the event was recorded.
    pub at_ns: u64,
    /// Event kind, for counting.
    pub kind: EventKind,
    /// Human-readable detail.
    pub detail: String,
    /// Fault payload, when the event was caused by a memory fault.
    pub fault: Option<Fault>,
}

/// An append-only event log, owned by one kernel.
///
/// # Examples
///
/// ```
/// use kernel_sim::audit::{AuditLog, EventKind};
///
/// let log = AuditLog::default();
/// log.record(0, EventKind::Info, "hello");
/// assert_eq!(log.count(EventKind::Info), 1);
/// ```
#[derive(Debug, Default)]
pub struct AuditLog {
    events: RefCell<Vec<AuditEvent>>,
}

impl AuditLog {
    /// Appends an event with no fault payload.
    pub fn record(&self, at_ns: u64, kind: EventKind, detail: impl Into<String>) {
        self.events.borrow_mut().push(AuditEvent {
            at_ns,
            kind,
            detail: detail.into(),
            fault: None,
        });
    }

    /// Appends an event carrying the fault that caused it.
    pub fn record_fault(
        &self,
        at_ns: u64,
        kind: EventKind,
        detail: impl Into<String>,
        fault: Fault,
    ) {
        self.events.borrow_mut().push(AuditEvent {
            at_ns,
            kind,
            detail: detail.into(),
            fault: Some(fault),
        });
    }

    /// Returns the number of events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind == kind)
            .count()
    }

    /// Returns a snapshot of all events recorded so far.
    pub fn snapshot(&self) -> Vec<AuditEvent> {
        self.events.borrow().clone()
    }

    /// Returns snapshots of events of one kind.
    pub fn of_kind(&self, kind: EventKind) -> Vec<AuditEvent> {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.kind == kind)
            .cloned()
            .collect()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Clears the log; used by benchmarks between iterations.
    pub fn clear(&self) {
        self.events.borrow_mut().clear();
    }

    /// The canonical fingerprint of everything recorded so far; see
    /// [`fingerprint`].
    pub fn fingerprint(&self) -> String {
        fingerprint(&self.events.borrow())
    }
}

/// Serializes an audit snapshot into a canonical byte-comparable form:
/// one `at_ns|kind|detail|fault` line per event.
///
/// This is the determinism contract of the soak and dispatch harnesses —
/// two runs are "byte-identical" exactly when these strings match — so
/// every consumer (soak replay, sharded merge, CI hashing) must use this
/// one serialization.
pub fn fingerprint(events: &[AuditEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&format!(
            "{}|{:?}|{}|{:?}\n",
            e.at_ns, e.kind, e.detail, e.fault
        ));
    }
    out
}

/// Merges per-shard audit snapshots into one canonical stream: shards are
/// concatenated in ascending shard-id order, each section prefixed with a
/// `== shard N ==` header. Because each shard's events are ordered by its
/// own deterministic execution, the merged string is independent of the
/// thread interleaving that produced the snapshots.
pub fn merged_fingerprint(shards: &[(usize, Vec<AuditEvent>)]) -> String {
    let mut ordered: Vec<&(usize, Vec<AuditEvent>)> = shards.iter().collect();
    ordered.sort_by_key(|(shard, _)| *shard);
    let mut out = String::new();
    for (shard, events) in ordered {
        out.push_str(&format!("== shard {shard} ==\n"));
        out.push_str(&fingerprint(events));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let log = AuditLog::default();
        log.record(1, EventKind::Info, "a");
        log.record(2, EventKind::RcuStall, "b");
        log.record(3, EventKind::RcuStall, "c");
        assert_eq!(log.count(EventKind::RcuStall), 2);
        assert_eq!(log.count(EventKind::Info), 1);
        assert_eq!(log.count(EventKind::Oops), 0);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn fault_payload_is_preserved() {
        let log = AuditLog::default();
        log.record_fault(5, EventKind::Oops, "deref", Fault::NullDeref { addr: 0 });
        let events = log.of_kind(EventKind::Oops);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].fault,
            Some(Fault::NullDeref { addr: 0 })
        ));
        assert_eq!(events[0].at_ns, 5);
    }

    #[test]
    fn clear_empties_log() {
        let log = AuditLog::default();
        log.record(0, EventKind::Info, "x");
        assert!(!log.is_empty());
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn fingerprint_is_canonical_and_order_sensitive() {
        let log = AuditLog::default();
        log.record(1, EventKind::Info, "a");
        log.record_fault(2, EventKind::Oops, "b", Fault::NullDeref { addr: 0 });
        let fp = log.fingerprint();
        assert_eq!(fp, "1|Info|a|None\n2|Oops|b|Some(NullDeref { addr: 0 })\n");
        // Same events in a different order fingerprint differently.
        let events = log.snapshot();
        let reversed: Vec<_> = events.iter().rev().cloned().collect();
        assert_ne!(fingerprint(&reversed), fp);
    }

    #[test]
    fn merged_fingerprint_sorts_by_shard_id() {
        let a = vec![AuditEvent {
            at_ns: 1,
            kind: EventKind::Info,
            detail: "a".into(),
            fault: None,
        }];
        let b = vec![AuditEvent {
            at_ns: 2,
            kind: EventKind::Info,
            detail: "b".into(),
            fault: None,
        }];
        // Snapshot arrival order (join order, scheduling) must not matter.
        let forward = merged_fingerprint(&[(0, a.clone()), (1, b.clone())]);
        let backward = merged_fingerprint(&[(1, b), (0, a)]);
        assert_eq!(forward, backward);
        assert!(forward.starts_with("== shard 0 ==\n1|Info|a|None\n"));
    }
}
