//! RCU read-side critical sections with a stall detector.
//!
//! eBPF programs run under `rcu_read_lock()`; §2.2's termination exploit
//! holds that lock for ~forever via nested `bpf_loop`, provoking RCU CPU
//! stall warnings. This module reproduces the mechanism: read-side sections
//! are tracked against the virtual clock and a detector (polled by the
//! interpreter and the safe-ext runtime) reports a stall for every elapsed
//! stall period, mirroring Linux's repeating 21-second stall warnings.

use std::cell::Cell;

use crate::{
    audit::{AuditLog, EventKind},
    time::{VirtualClock, NANOS_PER_SEC},
    trace::SpanKind,
};

/// Linux's default `RCU_CPU_STALL_TIMEOUT` (21 s), in nanoseconds.
pub const DEFAULT_STALL_TIMEOUT_NS: u64 = 21 * NANOS_PER_SEC;

/// Errors from RCU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcuError {
    /// `synchronize` called from inside a read-side critical section.
    SynchronizeInReader,
    /// `read_unlock` without a matching `read_lock`.
    UnbalancedUnlock,
}

impl std::fmt::Display for RcuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RcuError::SynchronizeInReader => {
                write!(
                    f,
                    "synchronize_rcu() called inside a read-side critical section"
                )
            }
            RcuError::UnbalancedUnlock => write!(f, "rcu_read_unlock() without read_lock()"),
        }
    }
}

impl std::error::Error for RcuError {}

/// Read-side state, kept in independent `Cell`s: the read-lock/unlock
/// pair and the stall poll sit on the per-packet hot path, and each
/// kernel has one owner, so plain loads and stores suffice.
#[derive(Debug, Default)]
struct RcuState {
    depth: Cell<u32>,
    outermost_enter_ns: Cell<u64>,
    stalls_reported_this_section: Cell<u64>,
    gp_seq: Cell<u64>,
    total_stalls: Cell<u64>,
}

/// The RCU subsystem.
///
/// # Examples
///
/// ```
/// use kernel_sim::{rcu::Rcu, time::VirtualClock, audit::AuditLog};
///
/// let clock = VirtualClock::new();
/// let rcu = Rcu::new(clock.clone());
/// let audit = AuditLog::default();
///
/// {
///     let _guard = rcu.read_lock();
///     clock.advance_secs(30); // Longer than the 21 s stall timeout.
///     assert_eq!(rcu.check_stall(&audit), 1);
/// }
/// assert!(rcu.quiescent());
/// ```
#[derive(Debug)]
pub struct Rcu {
    clock: VirtualClock,
    stall_timeout_ns: u64,
    state: RcuState,
    pub(crate) inject: crate::inject::InjectSlot,
    pub(crate) trace: crate::trace::TraceSlot,
}

impl Rcu {
    /// Creates an RCU subsystem with the default stall timeout.
    pub fn new(clock: VirtualClock) -> Self {
        Self::with_stall_timeout(clock, DEFAULT_STALL_TIMEOUT_NS)
    }

    /// Creates an RCU subsystem with a custom stall timeout.
    pub fn with_stall_timeout(clock: VirtualClock, stall_timeout_ns: u64) -> Self {
        Self {
            clock,
            stall_timeout_ns: stall_timeout_ns.max(1),
            state: RcuState::default(),
            inject: crate::inject::InjectSlot::default(),
            trace: crate::trace::TraceSlot::default(),
        }
    }

    /// Enters a read-side critical section; the returned guard exits it on
    /// drop. Sections nest.
    ///
    /// When a fault plan is armed, entering an outermost section may carry
    /// an injected grace-period delay: the clock advances so the section
    /// appears to have been running for a long time, approaching (but by
    /// itself never crossing) the stall threshold.
    pub fn read_lock(&self) -> RcuReadGuard<'_> {
        let depth = self.state.depth.get();
        self.state.depth.set(depth + 1);
        if depth == 0 {
            self.state.outermost_enter_ns.set(self.clock.now_ns());
            self.state.stalls_reported_this_section.set(0);
            if let Some(plane) = self.inject.get() {
                if let Some(delay) = plane.rcu_entry_delay(self.stall_timeout_ns) {
                    self.clock.advance(delay);
                }
            }
            if let Some(tracer) = self.trace.get() {
                tracer.enter(crate::trace::SpanKind::RcuRead, 0);
            }
        }
        RcuReadGuard { rcu: self }
    }

    fn read_unlock(&self) {
        let prev = self.state.depth.get();
        debug_assert!(prev > 0, "unbalanced rcu_read_unlock");
        self.state.depth.set(prev.wrapping_sub(1));
        if prev == 1 {
            if let Some(tracer) = self.trace.get() {
                tracer.exit(crate::trace::SpanKind::RcuRead, 0);
            }
        }
    }

    /// Whether no read-side critical section is active.
    pub fn quiescent(&self) -> bool {
        self.state.depth.get() == 0
    }

    /// Current read-side nesting depth.
    pub fn depth(&self) -> u32 {
        self.state.depth.get()
    }

    /// Waits for a grace period; fails (and would deadlock on real hardware)
    /// when called from inside a read-side section.
    pub fn synchronize(&self, audit: &AuditLog) -> Result<u64, RcuError> {
        if self.state.depth.get() > 0 {
            audit.record(
                self.clock.now_ns(),
                EventKind::RcuDeadlock,
                "synchronize_rcu() inside read-side critical section",
            );
            return Err(RcuError::SynchronizeInReader);
        }
        let seq = self.state.gp_seq.get() + 1;
        self.state.gp_seq.set(seq);
        // Probe source for the hook layer: one instant per completed
        // grace period. The arg stays 0 — the sequence number is
        // per-kernel state and would break shard-count invariance.
        if let Some(tracer) = self.trace.get() {
            tracer.instant(SpanKind::RcuGrace, 0);
        }
        Ok(seq)
    }

    /// Grace-period sequence number (number of completed grace periods).
    pub fn gp_seq(&self) -> u64 {
        self.state.gp_seq.get()
    }

    /// Polls the stall detector.
    ///
    /// Reports one [`EventKind::RcuStall`] event for every full stall
    /// timeout that has elapsed inside the current read-side section since
    /// the last report, and returns how many new stalls were reported.
    pub fn check_stall(&self, audit: &AuditLog) -> u64 {
        if self.state.depth.get() == 0 {
            return 0;
        }
        let now = self.clock.now_ns();
        let elapsed = now.saturating_sub(self.state.outermost_enter_ns.get());
        let due = elapsed / self.stall_timeout_ns;
        let reported = self.state.stalls_reported_this_section.get();
        let new = due.saturating_sub(reported);
        for i in 0..new {
            let nth = reported + i + 1;
            audit.record(
                now,
                EventKind::RcuStall,
                format!(
                    "rcu: INFO: rcu_sched detected stall on CPU ({}s in read-side section, report #{nth})",
                    elapsed / NANOS_PER_SEC
                ),
            );
        }
        self.state.stalls_reported_this_section.set(due);
        self.state
            .total_stalls
            .set(self.state.total_stalls.get() + new);
        new
    }

    /// Total stalls reported since creation.
    pub fn total_stalls(&self) -> u64 {
        self.state.total_stalls.get()
    }
}

/// RAII guard for an RCU read-side critical section.
#[derive(Debug)]
pub struct RcuReadGuard<'a> {
    rcu: &'a Rcu,
}

impl Drop for RcuReadGuard<'_> {
    fn drop(&mut self) {
        self.rcu.read_unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (VirtualClock, Rcu, AuditLog) {
        let clock = VirtualClock::new();
        let rcu = Rcu::new(clock.clone());
        (clock, rcu, AuditLog::default())
    }

    #[test]
    fn guard_tracks_depth_and_nests() {
        let (_, rcu, _) = setup();
        assert!(rcu.quiescent());
        {
            let _a = rcu.read_lock();
            assert_eq!(rcu.depth(), 1);
            {
                let _b = rcu.read_lock();
                assert_eq!(rcu.depth(), 2);
            }
            assert_eq!(rcu.depth(), 1);
        }
        assert!(rcu.quiescent());
    }

    #[test]
    fn no_stall_below_timeout() {
        let (clock, rcu, audit) = setup();
        let _g = rcu.read_lock();
        clock.advance_secs(20);
        assert_eq!(rcu.check_stall(&audit), 0);
        assert_eq!(audit.count(EventKind::RcuStall), 0);
    }

    #[test]
    fn stall_reported_past_timeout_and_repeats() {
        let (clock, rcu, audit) = setup();
        let _g = rcu.read_lock();
        clock.advance_secs(22);
        assert_eq!(rcu.check_stall(&audit), 1);
        // No duplicate report until the next full period elapses.
        assert_eq!(rcu.check_stall(&audit), 0);
        clock.advance_secs(21);
        assert_eq!(rcu.check_stall(&audit), 1);
        assert_eq!(rcu.total_stalls(), 2);
    }

    #[test]
    fn eight_hundred_seconds_reports_many_stalls() {
        // The paper ran its exploit for 800 s, "more than enough to observe
        // RCU stalls": 800 / 21 = 38 full stall periods.
        let (clock, rcu, audit) = setup();
        let _g = rcu.read_lock();
        clock.advance_secs(800);
        assert_eq!(rcu.check_stall(&audit), 800 / 21);
    }

    #[test]
    fn no_stall_when_quiescent() {
        let (clock, rcu, audit) = setup();
        clock.advance_secs(100);
        assert_eq!(rcu.check_stall(&audit), 0);
    }

    #[test]
    fn section_reset_clears_stall_accounting() {
        let (clock, rcu, audit) = setup();
        {
            let _g = rcu.read_lock();
            clock.advance_secs(30);
            assert_eq!(rcu.check_stall(&audit), 1);
        }
        {
            let _g = rcu.read_lock();
            clock.advance_secs(5);
            assert_eq!(rcu.check_stall(&audit), 0);
        }
    }

    #[test]
    fn synchronize_outside_reader_advances_gp() {
        let (_, rcu, audit) = setup();
        assert_eq!(rcu.synchronize(&audit).unwrap(), 1);
        assert_eq!(rcu.synchronize(&audit).unwrap(), 2);
        assert_eq!(rcu.gp_seq(), 2);
    }

    #[test]
    fn synchronize_inside_reader_is_deadlock() {
        let (_, rcu, audit) = setup();
        let _g = rcu.read_lock();
        assert_eq!(rcu.synchronize(&audit), Err(RcuError::SynchronizeInReader));
        assert_eq!(audit.count(EventKind::RcuDeadlock), 1);
    }
}
