//! Virtual monotonic clock.
//!
//! Every time-dependent mechanism in the simulator (RCU stall detection,
//! watchdog deadlines, audit timestamps) reads this clock instead of the
//! host's, which keeps experiments deterministic and lets the termination
//! experiment of §2.2 "run" for 800 simulated seconds — or millions of
//! simulated years — in milliseconds of host time.

use std::cell::Cell;
use std::rc::Rc;

use crate::inject::InjectSlot;

/// Nanoseconds per second, for converting the paper's second-scale numbers.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A monotonically advancing virtual clock, shared within one kernel.
///
/// Cloning a `VirtualClock` yields a handle onto the same underlying
/// instant; advancing through any handle is visible through all of them.
/// The handles share one `Cell` through `Rc`, so every handle stays on
/// the thread of the kernel that owns the clock.
///
/// # Examples
///
/// ```
/// use kernel_sim::time::VirtualClock;
///
/// let clock = VirtualClock::new();
/// let view = clock.clone();
/// clock.advance(1_000);
/// assert_eq!(view.now_ns(), 1_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_ns: Rc<Cell<u64>>,
    pub(crate) inject: Rc<InjectSlot>,
}

impl VirtualClock {
    /// Creates a clock starting at instant zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a handle onto the same instant that never participates in
    /// fault injection — used by the injection plane itself for audit
    /// timestamps, breaking the plane → clock → plane reference cycle.
    pub fn bare_handle(&self) -> Self {
        VirtualClock {
            now_ns: Rc::clone(&self.now_ns),
            inject: Rc::new(InjectSlot::default()),
        }
    }

    /// Returns the current instant in nanoseconds since clock creation.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.get()
    }

    /// Whether a fault plan is armed on this clock, i.e. whether
    /// `advance` may carry injected forward jumps. Batched callers must
    /// fall back to per-step advances when this holds, so the injection
    /// dice see the same draw sequence either way.
    pub fn is_perturbed(&self) -> bool {
        self.inject.get().is_some()
    }

    /// Advances the clock by `delta_ns` nanoseconds and returns the new
    /// instant.
    ///
    /// When a fault plan is armed the advance may additionally carry an
    /// injected forward jump. The instant wraps at `u64::MAX`.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        let mut total = delta_ns;
        if let Some(plane) = self.inject.get() {
            if let Some(jump) = plane.clock_jump() {
                total = total.saturating_add(jump);
            }
        }
        let now = self.now_ns.get().wrapping_add(total);
        self.now_ns.set(now);
        now
    }

    /// Advances the clock by whole seconds; convenience for experiment code.
    pub fn advance_secs(&self, secs: u64) -> u64 {
        self.advance(secs.saturating_mul(NANOS_PER_SEC))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(VirtualClock::new().now_ns(), 0);
    }

    #[test]
    fn advance_is_visible_through_clones() {
        let clock = VirtualClock::new();
        let view = clock.clone();
        assert_eq!(clock.advance(5), 5);
        assert_eq!(view.now_ns(), 5);
        view.advance(10);
        assert_eq!(clock.now_ns(), 15);
    }

    #[test]
    fn advance_secs_scales() {
        let clock = VirtualClock::new();
        clock.advance_secs(2);
        assert_eq!(clock.now_ns(), 2 * NANOS_PER_SEC);
    }

    #[test]
    fn advance_wraps_at_the_top_of_the_range() {
        let clock = VirtualClock::new();
        clock.advance(u64::MAX - 1);
        assert_eq!(clock.advance(3), 1);
        assert_eq!(clock.now_ns(), 1);
    }

    #[test]
    fn advance_returns_new_instant() {
        let clock = VirtualClock::new();
        clock.advance(7);
        assert_eq!(clock.advance(3), 10);
    }
}
