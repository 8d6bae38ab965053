//! The quarantine circuit breaker: admission control for extensions that
//! keep getting killed.
//!
//! The runtime's mechanisms — the fuel and deadline watchdog, the stack
//! guard, trusted-destructor cleanup — end a bad run. Whether the
//! extension may run again is control-plane policy, so the breaker lives
//! here: [`crate::TenantRegistry`] keys one [`Breaker`] per `tenant/point`
//! and consults it on every run, for all three backends.

use std::collections::HashMap;
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Arc,
};

use parking_lot::Mutex;

/// Per-key quarantine circuit breaker.
///
/// The control plane cannot make a hostile or buggy extension correct,
/// but it can stop re-admitting one that keeps getting killed: after
/// `threshold` *consecutive* kills (watchdog, stack guard, or panic — the
/// outcomes where the termination engine had to step in), the key is
/// quarantined and [`Quarantine::admit`] refuses its runs until a
/// half-open probe, admitted once the cooldown has elapsed, comes back
/// clean, or until an operator calls [`Breaker::reset`]. A clean run
/// (normal return or an ordinary error) resets the consecutive-kill
/// counter.
///
/// Each key's state lives in a [`Breaker`], interned once by
/// [`Quarantine::breaker`]. A caller that runs one key many times (a
/// tenant's attachment point) resolves it once and passes the breaker to
/// [`Quarantine::admit`], [`Quarantine::record_kill`] and
/// [`Quarantine::record_clean`].
///
/// # Examples
///
/// ```
/// use tenancy::Quarantine;
///
/// let q = Quarantine::new(2, 8);
/// let flaky = q.breaker("flaky");
/// q.record_kill(&flaky);
/// assert!(!flaky.is_quarantined());
/// q.record_kill(&flaky);
/// assert!(flaky.is_quarantined());
/// assert!(!q.admit(&flaky));
/// flaky.reset();
/// assert!(q.admit(&flaky));
/// ```
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    cooldown: u32,
    breakers: Mutex<HashMap<Box<str>, Arc<Breaker>>>,
}

/// One key's breaker state, shared by everything that resolved the key.
///
/// The *calm* flag is set exactly when the key is not quarantined and has
/// had no kill since its last clean run. Then admission succeeds and a
/// clean run changes nothing, so both return after one atomic load.
/// Every other transition takes the breaker's own lock and rewrites the
/// flag under it, with `Release`; the lock-free load is `Acquire`, so a
/// caller that sees the flag set also sees the state that set it.
#[derive(Debug)]
pub struct Breaker {
    calm: AtomicBool,
    state: Mutex<QuarantineState>,
}

#[derive(Debug, Default, Clone, Copy)]
struct QuarantineState {
    consecutive_kills: u32,
    total_kills: u64,
    quarantined: bool,
    /// Refused admissions since the breaker tripped (the cooldown clock —
    /// counted in admission attempts, so it is deterministic and needs no
    /// wall time).
    cooldown_progress: u32,
    /// A half-open probe run is in flight: its outcome (the next
    /// `record_kill` / `record_clean`) decides re-trip vs readmission.
    probing: bool,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            calm: AtomicBool::new(true),
            state: Mutex::new(QuarantineState::default()),
        }
    }

    /// Whether admission and a clean run take the lock-free path.
    pub fn is_calm(&self) -> bool {
        self.calm.load(Ordering::Acquire)
    }

    /// Whether the key is currently quarantined.
    pub fn is_quarantined(&self) -> bool {
        self.state.lock().quarantined
    }

    /// Total kills ever recorded for the key.
    pub fn total_kills(&self) -> u64 {
        self.state.lock().total_kills
    }

    /// Explicitly readmits the key, clearing quarantine and the
    /// consecutive-kill counter; returns whether it was quarantined.
    pub fn reset(&self) -> bool {
        let mut st = self.state.lock();
        let was = st.quarantined;
        st.quarantined = false;
        st.consecutive_kills = 0;
        st.cooldown_progress = 0;
        st.probing = false;
        self.settle(&st);
        was
    }

    /// Rewrites the calm flag from `st`; called with the lock held.
    fn settle(&self, st: &QuarantineState) {
        self.calm.store(
            !st.quarantined && st.consecutive_kills == 0,
            Ordering::Release,
        );
    }
}

impl Quarantine {
    /// Creates a breaker that trips after `threshold` consecutive kills
    /// and, once tripped, admits one half-open probe run after `cooldown`
    /// refused admissions (both minimum 1). The probe keeps a *transient*
    /// fault storm from turning a recoverable extension into a
    /// permanently dead one.
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            breakers: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker for `key`, created on first use. Every call with the
    /// same key returns the same breaker, so state recorded through one
    /// resolution is seen through every other.
    pub fn breaker(&self, key: &str) -> Arc<Breaker> {
        let mut breakers = self.breakers.lock();
        if let Some(breaker) = breakers.get(key) {
            return Arc::clone(breaker);
        }
        let breaker = Arc::new(Breaker::new());
        breakers.insert(key.into(), Arc::clone(&breaker));
        breaker
    }

    /// Admission check for one run attempt; `false` refuses the run.
    /// Every refused attempt on a quarantined key advances the cooldown
    /// clock, and the attempt after it elapses is admitted as a half-open
    /// probe. A kill of the probe re-trips the breaker at once; a clean
    /// probe readmits the key.
    pub fn admit(&self, breaker: &Breaker) -> bool {
        if breaker.is_calm() {
            return true;
        }
        let mut st = breaker.state.lock();
        if !st.quarantined {
            return true;
        }
        if st.probing {
            // A probe is already in flight; refuse until its outcome is in.
            return false;
        }
        if st.cooldown_progress >= self.cooldown {
            st.cooldown_progress = 0;
            st.probing = true;
            true
        } else {
            st.cooldown_progress += 1;
            false
        }
    }

    /// Records a kill (watchdog / stack guard / panic); returns `true` if
    /// this kill tripped (or, for a failed probe, re-tripped) the breaker.
    pub fn record_kill(&self, breaker: &Breaker) -> bool {
        let mut st = breaker.state.lock();
        st.consecutive_kills += 1;
        st.total_kills += 1;
        let tripped = if st.probing {
            // The half-open probe died: re-trip immediately and restart
            // the cooldown from zero.
            st.probing = false;
            st.cooldown_progress = 0;
            true
        } else if !st.quarantined && st.consecutive_kills >= self.threshold {
            st.quarantined = true;
            true
        } else {
            false
        };
        breaker.settle(&st);
        tripped
    }

    /// Records a clean run, resetting the consecutive-kill counter. A
    /// clean half-open probe readmits the key fully; otherwise quarantine
    /// status is unaffected.
    pub fn record_clean(&self, breaker: &Breaker) {
        if breaker.is_calm() {
            return;
        }
        let mut st = breaker.state.lock();
        st.consecutive_kills = 0;
        if st.probing {
            st.probing = false;
            st.quarantined = false;
            st.cooldown_progress = 0;
        }
        breaker.settle(&st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooldown_admits_one_probe_and_clean_probe_readmits() {
        let q = Quarantine::new(1, 3);
        let x = q.breaker("x");
        assert!(q.record_kill(&x));
        // Three refused admissions are the cooldown...
        for _ in 0..3 {
            assert!(!q.admit(&x));
        }
        // ...then exactly one probe is admitted.
        assert!(q.admit(&x));
        assert!(!q.admit(&x), "one probe at a time");
        // The probe came back clean: fully readmitted.
        q.record_clean(&x);
        assert!(!x.is_quarantined());
        assert!(q.admit(&x));
    }

    #[test]
    fn killed_probe_retrips_immediately_and_restarts_cooldown() {
        let q = Quarantine::new(1, 2);
        let x = q.breaker("x");
        assert!(q.record_kill(&x));
        assert!(!q.admit(&x));
        assert!(!q.admit(&x));
        assert!(q.admit(&x));
        // The probe died: the breaker re-trips on that single kill, even
        // though the threshold would normally require more.
        assert!(q.record_kill(&x));
        assert!(x.is_quarantined());
        // And the cooldown starts over from zero.
        assert!(!q.admit(&x));
        assert!(!q.admit(&x));
        assert!(q.admit(&x));
    }

    #[test]
    fn untracked_and_unquarantined_keys_are_admitted() {
        let q = Quarantine::new(3, 1);
        assert!(q.admit(&q.breaker("never-seen")));
        q.record_kill(&q.breaker("other"));
        assert!(q.admit(&q.breaker("other")));
    }
}
