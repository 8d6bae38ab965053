//! Deterministic fault injection.
//!
//! The paper's argument is about what happens when the kernel substrate
//! misbehaves *under* an extension: allocations fail, locks are busy, RCU
//! grace periods drag, refcounts saturate, clocks jump. This module makes
//! those conditions a first-class, reproducible experiment input: a
//! [`FaultPlan`] is a pure `(seed, config)` value, and arming it on a
//! [`crate::Kernel`] (see [`crate::Kernel::arm_fault_plan`]) installs a
//! shared [`FaultPlane`] into every subsystem. Each injection decision is
//! drawn from one seeded PRNG stream, so the same plan on the same workload
//! reproduces the same fault schedule byte-for-byte — and every injected
//! fault is recorded as an [`EventKind::FaultInjected`] audit event, which
//! is what the soak harness diffs across runs.
//!
//! Injection sites:
//!
//! * [`crate::mem::KernelMem`] — transient allocation failures
//!   ([`crate::mem::Fault::AllocFailed`]);
//! * [`crate::locks::SpinTable`] — contention spikes (a phantom owner holds
//!   the lock for one acquire attempt);
//! * [`crate::rcu::Rcu`] — grace-period delays approaching (but never
//!   crossing, on their own) the stall threshold;
//! * [`crate::refcount::RefTable`] — saturation pressure (`get` refused);
//! * [`crate::time::VirtualClock`] — forward clock jumps;
//! * helper dispatch in the eBPF baseline — transient helper failure,
//!   routed through the kernel-level slot ([`crate::Kernel::inject`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{
    audit::{AuditLog, EventKind},
    locks::LockId,
    refcount::ObjId,
    time::VirtualClock,
};

/// Where in the substrate a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// Transient allocation failure in [`crate::mem::KernelMem::map`].
    Alloc,
    /// Contention spike in [`crate::locks::SpinTable::acquire`].
    Lock,
    /// Grace-period delay at [`crate::rcu::Rcu::read_lock`].
    Rcu,
    /// Saturation pressure in [`crate::refcount::RefTable::get`].
    Refcount,
    /// Forward jump in [`crate::time::VirtualClock::advance`].
    Clock,
    /// Transient failure of an eBPF helper call.
    Helper,
}

impl FaultSite {
    /// All sites, in a stable order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Alloc,
        FaultSite::Lock,
        FaultSite::Rcu,
        FaultSite::Refcount,
        FaultSite::Clock,
        FaultSite::Helper,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::Lock => 1,
            FaultSite::Rcu => 2,
            FaultSite::Refcount => 3,
            FaultSite::Clock => 4,
            FaultSite::Helper => 5,
        }
    }
}

/// Injection rates and bounds. Rates are probabilities in `[0, 1]`
/// evaluated independently at each opportunity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Probability that an allocation fails transiently.
    pub alloc_fail_rate: f64,
    /// Deterministically fail this many allocation attempts first,
    /// regardless of `alloc_fail_rate` — lets tests script exact
    /// retry/backoff schedules.
    pub alloc_fail_burst: u32,
    /// Probability that a lock acquire finds the lock briefly busy.
    pub lock_busy_rate: f64,
    /// Probability of a grace-period delay on entering an outermost
    /// read-side section.
    pub rcu_delay_rate: f64,
    /// Upper bound on one injected grace-period delay; clamped below the
    /// RCU stall timeout so a single injection never fabricates a stall.
    pub rcu_delay_max_ns: u64,
    /// Probability that a refcount `get` is refused (saturation).
    pub ref_saturation_rate: f64,
    /// Probability of a forward clock jump per `advance` call.
    pub clock_jump_rate: f64,
    /// Upper bound on one injected clock jump.
    pub clock_jump_max_ns: u64,
    /// Probability that a helper call fails transiently.
    pub helper_fail_rate: f64,
}

impl Default for FaultPlanConfig {
    /// A moderate "storm": every site active at a low rate, with
    /// grace-period delays approaching the 21 s stall threshold.
    fn default() -> Self {
        FaultPlanConfig {
            alloc_fail_rate: 0.05,
            alloc_fail_burst: 0,
            lock_busy_rate: 0.05,
            rcu_delay_rate: 0.02,
            rcu_delay_max_ns: 18_000_000_000,
            ref_saturation_rate: 0.03,
            clock_jump_rate: 0.02,
            clock_jump_max_ns: 1_000_000,
            helper_fail_rate: 0.05,
        }
    }
}

impl FaultPlanConfig {
    /// No injection at any site.
    pub fn quiet() -> Self {
        FaultPlanConfig {
            alloc_fail_rate: 0.0,
            alloc_fail_burst: 0,
            lock_busy_rate: 0.0,
            rcu_delay_rate: 0.0,
            rcu_delay_max_ns: 0,
            ref_saturation_rate: 0.0,
            clock_jump_rate: 0.0,
            clock_jump_max_ns: 0,
            helper_fail_rate: 0.0,
        }
    }
}

/// A pure, reproducible description of a fault schedule: a seed plus the
/// per-site rates. Two plans with equal fields produce identical injection
/// decisions on identical workloads.
///
/// # Examples
///
/// ```
/// use kernel_sim::inject::{FaultPlan, FaultPlanConfig};
/// use kernel_sim::Kernel;
///
/// let kernel = Kernel::new();
/// let plane = kernel.arm_fault_plan(FaultPlan::new(42));
/// // Allocations now fail with the plan's probability...
/// kernel.disarm_faults();
/// // ...and are reliable again.
/// assert!(kernel.mem.map("x", 8, kernel_sim::mem::Perms::rw()).is_ok());
/// assert_eq!(plane.plan().seed, 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; the whole schedule derives from it.
    pub seed: u64,
    /// Per-site rates and bounds.
    pub config: FaultPlanConfig,
}

impl FaultPlan {
    /// A plan with the default (storm) config.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, FaultPlanConfig::default())
    }

    /// A plan with an explicit config.
    pub fn with_config(seed: u64, config: FaultPlanConfig) -> Self {
        FaultPlan { seed, config }
    }
}

#[derive(Debug)]
struct Dice {
    rng: StdRng,
    alloc_burst_left: u32,
}

/// A live, armed fault plan: the seeded decision stream plus the audit log
/// and clock it reports through. Shared (via `Rc`) by every subsystem of
/// one kernel.
#[derive(Debug)]
pub struct FaultPlane {
    plan: FaultPlan,
    audit: Rc<AuditLog>,
    clock: VirtualClock,
    dice: RefCell<Dice>,
    counts: [Cell<u64>; 6],
    /// Kernel metrics to count injections into, when armed via
    /// [`crate::Kernel::arm_fault_plan`].
    metrics: Option<Rc<crate::metrics::Metrics>>,
}

impl FaultPlane {
    /// Creates a plane from a plan. `clock` should be a bare handle (see
    /// [`VirtualClock::bare_handle`]) so the plane itself never re-enters
    /// injection when reading timestamps.
    pub fn new(plan: FaultPlan, audit: Rc<AuditLog>, clock: VirtualClock) -> Self {
        FaultPlane {
            dice: RefCell::new(Dice {
                rng: StdRng::seed_from_u64(plan.seed),
                alloc_burst_left: plan.config.alloc_fail_burst,
            }),
            plan,
            audit,
            clock,
            counts: Default::default(),
            metrics: None,
        }
    }

    /// Counts every injected fault into `metrics.fault_injections` too.
    pub fn with_metrics(mut self, metrics: Rc<crate::metrics::Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The plan this plane was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of faults injected at `site` so far.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.counts[site.index()].get()
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        FaultSite::ALL.iter().map(|s| self.injected(*s)).sum()
    }

    fn roll(dice: &mut Dice, rate: f64) -> bool {
        dice.rng.gen_bool(rate.clamp(0.0, 1.0))
    }

    fn note(&self, site: FaultSite, detail: String) {
        crate::metrics::Metrics::bump(&self.counts[site.index()], 1);
        if let Some(metrics) = &self.metrics {
            crate::metrics::Metrics::bump(&metrics.fault_injections, 1);
        }
        self.audit
            .record(self.clock.now_ns(), EventKind::FaultInjected, detail);
    }

    /// Decides whether the allocation of `len` bytes for `region` fails;
    /// `region` is rendered only into the audit record of a failure.
    pub fn alloc_should_fail(&self, region: impl std::fmt::Display, len: u64) -> bool {
        let mut dice = self.dice.borrow_mut();
        let hit = if dice.alloc_burst_left > 0 {
            dice.alloc_burst_left -= 1;
            true
        } else {
            Self::roll(&mut dice, self.plan.config.alloc_fail_rate)
        };
        drop(dice);
        if hit {
            self.note(
                FaultSite::Alloc,
                format!("inject: transient allocation failure for region `{region}` (len {len})"),
            );
        }
        hit
    }

    /// Decides whether acquiring `id` finds it transiently busy.
    pub fn lock_should_busy(&self, id: LockId) -> bool {
        let hit = Self::roll(&mut self.dice.borrow_mut(), self.plan.config.lock_busy_rate);
        if hit {
            self.note(
                FaultSite::Lock,
                format!("inject: contention spike on {id:?} (phantom holder)"),
            );
        }
        hit
    }

    /// Decides the grace-period delay (if any) for an outermost read-side
    /// entry; the delay never reaches `stall_timeout_ns` on its own.
    pub fn rcu_entry_delay(&self, stall_timeout_ns: u64) -> Option<u64> {
        let max = self
            .plan
            .config
            .rcu_delay_max_ns
            .min(stall_timeout_ns.saturating_sub(1));
        let mut dice = self.dice.borrow_mut();
        if max == 0 || !Self::roll(&mut dice, self.plan.config.rcu_delay_rate) {
            return None;
        }
        let delay = dice.rng.gen_range(1..=max);
        drop(dice);
        self.note(
            FaultSite::Rcu,
            format!("inject: rcu grace-period delay of {delay}ns in read-side section"),
        );
        Some(delay)
    }

    /// Decides whether a `get` on `id` is refused by saturation pressure.
    pub fn ref_should_saturate(&self, id: ObjId) -> bool {
        let hit = Self::roll(
            &mut self.dice.borrow_mut(),
            self.plan.config.ref_saturation_rate,
        );
        if hit {
            self.note(
                FaultSite::Refcount,
                format!("inject: refcount saturation pressure on {id:?} (get refused)"),
            );
        }
        hit
    }

    /// Decides the extra forward jump (if any) for one clock advance.
    pub fn clock_jump(&self) -> Option<u64> {
        let max = self.plan.config.clock_jump_max_ns;
        let mut dice = self.dice.borrow_mut();
        if max == 0 || !Self::roll(&mut dice, self.plan.config.clock_jump_rate) {
            return None;
        }
        let jump = dice.rng.gen_range(1..=max);
        drop(dice);
        self.note(
            FaultSite::Clock,
            format!("inject: virtual clock jump of +{jump}ns"),
        );
        Some(jump)
    }

    /// Decides whether helper `id` fails transiently before dispatch.
    pub fn helper_should_fail(&self, id: u32) -> bool {
        let hit = Self::roll(
            &mut self.dice.borrow_mut(),
            self.plan.config.helper_fail_rate,
        );
        if hit {
            self.note(
                FaultSite::Helper,
                format!("inject: transient failure of helper {id}"),
            );
        }
        hit
    }
}

/// Per-subsystem mount point for a [`FaultPlane`].
///
/// The slot belongs to one kernel and is read on every hot-path
/// operation, so the disarmed cost is one borrow-flag check and one
/// `None` test: no lock, no atomic.
#[derive(Debug, Default)]
pub struct InjectSlot {
    plane: RefCell<Option<Rc<FaultPlane>>>,
}

impl InjectSlot {
    /// Installs `plane` and arms the slot.
    pub fn arm(&self, plane: Rc<FaultPlane>) {
        *self.plane.borrow_mut() = Some(plane);
    }

    /// Disarms the slot and drops its plane reference.
    pub fn disarm(&self) {
        *self.plane.borrow_mut() = None;
    }

    /// The armed plane, or `None` (the common, near-free case).
    #[inline]
    pub fn get(&self) -> Option<Rc<FaultPlane>> {
        self.plane.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(seed: u64, config: FaultPlanConfig) -> FaultPlane {
        FaultPlane::new(
            FaultPlan::with_config(seed, config),
            Rc::new(AuditLog::default()),
            VirtualClock::new(),
        )
    }

    #[test]
    fn same_seed_same_decisions() {
        let config = FaultPlanConfig::default();
        let a = plane(7, config);
        let b = plane(7, config);
        for i in 0..200 {
            assert_eq!(
                a.alloc_should_fail("r", i),
                b.alloc_should_fail("r", i),
                "alloc decision {i} diverged"
            );
            assert_eq!(a.lock_should_busy(LockId(i)), b.lock_should_busy(LockId(i)));
            assert_eq!(
                a.rcu_entry_delay(21_000_000_000),
                b.rcu_entry_delay(21_000_000_000)
            );
            assert_eq!(
                a.ref_should_saturate(ObjId(i)),
                b.ref_should_saturate(ObjId(i))
            );
            assert_eq!(a.clock_jump(), b.clock_jump());
            assert_eq!(
                a.helper_should_fail(i as u32),
                b.helper_should_fail(i as u32)
            );
        }
        assert_eq!(a.total_injected(), b.total_injected());
    }

    #[test]
    fn different_seeds_diverge() {
        let config = FaultPlanConfig {
            alloc_fail_rate: 0.5,
            ..FaultPlanConfig::default()
        };
        let a = plane(1, config);
        let b = plane(2, config);
        let decisions = |p: &FaultPlane| -> Vec<bool> {
            (0..256).map(|i| p.alloc_should_fail("r", i)).collect()
        };
        assert_ne!(decisions(&a), decisions(&b));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let p = plane(9, FaultPlanConfig::quiet());
        for i in 0..100 {
            assert!(!p.alloc_should_fail("r", i));
            assert!(!p.lock_should_busy(LockId(i)));
            assert!(p.rcu_entry_delay(21_000_000_000).is_none());
            assert!(!p.ref_should_saturate(ObjId(i)));
            assert!(p.clock_jump().is_none());
            assert!(!p.helper_should_fail(i as u32));
        }
        assert_eq!(p.total_injected(), 0);
    }

    #[test]
    fn alloc_burst_fails_deterministically() {
        let p = plane(
            0,
            FaultPlanConfig {
                alloc_fail_burst: 3,
                alloc_fail_rate: 0.0,
                ..FaultPlanConfig::quiet()
            },
        );
        assert!(p.alloc_should_fail("r", 8));
        assert!(p.alloc_should_fail("r", 8));
        assert!(p.alloc_should_fail("r", 8));
        assert!(!p.alloc_should_fail("r", 8));
        assert_eq!(p.injected(FaultSite::Alloc), 3);
    }

    #[test]
    fn injections_are_audited() {
        let audit = Rc::new(AuditLog::default());
        let p = FaultPlane::new(
            FaultPlan::with_config(
                0,
                FaultPlanConfig {
                    alloc_fail_burst: 2,
                    ..FaultPlanConfig::quiet()
                },
            ),
            audit.clone(),
            VirtualClock::new(),
        );
        assert!(p.alloc_should_fail("skb-data", 64));
        assert!(p.alloc_should_fail("skb-data", 64));
        let events = audit.of_kind(EventKind::FaultInjected);
        assert_eq!(events.len(), 2);
        assert!(events[0].detail.contains("skb-data"));
    }

    #[test]
    fn rcu_delay_stays_below_stall_timeout() {
        let p = plane(
            3,
            FaultPlanConfig {
                rcu_delay_rate: 1.0,
                rcu_delay_max_ns: u64::MAX,
                ..FaultPlanConfig::quiet()
            },
        );
        for _ in 0..100 {
            let d = p.rcu_entry_delay(21_000_000_000).unwrap();
            assert!(d < 21_000_000_000);
        }
    }

    #[test]
    fn slot_arm_disarm_roundtrip() {
        let slot = InjectSlot::default();
        assert!(slot.get().is_none());
        let p = Rc::new(plane(0, FaultPlanConfig::quiet()));
        slot.arm(p.clone());
        assert!(slot.get().is_some());
        slot.disarm();
        assert!(slot.get().is_none());
        // The slot dropped its reference; only `p` remains.
        assert_eq!(Rc::strong_count(&p), 1);
    }
}
