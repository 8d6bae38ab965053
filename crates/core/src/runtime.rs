//! The runtime protection layer (§3.1).
//!
//! Language safety covers memory and types; this runtime supplies what it
//! cannot: **termination** (a fuel budget and a virtual-time deadline
//! polled at every kernel-crate call — the simulation's stand-in for a
//! watchdog timer interrupt — plus an optional host-wall-clock watchdog
//! thread), **stack protection** (the frame-depth guard in `ExtCtx`), and
//! **safe termination**: whatever ends the run — normal return, watchdog,
//! or a Rust panic — the cleanup registry's trusted destructors release
//! every outstanding kernel resource without relying on ABI stack
//! unwinding or user `Drop` impls.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{
    atomic::{AtomicBool, Ordering},
    Arc,
};

use ebpf::maps::MapRegistry;
use kernel_sim::{audit::EventKind, exec::ExecReport, mem::Fault, Kernel, Metrics};
use parking_lot::Mutex;

use crate::{
    cleanup::Resource,
    error::{Abort, ExtError},
    ext::Extension,
    kernel_crate::{ExtCtx, ExtInput, Meter},
};

/// How many times a transient allocation failure is retried before the run
/// is abandoned (graceful degradation under injected memory pressure).
const ALLOC_RETRIES: u32 = 3;
/// Virtual-time backoff before the first allocation retry; doubles on each
/// subsequent retry (exponential backoff).
const ALLOC_BACKOFF_NS: u64 = 1_000;

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Fuel budget per run (kernel-crate operations, weighted).
    pub fuel: u64,
    /// Virtual-time budget per run, in nanoseconds.
    pub deadline_ns: u64,
    /// Virtual nanoseconds charged per fuel unit.
    pub time_per_fuel_ns: u64,
    /// Scratch-pool blocks per size class: the limit at which
    /// `ExtCtx::scratch` reports `PoolExhausted`. Each run gets a fresh,
    /// full pool, built on the run's first scratch request.
    pub pool_blocks: usize,
    /// Optional host-wall-clock watchdog: demand termination after this
    /// many host milliseconds (covers extensions that compute without
    /// calling into the kernel crate).
    pub host_watchdog_ms: Option<u64>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            fuel: 1_000_000,
            deadline_ns: 100_000_000, // 100 ms of virtual time
            time_per_fuel_ns: 1,
            pool_blocks: 16,
            host_watchdog_ms: None,
        }
    }
}

/// Per-extension quarantine circuit breaker.
///
/// The runtime cannot make a hostile or buggy extension correct, but it can
/// stop re-admitting one that keeps getting killed: after `threshold`
/// *consecutive* kills (watchdog, stack guard, or panic — the outcomes
/// where the termination engine had to step in), the extension is
/// quarantined. [`crate::Runtime::run`] refuses entry and
/// [`crate::Loader::load`] refuses re-load until an operator explicitly
/// calls [`Quarantine::reset`]. A clean run (normal return or an ordinary
/// error) resets the consecutive-kill counter.
///
/// # Examples
///
/// ```
/// use safe_ext::runtime::Quarantine;
///
/// let q = Quarantine::new(2);
/// q.note_kill("flaky");
/// assert!(!q.is_quarantined("flaky"));
/// q.note_kill("flaky");
/// assert!(q.is_quarantined("flaky"));
/// q.reset("flaky");
/// assert!(!q.is_quarantined("flaky"));
/// ```
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    cooldown: Option<u32>,
    state: Mutex<HashMap<String, QuarantineState>>,
}

/// Admission decision from [`Quarantine::try_admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Not quarantined: run normally.
    Admitted,
    /// Quarantined and still cooling down: the run is refused.
    Refused,
    /// Quarantined, but the cooldown elapsed: this one run is admitted as
    /// a half-open probe. A kill re-trips the breaker immediately; a clean
    /// exit readmits the extension fully.
    Probe,
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
    /// `note_kill` / `note_clean`) decides re-trip vs readmission.
    probing: bool,
}

impl Quarantine {
    /// Creates a breaker that trips after `threshold` consecutive kills
    /// (minimum 1).
    pub fn new(threshold: u32) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            cooldown: None,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// Enables half-open probing: after `intervals` refused admissions
    /// (minimum 1), [`Self::try_admit`] admits one probe run instead of
    /// refusing forever. Without this, quarantine is permanent until an
    /// operator calls [`Self::reset`] — which under a *transient* fault
    /// storm turns a recoverable extension into a permanently dead one.
    pub fn with_cooldown(mut self, intervals: u32) -> Self {
        self.cooldown = Some(intervals.max(1));
        self
    }

    /// The configured kill threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Whether `name` is currently quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.state
            .lock()
            .get(name)
            .map(|s| s.quarantined)
            .unwrap_or(false)
    }

    /// Admission check for one run attempt. Without a cooldown this is
    /// `is_quarantined` reshaped; with [`Self::with_cooldown`], every
    /// refused attempt advances the cooldown clock and the attempt after
    /// it elapses is admitted as a half-open [`Admission::Probe`].
    pub fn try_admit(&self, name: &str) -> Admission {
        let mut st = self.state.lock();
        let Some(entry) = st.get_mut(name) else {
            return Admission::Admitted;
        };
        if !entry.quarantined {
            return Admission::Admitted;
        }
        let Some(intervals) = self.cooldown else {
            return Admission::Refused;
        };
        if entry.probing {
            // A probe is already in flight; refuse until its outcome is in.
            return Admission::Refused;
        }
        if entry.cooldown_progress >= intervals {
            entry.cooldown_progress = 0;
            entry.probing = true;
            Admission::Probe
        } else {
            entry.cooldown_progress += 1;
            Admission::Refused
        }
    }

    /// Records a kill (watchdog / stack guard / panic) for `name`; returns
    /// `true` if this kill tripped (or, for a failed probe, re-tripped)
    /// the breaker.
    pub fn note_kill(&self, name: &str) -> bool {
        let mut st = self.state.lock();
        let entry = st.entry(name.to_string()).or_default();
        entry.consecutive_kills += 1;
        entry.total_kills += 1;
        if entry.probing {
            // The half-open probe died: re-trip immediately and restart
            // the cooldown from zero.
            entry.probing = false;
            entry.cooldown_progress = 0;
            return true;
        }
        if !entry.quarantined && entry.consecutive_kills >= self.threshold {
            entry.quarantined = true;
            true
        } else {
            false
        }
    }

    /// Records a clean run for `name`, resetting its consecutive-kill
    /// counter. A clean half-open probe readmits the extension fully;
    /// otherwise quarantine status is unaffected.
    pub fn note_clean(&self, name: &str) {
        if let Some(entry) = self.state.lock().get_mut(name) {
            entry.consecutive_kills = 0;
            if entry.probing {
                entry.probing = false;
                entry.quarantined = false;
                entry.cooldown_progress = 0;
            }
        }
    }

    /// Explicitly readmits `name`, clearing quarantine and the
    /// consecutive-kill counter; returns whether it was quarantined.
    pub fn reset(&self, name: &str) -> bool {
        let mut st = self.state.lock();
        match st.get_mut(name) {
            Some(entry) => {
                let was = entry.quarantined;
                entry.quarantined = false;
                entry.consecutive_kills = 0;
                entry.cooldown_progress = 0;
                entry.probing = false;
                was
            }
            None => false,
        }
    }

    /// Total kills ever recorded for `name`.
    pub fn total_kills(&self, name: &str) -> u64 {
        self.state
            .lock()
            .get(name)
            .map(|s| s.total_kills)
            .unwrap_or(0)
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct ExtOutcome {
    /// Return value or abort reason.
    pub result: Result<u64, Abort>,
    /// Fuel consumed.
    pub fuel_used: u64,
    /// Resources the termination engine had to release (empty on a clean
    /// run where guards released everything).
    pub cleaned: Vec<Resource>,
    /// Captured trace output.
    pub printk: Vec<String>,
    /// Post-cleanup resource accounting (clean unless the simulator
    /// itself is buggy).
    pub leak_report: ExecReport,
}

impl ExtOutcome {
    /// The return value; panics if the run aborted.
    ///
    /// # Panics
    ///
    /// Panics if the run ended in an abort.
    pub fn unwrap(&self) -> u64 {
        match &self.result {
            Ok(v) => *v,
            Err(a) => panic!("extension aborted: {a}"),
        }
    }
}

/// The extension runtime.
pub struct Runtime<'k> {
    /// The kernel extensions run against.
    pub kernel: &'k Kernel,
    /// The map registry (shared with the baseline framework: maps are
    /// kernel objects, not framework property).
    pub maps: &'k MapRegistry,
    /// Configuration.
    pub config: RuntimeConfig,
    /// Optional quarantine circuit breaker, shared with the loader.
    pub quarantine: Option<Arc<Quarantine>>,
}

impl<'k> Runtime<'k> {
    /// Creates a runtime with the default configuration.
    pub fn new(kernel: &'k Kernel, maps: &'k MapRegistry) -> Self {
        Runtime {
            kernel,
            maps,
            config: RuntimeConfig::default(),
            quarantine: None,
        }
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a quarantine circuit breaker: runs of a quarantined
    /// extension are refused, and repeated kills trip the breaker.
    pub fn with_quarantine(mut self, quarantine: Arc<Quarantine>) -> Self {
        self.quarantine = Some(quarantine);
        self
    }

    fn refused_outcome(&self, result: Result<u64, Abort>) -> ExtOutcome {
        ExtOutcome {
            result,
            fuel_used: 0,
            cleaned: vec![],
            printk: vec![],
            leak_report: ExecReport {
                owner: 0,
                leaked_refs: vec![],
                leaked_locks: vec![],
            },
        }
    }

    /// Runs `ext` on `input`.
    pub fn run(&self, ext: &Extension, input: ExtInput) -> ExtOutcome {
        if let Some(q) = &self.quarantine {
            match q.try_admit(&ext.name) {
                Admission::Admitted => {}
                Admission::Probe => {
                    self.kernel.audit.record(
                        self.kernel.clock.now_ns(),
                        EventKind::Quarantined,
                        format!("{}: half-open probe admitted after cooldown", ext.name),
                    );
                }
                Admission::Refused => {
                    self.kernel.audit.record(
                        self.kernel.clock.now_ns(),
                        EventKind::Quarantined,
                        format!("{}: run refused (quarantined)", ext.name),
                    );
                    return self.refused_outcome(Err(Abort::Quarantined));
                }
            }
        }

        let skb = match &input {
            ExtInput::Packet(payload) => {
                // Transient allocation failures (injected memory pressure)
                // degrade gracefully: bounded retries with exponential
                // virtual-time backoff instead of giving up at once.
                let mut attempt = 0u32;
                loop {
                    match self.kernel.objects.create_skb(&self.kernel.mem, payload) {
                        Ok(skb) => break Some(skb),
                        Err(Fault::AllocFailed { .. }) if attempt < ALLOC_RETRIES => {
                            attempt += 1;
                            let backoff =
                                ALLOC_BACKOFF_NS.saturating_mul(1u64 << (attempt - 1).min(31));
                            self.kernel.audit.record(
                                self.kernel.clock.now_ns(),
                                EventKind::Info,
                                format!(
                                    "{}: transient skb allocation failure; retry {attempt}/{ALLOC_RETRIES} after {backoff}ns backoff",
                                    ext.name
                                ),
                            );
                            self.kernel.clock.advance(backoff);
                        }
                        Err(fault) => {
                            return self
                                .refused_outcome(Err(Abort::Error(ExtError::Invalid(
                                    "packet allocation",
                                ))))
                                .tap_audit(self.kernel, &format!("skb alloc failed: {fault}"))
                        }
                    }
                }
            }
            _ => None,
        };

        let _run_span = self
            .kernel
            .trace
            .span(kernel_sim::trace::SpanKind::ProgRun, 0);
        let meter = Meter::new(
            self.config.fuel,
            self.kernel.clock.now_ns() + self.config.deadline_ns,
            self.config.time_per_fuel_ns,
        );
        let ctx = ExtCtx::new(
            self.kernel,
            self.maps,
            meter,
            self.config.pool_blocks,
            skb,
            &input,
        );

        // The run executes under the RCU read lock, exactly like the
        // baseline — the watchdog's job is to end it long before the
        // stall detector would fire.
        let rcu_guard = self.kernel.rcu.read_lock();

        let invoke_result = if let Some(ms) = self.config.host_watchdog_ms {
            let terminate = &ctx.meter.terminate;
            let stop = AtomicBool::new(false);
            crossbeam::thread::scope(|s| {
                s.spawn(|_| {
                    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(ms);
                    while !stop.load(Ordering::Relaxed) {
                        if std::time::Instant::now() >= deadline {
                            terminate.store(true, Ordering::Relaxed);
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                });
                let out = catch_unwind(AssertUnwindSafe(|| ext.invoke(&ctx)));
                stop.store(true, Ordering::Relaxed);
                out
            })
            .expect("watchdog scope")
        } else {
            catch_unwind(AssertUnwindSafe(|| ext.invoke(&ctx)))
        };

        self.kernel.rcu.check_stall(&self.kernel.audit);
        drop(rcu_guard);

        let now = self.kernel.clock.now_ns();
        let result: Result<u64, Abort> = match invoke_result {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(match e {
                ExtError::FuelExhausted => {
                    self.kernel.audit.record(
                        now,
                        EventKind::WatchdogFired,
                        format!("{}: fuel budget exhausted", ext.name),
                    );
                    Abort::WatchdogFuel
                }
                ExtError::DeadlineExceeded => {
                    self.kernel.audit.record(
                        now,
                        EventKind::WatchdogFired,
                        format!("{}: deadline exceeded", ext.name),
                    );
                    Abort::WatchdogDeadline
                }
                ExtError::Terminated => {
                    self.kernel.audit.record(
                        now,
                        EventKind::WatchdogFired,
                        format!("{}: asynchronous termination", ext.name),
                    );
                    Abort::WatchdogAsync
                }
                ExtError::StackGuard => {
                    self.kernel.audit.record(
                        now,
                        EventKind::StackOverflowGuard,
                        format!("{}: stack-depth guard", ext.name),
                    );
                    Abort::StackGuard
                }
                other => Abort::Error(other),
            }),
            Err(panic) => {
                let msg = panic_message(&*panic);
                self.kernel.audit.record(
                    now,
                    EventKind::ExtensionPanic,
                    format!("{}: panic: {msg}", ext.name),
                );
                Err(Abort::Panic(msg))
            }
        };

        // Circuit breaker: a kill (watchdog, stack guard, panic) counts
        // toward quarantine; a clean exit resets the consecutive counter.
        if let Some(q) = &self.quarantine {
            match &result {
                Err(
                    Abort::WatchdogFuel
                    | Abort::WatchdogDeadline
                    | Abort::WatchdogAsync
                    | Abort::StackGuard
                    | Abort::Panic(_),
                ) => {
                    if q.note_kill(&ext.name) {
                        Metrics::bump(&self.kernel.metrics.quarantine_trips, 1);
                        self.kernel.audit.record(
                            self.kernel.clock.now_ns(),
                            EventKind::Quarantined,
                            format!(
                                "{}: quarantined after {} consecutive kills",
                                ext.name,
                                q.threshold()
                            ),
                        );
                    }
                }
                _ => q.note_clean(&ext.name),
            }
        }

        // Safe termination: trusted destructors for everything still
        // outstanding, whatever the exit path was.
        let cleanup_span = self
            .kernel
            .trace
            .span(kernel_sim::trace::SpanKind::Cleanup, 0);
        let cleaned = ctx
            .cleanup
            .run_destructors(self.kernel, self.maps, &ctx.exec);
        drop(cleanup_span);
        if !cleaned.is_empty() {
            self.kernel.audit.record(
                self.kernel.clock.now_ns(),
                EventKind::Info,
                format!(
                    "{}: termination engine released {} resource(s)",
                    ext.name,
                    cleaned.len()
                ),
            );
        }
        let leak_report = ctx.exec.finish(self.kernel);
        let fuel_used = ctx.fuel_used();
        let printk = ctx.take_printk();
        // Free the packet skb: without this every packet run leaked its
        // payload region and skb-table entry, growing the address space
        // without bound over a long batch.
        if let Some(skb) = &skb {
            let _ = self.kernel.objects.free_skb(&self.kernel.mem, skb.id);
        }

        let metrics = &self.kernel.metrics;
        Metrics::bump(&metrics.runs, 1);
        if matches!(input, ExtInput::Packet(_)) {
            Metrics::bump(&metrics.packets, 1);
        }
        metrics.run_cost.record(fuel_used);
        self.kernel
            .trace
            .instant(kernel_sim::trace::SpanKind::Fuel, fuel_used);

        ExtOutcome {
            result,
            fuel_used,
            cleaned,
            printk,
            leak_report,
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

trait TapAudit {
    fn tap_audit(self, kernel: &Kernel, msg: &str) -> Self;
}

impl TapAudit for ExtOutcome {
    fn tap_audit(self, kernel: &Kernel, msg: &str) -> Self {
        kernel
            .audit
            .record(kernel.clock.now_ns(), EventKind::Info, msg);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_cooldown_quarantine_is_permanent() {
        let q = Quarantine::new(2);
        q.note_kill("x");
        assert!(q.note_kill("x"));
        for _ in 0..100 {
            assert_eq!(q.try_admit("x"), Admission::Refused);
        }
        assert!(q.is_quarantined("x"));
    }

    #[test]
    fn cooldown_admits_one_probe_and_clean_probe_readmits() {
        let q = Quarantine::new(1).with_cooldown(3);
        assert!(q.note_kill("x"));
        // Three refused admissions are the cooldown...
        for _ in 0..3 {
            assert_eq!(q.try_admit("x"), Admission::Refused);
        }
        // ...then exactly one probe is admitted.
        assert_eq!(q.try_admit("x"), Admission::Probe);
        assert_eq!(q.try_admit("x"), Admission::Refused, "one probe at a time");
        // The probe came back clean: fully readmitted.
        q.note_clean("x");
        assert!(!q.is_quarantined("x"));
        assert_eq!(q.try_admit("x"), Admission::Admitted);
    }

    #[test]
    fn killed_probe_retrips_immediately_and_restarts_cooldown() {
        let q = Quarantine::new(1).with_cooldown(2);
        assert!(q.note_kill("x"));
        assert_eq!(q.try_admit("x"), Admission::Refused);
        assert_eq!(q.try_admit("x"), Admission::Refused);
        assert_eq!(q.try_admit("x"), Admission::Probe);
        // The probe died: the breaker re-trips on that single kill, even
        // though the threshold would normally require more.
        assert!(q.note_kill("x"));
        assert!(q.is_quarantined("x"));
        // And the cooldown starts over from zero.
        assert_eq!(q.try_admit("x"), Admission::Refused);
        assert_eq!(q.try_admit("x"), Admission::Refused);
        assert_eq!(q.try_admit("x"), Admission::Probe);
    }

    #[test]
    fn try_admit_matches_is_quarantined_for_untracked_names() {
        let q = Quarantine::new(3).with_cooldown(1);
        assert_eq!(q.try_admit("never-seen"), Admission::Admitted);
        q.note_kill("other");
        assert_eq!(q.try_admit("other"), Admission::Admitted);
    }
}
