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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

use ebpf::maps::MapRegistry;
use kernel_sim::{audit::EventKind, exec::ExecReport, mem::Fault, Kernel, Metrics};

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
}

impl<'k> Runtime<'k> {
    /// Creates a runtime with the default configuration.
    pub fn new(kernel: &'k Kernel, maps: &'k MapRegistry) -> Self {
        Runtime {
            kernel,
            maps,
            config: RuntimeConfig::default(),
        }
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs `ext` on `input`.
    pub fn run(&self, ext: &Extension, input: ExtInput) -> ExtOutcome {
        match &input {
            ExtInput::Packet(payload) => self.run_packet(ext, payload),
            other => self.exec(ext, None, other),
        }
    }

    /// Runs `ext` on a borrowed packet payload.
    ///
    /// Identical to `run(ext, ExtInput::Packet(payload.to_vec()))` minus
    /// the per-packet buffer: the payload is copied exactly once, into
    /// the skb's checked-memory region.
    pub fn run_packet(&self, ext: &Extension, payload: &[u8]) -> ExtOutcome {
        self.exec(ext, Some(payload), &ExtInput::None)
    }

    /// One run: `packet` is the payload of a packet run, `input` the
    /// context of any other.
    fn exec(&self, ext: &Extension, packet: Option<&[u8]>, input: &ExtInput) -> ExtOutcome {
        let skb = match packet {
            Some(payload) => {
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
                            self.kernel.audit.record(
                                self.kernel.clock.now_ns(),
                                EventKind::Info,
                                format!("skb alloc failed: {fault}"),
                            );
                            return ExtOutcome {
                                result: Err(Abort::Error(ExtError::Invalid("packet allocation"))),
                                fuel_used: 0,
                                cleaned: vec![],
                                printk: vec![],
                                leak_report: ExecReport {
                                    owner: 0,
                                    leaked_refs: vec![],
                                    leaked_locks: vec![],
                                },
                            };
                        }
                    }
                }
            }
            None => None,
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
            input,
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
        if packet.is_some() {
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
