//! `soak`: differential fault-injection soak harness.
//!
//! Runs the packet-filter workload on the eBPF baseline and on the
//! safe-Rust framework under **identical** [`FaultPlan`] seeds, and
//! asserts the kernel-sim invariants on the safe side for every seed:
//!
//! * no kernel oopses and no taint,
//! * no leaked references, no underflows, no stuck locks,
//! * no RCU stalls; RCU quiescent after every scenario,
//! * cleanup registries drained (leak reports clean).
//!
//! Every seed is executed **twice** and the two audit streams must be
//! byte-identical — the reproducibility contract of the fault plane.
//! The baseline is *not* expected to stay clean; its failures are
//! tallied for the differential summary (the §3 argument: language
//! safety + runtime mechanisms degrade gracefully where the fixed
//! helper ABI faults hard).
//!
//! Usage: `cargo run -p bench --release --bin soak [SEEDS] [BASE_SEED]`
//! (defaults: 1000 seeds starting at 1). Exits nonzero on any safe-side
//! invariant violation or reproducibility mismatch.

use std::sync::Arc;

use bench::workloads;
use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, ExecError, Vm};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::ProgType;
use kernel_sim::audit::{fingerprint, EventKind};
use kernel_sim::objects::SockAddr;
use kernel_sim::{FaultPlan, Kernel};
use safe_ext::{Abort, ExtError, ExtInput, Extension, Quarantine, Runtime};

/// Packets fed to both frameworks in every scenario.
const PACKETS_PER_SEED: usize = 8;
/// Consecutive kills before the circuit breaker trips.
const QUARANTINE_THRESHOLD: u32 = 3;

/// The demo TCP flow installed by `populate_demo_env`.
const DEMO_TCP_SRC: SockAddr = SockAddr::new(0x0a00_0001, 443);
const DEMO_TCP_DST: SockAddr = SockAddr::new(0x0a00_0064, 51724);

fn packets() -> Vec<Vec<u8>> {
    (0..PACKETS_PER_SEED)
        .map(|i| vec![(i % 4) as u8, 0xaa, 0xbb, i as u8])
        .collect()
}

#[derive(Debug, Default)]
struct SafeTally {
    clean: u64,
    degraded: u64,
    kills: u64,
    refusals: u64,
    retries: u64,
    quarantine_trips: u64,
    readmissions: u64,
    injected: u64,
    violations: Vec<String>,
}

impl SafeTally {
    fn absorb(&mut self, other: SafeTally) {
        self.clean += other.clean;
        self.degraded += other.degraded;
        self.kills += other.kills;
        self.refusals += other.refusals;
        self.retries += other.retries;
        self.quarantine_trips += other.quarantine_trips;
        self.readmissions += other.readmissions;
        self.injected += other.injected;
        self.violations.extend(other.violations);
    }
}

/// One full safe-framework scenario under `seed`; returns the tally and
/// the canonical audit fingerprint.
fn run_safe(seed: u64) -> (SafeTally, String) {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let counts = maps
        .create(&kernel, MapDef::array("counts", 8, 4))
        .expect("map creation");
    let slots = maps
        .create(&kernel, MapDef::array("slots", 8, 4))
        .expect("map creation");

    // Arm *after* setup so both frameworks see the identical plan from
    // the same starting point.
    let plane = kernel.arm_fault_plan(FaultPlan::new(seed));

    let quarantine = Arc::new(Quarantine::new(QUARANTINE_THRESHOLD));
    let runtime = Runtime::new(&kernel, &maps).with_quarantine(quarantine.clone());

    // The packet-filter workload, plus a spin-lock site and an RAII
    // socket reference so every fault site of the plane is exercised.
    // Injected lock contention and refcount saturation degrade (skip /
    // miss); they never panic and never leak.
    let ext = Extension::new("soak-filter", ProgType::SocketFilter, move |ctx| {
        let pkt = ctx.packet()?;
        if pkt.len() < 2 {
            return Ok(0);
        }
        let proto = (pkt.load_u8(0)? & 3) as u32;
        ctx.array(counts)?.fetch_add_u64(proto, 0, 1)?;
        match ctx.lock_map_value(slots, proto) {
            Ok(guard) => drop(guard),
            Err(ExtError::Invalid(_)) => {} // lock busy: skip the update
            Err(e) => return Err(e),
        }
        // Saturation pressure turns this into a miss, holding nothing.
        let _ = ctx.lookup_tcp(DEMO_TCP_SRC, DEMO_TCP_DST)?;
        Ok(pkt.len() as u64)
    });

    let mut tally = SafeTally::default();
    let mut classify = |result: &Result<u64, Abort>| match result {
        Ok(_) => tally.clean += 1,
        Err(Abort::Quarantined) => tally.refusals += 1,
        Err(abort) if abort.is_kill() => tally.kills += 1,
        Err(_) => tally.degraded += 1,
    };

    for payload in packets() {
        let outcome = runtime.run(&ext, ExtInput::Packet(payload));
        classify(&outcome.result);
        if !outcome.leak_report.clean() {
            tally
                .violations
                .push(format!("seed {seed}: run leaked {:?}", outcome.leak_report));
        }
    }

    // If injected pressure tripped the breaker, demonstrate explicit
    // readmission: reset, then the next run must be admitted again.
    if quarantine.is_quarantined("soak-filter") {
        tally.quarantine_trips += 1;
        quarantine.reset("soak-filter");
        let outcome = runtime.run(&ext, ExtInput::Packet(vec![0, 0xaa, 0xbb, 0xcc]));
        if matches!(outcome.result, Err(Abort::Quarantined)) {
            tally
                .violations
                .push(format!("seed {seed}: reset did not readmit the extension"));
        } else {
            tally.readmissions += 1;
            classify(&outcome.result);
        }
    }

    // Kernel-sim invariants: the safe framework must leave the kernel
    // pristine whatever the plane injected.
    let health = kernel.health();
    if health.oopses > 0 || health.tainted {
        tally.violations.push(format!(
            "seed {seed}: kernel oopsed ({} oopses)",
            health.oopses
        ));
    }
    if health.rcu_stalls > 0 {
        tally
            .violations
            .push(format!("seed {seed}: {} RCU stall(s)", health.rcu_stalls));
    }
    if health.ref_leaks > 0 || health.lock_leaks > 0 {
        tally.violations.push(format!(
            "seed {seed}: {} ref leak(s), {} lock leak(s)",
            health.ref_leaks, health.lock_leaks
        ));
    }
    if kernel.audit.count(EventKind::RefUnderflow) > 0 {
        tally
            .violations
            .push(format!("seed {seed}: refcount underflow"));
    }
    if !kernel.rcu.quiescent() {
        tally
            .violations
            .push(format!("seed {seed}: RCU not quiescent after scenario"));
    }

    tally.retries = kernel
        .audit
        .of_kind(EventKind::Info)
        .iter()
        .filter(|e| e.detail.contains("transient skb allocation failure"))
        .count() as u64;
    tally.injected = plane.total_injected();

    (tally, fingerprint(&kernel.audit.snapshot()))
}

#[derive(Debug, Default)]
struct BaselineTally {
    ok: u64,
    alloc_faults: u64,
    other_errors: u64,
    unhealthy_kernels: u64,
    injected: u64,
}

impl BaselineTally {
    fn absorb(&mut self, other: BaselineTally) {
        self.ok += other.ok;
        self.alloc_faults += other.alloc_faults;
        self.other_errors += other.other_errors;
        self.unhealthy_kernels += other.unhealthy_kernels;
        self.injected += other.injected;
    }
}

/// The same packet workload on the eBPF baseline under the same seed.
fn run_baseline(seed: u64) -> BaselineTally {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let counts = maps
        .create(&kernel, MapDef::array("counts", 8, 4))
        .expect("map creation");
    let prog = workloads::packet_filter(counts);
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load(prog);

    let plane = kernel.arm_fault_plan(FaultPlan::new(seed));

    let mut tally = BaselineTally::default();
    for payload in packets() {
        let result = vm.run(id, CtxInput::Packet(payload));
        match &result.result {
            Ok(_) => tally.ok += 1,
            Err(ExecError::Fault { .. }) => tally.alloc_faults += 1,
            Err(_) => tally.other_errors += 1,
        }
    }
    if !kernel.health().pristine() {
        tally.unhealthy_kernels += 1;
    }
    tally.injected = plane.total_injected();
    tally
}

/// A deterministic circuit-breaker demonstration: an extension that
/// always panics is quarantined after the threshold, refused entry, and
/// readmitted (run again, not refused) after an explicit reset.
fn quarantine_demo() -> Result<(), String> {
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let quarantine = Arc::new(Quarantine::new(QUARANTINE_THRESHOLD));
    let runtime = Runtime::new(&kernel, &maps).with_quarantine(quarantine.clone());
    let crasher = Extension::new("crasher", ProgType::Kprobe, |_| panic!("soak crasher"));

    // The crasher's panics are caught by the runtime; keep the default
    // hook from spraying backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = quarantine_demo_inner(&runtime, &quarantine, &crasher);
    std::panic::set_hook(hook);
    result
}

fn quarantine_demo_inner(
    runtime: &Runtime<'_>,
    quarantine: &Quarantine,
    crasher: &Extension,
) -> Result<(), String> {
    for i in 0..QUARANTINE_THRESHOLD {
        let outcome = runtime.run(crasher, ExtInput::None);
        if !matches!(outcome.result, Err(Abort::Panic(_))) {
            return Err(format!("kill {i}: expected a panic abort"));
        }
    }
    if !quarantine.is_quarantined("crasher") {
        return Err("breaker did not trip at the threshold".into());
    }
    let refused = runtime.run(crasher, ExtInput::None);
    if !matches!(refused.result, Err(Abort::Quarantined)) {
        return Err("quarantined extension was not refused".into());
    }
    if !quarantine.reset("crasher") {
        return Err("reset did not report a quarantined extension".into());
    }
    let readmitted = runtime.run(crasher, ExtInput::None);
    if matches!(readmitted.result, Err(Abort::Quarantined)) {
        return Err("reset did not readmit the extension".into());
    }
    Ok(())
}

/// Parses `[SEEDS] [BASE_SEED]` (defaults 1000 and 1). Anything else
/// prints usage and exits 2.
fn parse_args() -> (u64, u64) {
    let usage = |msg: String| -> ! {
        eprintln!("soak: {msg}");
        eprintln!("usage: soak [SEEDS] [BASE_SEED]");
        std::process::exit(2);
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(extra) = args.get(2) {
        usage(format!("unexpected argument {extra}"));
    }
    let int = |i: usize, name: &str, default: u64| {
        args.get(i).map_or(default, |s| {
            s.parse()
                .unwrap_or_else(|_| usage(format!("{name} must be an integer, got {s}")))
        })
    };
    (int(0, "SEEDS", 1000), int(1, "BASE_SEED", 1))
}

fn main() {
    let (seeds, base) = parse_args();

    println!(
        "soak: {seeds} seeds (base {base}), {PACKETS_PER_SEED} packets/seed, \
         quarantine threshold {QUARANTINE_THRESHOLD}"
    );

    let mut safe = SafeTally::default();
    let mut baseline = BaselineTally::default();
    let mut mismatches = 0u64;

    for seed in base..base + seeds {
        let (tally_a, print_a) = run_safe(seed);
        let (tally_b, print_b) = run_safe(seed);
        if print_a != print_b {
            mismatches += 1;
            eprintln!("seed {seed}: audit streams differ between identical runs");
        }
        if tally_a.injected != tally_b.injected {
            mismatches += 1;
            eprintln!("seed {seed}: injection counts differ between identical runs");
        }
        safe.absorb(tally_a);
        // The repeat run must satisfy the invariants too.
        safe.violations.extend(tally_b.violations);
        baseline.absorb(run_baseline(seed));
    }

    let demo = quarantine_demo();

    let safe_runs = safe.clean + safe.degraded + safe.kills + safe.refusals;
    println!("\n--- safe framework ({safe_runs} runs over {seeds} seeds) ---");
    println!("  clean returns:        {}", safe.clean);
    println!("  degraded (soft errs): {}", safe.degraded);
    println!("  watchdog/panic kills: {}", safe.kills);
    println!("  alloc retries taken:  {}", safe.retries);
    println!("  quarantine trips:     {}", safe.quarantine_trips);
    println!("  refused while quar.:  {}", safe.refusals);
    println!("  readmitted via reset: {}", safe.readmissions);
    println!("  faults injected:      {}", safe.injected);
    println!("  invariant violations: {}", safe.violations.len());

    println!("\n--- eBPF baseline (same seeds, same packets) ---");
    println!("  clean returns:        {}", baseline.ok);
    println!("  hard faults (oops):   {}", baseline.alloc_faults);
    println!("  other errors:         {}", baseline.other_errors);
    println!("  kernels left dirty:   {}", baseline.unhealthy_kernels);
    println!("  faults injected:      {}", baseline.injected);

    println!("\n--- reproducibility ---");
    println!("  seeds re-run:         {seeds}");
    println!("  stream mismatches:    {mismatches}");

    println!("\n--- quarantine demo ---");
    match &demo {
        Ok(()) => println!("  trip -> refuse -> reset -> readmit: ok"),
        Err(e) => println!("  FAILED: {e}"),
    }

    let mut failed = false;
    if !safe.violations.is_empty() {
        failed = true;
        eprintln!("\nsafe-framework invariant violations:");
        for v in safe.violations.iter().take(20) {
            eprintln!("  {v}");
        }
        if safe.violations.len() > 20 {
            eprintln!("  ... and {} more", safe.violations.len() - 20);
        }
    }
    if mismatches > 0 {
        failed = true;
    }
    if let Err(e) = demo {
        failed = true;
        eprintln!("quarantine demo failed: {e}");
    }
    if failed {
        std::process::exit(1);
    }
    println!("\nsoak: PASS");
}
