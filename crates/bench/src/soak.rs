//! The differential fault-injection soak (§3.1): the packet-filter
//! workload on the safe-Rust runtime ([`safe`]) and on the eBPF baseline
//! ([`baseline`]), each seed arming an identical [`FaultPlan`] on a fresh
//! kernel. Runtime mechanisms, not verification, must keep the kernel
//! safe, so [`safe`] lists every invariant a seed breaks; the baseline is
//! only tallied. A seed's run depends only on the seed: the `soak` report
//! sums [`SEEDS`], and `tests/soak_determinism.rs` replays each twice.

use std::ops::RangeInclusive;

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{ExecError, Vm};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::ProgType;
use kernel_sim::audit::EventKind;
use kernel_sim::mem::Fault;
use kernel_sim::objects::SockAddr;
use kernel_sim::{FaultPlan, FaultPlane, Kernel};
use safe_ext::{ExtError, Extension, Runtime};

use crate::workloads;

/// The seeds the `soak` report sums.
pub const SEEDS: RangeInclusive<u64> = 1..=1000;

/// Packets fed to both frameworks under every seed.
pub const PACKETS_PER_SEED: u8 = 8;

/// The demo TCP flow installed by `populate_demo_env`.
const DEMO_TCP_SRC: SockAddr = SockAddr::new(0x0a00_0001, 443);
const DEMO_TCP_DST: SockAddr = SockAddr::new(0x0a00_0064, 51724);

/// Packet `i` of a seed; its first byte picks one of four protocol classes.
fn packet(i: u8) -> [u8; 4] {
    [i % 4, 0xaa, 0xbb, i]
}

/// What one backend did under one seed. Every run counts once in
/// `clean`, `errors`, `kills` or `alloc_failed`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Runs that returned normally.
    pub clean: u64,
    /// Runs that ended in an ordinary error: degraded, not killed.
    pub errors: u64,
    /// Safe-ext runs killed by a watchdog, the stack guard or a panic.
    pub kills: u64,
    /// eBPF runs that ended in [`ExecError::Setup`] on an allocation
    /// failure: the context, or a frame (entry, callee or tail-call
    /// target), could not be allocated, and nothing oopsed.
    pub alloc_failed: u64,
    /// Transient skb allocation failures the safe runtime retried.
    pub alloc_retries: u64,
    /// Faults the plane injected.
    pub injected: u64,
    /// Seeds that left the kernel with an oops, RCU stall or leak.
    pub dirty_kernels: u64,
}

/// One seed's scenario on one backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedRun {
    /// The seed's run outcomes and injections.
    pub tally: Tally,
    /// The kernel's audit stream ([`kernel_sim::audit::fingerprint`]).
    pub audit: String,
    /// The virtual clock after the last packet.
    pub clock_ns: u64,
    /// Safe-side invariant violations, one line each.
    pub violations: Vec<String>,
}

impl SeedRun {
    /// Completes `tally` from the kernel and plane the seed ran on.
    fn finish(kernel: &Kernel, plane: &FaultPlane, mut tally: Tally) -> Self {
        tally.injected = plane.total_injected();
        tally.dirty_kernels = u64::from(!kernel.health().pristine());
        SeedRun {
            tally,
            audit: kernel.audit.fingerprint(),
            clock_ns: kernel.clock.now_ns(),
            violations: Vec::new(),
        }
    }
}

/// A kernel with its demo environment, and an empty map registry.
fn boot() -> (Kernel, MapRegistry) {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    (kernel, MapRegistry::default())
}

fn array(kernel: &Kernel, maps: &MapRegistry, name: &str) -> u32 {
    maps.create(kernel, MapDef::array(name, 8, 4))
        .expect("map creation")
}

/// The packet filter on the safe-Rust runtime under `seed`, plus a
/// spin-lock site and an RAII socket reference, so every fault site of
/// the plane is exercised. Injected lock contention and refcount
/// saturation degrade (skip, miss); they never panic and never leak.
pub fn safe(seed: u64) -> SeedRun {
    let (kernel, maps) = boot();
    let counts = array(&kernel, &maps, "counts");
    let slots = array(&kernel, &maps, "slots");
    // Armed after setup, so both frameworks see the identical plan from
    // the same starting point.
    let plane = kernel.arm_fault_plan(FaultPlan::new(seed));
    let runtime = Runtime::new(&kernel, &maps);
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

    let mut tally = Tally::default();
    let mut violations = Vec::new();
    for i in 0..PACKETS_PER_SEED {
        let outcome = runtime.run_packet(&ext, &packet(i));
        match &outcome.result {
            Ok(_) => tally.clean += 1,
            Err(abort) if abort.is_kill() => tally.kills += 1,
            Err(_) => tally.errors += 1,
        }
        if !outcome.leak_report.clean() {
            violations.push(format!("seed {seed}: run leaked {:?}", outcome.leak_report));
        }
    }
    let (health, quiescent) = (kernel.health(), kernel.rcu.quiescent());
    let underflow = kernel.audit.count(EventKind::RefUnderflow) > 0;
    if !health.pristine() || health.tainted || underflow || !quiescent {
        violations.push(format!(
            "seed {seed}: {health:?}, refcount underflow: {underflow}, RCU quiescent: {quiescent}"
        ));
    }
    tally.alloc_retries = kernel
        .audit
        .of_kind(EventKind::Info)
        .iter()
        .filter(|e| e.detail.contains("transient skb allocation failure"))
        .count() as u64;
    SeedRun {
        violations,
        ..SeedRun::finish(&kernel, &plane, tally)
    }
}

/// The same packets through [`workloads::packet_filter`] on the eBPF
/// baseline, under the same `seed`.
pub fn baseline(seed: u64) -> SeedRun {
    let (kernel, maps) = boot();
    let helpers = HelperRegistry::standard();
    let counts = array(&kernel, &maps, "counts");
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load(workloads::packet_filter(counts));
    let plane = kernel.arm_fault_plan(FaultPlan::new(seed));

    let mut tally = Tally::default();
    for i in 0..PACKETS_PER_SEED {
        match vm.run_packet(id, &packet(i)).result {
            Ok(_) => tally.clean += 1,
            Err(ExecError::Setup {
                fault: Fault::AllocFailed { .. },
                ..
            }) => tally.alloc_failed += 1,
            Err(_) => tally.errors += 1,
        }
    }
    SeedRun::finish(&kernel, &plane, tally)
}
