//! Structured experiment runners: `repro` turns each result into rows of
//! `BENCH_repro.json`, and the scalability and verifier-count tests check
//! them. The Criterion benches build their own workloads.

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, Vm, VmConfig};
use ebpf::maps::MapRegistry;
use ebpf::program::ProgType;
use kernel_sim::audit::EventKind;
use kernel_sim::Kernel;
use safe_ext::toolchain::Toolchain;
use safe_ext::{ExtInput, Extension, ExtensionRegistry, Loader, Runtime, RuntimeConfig};
use signing::{KeyStore, SigningKey};
use verifier::Verifier;

use crate::workloads;

/// One point of the verification-cost sweep.
#[derive(Debug, Clone, Copy)]
pub struct VerifCostPoint {
    /// Program length in instruction slots.
    pub prog_len: usize,
    /// Instructions processed by the verifier.
    pub insns_processed: u64,
    /// States pushed.
    pub states_pushed: u64,
    /// States pruned.
    pub states_pruned: u64,
    /// Peak retained states times the 56-byte state header, bytes
    /// (`VerifStats::peak_state_bytes`).
    pub peak_state_bytes: usize,
    /// Host wall time, ns.
    pub wall_ns: u128,
}

/// §2.1 "Verification is expensive": cost vs program shape and size.
/// Returns (label, sweep) triples for straight-line, diamond, and loop
/// programs.
pub fn verification_cost_sweep() -> Vec<(&'static str, Vec<VerifCostPoint>)> {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);
    let mut out = Vec::new();

    let mut sweep = Vec::new();
    for n in [16usize, 64, 256, 1024, 4096] {
        let prog = workloads::straightline(n);
        let v = verifier.verify(&prog).expect("verifies");
        sweep.push(point(prog.len(), &v));
    }
    out.push(("straight-line", sweep));

    let mut sweep = Vec::new();
    for n in [4usize, 16, 64, 256] {
        let prog = workloads::diamonds(n);
        let v = verifier.verify(&prog).expect("verifies");
        sweep.push(point(prog.len(), &v));
    }
    out.push(("branch diamonds", sweep));

    let mut sweep = Vec::new();
    for n in [4i32, 16, 64, 256, 1024] {
        let prog = workloads::counted_loop(n);
        let v = verifier.verify(&prog).expect("verifies");
        // For loops, "size" is the trip count: the static program is tiny.
        sweep.push(VerifCostPoint {
            prog_len: n as usize,
            ..point(prog.len(), &v)
        });
    }
    out.push(("counted loop (x = trip count)", sweep));
    out
}

fn point(prog_len: usize, v: &verifier::Verification) -> VerifCostPoint {
    VerifCostPoint {
        prog_len,
        insns_processed: v.stats.insns_processed,
        states_pushed: v.stats.states_pushed,
        states_pruned: v.stats.states_pruned,
        peak_state_bytes: v.stats.peak_state_bytes,
        wall_ns: v.stats.wall_ns,
    }
}

/// §3.1 load path: in-kernel verification vs signature-check + fixup.
#[derive(Debug, Clone, Copy)]
pub struct LoadTimePoint {
    /// Baseline program length (insns).
    pub prog_len: usize,
    /// Verification wall time, ns, median of five loads.
    pub verify_ns: u128,
    /// Signature validation + artifact parse + fixup wall time, ns,
    /// median of five loads.
    pub signed_load_ns: u128,
}

/// Timed loads of each path per program size in [`load_time_comparison`].
const LOAD_TIME_REPEATS: usize = 5;

/// Compares load-time cost as the extension grows. Both paths load once
/// untimed first, so the smallest size does not pay the cold path alone.
pub fn load_time_comparison() -> Vec<LoadTimePoint> {
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);

    let key = SigningKey::derive(1);
    let toolchain = Toolchain::new(key.clone());
    let mut keyring = KeyStore::new();
    keyring.enroll(&key).unwrap();
    keyring.seal();
    let loader = Loader::new(&kernel, keyring);
    let mut registry = ExtensionRegistry::new();
    registry.link(
        "entry",
        Extension::new("e", ProgType::SocketFilter, |_| Ok(0)),
    );

    // The safe-ext artifact for an equivalent extension: source size
    // scales with n to keep the comparison honest.
    let artifact = |n: usize| {
        let source = format!(
            "fn ext(ctx: &ExtCtx) -> Result<u64, ExtError> {{\n{}    Ok(0)\n}}\n",
            "    let _ = 1 + 1;\n".repeat(n / 2)
        );
        toolchain
            .build(&source, "e", ProgType::SocketFilter, "entry", &["maps"])
            .expect("builds")
    };

    let sizes = [64usize, 256, 1024, 4096];
    verifier
        .verify(&workloads::straightline(sizes[0]))
        .expect("verifies");
    loader.load(&artifact(sizes[0]), &registry).expect("loads");
    let mut out = Vec::new();
    for n in sizes {
        let (prog, signed) = (workloads::straightline(n), artifact(n));
        out.push(LoadTimePoint {
            prog_len: prog.len(),
            verify_ns: median_ns(|| {
                let started = std::time::Instant::now();
                verifier.verify(&prog).expect("verifies");
                started.elapsed().as_nanos()
            }),
            signed_load_ns: median_ns(|| loader.load(&signed, &registry).expect("loads").load_ns),
        });
    }
    out
}

/// The median of [`LOAD_TIME_REPEATS`] timings.
fn median_ns(mut time: impl FnMut() -> u128) -> u128 {
    let mut ns: Vec<u128> = (0..LOAD_TIME_REPEATS).map(|_| time()).collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// §2.2 termination: virtual runtime vs iteration count, plus stall
/// observations, plus the safe-ext watchdog ending the equivalent.
#[derive(Debug, Clone, Copy)]
pub struct TerminationPoint {
    /// Total loop iterations (`outer * inner`).
    pub iterations: u64,
    /// Instructions executed.
    pub insns: u64,
    /// Virtual nanoseconds consumed.
    pub virtual_ns: u64,
    /// RCU stalls reported during the run.
    pub stalls: u64,
}

/// Runs the staller at several sizes with `time_per_insn_ns` weighting.
pub fn termination_sweep(time_per_insn_ns: u64) -> Vec<TerminationPoint> {
    let mut out = Vec::new();
    for (outer, inner) in [
        (4i32, 1024i32),
        (8, 2048),
        (16, 4096),
        (32, 8192),
        (64, 8192),
    ] {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        let maps = MapRegistry::default();
        let helpers = HelperRegistry::standard();
        let fd = workloads::scratch_map(&kernel, &maps);
        let prog = workloads::staller(fd, outer, inner);
        Verifier::new(&maps, &helpers)
            .verify(&prog)
            .expect("verifies");
        let mut vm = Vm::new(&kernel, &maps, &helpers).with_config(VmConfig {
            time_per_insn_ns,
            ..VmConfig::default()
        });
        let id = vm.load(prog);
        let before = kernel.clock.now_ns();
        let result = vm.run(id, CtxInput::None);
        assert!(result.result.is_ok());
        out.push(TerminationPoint {
            iterations: outer as u64 * inner as u64,
            insns: result.insns,
            virtual_ns: kernel.clock.now_ns() - before,
            stalls: kernel.audit.count(EventKind::RcuStall) as u64,
        });
    }
    out
}

/// The safe-ext watchdog terminating the equivalent workload.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogPoint {
    /// Fuel budget configured.
    pub fuel: u64,
    /// Fuel used when terminated.
    pub fuel_used: u64,
    /// Virtual ns at termination.
    pub virtual_ns: u64,
    /// Stalls observed (should be zero).
    pub stalls: u64,
}

/// Runs an unbounded safe-ext loop under several fuel budgets.
pub fn watchdog_sweep() -> Vec<WatchdogPoint> {
    let mut out = Vec::new();
    for fuel in [10_000u64, 100_000, 1_000_000] {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        let maps = MapRegistry::default();
        let ext = Extension::new("spinner", ProgType::Kprobe, |ctx| loop {
            ctx.tick()?;
        });
        let runtime = Runtime::new(&kernel, &maps).with_config(RuntimeConfig {
            fuel,
            deadline_ns: u64::MAX / 2,
            ..RuntimeConfig::default()
        });
        let before = kernel.clock.now_ns();
        let outcome = runtime.run(&ext, ExtInput::None);
        assert!(outcome.result.is_err());
        out.push(WatchdogPoint {
            fuel,
            fuel_used: outcome.fuel_used,
            virtual_ns: kernel.clock.now_ns() - before,
            stalls: kernel.audit.count(EventKind::RcuStall) as u64,
        });
    }
    out
}

/// Per-event cost of the two frameworks on the same packet workload.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeCostPoint {
    /// Baseline: interpreted instructions per packet.
    pub baseline_insns_per_pkt: f64,
    /// Baseline: host ns per packet.
    pub baseline_ns_per_pkt: f64,
    /// Safe-ext: fuel per packet.
    pub safe_fuel_per_pkt: f64,
    /// Safe-ext: host ns per packet.
    pub safe_ns_per_pkt: f64,
}

/// Runs `rounds` packets through both frameworks' packet filters.
pub fn runtime_cost(rounds: u32) -> RuntimeCostPoint {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let fd = maps
        .create(&kernel, ebpf::maps::MapDef::array("counts", 8, 4))
        .unwrap();

    let prog = workloads::packet_filter(fd);
    Verifier::new(&maps, &helpers).verify(&prog).unwrap();
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load(prog);
    let mut insns = 0u64;
    let started = std::time::Instant::now();
    for i in 0..rounds {
        let result = vm.run(id, CtxInput::Packet(vec![(i % 4) as u8, 0xaa, 0xbb]));
        insns += result.insns;
        assert!(result.result.is_ok());
    }
    let baseline_ns = started.elapsed().as_nanos() as f64;

    let ext = Extension::new("filter.rs", ProgType::SocketFilter, move |ctx| {
        let pkt = ctx.packet()?;
        if pkt.len() < 2 {
            return Ok(0);
        }
        let proto = (pkt.load_u8(0)? & 3) as u32;
        ctx.array(fd)?.fetch_add_u64(proto, 0, 1)?;
        Ok(pkt.len() as u64)
    });
    let runtime = Runtime::new(&kernel, &maps);
    let mut fuel = 0u64;
    let started = std::time::Instant::now();
    for i in 0..rounds {
        let outcome = runtime.run(&ext, ExtInput::Packet(vec![(i % 4) as u8, 0xaa, 0xbb]));
        fuel += outcome.fuel_used;
        assert!(outcome.result.is_ok());
    }
    let safe_ns = started.elapsed().as_nanos() as f64;

    RuntimeCostPoint {
        baseline_insns_per_pkt: insns as f64 / rounds as f64,
        baseline_ns_per_pkt: baseline_ns / rounds as f64,
        safe_fuel_per_pkt: fuel as f64 / rounds as f64,
        safe_ns_per_pkt: safe_ns / rounds as f64,
    }
}

/// §2.1 program splitting: a program too large for the unprivileged
/// limits must be split into tail-called pieces, costing extra runtime
/// work and programmability (state through maps).
#[derive(Debug, Clone, Copy)]
pub struct SplitPoint {
    /// Total ALU work (instructions of payload).
    pub work: usize,
    /// Whether the monolith verifies under unprivileged limits.
    pub monolith_verifies: bool,
    /// Interpreted instructions for the monolith (modern limits).
    pub monolith_insns: u64,
    /// Number of tail-called pieces in the split version.
    pub pieces: u32,
    /// Interpreted instructions for the split version.
    pub split_insns: u64,
}

/// Builds one piece of the split program: `work` ALU ops, accumulate into
/// scratch\[0\], then tail-call the next slot (or exit for the last piece).
fn split_piece(
    work: usize,
    scratch_fd: u32,
    table_fd: u32,
    next_slot: Option<u32>,
) -> ebpf::Program {
    use ebpf::asm::Asm;
    use ebpf::insn::*;
    let mut asm = Asm::new().mov64_reg(Reg::R6, Reg::R1).mov64_imm(Reg::R7, 0);
    for i in 0..work {
        asm = asm.alu64_imm(BPF_ADD, Reg::R7, (i % 7) as i32);
    }
    // Fold the partial sum into scratch[0] (cross-piece state must go
    // through a map — the programmability cost of splitting).
    asm = asm
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, scratch_fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(ebpf::helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .alu64_reg(BPF_ADD, Reg::R1, Reg::R7)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1);
    match next_slot {
        Some(slot) => {
            asm = asm
                .mov64_reg(Reg::R1, Reg::R6)
                .ld_map_fd(Reg::R2, table_fd)
                .mov64_imm(Reg::R3, slot as i32)
                .call_helper(ebpf::helpers::BPF_TAIL_CALL as i32)
                .mov64_imm(Reg::R0, 0)
                .exit();
        }
        None => {
            asm = asm.mov64_imm(Reg::R0, 0).exit();
        }
    }
    ebpf::Program::new(
        "piece",
        ProgType::SocketFilter,
        asm.build().expect("assembles"),
    )
}

/// Runs the splitting experiment at a payload size that exceeds the
/// unprivileged program-size limit.
pub fn program_splitting(work: usize, pieces: u32) -> SplitPoint {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let scratch = maps
        .create(&kernel, ebpf::maps::MapDef::array("acc", 8, 1))
        .unwrap();
    let table = maps
        .create(&kernel, ebpf::maps::MapDef::prog_array("chain", pieces))
        .unwrap();

    let unpriv =
        Verifier::new(&maps, &helpers).with_limits(verifier::VerifierLimits::unprivileged());

    // Monolith: all the work in one piece, no tail call.
    let monolith = split_piece(work, scratch, table, None);
    let monolith_verifies = unpriv.verify(&monolith).is_ok();

    // Modern-limit run for the baseline instruction count.
    Verifier::new(&maps, &helpers)
        .verify(&monolith)
        .expect("monolith verifies at modern limits");
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let mono_id = vm.load(monolith);
    let mono = vm.run(mono_id, CtxInput::Packet(vec![0; 8]));
    assert!(mono.result.is_ok());

    // Split: `pieces` chunks chained by tail calls; every piece must pass
    // the *unprivileged* verifier.
    let chunk = work / pieces as usize;
    let mut ids = Vec::new();
    for p in 0..pieces {
        let next = (p + 1 < pieces).then_some(p + 1);
        let piece = split_piece(chunk, scratch, table, next);
        unpriv.verify(&piece).expect("each piece fits the limit");
        ids.push(vm.load(piece));
    }
    let table_map = maps.get(table).unwrap();
    for (slot, id) in ids.iter().enumerate() {
        table_map
            .update(
                &kernel.mem,
                &(slot as u32).to_le_bytes(),
                &id.to_le_bytes(),
                0,
            )
            .unwrap();
    }
    let split = vm.run(ids[0], CtxInput::Packet(vec![0; 8]));
    assert!(split.result.is_ok());

    SplitPoint {
        work,
        monolith_verifies,
        monolith_insns: mono.insns,
        pieces,
        split_insns: split.insns,
    }
}

/// Pruning ablation: the same diamond program verified with and without
/// state pruning — the design choice that keeps path explosion at bay.
#[derive(Debug, Clone, Copy)]
pub struct PruningPoint {
    /// Number of diamonds.
    pub diamonds: usize,
    /// Verifier insns with pruning enabled.
    pub with_pruning: u64,
    /// Verifier insns with pruning disabled (None = budget exhausted).
    pub without_pruning: Option<u64>,
}

/// Sweeps diamond counts with pruning on/off.
pub fn pruning_ablation() -> Vec<PruningPoint> {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let pruning = Verifier::new(&maps, &helpers);
    let mut no_pruning_limits = verifier::VerifierLimits::modern();
    no_pruning_limits.max_states_per_insn = 0; // nothing recorded => nothing pruned
    let mut out = Vec::new();
    for n in [4usize, 8, 12, 16, 20] {
        let prog = workloads::diamonds(n);
        let with_pruning = pruning
            .verify(&prog)
            .expect("verifies")
            .stats
            .insns_processed;
        let no_prune = Verifier::new(&maps, &helpers)
            .with_limits(no_pruning_limits)
            .verify(&prog);
        out.push(PruningPoint {
            diamonds: n,
            with_pruning,
            without_pruning: no_prune.ok().map(|v| v.stats.insns_processed),
        });
    }
    out
}
