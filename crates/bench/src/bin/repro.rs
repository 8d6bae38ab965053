//! `repro`: regenerates every figure and table of the paper into
//! `BENCH_repro.json`.
//!
//! Usage: `cargo run --release -p bench --bin repro -- [--out <path>]`
//!
//! One row per figure point, table row or experiment result. A row is
//! named by its `figure` (`fig2`, `table1`, `verif-cost`, ...) plus the id
//! members that pick it out there: its `series`, its kernel `version`, or
//! its sweep's x value. Every canonical value depends only on code and
//! seed, so the report gate holds the file byte for byte. The host timings
//! (`host_*`: verification wall time, load-time verify and signed-load
//! time, per-packet host cost and its speedup) land in
//! `BENCH_repro.host.json`.

use std::fmt::Display;

use analysis::datasets::{self, TABLE1, TABLE1_TOTAL};
use analysis::json::Obj;
use analysis::report;
use bench::experiments;
use ebpf::asm::Asm;
use ebpf::helpers::{self, FaultConfig, HelperCategory, HelperRegistry};
use ebpf::insn::*;
use ebpf::interp::{CtxInput, Vm};
use ebpf::maps::MapRegistry;
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use safe_ext::props;
use safe_ext::retired::RETIRED_HELPERS;
use verifier::Verifier;

const FIG3_SEED: u64 = 42;
const RUNTIME_PACKETS: u32 = 2_000;
/// The staller's virtual ns per instruction, so its sweep reaches an RCU stall.
const STALLER_NS_PER_INSN: u64 = 5_000;

fn main() {
    report::main("repro", "BENCH_repro.json", full);
}

fn full(out: &str) {
    let paper = [fig2(), fig3(), fig4(), table1(), table2(), helpers()];
    let costs = [verif_cost(), load_time(), runtime_cost()];
    let exploits = [exploit_safety(), exploit_termination()];
    let rows: Vec<Obj> = paper
        .into_iter()
        .chain(costs)
        .chain(exploits)
        .flatten()
        .map(report::progress)
        .collect();
    let header = Obj::new()
        .num("fig3_seed", FIG3_SEED)
        .num("runtime_packets", RUNTIME_PACKETS)
        .num("staller_ns_per_insn", STALLER_NS_PER_INSN);
    report::write_report(out, &header, "rows", &rows);
}

fn row(figure: &str, series: &str) -> Obj {
    Obj::new().str("figure", figure).str("series", series)
}

fn point(figure: &str, series: &str, version: impl Display) -> Obj {
    row(figure, series).str("version", &version.to_string())
}

/// Figure 2: verifier LoC, the paper's digitized series and ours.
fn fig2() -> Vec<Obj> {
    let fig = analysis::fig2();
    let paper = fig
        .paper
        .iter()
        .map(|(v, year, loc)| point("fig2", "paper", v).num("year", year).num("loc", loc));
    let ours = fig
        .measured
        .iter()
        .map(|(v, stage, loc)| point("fig2", "ours", v).str("stage", stage).num("loc", loc));
    paper.chain(ours).collect()
}

/// Figure 3: call-graph size per helper, the paper's summary next to the
/// synthetic kernel's, then the synthetic histogram.
fn fig3() -> Vec<Obj> {
    let fig = analysis::fig3(FIG3_SEED);
    let s = fig.stats;
    let [pid_tgid, sys_bpf] =
        ["bpf_get_current_pid_tgid", "bpf_sys_bpf"].map(|h| fig.nodes_of(h).expect(h));
    let mut rows = vec![
        row("fig3", "paper")
            .num("helpers", datasets::FIG3_HELPER_COUNT)
            .num("min", datasets::FIG3_MIN_NODES)
            .num("max", datasets::FIG3_MAX_NODES)
            .num("pct_ge_30", datasets::FIG3_PCT_GE_30)
            .num("pct_ge_500", datasets::FIG3_PCT_GE_500),
        row("fig3", "synthetic")
            .num("helpers", s.count)
            .num("min", s.min)
            .num("median", s.median)
            .num("max", s.max)
            .fixed("pct_ge_30", s.pct_ge_30, 4)
            .fixed("pct_ge_500", s.pct_ge_500, 4)
            .num("bpf_get_current_pid_tgid", pid_tgid)
            .num("bpf_sys_bpf", sys_bpf),
    ];
    rows.extend(fig.bins.iter().map(|(bin, helpers)| {
        row("fig3", "synthetic")
            .str("nodes", bin)
            .num("helpers", helpers)
    }));
    rows
}

/// Figure 4: helper count, the paper's digitized series and our
/// registry's, then the paper series' linear growth.
fn fig4() -> Vec<Obj> {
    let fig = analysis::fig4();
    let paper = fig.paper.iter().map(|(v, year, helpers)| {
        point("fig4", "paper", v)
            .num("year", year)
            .num("helpers", helpers)
    });
    let ours = fig.measured.iter();
    let ours = ours.map(|(v, helpers)| point("fig4", "ours", v).num("helpers", helpers));
    let growth = row("fig4", "paper")
        .fixed("growth_per_two_years", fig.paper_growth_per_two_years, 2)
        .num("claim", datasets::HELPERS_PER_TWO_YEARS);
    paper.chain(ours).chain([growth]).collect()
}

/// Table 1: the paper's bug counts, then the replicas this artifact
/// implements (`tests/fault_corpus.rs`).
fn table1() -> Vec<Obj> {
    let paper = TABLE1.iter().chain([&TABLE1_TOTAL]).map(|r| {
        row("table1", "paper")
            .str("class", r.class)
            .num("total", r.total)
            .num("helper_bugs", r.helper)
            .num("verifier_bugs", r.verifier)
    });
    let replicas = analysis::bugdb::CORPUS.iter().map(|bug| {
        row("table1", "replicas")
            .str("replica", bug.id)
            .str("class", bug.class.label())
            .str("component", &format!("{:?}", bug.component))
    });
    paper.chain(replicas).collect()
}

/// Table 2: each safety property, its enforcement, and how this artifact
/// demonstrates it (`tests/table2_properties.rs`).
fn table2() -> Vec<Obj> {
    props::TABLE2
        .iter()
        .map(|(prop, enforcement)| {
            row("table2", "paper")
                .str("property", prop.label())
                .str("enforcement", enforcement.label())
                .str("demonstrated_by", props::demonstrated_by(*prop))
        })
        .collect()
}

/// §3.2: the simulated helpers by class (retire, simplify, wrap), then
/// the full retirement table.
fn helpers() -> Vec<Obj> {
    let registry = HelperRegistry::standard();
    let specs = registry.specs();
    let mut rows = vec![row("helpers", "registry").num("helpers", registry.len())];
    for (class, category) in [
        ("retire", HelperCategory::Expressiveness),
        ("simplify", HelperCategory::KernelInterface),
        ("wrap", HelperCategory::Wrapper),
    ] {
        let names: Vec<&str> = specs
            .iter()
            .filter(|s| s.category == category)
            .map(|s| s.name)
            .collect();
        rows.push(
            row("helpers", "registry")
                .str("class", class)
                .num("helpers", names.len())
                .strs("names", &names),
        );
    }
    rows.extend(RETIRED_HELPERS.iter().map(|(helper, replacement)| {
        row("helpers", "retired")
            .str("helper", helper)
            .str("replacement", replacement)
    }));
    rows
}

/// §2.1: verification cost by program shape and size, with and without
/// state pruning, and the forced program split.
fn verif_cost() -> Vec<Obj> {
    let mut rows = Vec::new();
    for (series, sweep) in experiments::verification_cost_sweep() {
        rows.extend(sweep.iter().map(|p| {
            row("verif-cost", series)
                .num("size", p.prog_len)
                .num("insns_processed", p.insns_processed)
                .num("states_pushed", p.states_pushed)
                .num("states_pruned", p.states_pruned)
                .num("peak_state_bytes", p.peak_state_bytes)
                .num("host_wall_ns", p.wall_ns)
        }));
    }
    for p in experiments::pruning_ablation() {
        let r = row("verif-cost", "pruning")
            .num("diamonds", p.diamonds)
            .num("with_pruning", p.with_pruning);
        rows.push(match p.without_pruning {
            Some(insns) => r.num("without_pruning", insns),
            None => r.str("without_pruning", "rejected (budget)"),
        });
    }
    let p = experiments::program_splitting(6000, 2);
    let overhead_pct = (p.split_insns as f64 / p.monolith_insns as f64 - 1.0) * 100.0;
    rows.push(
        row("verif-cost", "splitting")
            .num("work", p.work)
            .num("monolith_verifies_unprivileged", p.monolith_verifies)
            .num("monolith_insns", p.monolith_insns)
            .num("pieces", p.pieces)
            .num("split_insns", p.split_insns)
            .fixed("overhead_pct", overhead_pct, 2),
    );
    rows
}

/// §3.1: load time, in-kernel verification against signature check plus
/// fixup. Only the program sizes are canonical.
fn load_time() -> Vec<Obj> {
    let points = experiments::load_time_comparison();
    let rows = points.iter().map(|p| {
        let ratio = p.verify_ns as f64 / p.signed_load_ns.max(1) as f64;
        row("load-time", "straight-line")
            .num("size", p.prog_len)
            .num("host_verify_ns", p.verify_ns)
            .num("host_signed_load_ns", p.signed_load_ns)
            .fixed("host_ratio", ratio, 1)
    });
    rows.collect()
}

/// §3.1: per-packet cost of the interpreted baseline and safe-ext on the
/// same packet filter.
fn runtime_cost() -> Vec<Obj> {
    let p = experiments::runtime_cost(RUNTIME_PACKETS);
    let speedup = p.baseline_ns_per_pkt / p.safe_ns_per_pkt.max(1.0);
    vec![row("runtime-cost", "packet-filter")
        .fixed("baseline_insns_per_pkt", p.baseline_insns_per_pkt, 3)
        .fixed("safe_fuel_per_pkt", p.safe_fuel_per_pkt, 3)
        .fixed("host_baseline_ns_per_pkt", p.baseline_ns_per_pkt, 0)
        .fixed("host_safe_ns_per_pkt", p.safe_ns_per_pkt, 0)
        .fixed("host_speedup", speedup, 2)]
}

/// §2.2 safety: a verified program crashes the kernel through the
/// `bpf_sys_bpf` union NULL dereference (CVE-2022-2785).
fn exploit_safety() -> Vec<Obj> {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers_reg = HelperRegistry::standard();
    let insns = Asm::new()
        .st(BPF_DW, Reg::R10, -16, 0)
        .st(BPF_DW, Reg::R10, -8, 0)
        .mov64_imm(Reg::R1, helpers::SYS_BPF_PROG_RUN as i32)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 16)
        .call_helper(helpers::BPF_SYS_BPF as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let prog = Program::new("cve-2022-2785", ProgType::Tracepoint, insns);
    let verifier = Verifier::new(&maps, &helpers_reg);
    let v = verifier.verify(&prog).expect("the verifier accepts it");
    let mut vm = Vm::new(&kernel, &maps, &helpers_reg).with_faults(FaultConfig::shipped());
    let id = vm.load(prog);
    let result = vm.run(id, CtxInput::None);
    let health = kernel.health();
    vec![row("exploit-safety", "cve-2022-2785")
        .str("verifier", "accepted")
        .num("insns_processed", v.stats.insns_processed)
        .str("runtime", &format!("{:?}", result.result))
        .num("oopses", health.oopses)
        .num("tainted", health.tainted)]
}

/// §2.2 termination: the verified nested `bpf_loop` staller's runtime is
/// linear in its iterations, extrapolated to "millions of years"; the
/// safe-ext watchdog ends the equivalent loop at its fuel budget.
fn exploit_termination() -> Vec<Obj> {
    let sweep = experiments::termination_sweep(STALLER_NS_PER_INSN);
    let mut rows: Vec<Obj> = sweep
        .iter()
        .map(|p| {
            row("exploit-termination", "bpf_loop")
                .num("iterations", p.iterations)
                .num("insns", p.insns)
                .num("virtual_ns", p.virtual_ns)
                .num("stalls", p.stalls)
        })
        .collect();
    let points: Vec<(f64, f64)> = sweep
        .iter()
        .map(|p| (p.iterations as f64, p.insns as f64))
        .collect();
    let slope = analysis::figures::linear_slope(&points);
    // 33 tail calls of three nested 2^23-trip loops, at 1 ns per insn.
    let full_iters = 33.0 * ((1u64 << 23) as f64).powi(3);
    let years = full_iters * slope / 1e9 / 3600.0 / 24.0 / 365.0;
    rows.push(
        row("exploit-termination", "bpf_loop")
            .fixed("insns_per_iteration", slope, 3)
            .num("extrapolated_years", format!("{years:.3e}")),
    );
    rows.extend(experiments::watchdog_sweep().iter().map(|w| {
        row("exploit-termination", "safe-ext watchdog")
            .num("fuel", w.fuel)
            .num("fuel_used", w.fuel_used)
            .num("virtual_ns", w.virtual_ns)
            .num("stalls", w.stalls)
    }));
    rows
}
