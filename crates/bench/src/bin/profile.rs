//! Span-trace profiling benchmark.
//!
//! Runs the deterministic packet batch through the dispatch scenario with
//! tracing enabled for all three backends (eBPF interpreter, safe-ext
//! runtime, and the SFI sandbox) at 1/2/4/8 shards, folds the per-CPU
//! span streams into per-stage self/total cost tables, and writes the
//! comparison to `BENCH_profile.json` plus a flamegraph collapsed-stack
//! export (`BENCH_profile_flame.txt`).
//!
//! Three contracts are asserted on every run:
//!
//! 1. **Zero observer effect** — the traced run's `sim_elapsed_ns`
//!    equals the untraced run's exactly (recording never advances the
//!    virtual clock), so profiling overhead in simulated cost is 0.
//! 2. **Shard invariance** — the canonical trace hash (`TRACE_SHA256`)
//!    is identical at every shard count for a given backend.
//! 3. **Lane invariance** — each bytecode backend's canonical hash is
//!    identical under its interpreter and its JIT lane, and the JIT lane
//!    has zero observer effect too.

use std::fmt::Write as _;

use analysis::json::Obj;
use analysis::profile::Profile;
use analysis::report;
use bench::dispatch::{make_packets, run_batched, DispatchConfig, DispatchStats};
use bench::engine::{self, RunReport};
use bench::Lane;
use kernel_sim::trace::TraceEvent;

const SEED: u64 = 42;
const FULL_BATCH: usize = 4096;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One traced configuration of the sweep.
struct Row {
    lane: Lane,
    shards: usize,
    report: RunReport<DispatchStats>,
    profile: Profile,
    trace_events: usize,
}

fn config(shards: usize, trace: bool) -> DispatchConfig {
    DispatchConfig {
        shards,
        seed: SEED,
        trace,
        ..Default::default()
    }
}

/// Fails unless `traced` matches an untraced run of `lane` at `shards` in
/// simulated cost and merged audit: the zero observer effect.
fn check_unperturbed(
    lane: Lane,
    shards: usize,
    traced: &RunReport<DispatchStats>,
    batch: &[Vec<u8>],
) {
    let what = format!("lane={lane:?} shards={shards}");
    let untraced = engine::ok(run_batched(lane, &config(shards, false), batch), &what);
    if traced.sim_elapsed_ns != untraced.sim_elapsed_ns
        || traced.merged_fingerprint != untraced.merged_fingerprint
    {
        report::fail(&format!(
            "tracing perturbed simulated cost or audit for {what}"
        ));
    }
}

/// Runs `lane` traced across [`SHARD_COUNTS`] (the canonical trace must
/// not vary with shard count), checks the zero observer effect
/// against an untraced run and, for a bytecode lane, the same canonical
/// trace and zero observer effect under its JIT twin at 1 shard. One row
/// per shard count.
fn sweep(lane: Lane, batch: &[Vec<u8>]) -> Vec<Row> {
    let what = format!("backend={}", lane.backend());
    let runs = engine::sweep(&what, &SHARD_COUNTS, |n| {
        run_batched(lane, &config(n, true), batch)
    });
    let mut rows = Vec::new();
    for (shards, report) in SHARD_COUNTS.into_iter().zip(runs) {
        check_unperturbed(lane, shards, &report, batch);
        let tagged: Vec<(usize, Vec<TraceEvent>)> = report
            .shards
            .iter()
            .map(|s| (s.shard, s.trace.clone()))
            .collect();
        rows.push(Row {
            lane,
            shards,
            profile: Profile::fold_shards(&tagged),
            trace_events: tagged.iter().map(|(_, t)| t.len()).sum(),
            report,
        });
    }
    // Interpreter vs JIT: the identity transform must not move a single
    // canonical trace line.
    if let Some(jit) = lane.jit() {
        let compiled = engine::ok(run_batched(jit, &config(1, true), batch), &what);
        if compiled.canonical_trace != rows[0].report.canonical_trace {
            report::fail(&format!(
                "canonical trace differs between {lane:?} and {jit:?}"
            ));
        }
        check_unperturbed(jit, 1, &compiled, batch);
    }
    rows
}

fn write_reports(rows: &[Row], out: &str) {
    let objs: Vec<Obj> = rows
        .iter()
        .map(|r| {
            let stages: Vec<Obj> = r
                .profile
                .stages
                .iter()
                .map(|(label, cost)| {
                    Obj::new()
                        .str("stage", label)
                        .num("count", cost.count)
                        .num("total_ns", cost.total_ns)
                        .num("self_ns", cost.self_ns)
                })
                .collect();
            Obj::new()
                .str("backend", r.lane.backend())
                .num("shards", r.shards)
                .num("packets", r.report.items())
                .num("sim_elapsed_ns", r.report.sim_elapsed_ns)
                .num("trace_events", r.trace_events)
                .str("trace_sha256", &r.report.trace_sha256())
                .objs("stages", &stages)
        })
        .collect();
    let header = Obj::new().num("seed", SEED).num("batch", FULL_BATCH);
    report::write_report(out, &header, "rows", &objs);

    // Flamegraph collapsed stacks for the 1-shard run of each backend,
    // frames prefixed with the backend so all fit one flamegraph.
    let mut flame = String::new();
    for r in rows.iter().filter(|r| r.shards == 1) {
        for line in r.profile.render_collapsed().lines() {
            let _ = writeln!(flame, "{};{line}", r.lane.backend());
        }
    }
    report::write(&report::sibling(out, "_flame.txt"), &flame);
}

fn full(out: &str) {
    let batch = make_packets(FULL_BATCH);
    let mut rows = Vec::new();
    for lane in Lane::INTERP {
        let swept = sweep(lane, &batch);
        println!(
            "== {} (1 shard, {} packets, {} trace events) ==\n{}",
            lane.backend(),
            swept[0].report.items(),
            swept[0].trace_events,
            swept[0].profile.render_table()
        );
        rows.extend(swept);
    }
    write_reports(&rows, out);
    println!(
        "profile: {} configurations (overhead 0 ns by construction, asserted)",
        rows.len()
    );
}

fn main() {
    report::main("profile", "BENCH_profile.json", full);
}
