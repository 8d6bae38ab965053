//! Sharded-dispatch throughput benchmark.
//!
//! Drives a fixed deterministic packet batch through the dispatch
//! scenario at 1/2/4/8 shards for all three backends (eBPF compiled lane,
//! safe-ext runtime, SFI sandbox compiled lane), once per configuration,
//! and writes the results to `BENCH_throughput.json` in the repository
//! root.
//!
//! Scaling is reported twice:
//!
//! - in *simulated* time — the busiest shard's virtual-clock advance —
//!   the deterministic metric of the modelled multi-core machine, which
//!   must beat the 1-shard baseline at every multi-shard count; and
//! - in *host capacity* (`host_pps`): packets divided by the busiest
//!   shard's thread-CPU time, with host wall-clock alongside
//!   (`host_wall_pps`). Both land in the `.host.json` sibling and are
//!   recorded, not checked: on a shared host, thread-CPU time moves
//!   enough between runs that `host_pps` does not always rise with
//!   shard count.
//!
//! The compiled lanes are observationally identical to their
//! interpreters, so the merged audit hashes must not move between them.

use analysis::json::Obj;
use analysis::report;
use bench::dispatch::{make_packets, run_batched, DispatchConfig};
use bench::engine;
use bench::Lane;

const SEED: u64 = 42;
const FULL_BATCH: usize = 20_000;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn full(out: &str) {
    let batch = make_packets(FULL_BATCH);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for lane in Lane::FASTEST {
        let runs = engine::sweep(
            &format!("backend={}", lane.backend()),
            &SHARD_COUNTS,
            |shards| {
                let cfg = DispatchConfig {
                    shards,
                    seed: SEED,
                    ..Default::default()
                };
                run_batched(lane, &cfg, &batch)
            },
        );
        let base_sim_pps = runs[0].per_sim_sec(FULL_BATCH as u64);
        for (shards, report) in SHARD_COUNTS.into_iter().zip(&runs) {
            let packets = report.items();
            assert_eq!(packets, FULL_BATCH as u64);
            assert_eq!(report.stats.errors, 0, "clean run expected without faults");
            // Speedup is measured in simulated time: each shard runs on
            // its own simulated CPU, so the batch completes when the
            // busiest shard's virtual clock does.
            let sim_pps = report.per_sim_sec(packets);
            let speedup = if base_sim_pps > 0.0 {
                sim_pps / base_sim_pps
            } else {
                0.0
            };
            // The acceptance bar: every multi-shard configuration beats
            // its backend's 1-shard baseline in simulated time.
            if shards > 1 && speedup <= 1.0 {
                failures.push(format!(
                    "{} at {shards} shards did not beat its 1-shard baseline",
                    lane.backend()
                ));
            }
            let m = &report.metrics;
            rows.push(report::progress(
                Obj::new()
                    .str("backend", lane.backend())
                    .num("shards", shards)
                    .num("packets", packets)
                    .num("sim_elapsed_ns", report.sim_elapsed_ns)
                    .fixed("sim_pps", sim_pps, 0)
                    .fixed("speedup_vs_1shard", speedup, 3)
                    .num("host_elapsed_ns", report.elapsed_ns)
                    .fixed("host_wall_pps", report.per_wall_sec(packets), 0)
                    .num("host_cpu_ns", report.host_cpu_ns)
                    .fixed("host_pps", report.per_host_cpu_sec(packets), 0)
                    .str("merged_audit_sha256", &report.audit_sha256())
                    .num("helper_calls", m.helper_calls)
                    .num("run_cost_mean", m.run_cost.mean())
                    .num("run_cost_p99", m.run_cost.percentile(99)),
            ));
        }
    }
    let header = Obj::new().num("seed", SEED).num("batch", FULL_BATCH);
    report::write_report(out, &header, "rows", &rows);
    if !failures.is_empty() {
        report::fail(&failures.join("; "));
    }
}

fn main() {
    report::main("throughput", "BENCH_throughput.json", full);
}
