//! Sharded-dispatch throughput benchmark.
//!
//! Drives a fixed deterministic packet batch through the dispatch
//! scenario at 1/2/4/8 shards for all three backends (eBPF compiled lane,
//! safe-ext runtime, SFI sandbox compiled lane), verifies every
//! configuration replays with a byte-identical merged audit stream, and
//! writes the results to `BENCH_throughput.json` in the repository root.
//!
//! Scaling is reported twice:
//!
//! - in *simulated* time — the busiest shard's virtual-clock advance —
//!   the deterministic metric of the modelled multi-core machine; and
//! - in *host capacity* (`host_pps`): packets divided by the busiest
//!   shard's thread-CPU time. Thread CPU time bills each shard only for
//!   cycles it executed, so this shows parallel speedup even when CI
//!   provides a single core (where wall-clock cannot). Host wall-clock
//!   is recorded alongside for reference (`host_wall_pps`).
//!
//! The compiled lanes are observationally identical to their
//! interpreters, so the merged audit hashes must not move between them.

use analysis::json::Obj;
use bench::cli;
use bench::dispatch::{make_packets, run_batched, DispatchConfig};
use bench::Lane;

const SEED: u64 = 42;
const FULL_BATCH: usize = 20_000;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn full(out: &str) {
    let batch = make_packets(FULL_BATCH);
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for lane in Lane::FASTEST {
        let runs = cli::sweep(
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
        let base_sim_pps = runs[0][0].per_sim_sec(FULL_BATCH as u64);
        let mut host_pps = Vec::new();
        for (shards, [report, _]) in SHARD_COUNTS.into_iter().zip(&runs) {
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
            host_pps.push(report.per_host_cpu_sec(packets));
            let m = &report.metrics;
            rows.push(cli::progress(
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
        // Host capacity must scale too: host_pps strictly increasing in
        // shard count within one run of this binary. Thread-CPU time is
        // stable enough for this whenever sharding divides the work.
        if host_pps.windows(2).any(|w| w[1] <= w[0]) {
            failures.push(format!(
                "host_pps not monotonically increasing for {}: {host_pps:?}",
                lane.backend()
            ));
        }
    }
    let header = Obj::new().num("seed", SEED).num("batch", FULL_BATCH);
    cli::write_report(out, &header, "rows", &rows);
    if !failures.is_empty() {
        cli::fail(&failures.join("; "));
    }
}

fn main() {
    cli::main("throughput", "BENCH_throughput.json", full);
}
