//! Flow-realistic network benchmark.
//!
//! Drives a deterministic traffic mix (elephant/mouse flows, a SYN
//! flood, malformed frames) through the flow-steered net scenario for
//! both sample extensions (SYN-flood filter, L4 load balancer), all three
//! backends (eBPF compiled lane, safe-ext runtime, SFI sandbox compiled
//! lane), 1/2/4/8 shards, with and without a fault plan armed — and
//! writes the results to `BENCH_net.json` in the repository root.
//!
//! Every configuration is run twice and must replay byte-identically;
//! on top of that, the canonical per-packet record log must be
//! byte-identical *across shard counts* within each
//! `(scenario, backend, fault)` cell — including the fault-armed cells.
//! Either divergence exits nonzero.

use analysis::json::Obj;
use bench::cli;
use bench::engine::sha256_hex;
use bench::netflows::{run_net_batched, NetConfig, NetScenario};
use bench::Lane;
use kernel_sim::net::traffic::{generate, Frame, TrafficConfig};
use kernel_sim::FaultPlanConfig;

const SEED: u64 = 42;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn full_traffic() -> Vec<Frame> {
    generate(
        &TrafficConfig {
            elephants: 8,
            elephant_packets: 256,
            mice: 256,
            flood_frames: 1024,
            malformed_frames: 128,
        },
        SEED,
    )
}

fn full(out: &str) {
    let frames = full_traffic();
    let mut rows = Vec::new();
    let mut failures = Vec::new();

    for scenario in [NetScenario::SynFilter, NetScenario::LoadBalancer] {
        for lane in Lane::FASTEST {
            for faults in [false, true] {
                let what = format!(
                    "scenario={} backend={} faults={faults}",
                    scenario.name(),
                    lane.backend()
                );
                let runs = cli::sweep(&what, &SHARD_COUNTS, |shards| {
                    let cfg = NetConfig {
                        shards,
                        seed: SEED,
                        fault: faults.then(FaultPlanConfig::default),
                        scenario,
                    };
                    run_net_batched(lane, &cfg, &frames)
                });
                let base_sim_pps = runs[0][0].per_sim_sec(frames.len() as u64);
                for (shards, [report, _]) in SHARD_COUNTS.into_iter().zip(&runs) {
                    let packets = report.items();
                    assert_eq!(packets, frames.len() as u64);
                    let sim_pps = report.per_sim_sec(packets);
                    let speedup = if base_sim_pps > 0.0 {
                        sim_pps / base_sim_pps
                    } else {
                        0.0
                    };
                    let rx = report.stats.rx;
                    let flood_dropped = report.stats.class_verdicts[2][1];
                    // Fault-free runs must keep every shard kernel pristine
                    // and the SYN filter must actually defend: most flood
                    // SYNs dropped.
                    if !faults && rx.aborted != 0 {
                        failures.push(format!(
                            "{} aborted runs without faults ({}/{}/{shards} shards)",
                            rx.aborted,
                            scenario.name(),
                            lane.backend()
                        ));
                    }
                    if !faults && scenario == NetScenario::SynFilter && flood_dropped == 0 {
                        failures.push("syn-filter dropped no flood frames".to_string());
                    }
                    rows.push(cli::progress(
                        Obj::new()
                            .str("scenario", scenario.name())
                            .str("backend", lane.backend())
                            .num("shards", shards)
                            .num("faults", faults)
                            .num("packets", packets)
                            .num("drop", rx.drop)
                            .num("pass", rx.pass)
                            .num("tx", rx.tx)
                            .num("aborted", rx.aborted)
                            .num("injected", report.stats.injected)
                            .num("flood_dropped", flood_dropped)
                            .num("sim_elapsed_ns", report.sim_elapsed_ns)
                            .fixed("sim_pps", sim_pps, 0)
                            .fixed("speedup_vs_1shard", speedup, 3)
                            .num("host_elapsed_ns", report.elapsed_ns)
                            .num("host_cpu_ns", report.host_cpu_ns)
                            .fixed("host_pps", report.per_host_cpu_sec(packets), 0)
                            .str("canonical_sha256", &report.canonical_sha256())
                            .str(
                                "flow_log_sha256",
                                &sha256_hex(&report.stats.flow_log.join("\n")),
                            )
                            .str("merged_audit_sha256", &report.audit_sha256())
                            .nums("backend_counts", report.stats.backend_counts),
                    ));
                }
            }
        }
    }

    let header = Obj::new().num("seed", SEED).num("frames", frames.len());
    cli::write_report(out, &header, "rows", &rows);
    if !failures.is_empty() {
        cli::fail(&failures.join("; "));
    }
}

fn main() {
    cli::main("netbench", "BENCH_net.json", full);
}
