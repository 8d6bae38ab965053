//! Integration suite for the span-tracing layer's determinism contract.
//!
//! The contract (DESIGN.md §12): for a fixed `(backend, seed, batch)`,
//! the canonical trace — tasked spans with task-relative timestamps and
//! logical arguments — hashes identically regardless of how many shards
//! the batch is split over, whether the eBPF program runs interpreted or
//! through the JIT identity transform, and which process or thread
//! interleaving executed the run; and tracing itself never perturbs
//! simulated cost or audits.

use bench::dispatch::{make_packets, run_batched, DispatchConfig};
use bench::Lane;
use kernel_sim::FaultPlanConfig;
use signing::sha256;

const BOTH: [Lane; 2] = [Lane::Ebpf, Lane::SafeExt];

fn trace_hash(lane: Lane, cfg: &DispatchConfig, batch: &[Vec<u8>]) -> String {
    let report = run_batched(lane, cfg, batch).expect("dispatch");
    assert!(
        !report.canonical_trace.is_empty(),
        "{lane:?}: traced run produced an empty canonical trace"
    );
    sha256::to_hex(&sha256::digest(report.canonical_trace.as_bytes()))
}

#[test]
fn canonical_trace_hash_is_shard_count_invariant() {
    let batch = make_packets(96);
    for lane in BOTH {
        let mut seen: Option<String> = None;
        for shards in [1usize, 4] {
            let cfg = DispatchConfig {
                shards,
                seed: 0xace,
                trace: true,
                ..Default::default()
            };
            let hash = trace_hash(lane, &cfg, &batch);
            if let Some(prev) = &seen {
                assert_eq!(
                    *prev, hash,
                    "{lane:?}: canonical trace changed between 1 and {shards} shards"
                );
            }
            seen = Some(hash);
        }
    }
}

#[test]
fn canonical_trace_hash_is_identical_interp_vs_jit() {
    // A compiled lane must not change a single audit byte, canonical
    // trace line, or simulated cost relative to its interpreter — also
    // when the fault plane injects transient helper and allocation
    // failures into both.
    let batch = make_packets(96);
    for (shards, armed) in [1usize, 2, 4]
        .into_iter()
        .flat_map(|n| [(n, false), (n, true)])
    {
        let cfg = DispatchConfig {
            shards,
            seed: 7,
            trace: true,
            fault: armed.then(FaultPlanConfig::default),
        };
        for lane in [Lane::Ebpf, Lane::Sandbox] {
            let jit_lane = lane.jit().expect("bytecode lane");
            let base = run_batched(lane, &cfg, &batch).expect("dispatch");
            let jit = run_batched(jit_lane, &cfg, &batch).expect("dispatch");
            assert!(!base.canonical_trace.is_empty(), "{lane:?}: empty trace");
            if armed {
                // The helper dispatcher's transient-failure branch ran, so
                // the asserts below compare it interp vs JIT.
                assert!(
                    base.merged_fingerprint
                        .contains("inject: transient failure of helper"),
                    "{shards} shards: {lane:?} injected no helper failure"
                );
            }
            assert_eq!(
                base.trace_sha256(),
                jit.trace_sha256(),
                "{shards} shards, armed={armed}: {jit_lane:?} moved a canonical trace line"
            );
            assert_eq!(
                base.merged_fingerprint, jit.merged_fingerprint,
                "{shards} shards, armed={armed}: {jit_lane:?} changed the merged audit"
            );
            assert_eq!(base.sim_elapsed_ns, jit.sim_elapsed_ns);
            assert_eq!(base.metrics, jit.metrics);
        }
    }
}

#[test]
fn fault_armed_trace_is_stable_and_distinct_from_fault_free() {
    let batch = make_packets(96);
    for lane in BOTH {
        let clean = DispatchConfig {
            shards: 2,
            seed: 21,
            trace: true,
            ..Default::default()
        };
        let faulty = DispatchConfig {
            fault: Some(FaultPlanConfig::default()),
            ..clean.clone()
        };
        let clean_hash = trace_hash(lane, &clean, &batch);
        let faulty_a = trace_hash(lane, &faulty, &batch);
        let faulty_b = trace_hash(lane, &faulty, &batch);
        assert_eq!(
            faulty_a, faulty_b,
            "{lane:?}: fault-armed trace diverged between same-seed runs"
        );
        assert_ne!(
            clean_hash, faulty_a,
            "{lane:?}: fault plan left no mark on the trace (injected \
             delays must shift task-relative timestamps)"
        );
    }
}

#[test]
fn tracing_never_perturbs_simulated_cost_or_audits() {
    let batch = make_packets(128);
    for lane in Lane::ALL {
        for fault in [None, Some(FaultPlanConfig::default())] {
            let untraced_cfg = DispatchConfig {
                shards: 2,
                seed: 5,
                fault,
                ..Default::default()
            };
            let traced_cfg = DispatchConfig {
                trace: true,
                ..untraced_cfg.clone()
            };
            let untraced = run_batched(lane, &untraced_cfg, &batch).expect("dispatch");
            let traced = run_batched(lane, &traced_cfg, &batch).expect("dispatch");
            assert_eq!(
                untraced.sim_elapsed_ns, traced.sim_elapsed_ns,
                "{lane:?}: tracing changed simulated cost"
            );
            assert_eq!(
                untraced.merged_fingerprint, traced.merged_fingerprint,
                "{lane:?}: tracing changed the merged audit"
            );
            assert!(untraced.canonical_trace.is_empty());
        }
    }
}

#[test]
fn untraced_runs_record_no_events() {
    let batch = make_packets(64);
    for lane in BOTH {
        let cfg = DispatchConfig {
            shards: 2,
            seed: 3,
            ..Default::default()
        };
        let report = run_batched(lane, &cfg, &batch).expect("dispatch");
        for shard in &report.shards {
            assert!(
                shard.trace.is_empty(),
                "{lane:?}: shard {} recorded {} events with tracing off",
                shard.shard,
                shard.trace.len()
            );
        }
    }
}
