//! Integration suite for the sharded multi-core dispatch engine.
//!
//! Asserts the three properties the engine promises:
//! 1. determinism — same `(lane, seed, shard_count, batch)` replays a
//!    byte-identical merged audit stream, with real threads racing;
//! 2. shard-count transparency — totals and per-protocol counts do not
//!    depend on how many shards the batch is split over;
//! 3. safety under fire — with every shard's fault plane armed, the safe
//!    runtime's shards end pristine while faults are actually injected.

use bench::dispatch::{make_packets, run_batched, shard_of, DispatchConfig, PROTO_CLASSES};
use bench::Lane;
use kernel_sim::FaultPlanConfig;

#[test]
fn same_seed_replays_byte_identical_at_four_shards() {
    let batch = make_packets(200);
    for lane in Lane::ALL {
        let cfg = DispatchConfig {
            shards: 4,
            seed: 0xfeed,
            ..Default::default()
        };
        let a = run_batched(lane, &cfg, &batch).expect("dispatch");
        let b = run_batched(lane, &cfg, &batch).expect("dispatch");
        assert_eq!(
            a.merged_fingerprint, b.merged_fingerprint,
            "{lane:?}: merged audit diverged between same-seed runs"
        );
        assert_eq!(a.metrics, b.metrics, "{lane:?}: metrics diverged");
    }
}

#[test]
fn replay_is_byte_identical_under_fault_injection() {
    let batch = make_packets(160);
    for lane in Lane::ALL {
        let cfg = DispatchConfig {
            shards: 4,
            seed: 77,
            fault: Some(FaultPlanConfig::default()),
            ..Default::default()
        };
        let a = run_batched(lane, &cfg, &batch).expect("dispatch");
        let b = run_batched(lane, &cfg, &batch).expect("dispatch");
        assert_eq!(
            a.merged_fingerprint, b.merged_fingerprint,
            "{lane:?}: fault-armed replay diverged"
        );
        assert_eq!(a.injected(), b.injected());
        assert_eq!(a.metrics.fault_injections, b.metrics.fault_injections);
    }
}

#[test]
fn totals_do_not_depend_on_shard_count() {
    let batch = make_packets(240);
    for lane in Lane::ALL {
        let mut seen: Option<(u64, u64, [u64; PROTO_CLASSES])> = None;
        for shards in [1usize, 2, 4, 8] {
            let cfg = DispatchConfig {
                shards,
                seed: 12,
                ..Default::default()
            };
            let r = run_batched(lane, &cfg, &batch).expect("dispatch");
            let totals = (r.items(), r.stats.accepted, r.stats.proto_counts);
            if let Some(prev) = &seen {
                assert_eq!(
                    *prev, totals,
                    "{lane:?}: totals changed between shard counts"
                );
            }
            seen = Some(totals);
        }
    }
}

#[test]
fn every_packet_is_dispatched_and_counted() {
    let batch = make_packets(128);
    for lane in Lane::ALL {
        for shards in [1usize, 4] {
            let cfg = DispatchConfig {
                shards,
                seed: 5,
                ..Default::default()
            };
            let r = run_batched(lane, &cfg, &batch).expect("dispatch");
            assert_eq!(r.items(), 128);
            assert_eq!(r.stats.errors, 0);
            assert_eq!(r.metrics.packets, 128, "{lane:?}: metrics lost packets");
            assert_eq!(r.metrics.runs, 128);
            assert_eq!(r.metrics.run_cost.count, 128);
            // make_packets round-robins the four protocol classes.
            assert_eq!(r.stats.proto_counts, [32; PROTO_CLASSES], "{lane:?}");
            // Shard packet counts must match the pure assignment function.
            for shard in &r.shards {
                let expected = (0..128u64)
                    .filter(|&i| shard_of(cfg.seed, i, cfg.shards) == shard.shard)
                    .count() as u64;
                assert_eq!(shard.items, expected, "{lane:?} shard {}", shard.shard);
                assert!(shard.pristine, "{lane:?} shard {}", shard.shard);
            }
        }
    }
}

#[test]
fn safe_runtime_shards_survive_fault_plans_pristine() {
    let batch = make_packets(160);
    let cfg = DispatchConfig {
        shards: 4,
        seed: 2026,
        fault: Some(FaultPlanConfig::default()),
        ..Default::default()
    };
    let r = run_batched(Lane::SafeExt, &cfg, &batch).expect("dispatch");
    assert_eq!(r.items(), 160);
    assert!(
        r.injected() > 0,
        "fault plane never fired; the test is vacuous"
    );
    assert_eq!(
        r.metrics.fault_injections,
        r.injected(),
        "metrics and fault-plane injection counts disagree"
    );
    for shard in &r.shards {
        assert!(
            shard.pristine,
            "shard {} not pristine under injected faults",
            shard.shard
        );
    }
}

#[test]
fn sandbox_shards_survive_fault_plans_without_an_oops() {
    // The unverified lane under fire: injected faults may abort runs,
    // but an abort is a domain-confined trap — the shard kernels must
    // end with zero oopses, same as the verified lane.
    let batch = make_packets(160);
    let cfg = DispatchConfig {
        shards: 4,
        seed: 2026,
        fault: Some(FaultPlanConfig::default()),
        ..Default::default()
    };
    let r = run_batched(Lane::Sandbox, &cfg, &batch).expect("dispatch");
    assert_eq!(r.items(), 160);
    assert!(
        r.injected() > 0,
        "fault plane never fired; the test is vacuous"
    );
    for shard in &r.shards {
        assert!(
            shard.pristine,
            "sandbox shard {} not pristine under injected faults",
            shard.shard
        );
    }
}

#[test]
fn simulated_time_shrinks_as_shards_are_added() {
    let batch = make_packets(256);
    let sim_ns = |lane, shards| {
        let cfg = DispatchConfig {
            shards,
            seed: 4,
            ..Default::default()
        };
        run_batched(lane, &cfg, &batch)
            .expect("dispatch")
            .sim_elapsed_ns
    };
    for lane in Lane::ALL {
        let one = sim_ns(lane, 1);
        // N simulated CPUs split the work, so the busiest shard's clock
        // advances far less than the lone shard's.
        for (shards, factor) in [(4, 2), (8, 4)] {
            let many = sim_ns(lane, shards);
            assert!(
                many * factor < one,
                "{lane:?}: {shards} simulated CPUs gave sim time {many} vs 1-CPU {one}"
            );
        }
    }
}

#[test]
fn zero_packet_batch_is_a_clean_empty_run() {
    // The degenerate input: no packets at all. Every shard must still
    // spin up, merge, and report zeroed totals without dividing by the
    // empty simulated timeline.
    for lane in Lane::ALL {
        for shards in [1usize, 4] {
            let cfg = DispatchConfig {
                shards,
                seed: 9,
                ..Default::default()
            };
            let r = run_batched(lane, &cfg, &[]).expect("dispatch");
            assert_eq!(r.items(), 0, "{lane:?}/{shards}");
            assert_eq!(r.stats.accepted, 0, "{lane:?}/{shards}");
            assert_eq!(r.stats.errors, 0, "{lane:?}/{shards}");
            assert_eq!(r.stats.proto_counts, [0; PROTO_CLASSES]);
            assert_eq!(r.shards.len(), shards);
            // Rate accessors must tolerate a zero-length timeline.
            assert_eq!(r.per_sim_sec(r.items()), 0.0);
            // An empty run replays byte-identically too.
            let again = run_batched(lane, &cfg, &[]).expect("dispatch");
            assert_eq!(r.merged_fingerprint, again.merged_fingerprint);
        }
    }
}

#[test]
fn single_shard_matches_multi_shard_on_tiny_batches() {
    // Fewer packets than shards: some shards see no traffic at all, and
    // a 1-shard run over the same batch must agree on every total.
    let batch = make_packets(3);
    for lane in Lane::ALL {
        let one = run_batched(
            lane,
            &DispatchConfig {
                shards: 1,
                seed: 31,
                ..Default::default()
            },
            &batch,
        )
        .expect("dispatch");
        let eight = run_batched(
            lane,
            &DispatchConfig {
                shards: 8,
                seed: 31,
                ..Default::default()
            },
            &batch,
        )
        .expect("dispatch");
        assert_eq!(one.items(), 3);
        assert_eq!(eight.items(), 3);
        assert_eq!(one.stats.accepted, eight.stats.accepted, "{lane:?}");
        assert_eq!(one.stats.proto_counts, eight.stats.proto_counts, "{lane:?}");
        assert_eq!(eight.shards.len(), 8);
        let busy: usize = eight.shards.iter().filter(|s| s.items > 0).count();
        assert!(busy <= 3, "at most one busy shard per packet");
    }
}

#[test]
fn single_shard_run_is_deterministic_and_complete() {
    // shards == 1 exercises the non-concurrent path of the same engine:
    // one worker, no merge races, identical replay.
    let batch = make_packets(64);
    for lane in Lane::ALL {
        let cfg = DispatchConfig {
            shards: 1,
            seed: 64,
            ..Default::default()
        };
        let a = run_batched(lane, &cfg, &batch).expect("dispatch");
        let b = run_batched(lane, &cfg, &batch).expect("dispatch");
        assert_eq!(a.items(), 64);
        assert_eq!(a.merged_fingerprint, b.merged_fingerprint, "{lane:?}");
        assert_eq!(a.shards.len(), 1);
        assert_eq!(a.shards[0].items, 64);
    }
}
