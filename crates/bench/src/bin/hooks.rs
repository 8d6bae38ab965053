//! Hook-point diversity benchmark: kprobe, LSM, and sched-ext.
//!
//! Drives each hook family ([`bench::hooks`]) through the multi-tenant
//! control plane over 1/2/4/8 tenant-steered shards for all three
//! backends, with hot upgrades interleaved — with and without the seeded
//! quarantine storm — and additionally through the JIT lanes of the
//! verified-eBPF and sandbox backends. Results land in
//! `BENCH_hooks.json` (one row per family × backend × lane × shard
//! count × fault mode).
//!
//! Determinism checks gate every configuration, each run once:
//!
//! - the **hooks SHA** (canonical per-item log, cost-free by
//!   construction) must be byte-identical across all shard counts of one
//!   `(family, backend, storm)` cell; and
//! - fault-free cells must agree across *backends and JIT lanes* — the
//!   cross-dialect differential check.
//!
//! Replay across processes is the report gate's check.

use analysis::json::Obj;
use analysis::report;
use bench::engine::{self, RunReport};
use bench::fleet::{Fleet, FleetStats};
use bench::hooks::{HookFamily, HooksConfig};
use bench::Lane;

const SEED: u64 = 42;
const FULL_TENANTS: u32 = 64;
const FULL_ITEMS: u64 = 1_500;
const FULL_UPGRADE_EVERY: u64 = 10;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(family: HookFamily, shards: usize, storm: bool) -> HooksConfig {
    HooksConfig {
        family,
        fleet: Fleet {
            shards,
            seed: SEED,
            tenants: FULL_TENANTS,
            items: FULL_ITEMS,
            control_every: FULL_UPGRADE_EVERY,
            storm_armed: storm,
            storm_victims: 8,
        },
    }
}

/// One report row, after checking the storm and hook-family invariants.
fn row(
    family: HookFamily,
    lane: Lane,
    shards: usize,
    storm: bool,
    r: &RunReport<FleetStats>,
) -> Obj {
    let (s, m) = (&r.stats, &r.metrics);
    // Storm rows must show the breaker and fallback machinery working.
    s.assert_storm(storm);
    match family {
        HookFamily::Kprobe => assert!(m.probe_fires > 0, "kprobe row without fires"),
        HookFamily::Lsm => assert!(m.policy_denies > 0, "lsm row without denies"),
        HookFamily::Sched => assert!(m.sched_picks > 0, "sched row without picks"),
    }
    // Hook cells burn ~1ms of host CPU each, so their throughput is
    // run-to-run noise; like every `host_*` member, the report writer
    // moves it to the ungated host file.
    report::progress(
        Obj::new()
            .str("scenario", family.name())
            .str("backend", lane.backend())
            .str("lane", if lane.is_jit() { "jit" } else { "interp" })
            .num("shards", shards)
            .str("faults", if storm { "storm" } else { "none" })
            .num("tenants", FULL_TENANTS)
            .num("items", FULL_ITEMS)
            .num("runs", s.runs())
            .num("upgrades", s.upgrades)
            .num("ok", s.ok)
            .num("killed", s.killed)
            .num("refused", s.refused)
            .num("errors", s.errors)
            .num("probe_fires", m.probe_fires)
            .num("policy_denies", m.policy_denies)
            .num("sched_picks", m.sched_picks)
            .num("sched_fallbacks", m.sched_fallbacks)
            .num("hist_samples", s.hist_samples)
            .num("quarantine_trips", m.quarantine_trips)
            .num("injected", r.injected())
            .num("p50_cost_ns", r.cost.percentile(50))
            .num("p99_cost_ns", r.cost.percentile(99))
            .num("mean_cost_ns", r.cost.mean())
            .num("sim_elapsed_ns", r.sim_elapsed_ns)
            .num("host_cpu_ns", r.host_cpu_ns)
            .fixed("host_runs_per_cpu_sec", r.per_host_cpu_sec(s.runs()), 0)
            .str("hooks_sha256", &r.canonical_sha256())
            .str("merged_audit_sha256", &r.audit_sha256()),
    )
}

fn full(out: &str) {
    let mut rows = Vec::new();
    for family in HookFamily::ALL {
        // Fault-free logs must agree across every lane: the interpreted
        // lanes over the full shard grid, the JIT lanes at 2 shards.
        let mut quiet_log: Option<String> = None;
        let mut cells = Vec::new();
        for lane in Lane::INTERP {
            cells.push((lane, false, &SHARD_COUNTS[..]));
            cells.push((lane, true, &SHARD_COUNTS[..]));
        }
        for lane in [Lane::EbpfJit, Lane::SandboxJit] {
            cells.push((lane, false, &[2][..]));
        }
        for (lane, storm, shard_counts) in cells {
            let what = format!(
                "scenario={} lane={} storm={storm}",
                family.name(),
                lane.name()
            );
            let runs = engine::sweep(&what, shard_counts, |shards| {
                engine::run(&config(family, shards, storm), lane)
            });
            let log = &runs[0].canonical_log;
            if !storm && quiet_log.get_or_insert_with(|| log.clone()) != log {
                report::fail(&format!(
                    "fault-free hooks log diverged across lanes (scenario={} lane={})",
                    family.name(),
                    lane.name()
                ));
            }
            for (&shards, r) in shard_counts.iter().zip(&runs) {
                rows.push(row(family, lane, shards, storm, r));
            }
        }
    }
    let header = Obj::new()
        .num("seed", SEED)
        .num("items", FULL_ITEMS)
        .num("upgrade_every", FULL_UPGRADE_EVERY);
    report::write_report(out, &header, "rows", &rows);
}

fn main() {
    report::main("hooks", "BENCH_hooks.json", full);
}
