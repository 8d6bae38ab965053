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
//! Determinism checks gate every configuration:
//!
//! - the **hooks SHA** (canonical per-item log, cost-free by
//!   construction) must be byte-identical across all shard counts of one
//!   `(family, backend, storm)` cell;
//! - fault-free cells must agree across *backends and JIT lanes* — the
//!   cross-dialect differential check; and
//! - every artifact must replay byte-identically when the same
//!   configuration runs twice.
//!
//! `--smoke` runs reduced batches (2 shards, storm armed, all families
//! and backends, plus a 1-shard reference and a fault-free JIT lane
//! compare), prints the `HOOKS_SHA256` lines CI compares, and exits
//! nonzero on any divergence.

use analysis::json::Obj;
use bench::cli;
use bench::engine::{self, RunReport};
use bench::fleet::{Fleet, FleetStats};
use bench::hooks::{HookFamily, HooksConfig};
use bench::Lane;

const SEED: u64 = 42;
const FULL_TENANTS: u32 = 64;
const FULL_ITEMS: u64 = 1_500;
const FULL_UPGRADE_EVERY: u64 = 10;
const SMOKE_TENANTS: u32 = 12;
const SMOKE_ITEMS: u64 = 240;
const SMOKE_UPGRADE_EVERY: u64 = 12;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(family: HookFamily, shards: usize, storm: bool, smoke: bool) -> HooksConfig {
    let (tenants, items, control_every, storm_victims) = if smoke {
        (SMOKE_TENANTS, SMOKE_ITEMS, SMOKE_UPGRADE_EVERY, 3)
    } else {
        (FULL_TENANTS, FULL_ITEMS, FULL_UPGRADE_EVERY, 8)
    };
    HooksConfig {
        family,
        fleet: Fleet {
            shards,
            seed: SEED,
            tenants,
            items,
            control_every,
            storm_armed: storm,
            storm_victims,
        },
    }
}

/// Sweeps one `(family, lane, storm)` cell over `shard_counts`.
fn sweep(
    family: HookFamily,
    lane: Lane,
    storm: bool,
    smoke: bool,
    shard_counts: &[usize],
) -> Vec<[RunReport<FleetStats>; 2]> {
    let what = format!(
        "scenario={} lane={} storm={storm}",
        family.name(),
        lane.name()
    );
    cli::sweep(&what, shard_counts, |shards| {
        engine::run(&config(family, shards, storm, smoke), lane)
    })
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
    cli::progress(
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
            let runs = sweep(family, lane, storm, false, shard_counts);
            let log = &runs[0][0].canonical_log;
            if !storm && quiet_log.get_or_insert_with(|| log.clone()) != log {
                cli::fail(&format!(
                    "fault-free hooks log diverged across lanes (scenario={} lane={})",
                    family.name(),
                    lane.name()
                ));
            }
            for (&shards, [r, _]) in shard_counts.iter().zip(&runs) {
                rows.push(row(family, lane, shards, storm, r));
            }
        }
    }
    let header = Obj::new()
        .num("seed", SEED)
        .num("items", FULL_ITEMS)
        .num("upgrade_every", FULL_UPGRADE_EVERY);
    cli::write_report(out, &header, "rows", &rows);
}

fn smoke() {
    for family in HookFamily::ALL {
        let mut quiet_log: Option<String> = None;
        for lane in Lane::INTERP {
            let runs = sweep(family, lane, true, true, &[2, 1]);
            let (two, one) = (&runs[0], &runs[1][0]);
            for (shards, r) in [(2, &two[0]), (2, &two[1]), (1, one)] {
                println!(
                    "HOOKS_SHA256 scenario={} backend={} shards={shards} {}",
                    family.name(),
                    lane.backend(),
                    r.canonical_sha256()
                );
            }
            println!(
                "HOOKS_AUDIT_SHA256 scenario={} backend={} shards=2 {}",
                family.name(),
                lane.backend(),
                two[0].audit_sha256()
            );
            if one.stats.killed == 0 || one.stats.refused == 0 {
                cli::fail(&format!(
                    "scenario={} backend={} storm produced no kills/refusals",
                    family.name(),
                    lane.backend()
                ));
            }
            // Fault-free cross-dialect and JIT-lane differential checks.
            for lane in std::iter::once(lane).chain(lane.jit()) {
                let quiet = cli::ok(
                    engine::run(&config(family, 2, false, true), lane),
                    lane.name(),
                );
                if *quiet_log.get_or_insert_with(|| quiet.canonical_log.clone())
                    != quiet.canonical_log
                {
                    cli::fail(&format!(
                        "fault-free log diverged across lanes (scenario={} lane={})",
                        family.name(),
                        lane.name()
                    ));
                }
            }
        }
    }
    println!(
        "hooks smoke OK ({SMOKE_ITEMS} items x {SMOKE_TENANTS} tenants x {} scenarios x {} backends, storm armed)",
        HookFamily::ALL.len(),
        Lane::INTERP.len()
    );
}

fn main() {
    cli::main("hooks", "BENCH_hooks.json", Some(smoke), full);
}
