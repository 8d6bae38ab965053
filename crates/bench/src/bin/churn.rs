//! Multi-tenant churn-under-traffic benchmark.
//!
//! Loads a fleet of 600 tenants (one map + one attached program each),
//! drives a fixed packet batch through them over 1/2/4/8 tenant-steered
//! shards for all three backends, with the control plane hot-upgrading and
//! unload/reloading tenants at a fixed rate while packets flow — with and
//! without the seeded quarantine storm. Results (tail-latency histogram
//! percentiles, verdict tallies, control-plane counters) land in
//! `BENCH_churn.json`.
//!
//! Two determinism checks gate every configuration:
//!
//! - the **churn SHA** (canonical per-item log, see [`bench::churn`]) must
//!   be byte-identical across *all* shard counts of one
//!   `(backend, storm)` cell; and
//! - every artifact must replay byte-identically when the same
//!   configuration runs twice.

use analysis::json::Obj;
use bench::churn::ChurnConfig;
use bench::cli;
use bench::engine;
use bench::fleet::Fleet;
use bench::Lane;

const SEED: u64 = 42;
const FULL_TENANTS: u32 = 600;
const FULL_PACKETS: u64 = 12_000;
const FULL_CHURN_EVERY: u64 = 8;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(shards: usize, storm: bool) -> ChurnConfig {
    ChurnConfig {
        fleet: Fleet {
            shards,
            seed: SEED,
            tenants: FULL_TENANTS,
            items: FULL_PACKETS,
            control_every: FULL_CHURN_EVERY,
            storm_armed: storm,
            storm_victims: 24,
        },
    }
}

fn full(out: &str) {
    let mut rows = Vec::new();
    for lane in Lane::INTERP {
        for storm in [false, true] {
            let what = format!("backend={} storm={storm}", lane.backend());
            let runs = cli::sweep(&what, &SHARD_COUNTS, |shards| {
                engine::run(&config(shards, storm), lane)
            });
            for (shards, [r, _]) in SHARD_COUNTS.into_iter().zip(&runs) {
                let (s, m) = (&r.stats, &r.metrics);
                assert_eq!(s.runs(), FULL_PACKETS);
                assert_eq!(
                    s.attached,
                    u64::from(FULL_TENANTS),
                    "the fleet must end with every tenant attached"
                );
                // Storm rows must show the breaker working: kills and
                // refusals, but only where the storm aimed (the scenario's
                // tests pin the targeting).
                s.assert_storm(storm);
                rows.push(cli::progress(
                    Obj::new()
                        .str("scenario", "churn")
                        .str("backend", lane.backend())
                        .num("shards", shards)
                        .str("faults", if storm { "storm" } else { "none" })
                        .num("tenants", FULL_TENANTS)
                        .num("tenants_loaded", s.attached)
                        .num("packets", FULL_PACKETS)
                        .num("churn_events", s.events)
                        .num("upgrades", s.upgrades)
                        .num("reloads", s.reloads)
                        .num("ok", s.ok)
                        .num("killed", s.killed)
                        .num("refused", s.refused)
                        .num("errors", s.errors)
                        .num("quarantine_trips", m.quarantine_trips)
                        .num("tenant_loads", m.tenant_loads)
                        .num("tenant_swaps", m.tenant_swaps)
                        .num("tenant_unloads", m.tenant_unloads)
                        .num("injected", r.injected())
                        .num("p50_cost_ns", r.cost.percentile(50))
                        .num("p99_cost_ns", r.cost.percentile(99))
                        .num("mean_cost_ns", r.cost.mean())
                        .num("sim_elapsed_ns", r.sim_elapsed_ns)
                        .num("host_cpu_ns", r.host_cpu_ns)
                        .fixed("host_pps", r.per_host_cpu_sec(FULL_PACKETS), 0)
                        .str("churn_sha256", &r.canonical_sha256())
                        .str("merged_audit_sha256", &r.audit_sha256()),
                ));
            }
        }
    }
    let header = Obj::new()
        .num("seed", SEED)
        .num("packets", FULL_PACKETS)
        .num("churn_every", FULL_CHURN_EVERY);
    cli::write_report(out, &header, "rows", &rows);
}

fn main() {
    cli::main("churn", "BENCH_churn.json", full);
}
