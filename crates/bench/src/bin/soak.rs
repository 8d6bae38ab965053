//! Differential fault-injection soak report: writes `BENCH_soak.json`.
//!
//! Runs [`bench::soak`]'s two scenarios once under every seed and writes
//! one row per backend: the summed run outcomes, retries, injections and
//! dirty kernels, and the SHA-256 of the seeds' audit streams in seed
//! order. Every value depends only on the seeds, so the CI regress stage
//! holds the report byte for byte. Any safe-side invariant violation
//! fails the binary before it writes.

use analysis::json::Obj;
use analysis::report;
use bench::soak::{self, SeedRun, Tally};
use signing::sha256::{self, Sha256};

fn main() {
    report::main("soak", "BENCH_soak.json", full);
}

fn full(out: &str) {
    let backends = [
        ("safe-ext", soak::safe as fn(u64) -> SeedRun),
        ("ebpf", soak::baseline),
    ];
    let mut rows = Vec::new();
    for (backend, scenario) in backends {
        let runs: Vec<SeedRun> = soak::SEEDS.map(scenario).collect();
        if let Some(v) = runs.iter().find_map(|r| r.violations.first()) {
            report::fail(&format!("safe-side invariant violation: {v}"));
        }
        let mut audit = Sha256::new();
        for run in &runs {
            audit.update(run.audit.as_bytes());
        }
        let sum = |field: fn(&Tally) -> u64| runs.iter().map(|r| field(&r.tally)).sum::<u64>();
        rows.push(report::progress(
            Obj::new()
                .str("backend", backend)
                .num("clean", sum(|t| t.clean))
                .num("errors", sum(|t| t.errors))
                .num("kills", sum(|t| t.kills))
                .num("alloc_failed", sum(|t| t.alloc_failed))
                .num("alloc_retries", sum(|t| t.alloc_retries))
                .num("injected", sum(|t| t.injected))
                .num("dirty_kernels", sum(|t| t.dirty_kernels))
                .str("audit_sha256", &sha256::to_hex(&audit.finalize())),
        ));
    }
    let header = Obj::new()
        .num("first_seed", *soak::SEEDS.start())
        .num("seeds", soak::SEEDS.count())
        .num("packets_per_seed", soak::PACKETS_PER_SEED);
    report::write_report(out, &header, "rows", &rows);
}
