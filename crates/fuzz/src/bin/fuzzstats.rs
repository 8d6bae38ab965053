//! Differential-fuzzing report: writes `BENCH_fuzz.json`.
//!
//! Sweeps the default 1000 generated programs through the verdict oracle
//! on one worker thread per available core, prints the paper-style
//! soundness/completeness table, and writes `BENCH_fuzz.json` (one row
//! per shrunk disagreement) and, beside it, the reproducer store
//! `BENCH_fuzz_corpus.txt` (every shrunk disagreement, then the
//! feature-ladder picks) that `tests/fuzz_corpus_replay.rs` and
//! `tests/bugdb_replay.rs` re-judge in tier-1. Fails (exit 1) if any
//! accepted program's interpreter and JIT pipelines disagreed on results
//! or audit fingerprints.

use analysis::json::Obj;
use analysis::report;
use fuzz::corpus::render_store;
use fuzz::engine::{render_table, sweep, FuzzConfig};
use fuzz::oracle::Bucket;

fn main() {
    report::main("fuzzstats", "BENCH_fuzz.json", full);
}

fn full(out: &str) {
    let fuzz = sweep(&FuzzConfig::default());
    print!("{}", render_table(&fuzz.lanes));
    let rows: Vec<Obj> = fuzz.rows().into_iter().map(report::progress).collect();
    report::write_report(out, &fuzz.header(), "shrunk", &rows);
    report::write(
        &report::sibling(out, "_corpus.txt"),
        &render_store(fuzz.corpus()),
    );

    // Acceptance gate: every accepted program must have identical
    // interpreter and JIT pipelines, down to the audit fingerprint.
    let divergences: u64 = fuzz
        .lanes
        .iter()
        .map(|l| l.bucket(Bucket::JitDivergence))
        .sum();
    if divergences > 0 {
        report::fail(&format!(
            "{divergences} accepted programs diverged between interp and JIT"
        ));
    }
}
