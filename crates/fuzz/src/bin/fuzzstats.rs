//! Differential-fuzzing statistics driver.
//!
//! Sweeps `--seeds` generated programs through the verdict oracle on
//! `--shards` worker threads, prints the paper-style
//! soundness/completeness table, writes `BENCH_fuzz.json` and, beside
//! it, the reproducer store `BENCH_fuzz_corpus.txt` (every shrunk
//! disagreement, then the feature-ladder picks) that
//! `tests/fuzz_corpus_replay.rs` and `tests/bugdb_replay.rs` re-judge in
//! tier-1. Fails (exit 1) if any accepted program's interpreter and JIT
//! pipelines disagreed on results or audit fingerprints; a bad argument
//! prints usage and exits 2, as every report binary does.

use std::process::ExitCode;

use fuzz::corpus::render_store;
use fuzz::engine::{render_table, sweep, FuzzConfig};
use fuzz::oracle::Bucket;
use signing::sha256;

fn hex(s: &str) -> String {
    sha256::to_hex(&sha256::digest(s.as_bytes()))
}

struct Args {
    cfg: FuzzConfig,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        out: "BENCH_fuzz.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{arg}: {e}"));
        match arg.as_str() {
            "--seeds" => args.cfg.seeds = num(value()?)?,
            "--seed-start" => args.cfg.seed_start = num(value()?)?,
            "--shards" => args.cfg.shards = num(value()?)? as usize,
            "--shrink-limit" => args.cfg.shrink_limit = num(value()?)? as usize,
            "--out" => args.out = value()?,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fuzzstats: {msg}");
            eprintln!(
                "usage: fuzzstats [--seeds N] [--seed-start N] [--shards N] \
                 [--shrink-limit N] [--out PATH]"
            );
            return ExitCode::from(2);
        }
    };

    let report = sweep(&args.cfg);
    let json = report.to_json();

    print!("{}", render_table(&report.lanes));
    println!();
    let mut shrink_sizes: Vec<usize> = report.shrunk.iter().map(|c| c.repro.insns.len()).collect();
    shrink_sizes.sort_unstable();
    println!(
        "shrunk reproducers: {} (insn sizes: {:?})",
        report.shrunk.len(),
        shrink_sizes
    );
    // The reproducer store goes beside the report.
    let stem = args.out.strip_suffix(".json").unwrap_or(&args.out);
    let (store_path, store) = (format!("{stem}_corpus.txt"), render_store(report.corpus()));
    for (path, text) in [(&args.out, &json), (&store_path, &store)] {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("fuzzstats: writing {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }
    println!("FUZZ_SHA256 seeds={} {}", report.seeds, hex(&json));

    // Acceptance gate: every accepted program must have identical
    // interpreter and JIT pipelines, down to the audit fingerprint.
    let divergences: u64 = report
        .lanes
        .iter()
        .map(|l| l.bucket(Bucket::JitDivergence))
        .sum();
    if divergences > 0 {
        eprintln!("fuzzstats: {divergences} accepted programs diverged between interp and JIT");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
