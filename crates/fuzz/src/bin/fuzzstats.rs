//! Differential-fuzzing statistics driver.
//!
//! Sweeps `--seeds` generated programs through the verdict oracle on
//! `--shards` worker threads, prints the paper-style
//! soundness/completeness table, writes `BENCH_fuzz.json`, and fails
//! (exit 2) if any accepted program's interpreter and JIT pipelines
//! disagreed on results or audit fingerprints.
//!
//! `--write-corpus DIR` persists every shrunk disagreement as a
//! replayable reproducer.
//! `--bugdb DIR` harvests the feature-ladder shapes (bpf2bpf, tail
//! calls, spin locks, ringbuf reservations) into the on-disk bug
//! database that `tests/bugdb_replay.rs` re-judges in tier-1.

use std::process::ExitCode;

use analysis::fuzztable::{render_table, FuzzLaneSummary};
use fuzz::corpus::Reproducer;
use fuzz::engine::{sweep, FuzzConfig, FuzzReport};
use fuzz::oracle::Bucket;
use signing::sha256;

fn hex(s: &str) -> String {
    sha256::to_hex(&sha256::digest(s.as_bytes()))
}

struct Args {
    cfg: FuzzConfig,
    out: String,
    write_corpus: Option<String>,
    bugdb: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: FuzzConfig::default(),
        out: "BENCH_fuzz.json".to_string(),
        write_corpus: None,
        bugdb: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--seeds" => {
                args.cfg.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--seed-start" => {
                args.cfg.seed_start = value("--seed-start")?
                    .parse()
                    .map_err(|e| format!("--seed-start: {e}"))?
            }
            "--shards" => {
                args.cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--shrink-limit" => {
                args.cfg.shrink_limit = value("--shrink-limit")?
                    .parse()
                    .map_err(|e| format!("--shrink-limit: {e}"))?
            }
            "--out" => args.out = value("--out")?,
            "--write-corpus" => args.write_corpus = Some(value("--write-corpus")?),
            "--bugdb" => args.bugdb = Some(value("--bugdb")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn summaries(report: &FuzzReport) -> Vec<FuzzLaneSummary> {
    report
        .lanes
        .iter()
        .map(|lane| FuzzLaneSummary {
            lane: lane.lane.name().to_string(),
            total: lane.total,
            accepted: lane.accepted,
            accept_safe: lane.bucket(Bucket::AcceptSafe),
            unsoundness: lane.bucket(Bucket::UnsoundnessCandidate),
            incompleteness: lane.bucket(Bucket::IncompletenessWitness),
            jit_divergence: lane.bucket(Bucket::JitDivergence),
            undecided: lane.bucket(Bucket::AcceptUndecided) + lane.bucket(Bucket::RejectUndecided),
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("fuzzstats: {msg}");
            eprintln!(
                "usage: fuzzstats [--seeds N] [--seed-start N] [--shards N] \
                 [--shrink-limit N] [--out PATH] [--write-corpus DIR] [--bugdb DIR]"
            );
            return ExitCode::from(1);
        }
    };

    let report = sweep(&args.cfg);
    let json = report.to_json();

    print!("{}", render_table(&summaries(&report)));
    println!();
    let mut shrink_sizes: Vec<usize> = report.shrunk.iter().map(|c| c.insns_after).collect();
    shrink_sizes.sort_unstable();
    println!(
        "shrunk reproducers: {} (insn sizes: {:?})",
        report.shrunk.len(),
        shrink_sizes
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("fuzzstats: writing {}: {e}", args.out);
        return ExitCode::from(1);
    }
    println!("wrote {}", args.out);
    println!("FUZZ_SHA256 seeds={} {}", report.seeds, hex(&json));

    if let Some(dir) = &args.write_corpus {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzzstats: creating {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        for case in &report.shrunk {
            let repro = Reproducer {
                seed: case.prog.seed,
                shape: case.prog.shape,
                lane: case.lane,
                bucket: case.bucket,
                insns: case.prog.emit().expect("shrunk programs assemble"),
            };
            let path = dir.join(repro.file_name());
            let text = repro.render(case.trap.as_deref());
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("fuzzstats: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("corpus: {}", path.display());
        }
    }

    if let Some(dir) = &args.bugdb {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fuzzstats: creating {}: {e}", dir.display());
            return ExitCode::from(1);
        }
        for bug in fuzz::bugdb::harvest(&args.cfg, 2) {
            let path = dir.join(bug.file_name());
            if let Err(e) = std::fs::write(&path, bug.render()) {
                eprintln!("fuzzstats: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("bugdb: {}", path.display());
        }
    }

    // Acceptance gate: every accepted program must have identical
    // interpreter and JIT pipelines, down to the audit fingerprint.
    let divergences: u64 = report
        .lanes
        .iter()
        .map(|l| l.bucket(Bucket::JitDivergence))
        .sum();
    if divergences > 0 {
        eprintln!("fuzzstats: {divergences} accepted programs diverged between interp and JIT");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
