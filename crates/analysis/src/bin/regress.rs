//! CI perf-regression gate driver.
//!
//! Compares freshly generated bench reports (`--fresh DIR`) against the
//! committed baselines (`--baseline DIR`, default `.`) for every report
//! named with `--report` (repeatable; defaults to every known
//! `BENCH_*.json` family present in the baseline dir). Simulated-cost
//! metrics are gated at `--tolerance` (default 0.10, overridable via
//! `REGRESS_TOLERANCE`) in either direction, and every `*_sha256` field
//! must match exactly; rows missing from either side fail too (see
//! `analysis::regress`). Host-capacity rows are printed as gains and
//! losses and never fail the gate.

use std::path::Path;
use std::process::ExitCode;

use analysis::json::{self, Json};
use analysis::regress::{
    compare, drift, extract_hashes, extract_host_metrics, extract_metrics, hash_mismatches,
    MetricDiff, DEFAULT_TOLERANCE,
};

const DEFAULT_REPORTS: &[&str] = &[
    "BENCH_throughput.json",
    "BENCH_net.json",
    "BENCH_fuzz.json",
    "BENCH_profile.json",
    "BENCH_verifier.json",
    "BENCH_churn.json",
    "BENCH_hooks.json",
];

struct Args {
    baseline: String,
    fresh: String,
    tolerance: f64,
    reports: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let env_tol = std::env::var("REGRESS_TOLERANCE")
        .ok()
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("REGRESS_TOLERANCE: {e}"))
        })
        .transpose()?;
    let mut args = Args {
        baseline: ".".to_string(),
        fresh: String::new(),
        tolerance: env_tol.unwrap_or(DEFAULT_TOLERANCE),
        reports: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--fresh" => args.fresh = value("--fresh")?,
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--report" => args.reports.push(value("--report")?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.fresh.is_empty() {
        return Err("--fresh <dir> is required".to_string());
    }
    if !(0.0..1.0).contains(&args.tolerance) {
        return Err(format!("tolerance {} out of range [0, 1)", args.tolerance));
    }
    if args.reports.is_empty() {
        // Default to every known report family the baseline dir carries.
        args.reports = DEFAULT_REPORTS
            .iter()
            .filter(|name| Path::new(&args.baseline).join(name).exists())
            .map(|s| s.to_string())
            .collect();
        if args.reports.is_empty() {
            return Err(format!(
                "no BENCH_*.json baselines found in {}",
                args.baseline
            ));
        }
    }
    Ok(args)
}

fn load(dir: &str, name: &str) -> Result<Json, String> {
    let path = Path::new(dir).join(name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_diffs(kind: &str, diffs: &[MetricDiff]) {
    for d in diffs {
        println!(
            "  {kind} {}: baseline {} -> fresh {} ({:+.1}%)",
            d.key,
            d.baseline,
            d.fresh,
            d.rel * 100.0
        );
    }
}

fn print_missing(missing_in_fresh: &[String], missing_in_baseline: &[String]) {
    for key in missing_in_fresh {
        println!("  MISSING-IN-FRESH {key}");
    }
    for key in missing_in_baseline {
        println!("  MISSING-IN-BASELINE {key} (regenerate the committed baseline)");
    }
}

/// Gates one report pair; returns whether it passed.
fn gate(report: &str, base: &Json, fresh: &Json, tolerance: f64) -> bool {
    let sim = compare(&extract_metrics(base), &extract_metrics(fresh), tolerance);
    println!(
        "{} {report} [sim]: {} within tolerance, {} regressions, {} improvements, {} missing",
        if sim.ok() { "OK" } else { "FAIL" },
        sim.within,
        sim.regressions.len(),
        sim.improvements.len(),
        sim.missing_in_fresh.len() + sim.missing_in_baseline.len()
    );
    print_diffs("REGRESSION", &sim.regressions);
    print_diffs("IMPROVEMENT", &sim.improvements);
    print_missing(&sim.missing_in_fresh, &sim.missing_in_baseline);

    let (base_hashes, fresh_hashes) = (extract_hashes(base), extract_hashes(fresh));
    let mismatched = hash_mismatches(&base_hashes, &fresh_hashes);
    println!(
        "{} {report} [sha]: {} hashes, {} mismatched or missing",
        if mismatched.is_empty() { "OK" } else { "FAIL" },
        base_hashes.len(),
        mismatched.len()
    );
    for key in &mismatched {
        let side = |hashes: &std::collections::BTreeMap<String, String>| {
            hashes
                .get(key)
                .cloned()
                .unwrap_or_else(|| "missing".to_string())
        };
        println!(
            "  MISMATCH {key}: baseline {} -> fresh {}",
            side(&base_hashes),
            side(&fresh_hashes)
        );
    }

    let host = drift(&extract_host_metrics(base), &extract_host_metrics(fresh));
    if !host.is_empty() {
        println!(
            "INFO {report} [host]: {} rows, reported only (higher is better)",
            host.len()
        );
        for d in &host {
            print_diffs(d.host_label(), std::slice::from_ref(d));
        }
    }
    sim.ok() && mismatched.is_empty()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("regress: {e}");
            eprintln!(
                "usage: regress --fresh <dir> [--baseline <dir>] [--tolerance <f>] [--report <file>]..."
            );
            return ExitCode::from(2);
        }
    };

    println!(
        "REGRESS baseline={} fresh={} tolerance={:.0}%",
        args.baseline,
        args.fresh,
        args.tolerance * 100.0
    );
    let mut failed = false;
    for report in &args.reports {
        match (load(&args.baseline, report), load(&args.fresh, report)) {
            (Ok(base), Ok(fresh)) => failed |= !gate(report, &base, &fresh, args.tolerance),
            (b, f) => {
                for err in [b.err(), f.err()].into_iter().flatten() {
                    eprintln!("regress: {err}");
                }
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("regress: metric drift beyond tolerance or canonical hash mismatch (see above)");
        ExitCode::FAILURE
    } else {
        println!("REGRESS PASS");
        ExitCode::SUCCESS
    }
}
