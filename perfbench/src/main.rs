//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints the host record, the metrics table and any failed checks to
//! standard error, and as the last line of standard output one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! any outcome check failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::plan::Workload;
use perfbench::run::{run, Config, Report};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small: false,
    })
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(cfg: &Config, report: &Report) {
    let host = &report.host;
    eprintln!(
        "host: nproc={} cpu={:?} rustc={:?} profile={} ref_per_s={:.0} steal_s={}",
        host.nproc,
        host.cpu_model,
        host.rustc,
        host.profile,
        report.ref_per_s,
        host.steal_s()
            .map_or("unknown".to_string(), |s| format!("{s:.2}")),
    );
    eprintln!(
        "run: workload={} seed={} trace={} epochs={} attempted={} failed={}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.epochs,
        report.attempted,
        report.failed
    );
    eprintln!(
        "digests (ebpf, safe-ext, sandbox): {:#018x?}",
        report.digests
    );
    for (name, c) in ["ebpf", "safe-ext", "sandbox"].iter().zip(&report.counts) {
        eprintln!("counts {name}: {c:?}");
    }
    for m in &report.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    let report = run(&cfg);
    print_report(&cfg, &report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
