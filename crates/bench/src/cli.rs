//! What the report binaries share: one `--out` parser, one
//! run-twice-and-compare sweep, and one report writer, which keeps host
//! measurements out of the canonical report.

use analysis::json::{document, Obj, ID_FIELDS};

use crate::engine::{DispatchError, RunReport};

/// Parses `[--out <path>]` for `bin` and runs `full(out)`. Anything else
/// prints usage and exits 2.
pub fn main(bin: &str, default_out: &str, full: fn(&str)) {
    let usage = |msg: &str| -> ! {
        eprintln!("{bin}: {msg}");
        eprintln!("usage: {bin} [--out <path>]");
        std::process::exit(2);
    };
    let mut out = default_out.to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().unwrap_or_else(|| usage("--out requires a value")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    full(&out);
}

/// Prints `FAIL: <msg>` and exits 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// Unwraps a run, failing the binary on a typed engine error.
pub fn ok<St>(run: Result<RunReport<St>, DispatchError>, what: &str) -> RunReport<St> {
    run.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

/// Runs one grid cell — one configuration at each of `shard_counts` —
/// twice per shard count ([`run_twice`]), and fails unless the canonical
/// log, the canonical trace and the tallies are the same at every shard
/// count. Returns each shard count's two runs.
pub fn sweep<St: PartialEq>(
    what: &str,
    shard_counts: &[usize],
    run: impl Fn(usize) -> Result<RunReport<St>, DispatchError>,
) -> Vec<[RunReport<St>; 2]> {
    let runs: Vec<_> = shard_counts
        .iter()
        .map(|&n| run_twice(&format!("{what} shards={n}"), || run(n)))
        .collect();
    let first = &runs[0][0];
    for (n, [r, _]) in shard_counts.iter().zip(&runs) {
        if r.canonical_log != first.canonical_log
            || r.canonical_trace != first.canonical_trace
            || r.stats != first.stats
        {
            fail(&format!("{what}: artifacts diverged at {n} shards"));
        }
    }
    runs
}

/// Runs one configuration twice and fails unless both runs agree on the
/// merged audit, the canonical log and the canonical trace. Returns both
/// runs, the one with the lower host critical path first: host cost is
/// noisy, so reports keep its best observation.
fn run_twice<St>(
    what: &str,
    run: impl Fn() -> Result<RunReport<St>, DispatchError>,
) -> [RunReport<St>; 2] {
    let (a, b) = (ok(run(), what), ok(run(), what));
    if a.merged_fingerprint != b.merged_fingerprint
        || a.canonical_log != b.canonical_log
        || a.canonical_trace != b.canonical_trace
    {
        fail(&format!("nondeterministic replay for {what}"));
    }
    if b.host_cpu_ns < a.host_cpu_ns {
        [b, a]
    } else {
        [a, b]
    }
}

/// Prints a finished report row as progress and hands it back.
pub fn progress(row: Obj) -> Obj {
    println!("{}", row.inline());
    row
}

/// Writes a report: every row's canonical members to `out`, and its
/// `host_*` members with its id members to `<out stem>.host.json`.
///
/// This is the one place that knows `host_*` means measured. Every other
/// member depends only on code and seed, so `out` is byte-identical across
/// runs and hosts and the report gate compares it exactly. The host file,
/// written only when some row has host members, is never gated; its
/// header is the report header plus the host it ran on.
pub fn write_report(out: &str, header: &Obj, section: &str, rows: &[Obj]) {
    let measured = |key: &str| key.starts_with("host_");
    let canonical: Vec<Obj> = rows.iter().map(|r| r.filter(|k| !measured(k))).collect();
    write(out, &document(header, section, &canonical));
    println!("wrote {out} ({} rows)", rows.len());
    if rows.iter().all(|r| r.filter(measured).is_empty()) {
        return;
    }
    let host_rows: Vec<Obj> = rows
        .iter()
        .map(|r| r.filter(|k| measured(k) || ID_FIELDS.contains(&k)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let host_header = header
        .clone()
        .num("nproc", nproc)
        .str("cpu", &cpu_model())
        .str("profile", profile);
    let host_out = format!("{}.host.json", out.strip_suffix(".json").unwrap_or(out));
    write(&host_out, &document(&host_header, section, &host_rows));
    println!("wrote {host_out} (host measurements)");
}

fn write(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The `/proc/cpuinfo` model name, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
