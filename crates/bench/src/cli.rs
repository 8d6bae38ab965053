//! What the report binaries share: one `--smoke`/`--out` parser, one
//! run-twice-and-compare sweep, and one report writer.

use analysis::json::{document, Obj};

use crate::engine::{DispatchError, RunReport};

/// Parses `[--smoke] [--out <path>]` for `bin` and runs `smoke()` or
/// `full(out)`; without a `smoke`, `--smoke` is rejected too. Anything
/// else prints usage and exits 2.
pub fn main(bin: &str, default_out: &str, smoke: Option<fn()>, full: fn(&str)) {
    let usage = |msg: &str| -> ! {
        eprintln!("{bin}: {msg}");
        let flag = if smoke.is_some() { "[--smoke] " } else { "" };
        eprintln!("usage: {bin} {flag}[--out <path>]");
        std::process::exit(2);
    };
    let mut out = default_out.to_string();
    let mut smoke_run = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" if smoke.is_some() => smoke_run = smoke,
            "--out" => out = it.next().unwrap_or_else(|| usage("--out requires a value")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    match smoke_run {
        Some(smoke) => smoke(),
        None => full(&out),
    }
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

/// Writes a report document to `out`.
pub fn write_report(out: &str, header: &Obj, section: &str, rows: &[Obj]) {
    std::fs::write(out, document(header, section, rows))
        .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out} ({} rows)", rows.len());
}
