//! CI report gate driver: `regress --fresh <dir> [--baseline <dir>]`.
//!
//! Checks every canonical report (`analysis::regress::CANONICAL`)
//! regenerated into `--fresh` against the committed copy in `--baseline`
//! (default `.`), byte for byte. Prints `REGRESS PASS`, or every
//! differing value and exits 1. A file missing on either side fails.

use std::path::Path;
use std::process::ExitCode;

use analysis::regress::{check, CANONICAL};

fn parse_args() -> Result<(String, String), String> {
    let (mut baseline, mut fresh) = (".".to_string(), None);
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--baseline" => baseline = value()?,
            "--fresh" => fresh = Some(value()?),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok((baseline, fresh.ok_or("--fresh <dir> is required")?))
}

fn main() -> ExitCode {
    let (baseline, fresh) = match parse_args() {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("regress: {e}");
            eprintln!("usage: regress --fresh <dir> [--baseline <dir>]");
            return ExitCode::from(2);
        }
    };
    println!("REGRESS baseline={baseline} fresh={fresh}");
    let read = |dir: &str, name: &str| std::fs::read(Path::new(dir).join(name)).ok();
    let mut failed = 0;
    for name in CANONICAL {
        let diffs = check(
            name,
            read(&baseline, name).as_deref(),
            read(&fresh, name).as_deref(),
        );
        println!("{} {name}", if diffs.is_empty() { "OK" } else { "FAIL" });
        for diff in &diffs {
            println!("  {diff}");
        }
        failed += usize::from(!diffs.is_empty());
    }
    if failed > 0 {
        let total = CANONICAL.len();
        eprintln!("regress: {failed} of {total} canonical reports failed (see above)");
        eprintln!("regress: if the change is intended, run ci/regen-baselines.sh and commit");
        ExitCode::FAILURE
    } else {
        println!("REGRESS PASS");
        ExitCode::SUCCESS
    }
}
