//! `fuzzstats` argument parsing, driven as a process: it takes only
//! `[--out <path>]`, and anything else prints usage and exits 2, like
//! every report binary.

use std::process::Command;

#[test]
fn a_bad_argument_prints_usage_and_exits_2() {
    let inputs = [
        &["--bogus"][..],
        &["--out"],
        &["--seeds", "10"],
        &["--shards", "2"],
        &["--seed-start", "0"],
        &["--shrink-limit", "1"],
    ];
    for args in inputs {
        let run = Command::new(env!("CARGO_BIN_EXE_fuzzstats"))
            .args(args)
            .output()
            .expect("spawn fuzzstats");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: fuzzstats [--out <path>]"),
            "{args:?}: {stderr}"
        );
        assert!(run.stdout.is_empty(), "{args:?} started a sweep");
    }
}
