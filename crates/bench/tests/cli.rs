//! The bench report binaries' shared command line, driven as a process:
//! each takes only `[--out <path>]`, and a bad argument prints usage and
//! exits 2 before the binary runs anything.

use std::path::Path;
use std::process::Command;

#[test]
fn a_bad_argument_prints_usage_and_exits_2() {
    let inputs = [
        (env!("CARGO_BIN_EXE_churn"), "--smoke"),
        (env!("CARGO_BIN_EXE_hooks"), "--out=x.json"),
        (env!("CARGO_BIN_EXE_netbench"), "--shards"),
        (env!("CARGO_BIN_EXE_profile"), "-o"),
        (env!("CARGO_BIN_EXE_repro"), "fig2"),
        (env!("CARGO_BIN_EXE_soak"), "200"),
        (env!("CARGO_BIN_EXE_throughput"), "--out"),
        (env!("CARGO_BIN_EXE_verifier_ladder"), "ladder"),
    ];
    for (exe, arg) in inputs {
        let bin = Path::new(exe).file_stem().unwrap().to_string_lossy();
        let run = Command::new(exe).arg(arg).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bin} {arg}: {stderr}");
        let usage = format!("usage: {bin} [--out <path>]");
        assert!(stderr.contains(&usage), "{bin} {arg}: {stderr}");
        // A report binary prints each row as it finishes it.
        assert!(run.stdout.is_empty(), "{bin} {arg} ran before it failed");
    }
}
