//! The report binaries' shared argument parser, driven as a process.

use std::process::Command;

#[test]
fn out_without_a_value_prints_usage_and_exits_2() {
    let run = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .arg("--out")
        .output()
        .expect("spawn throughput");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: throughput [--smoke] [--out <path>]"),
        "{stderr}"
    );
}
