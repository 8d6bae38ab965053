//! The bench binaries' argument parsing, driven as a process: a bad
//! argument prints usage and exits 2.

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
        stderr.contains("usage: throughput [--out <path>]"),
        "{stderr}"
    );
}

#[test]
fn soak_with_a_non_integer_seed_count_prints_usage_and_exits_2() {
    let run = Command::new(env!("CARGO_BIN_EXE_soak"))
        .arg("abc")
        .output()
        .expect("spawn soak");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("SEEDS must be an integer, got abc"),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: soak [SEEDS] [BASE_SEED]"),
        "{stderr}"
    );
}
