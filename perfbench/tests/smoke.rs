//! Every workload at its small size, in both modes: a run of a few
//! seconds that checks every outcome and reports exactly the metrics
//! `BENCHMARK.json` declares.

use perfbench::plan::Workload;
use perfbench::run::{run, Config};

/// The metric names one section of `BENCHMARK.json` declares, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn small(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        small: true,
    }
}

#[test]
fn untraced_runs_check_outcomes_and_report_end_to_end_metrics() {
    for workload in Workload::ALL {
        let report = run(&small(workload, false));
        assert!(
            report.correct(),
            "{}: {} failed, {:?}",
            workload.name(),
            report.failed,
            report.errors
        );
        assert!(report.attempted > 0);
        let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared("end_to_end"), "{}", workload.name());
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_replay_their_untraced_partner_and_report_every_layer() {
    for workload in Workload::ALL {
        let report = run(&small(workload, true));
        assert!(
            report.correct(),
            "{}: {} failed, {:?}",
            workload.name(),
            report.failed,
            report.errors
        );
        let names: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, declared("per_layer"), "{}", workload.name());
        for m in report.metrics.iter().filter(|m| m.name.ends_with("_ns")) {
            assert!(m.value.is_finite(), "{}: {}", workload.name(), m.name);
        }
    }
}

#[test]
fn backends_agree_where_their_programs_match() {
    // pkt-steady and fleet-churn run the same programs on every backend,
    // so their prefixes (fault-free by construction) fold to one digest;
    // ctl-upgrade loads differ by design (the sandbox has no verifier).
    for workload in [Workload::PktSteady, Workload::FleetChurn] {
        let report = run(&small(workload, false));
        let [ebpf, safe, sandbox] = report.digests;
        assert_eq!(ebpf, safe, "{}", workload.name());
        assert_eq!(ebpf, sandbox, "{}", workload.name());
    }
    let report = run(&small(Workload::CtlUpgrade, false));
    let [ebpf, safe, sandbox] = report.digests;
    assert!(ebpf != safe && ebpf != sandbox && safe != sandbox);
}
