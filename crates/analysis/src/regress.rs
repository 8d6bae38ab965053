//! The CI perf-regression gate: compares freshly generated bench
//! reports against the committed `BENCH_*.json` baselines.
//!
//! Three row-field families are compared:
//!
//! * **Simulated-cost** metrics ([`SIM_COST_FIELDS`]) are deterministic
//!   functions of `(code, seed)`, so any drift is a real change in
//!   modelled cost, never host noise. The tolerance (default
//!   [`DEFAULT_TOLERANCE`], ±10%) exists so a PR that *deliberately*
//!   shifts costs slightly can still land by regenerating baselines,
//!   while order-of-magnitude regressions fail loudly.
//! * **Canonical hashes** (every `*_sha256` field) pin the byte-exact
//!   contract: canonical logs, merged audits and canonical traces. They
//!   must match exactly, so a change that keeps every cost but alters a
//!   log fails too.
//! * **Host-capacity** metrics ([`HOST_CAPACITY_FIELDS`]) are measured on
//!   whatever machine ran the bench, in cells of tens of milliseconds,
//!   so they move with the host and with load. They are reported as
//!   gains and losses (higher is better) and never fail the gate; the
//!   host-cost gate is the repository's benchmark, which interleaves a
//!   reference loop to cancel host drift. Raw clocks (`host_elapsed_ns`,
//!   `host_wall_pps`, `host_cpu_ns`) are not compared at all.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;

/// Relative drift allowed before a metric is flagged, in either
/// direction (an unexplained speed-*up* also means the model changed).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// The numeric row fields treated as simulated-cost metrics. The churn
/// fields (`p50_cost_ns`, `p99_cost_ns`, `churn_events`) are virtual-time
/// percentiles and a schedule count — deterministic functions of
/// `(code, seed)` like the rest.
pub const SIM_COST_FIELDS: &[&str] = &[
    "sim_elapsed_ns",
    "insns_processed",
    "states_explored",
    "verify_sim_ns",
    "safe_ext_load_sim_ns",
    "sandbox_load_sim_ns",
    "sandbox_ok",
    "sandbox_trapped",
    "sandbox_aborted",
    "p50_cost_ns",
    "p99_cost_ns",
    "churn_events",
    "probe_fires",
    "policy_denies",
    "sched_picks",
    "sched_fallbacks",
];

/// The numeric row fields treated as host-capacity metrics, reported but
/// never gated. `host_pps` divides packets by the busiest shard's
/// thread-CPU time: a capacity projection on the host that ran it.
pub const HOST_CAPACITY_FIELDS: &[&str] = &["host_pps"];

/// Row fields (in key order) that identify a row across regenerations.
const ID_FIELDS: &[&str] = &["scenario", "backend", "feature", "lane", "shards", "faults"];

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// `row-key/field`, e.g. `ebpf/shards=4/sim_elapsed_ns`.
    pub key: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly generated value.
    pub fresh: f64,
    /// Signed relative drift: `(fresh - baseline) / baseline`.
    pub rel: f64,
}

impl MetricDiff {
    /// The host-row label: host capacity is higher-is-better, so a drop
    /// is a `LOSS` and a rise a `GAIN`.
    pub fn host_label(&self) -> &'static str {
        if self.rel < 0.0 {
            "LOSS"
        } else {
            "GAIN"
        }
    }
}

/// The outcome of comparing one report pair.
#[derive(Debug, Clone, Default)]
pub struct RegressOutcome {
    /// Metrics beyond tolerance with `fresh > baseline`.
    pub regressions: Vec<MetricDiff>,
    /// Metrics beyond tolerance with `fresh < baseline`.
    pub improvements: Vec<MetricDiff>,
    /// Metrics within tolerance.
    pub within: usize,
    /// Keys present in the baseline but absent from the fresh report.
    pub missing_in_fresh: Vec<String>,
    /// Keys present in the fresh report but absent from the baseline
    /// (new configurations: the baseline needs regenerating).
    pub missing_in_baseline: Vec<String>,
}

impl RegressOutcome {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
            && self.improvements.is_empty()
            && self.missing_in_fresh.is_empty()
            && self.missing_in_baseline.is_empty()
    }
}

/// Extracts every simulated-cost metric from a bench report; see
/// [`extract_fields`].
pub fn extract_metrics(doc: &Json) -> BTreeMap<String, f64> {
    extract_fields(doc, SIM_COST_FIELDS)
}

/// Extracts every host-capacity metric from a bench report; see
/// [`extract_fields`].
pub fn extract_host_metrics(doc: &Json) -> BTreeMap<String, f64> {
    extract_fields(doc, HOST_CAPACITY_FIELDS)
}

/// Extracts the given numeric `fields` from a bench report: walks all
/// array members of the top-level object, keys each row by its
/// identifying fields (`backend`, `shards`, `scenario`, `faults`,
/// `lane`, `feature`), and keeps the requested numbers.
pub fn extract_fields(doc: &Json, fields: &[&str]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (key, row) in keyed_rows(doc) {
        for field in fields {
            if let Some(v) = row.get(field).and_then(Json::as_f64) {
                out.insert(format!("{key}/{field}"), v);
            }
        }
    }
    out
}

/// Every row of a bench report with its `section/id=value...` key.
fn keyed_rows(doc: &Json) -> Vec<(String, &Json)> {
    let mut out = Vec::new();
    let Json::Obj(top) = doc else { return out };
    for (section, value) in top {
        let Some(rows) = value.items() else { continue };
        for (index, row) in rows.iter().enumerate() {
            let mut key = section.clone();
            let mut identified = false;
            for id in ID_FIELDS {
                if let Some(part) = row.get(id).and_then(Json::scalar_key) {
                    key.push_str(&format!("/{id}={part}"));
                    identified = true;
                }
            }
            if !identified {
                // Rows with no identifying fields fall back to position.
                key.push_str(&format!("/{index}"));
            }
            out.push((key, row));
        }
    }
    out
}

/// Extracts every `*_sha256` string field of every row, keyed
/// `row-key/field`.
pub fn extract_hashes(doc: &Json) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for (key, row) in keyed_rows(doc) {
        let Json::Obj(fields) = row else { continue };
        for (field, value) in fields.iter().filter(|(f, _)| f.ends_with("_sha256")) {
            if let Some(hash) = value.as_str() {
                out.insert(format!("{key}/{field}"), hash.to_string());
            }
        }
    }
    out
}

/// The key of every canonical hash that differs from the baseline or
/// exists on one side only: hashes must match exactly.
pub fn hash_mismatches(
    baseline: &BTreeMap<String, String>,
    fresh: &BTreeMap<String, String>,
) -> Vec<String> {
    let keys: BTreeSet<&String> = baseline.keys().chain(fresh.keys()).collect();
    keys.into_iter()
        .filter(|key| baseline.get(*key) != fresh.get(*key))
        .cloned()
        .collect()
}

/// The drift of every metric present on both sides, with no tolerance:
/// what the gate reports for host rows.
pub fn drift(baseline: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> Vec<MetricDiff> {
    baseline
        .iter()
        .filter_map(|(key, &base)| {
            let &new = fresh.get(key)?;
            let rel = match (base, new) {
                (0.0, 0.0) => 0.0,
                (0.0, _) => f64::INFINITY,
                _ => (new - base) / base,
            };
            Some(MetricDiff {
                key: key.clone(),
                baseline: base,
                fresh: new,
                rel,
            })
        })
        .collect()
}

/// Compares fresh metrics against the baseline with a symmetric
/// relative tolerance.
pub fn compare(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    tolerance: f64,
) -> RegressOutcome {
    let missing = |a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>| {
        a.keys().filter(|k| !b.contains_key(*k)).cloned().collect()
    };
    let mut outcome = RegressOutcome {
        missing_in_fresh: missing(baseline, fresh),
        missing_in_baseline: missing(fresh, baseline),
        ..RegressOutcome::default()
    };
    for diff in drift(baseline, fresh) {
        if diff.rel > tolerance {
            outcome.regressions.push(diff);
        } else if diff.rel < -tolerance {
            outcome.improvements.push(diff);
        } else {
            outcome.within += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(sim: u64) -> Json {
        parse(&format!(
            r#"{{"rows": [{{"backend": "ebpf", "shards": 2, "sim_elapsed_ns": {sim}, "host_elapsed_ns": 99}}]}}"#
        ))
        .unwrap()
    }

    fn host_doc(pps: u64) -> Json {
        parse(&format!(
            r#"{{"rows": [{{"backend": "ebpf", "shards": 2, "sim_elapsed_ns": 1000, "host_pps": {pps}, "host_cpu_ns": 555, "host_wall_pps": 777, "host_elapsed_ns": 99}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn extracts_sim_cost_but_not_host_noise() {
        let metrics = extract_metrics(&doc(1000));
        assert_eq!(
            metrics.get("rows/backend=ebpf/shards=2/sim_elapsed_ns"),
            Some(&1000.0)
        );
        assert_eq!(metrics.len(), 1, "host_elapsed_ns must not be compared");
    }

    #[test]
    fn host_extraction_keeps_only_the_capacity_metric() {
        let metrics = extract_host_metrics(&host_doc(1_000_000));
        assert_eq!(
            metrics.get("rows/backend=ebpf/shards=2/host_pps"),
            Some(&1_000_000.0)
        );
        assert_eq!(
            metrics.len(),
            1,
            "raw host clocks (elapsed/cpu/wall) must stay ungated"
        );
    }

    #[test]
    fn host_drift_is_reported_higher_is_better() {
        let base = extract_host_metrics(&host_doc(1_000_000));
        // Halving capacity is a loss, not an improvement.
        let lost = drift(&base, &extract_host_metrics(&host_doc(490_000)));
        assert_eq!(lost.len(), 1);
        assert!((lost[0].rel + 0.51).abs() < 1e-9);
        assert_eq!(lost[0].host_label(), "LOSS");
        let gained = drift(&base, &extract_host_metrics(&host_doc(1_300_000)));
        assert_eq!(gained[0].host_label(), "GAIN");
    }

    fn sha_doc(hash: &str) -> Json {
        parse(&format!(
            r#"{{"rows": [{{"backend": "ebpf", "shards": 2, "sim_elapsed_ns": 1000, "merged_audit_sha256": "{hash}", "canonical_sha256": "c0ffee"}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn canonical_hashes_must_match_exactly() {
        let base = extract_hashes(&sha_doc("abc123"));
        assert_eq!(base.len(), 2, "every *_sha256 field is compared");
        assert!(hash_mismatches(&base, &extract_hashes(&sha_doc("abc123"))).is_empty());
        assert_eq!(
            hash_mismatches(&base, &extract_hashes(&sha_doc("abc124"))),
            ["rows/backend=ebpf/shards=2/merged_audit_sha256"]
        );
        assert_eq!(hash_mismatches(&base, &BTreeMap::new()).len(), 2);
    }

    #[test]
    fn identical_reports_pass() {
        let base = extract_metrics(&doc(1000));
        let outcome = compare(&base, &base, DEFAULT_TOLERANCE);
        assert!(outcome.ok());
        assert_eq!(outcome.within, 1);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = extract_metrics(&doc(1000));
        let fresh = extract_metrics(&doc(1200));
        let outcome = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!outcome.ok());
        assert_eq!(outcome.regressions.len(), 1);
        assert!((outcome.regressions[0].rel - 0.2).abs() < 1e-9);
    }

    #[test]
    fn improvement_beyond_tolerance_also_flags() {
        let base = extract_metrics(&doc(1000));
        let fresh = extract_metrics(&doc(500));
        let outcome = compare(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(outcome.improvements.len(), 1);
        assert!(!outcome.ok(), "silent model changes must not pass");
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let base = extract_metrics(&doc(1000));
        let fresh = extract_metrics(&doc(1050));
        assert!(compare(&base, &fresh, DEFAULT_TOLERANCE).ok());
    }

    #[test]
    fn schema_drift_is_an_error() {
        let base = extract_metrics(&doc(1000));
        let outcome = compare(&base, &BTreeMap::new(), DEFAULT_TOLERANCE);
        assert_eq!(outcome.missing_in_fresh.len(), 1);
        let outcome = compare(&BTreeMap::new(), &base, DEFAULT_TOLERANCE);
        assert_eq!(outcome.missing_in_baseline.len(), 1);
        assert!(!outcome.ok());
    }

    #[test]
    fn ladder_rows_key_by_feature() {
        let doc = parse(
            r#"{"ladder": [{"feature": "spin_lock", "states_explored": 59, "reject_rate": 0.5, "verify_sim_ns": 13425, "safe_ext_load_sim_ns": 535}]}"#,
        )
        .unwrap();
        let metrics = extract_metrics(&doc);
        assert_eq!(
            metrics.get("ladder/feature=spin_lock/verify_sim_ns"),
            Some(&13425.0)
        );
        assert_eq!(
            metrics.get("ladder/feature=spin_lock/safe_ext_load_sim_ns"),
            Some(&535.0)
        );
        assert_eq!(metrics.len(), 3, "reject_rate is not a sim-cost metric");
    }

    #[test]
    fn lanes_key_by_lane_field() {
        let doc =
            parse(r#"{"lanes": [{"lane": "patched", "insns_processed": 83484, "accepted": 459}]}"#)
                .unwrap();
        let metrics = extract_metrics(&doc);
        assert_eq!(
            metrics.get("lanes/lane=patched/insns_processed"),
            Some(&83484.0)
        );
    }
}
