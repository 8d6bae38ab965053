//! The CI report gate: every canonical report, regenerated, must equal
//! its committed copy byte for byte.
//!
//! A canonical report depends only on code and seed. Host measurements,
//! which move with the machine and its load, are written to `*.host.json`
//! siblings that the gate never reads. So there is no tolerance: a PR
//! that changes a modelled cost, a verdict count or a canonical log
//! regenerates the baselines, and review reads that diff.
//!
//! On a mismatch, [`check`] names every differing value: a JSON report by
//! the path of each differing leaf, a text report by line number.

use std::collections::BTreeSet;

use crate::json::{self, Json, ID_FIELDS};

/// Every canonical file the report binaries write at the repository root.
pub const CANONICAL: &[&str] = &[
    "BENCH_throughput.json",
    "BENCH_net.json",
    "BENCH_fuzz.json",
    "BENCH_fuzz_corpus.txt",
    "BENCH_profile.json",
    "BENCH_profile_flame.txt",
    "BENCH_verifier.json",
    "BENCH_churn.json",
    "BENCH_hooks.json",
];

/// Compares the committed bytes of canonical file `name` with its
/// regenerated bytes; `None` means the file is missing on that side.
/// Returns one line per difference, each `<name> <where>: <baseline> ->
/// <fresh>`, and nothing when the bytes are equal.
pub fn check(name: &str, baseline: Option<&[u8]>, fresh: Option<&[u8]>) -> Vec<String> {
    let (base, fresh) = match (baseline, fresh) {
        (Some(b), Some(f)) if b == f => return Vec::new(),
        (Some(b), Some(f)) => (String::from_utf8_lossy(b), String::from_utf8_lossy(f)),
        (None, _) => return vec![format!("{name}: missing in the baseline")],
        (_, None) => return vec![format!("{name}: missing in the fresh reports")],
    };
    let mut out = Vec::new();
    match (json::parse(&base), json::parse(&fresh)) {
        (Ok(b), Ok(f)) if name.ends_with(".json") => {
            walk(&mut out, name, "", Some(&b), Some(&f));
        }
        _ => {
            let (b, f): (Vec<_>, Vec<_>) = (base.lines().collect(), fresh.lines().collect());
            for i in 0..b.len().max(f.len()) {
                if b.get(i) != f.get(i) {
                    let [bl, fl] = [b.get(i), f.get(i)].map(|l| l.copied().unwrap_or("missing"));
                    out.push(format!("{name} line {}: {bl} -> {fl}", i + 1));
                }
            }
        }
    }
    if out.is_empty() {
        // Formatting, member order or digits past f64 precision.
        out.push(format!("{name}: bytes differ, values equal"));
    }
    out
}

/// Pushes one line for every leaf under `path` that differs between the
/// two sides. Array items are named by index plus their id members, e.g.
/// `/lanes/1[lane=shipped]`.
fn walk(out: &mut Vec<String>, name: &str, path: &str, base: Option<&Json>, fresh: Option<&Json>) {
    match (base, fresh) {
        (Some(Json::Obj(b)), Some(Json::Obj(f))) => {
            for key in b.keys().chain(f.keys()).collect::<BTreeSet<_>>() {
                walk(out, name, &format!("{path}/{key}"), b.get(key), f.get(key));
            }
        }
        (Some(Json::Arr(b)), Some(Json::Arr(f))) => {
            for i in 0..b.len().max(f.len()) {
                let (b, f) = (b.get(i), f.get(i));
                walk(out, name, &format!("{path}/{i}{}", row_ids(b.or(f))), b, f);
            }
        }
        _ if base != fresh => {
            let side = |v: Option<&Json>| v.map_or("missing".to_string(), Json::to_string);
            out.push(format!("{name} {path}: {} -> {}", side(base), side(fresh)));
        }
        _ => {}
    }
}

/// `[id=value,...]` over the row's id members, or nothing if it has none.
fn row_ids(row: Option<&Json>) -> String {
    let ids: Vec<String> = ID_FIELDS
        .iter()
        .filter_map(|id| match row?.get(id)? {
            Json::Str(s) => Some(format!("{id}={s}")),
            v => Some(format!("{id}={v}")),
        })
        .collect();
    if ids.is_empty() {
        String::new()
    } else {
        format!("[{}]", ids.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    fn committed(name: &str) -> String {
        std::fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    /// The gate's verdict on the committed `name` with each `(from, to)`
    /// edit applied to its first occurrence.
    fn edited(name: &str, edits: &[(&str, &str)]) -> Vec<String> {
        let base = committed(name);
        let mut fresh = base.clone();
        for (from, to) in edits {
            assert!(fresh.contains(from), "{name} lacks {from:?}");
            fresh = fresh.replacen(from, to, 1);
        }
        check(name, Some(base.as_bytes()), Some(fresh.as_bytes()))
    }

    #[test]
    fn gates_every_canonical_file_at_the_repo_root() {
        let mut committed: Vec<String> = std::fs::read_dir(root())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("BENCH_") && !n.ends_with(".host.json"))
            .collect();
        committed.sort();
        let mut gated = CANONICAL.to_vec();
        gated.sort();
        assert_eq!(committed, gated);
    }

    #[test]
    fn committed_json_reports_parse() {
        for name in CANONICAL.iter().filter(|n| n.ends_with(".json")) {
            json::parse(&committed(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn shipped_lane_unsoundness_count_fails_by_path() {
        let edits = [
            (
                "\"unsoundness_candidate\": 5",
                "\"unsoundness_candidate\": 9",
            ),
            ("\"accepted\": 525", "\"accepted\": 529"),
        ];
        assert_eq!(
            edited("BENCH_fuzz.json", &edits),
            [
                "BENCH_fuzz.json /lanes/1[lane=shipped]/accepted: 525 -> 529",
                "BENCH_fuzz.json /lanes/1[lane=shipped]/buckets/unsoundness_candidate: 5 -> 9",
            ]
        );
    }

    #[test]
    fn net_drop_count_fails_by_row_ids() {
        assert_eq!(
            edited("BENCH_net.json", &[("\"drop\": 1030", "\"drop\": 1031")]),
            ["BENCH_net.json /rows/0[scenario=syn-filter,backend=ebpf,shards=1,faults=false]/drop: 1030 -> 1031"]
        );
    }

    #[test]
    fn churn_kill_count_fails_by_row_ids() {
        assert_eq!(
            edited("BENCH_churn.json", &[("\"killed\": 0", "\"killed\": 3")]),
            ["BENCH_churn.json /rows/0[scenario=churn,backend=ebpf,shards=1,faults=none]/killed: 0 -> 3"]
        );
    }

    #[test]
    fn flame_file_fails_by_line() {
        assert_eq!(
            edited("BENCH_profile_flame.txt", &[("rcu-read 81920\n", "rcu-read 81921\n")]),
            ["BENCH_profile_flame.txt line 3: ebpf;dispatch;prog-run;rcu-read 81920 -> ebpf;dispatch;prog-run;rcu-read 81921"]
        );
    }

    #[test]
    fn reproducer_store_fails_by_line() {
        let edit = (
            "; bucket: incompleteness_witness\n",
            "; bucket: accept_safe\n",
        );
        assert_eq!(
            edited("BENCH_fuzz_corpus.txt", &[edit]),
            ["BENCH_fuzz_corpus.txt line 5: ; bucket: incompleteness_witness -> ; bucket: accept_safe"]
        );
    }

    #[test]
    fn a_missing_file_fails_by_name() {
        let text = b"{}";
        assert_eq!(
            check("BENCH_hooks.json", None, Some(text)),
            ["BENCH_hooks.json: missing in the baseline"]
        );
        assert_eq!(
            check("BENCH_hooks.json", Some(text), None),
            ["BENCH_hooks.json: missing in the fresh reports"]
        );
    }

    #[test]
    fn an_extra_row_fails_with_the_whole_row() {
        let base = r#"{"rows": [{"backend": "ebpf", "shards": 1, "n": 1}]}"#;
        let fresh = r#"{"rows": [{"backend": "ebpf", "shards": 1, "n": 1}, {"backend": "ebpf", "shards": 2, "n": 1}]}"#;
        assert_eq!(
            check("r.json", Some(base.as_bytes()), Some(fresh.as_bytes())),
            [
                r#"r.json /rows/1[backend=ebpf,shards=2]: missing -> {"backend": "ebpf", "n": 1, "shards": 2}"#
            ]
        );
    }

    #[test]
    fn a_member_missing_on_one_side_fails() {
        let base = r#"{"rows": [{"backend": "ebpf", "n": 1, "m": 2}]}"#;
        let fresh = r#"{"rows": [{"backend": "ebpf", "n": 1}]}"#;
        assert_eq!(
            check("r.json", Some(base.as_bytes()), Some(fresh.as_bytes())),
            ["r.json /rows/0[backend=ebpf]/m: 2 -> missing"]
        );
        assert_eq!(
            check("r.json", Some(fresh.as_bytes()), Some(base.as_bytes())),
            ["r.json /rows/0[backend=ebpf]/m: missing -> 2"]
        );
    }

    #[test]
    fn equal_values_in_different_bytes_still_fail() {
        // 2^53 + 1 and 2^53 parse to the same f64.
        for (base, fresh) in [
            (r#"{"n": 9007199254740993}"#, r#"{"n": 9007199254740992}"#),
            (r#"{"n": 0.50}"#, r#"{"n": 0.5}"#),
            ("a\n", "a\r\n"),
        ] {
            assert_eq!(
                check("r.json", Some(base.as_bytes()), Some(fresh.as_bytes())),
                ["r.json: bytes differ, values equal"]
            );
        }
    }
}
