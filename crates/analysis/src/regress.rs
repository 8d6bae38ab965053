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
//! the path of each differing leaf, a text report by line number. Both
//! sides are aligned first ([`align`]), so a removed or added line or
//! array row is named once, not as a shift of everything after it.

use std::collections::BTreeSet;
use std::ops::Range;

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
    "BENCH_repro.json",
    "BENCH_soak.json",
];

/// Compares the committed bytes of canonical file `name` with its
/// regenerated bytes; `None` means the file is missing on that side.
/// Returns one line per difference, each `<name> <where>: <baseline> ->
/// <fresh>`, and nothing when the bytes are equal. A line or row is
/// numbered on the baseline side, or on the fresh side when it was added.
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
            for (i, j) in align(&b, &f, |line| line.is_empty()) {
                let [bl, fl] = [(i, &b), (j, &f)].map(|(k, side)| k.map_or("missing", |k| side[k]));
                let line = i.or(j).unwrap() + 1;
                out.push(format!("{name} line {line}: {bl} -> {fl}"));
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
            for (i, j) in align(b, f, |_| false) {
                let (b, f) = (i.map(|i| &b[i]), j.map(|j| &f[j]));
                let path = format!("{path}/{}{}", i.or(j).unwrap(), row_ids(b.or(f)));
                walk(out, name, &path, b, f);
            }
        }
        _ if base != fresh => {
            let side = |v: Option<&Json>| v.map_or("missing".to_string(), Json::to_string);
            out.push(format!("{name} {path}: {} -> {}", side(base), side(fresh)));
        }
        _ => {}
    }
}

/// Pairs the items of `base` and `fresh` that differ. Items equal along a
/// longest common subsequence are matched and left out. Between two
/// matches, the unmatched runs are paired item by item when they have the
/// same length (an edit in place); otherwise each base item is reported
/// removed, `(Some(i), None)`, and each fresh item added, `(None, Some(j))`.
///
/// Where equal items let a removed or added run sit at several places, it
/// moves up until it ends at a `boundary` item or can move no further: a
/// store entry goes with its own blank separator, not with the next
/// entry's header line.
fn align<T: PartialEq>(
    base: &[T],
    fresh: &[T],
    boundary: impl Fn(&T) -> bool,
) -> Vec<(Option<usize>, Option<usize>)> {
    // The common prefix and suffix match without the table.
    let pre = base.iter().zip(fresh).take_while(|(b, f)| b == f).count();
    let (b, f) = (&base[pre..], &fresh[pre..]);
    let suf = b
        .iter()
        .rev()
        .zip(f.iter().rev())
        .take_while(|(b, f)| b == f)
        .count();
    let (b, f) = (&b[..b.len() - suf], &f[..f.len() - suf]);
    // lcs[i][j]: the length of a longest common subsequence of b[i..], f[j..].
    let mut lcs = vec![vec![0u32; f.len() + 1]; b.len() + 1];
    for i in (0..b.len()).rev() {
        for j in (0..f.len()).rev() {
            lcs[i][j] = if b[i] == f[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    // Moves a one-sided run up while the item above it, matched, equals its
    // last item, down to `floor`, the end of the previous run on that side.
    let slide = |items: &[T], mut run: Range<usize>, floor: usize| {
        while run.start > floor
            && !boundary(&items[run.end - 1])
            && items[run.start - 1] == items[run.end - 1]
        {
            run = run.start - 1..run.end - 1;
        }
        run
    };
    let mut out = Vec::new();
    let mut floor = (0, 0);
    let mut flush = |bs: Range<usize>, fs: Range<usize>| {
        let (mut bs, mut fs) = (bs.start + pre..bs.end + pre, fs.start + pre..fs.end + pre);
        if bs.len() == fs.len() {
            out.extend(bs.clone().zip(fs.clone()).map(|(i, j)| (Some(i), Some(j))));
        } else {
            if fs.is_empty() {
                bs = slide(base, bs, floor.0);
            } else if bs.is_empty() {
                fs = slide(fresh, fs, floor.1);
            }
            out.extend(bs.clone().map(|i| (Some(i), None)));
            out.extend(fs.clone().map(|j| (None, Some(j))));
        }
        if !bs.is_empty() {
            floor.0 = bs.end;
        }
        if !fs.is_empty() {
            floor.1 = fs.end;
        }
    };
    let (mut i, mut j, mut run) = (0, 0, (0, 0));
    while i < b.len() || j < f.len() {
        if i < b.len() && j < f.len() && b[i] == f[j] {
            flush(run.0..i, run.1..j);
            (i, j) = (i + 1, j + 1);
            run = (i, j);
        } else if j == f.len() || (i < b.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            i += 1;
        } else {
            j += 1;
        }
    }
    flush(run.0..i, run.1..j);
    out
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
    fn repro_helper_count_fails_by_figure_series_and_version() {
        let edit = (
            r#""version": "v5.10", "helpers": 34}"#,
            r#""version": "v5.10", "helpers": 33}"#,
        );
        assert_eq!(
            edited("BENCH_repro.json", &[edit]),
            ["BENCH_repro.json /rows/39[figure=fig4,series=ours,version=v5.10]/helpers: 34 -> 33"]
        );
    }

    #[test]
    fn an_inserted_row_fails_by_that_row_alone() {
        let row = r#"{"figure": "fig4", "series": "ours", "version": "v5.10", "helpers": 34},"#;
        let extra = r#"{"figure": "fig4", "series": "ours", "version": "v5.8", "helpers": 31},"#;
        assert_eq!(
            edited("BENCH_repro.json", &[(row, &format!("{row}\n    {extra}"))]),
            [
                r#"BENCH_repro.json /rows/40[figure=fig4,series=ours,version=v5.8]: missing -> {"figure": "fig4", "helpers": 31, "series": "ours", "version": "v5.8"}"#
            ]
        );
    }

    #[test]
    fn a_removed_store_entry_fails_by_its_own_lines_only() {
        let base = committed("BENCH_fuzz_corpus.txt");
        let lines: Vec<&str> = base.lines().collect();
        let headers: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i] == "; fuzz-reproducer v1")
            .collect();
        // A middle entry: its header up to the next entry's header.
        let (start, end) = (headers[headers.len() / 2], headers[headers.len() / 2 + 1]);
        let kept = lines[..start].iter().chain(&lines[end..]);
        let fresh: String = kept.map(|l| format!("{l}\n")).collect();
        let removed: Vec<String> = (start..end)
            .map(|i| {
                format!(
                    "BENCH_fuzz_corpus.txt line {}: {} -> missing",
                    i + 1,
                    lines[i]
                )
            })
            .collect();
        assert_eq!(
            check(
                "BENCH_fuzz_corpus.txt",
                Some(base.as_bytes()),
                Some(fresh.as_bytes())
            ),
            removed
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
