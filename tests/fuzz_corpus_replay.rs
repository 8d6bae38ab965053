//! Reproducer replay: every entry of the committed store,
//! `BENCH_fuzz_corpus.txt`, is re-judged on each `cargo test`.
//!
//! The store opens with `BENCH_fuzz.json`'s shrunk disagreements
//! (unsoundness candidates, incompleteness witnesses) and ends with two
//! picks per feature-ladder shape. If a verifier or interpreter change
//! flips any entry's recorded bucket, this suite fails and names the
//! seed, so a fixed bug silently un-fixed or a witness silently
//! accepted fails tier-1 CI. It also holds the store to the report's
//! `shrunk` rows; `bugdb_replay` holds the rest of each recorded
//! verdict, sandbox confinement and the store's metadata.

use std::path::Path;

use analysis::json::{self, Json};
use fuzz::corpus::{parse_store, Reproducer, FEATURE_SHAPES, LADDER_PICKS};
use fuzz::oracle::{Bucket, Lane, Oracle, RuntimeClass};
use fuzz::Shape;

const STORE: &str = "BENCH_fuzz_corpus.txt";

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn store() -> Vec<Reproducer> {
    parse_store(&committed(STORE)).unwrap_or_else(|e| panic!("{STORE}: {e}"))
}

/// Names an entry in a failure message.
fn who(r: &Reproducer) -> String {
    format!("{STORE}: seed {} ({} lane)", r.seed, r.lane.name())
}

/// An entry's, or a `shrunk` row's, identity: seed, shape, lane, bucket
/// and slot count.
type Key = (u64, Shape, Lane, Bucket, usize);

fn key(r: &Reproducer) -> Key {
    (r.seed, r.shape, r.lane, r.bucket, r.insns.len())
}

/// `BENCH_fuzz.json`'s `shrunk` rows, in report order.
fn shrunk_rows() -> Vec<Key> {
    let report = json::parse(&committed("BENCH_fuzz.json")).expect("BENCH_fuzz.json parses");
    let Some(Json::Arr(rows)) = report.get("shrunk") else {
        panic!("BENCH_fuzz.json has no `shrunk` array");
    };
    let row_key = |row: &Json| -> Option<Key> {
        let field = |k| row.get(k).map(|v| v.to_string().replace('"', ""));
        Some((
            field("seed")?.parse().ok()?,
            Shape::from_name(&field("shape")?)?,
            Lane::from_name(&field("lane")?)?,
            Bucket::from_name(&field("bucket")?)?,
            field("insns_after")?.parse().ok()?,
        ))
    };
    rows.iter()
        .map(|row| row_key(row).unwrap_or_else(|| panic!("bad shrunk row {row}")))
        .collect()
}

#[test]
fn corpus_is_checked_in_and_nonempty() {
    let store = store();
    // Both disagreement families must be represented.
    for bucket in [Bucket::UnsoundnessCandidate, Bucket::IncompletenessWitness] {
        assert!(
            store.iter().any(|r| r.bucket == bucket),
            "{STORE}: no {} entry",
            bucket.name()
        );
    }
}

#[test]
fn every_reproducer_replays_to_its_recorded_bucket() {
    let oracle = Oracle::new();
    for r in store() {
        let obs = r.replay(&oracle);
        assert_eq!(
            obs.bucket,
            r.bucket,
            "{}: bucket drifted from the recorded verdict (runtime {:?})",
            who(&r),
            obs.runtime
        );
    }
}

#[test]
fn unsoundness_candidates_are_rejected_by_the_patched_verifier() {
    // Every program the shipped verifier wrongly accepts (and that then
    // traps) must be caught by the lane with the CVE fixes applied —
    // otherwise the "candidate" is a real hole in the patched verifier.
    let oracle = Oracle::new();
    let mut seen = 0;
    for r in store() {
        if r.bucket != Bucket::UnsoundnessCandidate {
            continue;
        }
        seen += 1;
        assert_eq!(r.lane, Lane::Shipped, "{}", who(&r));
        assert_eq!(r.replay(&oracle).runtime, RuntimeClass::Trap, "{}", who(&r));
        let patched = oracle.verdict(&r.insns, r.shape.prog_type(), Lane::Patched);
        assert!(
            patched.is_err(),
            "{}: patched verifier also accepts this trapping program",
            who(&r)
        );
    }
    assert!(seen > 0, "no unsoundness candidates to exercise");
}

#[test]
fn store_opens_with_the_fuzz_reports_shrunk_rows() {
    let (store, rows) = (store(), shrunk_rows());
    for row in &rows {
        let hits = store.iter().filter(|r| key(r) == *row).count();
        assert_eq!(
            hits, 1,
            "BENCH_fuzz.json shrunk row {row:?}: {hits} entries in {STORE}"
        );
    }
    assert!(
        store.len() >= rows.len(),
        "{STORE} is shorter than the shrunk rows"
    );
    let (shrunk, ladder) = store.split_at(rows.len());
    assert_eq!(
        shrunk.iter().map(key).collect::<Vec<_>>(),
        rows,
        "{STORE} must open with BENCH_fuzz.json's shrunk rows, in report order"
    );
    // Every other entry is a ladder pick.
    for r in ladder {
        assert!(
            FEATURE_SHAPES.contains(&r.shape),
            "{}: a {} {} that is in no shrunk row",
            who(r),
            r.shape.name(),
            r.bucket.name()
        );
    }
    for shape in FEATURE_SHAPES {
        let picks = ladder.iter().filter(|r| r.shape == shape).count();
        assert!(
            picks <= LADDER_PICKS,
            "{STORE}: {picks} {} picks",
            shape.name()
        );
    }
}
