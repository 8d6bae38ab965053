//! Bug-bank replay: every entry of the reproducer store,
//! `BENCH_fuzz_corpus.txt`, is re-judged on each `cargo test` against
//! the complete verdict recorded when it was shrunk.
//!
//! The store ends with two picks per feature-ladder shape (bpf2bpf,
//! tail calls, spin locks, ringbuf reservations), the bug bank. This
//! suite checks that the bank covers every ladder feature, that each
//! entry's reject check, runtime class and trap replay, that the
//! sandbox lane confines each entry, and that the store's metadata is
//! consistent, so the state-explosion ladder's evidence cannot silently
//! rot. `fuzz_corpus_replay` holds the store's bucket and fuzz-report
//! checks.

use std::path::Path;

use bench::ladder::{rungs, sandbox_outcome, SandboxOutcome};
use ebpf::maps::{MapDef, MapRegistry};
use fuzz::corpus::{parse_store, render_store, Reproducer, FEATURE_SHAPES};
use fuzz::oracle::{Bucket, Oracle, RuntimeClass};
use kernel_sim::Kernel;

const STORE: &str = "BENCH_fuzz_corpus.txt";

fn committed() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(STORE);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{STORE}: {e}"))
}

fn store() -> Vec<Reproducer> {
    parse_store(&committed()).unwrap_or_else(|e| panic!("{STORE}: {e}"))
}

/// Names an entry in a failure message.
fn who(r: &Reproducer) -> String {
    format!("{STORE}: seed {} ({} lane)", r.seed, r.lane.name())
}

#[test]
fn database_is_checked_in_and_covers_every_ladder_feature() {
    let store = store();
    for shape in FEATURE_SHAPES {
        assert!(
            store.iter().any(|r| r.shape == shape),
            "{STORE}: no entry for ladder shape {}",
            shape.name()
        );
    }
}

#[test]
fn every_stored_bug_replays_to_its_recorded_verdict() {
    let oracle = Oracle::new();
    for r in store() {
        let obs = r.replay(&oracle);
        assert_eq!(
            (obs.check, obs.runtime, obs.trap.as_deref()),
            (r.check, r.runtime, r.trap.as_deref()),
            "{}: reject check, runtime class or trap drifted from the recorded verdict",
            who(&r)
        );
    }
}

#[test]
fn every_stored_bug_is_confined_by_the_sandbox_lane() {
    // Each reproducer also goes through the third backend: loaded
    // unverified into an SFI domain. Whatever the program does, the
    // sandbox must keep its confinement promise — no oops, balanced
    // domain crossings. The sandbox runtime class is a diagnostic (it
    // legitimately differs from the verified lane's: traps replace
    // oopses).
    let oracle = Oracle::new();
    for r in store() {
        let probe = oracle.probe(&r.insns, r.shape.prog_type());
        assert!(
            probe.sandbox_confined,
            "{}: sandbox lane broke confinement (oops or unbalanced crossings)",
            who(&r)
        );
        // A program the verified lane judged safe must also be safe
        // sandboxed — the mask is the identity on well-behaved runs.
        if probe.class == RuntimeClass::Safe {
            assert_eq!(
                probe.sandbox_class,
                RuntimeClass::Safe,
                "{}: safe program misbehaved under the sandbox",
                who(&r)
            );
        }
    }
}

#[test]
fn ladder_violations_have_pinned_sandbox_outcomes() {
    // The ladder's 11 intentional violations are the repo's CVE-gadget
    // corpus: every one is rejected by the verifier at load, and every
    // one *loads* into the sandbox lane. This pins what each then does
    // at run time, so a sandbox-check change that silently flips a
    // confinement outcome fails here by name.
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let fd = |def| maps.create(&kernel, def).unwrap();
    let arr_fd = fd(MapDef::array("ladder-arr", 64, 4));
    let prog_fd = fd(MapDef::prog_array("ladder-progs", 4));
    let rb_fd = fd(MapDef::ringbuf("ladder-rb", 4096));

    let expected: &[(&str, SandboxOutcome)] = &[
        ("uninit-read", SandboxOutcome::Ok),
        ("wild-deref", SandboxOutcome::Trapped),
        ("call-chain", SandboxOutcome::Aborted),
        ("callee-leaks-fp", SandboxOutcome::Ok),
        ("tail-wrong-map", SandboxOutcome::Ok),
        ("tail-in-subprog", SandboxOutcome::Aborted),
        ("lock-helper-inside", SandboxOutcome::Ok),
        ("lock-no-unlock", SandboxOutcome::Ok),
        ("lock-double", SandboxOutcome::Ok),
        ("ringbuf-leak", SandboxOutcome::Ok),
        ("ringbuf-submit-nonrecord", SandboxOutcome::Ok),
    ];

    let violations: Vec<_> = rungs(arr_fd, prog_fd, rb_fd)
        .into_iter()
        .flat_map(|r| r.violations)
        .collect();
    assert_eq!(
        violations.len(),
        expected.len(),
        "violation corpus changed size; re-pin the sandbox outcomes"
    );
    for (prog, _check) in &violations {
        let want = expected
            .iter()
            .find(|(name, _)| *name == prog.name)
            .unwrap_or_else(|| panic!("no pinned sandbox outcome for violation {}", prog.name))
            .1;
        assert_eq!(
            sandbox_outcome(prog),
            want,
            "{}: sandbox outcome drifted",
            prog.name
        );
    }
}

#[test]
fn stored_metadata_is_internally_consistent() {
    let store = store();
    // The text round-trips, so regenerating the store cannot reformat
    // entries that did not actually change.
    assert_eq!(render_store(&store), committed(), "{STORE} re-renders");
    for (i, r) in store.iter().enumerate() {
        assert!(
            !store[..i]
                .iter()
                .any(|o| (o.seed, o.lane) == (r.seed, r.lane)),
            "{}: stored twice",
            who(r)
        );
        let bucket = match (r.check.is_none(), r.runtime) {
            (true, RuntimeClass::Safe) => Bucket::AcceptSafe,
            (true, RuntimeClass::Undecided) => Bucket::AcceptUndecided,
            (true, RuntimeClass::Trap) => Bucket::UnsoundnessCandidate,
            (false, RuntimeClass::Safe) => Bucket::IncompletenessWitness,
            (false, RuntimeClass::Undecided) => Bucket::RejectUndecided,
            (false, RuntimeClass::Trap) => Bucket::RejectTrap,
        };
        assert_eq!(
            r.bucket,
            bucket,
            "{}: bucket contradicts check and runtime",
            who(r)
        );
        assert_eq!(
            r.trap.is_some(),
            r.runtime == RuntimeClass::Trap,
            "{}: a trap note goes with a trapping runtime",
            who(r)
        );
        assert!(
            r.bucket.is_disagreement() || r.check.is_some(),
            "{}: neither a disagreement nor a reject",
            who(r)
        );
    }
}
