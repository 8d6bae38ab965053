//! Per-program verifier counts, pinned.
//!
//! `BENCH_verifier.json` holds only per-rung sums, so a change in the
//! order the verifier explores states can cancel out there. This suite
//! pins, for each of the ladder's programs, the verdict (or the check
//! and diagnostic that rejects it) and the exploration counts, and the
//! counts at every point of the §2.1 verification-cost sweep. A failure
//! names the program and both lines.

use bench::experiments::verification_cost_sweep;
use bench::ladder::rungs;
use ebpf::helpers::HelperRegistry;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::Program;
use kernel_sim::Kernel;
use verifier::Verifier;

/// One ladder program: `name: ok insns/pushed/pruned/peak_states`, or
/// `name: <check>: <diagnostic>` when it is rejected.
const LADDER: [&str; 23] = [
    "diamonds: ok 60/14/13/15",
    "packet-filter: ok 23/2/0/3",
    "uninit-read: check_mem: invalid read from uninitialized stack at fp-16 (insn 0)",
    "wild-deref: check_mem: invalid mem access at insn 2: cannot read through scalar",
    "call-chain: ok 45/0/0/7",
    "call-branchy: ok 30/1/0/6",
    "call-diamond-callee: ok 346/24/7/135",
    "call-chain: check_call: the call stack of 8 frames is too deep (insn 42)",
    "callee-leaks-fp: return: invalid return value at insn 4: subprogram returning fp",
    "tail-dispatch: ok 6/0/0/0",
    "tail-dispatch-branchy: ok 12/1/0/2",
    "tail-wrong-map: check_call: bpf_tail_call arg2 at insn 3: expected prog_array map, got Array",
    "tail-in-subprog: check_call: tail_call from a bpf2bpf subprogram (insn 5)",
    "lock-clean: ok 20/1/0/1",
    "lock-branchy: ok 86/7/0/28",
    "lock-helper-inside: check_lock: bpf_ktime_get_ns inside bpf_spin_lock section (insn 15)",
    "lock-no-unlock: check_lock: bpf_spin_lock is not released at exit (insn 16)",
    "lock-double: check_lock: second bpf_spin_lock while one is held (insn 16)",
    "ringbuf-submit: ok 16/1/0/1",
    "ringbuf-discard: ok 16/1/0/1",
    "ringbuf-branchy-close: ok 20/2/0/2",
    "ringbuf-leak: check_ref: Unreleased reference at exit (insn 6)",
    "ringbuf-submit-nonrecord: check_call: bpf_ringbuf_submit arg1 at insn 5: expected non-null ringbuf record, got fp",
];

/// One sweep point: `shape size: insns/pushed/pruned/peak_state_bytes`.
const SWEEP: [&str; 14] = [
    "straight-line 19: 19/0/0/0",
    "straight-line 67: 67/0/0/0",
    "straight-line 259: 259/0/0/0",
    "straight-line 1027: 1027/0/0/0",
    "straight-line 4099: 4099/0/0/0",
    "branch diamonds 15: 28/6/5/392",
    "branch diamonds 51: 124/30/29/1736",
    "branch diamonds 195: 508/126/125/7112",
    "branch diamonds 771: 2044/510/509/28616",
    "counted loop (x = trip count) 4: 16/0/0/224",
    "counted loop (x = trip count) 16: 52/0/0/896",
    "counted loop (x = trip count) 64: 196/0/0/3584",
    "counted loop (x = trip count) 256: 772/0/0/3584",
    "counted loop (x = trip count) 1024: 3076/0/0/3584",
];

fn ladder_line(verifier: &Verifier<'_>, prog: &Program) -> String {
    match verifier.verify(prog) {
        Ok(v) => {
            let s = v.stats;
            format!(
                "{}: ok {}/{}/{}/{}",
                prog.name, s.insns_processed, s.states_pushed, s.states_pruned, s.peak_states
            )
        }
        Err(e) => format!("{}: {}: {e}", prog.name, e.check().name()),
    }
}

fn check_lines(got: &[String], want: &[&str]) {
    assert_eq!(got.len(), want.len(), "line count: {got:#?}");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

#[test]
fn ladder_programs_keep_their_verdicts_and_counts() {
    // The ladder's map world, created in `run_ladder`'s order so the
    // programs embed the same fds.
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let arr_fd = maps
        .create(&kernel, MapDef::array("ladder-arr", 64, 4))
        .expect("array map");
    let prog_fd = maps
        .create(&kernel, MapDef::prog_array("ladder-progs", 4))
        .expect("prog array");
    let rb_fd = maps
        .create(&kernel, MapDef::ringbuf("ladder-rb", 4096))
        .expect("ringbuf");
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);

    let got: Vec<String> = rungs(arr_fd, prog_fd, rb_fd)
        .iter()
        .flat_map(|r| r.accepted.iter().chain(r.violations.iter().map(|(p, _)| p)))
        .map(|prog| ladder_line(&verifier, prog))
        .collect();
    check_lines(&got, &LADDER);
}

#[test]
fn cost_sweep_points_keep_their_counts() {
    let got: Vec<String> = verification_cost_sweep()
        .into_iter()
        .flat_map(|(shape, points)| {
            points.into_iter().map(move |p| {
                format!(
                    "{shape} {}: {}/{}/{}/{}",
                    p.prog_len,
                    p.insns_processed,
                    p.states_pushed,
                    p.states_pruned,
                    p.peak_state_bytes
                )
            })
        })
        .collect();
    check_lines(&got, &SWEEP);
}
