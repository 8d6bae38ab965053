//! Feature-growth ladder report: writes `BENCH_verifier.json`.
//!
//! One row per feature rung (base, bpf2bpf, tail_call, spin_lock,
//! ringbuf) with the verifier's cumulative states-explored, reject rate,
//! and simulated verification cost, against the simulated load cost of
//! the safe-ext equivalent and of the SFI sandbox lane (which loads
//! every program — including the intentional violations — and confines
//! them at runtime instead). All metrics are deterministic functions of
//! the program families and artifact bytes, so the CI regress stage
//! holds the report byte for byte.

use analysis::json::Obj;
use analysis::report;
use bench::ladder::run_ladder;

fn main() {
    report::main("verifier_ladder", "BENCH_verifier.json", full);
}

fn full(out: &str) {
    let rows: Vec<Obj> = run_ladder()
        .iter()
        .map(|r| {
            Obj::new()
                .str("feature", r.feature)
                .num("programs", r.programs)
                .num("accepted", r.accepted)
                .num("rejected", r.rejected)
                .num("states_explored", r.states_explored)
                .num("insns_processed", r.insns_processed)
                .fixed("reject_rate", r.reject_rate, 4)
                .num("verify_sim_ns", r.verify_sim_ns)
                .num("safe_ext_load_sim_ns", r.safe_ext_load_sim_ns)
                .num("sandbox_load_sim_ns", r.sandbox_load_sim_ns)
                .num("sandbox_ok", r.sandbox_ok)
                .num("sandbox_trapped", r.sandbox_trapped)
                .num("sandbox_aborted", r.sandbox_aborted)
        })
        .map(report::progress)
        .collect();
    report::write_report(out, &Obj::new(), "ladder", &rows);
}
