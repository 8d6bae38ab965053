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
use bench::cli;
use bench::ladder::run_ladder;

fn main() {
    cli::main("verifier_ladder", "BENCH_verifier.json", full);
}

fn full(out: &str) {
    let rows = run_ladder();
    for r in &rows {
        println!(
            "{:>10} programs={:>2} states={:>5} reject_rate={:.2} verify_sim={:>7}ns ext_load_sim={:>4}ns sandbox_load_sim={:>4}ns sandbox ok/trap/abort={}/{}/{}",
            r.feature, r.programs, r.states_explored, r.reject_rate, r.verify_sim_ns,
            r.safe_ext_load_sim_ns, r.sandbox_load_sim_ns, r.sandbox_ok, r.sandbox_trapped,
            r.sandbox_aborted,
        );
    }
    let objs: Vec<Obj> = rows
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
        .collect();
    cli::write_report(out, &Obj::new(), "ladder", &objs);
}
