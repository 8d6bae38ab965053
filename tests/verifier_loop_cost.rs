//! The verifier's loop check does a bounded amount of work per processed
//! instruction.
//!
//! A counted loop of N trips meets its head N times, each time with a new
//! counter value. Checking each visit against every earlier one would
//! cost O(N²) state comparisons; checking it against the at most
//! `max_states_per_insn` states recorded at the head costs at most that
//! many per processed instruction, whatever N is.

use bench::workloads::counted_loop;
use ebpf::helpers::HelperRegistry;
use ebpf::maps::MapRegistry;
use verifier::{Verifier, VerifierLimits};

#[test]
fn counted_loop_subsumption_checks_stay_linear_in_processed_insns() {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let limits = VerifierLimits::unprivileged();
    let verifier = Verifier::new(&maps, &helpers).with_limits(limits);
    // 32,768 trips is the largest power of two within the unprivileged
    // budget of processed instructions.
    for trips in [4, 256, 4_096, 32_768] {
        let stats = verifier
            .verify(&counted_loop(trips))
            .unwrap_or_else(|e| panic!("{trips} trips must verify: {e}"))
            .stats;
        assert!(
            stats.insns_processed > 3 * trips as u64,
            "{trips}: {stats:?}"
        );
        let bound = limits.max_states_per_insn as u64 * stats.insns_processed;
        assert!(
            stats.subsumption_checks <= bound,
            "{trips} trips: {} subsumption checks over {} processed insns",
            stats.subsumption_checks,
            stats.insns_processed
        );
    }
}
