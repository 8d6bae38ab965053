//! Verification statistics.
//!
//! The verification-cost experiment (§2.1 "Verification is expensive")
//! reads these counters: instructions processed across all paths, states
//! explored and pruned, and peak tracked-state memory.

/// Counters accumulated during one verification run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifStats {
    /// Instructions processed across all explored paths.
    pub insns_processed: u64,
    /// Branch states pushed for later exploration.
    pub states_pushed: u64,
    /// States pruned by subsumption against a previously verified state.
    pub states_pruned: u64,
    /// Full state-subsumption checks run at pruning points (at most
    /// `max_states_per_insn` per processed instruction).
    pub subsumption_checks: u64,
    /// Peak number of states retained for pruning.
    pub peak_states: usize,
    /// `peak_states` times the size of a state's 56-byte header
    /// (`size_of::<VerifierState>()`), in bytes. The call frames the
    /// states point to, and share, are not counted.
    pub peak_state_bytes: usize,
    /// Speculation-hardening sanitations applied.
    pub spec_sanitations: u64,
    /// Memory accesses proven by `check_mem` (loads, stores, atomics).
    pub mem_accesses_checked: u64,
    /// Packet-range comparisons tracked by `check_packet`.
    pub packet_compares_checked: u64,
    /// Helper call sites checked by `check_call`.
    pub helper_calls_checked: u64,
    /// bpf2bpf call sites checked (callee frames pushed).
    pub subprog_calls_checked: u64,
    /// `bpf_tail_call` sites statically checked.
    pub tail_calls_checked: u64,
    /// Spin-lock critical sections entered (`bpf_spin_lock` accepted).
    pub lock_sections_entered: u64,
    /// Ringbuf reservations whose lifetimes were tracked.
    pub ringbuf_reservations_checked: u64,
    /// Host wall-clock time of verification, in nanoseconds.
    pub wall_ns: u128,
}

impl VerifStats {
    /// Fraction of pushed states that were pruned (0 when none pushed).
    pub fn prune_ratio(&self) -> f64 {
        if self.states_pushed == 0 {
            0.0
        } else {
            self.states_pruned as f64 / self.states_pushed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_ratio_handles_zero() {
        assert_eq!(VerifStats::default().prune_ratio(), 0.0);
        let s = VerifStats {
            states_pushed: 10,
            states_pruned: 5,
            ..VerifStats::default()
        };
        assert!((s.prune_ratio() - 0.5).abs() < 1e-9);
    }
}
