//! Seeded quarantine storms.
//!
//! A storm picks a deterministic set of victim tenants and a packet-index
//! window; inside the window, runs belonging to victims execute under an
//! aggressive fault-plane configuration whose injected RCU delays push
//! them past the watchdog deadline — so the victims' breakers trip while
//! every neighbor keeps serving. Victim choice and the window are pure
//! functions of the seed, which keeps the churn benchmark's canonical log
//! byte-identical at any shard count with the storm armed.

use kernel_sim::{splitmix64, FaultPlanConfig};

use crate::registry::TenantId;

/// A seeded quarantine storm: which tenants, and when.
#[derive(Debug, Clone)]
pub struct Storm {
    victims: Vec<TenantId>,
    window: (u64, u64),
}

impl Storm {
    /// Selects `victims` distinct victim tenants out of `tenants` and a
    /// storm window of packet indexes `[window.0, window.1)`, all derived
    /// from `seed`.
    pub fn seeded(seed: u64, tenants: u32, victims: u32, window: (u64, u64)) -> Self {
        let mut chosen = Vec::new();
        let mut i = 0u64;
        while (chosen.len() as u32) < victims.min(tenants) {
            let candidate = (splitmix64(seed ^ i.wrapping_mul(0xff51_afd7_ed55_8ccd))
                % tenants as u64) as TenantId;
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
            i += 1;
        }
        chosen.sort_unstable();
        Storm {
            victims: chosen,
            window,
        }
    }

    /// The victim tenants, ascending.
    pub fn victims(&self) -> &[TenantId] {
        &self.victims
    }

    /// Whether `tenant` is a storm victim.
    pub fn is_victim(&self, tenant: TenantId) -> bool {
        self.victims.binary_search(&tenant).is_ok()
    }

    /// Whether the storm is active at global packet index `idx`.
    pub fn active_at(&self, idx: u64) -> bool {
        idx >= self.window.0 && idx < self.window.1
    }

    /// Whether packet `idx` belonging to `tenant` runs under the storm
    /// fault configuration.
    pub fn targets(&self, tenant: TenantId, idx: u64) -> bool {
        self.active_at(idx) && self.is_victim(tenant)
    }
}

/// The fault-plane configuration a storm arms for a targeted run: every
/// RCU read-side entry draws a large injected delay, which advances the
/// virtual clock far enough that the safe runtime's deadline watchdog
/// (and the eBPF lane's injected-fault paths) kill the run. Everything
/// else stays quiet so the kill is attributable to the storm alone.
pub fn storm_fault_config() -> FaultPlanConfig {
    FaultPlanConfig {
        rcu_delay_rate: 1.0,
        // One injected delay must overshoot the default 100ms deadline on
        // its own: the delay is drawn in [1, max], so make the floor of a
        // typical draw comfortably larger than the deadline.
        rcu_delay_max_ns: 400_000_000,
        ..FaultPlanConfig::quiet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_selection_is_deterministic_and_distinct() {
        let a = Storm::seeded(7, 100, 5, (10, 50));
        let b = Storm::seeded(7, 100, 5, (10, 50));
        assert_eq!(a.victims(), b.victims());
        assert_eq!(a.victims().len(), 5);
        let mut dedup = a.victims().to_vec();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "victims must be distinct");
        // A different seed picks a different set somewhere.
        assert!((0..64u64).any(|s| Storm::seeded(s, 100, 5, (0, 1)).victims() != a.victims()));
    }

    #[test]
    fn targeting_respects_window_and_victims() {
        let storm = Storm::seeded(3, 10, 2, (100, 200));
        let victim = storm.victims()[0];
        let bystander = (0..10).find(|t| !storm.is_victim(*t)).unwrap();
        assert!(storm.targets(victim, 100));
        assert!(storm.targets(victim, 199));
        assert!(!storm.targets(victim, 99));
        assert!(!storm.targets(victim, 200));
        assert!(!storm.targets(bystander, 150));
    }

    #[test]
    fn more_victims_than_tenants_saturates() {
        let storm = Storm::seeded(1, 3, 10, (0, 1));
        assert_eq!(storm.victims().len(), 3);
    }
}
