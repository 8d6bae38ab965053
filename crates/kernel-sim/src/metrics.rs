//! Lightweight runtime metrics: per-kernel counters plus a log2-bucket
//! histogram sketch.
//!
//! Every [`crate::Kernel`] owns a [`Metrics`] instance; the extension
//! frameworks (interpreter and safe-ext runtime) and the fault plane
//! increment it on their hot paths. A kernel has one owner, so each
//! counter is a plain `Cell<u64>`: recording is one add, with no lock
//! and no locked instruction, and wraps at `u64::MAX`. Snapshots are
//! plain values that merge associatively, which is what lets the sharded
//! dispatch engine sum per-shard kernels into one fleet-wide view.
//!
//! The histogram is a power-of-two sketch (HdrHistogram's coarsest
//! configuration): bucket `i` counts samples whose value has `i`
//! significant bits. That is deliberately crude — 2x resolution — but it
//! is enough to distinguish "a few hundred instructions" from "hit the
//! watchdog", merges by element-wise addition, and costs a single
//! `leading_zeros` per sample.

use std::cell::Cell;

/// Number of histogram buckets: one per possible bit-length of a `u64`
/// sample (0..=64).
pub const HIST_BUCKETS: usize = 65;

/// Power-of-two histogram, owned by one kernel.
#[derive(Debug)]
pub struct HistSketch {
    buckets: [Cell<u64>; HIST_BUCKETS],
    count: Cell<u64>,
    sum: Cell<u64>,
    max: Cell<u64>,
}

impl Default for HistSketch {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            count: Cell::new(0),
            sum: Cell::new(0),
            max: Cell::new(0),
        }
    }
}

/// Bucket index (bit-length) of a sample: the hook layer's histogram
/// helper returns this to programs, so it is part of the public contract.
pub fn bucket_of(value: u64) -> usize {
    64 - value.leading_zeros() as usize
}

impl HistSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. The sum wraps at `u64::MAX`.
    pub fn record(&self, value: u64) {
        Metrics::bump(&self.buckets[bucket_of(value)], 1);
        Metrics::bump(&self.count, 1);
        Metrics::bump(&self.sum, value);
        self.max.set(self.max.get().max(value));
    }

    /// A point-in-time copy of the sketch.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].get()),
            count: self.count.get(),
            sum: self.sum.get(),
            max: self.max.get(),
        }
    }
}

/// Immutable copy of a [`HistSketch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket `i` holds values of bit-length `i`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Adds `other` into `self` (element-wise; exact, not approximate).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean sample value, or 0 for an empty sketch.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `p`-th percentile sample
    /// (`p` in 0..=100), or 0 for an empty sketch. Accurate to the
    /// bucket's power-of-two range.
    pub fn percentile(&self, p: u8) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count as u128 * p as u128).div_ceil(100).max(1) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values in [2^(i-1), 2^i - 1] (bucket 0: {0}).
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        self.max
    }
}

/// The per-kernel metrics surface: counters for the events the paper's
/// evaluation cares about, plus a cost histogram per framework run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Extension executions (interpreter runs + safe-ext runs).
    pub runs: Cell<u64>,
    /// Packet-shaped inputs dispatched.
    pub packets: Cell<u64>,
    /// eBPF helper invocations.
    pub helper_calls: Cell<u64>,
    /// Faults injected by an armed [`crate::FaultPlane`].
    pub fault_injections: Cell<u64>,
    /// Extensions quarantined by the runtime's circuit breaker.
    pub quarantine_trips: Cell<u64>,
    /// Tenant program loads through the tenancy control plane.
    pub tenant_loads: Cell<u64>,
    /// Atomic hot upgrades (attachment-pointer swaps) performed.
    pub tenant_swaps: Cell<u64>,
    /// Tenant program unloads (including the drained old version of a
    /// hot upgrade).
    pub tenant_unloads: Cell<u64>,
    /// Allocations or map creations refused by a tenant quota.
    pub quota_rejections: Cell<u64>,
    /// Transitions into a sandbox protection domain (program entry and
    /// each helper return).
    pub domain_entries: Cell<u64>,
    /// Transitions out of a sandbox protection domain (program exit and
    /// each helper call).
    pub domain_exits: Cell<u64>,
    /// SFI violations trapped by the sandbox lane (each aborts one run
    /// without an oops).
    pub domain_traps: Cell<u64>,
    /// Probe-program invocations (kprobe/tracepoint hook fires).
    pub probe_fires: Cell<u64>,
    /// Operations denied by an LSM-style policy hook (including
    /// fail-closed denials when the policy program was killed).
    pub policy_denies: Cell<u64>,
    /// Scheduler pick-next-task decisions taken from an extension.
    pub sched_picks: Cell<u64>,
    /// Scheduler picks that fell back to the default policy because the
    /// extension trapped, was killed, or returned an invalid choice.
    pub sched_fallbacks: Cell<u64>,
    /// Per-run cost: instructions (interpreter) or fuel (safe-ext).
    pub run_cost: HistSketch,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to a counter field, wrapping at `u64::MAX`.
    pub fn bump(counter: &Cell<u64>, by: u64) {
        counter.set(counter.get().wrapping_add(by));
    }

    /// A point-in-time copy of every counter and the histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: self.runs.get(),
            packets: self.packets.get(),
            helper_calls: self.helper_calls.get(),
            fault_injections: self.fault_injections.get(),
            quarantine_trips: self.quarantine_trips.get(),
            tenant_loads: self.tenant_loads.get(),
            tenant_swaps: self.tenant_swaps.get(),
            tenant_unloads: self.tenant_unloads.get(),
            quota_rejections: self.quota_rejections.get(),
            domain_entries: self.domain_entries.get(),
            domain_exits: self.domain_exits.get(),
            domain_traps: self.domain_traps.get(),
            probe_fires: self.probe_fires.get(),
            policy_denies: self.policy_denies.get(),
            sched_picks: self.sched_picks.get(),
            sched_fallbacks: self.sched_fallbacks.get(),
            run_cost: self.run_cost.snapshot(),
        }
    }
}

/// Immutable, mergeable copy of a [`Metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::runs`].
    pub runs: u64,
    /// See [`Metrics::packets`].
    pub packets: u64,
    /// See [`Metrics::helper_calls`].
    pub helper_calls: u64,
    /// See [`Metrics::fault_injections`].
    pub fault_injections: u64,
    /// See [`Metrics::quarantine_trips`].
    pub quarantine_trips: u64,
    /// See [`Metrics::tenant_loads`].
    pub tenant_loads: u64,
    /// See [`Metrics::tenant_swaps`].
    pub tenant_swaps: u64,
    /// See [`Metrics::tenant_unloads`].
    pub tenant_unloads: u64,
    /// See [`Metrics::quota_rejections`].
    pub quota_rejections: u64,
    /// See [`Metrics::domain_entries`].
    pub domain_entries: u64,
    /// See [`Metrics::domain_exits`].
    pub domain_exits: u64,
    /// See [`Metrics::domain_traps`].
    pub domain_traps: u64,
    /// See [`Metrics::probe_fires`].
    pub probe_fires: u64,
    /// See [`Metrics::policy_denies`].
    pub policy_denies: u64,
    /// See [`Metrics::sched_picks`].
    pub sched_picks: u64,
    /// See [`Metrics::sched_fallbacks`].
    pub sched_fallbacks: u64,
    /// See [`Metrics::run_cost`].
    pub run_cost: HistSnapshot,
}

impl MetricsSnapshot {
    /// Adds `other` into `self`; summing per-shard snapshots in any order
    /// yields the same fleet-wide totals.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.runs += other.runs;
        self.packets += other.packets;
        self.helper_calls += other.helper_calls;
        self.fault_injections += other.fault_injections;
        self.quarantine_trips += other.quarantine_trips;
        self.tenant_loads += other.tenant_loads;
        self.tenant_swaps += other.tenant_swaps;
        self.tenant_unloads += other.tenant_unloads;
        self.quota_rejections += other.quota_rejections;
        self.domain_entries += other.domain_entries;
        self.domain_exits += other.domain_exits;
        self.domain_traps += other.domain_traps;
        self.probe_fires += other.probe_fires;
        self.policy_denies += other.policy_denies;
        self.sched_picks += other.sched_picks;
        self.sched_fallbacks += other.sched_fallbacks;
        self.run_cost.merge(&other.run_cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_records_and_summarizes() {
        let h = HistSketch::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 184);
        assert_eq!(s.buckets[0], 1); // the 0 sample
        assert_eq!(s.buckets[2], 2); // 2 and 3
                                     // p100 lands in 1000's bucket: values up to 2^10 - 1.
        assert_eq!(s.percentile(100), 1023);
        assert_eq!(s.percentile(1), 0);

        // Samples that do not raise the max leave it alone and still count.
        for v in [1000u64, 999, 5, 1000, 0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 11);
        assert_eq!(s.sum, 1106 + 3004);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 2);
    }

    #[test]
    fn snapshots_merge_exactly() {
        let a = HistSketch::new();
        let b = HistSketch::new();
        let whole = HistSketch::new();
        for v in 0..100u64 {
            if v % 2 == 0 { &a } else { &b }.record(v);
            whole.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn metrics_snapshot_merges_counters() {
        let m = Metrics::new();
        Metrics::bump(&m.runs, 3);
        Metrics::bump(&m.packets, 2);
        Metrics::bump(&m.helper_calls, 10);
        m.run_cost.record(40);
        let mut total = m.snapshot();
        total.merge(&m.snapshot());
        assert_eq!(total.runs, 6);
        assert_eq!(total.packets, 4);
        assert_eq!(total.helper_calls, 20);
        assert_eq!(total.run_cost.count, 2);
    }

    #[test]
    fn histogram_sum_wraps_at_the_top_of_the_range() {
        let h = HistSketch::new();
        h.record(u64::MAX);
        h.record(2);
        let s = h.snapshot();
        assert_eq!(s.sum, 1);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn bump_wraps_at_the_top_of_the_range() {
        let m = Metrics::new();
        Metrics::bump(&m.runs, u64::MAX);
        Metrics::bump(&m.runs, 2);
        assert_eq!(m.snapshot().runs, 1);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(HistSnapshot::default().percentile(99), 0);
    }
}
