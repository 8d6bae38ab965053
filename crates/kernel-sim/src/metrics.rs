//! Lightweight runtime metrics: lock-free counters plus a log2-bucket
//! histogram sketch.
//!
//! Every [`crate::Kernel`] owns a [`Metrics`] instance; the extension
//! frameworks (interpreter and safe-ext runtime) and the fault plane
//! increment it on their hot paths with relaxed atomics, so recording
//! costs one `fetch_add` and never takes a lock. Snapshots are plain
//! values that merge associatively, which is what lets the sharded
//! dispatch engine sum per-shard kernels into one fleet-wide view.
//!
//! The histogram is a power-of-two sketch (HdrHistogram's coarsest
//! configuration): bucket `i` counts samples whose value has `i`
//! significant bits. That is deliberately crude — 2x resolution — but it
//! is enough to distinguish "a few hundred instructions" from "hit the
//! watchdog", merges by element-wise addition, and costs a single
//! `leading_zeros` per sample.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one per possible bit-length of a `u64`
/// sample (0..=64).
pub const HIST_BUCKETS: usize = 65;

/// Lock-free power-of-two histogram.
#[derive(Debug)]
pub struct HistSketch {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistSketch {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
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

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        // `fetch_max` is a compare-exchange loop on x86-64; most samples
        // do not raise the max, so test with a plain load first.
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the sketch.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
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
    pub runs: AtomicU64,
    /// Packet-shaped inputs dispatched.
    pub packets: AtomicU64,
    /// eBPF helper invocations.
    pub helper_calls: AtomicU64,
    /// Faults injected by an armed [`crate::FaultPlane`].
    pub fault_injections: AtomicU64,
    /// Extensions quarantined by the runtime's circuit breaker.
    pub quarantine_trips: AtomicU64,
    /// Tenant program loads through the tenancy control plane.
    pub tenant_loads: AtomicU64,
    /// Atomic hot upgrades (attachment-pointer swaps) performed.
    pub tenant_swaps: AtomicU64,
    /// Tenant program unloads (including the drained old version of a
    /// hot upgrade).
    pub tenant_unloads: AtomicU64,
    /// Allocations or map creations refused by a tenant quota.
    pub quota_rejections: AtomicU64,
    /// Transitions into a sandbox protection domain (program entry and
    /// each helper return).
    pub domain_entries: AtomicU64,
    /// Transitions out of a sandbox protection domain (program exit and
    /// each helper call).
    pub domain_exits: AtomicU64,
    /// SFI violations trapped by the sandbox lane (each aborts one run
    /// without an oops).
    pub domain_traps: AtomicU64,
    /// Probe-program invocations (kprobe/tracepoint hook fires).
    pub probe_fires: AtomicU64,
    /// Operations denied by an LSM-style policy hook (including
    /// fail-closed denials when the policy program was killed).
    pub policy_denies: AtomicU64,
    /// Scheduler pick-next-task decisions taken from an extension.
    pub sched_picks: AtomicU64,
    /// Scheduler picks that fell back to the default policy because the
    /// extension trapped, was killed, or returned an invalid choice.
    pub sched_fallbacks: AtomicU64,
    /// Per-run cost: instructions (interpreter) or fuel (safe-ext).
    pub run_cost: HistSketch,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed increment helper for the counter fields.
    pub fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter and the histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            runs: self.runs.load(Ordering::Relaxed),
            packets: self.packets.load(Ordering::Relaxed),
            helper_calls: self.helper_calls.load(Ordering::Relaxed),
            fault_injections: self.fault_injections.load(Ordering::Relaxed),
            quarantine_trips: self.quarantine_trips.load(Ordering::Relaxed),
            tenant_loads: self.tenant_loads.load(Ordering::Relaxed),
            tenant_swaps: self.tenant_swaps.load(Ordering::Relaxed),
            tenant_unloads: self.tenant_unloads.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
            domain_entries: self.domain_entries.load(Ordering::Relaxed),
            domain_exits: self.domain_exits.load(Ordering::Relaxed),
            domain_traps: self.domain_traps.load(Ordering::Relaxed),
            probe_fires: self.probe_fires.load(Ordering::Relaxed),
            policy_denies: self.policy_denies.load(Ordering::Relaxed),
            sched_picks: self.sched_picks.load(Ordering::Relaxed),
            sched_fallbacks: self.sched_fallbacks.load(Ordering::Relaxed),
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
    fn percentile_of_empty_is_zero() {
        assert_eq!(HistSnapshot::default().percentile(99), 0);
    }
}
