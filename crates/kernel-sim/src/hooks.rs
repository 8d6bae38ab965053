//! Hook-point substrate: probe points, policy hooks, and the scheduler
//! board.
//!
//! The paper's §2 argument is that eBPF's untenability compounds as the
//! hook surface grows beyond packet processing. This module is the
//! kernel-side half of that growth: three hook-point families the
//! extension frameworks attach to.
//!
//! * **Probe points** ([`ProbePoint`]) — kprobe/tracepoint-style
//!   observability. Rather than invoking callbacks from inside the
//!   substrate (re-entrant inside the subsystems' borrows), the probe
//!   source is the trace layer's event stream: the hook engine drains the
//!   [`crate::Tracer`] ring and maps events to probe points with
//!   [`ProbePoint::from_trace`]. Probe programs aggregate into the
//!   per-CPU log2 histograms held by [`HookHists`].
//! * **Policy hooks** ([`LsmHook`]) — LSM-style gates over simulated
//!   map-create / prog-load / fd-access operations. The control plane
//!   runs the attached policy program and honors its allow/deny verdict,
//!   failing closed when the program is killed.
//! * **Scheduler board** ([`SchedBoard`]) — a sched-ext-style
//!   pick-next-task surface over the simulated CPUs. The board exposes
//!   the two lowest-vruntime candidates; the extension picks one (or
//!   defers to the default policy), and the caller falls back to the
//!   default pick when the extension traps or exceeds its deadline.
//!
//! Everything here is deterministic u64 arithmetic: no wall clock, no
//! per-kernel ids in any value a program can observe, so canonical logs
//! built over these hooks stay byte-identical at any shard count.

use crate::metrics::{bucket_of, HistSketch, HistSnapshot};
use crate::trace::{SpanKind, SpanPhase, TraceEvent};

/// Number of histogram slots per CPU exposed to probe programs via the
/// `hist_record`/`hist_read` helpers.
pub const HIST_SLOTS: usize = 4;

/// A kernel event a probe program can attach to.
///
/// The stable `id` is what programs see in their context; it must never
/// change once assigned (canonical logs and stored baselines embed it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProbePoint {
    /// A spinlock was acquired.
    LockAcquire,
    /// An RCU grace period completed.
    RcuGrace,
    /// A reference count was dropped (`put`).
    RefDrop,
    /// An skb was allocated.
    SkbAlloc,
    /// An skb was freed.
    SkbFree,
}

impl ProbePoint {
    /// Every probe point, in stable id order.
    pub const ALL: [ProbePoint; 5] = [
        ProbePoint::LockAcquire,
        ProbePoint::RcuGrace,
        ProbePoint::RefDrop,
        ProbePoint::SkbAlloc,
        ProbePoint::SkbFree,
    ];

    /// Stable numeric id (the first ctx register of a probe program).
    pub fn id(&self) -> u64 {
        match self {
            ProbePoint::LockAcquire => 0,
            ProbePoint::RcuGrace => 1,
            ProbePoint::RefDrop => 2,
            ProbePoint::SkbAlloc => 3,
            ProbePoint::SkbFree => 4,
        }
    }

    /// Short stable label used in canonical logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ProbePoint::LockAcquire => "lock-acquire",
            ProbePoint::RcuGrace => "rcu-grace",
            ProbePoint::RefDrop => "ref-drop",
            ProbePoint::SkbAlloc => "skb-alloc",
            ProbePoint::SkbFree => "skb-free",
        }
    }

    /// Maps a drained trace event to the probe point it fires, if any.
    ///
    /// Only instants map: span-shaped events (RCU read sections, prog
    /// runs) describe durations, and firing a probe at both edges would
    /// double-count them.
    pub fn from_trace(ev: &TraceEvent) -> Option<ProbePoint> {
        if ev.phase != SpanPhase::Instant {
            return None;
        }
        match (ev.kind, ev.arg) {
            (SpanKind::LockOp, 0) => Some(ProbePoint::LockAcquire),
            (SpanKind::RcuGrace, _) => Some(ProbePoint::RcuGrace),
            (SpanKind::RefOp, 1) => Some(ProbePoint::RefDrop),
            (SpanKind::SkbLife, 0) => Some(ProbePoint::SkbAlloc),
            (SpanKind::SkbLife, 1) => Some(ProbePoint::SkbFree),
            _ => None,
        }
    }
}

/// Per-CPU log2 histograms probe programs aggregate into.
///
/// One bank of [`HIST_SLOTS`] sketches per simulated CPU. Recording
/// returns the bucket index — a pure function of the value, so programs
/// can fold it into their return value without breaking determinism.
/// Reads are per-CPU (and therefore shard-local); only the
/// [`HookHists::merged`] snapshot is shard-count invariant.
#[derive(Debug)]
pub struct HookHists {
    per_cpu: Vec<[HistSketch; HIST_SLOTS]>,
}

impl HookHists {
    /// Creates empty banks for `nr_cpus` CPUs (minimum 1).
    pub fn new(nr_cpus: usize) -> Self {
        HookHists {
            per_cpu: (0..nr_cpus.max(1))
                .map(|_| std::array::from_fn(|_| HistSketch::new()))
                .collect(),
        }
    }

    fn bank(&self, cpu: usize) -> &[HistSketch; HIST_SLOTS] {
        &self.per_cpu[cpu % self.per_cpu.len()]
    }

    /// Records `value` into `slot` on `cpu`; returns the bucket index.
    /// Out-of-range slots are clamped into the bank (the helper layer
    /// masks before calling, this is defense in depth).
    pub fn record(&self, cpu: usize, slot: usize, value: u64) -> u64 {
        self.bank(cpu)[slot % HIST_SLOTS].record(value);
        bucket_of(value) as u64
    }

    /// Count in `bucket` of `slot` on `cpu` (shard-local: two kernels
    /// pinned to different CPUs see different banks).
    pub fn read(&self, cpu: usize, slot: usize, bucket: usize) -> u64 {
        let snap = self.bank(cpu)[slot % HIST_SLOTS].snapshot();
        snap.buckets.get(bucket).copied().unwrap_or(0)
    }

    /// Merged snapshot of `slot` across every CPU bank. Summing the
    /// merged snapshots of per-shard kernels yields fleet totals that do
    /// not depend on the shard count.
    pub fn merged(&self, slot: usize) -> HistSnapshot {
        let mut total = HistSnapshot::default();
        for bank in &self.per_cpu {
            total.merge(&bank[slot % HIST_SLOTS].snapshot());
        }
        total
    }
}

/// A simulated operation gated by an LSM-style policy hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LsmHook {
    /// Creating a map.
    MapCreate,
    /// Loading a program.
    ProgLoad,
    /// Accessing a file descriptor.
    FdAccess,
}

impl LsmHook {
    /// Every hook, in stable id order.
    pub const ALL: [LsmHook; 3] = [LsmHook::MapCreate, LsmHook::ProgLoad, LsmHook::FdAccess];

    /// Stable numeric id (the first ctx field of a policy program).
    pub fn id(&self) -> u64 {
        match self {
            LsmHook::MapCreate => 0,
            LsmHook::ProgLoad => 1,
            LsmHook::FdAccess => 2,
        }
    }

    /// Short stable label used in canonical logs and audit records.
    pub fn label(&self) -> &'static str {
        match self {
            LsmHook::MapCreate => "map-create",
            LsmHook::ProgLoad => "prog-load",
            LsmHook::FdAccess => "fd-access",
        }
    }

    /// Hook with numeric id `id`.
    pub fn from_id(id: u64) -> Option<LsmHook> {
        LsmHook::ALL.into_iter().find(|h| h.id() == id)
    }
}

/// Return-value contract of a policy program: 0 allows, 1 denies.
/// Anything else is unreachable for verified programs (the verifier
/// bounds LSM returns to `[0, 1]`) and treated as deny for the other
/// backends (fail closed).
pub const LSM_ALLOW: u64 = 0;
/// See [`LSM_ALLOW`].
pub const LSM_DENY: u64 = 1;

/// One runnable task on the scheduler board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedTask {
    /// Stable task id (logical, not a pid).
    pub id: u64,
    /// Accumulated virtual runtime; the default policy picks the minimum.
    pub vruntime: u64,
    /// Charge added to `vruntime` per pick (inverse niceness).
    pub weight: u64,
}

/// What a pick-next-task extension saw: the two best candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedCandidates {
    /// Simulated CPU the pick is for.
    pub cpu: u64,
    /// Runnable task count on the board.
    pub nr_runnable: u64,
    /// Best candidate (lowest vruntime, ties by id): id and vruntime.
    pub first: (u64, u64),
    /// Second-best candidate; equals `first` on a single-task board.
    pub second: (u64, u64),
}

impl SchedCandidates {
    /// The six ctx fields a sched program reads, in layout order.
    pub fn ctx(&self) -> [u64; 6] {
        [
            self.cpu,
            self.nr_runnable,
            self.first.0,
            self.first.1,
            self.second.0,
            self.second.1,
        ]
    }
}

/// An extension's pick verdict, decoded from its return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedChoice {
    /// Run the first candidate.
    First,
    /// Run the second candidate.
    Second,
    /// Defer to the default policy.
    Default,
}

impl SchedChoice {
    /// Decodes a return value; `None` means out of contract (the caller
    /// must fall back to the default policy and count it).
    pub fn from_ret(ret: u64) -> Option<SchedChoice> {
        match ret {
            0 => Some(SchedChoice::First),
            1 => Some(SchedChoice::Second),
            2 => Some(SchedChoice::Default),
            _ => None,
        }
    }
}

/// A sched-ext-style pick-next-task board over one simulated CPU.
///
/// Seeded construction and integer-only vruntime accounting make every
/// pick sequence a pure function of `(seed, picks applied)` — which is
/// what lets the bench derive a fresh board per work item and stay
/// byte-identical at any shard count.
#[derive(Debug, Clone)]
pub struct SchedBoard {
    /// Simulated CPU this board schedules.
    pub cpu: u64,
    tasks: Vec<SchedTask>,
    picks: u64,
    fallbacks: u64,
}

impl SchedBoard {
    /// Builds a board of `nr_tasks` (clamped to 1..=8) seeded tasks for
    /// `cpu`. Ids are dense; vruntimes and weights are small seeded
    /// integers so ties actually occur and exercise the tie-break path.
    pub fn seeded(seed: u64, cpu: u64, nr_tasks: usize) -> Self {
        let n = nr_tasks.clamp(1, 8);
        let tasks = (0..n as u64)
            .map(|id| {
                let h = crate::splitmix64(seed ^ (cpu << 32) ^ id);
                SchedTask {
                    id,
                    vruntime: h % 16,
                    weight: 1 + (h >> 8) % 4,
                }
            })
            .collect();
        SchedBoard {
            cpu,
            tasks,
            picks: 0,
            fallbacks: 0,
        }
    }

    /// The two best candidates under the default (min-vruntime, min-id)
    /// order.
    pub fn candidates(&self) -> SchedCandidates {
        let mut order: Vec<&SchedTask> = self.tasks.iter().collect();
        order.sort_by_key(|t| (t.vruntime, t.id));
        let first = (order[0].id, order[0].vruntime);
        let second = order.get(1).map(|t| (t.id, t.vruntime)).unwrap_or(first);
        SchedCandidates {
            cpu: self.cpu,
            nr_runnable: self.tasks.len() as u64,
            first,
            second,
        }
    }

    /// Applies a choice, charging the picked task's weight to its
    /// vruntime; returns the picked task id. `Default` (and the fallback
    /// path) picks the first candidate — the default policy.
    pub fn apply(&mut self, cand: &SchedCandidates, choice: SchedChoice) -> u64 {
        let id = match choice {
            SchedChoice::First | SchedChoice::Default => cand.first.0,
            SchedChoice::Second => cand.second.0,
        };
        if let Some(task) = self.tasks.iter_mut().find(|t| t.id == id) {
            task.vruntime += task.weight;
        }
        self.picks += 1;
        id
    }

    /// Applies the default pick because the extension trapped, was
    /// killed, or returned out of contract; returns the picked id.
    pub fn apply_fallback(&mut self, cand: &SchedCandidates) -> u64 {
        self.fallbacks += 1;
        self.apply(cand, SchedChoice::Default)
    }

    /// Picks applied so far (including fallbacks).
    pub fn picks(&self) -> u64 {
        self.picks
    }

    /// Fallback picks applied so far.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn probe_points_have_stable_distinct_ids() {
        let mut ids: Vec<u64> = ProbePoint::ALL.iter().map(|p| p.id()).collect();
        ids.dedup();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn trace_events_map_to_probe_points() {
        let kernel = Kernel::new();
        kernel.trace.enable();

        // Lock acquire/release: only the acquire fires a probe.
        let lock = kernel.locks.create("probe-lock");
        kernel.locks.acquire(1, lock).unwrap();
        kernel.locks.release(1, lock).unwrap();

        // Refcount get/put: only the put (drop) fires.
        let obj = kernel.refs.register(crate::refcount::ObjKind::Socket, 1);
        kernel.refs.get(obj).unwrap();
        kernel.refs.put(obj).unwrap();

        // Grace period.
        kernel.rcu.synchronize(&kernel.audit).unwrap();

        // Skb alloc + free.
        let skb = kernel.objects.create_skb(&kernel.mem, &[1, 2, 3]).unwrap();
        kernel.objects.free_skb(&kernel.mem, skb.id).unwrap();

        let fired: Vec<ProbePoint> = kernel
            .trace
            .take()
            .iter()
            .filter_map(ProbePoint::from_trace)
            .collect();
        assert_eq!(
            fired,
            vec![
                ProbePoint::LockAcquire,
                ProbePoint::RefDrop,
                ProbePoint::RcuGrace,
                ProbePoint::SkbAlloc,
                ProbePoint::SkbFree,
            ]
        );
    }

    #[test]
    fn hook_hists_record_read_and_merge() {
        let h = HookHists::new(2);
        assert_eq!(h.record(0, 0, 5), 3); // 5 has bit-length 3
        assert_eq!(h.record(1, 0, 5), 3);
        assert_eq!(h.record(0, 1, 0), 0);
        // Per-CPU reads see only their own bank.
        assert_eq!(h.read(0, 0, 3), 1);
        assert_eq!(h.read(1, 0, 3), 1);
        assert_eq!(h.read(0, 0, 0), 0);
        // Merged view sums the banks.
        let merged = h.merged(0);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.buckets[3], 2);
    }

    #[test]
    fn sched_board_default_policy_and_fallback() {
        let mut board = SchedBoard::seeded(7, 0, 4);
        let seen: Vec<u64> = (0..16)
            .map(|_| {
                let cand = board.candidates();
                // Default policy: first candidate has min (vruntime, id).
                assert!(
                    cand.first.1 < cand.second.1
                        || (cand.first.1 == cand.second.1 && cand.first.0 <= cand.second.0)
                );
                board.apply(&cand, SchedChoice::First)
            })
            .collect();
        // Weighted round-robin: every task gets picked eventually.
        for id in 0..4u64 {
            assert!(seen.contains(&id), "task {id} never picked");
        }
        let cand = board.candidates();
        board.apply_fallback(&cand);
        assert_eq!(board.fallbacks(), 1);
        assert_eq!(board.picks(), 17);
    }

    #[test]
    fn sched_board_is_seed_deterministic() {
        let mut a = SchedBoard::seeded(3, 1, 5);
        let mut b = SchedBoard::seeded(3, 1, 5);
        for _ in 0..32 {
            let (ca, cb) = (a.candidates(), b.candidates());
            assert_eq!(ca, cb);
            assert_eq!(
                a.apply(&ca, SchedChoice::Second),
                b.apply(&cb, SchedChoice::Second)
            );
        }
    }

    #[test]
    fn lsm_hooks_round_trip_ids() {
        for hook in LsmHook::ALL {
            assert_eq!(LsmHook::from_id(hook.id()), Some(hook));
        }
        assert_eq!(LsmHook::from_id(99), None);
    }
}
