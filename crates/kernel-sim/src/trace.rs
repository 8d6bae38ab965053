//! Deterministic span-based tracing.
//!
//! The metrics layer (PR 2) answers "how many"; this layer answers
//! "where did the simulated cycles go". Every stage of both extension
//! frameworks — verifier passes, signature check and load-time fixup,
//! program runs, helper dispatch, fuel accounting, RCU/lock/refcount
//! operations, conntrack lookups, per-shard dispatch — records
//! [`TraceEvent`]s into a per-CPU [`Tracer`] ring buffer, timestamped by
//! the **virtual** clock.
//!
//! # Determinism contract
//!
//! Tracing is *observer-effect-free by construction*: recording an event
//! never advances the virtual clock and never draws from the
//! fault-injection dice, so a traced run charges exactly the same
//! simulated time and emits exactly the same audit stream as an untraced
//! run. The profiling overhead in simulated cost is therefore identically
//! zero — not merely small — and enabling or disabling tracing can never
//! perturb a replay.
//!
//! Two fingerprints mirror the audit layer's contract:
//!
//! * [`fingerprint`] / [`merged_fingerprint`] — the *full* per-CPU
//!   stream with absolute timestamps, merged in shard-id order exactly
//!   like audits. Byte-identical across replays of one configuration.
//! * [`canonical_fingerprint`] — the *shard-count-invariant* form: only
//!   events recorded inside a logical task (one packet), keyed by the
//!   global task id and timestamped relative to the task's own start.
//!   Because each shard is a private deterministic kernel and tasks
//!   never interleave within a shard, a task's relative event stream
//!   does not depend on which shard ran it — so the canonical trace (and
//!   its SHA-256, printed by `bench --bin profile` as `TRACE_SHA256`) is
//!   identical at 1, 2, 4, or 8 shards, and identical between the
//!   interpreter and the (identity-transform) JIT.
//!
//! For the canonical form to hold, tasked events must carry only
//! *logical* arguments — helper ids, pass indices, operation codes —
//! never per-kernel identities such as lock ids, object ids, or
//! addresses, which depend on each shard's private allocation order.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{
    atomic::{AtomicBool, AtomicU64, Ordering},
    Arc, OnceLock,
};

use parking_lot::Mutex;

use crate::time::VirtualClock;

/// Task id recorded for events outside any logical task (boot, load,
/// verification, per-shard setup).
pub const UNTASKED: u64 = u64::MAX;

/// Default ring-buffer capacity (events per CPU). Large enough that the
/// bench batches below never drop; the `dropped` counter reports when a
/// workload outruns it.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// What stage of the stack a span or instant belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// One verifier pass (`arg`: 0 = pre-checks, 1 = speculation scan,
    /// 2 = path exploration).
    VerifierPass,
    /// A whole extension load (`core::Loader::load`).
    Load,
    /// Signature validation within a load.
    SigCheck,
    /// Capability fixup within a load.
    Fixup,
    /// One extension execution (interpreter `Vm::run` or safe-ext
    /// `Runtime::run`); `arg` is the program id (load order).
    ProgRun,
    /// One helper dispatch (`arg`: helper id).
    HelperCall,
    /// Fuel/instruction accounting instant at run end (`arg`: units
    /// consumed — instructions for the interpreter, fuel for safe-ext).
    Fuel,
    /// An outermost RCU read-side critical section.
    RcuRead,
    /// A spinlock operation instant (`arg`: 0 = acquire, 1 = release).
    LockOp,
    /// A refcount operation instant (`arg`: 0 = get, 1 = put).
    RefOp,
    /// A conntrack lookup/observe instant (`arg`: 0 = miss/new,
    /// 1 = hit/established-path).
    CtLookup,
    /// Safe-termination destructor sweep at run end.
    Cleanup,
    /// One dispatched packet, shard-side (`arg`: packet length).
    Dispatch,
    /// One atomic hot upgrade in the tenancy control plane: load v2,
    /// swap the attachment pointer, drain v1 under RCU, tear v1 down
    /// (`arg`: tenant id).
    HotSwap,
    /// A protection-domain crossing instant in the sandbox lane
    /// (`arg`: 0 = entering the sandbox, 1 = leaving it).
    DomainSwitch,
    /// An RCU grace period completed (`synchronize_rcu` advanced the
    /// grace-period sequence). `arg` is always 0: the sequence number is
    /// per-kernel state and would break shard-count invariance.
    RcuGrace,
    /// An skb lifetime instant (`arg`: 0 = alloc, 1 = free). The skb id
    /// is deliberately not recorded — ids are per-kernel allocation
    /// order, the op code is the logical fact.
    SkbLife,
}

impl SpanKind {
    /// Short stable label used in fingerprints and profile tables.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::VerifierPass => "verifier-pass",
            SpanKind::Load => "load",
            SpanKind::SigCheck => "sig-check",
            SpanKind::Fixup => "fixup",
            SpanKind::ProgRun => "prog-run",
            SpanKind::HelperCall => "helper-call",
            SpanKind::Fuel => "fuel",
            SpanKind::RcuRead => "rcu-read",
            SpanKind::LockOp => "lock-op",
            SpanKind::RefOp => "ref-op",
            SpanKind::CtLookup => "ct-lookup",
            SpanKind::Cleanup => "cleanup",
            SpanKind::Dispatch => "dispatch",
            SpanKind::HotSwap => "hot-swap",
            SpanKind::DomainSwitch => "domain-switch",
            SpanKind::RcuGrace => "rcu-grace",
            SpanKind::SkbLife => "skb-life",
        }
    }
}

/// Whether an event opens a span, closes one, or is a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Span entry.
    Enter,
    /// Span exit (matches the `Enter` at the same depth).
    Exit,
    /// A point event with no duration.
    Instant,
}

impl SpanPhase {
    /// Single-character label used in fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            SpanPhase::Enter => "E",
            SpanPhase::Exit => "X",
            SpanPhase::Instant => "I",
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical task (global packet index) this event belongs to, or
    /// [`UNTASKED`] for setup work.
    pub task: u64,
    /// Virtual nanoseconds since the task began ([`UNTASKED`] events: 0).
    pub task_ns: u64,
    /// Absolute virtual-clock timestamp.
    pub at_ns: u64,
    /// Simulated CPU that recorded the event.
    pub cpu: usize,
    /// Span nesting depth at this event (enter and its matching exit
    /// record the same depth).
    pub depth: u32,
    /// Enter / exit / instant.
    pub phase: SpanPhase,
    /// Stage.
    pub kind: SpanKind,
    /// Logical argument; see each [`SpanKind`] variant.
    pub arg: u64,
}

impl TraceEvent {
    /// The full serialized form: absolute timestamps, per-CPU identity.
    fn full_line(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}\n",
            self.at_ns,
            self.cpu,
            self.depth,
            self.phase.label(),
            self.kind.label(),
            self.arg,
            if self.task == UNTASKED {
                "-".to_string()
            } else {
                self.task.to_string()
            },
        )
    }

    /// The canonical (shard-count-invariant) form: task-relative time,
    /// no CPU identity.
    fn canonical_line(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}\n",
            self.task_ns,
            self.depth,
            self.phase.label(),
            self.kind.label(),
            self.arg,
        )
    }
}

#[derive(Debug)]
struct TracerState {
    ring: VecDeque<TraceEvent>,
    depth: u32,
    task: u64,
    task_begin_ns: u64,
}

/// A per-CPU trace sink.
///
/// Each shard's private [`crate::Kernel`] owns one `Tracer`, labelled
/// with the CPU the shard is pinned to — the sharded engines' "one
/// kernel per shard" design makes the kernel's sink exactly the per-CPU
/// ring buffer. Disabled by default; the hot-path cost while disabled is
/// a single relaxed atomic load per site.
///
/// # Examples
///
/// ```
/// use kernel_sim::Kernel;
/// use kernel_sim::trace::SpanKind;
///
/// let kernel = Kernel::new();
/// kernel.trace.enable();
/// {
///     let _run = kernel.trace.span(SpanKind::ProgRun, 0);
///     kernel.trace.instant(SpanKind::Fuel, 17);
/// }
/// let events = kernel.trace.snapshot();
/// assert_eq!(events.len(), 3); // enter, instant, exit
/// assert_eq!(kernel.trace.dropped(), 0);
/// ```
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    clock: VirtualClock,
    cpu: usize,
    capacity: usize,
    dropped: AtomicU64,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// Creates a disabled tracer for simulated CPU `cpu`, reading
    /// timestamps from `clock` (use a [`VirtualClock::bare_handle`] so
    /// tracing never participates in clock fault injection).
    pub fn new(clock: VirtualClock, cpu: usize) -> Self {
        Self::with_capacity(clock, cpu, DEFAULT_RING_CAPACITY)
    }

    /// Creates a disabled tracer with an explicit ring capacity.
    pub fn with_capacity(clock: VirtualClock, cpu: usize, capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            clock,
            cpu,
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            state: Mutex::new(TracerState {
                ring: VecDeque::new(),
                depth: 0,
                task: UNTASKED,
                task_begin_ns: 0,
            }),
        }
    }

    /// Starts recording.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (already-buffered events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether the tracer is currently recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// The simulated CPU this sink belongs to.
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// Marks the start of logical task `task` (a global packet index):
    /// subsequent events are tagged with it and timestamped relative to
    /// this instant.
    pub fn begin_task(&self, task: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state.lock();
        st.task = task;
        st.task_begin_ns = self.clock.now_ns();
    }

    /// Ends the current logical task; subsequent events are untasked.
    pub fn end_task(&self) {
        if !self.is_enabled() {
            return;
        }
        let mut st = self.state.lock();
        st.task = UNTASKED;
        st.task_begin_ns = 0;
    }

    fn record(&self, phase: SpanPhase, kind: SpanKind, arg: u64) {
        let now = self.clock.now_ns();
        let mut st = self.state.lock();
        let depth = match phase {
            SpanPhase::Enter => {
                let d = st.depth;
                st.depth += 1;
                d
            }
            SpanPhase::Exit => {
                st.depth = st.depth.saturating_sub(1);
                st.depth
            }
            SpanPhase::Instant => st.depth,
        };
        let (task, task_ns) = if st.task == UNTASKED {
            (UNTASKED, 0)
        } else {
            (st.task, now.saturating_sub(st.task_begin_ns))
        };
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        st.ring.push_back(TraceEvent {
            task,
            task_ns,
            at_ns: now,
            cpu: self.cpu,
            depth,
            phase,
            kind,
            arg,
        });
    }

    /// Opens a span; the returned guard closes it on drop (on every exit
    /// path, including panics unwinding through `catch_unwind`). Returns
    /// a disarmed guard when tracing is disabled.
    #[inline]
    pub fn span(&self, kind: SpanKind, arg: u64) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: self,
                kind,
                arg,
                armed: false,
            };
        }
        self.record(SpanPhase::Enter, kind, arg);
        SpanGuard {
            tracer: self,
            kind,
            arg,
            armed: true,
        }
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&self, kind: SpanKind, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record(SpanPhase::Instant, kind, arg);
    }

    /// Opens a span without a guard; the caller must pair it with
    /// [`Tracer::exit`] on every path. Prefer [`Tracer::span`] — this
    /// exists for subsystems whose enter and exit sites are split across
    /// functions (e.g. RCU lock/unlock).
    #[inline]
    pub fn enter(&self, kind: SpanKind, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record(SpanPhase::Enter, kind, arg);
    }

    /// Closes a span opened by [`Tracer::enter`].
    #[inline]
    pub fn exit(&self, kind: SpanKind, arg: u64) {
        if !self.is_enabled() {
            return;
        }
        self.record(SpanPhase::Exit, kind, arg);
    }

    /// Events recorded but overwritten because the ring was full. The
    /// span-balance guarantee holds exactly when this is zero.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.state.lock().ring.iter().copied().collect()
    }

    /// Drains the buffered events, oldest first, and resets the dropped
    /// counter.
    pub fn take(&self) -> Vec<TraceEvent> {
        self.dropped.store(0, Ordering::Relaxed);
        self.state.lock().ring.drain(..).collect()
    }

    /// Discards all buffered events and resets the dropped counter.
    pub fn clear(&self) {
        self.dropped.store(0, Ordering::Relaxed);
        self.state.lock().ring.clear();
    }
}

/// RAII guard closing a span opened by [`Tracer::span`].
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    kind: SpanKind,
    arg: u64,
    armed: bool,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tracer.record(SpanPhase::Exit, self.kind, self.arg);
        }
    }
}

/// Per-subsystem mount point for a shared [`Tracer`], mirroring
/// [`crate::inject::InjectSlot`]: subsystems constructed before the
/// kernel's tracer exists (RCU, locks, refcounts, objects) get the tracer
/// armed into their slot at kernel boot.
///
/// A slot is bound to one tracer for its whole life (the kernel's), so
/// [`Self::get`] is atomic loads only: it takes no lock and touches no
/// reference count, which matters because RCU, lock, refcount and skb
/// operations consult their slot with tracing off too.
#[derive(Debug, Default)]
pub struct TraceSlot {
    armed: AtomicBool,
    tracer: OnceLock<Arc<Tracer>>,
}

impl TraceSlot {
    /// Installs `tracer` and arms the slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot was armed before with a different tracer.
    pub fn arm(&self, tracer: Arc<Tracer>) {
        let bound = self.tracer.get_or_init(|| Arc::clone(&tracer));
        assert!(
            Arc::ptr_eq(bound, &tracer),
            "a trace slot is bound to one tracer"
        );
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms the slot. The tracer stays installed, ready to be re-armed.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// The armed tracer if it is armed *and enabled*, else `None` (the
    /// common, near-free case).
    #[inline]
    pub fn get(&self) -> Option<&Tracer> {
        if !self.armed.load(Ordering::Acquire) {
            return None;
        }
        self.tracer
            .get()
            .map(Arc::as_ref)
            .filter(|tracer| tracer.is_enabled())
    }
}

/// Serializes one CPU's trace into its canonical byte-comparable form:
/// one `at_ns|cpu|depth|phase|kind|arg|task` line per event. Replays of
/// one `(backend, seed, shard_count, batch)` configuration are
/// byte-identical under this form; different shard counts are not (they
/// interleave tasks differently per CPU) — that is what
/// [`canonical_fingerprint`] is for.
pub fn fingerprint(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.full_line());
    }
    out
}

/// Merges per-shard trace snapshots in ascending shard-id order with
/// `== cpu N ==` headers, exactly like
/// [`crate::audit::merged_fingerprint`] — independent of the thread
/// interleaving that produced the snapshots.
pub fn merged_fingerprint(shards: &[(usize, Vec<TraceEvent>)]) -> String {
    let mut ordered: Vec<&(usize, Vec<TraceEvent>)> = shards.iter().collect();
    ordered.sort_by_key(|(shard, _)| *shard);
    let mut out = String::new();
    for (shard, events) in ordered {
        out.push_str(&format!("== cpu {shard} ==\n"));
        out.push_str(&fingerprint(events));
    }
    out
}

/// The shard-count-invariant canonical trace: tasked events only,
/// grouped by global task id (ascending), each event in its task's
/// recording order with task-relative timestamps and no CPU identity.
///
/// Shard assignment permutes *which* CPU runs a task but not what the
/// task does, so this string — unlike [`merged_fingerprint`] — is
/// byte-identical across shard counts, and across interpreter vs JIT
/// execution (the JIT being a validating identity transform).
pub fn canonical_fingerprint(shards: &[(usize, Vec<TraceEvent>)]) -> String {
    let mut tasks: BTreeMap<u64, String> = BTreeMap::new();
    for (_, events) in shards {
        for e in events.iter().filter(|e| e.task != UNTASKED) {
            tasks
                .entry(e.task)
                .or_default()
                .push_str(&e.canonical_line());
        }
    }
    let mut out = String::new();
    for (task, body) in tasks {
        out.push_str(&format!("== task {task} ==\n"));
        out.push_str(&body);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> (VirtualClock, Tracer) {
        let clock = VirtualClock::new();
        let t = Tracer::new(clock.clone(), 0);
        t.enable();
        (clock, t)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(VirtualClock::new(), 0);
        {
            let _g = t.span(SpanKind::ProgRun, 1);
            t.instant(SpanKind::Fuel, 5);
        }
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_balance_and_share_depth() {
        let (clock, t) = tracer();
        {
            let _outer = t.span(SpanKind::ProgRun, 7);
            clock.advance(10);
            {
                let _inner = t.span(SpanKind::HelperCall, 3);
                clock.advance(5);
            }
        }
        let ev = t.snapshot();
        assert_eq!(ev.len(), 4);
        assert_eq!((ev[0].phase, ev[0].depth), (SpanPhase::Enter, 0));
        assert_eq!((ev[1].phase, ev[1].depth), (SpanPhase::Enter, 1));
        assert_eq!((ev[2].phase, ev[2].depth), (SpanPhase::Exit, 1));
        assert_eq!((ev[3].phase, ev[3].depth), (SpanPhase::Exit, 0));
        assert_eq!(ev[2].at_ns, 15);
        assert_eq!(ev[3].at_ns, 15);
    }

    #[test]
    fn task_relative_timestamps() {
        let (clock, t) = tracer();
        clock.advance(1_000); // Setup time that must not leak into tasks.
        t.begin_task(42);
        clock.advance(3);
        t.instant(SpanKind::Fuel, 9);
        t.end_task();
        t.instant(SpanKind::LockOp, 0); // Untasked again.
        let ev = t.snapshot();
        assert_eq!(ev[0].task, 42);
        assert_eq!(ev[0].task_ns, 3);
        assert_eq!(ev[0].at_ns, 1_003);
        assert_eq!(ev[1].task, UNTASKED);
        assert_eq!(ev[1].task_ns, 0);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let clock = VirtualClock::new();
        let t = Tracer::with_capacity(clock, 0, 4);
        t.enable();
        for i in 0..10 {
            t.instant(SpanKind::Fuel, i);
        }
        assert_eq!(t.snapshot().len(), 4);
        assert_eq!(t.dropped(), 6);
        // The oldest events were the ones dropped.
        assert_eq!(t.snapshot()[0].arg, 6);
        t.clear();
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn canonical_fingerprint_is_shard_assignment_invariant() {
        // The same two tasks recorded on one CPU...
        let clock = VirtualClock::new();
        let one = Tracer::new(clock.clone(), 0);
        one.enable();
        for task in [3u64, 8] {
            one.begin_task(task);
            let _g = one.span(SpanKind::ProgRun, 0);
            clock.advance(4);
            one.instant(SpanKind::Fuel, task);
            drop(_g);
            one.end_task();
        }
        // ...and split across two CPUs, in the opposite global order and
        // at different absolute times.
        let ca = VirtualClock::new();
        let cb = VirtualClock::new();
        let a = Tracer::new(ca.clone(), 0);
        let b = Tracer::new(cb.clone(), 1);
        a.enable();
        b.enable();
        cb.advance(777);
        b.begin_task(8);
        let g = b.span(SpanKind::ProgRun, 0);
        cb.advance(4);
        b.instant(SpanKind::Fuel, 8);
        drop(g);
        b.end_task();
        ca.advance(13);
        a.begin_task(3);
        let g = a.span(SpanKind::ProgRun, 0);
        ca.advance(4);
        a.instant(SpanKind::Fuel, 3);
        drop(g);
        a.end_task();

        let merged_one = canonical_fingerprint(&[(0, one.snapshot())]);
        let merged_two = canonical_fingerprint(&[(0, a.snapshot()), (1, b.snapshot())]);
        assert_eq!(merged_one, merged_two);
        // The full merged fingerprints differ (absolute time, cpu).
        assert_ne!(
            merged_fingerprint(&[(0, one.snapshot())]),
            merged_fingerprint(&[(0, a.snapshot()), (1, b.snapshot())]),
        );
    }

    #[test]
    fn merged_fingerprint_orders_by_shard_id() {
        let t = Tracer::new(VirtualClock::new(), 1);
        t.enable();
        t.instant(SpanKind::Fuel, 1);
        let s = Tracer::new(VirtualClock::new(), 0);
        s.enable();
        s.instant(SpanKind::Fuel, 0);
        let fp = merged_fingerprint(&[(1, t.snapshot()), (0, s.snapshot())]);
        let cpu0 = fp.find("== cpu 0 ==").unwrap();
        let cpu1 = fp.find("== cpu 1 ==").unwrap();
        assert!(cpu0 < cpu1);
    }

    #[test]
    fn slot_requires_armed_and_enabled() {
        let slot = TraceSlot::default();
        assert!(slot.get().is_none());
        let tracer = Arc::new(Tracer::new(VirtualClock::new(), 0));
        slot.arm(Arc::clone(&tracer));
        assert!(slot.get().is_none(), "armed but disabled");
        tracer.enable();
        assert!(slot.get().is_some());
        slot.disarm();
        assert!(slot.get().is_none());
    }

    #[test]
    #[should_panic(expected = "bound to one tracer")]
    fn slot_rearms_only_with_its_own_tracer() {
        let slot = TraceSlot::default();
        let tracer = Arc::new(Tracer::new(VirtualClock::new(), 0));
        tracer.enable();
        slot.arm(Arc::clone(&tracer));
        slot.disarm();
        slot.arm(Arc::clone(&tracer));
        assert!(slot.get().is_some(), "re-armed with the same tracer");
        slot.arm(Arc::new(Tracer::new(VirtualClock::new(), 0)));
    }
}
