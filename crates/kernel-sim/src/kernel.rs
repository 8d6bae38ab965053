//! The [`Kernel`] façade tying all subsystems together.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::{
    audit::{AuditLog, EventKind},
    hooks::HookHists,
    inject::{FaultPlan, FaultPlane, InjectSlot},
    locks::{OwnerId, SpinTable},
    mem::KernelMem,
    metrics::Metrics,
    net::NetStack,
    objects::ObjectTable,
    oops::{OopsLog, OopsReason},
    percpu::CpuInfo,
    rcu::Rcu,
    refcount::RefTable,
    time::VirtualClock,
    trace::Tracer,
};

/// Aggregate health snapshot used by experiments to compare frameworks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// Kernel oopses recorded.
    pub oopses: usize,
    /// RCU stall reports.
    pub rcu_stalls: usize,
    /// Reference leaks reported.
    pub ref_leaks: usize,
    /// Lock leaks reported.
    pub lock_leaks: usize,
    /// Whether the kernel is tainted (any oops).
    pub tainted: bool,
}

impl HealthReport {
    /// Whether the kernel is pristine: no violation of any property.
    pub fn pristine(&self) -> bool {
        self.oopses == 0 && self.rcu_stalls == 0 && self.ref_leaks == 0 && self.lock_leaks == 0
    }
}

/// The simulated kernel.
///
/// All subsystems use interior locking, so a `Kernel` is shared by
/// reference (or [`Arc`]) between the extension frameworks, watchdog
/// threads, and test harnesses.
///
/// # Examples
///
/// ```
/// use kernel_sim::Kernel;
///
/// let kernel = Kernel::new();
/// assert!(kernel.health().pristine());
/// ```
#[derive(Debug)]
pub struct Kernel {
    /// Virtual monotonic clock.
    pub clock: VirtualClock,
    /// Checked kernel memory.
    pub mem: KernelMem,
    /// RCU subsystem.
    pub rcu: Rcu,
    /// Spinlock table.
    pub locks: SpinTable,
    /// Refcount table.
    pub refs: RefTable,
    /// Kernel objects.
    pub objects: ObjectTable,
    /// CPU topology.
    pub cpus: CpuInfo,
    /// Audit log (shared with the fault-injection plane when armed).
    pub audit: Arc<AuditLog>,
    /// Oops log.
    pub oopses: OopsLog,
    /// Kernel-level fault-injection mount point, consulted by helper
    /// dispatch in the eBPF baseline. Armed together with every
    /// subsystem's slot by [`Kernel::arm_fault_plan`].
    pub inject: InjectSlot,
    /// Runtime metrics, incremented by the extension frameworks and the
    /// fault plane. Shared (`Arc`) so an armed [`FaultPlane`] can count
    /// injections into it.
    pub metrics: Arc<Metrics>,
    /// Simulated network stack (conntrack + RX hook counters), shared by
    /// the eBPF net helpers and the safe-ext net methods.
    pub net: NetStack,
    /// Per-CPU span-trace sink (each shard kernel *is* one simulated
    /// CPU). Disabled by default; recording never advances the virtual
    /// clock, so traced and untraced runs are simulated-cost identical.
    pub trace: Arc<Tracer>,
    /// Per-CPU log2 histogram banks probe programs aggregate into via the
    /// `hist_record`/`hist_read` helpers.
    pub hooks: HookHists,
    /// Per-kernel execution-id allocator; see [`Kernel::next_exec_id`].
    exec_ids: AtomicU64,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Boots a kernel with the default topology and a fresh clock.
    pub fn new() -> Self {
        Self::with_topology(CpuInfo::default())
    }

    /// Boots a kernel with an explicit CPU topology; the sharded dispatch
    /// engine uses this to give each shard a kernel that knows the fleet
    /// width and which CPU the shard is pinned to.
    pub fn with_topology(cpus: CpuInfo) -> Self {
        let clock = VirtualClock::new();
        // The tracer reads a bare clock handle (timestamps must never
        // draw injected jumps of their own) and is labelled with the CPU
        // this kernel is pinned to.
        let trace = Arc::new(Tracer::new(clock.bare_handle(), cpus.current_cpu()));
        let hooks = HookHists::new(cpus.nr_cpus());
        let kernel = Self {
            rcu: Rcu::new(clock.clone()),
            clock,
            mem: KernelMem::new(),
            locks: SpinTable::default(),
            refs: RefTable::default(),
            objects: ObjectTable::default(),
            cpus,
            audit: Arc::new(AuditLog::default()),
            oopses: OopsLog::default(),
            inject: InjectSlot::default(),
            metrics: Arc::new(Metrics::new()),
            net: NetStack::default(),
            trace,
            hooks,
            exec_ids: AtomicU64::new(1),
        };
        kernel.rcu.trace.arm(Arc::clone(&kernel.trace));
        kernel.locks.trace.arm(Arc::clone(&kernel.trace));
        kernel.refs.trace.arm(Arc::clone(&kernel.trace));
        kernel.objects.trace.arm(Arc::clone(&kernel.trace));
        kernel
    }

    /// Boots a kernel wrapped in an [`Arc`] for sharing across threads.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Allocates the next execution owner id from this kernel's private
    /// counter (starting at 1).
    ///
    /// Execution ids appear verbatim in leak audit records, so they are
    /// allocated per kernel rather than from a process-global counter:
    /// two identical runs on fresh kernels draw identical ids, keeping
    /// audit fingerprints byte-comparable across replays and across the
    /// interpreter/JIT execution lanes.
    pub fn next_exec_id(&self) -> OwnerId {
        self.exec_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Arms `plan` on every subsystem: allocations, locks, RCU, refcounts,
    /// the clock, and helper dispatch all start drawing injection decisions
    /// from one seeded stream, each injected fault audited as
    /// [`EventKind::FaultInjected`]. Returns the shared plane so callers
    /// can query injection counters.
    pub fn arm_fault_plan(&self, plan: FaultPlan) -> Arc<FaultPlane> {
        let plane = Arc::new(
            FaultPlane::new(plan, Arc::clone(&self.audit), self.clock.bare_handle())
                .with_metrics(Arc::clone(&self.metrics)),
        );
        self.mem.inject.arm(Arc::clone(&plane));
        self.locks.inject.arm(Arc::clone(&plane));
        self.rcu.inject.arm(Arc::clone(&plane));
        self.refs.inject.arm(Arc::clone(&plane));
        self.clock.inject.arm(Arc::clone(&plane));
        self.inject.arm(Arc::clone(&plane));
        plane
    }

    /// Disarms fault injection on every subsystem.
    pub fn disarm_faults(&self) {
        self.mem.inject.disarm();
        self.locks.inject.disarm();
        self.rcu.inject.disarm();
        self.refs.inject.disarm();
        self.clock.inject.disarm();
        self.inject.disarm();
    }

    /// Starts span tracing on this kernel's per-CPU sink.
    pub fn enable_tracing(&self) {
        self.trace.enable();
    }

    /// Records an oops: both in the oops log and as an audit event.
    pub fn oops(&self, reason: OopsReason, context: impl Into<String>) {
        let context = context.into();
        let now = self.clock.now_ns();
        self.audit
            .record(now, EventKind::Oops, format!("oops in {context}: {reason}"));
        self.oopses.record(now, reason, context);
    }

    /// Returns the aggregate health snapshot.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            oopses: self.oopses.count(),
            rcu_stalls: self.audit.count(EventKind::RcuStall),
            ref_leaks: self.audit.count(EventKind::RefLeak),
            lock_leaks: self.audit.count(EventKind::LockLeak),
            tainted: self.oopses.tainted(),
        }
    }

    /// Populates a small, deterministic workload environment: a few tasks
    /// and sockets that examples and tests can rely on.
    pub fn populate_demo_env(&self) {
        use crate::objects::{Proto, SockAddr};
        let web = self.objects.add_task(&self.refs, 100, 100, "nginx");
        self.objects.add_task(&self.refs, 200, 200, "postgres");
        self.objects.add_task(&self.refs, 300, 300, "memcached");
        self.objects.set_current(web.pid);
        self.objects.add_socket(
            &self.refs,
            Proto::Tcp,
            SockAddr::new(0x0a00_0001, 443),
            SockAddr::new(0x0a00_0064, 51724),
        );
        self.objects.add_socket(
            &self.refs,
            Proto::Udp,
            SockAddr::new(0x0a00_0001, 53),
            SockAddr::new(0x0a00_0065, 40000),
        );
        self.objects.add_socket(
            &self.refs,
            Proto::Tcp,
            SockAddr::new(0x0a00_0001, 11211),
            SockAddr::new(0x0a00_0066, 45678),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Fault;

    #[test]
    fn fresh_kernel_is_pristine() {
        let kernel = Kernel::new();
        let health = kernel.health();
        assert!(health.pristine());
        assert!(!health.tainted);
    }

    #[test]
    fn oops_taints_and_audits() {
        let kernel = Kernel::new();
        kernel.oops(
            OopsReason::Fault(Fault::NullDeref { addr: 0 }),
            "bpf_sys_bpf",
        );
        let health = kernel.health();
        assert_eq!(health.oopses, 1);
        assert!(health.tainted);
        assert!(!health.pristine());
        assert_eq!(kernel.audit.count(EventKind::Oops), 1);
        let snap = kernel.oopses.snapshot();
        assert_eq!(snap[0].context, "bpf_sys_bpf");
    }

    #[test]
    fn demo_env_is_populated() {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        assert_eq!(kernel.objects.current().unwrap().comm, "nginx");
        assert_eq!(kernel.objects.socket_count(), 3);
        assert!(kernel.health().pristine());
    }

    #[test]
    fn shared_kernel_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Kernel>();
        let shared = Kernel::new_shared();
        let s2 = shared.clone();
        std::thread::spawn(move || {
            s2.clock.advance(100);
        })
        .join()
        .unwrap();
        assert_eq!(shared.clock.now_ns(), 100);
    }
}
