//! The tenant registry: programs, budgets, attachment points, upgrades.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, SandboxConfig, Vm};
use ebpf::jit::JitConfig;
use ebpf::maps::{MapDef, MapError, MapFd, MapKind, MapRegistry};
use ebpf::program::Program;
use kernel_sim::audit::EventKind;
use kernel_sim::mem::Fault;
use kernel_sim::trace::SpanKind;
use kernel_sim::{Kernel, Metrics};
use safe_ext::{ExtInput, Extension, Runtime, RuntimeConfig};
use verifier::Verifier;

use crate::breaker::{Breaker, Quarantine};
use crate::budget::TenantBudget;

/// A tenant handle: dense ids in registration order. The tenant's memory
/// accounting domain is `id + 1` (domain 0 is the unaccounted default).
pub type TenantId = u32;

/// A program in one of the three dialects.
pub enum ProgramSpec {
    /// eBPF bytecode: verified at load (rejection is a load error, as in
    /// the baseline framework), then interpreted.
    Ebpf(Program),
    /// A safe-Rust extension: no verification, protected at runtime by
    /// the tenant's fuel budget and the termination engine.
    Safe(Extension),
    /// eBPF bytecode loaded **unverified** into an SFI protection domain
    /// charged to the tenant: masked bounds checks at run time, domain
    /// crossings priced at entry/exit and helper boundaries, traps (not
    /// oopses) on violations. Consumes one of the tenant's
    /// [`TenantBudget::max_domains`].
    Sandbox(Program),
    /// Like [`ProgramSpec::Ebpf`], but lowered through the JIT after
    /// verification. Behaviorally identical to the interpreted lane —
    /// the hooks bench asserts canonical-log equality between the two.
    EbpfJit(Program),
    /// Like [`ProgramSpec::Sandbox`], but lowered through the JIT with
    /// masked memory ops. Same trap-to-quarantine contract.
    SandboxJit(Program),
}

/// The input one attached-program run consumes: the packet payload for
/// the classic path, or one of the hook-point contexts. Borrowed where
/// the hot path runs straight off a shared buffer.
#[derive(Debug, Clone, Copy)]
pub enum HookInput<'a> {
    /// A packet (XDP-style attachment points).
    Packet(&'a [u8]),
    /// A kprobe/tracepoint probe fire: register file.
    Kprobe([u64; 8]),
    /// An LSM policy decision: `{hook, subject, attr, cookie}`.
    Lsm([u64; 4]),
    /// A sched-ext pick: `{cpu, nr_runnable, c0_id, c0_vrun, c1_id,
    /// c1_vrun}`.
    Sched([u64; 6]),
}

/// Errors from the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TenancyError {
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// Tenant names may not contain `/`: it separates tenant from point
    /// in the breaker key, so `a/b` at `c` and `a` at `b/c` would share
    /// one breaker.
    InvalidTenantName(String),
    /// No such tenant id.
    UnknownTenant(TenantId),
    /// No such attachment point for this tenant.
    UnknownPoint(String),
    /// The attachment point already has a program (use `upgrade`).
    PointOccupied(String),
    /// The tenant is at its map-count quota.
    MapCountQuota {
        /// The configured limit.
        limit: u32,
    },
    /// The tenant is at its sandbox-domain quota.
    DomainQuota {
        /// The configured limit.
        limit: u32,
    },
    /// A single map's create-time footprint exceeds the per-map quota.
    MapSizeQuota {
        /// Requested footprint in bytes.
        requested: u64,
        /// The configured limit.
        limit: u64,
    },
    /// Underlying map error (including the byte-quota
    /// [`Fault::QuotaExceeded`] surfaced as a memory fault).
    Map(MapError),
    /// The eBPF verifier rejected the program at load.
    Verifier(String),
    /// No shared map registered under this name.
    UnknownSharedMap(String),
    /// A shared map with this name already exists.
    SharedMapExists(String),
    /// This tenant does not hold a reference to the shared map.
    NotASharer(String),
    /// RCU grace-period wait failed (synchronize inside a reader is a
    /// control-plane bug).
    Rcu(String),
}

impl std::fmt::Display for TenancyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenancyError::DuplicateTenant(n) => write!(f, "tenant {n:?} already registered"),
            TenancyError::InvalidTenantName(n) => write!(f, "tenant name {n:?} contains '/'"),
            TenancyError::UnknownTenant(id) => write!(f, "no tenant with id {id}"),
            TenancyError::UnknownPoint(p) => write!(f, "no attachment point {p:?}"),
            TenancyError::PointOccupied(p) => write!(f, "attachment point {p:?} occupied"),
            TenancyError::MapCountQuota { limit } => {
                write!(f, "map-count quota exceeded (limit {limit})")
            }
            TenancyError::DomainQuota { limit } => {
                write!(f, "sandbox-domain quota exceeded (limit {limit})")
            }
            TenancyError::MapSizeQuota { requested, limit } => {
                write!(f, "map footprint {requested} exceeds per-map quota {limit}")
            }
            TenancyError::Map(e) => write!(f, "map error: {e}"),
            TenancyError::Verifier(msg) => write!(f, "verifier rejected program: {msg}"),
            TenancyError::UnknownSharedMap(n) => write!(f, "no shared map {n:?}"),
            TenancyError::SharedMapExists(n) => write!(f, "shared map {n:?} already exists"),
            TenancyError::NotASharer(n) => write!(f, "tenant holds no reference to {n:?}"),
            TenancyError::Rcu(msg) => write!(f, "rcu: {msg}"),
        }
    }
}

impl std::error::Error for TenancyError {}

impl From<MapError> for TenancyError {
    fn from(e: MapError) -> Self {
        TenancyError::Map(e)
    }
}

/// How one packet run ended, collapsed to the classes the churn bench's
/// canonical log distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunVerdict {
    /// Clean return with this value.
    Ok(u64),
    /// Refused at admission: the tenant/point is quarantined.
    Refused,
    /// The run was killed (watchdog, stack guard, panic — or, for the
    /// eBPF dialect, any aborted execution). Counts toward the breaker.
    Killed,
    /// The run ended in an ordinary error (safe dialect only). Does not
    /// count toward the breaker: its job is runaway or crashing tenants,
    /// not fallible ones.
    Error,
}

impl RunVerdict {
    /// Stable textual form for canonical logs.
    pub fn label(&self) -> String {
        match self {
            RunVerdict::Ok(v) => format!("ok:{v}"),
            RunVerdict::Refused => "refused".to_string(),
            RunVerdict::Killed => "kill".to_string(),
            RunVerdict::Error => "err".to_string(),
        }
    }
}

/// One packet run's outcome plus its simulated cost.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// The collapsed verdict.
    pub verdict: RunVerdict,
    /// Virtual-clock advance across the run, nanoseconds. Depends only on
    /// the run's own execution path, so it is shard-count invariant.
    pub cost_ns: u64,
}

/// What is attached at a point right now.
enum Attached {
    /// A loaded eBPF program id in the registry's [`Vm`].
    Ebpf(u32),
    /// A safe-Rust extension (invoked through a per-run [`Runtime`]).
    Safe(Extension),
    /// A sandboxed (unverified, SFI-checked) program id in the [`Vm`].
    Sandbox(u32),
}

struct Attachment {
    current: Attached,
    /// Bumps on every hot upgrade; v1 is version 1.
    version: u32,
    /// `tenant/point`, built once at attach; upgrades keep it.
    breaker_key: Box<str>,
    /// The key's breaker, resolved once at attach.
    breaker: Arc<Breaker>,
}

struct Tenant {
    name: String,
    budget: TenantBudget,
    /// Attachment points, iterated in name order so teardown audits
    /// replay byte-identically.
    attachments: BTreeMap<String, Attachment>,
    /// Fds of maps this tenant created (excluding shared maps).
    owned_maps: Vec<MapFd>,
    /// Names of shared maps this tenant holds a reference to.
    shared_refs: Vec<String>,
}

struct SharedMap {
    fd: MapFd,
    refs: u32,
}

/// The per-kernel (per-shard) tenant registry.
///
/// Borrows the kernel, map registry, and helper registry exactly like the
/// interpreter [`Vm`] does; owns the `Vm` the eBPF dialect's programs are
/// loaded into, the tenant table, and the shared-map refcounts. One
/// registry is single-kernel by construction — the sharded churn engine
/// boots one per shard, the same way the dispatch engine boots per-shard
/// kernels.
pub struct TenantRegistry<'k> {
    kernel: &'k Kernel,
    maps: &'k MapRegistry,
    helpers: &'k HelperRegistry,
    vm: Vm<'k>,
    quarantine: Arc<Quarantine>,
    tenants: Vec<Tenant>,
    by_name: HashMap<String, TenantId>,
    shared: BTreeMap<String, SharedMap>,
}

impl<'k> TenantRegistry<'k> {
    /// Creates a registry with a default breaker (threshold 3, half-open
    /// cooldown of 8 refused admissions).
    pub fn new(kernel: &'k Kernel, maps: &'k MapRegistry, helpers: &'k HelperRegistry) -> Self {
        Self::with_quarantine(kernel, maps, helpers, Arc::new(Quarantine::new(3, 8)))
    }

    /// Creates a registry with an explicit breaker, so the caller can set
    /// its threshold and cooldown and inspect its keys' trips.
    pub fn with_quarantine(
        kernel: &'k Kernel,
        maps: &'k MapRegistry,
        helpers: &'k HelperRegistry,
        quarantine: Arc<Quarantine>,
    ) -> Self {
        TenantRegistry {
            kernel,
            maps,
            helpers,
            vm: Vm::new(kernel, maps, helpers),
            quarantine,
            tenants: Vec::new(),
            by_name: HashMap::new(),
            shared: BTreeMap::new(),
        }
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of currently attached programs across all tenants.
    pub fn attached_count(&self) -> usize {
        self.tenants.iter().map(|t| t.attachments.len()).sum()
    }

    /// The breaker key for a tenant's attachment point. Tenant names hold
    /// no `/`, so the key's first `/` separates tenant from point.
    pub fn breaker_key(&self, id: TenantId, point: &str) -> Result<String, TenancyError> {
        Ok([self.tenant(id)?.name.as_str(), point].join("/"))
    }

    fn tenant(&self, id: TenantId) -> Result<&Tenant, TenancyError> {
        self.tenants
            .get(id as usize)
            .ok_or(TenancyError::UnknownTenant(id))
    }

    fn tenant_mut(&mut self, id: TenantId) -> Result<&mut Tenant, TenancyError> {
        self.tenants
            .get_mut(id as usize)
            .ok_or(TenancyError::UnknownTenant(id))
    }

    fn domain(id: TenantId) -> u32 {
        id + 1
    }

    /// Registers a tenant and installs its memory quota. Names containing
    /// `/` are refused (see [`TenancyError::InvalidTenantName`]).
    pub fn register(&mut self, name: &str, budget: TenantBudget) -> Result<TenantId, TenancyError> {
        if name.contains('/') {
            return Err(TenancyError::InvalidTenantName(name.to_string()));
        }
        if self.by_name.contains_key(name) {
            return Err(TenancyError::DuplicateTenant(name.to_string()));
        }
        let id = self.tenants.len() as TenantId;
        self.kernel
            .mem
            .set_domain_quota(Self::domain(id), budget.mem_bytes);
        self.tenants.push(Tenant {
            name: name.to_string(),
            budget,
            attachments: BTreeMap::new(),
            owned_maps: Vec::new(),
            shared_refs: Vec::new(),
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Create-time footprint of a map definition, for the per-map quota.
    fn footprint(&self, def: &MapDef) -> u64 {
        let entries = def.max_entries as u64;
        match def.kind {
            MapKind::Array => def.value_size as u64 * entries,
            MapKind::PerCpuArray => {
                def.value_size as u64 * entries * self.kernel.cpus.nr_cpus() as u64
            }
            // Hash storage grows at runtime; the quota checks the
            // worst-case footprint (every entry populated).
            MapKind::Hash | MapKind::LruHash => {
                (def.key_size as u64 + def.value_size as u64) * entries
            }
            MapKind::ProgArray => 0,
            MapKind::RingBuf => entries,
        }
    }

    fn check_map_quotas(&self, id: TenantId, def: &MapDef) -> Result<(), TenancyError> {
        let tenant = self.tenant(id)?;
        let held = tenant.owned_maps.len() + tenant.shared_refs.len();
        if held as u32 >= tenant.budget.max_maps {
            return Err(TenancyError::MapCountQuota {
                limit: tenant.budget.max_maps,
            });
        }
        let requested = self.footprint(def);
        if requested > tenant.budget.max_map_bytes {
            return Err(TenancyError::MapSizeQuota {
                requested,
                limit: tenant.budget.max_map_bytes,
            });
        }
        Ok(())
    }

    /// Creates a map owned by `id`, charged to its memory domain.
    pub fn create_map(&mut self, id: TenantId, def: MapDef) -> Result<MapFd, TenancyError> {
        self.check_map_quotas(id, &def)?;
        let fd = self
            .maps
            .create_in_domain(self.kernel, def, Self::domain(id))
            .map_err(|e| self.note_map_error(e))?;
        self.tenant_mut(id)?.owned_maps.push(fd);
        Ok(fd)
    }

    fn note_map_error(&self, e: MapError) -> TenancyError {
        if matches!(e, MapError::Fault(Fault::QuotaExceeded { .. })) {
            Metrics::bump(&self.kernel.metrics.quota_rejections, 1);
        }
        TenancyError::Map(e)
    }

    /// Creates a shared map under `share_name`, owned (and charged to)
    /// tenant `owner`, who holds the first reference.
    pub fn create_shared_map(
        &mut self,
        owner: TenantId,
        share_name: &str,
        def: MapDef,
    ) -> Result<MapFd, TenancyError> {
        if self.shared.contains_key(share_name) {
            return Err(TenancyError::SharedMapExists(share_name.to_string()));
        }
        self.check_map_quotas(owner, &def)?;
        let fd = self
            .maps
            .create_in_domain(self.kernel, def, Self::domain(owner))
            .map_err(|e| self.note_map_error(e))?;
        self.shared
            .insert(share_name.to_string(), SharedMap { fd, refs: 1 });
        self.tenant_mut(owner)?
            .shared_refs
            .push(share_name.to_string());
        Ok(fd)
    }

    /// Takes a reference to an existing shared map; counts toward the
    /// tenant's map-count quota.
    pub fn acquire_shared(
        &mut self,
        id: TenantId,
        share_name: &str,
    ) -> Result<MapFd, TenancyError> {
        let tenant = self.tenant(id)?;
        let held = tenant.owned_maps.len() + tenant.shared_refs.len();
        if held as u32 >= tenant.budget.max_maps {
            return Err(TenancyError::MapCountQuota {
                limit: tenant.budget.max_maps,
            });
        }
        let entry = self
            .shared
            .get_mut(share_name)
            .ok_or_else(|| TenancyError::UnknownSharedMap(share_name.to_string()))?;
        entry.refs += 1;
        let fd = entry.fd;
        self.tenant_mut(id)?
            .shared_refs
            .push(share_name.to_string());
        Ok(fd)
    }

    /// Drops a tenant's reference to a shared map; the last reference
    /// destroys the map (and revokes its fd generation).
    pub fn release_shared(&mut self, id: TenantId, share_name: &str) -> Result<(), TenancyError> {
        let tenant = self.tenant_mut(id)?;
        let pos = tenant
            .shared_refs
            .iter()
            .position(|n| n == share_name)
            .ok_or_else(|| TenancyError::NotASharer(share_name.to_string()))?;
        tenant.shared_refs.remove(pos);
        let entry = self
            .shared
            .get_mut(share_name)
            .ok_or_else(|| TenancyError::UnknownSharedMap(share_name.to_string()))?;
        entry.refs -= 1;
        if entry.refs == 0 {
            let fd = entry.fd;
            self.shared.remove(share_name);
            self.maps.destroy(&self.kernel.mem, fd)?;
        }
        Ok(())
    }

    /// How many references a shared map currently has (0 = gone).
    pub fn shared_refs(&self, share_name: &str) -> u32 {
        self.shared.get(share_name).map(|s| s.refs).unwrap_or(0)
    }

    /// Live sandbox domains a tenant holds (one per sandbox attachment).
    fn sandbox_count(&self, id: TenantId) -> Result<usize, TenancyError> {
        Ok(self
            .tenant(id)?
            .attachments
            .values()
            .filter(|a| matches!(a.current, Attached::Sandbox(_)))
            .count())
    }

    /// Refuses a sandbox spec that would exceed the tenant's domain
    /// quota. `replacing` is the attachment being upgraded over, if any:
    /// swapping sandbox-for-sandbox does not consume a new domain.
    fn check_domain_quota(
        &self,
        id: TenantId,
        spec: &ProgramSpec,
        replacing: Option<&Attached>,
    ) -> Result<(), TenancyError> {
        if !matches!(spec, ProgramSpec::Sandbox(_) | ProgramSpec::SandboxJit(_)) {
            return Ok(());
        }
        let mut held = self.sandbox_count(id)?;
        if matches!(replacing, Some(Attached::Sandbox(_))) {
            held -= 1;
        }
        let limit = self.tenant(id)?.budget.max_domains;
        if held as u32 >= limit {
            return Err(TenancyError::DomainQuota { limit });
        }
        Ok(())
    }

    fn load_spec(&mut self, id: TenantId, spec: ProgramSpec) -> Result<Attached, TenancyError> {
        let (prog, sandboxed, jit) = match spec {
            ProgramSpec::Safe(ext) => return Ok(Attached::Safe(ext)),
            ProgramSpec::Ebpf(prog) => (prog, false, false),
            ProgramSpec::EbpfJit(prog) => (prog, false, true),
            ProgramSpec::Sandbox(prog) => (prog, true, false),
            ProgramSpec::SandboxJit(prog) => (prog, true, true),
        };
        let jit_error = |e| TenancyError::Verifier(format!("jit: {e:?}"));
        if !sandboxed {
            Verifier::new(self.maps, self.helpers)
                .verify(&prog)
                .map_err(|e| TenancyError::Verifier(e.to_string()))?;
            let prog_id = if jit {
                self.vm
                    .load_jit(prog, JitConfig::default())
                    .map_err(jit_error)?
                    .0
            } else {
                self.vm.load(prog)
            };
            return Ok(Attached::Ebpf(prog_id));
        }
        // No verifier: the program is confined at run time by its SFI
        // domain, whose memory is charged to the tenant.
        let sandbox = SandboxConfig {
            account_domain: Self::domain(id),
            ..SandboxConfig::default()
        };
        let prog_id = if jit {
            self.vm
                .load_sandboxed_jit(prog, sandbox, JitConfig::default())
                .map_err(jit_error)?
                .0
        } else {
            self.vm.load_sandboxed(prog, sandbox)
        };
        Ok(Attached::Sandbox(prog_id))
    }

    fn unload_attached(&mut self, attached: Attached) {
        if let Attached::Ebpf(prog_id) | Attached::Sandbox(prog_id) = attached {
            self.vm.unload(prog_id);
        }
        Metrics::bump(&self.kernel.metrics.tenant_unloads, 1);
    }

    /// Loads `spec` and attaches it at the named point (v1).
    pub fn attach(
        &mut self,
        id: TenantId,
        point: &str,
        spec: ProgramSpec,
    ) -> Result<(), TenancyError> {
        if self.tenant(id)?.attachments.contains_key(point) {
            return Err(TenancyError::PointOccupied(point.to_string()));
        }
        self.check_domain_quota(id, &spec, None)?;
        let breaker_key = self.breaker_key(id, point)?.into_boxed_str();
        let current = self.load_spec(id, spec)?;
        let breaker = self.quarantine.breaker(&breaker_key);
        let tenant = self.tenant_mut(id)?;
        tenant.attachments.insert(
            point.to_string(),
            Attachment {
                current,
                version: 1,
                breaker_key,
                breaker,
            },
        );
        Metrics::bump(&self.kernel.metrics.tenant_loads, 1);
        self.kernel.audit.record(
            self.kernel.clock.now_ns(),
            EventKind::ExtensionLoaded,
            format!("tenancy: tenant {id} attached {point} v1"),
        );
        Ok(())
    }

    /// Atomic hot upgrade: load the new version, swap the attachment
    /// pointer, drain the old version under RCU, then tear it down.
    ///
    /// The swap is atomic with respect to admission — a run admitted
    /// before it executes the old version to completion (runs hold the
    /// RCU read lock), a run admitted after it sees the new one — and the
    /// grace-period wait guarantees no reader still references v_old when
    /// it is unloaded.
    pub fn upgrade(
        &mut self,
        id: TenantId,
        point: &str,
        spec: ProgramSpec,
    ) -> Result<(), TenancyError> {
        let replacing = self
            .tenant(id)?
            .attachments
            .get(point)
            .ok_or_else(|| TenancyError::UnknownPoint(point.to_string()))?;
        self.check_domain_quota(id, &spec, Some(&replacing.current))?;
        // Load v_new first: a failed load (verifier rejection, bad spec)
        // leaves the old version attached and serving.
        let fresh = self.load_spec(id, spec)?;
        Metrics::bump(&self.kernel.metrics.tenant_loads, 1);
        let swap_span = self.kernel.trace.span(SpanKind::HotSwap, id as u64);
        let tenant = self.tenant_mut(id)?;
        let att = tenant.attachments.get_mut(point).expect("checked above");
        let old = std::mem::replace(&mut att.current, fresh);
        att.version += 1;
        let version = att.version;
        // Drain: wait out a grace period so every in-flight reader of the
        // old version has exited its read-side section.
        self.kernel
            .rcu
            .synchronize(&self.kernel.audit)
            .map_err(|e| TenancyError::Rcu(e.to_string()))?;
        self.unload_attached(old);
        drop(swap_span);
        Metrics::bump(&self.kernel.metrics.tenant_swaps, 1);
        self.kernel.audit.record(
            self.kernel.clock.now_ns(),
            EventKind::Info,
            format!("tenancy: tenant {id} hot-upgraded {point} to v{version}"),
        );
        Ok(())
    }

    /// The current version at a point (1 before any upgrade).
    pub fn version(&self, id: TenantId, point: &str) -> Result<u32, TenancyError> {
        self.tenant(id)?
            .attachments
            .get(point)
            .map(|a| a.version)
            .ok_or_else(|| TenancyError::UnknownPoint(point.to_string()))
    }

    /// Detaches and unloads the program at a point (with an RCU drain,
    /// like the upgrade path).
    pub fn detach(&mut self, id: TenantId, point: &str) -> Result<(), TenancyError> {
        let tenant = self.tenant_mut(id)?;
        let att = tenant
            .attachments
            .remove(point)
            .ok_or_else(|| TenancyError::UnknownPoint(point.to_string()))?;
        self.kernel
            .rcu
            .synchronize(&self.kernel.audit)
            .map_err(|e| TenancyError::Rcu(e.to_string()))?;
        self.unload_attached(att.current);
        Ok(())
    }

    /// Tears down everything the tenant holds: all attachments (RCU
    /// drained), owned maps, and shared references. The tenant stays
    /// registered with its budget and quota — a churning tenant unloads
    /// and re-attaches without re-registering, and a dense id can't be
    /// reused without aliasing its memory domain anyway.
    pub fn unload_tenant(&mut self, id: TenantId) -> Result<(), TenancyError> {
        let points: Vec<String> = self.tenant(id)?.attachments.keys().cloned().collect();
        for point in points {
            self.detach(id, &point)?;
        }
        let owned = std::mem::take(&mut self.tenant_mut(id)?.owned_maps);
        for fd in owned {
            self.maps.destroy(&self.kernel.mem, fd)?;
        }
        let shared: Vec<String> = self.tenant(id)?.shared_refs.clone();
        for name in shared {
            self.release_shared(id, &name)?;
        }
        self.kernel.audit.record(
            self.kernel.clock.now_ns(),
            EventKind::Info,
            format!("tenancy: tenant {id} unloaded"),
        );
        Ok(())
    }

    /// Bytes currently charged to the tenant's memory domain.
    pub fn mem_bytes(&self, id: TenantId) -> u64 {
        self.kernel.mem.domain_bytes(Self::domain(id))
    }

    /// Runs the program attached at `point` on one packet, through the
    /// tenant-scoped breaker.
    ///
    /// Admission, kill accounting, and the half-open probe are keyed by
    /// `tenant/point`, so a misbehaving tenant quarantines alone. For the
    /// safe dialect the run executes under the tenant's fuel budget; for
    /// the eBPF dialect any aborted execution counts as a kill, and so
    /// does a retrospectively blown deadline (verified code cannot be
    /// preempted mid-run, but the control plane still quarantines it).
    pub fn run_packet(
        &self,
        id: TenantId,
        point: &str,
        payload: &[u8],
    ) -> Result<RunOutcome, TenancyError> {
        self.run_input(id, point, HookInput::Packet(payload))
    }

    /// Runs the program attached at `point` on any hook input, through
    /// the same tenant-scoped breaker as [`Self::run_packet`]. This is
    /// the entry point the hook scenarios use: probe fires, policy
    /// decisions, and scheduler picks all share the admission, kill
    /// accounting, and retrospective-deadline contract.
    pub fn run_input(
        &self,
        id: TenantId,
        point: &str,
        input: HookInput<'_>,
    ) -> Result<RunOutcome, TenancyError> {
        let tenant = self.tenant(id)?;
        let att = tenant
            .attachments
            .get(point)
            .ok_or_else(|| TenancyError::UnknownPoint(point.to_string()))?;
        let key = &*att.breaker_key;
        let breaker = &*att.breaker;
        if !self.quarantine.admit(breaker) {
            self.kernel.audit.record(
                self.kernel.clock.now_ns(),
                EventKind::Quarantined,
                format!("tenancy: {key}: run refused (quarantined)"),
            );
            return Ok(RunOutcome {
                verdict: RunVerdict::Refused,
                cost_ns: 0,
            });
        }
        let deadline_ns = RuntimeConfig::default().deadline_ns;
        let t0 = self.kernel.clock.now_ns();
        let verdict = match &att.current {
            // The sandbox lane shares the eBPF lane's verdict collapse:
            // a domain trap is an aborted execution, so it counts as a
            // kill and feeds the breaker — trap-to-quarantine.
            Attached::Ebpf(prog_id) | Attached::Sandbox(prog_id) => {
                let result = match input {
                    HookInput::Packet(payload) => self.vm.run_packet(*prog_id, payload).result,
                    HookInput::Kprobe(regs) => self.vm.run(*prog_id, CtxInput::Kprobe(regs)).result,
                    HookInput::Lsm(fields) => self.vm.run(*prog_id, CtxInput::Lsm(fields)).result,
                    HookInput::Sched(fields) => {
                        self.vm.run(*prog_id, CtxInput::Sched(fields)).result
                    }
                };
                match result {
                    // Verified code has no in-flight guard — the paper's point —
                    // so the eBPF lane's watchdog is retrospective: the control
                    // plane can't preempt the run, but a blown virtual-time
                    // deadline still counts as a kill for breaker purposes.
                    Ok(_) if self.kernel.clock.now_ns() - t0 > deadline_ns => {
                        self.note_tripped(key, breaker);
                        RunVerdict::Killed
                    }
                    Ok(v) => {
                        self.quarantine.record_clean(breaker);
                        RunVerdict::Ok(v)
                    }
                    Err(_) => {
                        self.note_tripped(key, breaker);
                        RunVerdict::Killed
                    }
                }
            }
            Attached::Safe(ext) => {
                let runtime = Runtime::new(self.kernel, self.maps).with_config(RuntimeConfig {
                    fuel: tenant.budget.fuel,
                    ..RuntimeConfig::default()
                });
                let outcome = match input {
                    HookInput::Packet(payload) => runtime.run_packet(ext, payload),
                    HookInput::Kprobe(regs) => runtime.run(ext, ExtInput::Kprobe(regs)),
                    HookInput::Lsm(fields) => runtime.run(ext, ExtInput::Lsm(fields)),
                    HookInput::Sched(fields) => runtime.run(ext, ExtInput::Sched(fields)),
                };
                match outcome.result {
                    Ok(v) => {
                        self.quarantine.record_clean(breaker);
                        RunVerdict::Ok(v)
                    }
                    Err(abort) if abort.is_kill() => {
                        self.note_tripped(key, breaker);
                        RunVerdict::Killed
                    }
                    Err(_) => {
                        self.quarantine.record_clean(breaker);
                        RunVerdict::Error
                    }
                }
            }
        };
        Ok(RunOutcome {
            verdict,
            cost_ns: self.kernel.clock.now_ns() - t0,
        })
    }

    fn note_tripped(&self, key: &str, breaker: &Breaker) {
        if self.quarantine.record_kill(breaker) {
            Metrics::bump(&self.kernel.metrics.quarantine_trips, 1);
            self.kernel.audit.record(
                self.kernel.clock.now_ns(),
                EventKind::Quarantined,
                format!("tenancy: {key}: breaker tripped"),
            );
        }
    }
}
