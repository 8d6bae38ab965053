//! One backend's world for one epoch: a booted kernel, its tenant
//! registry, and the timed execution of the stream through the tenancy
//! front door.
//!
//! Runs are timed per batch of [`RUN_BATCH`] (one clock read per batch,
//! never one per call); control-plane operations are timed one at a
//! time, excluding the harness work of building the next program. In a
//! traced epoch every call also gets a span, and the lower layers'
//! public entry points are called again on the same inputs so the
//! layers the front door hides can be split out.

use std::hint::black_box;

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, RunResult, SandboxConfig, Vm};
use ebpf::jit::{jit_lower, JitConfig};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::audit::{AuditLog, EventKind};
use kernel_sim::{FaultPlan, FaultPlanConfig, Kernel};
use safe_ext::{
    ExtInput, Extension, ExtensionRegistry, LoadError, Loader, Runtime, RuntimeConfig,
    SignedArtifact, Toolchain,
};
use signing::{KeyStore, SigningKey};
use tenancy::{
    storm_fault_config, HookInput, ProgramSpec, RunVerdict, TenancyError, TenantBudget, TenantId,
    TenantRegistry,
};
use verifier::{RejectCheck, VerifStats, Verifier};

use crate::host::cpu_ns;
use crate::mix64;
use crate::plan::{Input, Plan, Unit, Workload, LADDER_ARTIFACTS};
use crate::programs::{
    ebpf_program, ladder, port_key, safe_extension, Kind, LadderProgram, TenantMaps, PORT_CLASSES,
};
use crate::trace::Tracer;

/// The attachment point every run goes through.
pub const MAIN: &str = "main";
/// The ctl-upgrade workload's ladder attachment point.
pub const CTL: &str = "ctl";
/// Runs timed per clock read.
pub const RUN_BATCH: u32 = 32;
/// `create_skb` + `free_skb` pairs per traced skb span.
const SKB_BATCH: u64 = 8;
/// `read_u64` calls per traced memory span.
const READ_BATCH: u64 = 32;
/// `AuditLog::record` calls per traced audit span.
const AUDIT_BATCH: u64 = 8;

/// The three extension backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Verified eBPF, JIT lane.
    Ebpf,
    /// Signed safe-Rust extensions.
    SafeExt,
    /// Unverified eBPF in an SFI domain, JIT lane.
    Sandbox,
}

/// Span names of one backend's layers.
struct Names {
    run_input: &'static str,
    run_self: &'static str,
    run_backend: &'static str,
    upgrade: &'static str,
    upgrade_self: &'static str,
    attach: &'static str,
    unload: &'static str,
    create_maps: &'static str,
}

impl Backend {
    /// Every backend, in report order.
    pub const ALL: [Backend; 3] = [Backend::Ebpf, Backend::SafeExt, Backend::Sandbox];

    /// The backend's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Ebpf => "ebpf",
            Backend::SafeExt => "safe-ext",
            Backend::Sandbox => "sandbox",
        }
    }

    fn names(self) -> &'static Names {
        match self {
            Backend::Ebpf => &Names {
                run_input: "ebpf.tenancy.run_input",
                run_self: "ebpf.tenancy.run_self",
                run_backend: "ebpf.vm.run",
                upgrade: "ebpf.tenancy.upgrade",
                upgrade_self: "ebpf.tenancy.upgrade_self",
                attach: "ebpf.tenancy.attach",
                unload: "ebpf.tenancy.unload_tenant",
                create_maps: "ebpf.tenancy.create_maps",
            },
            Backend::SafeExt => &Names {
                run_input: "safe-ext.tenancy.run_input",
                run_self: "safe-ext.tenancy.run_self",
                run_backend: "safe-ext.runtime.run",
                upgrade: "safe-ext.tenancy.upgrade",
                upgrade_self: "safe-ext.tenancy.upgrade_self",
                attach: "safe-ext.tenancy.attach",
                unload: "safe-ext.tenancy.unload_tenant",
                create_maps: "safe-ext.tenancy.create_maps",
            },
            Backend::Sandbox => &Names {
                run_input: "sandbox.tenancy.run_input",
                run_self: "sandbox.tenancy.run_self",
                run_backend: "sandbox.vm.run",
                upgrade: "sandbox.tenancy.upgrade",
                upgrade_self: "sandbox.tenancy.upgrade_self",
                attach: "sandbox.tenancy.attach",
                unload: "sandbox.tenancy.unload_tenant",
                create_maps: "sandbox.tenancy.create_maps",
            },
        }
    }
}

/// A booted simulated kernel with its map and helper registries.
pub struct Substrate {
    kernel: Kernel,
    maps: MapRegistry,
    helpers: HelperRegistry,
}

impl Substrate {
    /// Boots a fresh kernel.
    pub fn boot() -> Self {
        Substrate {
            kernel: Kernel::new(),
            maps: MapRegistry::default(),
            helpers: HelperRegistry::standard(),
        }
    }
}

/// Why a load was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The verifier rejected the program; the check is the one setup's
    /// own verification of the same program named.
    Verifier(Option<RejectCheck>),
    /// JIT lowering rejected the program.
    Jit,
    /// The safe-ext artifact's signature did not validate.
    BadSignature,
}

/// How one stream unit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A run returned this value.
    Ok(u64),
    /// A run was refused by the tenant's breaker.
    Refused,
    /// A run was killed.
    Killed,
    /// A run ended in an ordinary extension error.
    Error,
    /// A load succeeded.
    Accepted,
    /// A load was rejected.
    Rejected(Reject),
    /// The control plane returned an error no workload expects.
    Failed,
}

impl Outcome {
    /// Folds the outcome into an FNV-1a digest.
    pub fn fold(self, h: &mut u64) {
        let (tag, value): (&[u8], u64) = match self {
            Outcome::Ok(v) => (b"ok", v),
            Outcome::Refused => (b"refused", 0),
            Outcome::Killed => (b"killed", 0),
            Outcome::Error => (b"error", 0),
            Outcome::Accepted => (b"accepted", 0),
            Outcome::Rejected(Reject::Verifier(check)) => (
                check.map_or(b"verifier".as_slice(), |c| c.name().as_bytes()),
                1,
            ),
            Outcome::Rejected(Reject::Jit) => (b"jit", 1),
            Outcome::Rejected(Reject::BadSignature) => (b"bad-signature", 1),
            Outcome::Failed => (b"failed", 0),
        };
        for &b in tag.iter().chain(&value.to_le_bytes()) {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Work and CPU time of one class of operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Meter {
    /// Operations completed.
    pub ops: u64,
    /// Process CPU nanoseconds spent in them.
    pub ns: u64,
}

impl Meter {
    fn add(&mut self, ops: u64, ns: u64) {
        self.ops += ops;
        self.ns += ns;
    }
}

/// One lane's timing for one epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct LaneMeters {
    /// Attached-program runs.
    pub runs: Meter,
    /// Control-plane operations that load a program.
    pub loads: Meter,
    /// Wall nanoseconds a traced epoch spent in side calls inside run
    /// batches (subtracted to price the spans alone).
    pub side_run_ns: u64,
}

/// Deterministic work counts over the digest prefix. Host-cost changes
/// must leave every field exactly equal.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Stream units.
    pub ops: u64,
    /// Attached-program runs.
    pub runs: u64,
    /// Instructions executed (eBPF dialects) or fuel used (safe-ext).
    pub insns: u64,
    /// Helper calls.
    pub helper_calls: u64,
    /// Virtual nanoseconds the runs cost.
    pub sim_cost_ns: u64,
    /// Verifications (eBPF loads).
    pub verifies: u64,
    /// Verifier instructions processed.
    pub insns_processed: u64,
    /// Verifier states pushed.
    pub states_pushed: u64,
    /// Verifier states pruned.
    pub states_pruned: u64,
    /// Audit records written.
    pub audit_events: u64,
}

struct TenantState {
    id: TenantId,
    kind: Kind,
    maps: TenantMaps,
    version: u32,
    /// Safe-ext: the entry symbol and the signed artifact bound to it.
    symbol: String,
    signed: Option<SignedArtifact>,
    /// Safe-ext: the extension serving the main point.
    ext: Option<Extension>,
    /// Traced eBPF dialects: the serving program's id in the standalone
    /// VM the side calls run on.
    shadow: Option<u32>,
}

struct SafeSide<'k> {
    loader: Loader<'k>,
    exts: ExtensionRegistry,
    /// A second keyring with the same key, for the traced
    /// `KeyStore::validate` call.
    keyring: KeyStore,
    /// ctl-upgrade: the five rung artifacts and a tampered one.
    ladder: Vec<SignedArtifact>,
}

struct LadderSide {
    programs: Vec<LadderProgram>,
    /// This backend's expected outcome per ladder program.
    expect: Vec<Outcome>,
    /// Setup's verification statistics per ladder program.
    stats: Vec<Option<VerifStats>>,
}

/// One backend's world for one epoch.
pub struct Lane<'k> {
    /// The backend.
    pub backend: Backend,
    sub: &'k Substrate,
    reg: TenantRegistry<'k>,
    budget: TenantBudget,
    tenants: Vec<TenantState>,
    safe: Option<SafeSide<'k>>,
    ladder: Option<LadderSide>,
    /// Setup's verification statistics per program family.
    family_stats: Vec<(Kind, VerifStats)>,
    /// The standalone VM of a traced eBPF-dialect epoch.
    shadow: Option<Vm<'k>>,
    side_audit: AuditLog,
    traced: bool,
    /// Whether the workload has a storm.
    storm: bool,
    /// Outcome of every unit run so far.
    pub outcomes: Vec<Outcome>,
    /// Next unit to run.
    pub cursor: usize,
    /// Timing.
    pub meters: LaneMeters,
    /// Counts over the prefix (complete once the cursor passes it).
    pub counts: Counts,
    prefix_base: (u64, u64, u64),
}

fn counter_def() -> MapDef {
    MapDef::array("counter", 8, 4)
}

fn ports_def() -> MapDef {
    MapDef::hash("ports", 4, 8, 32)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Creates a tenant's maps and fills its port table.
fn create_maps(
    reg: &mut TenantRegistry<'_>,
    sub: &Substrate,
    id: TenantId,
) -> Result<TenantMaps, String> {
    let counter = reg.create_map(id, counter_def()).map_err(err)?;
    let ports = reg.create_map(id, ports_def()).map_err(err)?;
    let map = sub.maps.get(ports).ok_or("port map vanished")?;
    for (port, class) in PORT_CLASSES {
        map.update(&sub.kernel.mem, &port_key(port), &class.to_le_bytes(), 0)
            .map_err(err)?;
    }
    Ok(TenantMaps { counter, ports })
}

/// The storm's fault-plan seed for one item.
fn fault_seed(seed: u64, item: u32) -> u64 {
    mix64(seed ^ u64::from(item).wrapping_mul(0x2b99_2ddf_a232_49d6) ^ 0x5701_7a11)
}

fn verdict(v: RunVerdict) -> Outcome {
    match v {
        RunVerdict::Ok(v) => Outcome::Ok(v),
        RunVerdict::Refused => Outcome::Refused,
        RunVerdict::Killed => Outcome::Killed,
        RunVerdict::Error => Outcome::Error,
    }
}

/// Reads the tracer's clock when there is one.
fn now(tr: &Option<&mut Tracer>) -> u64 {
    tr.as_ref().map_or(0, |t| t.now())
}

impl<'k> Lane<'k> {
    /// Registers the plan's tenants, creates their maps, signs the
    /// safe-ext artifacts and attaches every tenant's first version. The
    /// eBPF lane verifies every program it attaches here first, so its
    /// numbers never come from unverified code.
    pub fn setup(
        backend: Backend,
        sub: &'k Substrate,
        plan: &Plan,
        traced: bool,
    ) -> Result<Self, String> {
        let budget = if plan.workload == Workload::FleetChurn {
            TenantBudget::small()
        } else {
            TenantBudget::default()
        };
        let mut reg = TenantRegistry::new(&sub.kernel, &sub.maps, &sub.helpers);
        let key = SigningKey::derive(plan.seed);
        let toolchain = Toolchain::new(key.clone());
        let keyring = || -> Result<KeyStore, String> {
            let mut ks = KeyStore::new();
            ks.enroll(&key).map_err(err)?;
            ks.seal();
            Ok(ks)
        };
        let mut tenants = Vec::with_capacity(plan.kinds.len());
        for (t, &kind) in plan.kinds.iter().enumerate() {
            let name = format!("tenant{t}");
            let id = reg.register(&name, budget).map_err(err)?;
            let maps = create_maps(&mut reg, sub, id)?;
            let symbol = format!("{name}_entry");
            let signed = if backend == Backend::SafeExt {
                Some(
                    toolchain
                        .build(
                            kind.source(),
                            &format!("{name}-{}", kind.name()),
                            kind.prog_type(),
                            &symbol,
                            kind.requires(),
                        )
                        .map_err(err)?,
                )
            } else {
                None
            };
            tenants.push(TenantState {
                id,
                kind,
                maps,
                version: 1,
                symbol,
                signed,
                ext: None,
                shadow: None,
            });
        }
        let mut lane = Lane {
            backend,
            sub,
            reg,
            budget,
            tenants,
            safe: None,
            ladder: None,
            family_stats: Vec::new(),
            shadow: (traced && backend != Backend::SafeExt)
                .then(|| Vm::new(&sub.kernel, &sub.maps, &sub.helpers)),
            side_audit: AuditLog::default(),
            traced,
            storm: plan.storm.is_some(),
            outcomes: Vec::with_capacity(plan.units.len()),
            cursor: 0,
            meters: LaneMeters::default(),
            counts: Counts::default(),
            prefix_base: (0, 0, 0),
        };
        if backend == Backend::SafeExt {
            lane.safe = Some(SafeSide {
                loader: Loader::new(&sub.kernel, keyring()?),
                exts: ExtensionRegistry::new(),
                keyring: keyring()?,
                ladder: Vec::new(),
            });
        }
        if plan.workload == Workload::CtlUpgrade {
            lane.setup_ladder(&toolchain)?;
        }
        for t in 0..lane.tenants.len() {
            lane.attach_first(t)?;
        }
        lane.prefix_base = lane.snapshot();
        Ok(lane)
    }

    /// Builds the ladder against the control tenant's maps, works out
    /// how each load must end on this backend (eBPF: as the ladder says,
    /// checked against the verifier here; sandbox: loaded if the JIT can
    /// lower it; safe-ext: the five rung artifacts load, the tampered one
    /// fails its signature check), and attaches the first one at the
    /// control point.
    fn setup_ladder(&mut self, toolchain: &Toolchain) -> Result<(), String> {
        let id = self.tenants[0].id;
        let arr = self
            .reg
            .create_map(id, MapDef::array("ladder-arr", 64, 4))
            .map_err(err)?;
        let progs = self
            .reg
            .create_map(id, MapDef::prog_array("ladder-progs", 4))
            .map_err(err)?;
        let rb = self
            .reg
            .create_map(id, MapDef::ringbuf("ladder-rb", 4096))
            .map_err(err)?;
        let (programs, sources) = ladder(arr, progs, rb);
        let mut stats = vec![None; programs.len()];
        let expect = match self.backend {
            Backend::Ebpf => {
                let verifier = Verifier::new(&self.sub.maps, &self.sub.helpers);
                for (p, stats) in programs.iter().zip(&mut stats) {
                    match (verifier.verify(&p.prog), p.expect) {
                        (Ok(v), Ok(())) => *stats = Some(v.stats),
                        (Err(e), Err(check)) if e.check() == check => {}
                        (verdict, _) => {
                            return Err(format!(
                                "ladder program {} judged {:?}, expected {:?}",
                                p.prog.name,
                                verdict.map(|_| ()).map_err(|e| e.check()),
                                p.expect
                            ))
                        }
                    }
                }
                programs
                    .iter()
                    .map(|p| match p.expect {
                        Ok(()) => Outcome::Accepted,
                        Err(check) => Outcome::Rejected(Reject::Verifier(Some(check))),
                    })
                    .collect()
            }
            // No verifier: everything the JIT can lower loads.
            Backend::Sandbox => programs
                .iter()
                .map(|p| match jit_lower(&p.prog, sandbox_jit()) {
                    Ok(_) => Outcome::Accepted,
                    Err(_) => Outcome::Rejected(Reject::Jit),
                })
                .collect(),
            Backend::SafeExt => {
                let safe = self.safe.as_mut().expect("safe-ext lane has a loader");
                for (source, requires) in &sources {
                    safe.ladder.push(
                        toolchain
                            .build(
                                source,
                                "ladder",
                                ProgType::SocketFilter,
                                "ladder_entry",
                                requires,
                            )
                            .map_err(err)?,
                    );
                }
                let mut tampered = safe.ladder[0].clone();
                tampered.signature.mac[0] ^= 1;
                safe.ladder.push(tampered);
                assert_eq!(
                    safe.ladder.len(),
                    LADDER_ARTIFACTS,
                    "five rungs and a tampered copy"
                );
                safe.exts.link(
                    "ladder_entry",
                    Extension::new("ladder", ProgType::SocketFilter, |_| Ok(0)),
                );
                let mut expect = vec![Outcome::Accepted; LADDER_ARTIFACTS];
                expect[LADDER_ARTIFACTS - 1] = Outcome::Rejected(Reject::BadSignature);
                expect
            }
        };
        // v1 at the control point: the first accepted ladder program, or
        // the first rung's artifact.
        let spec = match self.backend {
            Backend::Ebpf => ProgramSpec::EbpfJit(programs[0].prog.clone()),
            Backend::Sandbox => ProgramSpec::SandboxJit(programs[0].prog.clone()),
            Backend::SafeExt => {
                let safe = self.safe.as_ref().expect("safe-ext lane has a loader");
                let loaded = safe.loader.load(&safe.ladder[0], &safe.exts).map_err(err)?;
                ProgramSpec::Safe(loaded.extension)
            }
        };
        self.reg.attach(id, CTL, spec).map_err(err)?;
        self.ladder = Some(LadderSide {
            programs,
            expect,
            stats,
        });
        Ok(())
    }

    /// Attaches tenant `t`'s version 1 at the main point.
    fn attach_first(&mut self, t: usize) -> Result<(), String> {
        let TenantState { id, kind, maps, .. } = self.tenants[t];
        let prog = self.prepare(t, 1, maps);
        if let (Backend::Ebpf, Some(prog)) = (self.backend, &prog) {
            let v = Verifier::new(&self.sub.maps, &self.sub.helpers)
                .verify(prog)
                .map_err(|e| {
                    format!(
                        "{} program of tenant {t} fails verification: {e}",
                        kind.name()
                    )
                })?;
            if !self.family_stats.iter().any(|(k, _)| *k == kind) {
                self.family_stats.push((kind, v.stats));
            }
        }
        let shadow_prog = prog.clone().filter(|_| self.traced);
        let spec = match self.load_step(self.tenants[t].signed.as_ref(), prog, &mut None, 0) {
            Ok(spec) => spec,
            Err(o) => return Err(format!("tenant {t} v1 load: {o:?}")),
        };
        let ext = match &spec {
            ProgramSpec::Safe(ext) => Some(ext.clone()),
            _ => None,
        };
        self.reg.attach(id, MAIN, spec).map_err(err)?;
        self.serve(t, 1, maps, ext, shadow_prog);
        Ok(())
    }

    /// Harness work before a load, never timed: the eBPF dialects build
    /// the program, safe-ext links the extension under the tenant's
    /// entry symbol (the artifact stays the one signed at setup).
    fn prepare(&mut self, t: usize, version: u32, maps: TenantMaps) -> Option<Program> {
        let tenant = &self.tenants[t];
        match self.backend {
            Backend::Ebpf | Backend::Sandbox => Some(ebpf_program(tenant.kind, version, maps)),
            Backend::SafeExt => {
                let ext =
                    safe_extension(tenant.kind, version, maps, &format!("tenant{t}-v{version}"));
                let safe = self.safe.as_mut().expect("safe-ext lane has a loader");
                safe.exts.link(&tenant.symbol, ext);
                None
            }
        }
    }

    /// The backend's load step in front of the tenancy call: nothing for
    /// the eBPF dialects (verification and JIT lowering run inside
    /// `attach`/`upgrade`), `Loader::load` for safe-ext.
    fn load_step(
        &self,
        signed: Option<&SignedArtifact>,
        prog: Option<Program>,
        tr: &mut Option<&mut Tracer>,
        op: u64,
    ) -> Result<ProgramSpec, Outcome> {
        match self.backend {
            Backend::Ebpf => Ok(ProgramSpec::EbpfJit(
                prog.expect("eBPF lanes build programs"),
            )),
            Backend::Sandbox => Ok(ProgramSpec::SandboxJit(
                prog.expect("eBPF lanes build programs"),
            )),
            Backend::SafeExt => {
                let safe = self.safe.as_ref().expect("safe-ext lane has a loader");
                let signed = signed.expect("safe-ext loads carry an artifact");
                let t0 = now(tr);
                let loaded = safe.loader.load(signed, &safe.exts);
                if let Some(tr) = tr.as_deref_mut() {
                    let end = tr.now();
                    tr.record("safe-ext.loader.load", t0, end, None, op, 1);
                }
                match loaded {
                    Ok(le) => Ok(ProgramSpec::Safe(le.extension)),
                    Err(LoadError::BadSignature(_)) => Err(Outcome::Rejected(Reject::BadSignature)),
                    Err(_) => Err(Outcome::Failed),
                }
            }
        }
    }

    /// Records that tenant `t` now serves `version` at the main point.
    fn serve(
        &mut self,
        t: usize,
        version: u32,
        maps: TenantMaps,
        ext: Option<Extension>,
        shadow_prog: Option<Program>,
    ) {
        let tenant = &mut self.tenants[t];
        tenant.version = version;
        tenant.maps = maps;
        tenant.ext = ext;
        if let (Some(vm), Some(prog)) = (self.shadow.as_mut(), shadow_prog) {
            if let Some(old) = tenant.shadow.take() {
                vm.unload(old);
            }
            let loaded = match self.backend {
                Backend::Sandbox => vm.load_sandboxed_jit(
                    prog,
                    SandboxConfig {
                        account_domain: tenant.id + 1,
                        ..SandboxConfig::default()
                    },
                    JitConfig::default(),
                ),
                _ => vm.load_jit(prog, JitConfig::default()),
            };
            tenant.shadow = loaded.ok().map(|(id, _)| id);
        }
    }

    /// Audit length, helper calls and instructions so far.
    fn snapshot(&self) -> (u64, u64, u64) {
        let m = self.sub.kernel.metrics.snapshot();
        (
            self.sub.kernel.audit.len() as u64,
            m.helper_calls,
            m.run_cost.sum,
        )
    }

    /// Closes the prefix's counts.
    fn close_prefix(&mut self) {
        let (audit, helpers, insns) = self.snapshot();
        self.counts.audit_events = audit - self.prefix_base.0;
        if !self.traced {
            // Untraced epochs read the work counts off the kernel's own
            // metrics; traced ones summed them from the side calls.
            self.counts.helper_calls = helpers - self.prefix_base.1;
            self.counts.insns = insns - self.prefix_base.2;
        }
    }

    /// Whether every unit has run.
    pub fn done(&self, plan: &Plan) -> bool {
        self.cursor >= plan.units.len()
    }

    /// Runs units until `budget_ns` of process CPU time has passed or
    /// the stream is exhausted.
    pub fn slice(&mut self, plan: &Plan, budget_ns: u64, mut tr: Option<&mut Tracer>) {
        let start = cpu_ns();
        let mut mark = start;
        let mut batch = 0u32;
        while self.cursor < plan.units.len() {
            let in_prefix = self.cursor < plan.prefix;
            let unit = plan.units[self.cursor];
            let outcome = match unit {
                Unit::Run {
                    tenant,
                    input,
                    item,
                    storm,
                } => {
                    batch += 1;
                    self.run(
                        plan,
                        tenant as usize,
                        &input,
                        item,
                        storm,
                        in_prefix,
                        &mut tr,
                    )
                }
                _ => {
                    if batch > 0 {
                        let t = cpu_ns();
                        self.meters.runs.add(u64::from(batch), t - mark);
                        batch = 0;
                    }
                    let (outcome, ns) = self.control(unit, in_prefix, &mut tr);
                    self.meters.loads.add(1, ns);
                    mark = cpu_ns();
                    outcome
                }
            };
            self.outcomes.push(outcome);
            if in_prefix {
                self.counts.ops += 1;
            }
            self.cursor += 1;
            if self.cursor == plan.prefix {
                self.close_prefix();
            }
            if batch == RUN_BATCH {
                let t = cpu_ns();
                self.meters.runs.add(u64::from(batch), t - mark);
                batch = 0;
                mark = t;
            }
            if batch == 0 && mark - start >= budget_ns {
                return;
            }
        }
        if batch > 0 {
            let t = cpu_ns();
            self.meters.runs.add(u64::from(batch), t - mark);
        }
    }

    /// One attached-program run through the front door, plus in a traced
    /// epoch the side calls that split it into layers.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        plan: &Plan,
        t: usize,
        input: &Input,
        item: u32,
        storm: bool,
        in_prefix: bool,
        tr: &mut Option<&mut Tracer>,
    ) -> Outcome {
        let sub = self.sub;
        let kernel = &sub.kernel;
        let names = self.backend.names();
        let id = self.tenants[t].id;
        let hook = plan.hook_input(input);
        let op = tr.as_deref_mut().map_or(0, Tracer::op);
        if storm {
            let t0 = now(tr);
            kernel.arm_fault_plan(FaultPlan::with_config(
                fault_seed(plan.seed, item),
                storm_fault_config(),
            ));
            if let Some(tr) = tr.as_deref_mut() {
                let end = tr.now();
                tr.record("kernel-sim.inject.arm", t0, end, None, op, 1);
            }
        }
        let t0 = now(tr);
        let result = self.reg.run_input(id, MAIN, hook);
        let main = tr.as_deref_mut().map(|tr| {
            let end = tr.now();
            tr.record(names.run_input, t0, end, None, op, 1)
        });
        if storm {
            kernel.disarm_faults();
        }
        let outcome = match result {
            Ok(out) => {
                if in_prefix {
                    self.counts.runs += 1;
                    self.counts.sim_cost_ns += out.cost_ns;
                }
                verdict(out.verdict)
            }
            Err(_) => Outcome::Failed,
        };
        if let (Some(tr), Some(main)) = (tr.as_deref_mut(), main) {
            let side_start = tr.now();
            if !matches!(outcome, Outcome::Refused | Outcome::Failed) {
                self.side_run(tr, t, hook, main, op, in_prefix);
            }
            self.side_substrate(tr, t, hook, main.0, op);
            self.meters.side_run_ns += tr.now() - side_start;
        }
        outcome
    }

    /// The backend call `run_input` makes, on a standalone VM (eBPF
    /// dialects) or a fresh `Runtime` (safe-ext), on the same program and
    /// input.
    fn side_run(
        &mut self,
        tr: &mut Tracer,
        t: usize,
        hook: HookInput<'_>,
        main: (Option<u32>, u64),
        op: u64,
        in_prefix: bool,
    ) {
        let sub = self.sub;
        let names = self.backend.names();
        let tenant = &self.tenants[t];
        let t0 = tr.now();
        let (insns, helper_calls) = match (self.backend, self.shadow.as_ref()) {
            (Backend::SafeExt, _) => {
                let ext = tenant
                    .ext
                    .as_ref()
                    .expect("safe-ext tenant serves an extension");
                let input = match hook {
                    HookInput::Packet(p) => ExtInput::Packet(p.to_vec()),
                    HookInput::Kprobe(regs) => ExtInput::Kprobe(regs),
                    HookInput::Lsm(fields) => ExtInput::Lsm(fields),
                    HookInput::Sched(fields) => ExtInput::Sched(fields),
                };
                let out = Runtime::new(&sub.kernel, &sub.maps)
                    .with_config(RuntimeConfig {
                        fuel: self.budget.fuel,
                        ..RuntimeConfig::default()
                    })
                    .run(ext, input);
                (black_box(out).fuel_used, 0)
            }
            (_, Some(vm)) => {
                let prog = tenant.shadow.expect("traced tenant has a shadow program");
                let out: RunResult = match hook {
                    HookInput::Packet(p) => vm.run_packet(prog, p),
                    HookInput::Kprobe(regs) => vm.run(prog, CtxInput::Kprobe(regs)),
                    HookInput::Lsm(fields) => vm.run(prog, CtxInput::Lsm(fields)),
                    HookInput::Sched(fields) => vm.run(prog, CtxInput::Sched(fields)),
                };
                let out = black_box(out);
                (out.insns, out.helper_calls)
            }
            (_, None) => unreachable!("traced eBPF lanes have a shadow VM"),
        };
        let end = tr.now();
        let (_, ns) = tr.record(names.run_backend, t0, end, main.0, op, 1);
        tr.self_sample(names.run_self, main.1, ns);
        if in_prefix {
            self.counts.insns += insns;
            self.counts.helper_calls += helper_calls;
        }
    }

    /// The substrate primitives under a run: the skb build (packets) and
    /// a checked read among the workload's live regions.
    fn side_substrate(
        &self,
        tr: &mut Tracer,
        t: usize,
        hook: HookInput<'_>,
        parent: Option<u32>,
        op: u64,
    ) {
        let kernel = &self.sub.kernel;
        if let HookInput::Packet(payload) = hook {
            let t0 = tr.now();
            for _ in 0..SKB_BATCH {
                if let Ok(skb) = kernel.objects.create_skb(&kernel.mem, payload) {
                    let _ = kernel.objects.free_skb(&kernel.mem, black_box(skb).id);
                }
            }
            let end = tr.now();
            tr.record("kernel-sim.skb", t0, end, parent, op, SKB_BATCH);
        }
        let addr = self
            .sub
            .maps
            .get(self.tenants[t].maps.counter)
            .and_then(|m| m.elem_addr(0, 0));
        if let Some(addr) = addr {
            let t0 = tr.now();
            for _ in 0..READ_BATCH {
                let _ = black_box(kernel.mem.read_u64(black_box(addr)));
            }
            let end = tr.now();
            tr.record("kernel-sim.mem.read", t0, end, parent, op, READ_BATCH);
        }
    }

    /// One control-plane operation; returns its outcome and the process
    /// CPU nanoseconds its timed calls took.
    fn control(
        &mut self,
        unit: Unit,
        in_prefix: bool,
        tr: &mut Option<&mut Tracer>,
    ) -> (Outcome, u64) {
        let op = tr.as_deref_mut().map_or(0, Tracer::op);
        match unit {
            Unit::Upgrade { tenant } => self.upgrade_main(tenant as usize, in_prefix, tr, op),
            Unit::Reload { tenant } => self.reload(tenant as usize, in_prefix, tr, op),
            Unit::Cycle { rung, artifact } => {
                self.cycle(rung as usize, artifact as usize, in_prefix, tr, op)
            }
            Unit::Run { .. } => unreachable!("runs are not control-plane operations"),
        }
    }

    /// Maps a tenancy load result to an outcome; `check` is setup's
    /// verdict on the same program.
    fn load_outcome(result: Result<(), TenancyError>, check: Option<RejectCheck>) -> Outcome {
        match result {
            Ok(()) => Outcome::Accepted,
            Err(TenancyError::Verifier(msg)) if msg.starts_with("jit:") => {
                Outcome::Rejected(Reject::Jit)
            }
            Err(TenancyError::Verifier(_)) => Outcome::Rejected(Reject::Verifier(check)),
            Err(_) => Outcome::Failed,
        }
    }

    fn family_stats(&self, kind: Kind) -> Option<VerifStats> {
        self.family_stats
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
    }

    /// Hot upgrade of tenant `t`'s main point to its next version.
    fn upgrade_main(
        &mut self,
        t: usize,
        in_prefix: bool,
        tr: &mut Option<&mut Tracer>,
        op: u64,
    ) -> (Outcome, u64) {
        let names = self.backend.names();
        let TenantState { id, kind, maps, .. } = self.tenants[t];
        let next = self.tenants[t].version + 1;
        let prog = self.prepare(t, next, maps);
        let side_prog = prog.clone().filter(|_| self.traced);
        let signed = self.tenants[t].signed.clone();
        self.before_load(
            tr,
            op,
            side_prog.as_ref(),
            signed.as_ref(),
            in_prefix,
            self.family_stats(kind),
        );
        let c0 = cpu_ns();
        let (outcome, ext, span) = match self.load_step(signed.as_ref(), prog, tr, op) {
            Ok(spec) => {
                let ext = match &spec {
                    ProgramSpec::Safe(ext) => Some(ext.clone()),
                    _ => None,
                };
                let t0 = now(tr);
                let result = self.reg.upgrade(id, MAIN, spec);
                let span = tr.as_deref_mut().map(|tr| {
                    let end = tr.now();
                    tr.record(names.upgrade, t0, end, None, op, 1)
                });
                (Self::load_outcome(result, None), ext, span)
            }
            Err(o) => (o, None, None),
        };
        let ns = cpu_ns() - c0;
        if outcome == Outcome::Accepted {
            self.serve(t, next, maps, ext, side_prog.clone());
        }
        self.after_load(tr, op, span, side_prog.as_ref(), signed.as_ref(), id, next);
        (outcome, ns)
    }

    /// Full unload of tenant `t`, fresh maps, and its next version
    /// attached.
    fn reload(
        &mut self,
        t: usize,
        in_prefix: bool,
        tr: &mut Option<&mut Tracer>,
        op: u64,
    ) -> (Outcome, u64) {
        let names = self.backend.names();
        let TenantState { id, kind, .. } = self.tenants[t];
        let next = self.tenants[t].version + 1;
        let c0 = cpu_ns();
        let t0 = now(tr);
        let unloaded = self.reg.unload_tenant(id);
        let t1 = now(tr);
        let maps = create_maps(&mut self.reg, self.sub, id);
        if let Some(tr) = tr.as_deref_mut() {
            let end = tr.now();
            tr.record(names.unload, t0, t1, None, op, 1);
            tr.record(names.create_maps, t1, end, None, op, 1);
        }
        let mut ns = cpu_ns() - c0;
        let (Ok(()), Ok(maps)) = (unloaded, maps) else {
            return (Outcome::Failed, ns);
        };
        let prog = self.prepare(t, next, maps);
        let side_prog = prog.clone().filter(|_| self.traced);
        let signed = self.tenants[t].signed.clone();
        self.before_load(
            tr,
            op,
            side_prog.as_ref(),
            signed.as_ref(),
            in_prefix,
            self.family_stats(kind),
        );
        let c1 = cpu_ns();
        let (outcome, ext) = match self.load_step(signed.as_ref(), prog, tr, op) {
            Ok(spec) => {
                let ext = match &spec {
                    ProgramSpec::Safe(ext) => Some(ext.clone()),
                    _ => None,
                };
                let t0 = now(tr);
                let result = self.reg.attach(id, MAIN, spec);
                if let Some(tr) = tr.as_deref_mut() {
                    let end = tr.now();
                    tr.record(names.attach, t0, end, None, op, 1);
                }
                (Self::load_outcome(result, None), ext)
            }
            Err(o) => (o, None),
        };
        ns += cpu_ns() - c1;
        if outcome == Outcome::Accepted {
            self.serve(t, next, maps, ext, side_prog.clone());
        }
        self.after_load(tr, op, None, side_prog.as_ref(), signed.as_ref(), id, next);
        (outcome, ns)
    }

    /// Hot upgrade of the control point to ladder program `rung`
    /// (eBPF dialects) or ladder artifact `artifact` (safe-ext).
    fn cycle(
        &mut self,
        rung: usize,
        artifact: usize,
        in_prefix: bool,
        tr: &mut Option<&mut Tracer>,
        op: u64,
    ) -> (Outcome, u64) {
        let names = self.backend.names();
        let id = self.tenants[0].id;
        let ladder = self
            .ladder
            .as_ref()
            .expect("ctl-upgrade lanes carry the ladder");
        let (prog, check, stats) = match self.backend {
            Backend::SafeExt => (None, None, None),
            _ => (
                Some(ladder.programs[rung].prog.clone()),
                ladder.programs[rung].expect.err(),
                ladder.stats[rung],
            ),
        };
        let side_prog = prog.clone().filter(|_| self.traced);
        let signed = self.safe.as_ref().map(|safe| safe.ladder[artifact].clone());
        self.before_load(
            tr,
            op,
            side_prog.as_ref(),
            signed.as_ref(),
            in_prefix,
            stats,
        );
        let c0 = cpu_ns();
        let (outcome, span) = match self.load_step(signed.as_ref(), prog, tr, op) {
            Ok(spec) => {
                let t0 = now(tr);
                let result = self.reg.upgrade(id, CTL, spec);
                let span = tr.as_deref_mut().map(|tr| {
                    let end = tr.now();
                    tr.record(names.upgrade, t0, end, None, op, 1)
                });
                (Self::load_outcome(result, check), span)
            }
            Err(o) => (o, None),
        };
        let ns = cpu_ns() - c0;
        self.after_load(tr, op, span, side_prog.as_ref(), signed.as_ref(), id, 0);
        (outcome, ns)
    }

    /// Runs the layers of a load step on the program (eBPF: verify, then
    /// JIT lowering; sandbox: masked JIT lowering; safe-ext: signature
    /// validation), recording their spans when `record` is set. Returns
    /// their summed duration and the verification statistics.
    fn load_layers(
        &self,
        tr: &mut Tracer,
        op: u64,
        prog: Option<&Program>,
        signed: Option<&SignedArtifact>,
        record: bool,
    ) -> (u64, Option<VerifStats>) {
        let sub = self.sub;
        let mut total = 0;
        let mut stats = None;
        let mut span = |tr: &mut Tracer, name, t0| {
            let end = tr.now();
            total += end - t0;
            if record {
                tr.record(name, t0, end, None, op, 1);
            }
        };
        match (self.backend, prog) {
            (Backend::Ebpf, Some(prog)) => {
                let t0 = tr.now();
                let verdict = Verifier::new(&sub.maps, &sub.helpers).verify(prog);
                span(tr, "verifier.verify", t0);
                if let Ok(v) = verdict {
                    stats = Some(v.stats);
                    let t0 = tr.now();
                    let _ = black_box(jit_lower(prog, JitConfig::default()));
                    span(tr, "ebpf.jit.lower", t0);
                }
            }
            (Backend::Sandbox, Some(prog)) => {
                let t0 = tr.now();
                let _ = black_box(jit_lower(prog, sandbox_jit()));
                span(tr, "sandbox.jit.lower", t0);
            }
            (Backend::SafeExt, _) => {
                let safe = self.safe.as_ref().expect("safe-ext lane has a loader");
                let signed = signed.expect("safe-ext loads carry an artifact");
                let t0 = tr.now();
                let _ = black_box(safe.keyring.validate(&signed.bytes, &signed.signature));
                span(tr, "signing.validate", t0);
            }
            _ => {}
        }
        (total, stats)
    }

    /// Before a load: the prefix's verifier counts and, in a traced
    /// epoch, the load step's layers priced cold, as the front door meets
    /// them (the front-door call that follows then runs warm).
    fn before_load(
        &mut self,
        tr: &mut Option<&mut Tracer>,
        op: u64,
        prog: Option<&Program>,
        signed: Option<&SignedArtifact>,
        in_prefix: bool,
        setup_stats: Option<VerifStats>,
    ) {
        let stats = match tr.as_deref_mut() {
            Some(tr) => self.load_layers(tr, op, prog, signed, true).1,
            None => setup_stats,
        };
        if in_prefix && self.backend == Backend::Ebpf {
            self.counts.verifies += 1;
            if let Some(s) = stats {
                self.counts.insns_processed += s.insns_processed;
                self.counts.states_pushed += s.states_pushed;
                self.counts.states_pruned += s.states_pruned;
            }
        }
    }

    /// After a load in a traced epoch: the upgrade's self time (its span
    /// minus the load step's layers, both warm) and the substrate
    /// primitives the control plane uses.
    #[allow(clippy::too_many_arguments)]
    fn after_load(
        &mut self,
        tr: &mut Option<&mut Tracer>,
        op: u64,
        upgrade_span: Option<(Option<u32>, u64)>,
        prog: Option<&Program>,
        signed: Option<&SignedArtifact>,
        id: TenantId,
        version: u32,
    ) {
        let Some(tr) = tr.as_deref_mut() else {
            return;
        };
        let sub = self.sub;
        if let Some((_, span_ns)) = upgrade_span {
            // Safe-ext's load step (`Loader::load`) runs before `upgrade`,
            // not inside it.
            let children = match self.backend {
                Backend::SafeExt => 0,
                _ => self.load_layers(tr, op, prog, signed, false).0,
            };
            tr.self_sample(self.backend.names().upgrade_self, span_ns, children);
        }
        if !self.storm {
            // Without a storm no run arms a plan; price arming a quiet
            // one here so the layer is measured on every workload.
            let t0 = tr.now();
            sub.kernel.arm_fault_plan(FaultPlan::with_config(
                u64::from(version),
                FaultPlanConfig::quiet(),
            ));
            sub.kernel.disarm_faults();
            let end = tr.now();
            tr.record("kernel-sim.inject.arm", t0, end, None, op, 1);
        }
        let t0 = tr.now();
        if let Ok(fd) = sub.maps.create(&sub.kernel, counter_def()) {
            let _ = sub.maps.destroy(&sub.kernel.mem, fd);
        }
        let end = tr.now();
        tr.record("ebpf.maps.create_destroy", t0, end, None, op, 1);
        let t0 = tr.now();
        for _ in 0..AUDIT_BATCH {
            self.side_audit.record(
                sub.kernel.clock.now_ns(),
                EventKind::Info,
                format!("tenancy: tenant {id} hot-upgraded {MAIN} to v{version}"),
            );
        }
        let end = tr.now();
        tr.record("kernel-sim.audit.record", t0, end, None, op, AUDIT_BATCH);
        self.side_audit.clear();
    }

    /// What every unit of the plan should end as on this backend.
    pub fn expected(&self, plan: &Plan) -> Vec<Expect> {
        let mut versions = vec![1u32; plan.kinds.len()];
        plan.units
            .iter()
            .map(|unit| match *unit {
                Unit::Run {
                    tenant,
                    input,
                    item,
                    ..
                } => {
                    let t = tenant as usize;
                    let value =
                        crate::programs::model(plan.kinds[t], versions[t], plan.hook_input(&input))
                            .expect("every tenant gets inputs of its own kind");
                    if plan.storm_exposed(tenant, item) {
                        Expect::StormExposed(value)
                    } else {
                        Expect::Exact(Outcome::Ok(value))
                    }
                }
                Unit::Upgrade { tenant } | Unit::Reload { tenant } => {
                    versions[tenant as usize] += 1;
                    Expect::Exact(Outcome::Accepted)
                }
                Unit::Cycle { rung, artifact } => {
                    let ladder = self
                        .ladder
                        .as_ref()
                        .expect("ctl-upgrade lanes carry the ladder");
                    let index = if self.backend == Backend::SafeExt {
                        artifact
                    } else {
                        rung
                    };
                    Expect::Exact(ladder.expect[index as usize])
                }
            })
            .collect()
    }
}

/// The outcome a unit should end as.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Exactly this outcome.
    Exact(Outcome),
    /// A run of a storm victim: the model's value, a storm kill, or a
    /// quarantine refusal.
    StormExposed(u64),
}

impl Expect {
    /// Whether `outcome` is what was expected.
    pub fn admits(self, outcome: Outcome) -> bool {
        match self {
            Expect::Exact(o) => o == outcome,
            Expect::StormExposed(v) => {
                matches!(outcome, Outcome::Killed | Outcome::Refused) || outcome == Outcome::Ok(v)
            }
        }
    }
}

fn sandbox_jit() -> JitConfig {
    JitConfig {
        sandbox: true,
        ..JitConfig::default()
    }
}
