//! The eBPF bytecode interpreter.
//!
//! Executes programs against the simulated kernel: every memory access is
//! checked (a bad one oopses the kernel, as §2.2's exploit demonstrates),
//! the whole run holds the RCU read lock (so the stall detector sees
//! over-long runs), `bpf_tail_call` and `bpf_loop` are inlined exactly as
//! in the kernel, and bpf2bpf calls get fresh 512-byte stack frames.
//!
//! The interpreter deliberately has **no termination enforcement of its
//! own** (`VmConfig::max_insns` defaults to unlimited): in the baseline
//! architecture, termination is the verifier's job — which is precisely
//! the guarantee the paper's `bpf_loop` exploit voids.

use kernel_sim::{
    audit::EventKind,
    domain::{DomainCosts, SandboxDomain},
    exec::{ExecCtx, ExecReport},
    mem::{Addr, Fault, Perms},
    metrics::Metrics,
    objects::SkBuff,
    oops::OopsReason,
    Kernel,
};

use crate::{
    helpers::{
        neg_errno, tagged, untag, FaultConfig, HelperCtx, HelperError, HelperImpl, HelperRegistry,
        RetType, RunState, BPF_LOOP, BPF_TAIL_CALL, E2BIG, EAGAIN, EINVAL, FUNC_PTR_TAG,
        MAP_PTR_TAG,
    },
    insn::{
        lddw_imm, Insn, BPF_ADD, BPF_ALU, BPF_ALU64, BPF_AND, BPF_ARSH, BPF_ATOMIC, BPF_ATOMIC_ADD,
        BPF_ATOMIC_AND, BPF_ATOMIC_OR, BPF_ATOMIC_XOR, BPF_CALL, BPF_CMPXCHG, BPF_DIV, BPF_END,
        BPF_EXIT, BPF_FETCH, BPF_JA, BPF_JEQ, BPF_JGE, BPF_JGT, BPF_JLE, BPF_JLT, BPF_JMP,
        BPF_JMP32, BPF_JNE, BPF_JSET, BPF_JSGE, BPF_JSGT, BPF_JSLE, BPF_JSLT, BPF_LD, BPF_LDX,
        BPF_LSH, BPF_MEM, BPF_MOD, BPF_MOV, BPF_MUL, BPF_NEG, BPF_OR, BPF_PSEUDO_CALL,
        BPF_PSEUDO_FUNC, BPF_PSEUDO_MAP_FD, BPF_RSH, BPF_ST, BPF_STACK_SIZE, BPF_STX, BPF_SUB,
        BPF_XCHG, BPF_XOR,
    },
    jit::{jit_lower, JitConfig, JitError, JitStats, JumpTarget, LowOp, Src},
    maps::MapRegistry,
    program::{ProgType, Program},
};

/// Poll the RCU stall detector every this many instructions.
const RCU_POLL_INTERVAL: u64 = 4096;
/// Maximum bpf2bpf call depth (kernel: 8).
const MAX_CALL_DEPTH: usize = 8;
/// Maximum chained tail calls (kernel: 33).
const MAX_TAIL_CALLS: u32 = 33;
/// Maximum `bpf_loop` iteration count per call (kernel: 1 << 23).
const MAX_LOOP_ITERATIONS: u64 = 1 << 23;
/// PRNG seed for `bpf_get_prandom_u32`.
const PRANDOM_SEED: u64 = 0x5eed_cafe;

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Virtual nanoseconds charged per executed instruction.
    pub time_per_insn_ns: u64,
    /// Optional hard runtime instruction budget (`None` = rely on the
    /// verifier for termination, as the baseline does).
    pub max_insns: Option<u64>,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            time_per_insn_ns: 1,
            max_insns: None,
        }
    }
}

/// The input handed to a program run, determining its context structure.
#[derive(Debug, Clone)]
pub enum CtxInput {
    /// No meaningful context.
    None,
    /// A packet; builds the skb-style `{data, data_end, len}` context.
    Packet(Vec<u8>),
    /// A kprobe register file.
    Kprobe([u64; 8]),
    /// A tracepoint record.
    Tracepoint([u64; 4]),
    /// An LSM policy-hook record: `{hook, subject, attr, cookie}`.
    Lsm([u64; 4]),
    /// A sched-ext pick-next-task record: `{cpu, nr_runnable, cand0_id,
    /// cand0_vruntime, cand1_id, cand1_vruntime}`.
    Sched([u64; 6]),
}

impl CtxInput {
    fn as_ref(&self) -> CtxRef<'_> {
        match self {
            CtxInput::None => CtxRef::Words(&[]),
            CtxInput::Packet(payload) => CtxRef::Packet(payload),
            CtxInput::Kprobe(regs) => CtxRef::Words(regs),
            CtxInput::Tracepoint(fields) | CtxInput::Lsm(fields) => CtxRef::Words(fields),
            CtxInput::Sched(fields) => CtxRef::Words(fields),
        }
    }
}

/// Borrowed view of a [`CtxInput`]: hot callers (the dispatch shard
/// loop) run packet programs straight off a shared payload slice
/// without allocating a per-packet buffer first.
#[derive(Debug, Clone, Copy)]
enum CtxRef<'a> {
    /// Builds an skb and points the ctx at its payload.
    Packet(&'a [u8]),
    /// Copied into the ctx as consecutive little-endian words.
    Words(&'a [u64]),
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A memory fault in program or helper code: the kernel oopsed.
    Fault {
        /// The fault.
        fault: Fault,
        /// Program counter at the faulting instruction.
        pc: usize,
    },
    /// The run could not set up its context or a stack frame: an
    /// allocation failed (under injected memory pressure, say), or a hook
    /// context did not fit the program's. No instruction touched the
    /// memory, so unlike [`ExecError::Fault`] the kernel does *not* oops.
    Setup {
        /// The allocation's or the context write's fault.
        fault: Fault,
        /// Entry pc of the frame being set up (0 for the context).
        pc: usize,
    },
    /// A helper failed in a non-recoverable way.
    HelperFailure {
        /// Description.
        msg: String,
        /// Call site.
        pc: usize,
    },
    /// A deadlock was detected (the CPU would spin forever).
    Deadlock {
        /// Call site.
        pc: usize,
    },
    /// An undecodable or unsupported instruction.
    BadInstruction {
        /// Offending pc.
        pc: usize,
    },
    /// A jump or call left the program text: control-flow hijack.
    ControlFlowEscape {
        /// Jump site.
        pc: usize,
        /// The escaped target.
        target: i64,
    },
    /// bpf2bpf call depth exceeded.
    CallDepthExceeded {
        /// Call site.
        pc: usize,
    },
    /// The configured runtime instruction budget was exhausted.
    InsnLimit {
        /// The budget.
        limit: u64,
    },
    /// A CALL named an unknown helper.
    UnknownHelper {
        /// Helper id.
        id: u32,
        /// Call site.
        pc: usize,
    },
    /// A tail call was attempted from inside a subprogram.
    TailCallInSubprog {
        /// Call site.
        pc: usize,
    },
    /// `run` was asked for a program id that was never loaded (including
    /// any id when no program has been loaded at all).
    NoSuchProgram {
        /// The requested program id.
        id: u32,
    },
    /// The program ends in the middle of an LDDW pair. The JIT lane
    /// rejects this at compile time ([`JitError::TruncatedLddw`]); the
    /// interpreter lane rejects it identically before executing anything.
    TruncatedLddw {
        /// The dangling first slot.
        pc: usize,
    },
    /// A sandboxed (unverified) program touched memory outside its
    /// protection domain and its granted kernel windows. The access never
    /// happened: the SFI check trapped it, the run aborts, and — unlike
    /// [`ExecError::Fault`] — the kernel does *not* oops. This is the
    /// defining divergence of the sandbox lane: isolation at run time
    /// instead of rejection at load time.
    DomainTrap {
        /// Program counter at the trapped access.
        pc: usize,
        /// The escaping address.
        addr: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Fault { fault, pc } => write!(f, "fault at pc {pc}: {fault}"),
            ExecError::Setup { fault, pc } => write!(f, "run setup failed at pc {pc}: {fault}"),
            ExecError::HelperFailure { msg, pc } => write!(f, "helper failure at pc {pc}: {msg}"),
            ExecError::Deadlock { pc } => write!(f, "deadlock at pc {pc}"),
            ExecError::BadInstruction { pc } => write!(f, "bad instruction at pc {pc}"),
            ExecError::ControlFlowEscape { pc, target } => {
                write!(
                    f,
                    "control flow escaped program text at pc {pc} (target {target})"
                )
            }
            ExecError::CallDepthExceeded { pc } => write!(f, "call depth exceeded at pc {pc}"),
            ExecError::InsnLimit { limit } => write!(f, "instruction budget {limit} exhausted"),
            ExecError::UnknownHelper { id, pc } => write!(f, "unknown helper {id} at pc {pc}"),
            ExecError::TailCallInSubprog { pc } => write!(f, "tail call in subprogram at pc {pc}"),
            ExecError::NoSuchProgram { id } => write!(f, "program {id} has not been loaded"),
            ExecError::TruncatedLddw { pc } => write!(f, "truncated LDDW at pc {pc}"),
            ExecError::DomainTrap { pc, addr } => {
                write!(f, "sandbox domain trap at pc {pc} (addr {addr:#x})")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunResult {
    /// The program's return value, or why it was aborted.
    pub result: Result<u64, ExecError>,
    /// Instructions executed (across tail calls, subprograms, loops).
    pub insns: u64,
    /// Helper invocations.
    pub helper_calls: u64,
    /// Deepest call depth reached.
    pub max_depth: usize,
    /// Resource-leak report from execution finish.
    pub leak_report: ExecReport,
    /// Captured `bpf_trace_printk` output.
    pub printk: Vec<String>,
    /// Captured perf-event records.
    pub perf_events: Vec<Vec<u8>>,
    /// Redirect actions taken.
    pub redirects: u32,
}

impl RunResult {
    /// The return value; panics if the run failed.
    ///
    /// # Panics
    ///
    /// Panics if the run ended in an error.
    pub fn unwrap(&self) -> u64 {
        match &self.result {
            Ok(v) => *v,
            Err(e) => panic!("program run failed: {e}"),
        }
    }
}

/// The baseline framework's virtual machine: loaded programs plus the
/// kernel facilities they run against.
pub struct Vm<'a> {
    /// The kernel everything executes against.
    pub kernel: &'a Kernel,
    /// The map registry programs reference by fd.
    pub maps: &'a MapRegistry,
    /// The helper registry.
    pub helpers: &'a HelperRegistry,
    /// Which helper bugs are present.
    pub faults: FaultConfig,
    /// Interpreter configuration.
    pub config: VmConfig,
    /// The program table. Unloaded slots are tombstoned (`None`) rather
    /// than removed so program ids stay stable: an id is an index, and a
    /// stale id after [`Vm::unload`] resolves to nothing instead of to a
    /// later tenant's program.
    programs: Vec<Option<LoadedProg>>,
}

/// A loaded program in either execution form. Tail calls may cross
/// freely between forms: the prog-array slot only stores an id.
struct LoadedProg {
    /// The *original* program: error paths and audit records name it
    /// identically in both forms.
    prog: Program,
    /// Set when the text ends mid-LDDW: the run is rejected up front,
    /// mirroring the JIT lane's compile-time `TruncatedLddw` (so it is
    /// never set on a lowered program).
    truncated: Option<usize>,
    /// Present when the program was loaded *unverified* into a sandbox
    /// protection domain.
    sandbox: Option<SandboxConfig>,
    /// The compiled form; `None` decodes `prog` on every execution.
    /// Boxed to keep the program table's slots, tombstones included,
    /// small.
    jit: Option<Box<JitCode>>,
}

/// A program lowered for the compiled lane: the IR and every helper
/// call site resolved to a direct function pointer (the runtime table
/// walk is paid once, at load).
struct JitCode {
    ops: Vec<LowOp>,
    /// Per-slot resolved helper: `Some((imp, ret))` for `LowOp::Call`
    /// slots whose id is registered, `None` otherwise.
    calls: Vec<Option<(HelperImpl, RetType)>>,
}

/// Size of each run's protection domain: the context structure at offset
/// zero plus up to `MAX_CALL_DEPTH` (8) bump-allocated 512-byte
/// stack frames, with room to spare. Power of two so the domain is
/// expressible as a single SFI mask.
pub const SANDBOX_DOMAIN_BYTES: u64 = 8192;

/// How a program runs in the sandbox lane (SafeBPF-style: isolate
/// unverified code in a protection domain instead of verifying it).
#[derive(Debug, Clone, Copy, Default)]
pub struct SandboxConfig {
    /// Virtual-nanosecond cost of each domain crossing.
    pub costs: DomainCosts,
    /// Which quota domain the per-run region is accounted against
    /// (tenancy charges it to the owning tenant; 0 = unaccounted).
    pub account_domain: u32,
}

/// Per-run sandbox state: the domain region, its bump allocator, and the
/// two window sets the SFI check consults.
///
/// Addresses whose masked form is themselves (i.e. inside the domain)
/// must hit a *live* inner window — the context or an active stack frame;
/// everything else must hit a *granted* kernel window — the packet
/// payload or a region returned by a `MapValueOrNull` helper. Anything
/// else is a domain violation and traps.
struct DomainRun {
    dom: SandboxDomain,
    costs: DomainCosts,
    /// Next free offset for ctx/frame bump allocation.
    bump: u64,
    /// Live in-domain windows: the ctx plus one per active stack frame.
    inner: Vec<(Addr, u64)>,
    /// Kernel windows the program may legitimately touch.
    granted: Vec<(Addr, u64)>,
}

impl DomainRun {
    fn new(dom: SandboxDomain, costs: DomainCosts) -> Self {
        Self {
            dom,
            costs,
            bump: 0,
            inner: Vec::new(),
            granted: Vec::new(),
        }
    }

    /// Bump-allocates `len` bytes inside the domain and opens an inner
    /// window over them. `None` when the domain is exhausted.
    fn alloc(&mut self, len: u64) -> Option<Addr> {
        if self.bump + len > self.dom.size() {
            return None;
        }
        let addr = self.dom.base() + self.bump;
        self.bump += len;
        self.inner.push((addr, len));
        Some(addr)
    }

    /// Releases the most recent allocation (stack frames pop LIFO).
    fn release(&mut self, addr: Addr, len: u64) {
        if self.inner.last() == Some(&(addr, len)) {
            self.inner.pop();
            self.bump -= len;
        }
    }

    /// Opens a kernel window (packet payload, helper-returned region).
    fn grant(&mut self, base: Addr, len: u64) {
        if !self.granted.iter().any(|&(b, l)| b == base && l == len) {
            self.granted.push((base, len));
        }
    }

    /// The SFI check: masked-in-domain addresses must sit in a live inner
    /// window, everything else in a granted kernel window.
    fn allows(&self, addr: Addr, len: u64) -> bool {
        // Debug builds re-validate the structural invariants the window
        // bookkeeping relies on at every check: the mask is closed over
        // the domain, and every live inner window sits wholly inside it
        // (so mask-identity and window membership can never disagree). A
        // failure here is a bug in the sandbox implementation, never in
        // the program under test.
        debug_assert!(
            self.dom.contains(self.dom.mask(addr), 1),
            "mask escaped the domain for {addr:#x}"
        );
        debug_assert!(
            self.inner
                .iter()
                .all(|&(b, l)| l == 0 || self.dom.contains(b, l)),
            "an inner window escapes the domain: {:x?}",
            self.inner
        );
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        let windows = if self.dom.mask(addr) == addr {
            &self.inner
        } else {
            &self.granted
        };
        windows.iter().any(|&(b, l)| addr >= b && end <= b + l)
    }
}

/// Charges one domain crossing: virtual time, the entry/exit counter,
/// and a trace instant (`arg` 0 = entering the sandbox, 1 = leaving).
fn domain_cross(kernel: &Kernel, costs: DomainCosts, entering: bool) {
    let metrics = &kernel.metrics;
    if entering {
        kernel.clock.advance(costs.entry_ns);
        Metrics::bump(&metrics.domain_entries, 1);
    } else {
        kernel.clock.advance(costs.exit_ns);
        Metrics::bump(&metrics.domain_exits, 1);
    }
    kernel
        .trace
        .instant(kernel_sim::trace::SpanKind::DomainSwitch, !entering as u64);
}

/// RAII guard for the run-level crossing: entry is charged on
/// construction, exit on drop — so the books balance even when the run
/// unwinds through a trap, a helper fault, or fuel exhaustion.
struct DomainEntry<'k> {
    kernel: &'k Kernel,
    costs: DomainCosts,
}

impl<'k> DomainEntry<'k> {
    fn enter(kernel: &'k Kernel, costs: DomainCosts) -> Self {
        domain_cross(kernel, costs, true);
        Self { kernel, costs }
    }
}

impl Drop for DomainEntry<'_> {
    fn drop(&mut self) {
        domain_cross(self.kernel, self.costs, false);
    }
}

/// The inverse guard for helper-call boundaries: calling a helper
/// *leaves* the sandbox (exit charged on construction) and returning
/// from it re-enters (entry charged on drop).
struct DomainExit<'k> {
    kernel: &'k Kernel,
    costs: DomainCosts,
}

impl<'k> DomainExit<'k> {
    fn leave(kernel: &'k Kernel, costs: DomainCosts) -> Self {
        domain_cross(kernel, costs, false);
        Self { kernel, costs }
    }
}

impl Drop for DomainExit<'_> {
    fn drop(&mut self) {
        domain_cross(self.kernel, self.costs, true);
    }
}

/// Detects a program whose linear text ends inside an LDDW pair,
/// byte-compatible with the JIT lane's compile-time walk.
fn truncated_lddw(insns: &[Insn]) -> Option<usize> {
    let mut pc = 0usize;
    while pc < insns.len() {
        if insns[pc].is_lddw() {
            if pc + 1 >= insns.len() {
                return Some(pc);
            }
            pc += 2;
        } else {
            pc += 1;
        }
    }
    None
}

enum FnExit {
    Return(u64),
    TailCall(u32),
}

struct St {
    regs: [u64; 11],
    insns: u64,
    helper_calls: u64,
    depth: usize,
    max_depth: usize,
    tail_calls: u32,
    run: RunState,
    exec: ExecCtx,
    skb: Option<SkBuff>,
    /// Set for sandbox-lane runs; every program memory access (in either
    /// execution form — tail calls may cross forms) is SFI-checked
    /// against it.
    dom: Option<DomainRun>,
}

impl St {
    /// The SFI test of a sandbox run (always true outside a domain, so it
    /// sits harmlessly on the shared access paths: tail calls may carry a
    /// sandbox run into a program loaded in either execution form).
    fn allows(&self, addr: Addr, len: u8) -> bool {
        self.dom
            .as_ref()
            .is_none_or(|d| d.allows(addr, u64::from(len)))
    }
}

impl<'a> Vm<'a> {
    /// Creates a VM with patched helpers and the default configuration.
    pub fn new(kernel: &'a Kernel, maps: &'a MapRegistry, helpers: &'a HelperRegistry) -> Self {
        Self {
            kernel,
            maps,
            helpers,
            faults: FaultConfig::patched(),
            config: VmConfig::default(),
            programs: Vec::new(),
        }
    }

    /// Sets the helper fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the interpreter configuration.
    pub fn with_config(mut self, config: VmConfig) -> Self {
        self.config = config;
        self
    }

    /// Loads a program for interpretation, returning its index (usable in
    /// prog-array maps).
    pub fn load(&mut self, prog: Program) -> u32 {
        self.push(prog, None, None)
    }

    /// Loads a program **unverified** into a sandbox protection domain
    /// (the SafeBPF architecture): no verifier pass at load time; every
    /// run executes with SFI-checked memory accesses inside a tagged
    /// domain region, pays explicit domain-switch costs at program
    /// entry/exit and helper boundaries, and a violating access traps —
    /// aborting the run without an oops — instead of being rejected up
    /// front.
    pub fn load_sandboxed(&mut self, prog: Program, sandbox: SandboxConfig) -> u32 {
        self.push(prog, Some(sandbox), None)
    }

    /// Lowers a program through the JIT and loads the compiled form,
    /// returning its index and the compilation statistics.
    ///
    /// The compiled lane is observationally identical to the interpreter
    /// — same results, fuel accounting, audit and trace records — unless
    /// [`JitConfig::branch_offset_bug`] is armed, in which case it
    /// faithfully replicates the CVE-2021-29154 miscompile.
    ///
    /// # Errors
    ///
    /// Exactly the validation failures of [`crate::jit::jit_compile`].
    pub fn load_jit(
        &mut self,
        prog: Program,
        config: JitConfig,
    ) -> Result<(u32, JitStats), JitError> {
        self.load_jit_inner(prog, config, None)
    }

    /// The compiled-lane counterpart of [`Vm::load_sandboxed`]: lowers
    /// with [`JitConfig::sandbox`] forced on, so memory ops come out as
    /// their masked SFI forms instead of relying on verifier range facts.
    ///
    /// # Errors
    ///
    /// Exactly the validation failures of [`crate::jit::jit_compile`].
    pub fn load_sandboxed_jit(
        &mut self,
        prog: Program,
        sandbox: SandboxConfig,
        config: JitConfig,
    ) -> Result<(u32, JitStats), JitError> {
        self.load_jit_inner(
            prog,
            JitConfig {
                sandbox: true,
                ..config
            },
            Some(sandbox),
        )
    }

    fn load_jit_inner(
        &mut self,
        prog: Program,
        config: JitConfig,
        sandbox: Option<SandboxConfig>,
    ) -> Result<(u32, JitStats), JitError> {
        let lowered = jit_lower(&prog, config)?;
        let calls = lowered
            .ops
            .iter()
            .map(|op| match op {
                LowOp::Call { id } => self.helpers.get(*id).map(|h| (h.imp, h.spec.ret)),
                _ => None,
            })
            .collect();
        let jit = JitCode {
            ops: lowered.ops,
            calls,
        };
        Ok((self.push(prog, sandbox, Some(Box::new(jit))), lowered.stats))
    }

    fn push(
        &mut self,
        prog: Program,
        sandbox: Option<SandboxConfig>,
        jit: Option<Box<JitCode>>,
    ) -> u32 {
        let id = self.programs.len() as u32;
        // Lowering has already refused mid-LDDW text.
        let truncated = match jit {
            Some(_) => None,
            None => truncated_lddw(&prog.insns),
        };
        self.programs.push(Some(LoadedProg {
            truncated,
            prog,
            sandbox,
            jit,
        }));
        id
    }

    /// Number of loaded programs (tombstoned slots excluded).
    pub fn program_count(&self) -> usize {
        self.programs.iter().filter(|p| p.is_some()).count()
    }

    /// Unloads program `prog_id`, tombstoning its slot. Returns whether a
    /// program was actually unloaded. Subsequent runs and tail calls
    /// targeting the id fail with "no such program" / "tail call to
    /// unloaded program" — the id is never reissued.
    ///
    /// The caller is responsible for quiescence: in the tenancy control
    /// plane the attachment pointer is swapped and an RCU grace period
    /// elapses before the old version is unloaded.
    pub fn unload(&mut self, prog_id: u32) -> bool {
        match self.programs.get_mut(prog_id as usize) {
            Some(slot) => slot.take().is_some(),
            None => false,
        }
    }

    /// A `RunResult` for a run that aborted before executing anything.
    fn aborted(err: ExecError) -> RunResult {
        RunResult {
            result: Err(err),
            insns: 0,
            helper_calls: 0,
            max_depth: 0,
            leak_report: ExecReport {
                owner: 0,
                leaked_refs: vec![],
                leaked_locks: vec![],
            },
            printk: vec![],
            perf_events: vec![],
            redirects: 0,
        }
    }

    /// Runs program `prog_id` on `input`.
    ///
    /// An id that was never loaded — including any id while the program
    /// list is empty — yields `ExecError::NoSuchProgram` rather than a
    /// panic, so callers holding stale ids degrade gracefully.
    pub fn run(&self, prog_id: u32, input: CtxInput) -> RunResult {
        self.run_ref(prog_id, input.as_ref())
    }

    /// Runs packet program `prog_id` on a borrowed payload.
    ///
    /// Identical to `run(id, CtxInput::Packet(payload.to_vec()))` minus
    /// the per-packet buffer: the payload is copied exactly once, into
    /// the skb's checked-memory region.
    pub fn run_packet(&self, prog_id: u32, payload: &[u8]) -> RunResult {
        self.run_ref(prog_id, CtxRef::Packet(payload))
    }

    fn run_ref(&self, prog_id: u32, input: CtxRef<'_>) -> RunResult {
        let Some(loaded) = self.programs.get(prog_id as usize).and_then(Option::as_ref) else {
            return Self::aborted(ExecError::NoSuchProgram { id: prog_id });
        };
        if let Some(pc) = loaded.truncated {
            // The JIT lane rejects mid-LDDW text at compile time; the
            // interpreter lane rejects it identically before running.
            return Self::aborted(ExecError::TruncatedLddw { pc });
        }
        let (ctx_addr, skb, dom) =
            match self.build_ctx(loaded.prog.prog_type, input, loaded.sandbox) {
                Ok(parts) => parts,
                Err(fault) => return Self::aborted(ExecError::Setup { fault, pc: 0 }),
            };

        let mut st = St {
            regs: [0; 11],
            insns: 0,
            helper_calls: 0,
            depth: 0,
            max_depth: 0,
            tail_calls: 0,
            run: RunState::with_seed(PRANDOM_SEED),
            exec: ExecCtx::for_kernel(self.kernel),
            skb,
            dom,
        };
        st.regs[1] = ctx_addr;

        let _run_span = self
            .kernel
            .trace
            .span(kernel_sim::trace::SpanKind::ProgRun, prog_id as u64);
        // The whole run executes under the RCU read lock, as in the kernel.
        let rcu_guard = self.kernel.rcu.read_lock();
        // Sandbox runs pay the kernel→domain crossing here and the
        // domain→kernel crossing when the guard drops — on every exit
        // path, so entries and exits balance even across aborted runs.
        let entry_guard = st
            .dom
            .as_ref()
            .map(|d| DomainEntry::enter(self.kernel, d.costs));
        let mut current = loaded;
        let result;
        loop {
            match self.exec_function(current, &mut st, 0, ctx_addr) {
                Ok(FnExit::Return(v)) => {
                    result = Ok(v);
                    break;
                }
                Ok(FnExit::TailCall(next)) => {
                    match self.programs.get(next as usize).and_then(Option::as_ref) {
                        Some(LoadedProg {
                            truncated: Some(pc),
                            ..
                        }) => {
                            result = Err(ExecError::TruncatedLddw { pc: *pc });
                            break;
                        }
                        Some(p) => {
                            current = p;
                            st.regs = [0; 11];
                            st.regs[1] = ctx_addr;
                        }
                        None => {
                            result = Err(ExecError::HelperFailure {
                                msg: format!("tail call to unloaded program {next}"),
                                pc: 0,
                            });
                            break;
                        }
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Leave the sandbox (the exit crossing is charged now, so it is
        // on the run's timeline), then the final stall poll before
        // leaving the read-side section.
        drop(entry_guard);
        self.kernel.rcu.check_stall(&self.kernel.audit);
        drop(rcu_guard);

        let leak_report = st.exec.finish(self.kernel);
        let _ = self.kernel.mem.unmap(ctx_addr);
        // Free the packet skb: without this every packet run leaked its
        // payload region and skb-table entry, so long batches grew the
        // address-space map without bound (and every later memory access
        // paid for the ever-larger region tree).
        if let Some(skb) = st.skb.take() {
            let _ = self.kernel.objects.free_skb(&self.kernel.mem, skb.id);
        }

        let metrics = &self.kernel.metrics;
        Metrics::bump(&metrics.runs, 1);
        if matches!(input, CtxRef::Packet(_)) {
            Metrics::bump(&metrics.packets, 1);
        }
        Metrics::bump(&metrics.helper_calls, st.helper_calls);
        metrics.run_cost.record(st.insns);
        self.kernel
            .trace
            .instant(kernel_sim::trace::SpanKind::Fuel, st.insns);

        RunResult {
            result,
            insns: st.insns,
            helper_calls: st.helper_calls,
            max_depth: st.max_depth,
            leak_report,
            printk: std::mem::take(&mut st.run.printk),
            perf_events: std::mem::take(&mut st.run.perf_events),
            redirects: st.run.redirects,
        }
    }

    /// Maps the run's ctx region and fills it from `input`. A sandboxed
    /// run maps its whole protection domain instead (accounted against
    /// the configured quota domain) with the ctx as its first bump
    /// allocation — at the base, so the domain region doubles as the ctx
    /// region for the common unmap path — and the packet payload granted
    /// as a kernel window. On failure nothing stays mapped.
    fn build_ctx(
        &self,
        prog_type: ProgType,
        input: CtxRef<'_>,
        sandbox: Option<SandboxConfig>,
    ) -> Result<(Addr, Option<SkBuff>, Option<DomainRun>), Fault> {
        let size = prog_type.ctx_layout().size as u64;
        let (ctx, ctx_len) = match sandbox {
            Some(sb) => (
                self.kernel.mem.map_aligned_in_domain(
                    "sandbox-domain",
                    SANDBOX_DOMAIN_BYTES,
                    Perms::rw(),
                    sb.account_domain,
                )?,
                SANDBOX_DOMAIN_BYTES,
            ),
            None => (self.kernel.mem.map("prog-ctx", size, Perms::rw())?, size),
        };
        let mut dom = sandbox.map(|sb| {
            let domain = SandboxDomain::new(ctx, SANDBOX_DOMAIN_BYTES)
                .expect("aligned power-of-two domain geometry");
            let mut run = DomainRun::new(domain, sb.costs);
            run.alloc(size).expect("ctx layout fits the domain");
            run
        });
        let skb = self.fill_ctx(ctx, ctx_len, input).inspect_err(|_| {
            let _ = self.kernel.mem.unmap(ctx);
        })?;
        if let (Some(run), Some(skb)) = (dom.as_mut(), skb) {
            if skb.len > 0 {
                run.grant(skb.data, skb.len as u64);
            }
        }
        Ok((ctx, skb, dom))
    }

    /// Writes `input` into the `ctx_len`-byte region at `ctx`. A packet
    /// first gets its skb, which the ctx then describes as
    /// `{data, data_end, len}`.
    fn fill_ctx(
        &self,
        ctx: Addr,
        ctx_len: u64,
        input: CtxRef<'_>,
    ) -> Result<Option<SkBuff>, Fault> {
        let mem = &self.kernel.mem;
        match input {
            CtxRef::Packet(payload) => {
                let skb = self.kernel.objects.create_skb(mem, payload)?;
                let mut fields = [0u8; 24];
                fields[..8].copy_from_slice(&skb.data.to_le_bytes());
                fields[8..16].copy_from_slice(&skb.data_end().to_le_bytes());
                fields[16..].copy_from_slice(&(skb.len as u64).to_le_bytes());
                // Every ctx layout holds these 24 bytes, so this write
                // cannot fail and strand the skb.
                mem.write_from(ctx, &fields)?;
                Ok(Some(skb))
            }
            CtxRef::Words(words) => {
                // One write for the words the region holds (an empty list
                // writes nothing: a zero-length write is `BadRange`). A
                // longer list faults on its first word past the region,
                // as that word's own write does.
                let fit = words.len().min(ctx_len as usize / 8);
                let mut bytes = [0u8; 64]; // kprobe's 8 registers, the longest list
                for (i, w) in words[..fit].iter().enumerate() {
                    bytes[i * 8..][..8].copy_from_slice(&w.to_le_bytes());
                }
                if fit > 0 {
                    mem.write_from(ctx, &bytes[..fit * 8])?;
                }
                if let Some(&w) = words.get(fit) {
                    mem.write_u64(ctx + fit as u64 * 8, w)?;
                }
                Ok(None)
            }
        }
    }

    fn charge(&self, st: &mut St, pc: usize) -> Result<(), ExecError> {
        st.insns += 1;
        self.kernel.clock.advance(self.config.time_per_insn_ns);
        if st.insns.is_multiple_of(RCU_POLL_INTERVAL) {
            self.kernel.rcu.check_stall(&self.kernel.audit);
        }
        if let Some(limit) = self.config.max_insns {
            if st.insns > limit {
                let _ = pc;
                return Err(ExecError::InsnLimit { limit });
            }
        }
        Ok(())
    }

    /// One call frame — depth accounting plus a fresh 512-byte stack —
    /// around the body loop of the program's execution form.
    fn exec_function(
        &self,
        p: &LoadedProg,
        st: &mut St,
        entry: usize,
        ctx_addr: Addr,
    ) -> Result<FnExit, ExecError> {
        if st.depth >= MAX_CALL_DEPTH {
            return Err(ExecError::CallDepthExceeded { pc: entry });
        }
        st.depth += 1;
        st.max_depth = st.max_depth.max(st.depth);
        let frame = self.alloc_frame(st, entry)?;
        let saved_r10 = st.regs[10];
        st.regs[10] = frame + BPF_STACK_SIZE;

        let out = match &p.jit {
            Some(j) => self.exec_body_jit(p, j, st, entry, ctx_addr),
            None => self.exec_body(p, st, entry, ctx_addr),
        };

        st.regs[10] = saved_r10;
        self.release_frame(st, frame);
        st.depth -= 1;
        out
    }

    /// A bpf2bpf call at `pc`: r6-r9 survive it, r1-r5 come back
    /// scratched, and a tail call inside the callee is an error.
    fn exec_call(
        &self,
        p: &LoadedProg,
        st: &mut St,
        target: usize,
        pc: usize,
        ctx_addr: Addr,
    ) -> Result<(), ExecError> {
        let saved: [u64; 4] = [st.regs[6], st.regs[7], st.regs[8], st.regs[9]];
        match self.exec_function(p, st, target, ctx_addr)? {
            FnExit::Return(v) => {
                st.regs[0] = v;
                st.regs[6..10].copy_from_slice(&saved);
                for r in 1..=5 {
                    st.regs[r] = 0;
                }
                Ok(())
            }
            FnExit::TailCall(_) => Err(ExecError::TailCallInSubprog { pc }),
        }
    }

    /// A fresh 512-byte stack frame: a mapped kernel region in the
    /// baseline lanes, a zeroed bump allocation inside the protection
    /// domain in the sandbox lane (a frame that would overflow the
    /// domain is a trapped stack escape, not an allocation fault).
    fn alloc_frame(&self, st: &mut St, entry: usize) -> Result<Addr, ExecError> {
        match st.dom.as_mut() {
            Some(dom) => {
                let frame = dom.alloc(BPF_STACK_SIZE).ok_or(ExecError::DomainTrap {
                    pc: entry,
                    addr: dom.dom.base() + dom.dom.size(),
                })?;
                // Bump space recycles within a run; zero it so reads of
                // never-written slots behave like fresh kernel frames.
                self.kernel
                    .mem
                    .fill(frame, BPF_STACK_SIZE, 0)
                    .map_err(|fault| ExecError::Setup { fault, pc: entry })?;
                Ok(frame)
            }
            None => self
                .kernel
                .mem
                .map("bpf-stack", BPF_STACK_SIZE, Perms::rw())
                .map_err(|fault| ExecError::Setup { fault, pc: entry }),
        }
    }

    fn release_frame(&self, st: &mut St, frame: Addr) {
        match st.dom.as_mut() {
            Some(dom) => dom.release(frame, BPF_STACK_SIZE),
            None => {
                let _ = self.kernel.mem.unmap(frame);
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_body(
        &self,
        p: &LoadedProg,
        st: &mut St,
        entry: usize,
        ctx_addr: Addr,
    ) -> Result<FnExit, ExecError> {
        let prog = &p.prog;
        let insns = &prog.insns;
        let len = insns.len();
        let mut pc = entry;
        loop {
            if pc >= len {
                return Err(ExecError::ControlFlowEscape {
                    pc,
                    target: pc as i64,
                });
            }
            let insn = insns[pc];
            self.charge(st, pc)?;
            match insn.class() {
                BPF_ALU64 | BPF_ALU => {
                    if insn.op() == BPF_END {
                        let v = st.regs[insn.dst as usize];
                        st.regs[insn.dst as usize] = endian(v, insn.is_src_reg(), insn.imm)
                            .ok_or(ExecError::BadInstruction { pc })?;
                        pc += 1;
                        continue;
                    }
                    let src_val = if insn.op() == BPF_NEG {
                        0
                    } else if insn.is_src_reg() {
                        st.regs[insn.src as usize]
                    } else {
                        insn.imm as i64 as u64
                    };
                    let dst_val = st.regs[insn.dst as usize];
                    let result = if insn.class() == BPF_ALU64 {
                        alu64(insn.op(), dst_val, src_val)
                            .ok_or(ExecError::BadInstruction { pc })?
                    } else {
                        alu32(insn.op(), dst_val as u32, src_val as u32)
                            .ok_or(ExecError::BadInstruction { pc })? as u64
                    };
                    st.regs[insn.dst as usize] = result;
                    pc += 1;
                }
                BPF_LD if insn.is_lddw() => {
                    let hi = insns.get(pc + 1).ok_or(ExecError::BadInstruction { pc })?;
                    let value = match insn.src {
                        0 => lddw_imm(&insn, hi),
                        BPF_PSEUDO_MAP_FD => tagged(MAP_PTR_TAG, insn.imm as u32 as u64),
                        BPF_PSEUDO_FUNC => tagged(FUNC_PTR_TAG, insn.imm as u32 as u64),
                        _ => return Err(ExecError::BadInstruction { pc }),
                    };
                    st.regs[insn.dst as usize] = value;
                    // The second slot is charged too, as in the kernel.
                    self.charge(st, pc)?;
                    pc += 2;
                }
                BPF_LDX => {
                    if insn.mode() != BPF_MEM {
                        return Err(ExecError::BadInstruction { pc });
                    }
                    let addr = st.regs[insn.src as usize].wrapping_add(insn.off as i64 as u64);
                    let size = insn.access_size();
                    st.regs[insn.dst as usize] = self
                        .read(st, addr, size, pc)
                        .map_err(|e| self.record(e, size, prog))?;
                    pc += 1;
                }
                BPF_ST | BPF_STX => {
                    let addr = st.regs[insn.dst as usize].wrapping_add(insn.off as i64 as u64);
                    match insn.mode() {
                        BPF_MEM => {
                            let value = if insn.class() == BPF_ST {
                                insn.imm as i64 as u64
                            } else {
                                st.regs[insn.src as usize]
                            };
                            let size = insn.access_size();
                            self.write(st, addr, size, value, pc)
                                .map_err(|e| self.record(e, size, prog))?;
                            pc += 1;
                        }
                        BPF_ATOMIC if insn.class() == BPF_STX => {
                            let size = insn.access_size();
                            self.exec_atomic(st, size, insn.src, insn.imm, addr, pc)
                                .map_err(|e| self.record(e, size, prog))?;
                            pc += 1;
                        }
                        _ => return Err(ExecError::BadInstruction { pc }),
                    }
                }
                BPF_JMP | BPF_JMP32 => {
                    let wide = insn.class() == BPF_JMP;
                    match insn.op() {
                        BPF_JA => {
                            if !wide {
                                return Err(ExecError::BadInstruction { pc });
                            }
                            pc = jump_target(pc, insn.off, len)?;
                        }
                        BPF_EXIT => {
                            return Ok(FnExit::Return(st.regs[0]));
                        }
                        BPF_CALL => {
                            if insn.src == BPF_PSEUDO_CALL {
                                let target = pc as i64 + 1 + insn.imm as i64;
                                if target < 0 || target >= len as i64 {
                                    return Err(ExecError::ControlFlowEscape { pc, target });
                                }
                                self.exec_call(p, st, target as usize, pc, ctx_addr)?;
                                pc += 1;
                            } else {
                                match self.exec_helper_call(p, st, insn.imm as u32, pc, ctx_addr)? {
                                    Some(exit) => return Ok(exit),
                                    None => pc += 1,
                                }
                            }
                        }
                        op => {
                            let src_val = if insn.is_src_reg() {
                                st.regs[insn.src as usize]
                            } else {
                                insn.imm as i64 as u64
                            };
                            let dst_val = st.regs[insn.dst as usize];
                            let taken = if wide {
                                jmp_taken(op, dst_val, src_val)
                            } else {
                                jmp_taken32(op, dst_val as u32, src_val as u32)
                            }
                            .ok_or(ExecError::BadInstruction { pc })?;
                            if taken {
                                pc = jump_target(pc, insn.off, len)?;
                            } else {
                                pc += 1;
                            }
                        }
                    }
                }
                _ => return Err(ExecError::BadInstruction { pc }),
            }
        }
    }

    /// The atomic op of both execution forms. A trap or fault comes back
    /// unrecorded, like [`Vm::read`]'s.
    fn exec_atomic(
        &self,
        st: &mut St,
        size: u8,
        src: u8,
        aop: i32,
        addr: Addr,
        pc: usize,
    ) -> Result<(), ExecError> {
        if size != 4 && size != 8 {
            return Err(ExecError::BadInstruction { pc });
        }
        if !st.allows(addr, size) {
            return Err(ExecError::DomainTrap { pc, addr });
        }
        let mask = if size == 4 { 0xffff_ffff } else { u64::MAX };
        let src_val = st.regs[src as usize] & mask;
        let op = aop;
        let fetch = op & BPF_FETCH != 0;
        let old = match op & !BPF_FETCH {
            x if x == BPF_ATOMIC_ADD => self
                .kernel
                .mem
                .fetch_update(addr, size, |v| (v.wrapping_add(src_val)) & mask),
            x if x == BPF_ATOMIC_OR => self
                .kernel
                .mem
                .fetch_update(addr, size, |v| (v | src_val) & mask),
            x if x == BPF_ATOMIC_AND => self
                .kernel
                .mem
                .fetch_update(addr, size, |v| (v & src_val) & mask),
            x if x == BPF_ATOMIC_XOR => self
                .kernel
                .mem
                .fetch_update(addr, size, |v| (v ^ src_val) & mask),
            x if x == BPF_XCHG & !BPF_FETCH => {
                self.kernel.mem.fetch_update(addr, size, |_| src_val)
            }
            x if x == BPF_CMPXCHG & !BPF_FETCH => {
                let expected = st.regs[0] & mask;
                let old = self.kernel.mem.fetch_update(addr, size, |v| {
                    if v == expected {
                        src_val
                    } else {
                        v
                    }
                });
                st.regs[0] = old.map_err(|fault| ExecError::Fault { fault, pc })?;
                return Ok(());
            }
            _ => return Err(ExecError::BadInstruction { pc }),
        };
        let old = old.map_err(|fault| ExecError::Fault { fault, pc })?;
        if fetch {
            st.regs[src as usize] = old;
        }
        Ok(())
    }

    /// The helper-call ABI of both execution forms. Only resolving the
    /// helper differs: the interpreter walks the registry, the compiled
    /// form reads the call-site table resolved at load.
    fn exec_helper_call(
        &self,
        p: &LoadedProg,
        st: &mut St,
        id: u32,
        pc: usize,
        ctx_addr: Addr,
    ) -> Result<Option<FnExit>, ExecError> {
        let prog = &p.prog;
        st.helper_calls += 1;
        // One span per dispatch, whatever the outcome: the tail-call and
        // loop pseudo-helpers, injected transient failures, and real
        // helper bodies all close it on their own exit path via the guard.
        let _helper_span = self
            .kernel
            .trace
            .span(kernel_sim::trace::SpanKind::HelperCall, id as u64);
        match id {
            BPF_TAIL_CALL => {
                if st.depth > 1 {
                    return Err(ExecError::TailCallInSubprog { pc });
                }
                let map = untag(MAP_PTR_TAG, st.regs[2]).and_then(|fd| self.maps.get(fd as u32));
                let index = st.regs[3] as u32;
                if st.tail_calls >= MAX_TAIL_CALLS {
                    // Limit reached: the tail call silently does not
                    // happen, execution continues (kernel semantics).
                    st.regs[0] = neg_errno(EINVAL);
                    return Ok(None);
                }
                match map.and_then(|m| m.prog_slot(index).ok().flatten()) {
                    Some(next) => {
                        st.tail_calls += 1;
                        Ok(Some(FnExit::TailCall(next)))
                    }
                    None => {
                        st.regs[0] = neg_errno(EINVAL);
                        Ok(None)
                    }
                }
            }
            BPF_LOOP => {
                let nr = st.regs[1];
                if nr > MAX_LOOP_ITERATIONS {
                    st.regs[0] = neg_errno(E2BIG);
                    return Ok(None);
                }
                let cb_pc = match untag(FUNC_PTR_TAG, st.regs[2]) {
                    Some(target) if (target as usize) < prog.insns.len() => target as usize,
                    _ => {
                        st.regs[0] = neg_errno(EINVAL);
                        return Ok(None);
                    }
                };
                let cb_ctx = st.regs[3];
                let saved: [u64; 4] = [st.regs[6], st.regs[7], st.regs[8], st.regs[9]];
                let mut performed = 0u64;
                for i in 0..nr {
                    st.regs[1] = i;
                    st.regs[2] = cb_ctx;
                    let ret = match self.exec_function(p, st, cb_pc, ctx_addr)? {
                        FnExit::Return(v) => v,
                        FnExit::TailCall(_) => return Err(ExecError::TailCallInSubprog { pc }),
                    };
                    performed += 1;
                    if ret != 0 {
                        break;
                    }
                }
                st.regs[6..10].copy_from_slice(&saved);
                st.regs[0] = performed;
                for r in 1..=5 {
                    st.regs[r] = 0;
                }
                Ok(None)
            }
            _ => {
                // A real helper call leaves the sandbox: the inverse
                // guard charges the exit now and the re-entry on every
                // return path (success, injected failure, helper fault).
                // The tail-call and loop pseudo-helpers above are
                // VM-inlined and never cross.
                let _dom_guard = st
                    .dom
                    .as_ref()
                    .map(|d| DomainExit::leave(self.kernel, d.costs));
                let resolved = match &p.jit {
                    Some(j) => j.calls[pc],
                    None => self.helpers.get(id).map(|h| (h.imp, h.spec.ret)),
                };
                // Fault plane: a transient helper failure is decided before
                // dispatch and surfaces to the program as an error return
                // (or NULL for pointer-returning helpers), exactly as a
                // real helper under memory pressure would behave. Routed
                // through the same kernel-level plane the FaultConfig bug
                // replicas live beside.
                if let Some(plane) = self.kernel.inject.get() {
                    if resolved.is_some() && plane.helper_should_fail(id) {
                        let ret = match resolved.map(|(_, ret)| ret) {
                            Some(RetType::Integer) => neg_errno(EAGAIN),
                            _ => 0,
                        };
                        st.regs[0] = ret;
                        for r in 1..=5 {
                            st.regs[r] = 0;
                        }
                        return Ok(None);
                    }
                }
                let Some((imp, ret_type)) = resolved else {
                    return Err(ExecError::UnknownHelper { id, pc });
                };
                let args = [st.regs[1], st.regs[2], st.regs[3], st.regs[4], st.regs[5]];
                let mut hctx = HelperCtx {
                    kernel: self.kernel,
                    maps: self.maps,
                    exec: &st.exec,
                    faults: &self.faults,
                    prog_type: prog.prog_type,
                    skb: st.skb,
                    run: &mut st.run,
                };
                match imp(&mut hctx, args) {
                    Ok(v) => {
                        st.regs[0] = v;
                        for r in 1..=5 {
                            st.regs[r] = 0;
                        }
                        self.grant_helper_window(st, ret_type, v);
                        Ok(None)
                    }
                    Err(HelperError::Fault(fault)) => Err(self.oops(fault, pc, prog)),
                    Err(HelperError::Deadlock(_)) => {
                        self.kernel
                            .oops(OopsReason::HardLockup, format!("{}:pc{}", prog.name, pc));
                        Err(ExecError::Deadlock { pc })
                    }
                    Err(HelperError::UnknownHelper(id)) => Err(ExecError::UnknownHelper { id, pc }),
                    Err(other) => Err(ExecError::HelperFailure {
                        msg: other.to_string(),
                        pc,
                    }),
                }
            }
        }
    }

    /// Charges `units` instructions of fuel in bulk: one clock advance
    /// per RCU-poll segment instead of one per instruction, with the
    /// stall detector polled and the instruction budget enforced at
    /// exactly the same points (count *and* clock value) as the
    /// per-instruction path.
    ///
    /// When a fault plan is armed the virtual clock may inject a forward
    /// jump per `advance` *call*, so batching would change both the
    /// injected-jump draw sequence and the timeline; the charge then
    /// falls back to the interpreter's per-instruction routine (and
    /// [`Vm::room`] makes the compiled body settle op by op).
    fn charge_bulk(&self, st: &mut St, units: u64) -> Result<(), ExecError> {
        if self.kernel.inject.get().is_some() || self.kernel.clock.is_perturbed() {
            for _ in 0..units {
                self.charge(st, 0)?;
            }
            return Ok(());
        }
        let t = self.config.time_per_insn_ns;
        let poll = RCU_POLL_INTERVAL;
        let limit = self.config.max_insns;
        let before = st.insns;
        let over = limit.is_some_and(|l| before + units > l);
        // The unit that crosses the budget still charges its clock tick
        // (and may poll) before the run aborts, as in `charge`.
        let n = match limit {
            Some(l) if over => l - before + 1,
            _ => units,
        };
        let mut done = 0u64;
        while done < n {
            let at = before + done;
            let seg = (poll - at % poll).min(n - done);
            self.kernel.clock.advance(seg * t);
            done += seg;
            if (before + done).is_multiple_of(poll) {
                self.kernel.rcu.check_stall(&self.kernel.audit);
            }
        }
        st.insns = before + n;
        if over {
            return Err(ExecError::InsnLimit {
                limit: limit.unwrap_or_default(),
            });
        }
        Ok(())
    }

    /// Fuel units the compiled body may owe before it must settle with
    /// [`Vm::charge_bulk`]: up to the next RCU poll or the unit that
    /// crosses `max_insns`, so both land on the interpreter's
    /// instruction; none while a fault plan is armed or the clock is
    /// perturbed, so each op then settles before it runs and injected
    /// clock jumps draw in the interpreter's order.
    fn room(&self, insns: u64) -> u64 {
        if self.kernel.inject.get().is_some() || self.kernel.clock.is_perturbed() {
            return 0;
        }
        let poll = RCU_POLL_INTERVAL - insns % RCU_POLL_INTERVAL;
        self.config
            .max_insns
            .map_or(poll, |limit| poll.min((limit - insns).saturating_add(1)))
    }

    /// Pays fuel the compiled body owes short of its [`Vm::room`]: one
    /// clock advance, with no poll or budget check due.
    fn settle(&self, st: &mut St, owed: u64) {
        if owed > 0 {
            st.insns += owed;
            self.kernel
                .clock
                .advance(owed * self.config.time_per_insn_ns);
        }
    }

    /// Executes lowered ops. Fuel is owed while nothing can observe it:
    /// each op adds its units to a local count, which is settled just
    /// before anything can read the clock or the count — a helper or
    /// bpf2bpf call, the body's exit or any error (the oops or trap record
    /// of a failed access is raised after the settle), the next RCU poll
    /// or the unit that crosses `max_insns` ([`Vm::room`]). Every observer
    /// therefore reads what the interpreter's per-instruction charge
    /// gives it.
    fn exec_body_jit(
        &self,
        p: &LoadedProg,
        j: &JitCode,
        st: &mut St,
        entry: usize,
        ctx_addr: Addr,
    ) -> Result<FnExit, ExecError> {
        let mut owed = 0;
        let out = self.exec_ops(p, j, st, entry, ctx_addr, &mut owed);
        self.settle(st, owed);
        out
    }

    /// The op loop of [`Vm::exec_body_jit`], which settles what it still
    /// owes on return.
    #[allow(clippy::too_many_lines)]
    fn exec_ops(
        &self,
        p: &LoadedProg,
        j: &JitCode,
        st: &mut St,
        entry: usize,
        ctx_addr: Addr,
        owed: &mut u64,
    ) -> Result<FnExit, ExecError> {
        let ops = &j.ops;
        let prog = &p.prog;
        let mut pc = entry;
        let mut room = self.room(st.insns);
        // A failed access: settle, then raise its record.
        let fail = |st: &mut St, owed: &mut u64, e, len| {
            self.settle(st, std::mem::take(owed));
            self.record(e, len, prog)
        };
        loop {
            let Some(&op) = ops.get(pc) else {
                return Err(ExecError::ControlFlowEscape {
                    pc,
                    target: pc as i64,
                });
            };
            *owed += op.units();
            if *owed >= room {
                self.charge_bulk(st, std::mem::take(owed))?;
                room = self.room(st.insns);
            }
            match op {
                LowOp::Alu { is64, op, dst, src } => {
                    let src_val = match src {
                        Src::Reg(r) => st.regs[r as usize],
                        Src::Imm(v) => v,
                    };
                    let dst_val = st.regs[dst as usize];
                    let result = if is64 {
                        alu64(op, dst_val, src_val).ok_or(ExecError::BadInstruction { pc })?
                    } else {
                        alu32(op, dst_val as u32, src_val as u32)
                            .ok_or(ExecError::BadInstruction { pc })? as u64
                    };
                    st.regs[dst as usize] = result;
                    pc += 1;
                }
                LowOp::End { dst, swap, width } => {
                    let v = st.regs[dst as usize];
                    st.regs[dst as usize] =
                        endian(v, swap, width).ok_or(ExecError::BadInstruction { pc })?;
                    pc += 1;
                }
                LowOp::Lddw { dst, value } => {
                    st.regs[dst as usize] = value;
                    pc += 2;
                }
                // The masked forms are what sandbox lowering emits; the
                // plain forms keep the (no-op outside a domain) check so
                // a sandbox run that tail-calls into a non-sandbox
                // compiled program stays confined.
                LowOp::Load {
                    dst,
                    src,
                    off,
                    size,
                }
                | LowOp::MaskedLoad {
                    dst,
                    src,
                    off,
                    size,
                } => {
                    let addr = st.regs[src as usize].wrapping_add(off as i64 as u64);
                    st.regs[dst as usize] = self
                        .read(st, addr, size, pc)
                        .map_err(|e| fail(st, owed, e, size))?;
                    pc += 1;
                }
                LowOp::Store {
                    dst,
                    src,
                    off,
                    size,
                }
                | LowOp::MaskedStore {
                    dst,
                    src,
                    off,
                    size,
                } => {
                    let addr = st.regs[dst as usize].wrapping_add(off as i64 as u64);
                    let value = match src {
                        Src::Reg(r) => st.regs[r as usize],
                        Src::Imm(v) => v,
                    };
                    self.write(st, addr, size, value, pc)
                        .map_err(|e| fail(st, owed, e, size))?;
                    pc += 1;
                }
                LowOp::Atomic {
                    dst,
                    src,
                    off,
                    size,
                    aop,
                }
                | LowOp::MaskedAtomic {
                    dst,
                    src,
                    off,
                    size,
                    aop,
                } => {
                    let addr = st.regs[dst as usize].wrapping_add(off as i64 as u64);
                    self.exec_atomic(st, size, src, aop, addr, pc)
                        .map_err(|e| fail(st, owed, e, size))?;
                    pc += 1;
                }
                LowOp::Ja { target } => {
                    pc = take_jump(target, pc)?;
                }
                LowOp::Jcc {
                    op,
                    wide,
                    dst,
                    src,
                    target,
                } => {
                    let src_val = match src {
                        Src::Reg(r) => st.regs[r as usize],
                        Src::Imm(v) => v,
                    };
                    let dst_val = st.regs[dst as usize];
                    let taken = if wide {
                        jmp_taken(op, dst_val, src_val)
                    } else {
                        jmp_taken32(op, dst_val as u32, src_val as u32)
                    }
                    .ok_or(ExecError::BadInstruction { pc })?;
                    if taken {
                        pc = take_jump(target, pc)?;
                    } else {
                        pc += 1;
                    }
                }
                LowOp::Call { id } => {
                    self.settle(st, std::mem::take(owed));
                    if let Some(exit) = self.exec_helper_call(p, st, id, pc, ctx_addr)? {
                        return Ok(exit);
                    }
                    room = self.room(st.insns);
                    pc += 1;
                }
                LowOp::CallPseudo { target } => {
                    self.settle(st, std::mem::take(owed));
                    self.exec_call(p, st, take_jump(target, pc)?, pc, ctx_addr)?;
                    room = self.room(st.insns);
                    pc += 1;
                }
                LowOp::Exit => return Ok(FnExit::Return(st.regs[0])),
                LowOp::Bad => return Err(ExecError::BadInstruction { pc }),
            }
        }
    }

    fn oops(&self, fault: Fault, pc: usize, prog: &Program) -> ExecError {
        self.kernel
            .oops(OopsReason::Fault(fault), format!("{}:pc{}", prog.name, pc));
        ExecError::Fault { fault, pc }
    }

    /// One checked load of either execution form: the SFI test of a
    /// sandbox run, then the read. A failure comes back unrecorded, for
    /// [`Vm::record`] to raise once the run's fuel is settled.
    fn read(&self, st: &St, addr: Addr, size: u8, pc: usize) -> Result<u64, ExecError> {
        if !st.allows(addr, size) {
            return Err(ExecError::DomainTrap { pc, addr });
        }
        self.kernel
            .mem
            .read_sized(addr, size)
            .map_err(|fault| ExecError::Fault { fault, pc })
    }

    /// The store counterpart of [`Vm::read`].
    fn write(&self, st: &St, addr: Addr, size: u8, value: u64, pc: usize) -> Result<(), ExecError> {
        if !st.allows(addr, size) {
            return Err(ExecError::DomainTrap { pc, addr });
        }
        self.kernel
            .mem
            .write_sized(addr, size, value)
            .map_err(|fault| ExecError::Fault { fault, pc })
    }

    /// Raises what a failed `len`-byte access leaves behind: a memory
    /// fault oopses the kernel, while an SFI violation is *trapped* — it
    /// never reached memory, the run aborts with
    /// [`ExecError::DomainTrap`], and (the whole point of the sandbox
    /// architecture) the kernel does not oops. Other errors pass through.
    fn record(&self, e: ExecError, len: u8, prog: &Program) -> ExecError {
        match e {
            ExecError::Fault { fault, pc } => self.oops(fault, pc, prog),
            ExecError::DomainTrap { pc, addr } => {
                Metrics::bump(&self.kernel.metrics.domain_traps, 1);
                self.kernel.audit.record(
                    self.kernel.clock.now_ns(),
                    EventKind::DomainTrap,
                    format!(
                        "{}:pc{pc} sfi violation addr={addr:#x} len={len}",
                        prog.name
                    ),
                );
                e
            }
            e => e,
        }
    }

    /// After a successful helper return in a sandbox run: a non-NULL
    /// `MapValueOrNull` result is a real kernel pointer the program is
    /// now entitled to dereference, so the containing region becomes a
    /// granted window. Tagged pointers (sockets, tasks) are not granted —
    /// dereferencing them traps here exactly as it faults in the
    /// verified lane, keeping the divergence contract's outcome classes
    /// aligned.
    fn grant_helper_window(&self, st: &mut St, ret: RetType, v: u64) {
        if v == 0 || ret != RetType::MapValueOrNull {
            return;
        }
        if let Some(dom) = st.dom.as_mut() {
            if let Some((base, len, _)) = self.kernel.mem.region_of(v) {
                dom.grant(base, len);
            }
        }
    }
}

/// Takes a compile-time-resolved jump edge, surfacing escaped targets
/// exactly as the interpreter's bounds check does.
fn take_jump(target: JumpTarget, pc: usize) -> Result<usize, ExecError> {
    match target {
        JumpTarget::At(t) => Ok(t as usize),
        JumpTarget::Escape(target) => Err(ExecError::ControlFlowEscape { pc, target }),
    }
}

fn jump_target(pc: usize, off: i16, len: usize) -> Result<usize, ExecError> {
    let target = pc as i64 + 1 + off as i64;
    if target < 0 || target >= len as i64 {
        return Err(ExecError::ControlFlowEscape { pc, target });
    }
    Ok(target as usize)
}

/// `BPF_END`: byte-swap `v` within `width` bits (`to_be`), or truncate
/// it to them (`to_le` on a little-endian model).
fn endian(v: u64, swap: bool, width: i32) -> Option<u64> {
    Some(match (swap, width) {
        (false, 16) => v & 0xffff,
        (false, 32) => v & 0xffff_ffff,
        (false, 64) => v,
        (true, 16) => (v as u16).swap_bytes() as u64,
        (true, 32) => (v as u32).swap_bytes() as u64,
        (true, 64) => v.swap_bytes(),
        _ => return None,
    })
}

// The explicit zero checks mirror the kernel's documented div/mod
// semantics; `checked_div` would obscure that correspondence.
#[allow(clippy::manual_checked_ops)]
pub(crate) fn alu64(op: u8, dst: u64, src: u64) -> Option<u64> {
    Some(match op {
        BPF_ADD => dst.wrapping_add(src),
        BPF_SUB => dst.wrapping_sub(src),
        BPF_MUL => dst.wrapping_mul(src),
        BPF_DIV => {
            if src == 0 {
                0
            } else {
                dst / src
            }
        }
        BPF_OR => dst | src,
        BPF_AND => dst & src,
        BPF_LSH => dst.wrapping_shl((src & 63) as u32),
        BPF_RSH => dst.wrapping_shr((src & 63) as u32),
        BPF_NEG => (dst as i64).wrapping_neg() as u64,
        BPF_MOD => {
            if src == 0 {
                dst
            } else {
                dst % src
            }
        }
        BPF_XOR => dst ^ src,
        BPF_MOV => src,
        BPF_ARSH => ((dst as i64) >> (src & 63)) as u64,
        _ => return None,
    })
}

#[allow(clippy::manual_checked_ops)]
pub(crate) fn alu32(op: u8, dst: u32, src: u32) -> Option<u32> {
    Some(match op {
        BPF_ADD => dst.wrapping_add(src),
        BPF_SUB => dst.wrapping_sub(src),
        BPF_MUL => dst.wrapping_mul(src),
        BPF_DIV => {
            if src == 0 {
                0
            } else {
                dst / src
            }
        }
        BPF_OR => dst | src,
        BPF_AND => dst & src,
        BPF_LSH => dst.wrapping_shl(src & 31),
        BPF_RSH => dst.wrapping_shr(src & 31),
        BPF_NEG => (dst as i32).wrapping_neg() as u32,
        BPF_MOD => {
            if src == 0 {
                dst
            } else {
                dst % src
            }
        }
        BPF_XOR => dst ^ src,
        BPF_MOV => src,
        BPF_ARSH => ((dst as i32) >> (src & 31)) as u32,
        _ => return None,
    })
}

pub(crate) fn jmp_taken(op: u8, dst: u64, src: u64) -> Option<bool> {
    Some(match op {
        BPF_JEQ => dst == src,
        BPF_JNE => dst != src,
        BPF_JGT => dst > src,
        BPF_JGE => dst >= src,
        BPF_JLT => dst < src,
        BPF_JLE => dst <= src,
        BPF_JSET => dst & src != 0,
        BPF_JSGT => (dst as i64) > (src as i64),
        BPF_JSGE => (dst as i64) >= (src as i64),
        BPF_JSLT => (dst as i64) < (src as i64),
        BPF_JSLE => (dst as i64) <= (src as i64),
        _ => return None,
    })
}

pub(crate) fn jmp_taken32(op: u8, dst: u32, src: u32) -> Option<bool> {
    Some(match op {
        BPF_JEQ => dst == src,
        BPF_JNE => dst != src,
        BPF_JGT => dst > src,
        BPF_JGE => dst >= src,
        BPF_JLT => dst < src,
        BPF_JLE => dst <= src,
        BPF_JSET => dst & src != 0,
        BPF_JSGT => (dst as i32) > (src as i32),
        BPF_JSGE => (dst as i32) >= (src as i32),
        BPF_JSLT => (dst as i32) < (src as i32),
        BPF_JSLE => (dst as i32) <= (src as i32),
        _ => return None,
    })
}
