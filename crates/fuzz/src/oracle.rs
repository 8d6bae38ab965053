//! The differential verdict oracle.
//!
//! Each generated program is judged twice, independently:
//!
//! * **Verifier verdict** — accept or reject, per [`Lane`] (the patched
//!   verifier and the shipped one with its historical bugs live), with
//!   the reject bucketed by [`RejectCheck`] — no string matching.
//! * **Runtime behaviour** — the program actually runs in the sandboxed
//!   interpreter over a deterministic exhaustive small-input family,
//!   under a fuel budget, on a fresh kernel per input. Any fault,
//!   helper failure, or leaked ref/lock is a *trap*; fuel exhaustion is
//!   *undecided* (the input family didn't prove anything).
//!
//! Every run is replayed through the compiled lane too — the program is
//! lowered by [`Vm::load_jit`] into the block IR and run by the JIT
//! executor — and the two lanes' results **and full audit fingerprints**
//! must match; a mismatch on an accepted program outranks every other
//! bucket. A program the lowering pass rejects outright (truncated
//! LDDW) still agrees as long as the interpreter refuses it identically
//! before executing anything.

use std::convert::Infallible;

use ebpf::helpers::HelperRegistry;
use ebpf::insn::Insn;
use ebpf::interp::{CtxInput, ExecError, RunResult, SandboxConfig, Vm, VmConfig};
use ebpf::jit::{JitConfig, JitError};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use verifier::{RejectCheck, VerifStats, Verifier, VerifierFaults, VerifierLimits};

/// Map fd of the 4-entry, 64-byte-value array (first fd handed out).
pub const ARR_FD: u32 = 1;
/// Map fd of the 8-entry hash (u32 keys, 16-byte values).
pub const HASH_FD: u32 = 2;
/// Map fd of the 4096-byte ringbuf.
pub const RB_FD: u32 = 3;
/// Map fd of the 4-slot prog array; slot 0 always holds the program
/// under test (so `tail_call(0)` self-chains into the 33-call limit).
pub const PROG_FD: u32 = 4;

/// Interpreter fuel per input: generously above any verifier-accepted
/// program's cost, but finite so generated infinite loops terminate.
pub const FUEL: u64 = 1 << 16;

/// Verifier configuration lanes the sweep compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// All historical verifier bugs fixed (the default config).
    Patched,
    /// The shipped verifier: Table-1 bug replicas live.
    Shipped,
}

impl Lane {
    /// Both lanes, in report order.
    pub const ALL: [Lane; 2] = [Lane::Patched, Lane::Shipped];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Patched => "patched",
            Lane::Shipped => "shipped",
        }
    }

    /// Parses a [`Lane::name`].
    pub fn from_name(name: &str) -> Option<Lane> {
        Lane::ALL.iter().copied().find(|l| l.name() == name)
    }

    /// The fault configuration this lane verifies under.
    pub fn faults(self) -> VerifierFaults {
        match self {
            Lane::Patched => VerifierFaults::patched(),
            Lane::Shipped => VerifierFaults::shipped(),
        }
    }
}

/// What actually happened when the program ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeClass {
    /// Completed on every input with no faults and no leaked resources.
    Safe,
    /// Faulted, failed in a helper, or leaked a ref/lock on some input.
    Trap,
    /// Ran out of fuel on some input without misbehaving; the input
    /// family proves neither safety nor a trap.
    Undecided,
}

impl RuntimeClass {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeClass::Safe => "safe",
            RuntimeClass::Trap => "trap",
            RuntimeClass::Undecided => "undecided",
        }
    }

    /// Parses a [`RuntimeClass::name`].
    pub fn from_name(name: &str) -> Option<RuntimeClass> {
        let all = [Self::Safe, Self::Trap, Self::Undecided];
        all.into_iter().find(|c| c.name() == name)
    }

    /// The class of one run.
    fn classify(run: &RunResult) -> RuntimeClass {
        match &run.result {
            Ok(_) if run.leak_report.clean() => RuntimeClass::Safe,
            Ok(_) => RuntimeClass::Trap,
            Err(ExecError::InsnLimit { .. }) => RuntimeClass::Undecided,
            Err(_) => RuntimeClass::Trap,
        }
    }

    /// The class of an input family from its members': a trap anywhere
    /// decides it, then fuel exhaustion anywhere.
    fn merge(self, other: RuntimeClass) -> RuntimeClass {
        match (self, other) {
            (_, RuntimeClass::Trap) | (RuntimeClass::Trap, _) => RuntimeClass::Trap,
            (_, RuntimeClass::Undecided) | (RuntimeClass::Undecided, _) => RuntimeClass::Undecided,
            _ => RuntimeClass::Safe,
        }
    }
}

/// Verdict × behaviour classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// Accepted and ran clean: the verifier was right.
    AcceptSafe,
    /// Accepted but the input family exhausted its fuel.
    AcceptUndecided,
    /// **Accepted yet trapped at runtime** — an unsoundness candidate.
    UnsoundnessCandidate,
    /// Rejected and indeed trapped: the verifier was right.
    RejectTrap,
    /// Rejected; runtime evidence inconclusive.
    RejectUndecided,
    /// **Rejected yet provably safe** under exhaustive small-input
    /// execution — an incompleteness witness.
    IncompletenessWitness,
    /// Interpreter and JIT pipeline disagreed on an accepted program
    /// (results or audit fingerprints). Outranks all other buckets.
    JitDivergence,
}

impl Bucket {
    /// Every bucket, in report order.
    pub const ALL: [Bucket; 7] = [
        Bucket::AcceptSafe,
        Bucket::AcceptUndecided,
        Bucket::UnsoundnessCandidate,
        Bucket::RejectTrap,
        Bucket::RejectUndecided,
        Bucket::IncompletenessWitness,
        Bucket::JitDivergence,
    ];

    /// Stable snake_case name used in the JSON report and corpus headers.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::AcceptSafe => "accept_safe",
            Bucket::AcceptUndecided => "accept_undecided",
            Bucket::UnsoundnessCandidate => "unsoundness_candidate",
            Bucket::RejectTrap => "reject_trap",
            Bucket::RejectUndecided => "reject_undecided",
            Bucket::IncompletenessWitness => "incompleteness_witness",
            Bucket::JitDivergence => "jit_divergence",
        }
    }

    /// Parses a [`Bucket::name`].
    pub fn from_name(name: &str) -> Option<Bucket> {
        Bucket::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// A verdict/behaviour disagreement worth shrinking and persisting.
    pub fn is_disagreement(self) -> bool {
        matches!(
            self,
            Bucket::UnsoundnessCandidate | Bucket::IncompletenessWitness | Bucket::JitDivergence
        )
    }
}

/// Runtime evidence for one program, shared across lanes.
#[derive(Debug, Clone)]
pub struct RuntimeProbe {
    /// Merged classification over the whole input family.
    pub class: RuntimeClass,
    /// Interpreter and JIT pipelines agreed on every input (results and
    /// audit fingerprints).
    pub jit_agrees: bool,
    /// Merged classification of the third lane: the same program loaded
    /// **unverified** into an SFI sandbox domain. Diagnostic only —
    /// never feeds [`Bucket`]; the sandbox legitimately diverges from
    /// the verified lane on misbehaving programs (it traps where the
    /// baseline oopses, and pointer-typed return values differ because
    /// ctx/stack live inside the domain region).
    pub sandbox_class: RuntimeClass,
    /// The sandbox lane kept its confinement promise on every input:
    /// the kernel never oopsed and the domain-crossing ledger balanced
    /// (entries == exits at rest). A `false` here is a sandbox bug, not
    /// a property of the fuzzed program.
    pub sandbox_confined: bool,
    /// Debug rendering of the first trap, if any.
    pub trap: Option<String>,
}

/// One lane's full judgement of one program.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The lane that produced the verdict.
    pub lane: Lane,
    /// Verifier verdict.
    pub accepted: bool,
    /// Reject bucket (structured, not string-matched) when rejected.
    pub check: Option<RejectCheck>,
    /// Verifier statistics when accepted.
    pub stats: Option<VerifStats>,
    /// Runtime classification.
    pub runtime: RuntimeClass,
    /// Interp/JIT pipelines agreed (always true for rejected programs).
    pub jit_agrees: bool,
    /// The verdict × behaviour bucket.
    pub bucket: Bucket,
    /// Debug rendering of the first runtime trap, if any.
    pub trap: Option<String>,
}

impl Observation {
    /// Combines a lane verdict with shared runtime evidence.
    pub fn from_parts(
        lane: Lane,
        verdict: Result<VerifStats, RejectCheck>,
        probe: &RuntimeProbe,
    ) -> Observation {
        let accepted = verdict.is_ok();
        let bucket = match (accepted, probe.class) {
            (true, _) if !probe.jit_agrees => Bucket::JitDivergence,
            (true, RuntimeClass::Safe) => Bucket::AcceptSafe,
            (true, RuntimeClass::Undecided) => Bucket::AcceptUndecided,
            (true, RuntimeClass::Trap) => Bucket::UnsoundnessCandidate,
            (false, RuntimeClass::Safe) => Bucket::IncompletenessWitness,
            (false, RuntimeClass::Undecided) => Bucket::RejectUndecided,
            (false, RuntimeClass::Trap) => Bucket::RejectTrap,
        };
        Observation {
            lane,
            accepted,
            check: verdict.as_ref().err().copied(),
            stats: verdict.ok(),
            runtime: probe.class,
            jit_agrees: !accepted || probe.jit_agrees,
            bucket,
            trap: probe.trap.clone(),
        }
    }
}

/// A fresh kernel + registries with the fuzzer's fixed map layout.
struct Env {
    kernel: Kernel,
    maps: MapRegistry,
    helpers: HelperRegistry,
}

impl Env {
    fn new() -> Env {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let helpers = HelperRegistry::standard();
        let arr = maps
            .create(&kernel, MapDef::array("fz_arr", 64, 4))
            .expect("array map");
        let hash = maps
            .create(&kernel, MapDef::hash("fz_hash", 4, 16, 8))
            .expect("hash map");
        let rb = maps
            .create(&kernel, MapDef::ringbuf("fz_rb", 4096))
            .expect("ringbuf");
        let prog = maps
            .create(&kernel, MapDef::prog_array("fz_prog", 4))
            .expect("prog array");
        // The generator hard-codes these fds; creation order pins them.
        assert_eq!((arr, hash, rb, prog), (ARR_FD, HASH_FD, RB_FD, PROG_FD));
        Env {
            kernel,
            maps,
            helpers,
        }
    }

    /// Loads the program under test into a fresh VM with `load`, pins it
    /// into prog-array slot 0 so generated tail calls have a live target
    /// (slots 1..3 stay empty), and runs it on `input`. A load error —
    /// the lowering pass refusing the program — comes back as is.
    fn run<E>(
        &self,
        input: CtxInput,
        load: impl FnOnce(&mut Vm<'_>) -> Result<u32, E>,
    ) -> Result<RunResult, E> {
        let mut vm = Vm::new(&self.kernel, &self.maps, &self.helpers).with_config(VmConfig {
            max_insns: Some(FUEL),
            ..VmConfig::default()
        });
        let id = load(&mut vm)?;
        self.maps
            .get(PROG_FD)
            .expect("prog array exists")
            .update(&self.kernel.mem, &0u32.to_le_bytes(), &id.to_le_bytes(), 0)
            .expect("prog slot update");
        Ok(vm.run(id, input))
    }
}

/// The verifier limits the oracle judges under: small enough that the
/// generator's big constant loops overrun `max_insns_processed` while
/// staying well inside the runtime [`FUEL`].
pub fn fuzz_limits() -> VerifierLimits {
    VerifierLimits {
        max_prog_len: 512,
        // Small on purpose: path exploration costs ~100-200µs per
        // processed instruction in unoptimised builds, and every loop
        // seed that overruns the budget pays the whole budget — twice
        // (once per lane), plus once per shrink attempt.
        max_insns_processed: 2048,
        max_states_per_insn: 8,
        max_call_depth: 4,
    }
}

/// The deterministic exhaustive input family for a program type.
pub fn inputs(prog_type: ProgType) -> Vec<CtxInput> {
    match prog_type {
        ProgType::Xdp => [0usize, 1, 2, 3, 4, 7, 8, 13, 14, 15, 16, 31, 32, 63, 64]
            .iter()
            .map(|&len| {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
                CtxInput::Packet(payload)
            })
            .collect(),
        _ => vec![CtxInput::None],
    }
}

/// The verdict oracle.
#[derive(Debug, Clone)]
pub struct Oracle {
    limits: VerifierLimits,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// An oracle with [`fuzz_limits`].
    pub fn new() -> Oracle {
        Oracle {
            limits: fuzz_limits(),
        }
    }

    /// The verifier's verdict for one lane: stats on accept, the
    /// structured reject bucket otherwise.
    pub fn verdict(
        &self,
        insns: &[Insn],
        prog_type: ProgType,
        lane: Lane,
    ) -> Result<VerifStats, RejectCheck> {
        let env = Env::new();
        let prog = Program::new("fuzz", prog_type, insns.to_vec());
        Verifier::new(&env.maps, &env.helpers)
            .with_limits(self.limits)
            .with_faults(lane.faults())
            .verify(&prog)
            .map(|v| v.stats)
            .map_err(|e| e.check())
    }

    /// Executes the program over the whole input family, through both
    /// lanes (interpreter and the compiled lane, `Vm::load_jit`), each run
    /// on a fresh kernel.
    pub fn probe(&self, insns: &[Insn], prog_type: ProgType) -> RuntimeProbe {
        let mut class = RuntimeClass::Safe;
        let mut jit_agrees = true;
        let mut sandbox_class = RuntimeClass::Safe;
        let mut sandbox_confined = true;
        let mut trap = None;
        let make_prog = || Program::new("fuzz", prog_type, insns.to_vec());
        for input in inputs(prog_type) {
            let verified = Env::new();
            let Ok(base) = verified.run(input.clone(), |vm| {
                Ok::<_, Infallible>(vm.load(make_prog()))
            });
            // Third lane: the same program, unverified, inside an SFI
            // domain. Its class and confinement promise are recorded as
            // diagnostics; they never feed the verdict bucket.
            let sandboxed = Env::new();
            let Ok(sb) = sandboxed.run(input.clone(), |vm| {
                Ok::<_, Infallible>(vm.load_sandboxed(make_prog(), SandboxConfig::default()))
            });
            let m = sandboxed.kernel.metrics.snapshot();
            sandbox_confined &=
                sandboxed.kernel.health().oopses == 0 && m.domain_entries == m.domain_exits;
            sandbox_class = sandbox_class.merge(RuntimeClass::classify(&sb));
            let compiled = Env::new();
            let jit = compiled.run(input, |vm| {
                vm.load_jit(make_prog(), JitConfig::default())
                    .map(|(id, _)| id)
            });
            jit_agrees &= match jit {
                Ok(jit) => {
                    base.result == jit.result
                        && base.insns == jit.insns
                        && base.helper_calls == jit.helper_calls
                        && base.max_depth == jit.max_depth
                        && base.printk == jit.printk
                        && verified.kernel.audit.fingerprint()
                            == compiled.kernel.audit.fingerprint()
                }
                // Lowering refused the program outright. The lanes still
                // agree when the interpreter refuses the same program at
                // the same pc before executing anything.
                Err(JitError::TruncatedLddw { pc }) => matches!(
                    base.result,
                    Err(ExecError::TruncatedLddw { pc: base_pc }) if base_pc == pc
                ),
                Err(JitError::BadBranchTarget { .. }) => false,
            };
            let this = RuntimeClass::classify(&base);
            if this == RuntimeClass::Trap && trap.is_none() {
                trap = Some(match &base.result {
                    Err(e) => format!("{e:?}"),
                    Ok(_) => "leaked refs/locks".to_string(),
                });
            }
            class = class.merge(this);
        }
        RuntimeProbe {
            class,
            jit_agrees,
            sandbox_class,
            sandbox_confined,
            trap,
        }
    }

    /// Full judgement for one lane: verdict + shared runtime probe.
    pub fn evaluate(&self, insns: &[Insn], prog_type: ProgType, lane: Lane) -> Observation {
        let probe = self.probe(insns, prog_type);
        Observation::from_parts(lane, self.verdict(insns, prog_type, lane), &probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{emit, Step};
    use ebpf::insn::{Reg, BPF_DW, BPF_IMM, BPF_LD, BPF_W};

    #[test]
    fn env_fd_layout_is_pinned() {
        let _ = Env::new();
    }

    #[test]
    fn truncated_lddw_rejected_identically_by_both_lanes() {
        // A program ending mid-LDDW: lowering refuses to compile it and
        // the interpreter refuses to run it, at the same pc. Matched
        // rejection is agreement, not a phantom JIT divergence.
        let insns = vec![Insn::new(BPF_LD | BPF_IMM | BPF_DW, 0, 0, 0, 0)];
        let oracle = Oracle::new();
        let probe = oracle.probe(&insns, ProgType::SocketFilter);
        assert!(
            probe.jit_agrees,
            "matched rejection must count as agreement"
        );
        assert_eq!(probe.class, RuntimeClass::Trap);
    }

    #[test]
    fn trivial_program_is_accept_safe() {
        let insns = emit(&[], ProgType::SocketFilter).unwrap();
        let oracle = Oracle::new();
        let obs = oracle.evaluate(&insns, ProgType::SocketFilter, Lane::Patched);
        assert!(obs.accepted);
        assert_eq!(obs.bucket, Bucket::AcceptSafe);
        assert!(obs.jit_agrees);
        // The third lane agrees on the well-behaved program and kept its
        // confinement invariants.
        let probe = oracle.probe(&insns, ProgType::SocketFilter);
        assert_eq!(probe.sandbox_class, RuntimeClass::Safe);
        assert!(probe.sandbox_confined);
    }

    #[test]
    fn uninit_stack_read_is_incompleteness_witness() {
        // The verifier rejects the uninitialised read; the runtime stack
        // is mapped and zeroed, so every input runs clean.
        let insns = emit(
            &[Step::StackLoad {
                size: BPF_DW,
                dst: Reg::R6,
                off: -16,
            }],
            ProgType::SocketFilter,
        )
        .unwrap();
        let oracle = Oracle::new();
        let obs = oracle.evaluate(&insns, ProgType::SocketFilter, Lane::Patched);
        assert!(!obs.accepted);
        assert_eq!(obs.check, Some(RejectCheck::Mem));
        assert_eq!(obs.bucket, Bucket::IncompletenessWitness);
    }

    #[test]
    fn or_null_arith_splits_the_lanes() {
        // CVE-2022-23222 shape with a guaranteed-miss key: the patched
        // lane rejects it; the shipped lane accepts it and it traps.
        let steps = [
            Step::MapLookup { key: 1000 },
            Step::OrNullArith { imm: 16 },
            Step::NullCheck,
            Step::MapLoad {
                size: BPF_W,
                dst: Reg::R7,
                off: 0,
            },
        ];
        let insns = emit(&steps, ProgType::SocketFilter).unwrap();
        let oracle = Oracle::new();
        let patched = oracle.evaluate(&insns, ProgType::SocketFilter, Lane::Patched);
        assert!(!patched.accepted, "patched lane must reject");
        let shipped = oracle.evaluate(&insns, ProgType::SocketFilter, Lane::Shipped);
        assert!(shipped.accepted, "shipped lane must accept");
        assert_eq!(shipped.bucket, Bucket::UnsoundnessCandidate);
        // The CVE gadget that oopses the baseline is *confined* by the
        // sandbox lane: it still misbehaves (traps), but the kernel never
        // oopses and the domain ledger balances.
        let probe = oracle.probe(&insns, ProgType::SocketFilter);
        assert_eq!(probe.sandbox_class, RuntimeClass::Trap);
        assert!(probe.sandbox_confined);
    }

    #[test]
    fn too_complex_loop_is_incompleteness_witness() {
        // 8192 iterations: ~24k verifier-processed insns (far past the
        // oracle's 2048 budget) but well under the runtime fuel.
        let insns = emit(
            &[Step::Loop {
                iters: 8192,
                op: ebpf::insn::BPF_ADD,
            }],
            ProgType::SocketFilter,
        )
        .unwrap();
        let oracle = Oracle::new();
        let obs = oracle.evaluate(&insns, ProgType::SocketFilter, Lane::Patched);
        assert!(!obs.accepted);
        assert_eq!(obs.check, Some(RejectCheck::Limits));
        assert_eq!(obs.bucket, Bucket::IncompletenessWitness);
    }
}
