//! Differential properties: interpreting a program, interpreting its
//! byte-lane JIT translation and running its lowered, compiled form must
//! be indistinguishable — same return values, same error
//! classifications, same instruction counts, same virtual clock and
//! audit bytes afterwards — for arbitrary (valid) programs, in the
//! sandbox lane too, and also under injected helper/allocation/clock
//! faults when both kernels are armed with the same [`FaultPlan`] seed.

use proptest::prelude::*;

use ebpf::asm::Asm;
use ebpf::helpers::{HelperRegistry, BPF_KTIME_GET_NS, BPF_LOOP};
use ebpf::insn::*;
use ebpf::interp::{CtxInput, ExecError, RunResult, SandboxConfig, Vm, VmConfig};
use ebpf::jit::{jit_compile, jit_lower, JitConfig, JitError};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::rcu::Rcu;
use kernel_sim::{FaultPlan, Kernel};

/// Interpreter budget: keeps generated `JA`-loops finite; both sides get
/// the same budget, so budget exhaustion must classify identically too.
const INSN_BUDGET: u64 = 16_384;

/// One random instruction group (LDDW takes two slots, kept intact).
/// Branch offsets are placeholders; [`sanitize`] remaps them in-range.
fn insn_group() -> impl Strategy<Value = Vec<Insn>> {
    let reg = 0u8..=10;
    let alu_op = prop::sample::select(vec![
        BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_OR, BPF_AND, BPF_LSH, BPF_RSH, BPF_MOD, BPF_XOR,
        BPF_MOV, BPF_ARSH,
    ]);
    let jmp_op = prop::sample::select(vec![
        BPF_JA, BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE, BPF_JLT, BPF_JLE, BPF_JSGT, BPF_JSGE, BPF_JSLT,
        BPF_JSLE, BPF_JSET,
    ]);
    let jmp32_op = prop::sample::select(vec![
        BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE, BPF_JLT, BPF_JLE, BPF_JSGT, BPF_JSGE, BPF_JSLT,
        BPF_JSLE, BPF_JSET,
    ]);
    let size = prop::sample::select(vec![BPF_B, BPF_H, BPF_W, BPF_DW]);
    prop_oneof![
        (reg.clone(), alu_op.clone(), any::<i32>(), any::<bool>()).prop_map(
            |(d, op, imm, wide)| {
                let class = if wide { BPF_ALU64 } else { BPF_ALU };
                vec![Insn::new(class | op | BPF_K, d, 0, 0, imm)]
            }
        ),
        (reg.clone(), reg.clone(), alu_op, any::<bool>()).prop_map(|(d, s, op, wide)| {
            let class = if wide { BPF_ALU64 } else { BPF_ALU };
            vec![Insn::new(class | op | BPF_X, d, s, 0, 0)]
        }),
        // Stack traffic within the frame, so most runs survive to later
        // instructions instead of faulting immediately.
        (reg.clone(), size.clone(), -64i16..=-8).prop_map(|(d, sz, off)| {
            vec![Insn::new(
                BPF_STX | BPF_MEM | sz,
                BPF_REG_FP,
                d,
                off & !7,
                0,
            )]
        }),
        (reg.clone(), size, -64i16..=-8).prop_map(|(d, sz, off)| {
            vec![Insn::new(
                BPF_LDX | BPF_MEM | sz,
                d,
                BPF_REG_FP,
                off & !7,
                0,
            )]
        }),
        (reg.clone(), jmp_op, any::<i32>(), any::<i16>()).prop_map(|(d, op, imm, off)| {
            vec![Insn::new(BPF_JMP | op | BPF_K, d, 0, off, imm)]
        }),
        // JMP32: same opcodes minus JA (which is only valid in BPF_JMP),
        // comparing just the low 32 bits of the registers.
        (reg.clone(), jmp32_op, any::<i32>(), any::<i16>()).prop_map(|(d, op, imm, off)| {
            vec![Insn::new(BPF_JMP32 | op | BPF_K, d, 0, off, imm)]
        }),
        // Byte-order conversions at every width, both directions.
        (
            reg.clone(),
            prop::sample::select(vec![16i32, 32, 64]),
            any::<bool>()
        )
            .prop_map(|(d, width, to_be)| {
                let src_bit = if to_be { BPF_X } else { BPF_K };
                vec![Insn::new(BPF_ALU | BPF_END | src_bit, d, 0, 0, width)]
            }),
        (reg, any::<u64>()).prop_map(|(d, v)| {
            vec![
                Insn::new(BPF_LD | BPF_IMM | BPF_DW, d, 0, 0, v as u32 as i32),
                Insn::new(0, 0, 0, 0, (v >> 32) as u32 as i32),
            ]
        }),
        // Helper calls, known and unknown ids alike: both pipelines must
        // classify them identically either way.
        (1i32..200).prop_map(|id| vec![Insn::new(BPF_JMP | BPF_CALL, 0, 0, 0, id)]),
    ]
}

/// Flattens groups, appends an `EXIT`, and remaps every branch offset
/// into the program text so [`jit_compile`] always validates.
fn sanitize(groups: Vec<Vec<Insn>>) -> Vec<Insn> {
    let mut insns: Vec<Insn> = groups.into_iter().flatten().collect();
    insns.push(Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0));
    let len = insns.len() as i64;
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.is_lddw() {
            pc += 2;
            continue;
        }
        let class = insn.class();
        let is_branch = (class == BPF_JMP || class == BPF_JMP32)
            && insn.op() != BPF_CALL
            && insn.op() != BPF_EXIT;
        if is_branch {
            let target = (((insn.off as i64) % len) + len) % len;
            insns[pc].off = (target - pc as i64 - 1) as i16;
        }
        pc += 1;
    }
    insns
}

/// How a program is loaded: the plain lane in its three forms, and the
/// sandbox lane in both execution forms.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// The interpreter.
    Interp,
    /// The interpreter over the byte lane's `jit_compile` text.
    ByteJit,
    /// The lowered, compiled form (`Vm::load_jit`).
    Lowered,
    /// The sandbox lane, interpreted.
    Sandboxed,
    /// The sandbox lane, lowered and compiled.
    SandboxedJit,
}

/// The plain forms, the interpreter first.
const PLAIN: [Form; 3] = [Form::Interp, Form::ByteJit, Form::Lowered];
/// The sandbox forms, the interpreter first.
const SANDBOXED: [Form; 2] = [Form::Sandboxed, Form::SandboxedJit];

fn load(vm: &mut Vm<'_>, prog: Program, form: Form) -> u32 {
    let jit = JitConfig::default();
    let sandbox = SandboxConfig::default();
    match form {
        Form::Interp => vm.load(prog),
        Form::ByteJit => {
            let (mut text, _) = jit_compile(&prog, jit).expect("test programs validate");
            // Audit records carry the program's name.
            text.name = prog.name;
            vm.load(text)
        }
        Form::Lowered => vm.load_jit(prog, jit).expect("test programs lower").0,
        Form::Sandboxed => vm.load_sandboxed(prog, sandbox),
        Form::SandboxedJit => {
            vm.load_sandboxed_jit(prog, sandbox, jit)
                .expect("test programs lower")
                .0
        }
    }
}

/// A run plus what it left on its kernel: the virtual clock and the
/// audit fingerprint (timestamps included).
#[derive(Debug)]
struct Observed {
    run: RunResult,
    clock: u64,
    audit: String,
}

fn observe(kernel: &Kernel, run: RunResult) -> Observed {
    Observed {
        run,
        clock: kernel.clock.now_ns(),
        audit: kernel.audit.fingerprint(),
    }
}

/// Runs `prog` once in `form` on `kernel`.
fn run_on(
    kernel: Kernel,
    config: VmConfig,
    prog: Program,
    form: Form,
    input: CtxInput,
) -> Observed {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let run = {
        let mut vm = Vm::new(&kernel, &maps, &helpers).with_config(config);
        let id = load(&mut vm, prog, form);
        vm.run(id, input)
    };
    observe(&kernel, run)
}

fn budget() -> VmConfig {
    VmConfig {
        max_insns: Some(INSN_BUDGET),
        ..VmConfig::default()
    }
}

fn run_fresh(prog: Program, form: Form) -> Observed {
    run_on(Kernel::new(), budget(), prog, form, CtxInput::None)
}

fn assert_equivalent(a: &Observed, b: &Observed) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.run.result, &b.run.result);
    prop_assert_eq!(a.run.insns, b.run.insns);
    prop_assert_eq!(a.run.helper_calls, b.run.helper_calls);
    prop_assert_eq!(a.run.max_depth, b.run.max_depth);
    prop_assert_eq!(&a.run.printk, &b.run.printk);
    prop_assert_eq!(a.clock, b.clock, "virtual clocks diverged");
    prop_assert_eq!(&a.audit, &b.audit, "audit fingerprints diverged");
    Ok(())
}

/// Runs a program in every form through `run` and checks each lane's
/// forms against its interpreter.
fn assert_forms_agree(run: impl Fn(Form) -> Observed) -> Result<(), TestCaseError> {
    for lane in [&PLAIN[..], &SANDBOXED[..]] {
        let base = run(lane[0]);
        for &form in &lane[1..] {
            assert_equivalent(&base, &run(form))?;
        }
    }
    Ok(())
}

/// The packet-filter used for the fault-injection property: bounds check,
/// map count (helper call), accept.
fn filter_prog(fd: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R2, Reg::R6, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R6, 8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 2)
        .mov64_imm(Reg::R0, 0)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R7, Reg::R2, 0)
        .alu64_imm(BPF_AND, Reg::R7, 3)
        .stx(BPF_W, Reg::R10, -4, Reg::R7)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(ebpf::helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "out")
        .ldx(BPF_DW, Reg::R0, Reg::R0, 0)
        .label("out")
        .exit()
        .build()
        .unwrap();
    Program::new("diff-filter", ProgType::SocketFilter, insns)
}

/// Runs the packet filter in `form` on a fresh kernel armed with `seed`.
fn run_filter_under_faults(seed: u64, payload: &[u8], form: Form) -> (Observed, u64) {
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let fd = maps
        .create(&kernel, MapDef::array("counts", 8, 4))
        .expect("map creation");
    let mut vm = Vm::new(&kernel, &maps, &helpers).with_config(budget());
    let id = load(&mut vm, filter_prog(fd), form);
    let plane = kernel.arm_fault_plan(FaultPlan::new(seed));
    let run = vm.run(id, CtxInput::Packet(payload.to_vec()));
    (observe(&kernel, run), plane.total_injected())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary valid programs: every JIT form agrees with the
    /// interpreter on results, error classifications, the clock and the
    /// audit, plain and sandboxed.
    #[test]
    fn jit_pipeline_matches_interpreter(groups in prop::collection::vec(insn_group(), 1..40)) {
        let insns = sanitize(groups);
        let prog = Program::new("diff", ProgType::SocketFilter, insns);
        let (_, stats) = jit_compile(&prog, JitConfig::default())
            .expect("sanitized programs always validate");
        prop_assert_eq!(stats.insns, prog.insns.len());
        assert_forms_agree(|form| run_fresh(prog.clone(), form))?;
    }

    /// Same property under injected faults: two kernels armed with the
    /// same `FaultPlan` seed inject identically, so every form of the
    /// filter must still classify identically — including injected
    /// helper failures, context-allocation faults and clock jumps.
    #[test]
    fn jit_pipeline_matches_interpreter_under_faults(
        seed in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        for lane in [&PLAIN[..], &SANDBOXED[..]] {
            let (base, base_injected) = run_filter_under_faults(seed, &payload, lane[0]);
            for &form in &lane[1..] {
                let (jit, jit_injected) = run_filter_under_faults(seed, &payload, form);
                assert_equivalent(&base, &jit)?;
                prop_assert_eq!(base_injected, jit_injected);
            }
        }
    }

    /// The CVE replica stays detectable: with the branch bug enabled, a
    /// long backward branch either diverges or escapes — but never
    /// silently corrupts the equivalence check's bookkeeping (the run
    /// still terminates under the shared budget).
    #[test]
    fn buggy_jit_never_hangs(groups in prop::collection::vec(insn_group(), 1..40)) {
        let insns = sanitize(groups);
        let prog = Program::new("diff-bug", ProgType::SocketFilter, insns);
        if let Ok((jitted, _)) = jit_compile(&prog, JitConfig { branch_offset_bug: true, ..JitConfig::default() }) {
            // Must complete within the budget, one way or another.
            let _ = run_fresh(jitted, Form::Interp);
        }
    }
}

/// A program ending mid-LDDW used to be rejected at compile time by the
/// JIT lane yet slip through the interpreter and execute its prefix.
/// Both lanes must now refuse it identically — same error, same pc,
/// nothing executed — so the fuzz oracle can treat matched rejection as
/// agreement instead of a phantom divergence.
#[test]
fn truncated_lddw_rejected_identically_in_both_lanes() {
    let prog = Program::new(
        "trunc",
        ProgType::SocketFilter,
        vec![
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 0, 0, 0, 7),
            Insn::new(BPF_LD | BPF_IMM | BPF_DW, 1, 0, 0, 1),
        ],
    );
    assert_eq!(
        jit_compile(&prog, JitConfig::default()).err(),
        Some(JitError::TruncatedLddw { pc: 1 })
    );
    assert_eq!(
        jit_lower(&prog, JitConfig::default()).err(),
        Some(JitError::TruncatedLddw { pc: 1 })
    );
    let base = run_fresh(prog, Form::Interp).run;
    assert!(
        matches!(base.result, Err(ExecError::TruncatedLddw { pc: 1 })),
        "interpreter lane must refuse at the same pc: {:?}",
        base.result
    );
    assert_eq!(base.insns, 0, "nothing may execute before the reject");
}

/// One random packet-header access: `(via_helper, offset, size_bits)`.
type HeaderAccess = (bool, u16, u8);

/// Builds an XDP program performing `accesses` against the packet — half
/// through explicit `data`/`data_end` pointer bounds checks, half through
/// the `bpf_xdp_load_bytes` helper — XOR-folding every loaded value and
/// helper return code into r7. Any bounds-handling divergence between
/// the pipelines changes the returned accumulator.
fn header_access_prog(accesses: &[HeaderAccess]) -> Program {
    let mut asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .mov64_imm(Reg::R7, 0)
        .ldx(BPF_DW, Reg::R8, Reg::R6, 0) // data
        .ldx(BPF_DW, Reg::R9, Reg::R6, 8); // data_end
    for (i, &(via_helper, off, size)) in accesses.iter().enumerate() {
        let bytes = match size {
            BPF_B => 1,
            BPF_H => 2,
            BPF_W => 4,
            _ => 8,
        };
        let skip = format!("skip{i}");
        asm = if via_helper {
            asm.mov64_reg(Reg::R1, Reg::R6)
                .mov64_imm(Reg::R2, off as i32)
                .mov64_reg(Reg::R3, Reg::R10)
                .alu64_imm(BPF_ADD, Reg::R3, -16)
                .mov64_imm(Reg::R4, bytes)
                .call_helper(ebpf::helpers::BPF_XDP_LOAD_BYTES as i32)
                .alu64_reg(BPF_XOR, Reg::R7, Reg::R0)
                .jmp64_imm(BPF_JNE, Reg::R0, 0, &skip)
                .ldx(size, Reg::R4, Reg::R10, -16)
                .alu64_reg(BPF_XOR, Reg::R7, Reg::R4)
                .label(&skip)
        } else {
            asm.mov64_reg(Reg::R2, Reg::R8)
                .alu64_imm(BPF_ADD, Reg::R2, off as i32)
                .mov64_reg(Reg::R3, Reg::R2)
                .alu64_imm(BPF_ADD, Reg::R3, bytes)
                .jmp64_reg(BPF_JGT, Reg::R3, Reg::R9, &skip)
                .ldx(size, Reg::R4, Reg::R2, 0)
                .alu64_reg(BPF_XOR, Reg::R7, Reg::R4)
                .label(&skip)
        };
    }
    let insns = asm.mov64_reg(Reg::R0, Reg::R7).exit().build().unwrap();
    Program::new("diff-header-access", ProgType::Xdp, insns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mirrors the net stack's header-access patterns: random direct
    /// (pointer-checked) and helper-mediated packet loads at random
    /// offsets — in-bounds, at the boundary, and far past it — must be
    /// indistinguishable between the interpreter and the JIT pipeline.
    #[test]
    fn packet_header_access_matches_interpreter(
        payload in prop::collection::vec(any::<u8>(), 0..64),
        accesses in prop::collection::vec(
            (
                any::<bool>(),
                // Bias toward the interesting region around small frame
                // sizes; large offsets exercise the overflow guards.
                prop_oneof![0u16..80, any::<u16>()],
                prop::sample::select(vec![BPF_B, BPF_H, BPF_W, BPF_DW]),
            ),
            1..12,
        ),
    ) {
        let prog = header_access_prog(&accesses);
        let input = CtxInput::Packet(payload);
        assert_forms_agree(|form| {
            run_on(Kernel::new(), budget(), prog.clone(), form, input.clone())
        })?;
    }
}

/// One case of [`compiled_forms_read_the_interpreters_clock`].
struct ClockCase {
    name: &'static str,
    prog: Asm,
    config: VmConfig,
    /// RCU stall timeout of the run's kernel.
    stall_timeout_ns: u64,
    /// What the case is about, checked on each lane's interpreter run
    /// (the other forms must match it) so the comparison cannot pass
    /// vacuously.
    shows: fn(&Observed) -> bool,
}

/// A straight line of `n` pure ALU ops.
fn pure_line(asm: Asm, n: usize) -> Asm {
    (0..n).fold(asm, |asm, i| asm.alu64_imm(BPF_ADD, Reg::R5, i as i32))
}

fn limit(n: u64) -> VmConfig {
    VmConfig {
        max_insns: Some(n),
        ..VmConfig::default()
    }
}

/// Every point where the compiled forms settle owed fuel, each as a
/// run whose clock readers would see a different value if that settle
/// were missing: the interpreter's and the compiled form's runs, plain
/// and sandboxed, must leave the same clock and audit bytes and return
/// the same result.
#[test]
fn compiled_forms_read_the_interpreters_clock() {
    let default_stall = kernel_sim::rcu::DEFAULT_STALL_TIMEOUT_NS;
    let cases = [
        ClockCase {
            name: "bpf_ktime_get_ns after loads and branches",
            prog: Asm::new()
                .mov64_reg(Reg::R6, Reg::R1)
                .ldx(BPF_DW, Reg::R2, Reg::R6, 0)
                .ldx(BPF_DW, Reg::R3, Reg::R6, 8)
                .stx(BPF_DW, Reg::R10, -8, Reg::R2)
                .ldx(BPF_DW, Reg::R4, Reg::R10, -8)
                .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "skip")
                .alu64_imm(BPF_ADD, Reg::R4, 1)
                .label("skip")
                .jmp64_imm(BPF_JEQ, Reg::R4, 0, "skip2")
                .alu64_imm(BPF_ADD, Reg::R4, 2)
                .label("skip2")
                .call_helper(BPF_KTIME_GET_NS as i32)
                .exit(),
            config: VmConfig::default(),
            stall_timeout_ns: default_stall,
            shows: |o| o.run.result.as_ref().is_ok_and(|&t| t > 0),
        },
        ClockCase {
            name: "bpf_ktime_get_ns in a bpf2bpf callee",
            prog: pure_line(Asm::new(), 6)
                .call_fn("callee")
                .exit()
                .label("callee")
                .call_helper(BPF_KTIME_GET_NS as i32)
                .exit(),
            config: VmConfig::default(),
            stall_timeout_ns: default_stall,
            shows: |o| o.run.result.as_ref().is_ok_and(|&t| t > 0),
        },
        ClockCase {
            name: "an oops on the fifth op of a straight line",
            prog: pure_line(Asm::new().mov64_imm(Reg::R2, 0), 3)
                .ldx(BPF_DW, Reg::R0, Reg::R2, 0)
                .alu64_imm(BPF_ADD, Reg::R0, 1)
                .exit(),
            config: VmConfig::default(),
            stall_timeout_ns: default_stall,
            // A null read: an oops in the plain lane, a trap in the sandbox.
            shows: |o| {
                matches!(
                    o.run.result,
                    Err(ExecError::Fault { pc: 4, .. } | ExecError::DomainTrap { pc: 4, .. })
                ) && o.audit.lines().count() == 1
            },
        },
        ClockCase {
            name: "an SFI trap mid-line",
            prog: pure_line(Asm::new().mov64_reg(Reg::R2, Reg::R10), 2)
                .alu64_imm(BPF_ADD, Reg::R2, 64)
                .ldx(BPF_DW, Reg::R0, Reg::R2, 0)
                .alu64_imm(BPF_ADD, Reg::R0, 1)
                .exit(),
            config: VmConfig::default(),
            stall_timeout_ns: default_stall,
            // Above the frame: dead domain space in the sandbox lane.
            shows: |o| {
                matches!(
                    o.run.result,
                    Err(ExecError::Fault { pc: 4, .. } | ExecError::DomainTrap { pc: 4, .. })
                ) && o.audit.lines().count() == 1
            },
        },
        ClockCase {
            name: "InsnLimit inside a pure run",
            prog: pure_line(Asm::new(), 12).exit(),
            config: limit(6),
            stall_timeout_ns: default_stall,
            shows: |o| matches!(o.run.result, Err(ExecError::InsnLimit { limit: 6 })),
        },
        ClockCase {
            name: "InsnLimit on a load",
            prog: pure_line(Asm::new(), 3)
                .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
                .exit(),
            config: limit(3),
            stall_timeout_ns: default_stall,
            shows: |o| o.run.insns == 4 && matches!(o.run.result, Err(ExecError::InsnLimit { .. })),
        },
        ClockCase {
            name: "InsnLimit after a bpf2bpf call returns",
            prog: pure_line(
                pure_line(pure_line(Asm::new(), 2).call_fn("callee"), 10)
                    .exit()
                    .label("callee"),
                5,
            )
            .exit(),
            config: limit(12),
            stall_timeout_ns: default_stall,
            shows: |o| {
                o.run.insns == 13 && matches!(o.run.result, Err(ExecError::InsnLimit { .. }))
            },
        },
        ClockCase {
            name: "InsnLimit after bpf_loop callbacks return",
            prog: pure_line(
                pure_line(
                    Asm::new()
                        .mov64_imm(Reg::R1, 3)
                        .ld_fn_ptr(Reg::R2, "callback")
                        .mov64_imm(Reg::R3, 0)
                        .mov64_imm(Reg::R4, 0)
                        .call_helper(BPF_LOOP as i32),
                    10,
                )
                .exit()
                .label("callback")
                .mov64_imm(Reg::R0, 0),
                2,
            )
            .exit(),
            config: limit(20),
            stall_timeout_ns: default_stall,
            shows: |o| {
                o.run.insns == 21 && matches!(o.run.result, Err(ExecError::InsnLimit { .. }))
            },
        },
        ClockCase {
            name: "the RCU stall report at the 4,096-insn poll",
            prog: Asm::new()
                .mov64_imm(Reg::R1, 2_500)
                .label("loop")
                .alu64_imm(BPF_ADD, Reg::R1, -1)
                .jmp64_imm(BPF_JNE, Reg::R1, 0, "loop")
                .exit(),
            config: VmConfig::default(),
            stall_timeout_ns: 1_000,
            // Reported inside the run, before its last instruction.
            shows: |o| {
                o.audit
                    .lines()
                    .filter(|l| l.contains("|RcuStall|"))
                    .any(|l| {
                        l.split('|').next().and_then(|t| t.parse::<u64>().ok())
                            < Some(o.clock - 500)
                    })
            },
        },
    ];
    for case in cases {
        let insns = case.prog.build().expect("case assembles");
        for lane in [&PLAIN[..], &SANDBOXED[..]] {
            let run = |form| {
                let mut kernel = Kernel::new();
                kernel.rcu = Rcu::with_stall_timeout(kernel.clock.clone(), case.stall_timeout_ns);
                let prog = Program::new("clock", ProgType::SocketFilter, insns.clone());
                run_on(
                    kernel,
                    case.config,
                    prog,
                    form,
                    CtxInput::Packet(vec![7; 32]),
                )
            };
            let base = run(lane[0]);
            assert!(
                (case.shows)(&base),
                "{}: {:?} shows nothing: {base:?}",
                case.name,
                lane[0]
            );
            for &form in &lane[1..] {
                assert_equivalent(&base, &run(form))
                    .unwrap_or_else(|e| panic!("{}: {form:?}: {e:?}", case.name));
            }
        }
    }
}
