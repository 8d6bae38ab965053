//! Behavioural tests of the interpreter: ISA semantics, call frames, tail
//! calls, inlined `bpf_loop`, helper dispatch, and fault handling.

use ebpf::asm::Asm;
use ebpf::helpers::{self, FaultConfig, HelperRegistry};
use ebpf::insn::*;
use ebpf::interp::{CtxInput, ExecError, SandboxConfig, Vm, VmConfig};
use ebpf::jit::JitConfig;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::audit::EventKind;
use kernel_sim::mem::{Fault, KERNEL_VA_BASE};
use kernel_sim::{FaultPlan, FaultPlanConfig, Kernel};

struct Harness {
    kernel: Kernel,
    maps: MapRegistry,
    helpers: HelperRegistry,
}

impl Harness {
    fn new() -> Self {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        Self {
            kernel,
            maps: MapRegistry::default(),
            helpers: HelperRegistry::standard(),
        }
    }

    fn vm(&self) -> Vm<'_> {
        Vm::new(&self.kernel, &self.maps, &self.helpers)
    }

    /// Runs `insns` as a socket-filter program with no input.
    fn run(&self, insns: Vec<Insn>) -> ebpf::interp::RunResult {
        let mut vm = self.vm();
        let id = vm.load(Program::new("t", ProgType::SocketFilter, insns));
        vm.run(id, CtxInput::None)
    }

    fn run_value(&self, insns: Vec<Insn>) -> u64 {
        self.run(insns).unwrap()
    }
}

#[test]
fn mov_and_exit() {
    let h = Harness::new();
    let prog = Asm::new().mov64_imm(Reg::R0, 1234).exit().build().unwrap();
    assert_eq!(h.run_value(prog), 1234);
}

#[test]
fn alu64_basics() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 10)
        .alu64_imm(BPF_ADD, Reg::R0, 5)
        .alu64_imm(BPF_MUL, Reg::R0, 3)
        .alu64_imm(BPF_SUB, Reg::R0, 1)
        .alu64_imm(BPF_DIV, Reg::R0, 4) // 44 / 4 = 11
        .alu64_imm(BPF_MOD, Reg::R0, 4) // 3
        .alu64_imm(BPF_LSH, Reg::R0, 4) // 48
        .alu64_imm(BPF_OR, Reg::R0, 1) // 49
        .alu64_imm(BPF_XOR, Reg::R0, 0xff) // 206
        .alu64_imm(BPF_AND, Reg::R0, 0xf0) // 192
        .alu64_imm(BPF_RSH, Reg::R0, 4) // 12
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 12);
}

#[test]
fn division_by_zero_yields_zero_not_crash() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 100)
        .mov64_imm(Reg::R1, 0)
        .alu64_reg(BPF_DIV, Reg::R0, Reg::R1)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 0);
    assert!(h.kernel.health().pristine());
}

#[test]
fn modulo_by_zero_leaves_dst() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 77)
        .mov64_imm(Reg::R1, 0)
        .alu64_reg(BPF_MOD, Reg::R0, Reg::R1)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 77);
}

#[test]
fn alu32_zero_extends() {
    let h = Harness::new();
    let prog = Asm::new()
        .lddw(Reg::R0, 0xffff_ffff_ffff_fff0)
        .alu32_imm(BPF_ADD, Reg::R0, 0x20) // 32-bit wrap: 0x10, upper cleared
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 0x10);
}

#[test]
fn neg_and_arsh() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 16)
        .neg64(Reg::R0) // -16
        .alu64_imm(BPF_ARSH, Reg::R0, 2) // -4
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog) as i64, -4);
}

#[test]
fn endian_conversions() {
    let h = Harness::new();
    let prog = Asm::new()
        .lddw(Reg::R0, 0x1122_3344_5566_7788)
        .endian(Reg::R0, 16, true) // bswap16 of 0x7788 -> 0x8877
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 0x8877);

    let prog = Asm::new()
        .lddw(Reg::R0, 0x1122_3344_5566_7788)
        .endian(Reg::R0, 32, false) // to_le: truncate to 32 bits
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 0x5566_7788);
}

#[test]
fn stack_store_load_roundtrip() {
    let h = Harness::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 1111)
        .st(BPF_W, Reg::R10, -16, 2222)
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .ldx(BPF_W, Reg::R1, Reg::R10, -16)
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R1)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 3333);
}

#[test]
fn stack_overflow_faults_and_oopses() {
    let h = Harness::new();
    // Write below the 512-byte frame.
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -520, 1)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(matches!(result.result, Err(ExecError::Fault { .. })));
    assert!(h.kernel.health().tainted);
}

#[test]
fn null_deref_oopses_kernel() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 0)
        .ldx(BPF_DW, Reg::R0, Reg::R1, 0)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(matches!(result.result, Err(ExecError::Fault { .. })));
    assert_eq!(h.kernel.health().oopses, 1);
}

#[test]
fn conditional_jumps_signed_unsigned() {
    let h = Harness::new();
    // if (-1 as u64) > 5 unsigned -> take; then if (-1 as i64) < 5 signed -> take.
    let prog = Asm::new()
        .mov64_imm(Reg::R1, -1)
        .mov64_imm(Reg::R0, 0)
        .jmp64_imm(BPF_JGT, Reg::R1, 5, "u_taken")
        .exit()
        .label("u_taken")
        .jmp64_imm(BPF_JSLT, Reg::R1, 5, "s_taken")
        .exit()
        .label("s_taken")
        .mov64_imm(Reg::R0, 1)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 1);
}

#[test]
fn jmp32_compares_low_word() {
    let h = Harness::new();
    // r1 = 0xffff_ffff_0000_0001; low 32 bits = 1, so JMP32 JEQ 1 is taken.
    let prog = Asm::new()
        .lddw(Reg::R1, 0xffff_ffff_0000_0001)
        .mov64_imm(Reg::R0, 0)
        .jmp32_imm(BPF_JEQ, Reg::R1, 1, "taken")
        .exit()
        .label("taken")
        .mov64_imm(Reg::R0, 1)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 1);
}

#[test]
fn bounded_loop_executes() {
    let h = Harness::new();
    // r0 = sum(1..=10) via a backward-branch loop.
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 0)
        .mov64_imm(Reg::R1, 10)
        .label("loop")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R1)
        .alu64_imm(BPF_SUB, Reg::R1, 1)
        .jmp64_imm(BPF_JNE, Reg::R1, 0, "loop")
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 55);
}

#[test]
fn atomic_ops() {
    let h = Harness::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 10)
        .mov64_imm(Reg::R1, 5)
        .atomic(BPF_DW, Reg::R10, -8, Reg::R1, BPF_ATOMIC_ADD)
        // Fetch-add: r2 = old value (15), mem becomes 16.
        .mov64_imm(Reg::R2, 1)
        .atomic(BPF_DW, Reg::R10, -8, Reg::R2, BPF_ATOMIC_ADD | BPF_FETCH)
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R2) // 16 + 15
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 31);
}

#[test]
fn atomic_xchg_and_cmpxchg() {
    let h = Harness::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 100)
        .mov64_imm(Reg::R1, 200)
        .atomic(BPF_DW, Reg::R10, -8, Reg::R1, BPF_XCHG) // r1 = 100, mem = 200
        // cmpxchg: r0 (expected) = 200 -> swap in 300, r0 = old (200).
        .mov64_imm(Reg::R0, 200)
        .mov64_imm(Reg::R2, 300)
        .atomic(BPF_DW, Reg::R10, -8, Reg::R2, BPF_CMPXCHG)
        .ldx(BPF_DW, Reg::R3, Reg::R10, -8) // 300
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R1) // 200 + 100
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R3) // + 300
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 600);
}

#[test]
fn packet_ctx_loads() {
    let h = Harness::new();
    let mut vm = h.vm();
    // Return skb->len via the ctx scalar field at offset 16.
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R1, 16)
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("len", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::Packet(vec![0xaa; 33]));
    assert_eq!(result.unwrap(), 33);
}

#[test]
fn packet_data_access_via_ctx_pointers() {
    let h = Harness::new();
    let mut vm = h.vm();
    // r2 = data; r3 = data_end; if data + 2 > data_end return 0; return data[1].
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 2)
        .mov64_imm(Reg::R0, 0)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R0, Reg::R2, 1)
        .label("out")
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("pkt", ProgType::Xdp, prog));
    assert_eq!(vm.run(id, CtxInput::Packet(vec![7, 9, 11])).unwrap(), 9);
    // A one-byte packet takes the bounds-check branch.
    assert_eq!(vm.run(id, CtxInput::Packet(vec![7])).unwrap(), 0);
}

#[test]
fn bpf2bpf_call_preserves_callee_saved() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R6, 99)
        .mov64_imm(Reg::R1, 5)
        .call_fn("double")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6) // 10 + 99
        .exit()
        .label("double")
        .mov64_reg(Reg::R0, Reg::R1)
        .alu64_imm(BPF_MUL, Reg::R0, 2)
        // Clobber r6 in the callee; the frame machinery must restore it.
        .mov64_imm(Reg::R6, 0)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 109);
}

#[test]
fn call_depth_limit_enforced() {
    let h = Harness::new();
    // Infinite recursion: f calls f.
    let prog = Asm::new()
        .call_fn("f")
        .exit()
        .label("f")
        .call_fn("f")
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(matches!(
        result.result,
        Err(ExecError::CallDepthExceeded { .. })
    ));
    assert_eq!(result.max_depth, 8);
}

#[test]
fn subprogram_gets_fresh_stack_frame() {
    let h = Harness::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 42)
        .call_fn("sub")
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8) // caller slot unchanged
        .exit()
        .label("sub")
        .st(BPF_DW, Reg::R10, -8, 7) // writes its own frame
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 42);
}

#[test]
fn helper_ktime_and_pid_tgid() {
    let h = Harness::new();
    let prog = Asm::new()
        .call_helper(helpers::BPF_GET_CURRENT_PID_TGID as i32)
        .exit()
        .build()
        .unwrap();
    // Demo env: current task nginx pid=100 tgid=100.
    assert_eq!(h.run_value(prog), (100 << 32) | 100);

    let prog = Asm::new()
        .call_helper(helpers::BPF_KTIME_GET_NS as i32)
        .exit()
        .build()
        .unwrap();
    // One instruction has been charged before the call.
    assert!(h.run_value(prog) >= 1);
}

#[test]
fn helper_trace_printk_formats() {
    let h = Harness::new();
    // Store "n=%d\0" on the stack and print it with arg 7.
    let fmt = u32::from_le_bytes(*b"n=%d");
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -8, fmt as i32)
        .st(BPF_B, Reg::R10, -4, 0)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -8)
        .mov64_imm(Reg::R2, 5)
        .mov64_imm(Reg::R3, 7)
        .call_helper(helpers::BPF_TRACE_PRINTK as i32)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    assert_eq!(result.printk, vec!["n=7".to_string()]);
}

#[test]
fn map_lookup_update_through_helpers() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("counters", 8, 4))
        .unwrap();
    // counters[1] += 1 via lookup + direct pointer write; return the value.
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 1) // key = 1
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .exit()
        .label("hit")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .alu64_imm(BPF_ADD, Reg::R1, 1)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .mov64_reg(Reg::R0, Reg::R1)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load(Program::new("count", ProgType::Kprobe, prog));
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), 1);
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), 2);
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), 3);
}

#[test]
fn tail_call_chains_and_limit() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::prog_array("progs", 2))
        .unwrap();
    // Program 0 tail-calls slot 0 (itself) forever; the 33-call limit
    // breaks the chain and the program falls through to return 5.
    let prog = Asm::new()
        .ld_map_fd(Reg::R2, fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 5)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load(Program::new("self-tail", ProgType::SocketFilter, prog));
    let map = h.maps.get(fd).unwrap();
    map.update(&h.kernel.mem, &0u32.to_le_bytes(), &id.to_le_bytes(), 0)
        .unwrap();
    let result = vm.run(id, CtxInput::None);
    assert_eq!(result.unwrap(), 5);
}

#[test]
fn bpf_loop_runs_callback() {
    let h = Harness::new();
    // Sum loop indices 0..10 into a stack cell via bpf_loop.
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 0)
        .mov64_imm(Reg::R1, 10)
        .ld_fn_ptr(Reg::R2, "body")
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .mov64_reg(Reg::R6, Reg::R0) // iterations performed
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .alu64_imm(BPF_MUL, Reg::R0, 100)
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6)
        .exit()
        // Callback(i, ctx): *ctx += i; return 0.
        .label("body")
        .ldx(BPF_DW, Reg::R3, Reg::R2, 0)
        .alu64_reg(BPF_ADD, Reg::R3, Reg::R1)
        .stx(BPF_DW, Reg::R2, 0, Reg::R3)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    // Sum 0..10 = 45, times 100, plus 10 iterations = 4510.
    assert_eq!(h.run_value(prog), 4510);
}

#[test]
fn bpf_loop_early_exit_on_nonzero() {
    let h = Harness::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 100)
        .ld_fn_ptr(Reg::R2, "body")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        // Callback: return 1 when i == 4 (so 5 iterations run).
        .label("body")
        .mov64_imm(Reg::R0, 0)
        .jmp64_imm(BPF_JNE, Reg::R1, 4, "done")
        .mov64_imm(Reg::R0, 1)
        .label("done")
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 5);
}

#[test]
fn bpf_loop_over_limit_rejected() {
    let h = Harness::new();
    let prog = Asm::new()
        .lddw(Reg::R1, (1 << 23) + 1)
        .ld_fn_ptr(Reg::R2, "body")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .label("body")
        .mov64_imm(Reg::R0, 1)
        .exit()
        .build()
        .unwrap();
    // -E2BIG
    assert_eq!(h.run_value(prog) as i64, -7);
}

#[test]
fn unknown_helper_errors() {
    let h = Harness::new();
    let prog = Asm::new().call_helper(9999).exit().build().unwrap();
    let result = h.run(prog);
    assert!(matches!(
        result.result,
        Err(ExecError::UnknownHelper { id: 9999, .. })
    ));
}

#[test]
fn insn_budget_enforced_when_configured() {
    let h = Harness::new();
    let mut vm = h.vm().with_config(VmConfig {
        max_insns: Some(100),
        ..VmConfig::default()
    });
    // Infinite loop.
    let prog = Asm::new().label("spin").ja("spin").build().unwrap();
    let id = vm.load(Program::new("spin", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::None);
    assert!(matches!(
        result.result,
        Err(ExecError::InsnLimit { limit: 100 })
    ));
    assert_eq!(result.insns, 101);
}

#[test]
fn run_holds_rcu_and_long_runs_stall() {
    let h = Harness::new();
    // 10 µs of virtual time per instruction: ~2.2 M instructions cross the
    // 21 s stall threshold.
    let mut vm = h.vm().with_config(VmConfig {
        time_per_insn_ns: 10_000,
        max_insns: Some(3_000_000),
    });
    let prog = Asm::new().label("spin").ja("spin").build().unwrap();
    let id = vm.load(Program::new("staller", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::None);
    assert!(matches!(result.result, Err(ExecError::InsnLimit { .. })));
    assert!(h.kernel.audit.count(EventKind::RcuStall) >= 1);
}

#[test]
fn kprobe_ctx_delivers_registers() {
    let h = Harness::new();
    let mut vm = h.vm();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R1, 24) // arg register 3
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("kp", ProgType::Kprobe, prog));
    let mut regs = [0u64; 8];
    regs[3] = 0x1337;
    assert_eq!(vm.run(id, CtxInput::Kprobe(regs)).unwrap(), 0x1337);
}

/// The four bytecode lanes: interpreter, JIT, sandbox, sandbox JIT.
fn load_in_lane(vm: &mut Vm<'_>, lane: usize, prog: Program) -> u32 {
    let sandbox = SandboxConfig::default();
    match lane {
        0 => vm.load(prog),
        1 => vm.load_jit(prog, JitConfig::default()).unwrap().0,
        2 => vm.load_sandboxed(prog, sandbox),
        _ => {
            vm.load_sandboxed_jit(prog, sandbox, JitConfig::default())
                .unwrap()
                .0
        }
    }
}

#[test]
fn context_allocation_failure_is_a_setup_error_not_an_oops() {
    for lane in 0..4 {
        let h = Harness::new();
        let mut vm = h.vm();
        let prog = Asm::new().mov64_imm(Reg::R0, 1).exit().build().unwrap();
        let id = load_in_lane(
            &mut vm,
            lane,
            Program::new("t", ProgType::SocketFilter, prog),
        );
        // The burst fails the run's first allocation, its context: the
        // run ends before the program starts, and nothing oopses.
        h.kernel.arm_fault_plan(FaultPlan::with_config(
            1,
            FaultPlanConfig {
                alloc_fail_burst: 1,
                ..FaultPlanConfig::quiet()
            },
        ));
        let result = vm.run_packet(id, &[0u8; 8]).result;
        assert!(
            matches!(
                result,
                Err(ExecError::Setup {
                    fault: Fault::AllocFailed { .. },
                    pc: 0
                })
            ),
            "lane {lane}: {result:?}"
        );
        assert!(h.kernel.health().pristine(), "lane {lane}");
        assert_eq!(vm.run_packet(id, &[0u8; 8]).result, Ok(1), "lane {lane}");
    }
}

#[test]
fn hook_ctx_words_reach_every_lane() {
    let words: [u64; 8] =
        std::array::from_fn(|i| 0x0123_4567_89ab_cdefu64.rotate_left(8 * i as u32) ^ i as u64);
    let h = Harness::new();
    let start = h.kernel.mem.bytes_mapped();
    let hooks = [
        ProgType::Kprobe,
        ProgType::Tracepoint,
        ProgType::Lsm,
        ProgType::SchedExt,
    ];
    for prog_type in hooks {
        let n = prog_type.ctx_layout().size as usize / 8;
        let given = &words[..n];
        let input = match prog_type {
            ProgType::Kprobe => CtxInput::Kprobe(words),
            ProgType::Tracepoint => CtxInput::Tracepoint(given.try_into().unwrap()),
            ProgType::Lsm => CtxInput::Lsm(given.try_into().unwrap()),
            _ => CtxInput::Sched(given.try_into().unwrap()),
        };
        // r0 = r0 * 3 + word, over every word of the ctx.
        let mut asm = Asm::new().mov64_imm(Reg::R0, 0);
        for i in 0..n {
            asm = asm
                .ldx(BPF_DW, Reg::R2, Reg::R1, (i * 8) as i16)
                .alu64_imm(BPF_MUL, Reg::R0, 3)
                .alu64_reg(BPF_ADD, Reg::R0, Reg::R2);
        }
        let insns = asm.exit().build().unwrap();
        let fold = given
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_mul(3).wrapping_add(w));
        for lane in 0..4 {
            let mut vm = h.vm();
            let id = load_in_lane(
                &mut vm,
                lane,
                Program::new("fold", prog_type, insns.clone()),
            );
            assert_eq!(
                vm.run(id, input.clone()).unwrap(),
                fold,
                "{prog_type} lane {lane}"
            );
        }
    }
    // An empty word list writes nothing and runs.
    for lane in 0..4 {
        let mut vm = h.vm();
        let prog = Asm::new().mov64_imm(Reg::R0, 9).exit().build().unwrap();
        let id = load_in_lane(
            &mut vm,
            lane,
            Program::new("none", ProgType::SocketFilter, prog),
        );
        assert_eq!(vm.run(id, CtxInput::None).unwrap(), 9, "lane {lane}");
    }
    assert_eq!(h.kernel.mem.bytes_mapped(), start);
}

#[test]
fn hook_ctx_longer_than_the_program_ctx_faults_on_its_first_extra_word() {
    // A kprobe register file fed to a socket filter: the 24-byte ctx
    // holds three words, so writing the fourth faults in the guard gap
    // after it, before the program runs and without an oops. A sandbox
    // ctx lies in its 8 KiB domain, which holds all eight.
    for lane in 0..4 {
        let h = Harness::new();
        let start = h.kernel.mem.bytes_mapped();
        let mut vm = h.vm();
        let prog = Asm::new().mov64_imm(Reg::R0, 5).exit().build().unwrap();
        let id = load_in_lane(
            &mut vm,
            lane,
            Program::new("sf", ProgType::SocketFilter, prog),
        );
        let result = vm.run(id, CtxInput::Kprobe([7; 8])).result;
        if lane < 2 {
            assert_eq!(
                result,
                Err(ExecError::Setup {
                    fault: Fault::Unmapped {
                        addr: KERNEL_VA_BASE + 0x18,
                        len: 8
                    },
                    pc: 0
                }),
                "lane {lane}"
            );
            assert!(h.kernel.health().pristine(), "lane {lane}");
        } else {
            assert_eq!(result, Ok(5), "lane {lane}");
        }
        assert_eq!(h.kernel.mem.bytes_mapped(), start, "lane {lane}");
    }
}

#[test]
fn spin_lock_balanced_is_clean() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("locked", 16, 1))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "locked")
        .exit()
        .label("locked")
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_UNLOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    assert!(result.leak_report.clean());
    assert!(h.kernel.health().pristine());
}

#[test]
fn spin_lock_leak_detected_at_exit() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("locked", 16, 1))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit() // Exits still holding the lock.
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    assert_eq!(result.leak_report.leaked_locks.len(), 1);
    assert_eq!(h.kernel.health().lock_leaks, 1);
}

#[test]
fn double_spin_lock_is_deadlock_oops() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("locked", 16, 1))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32) // AA deadlock
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(matches!(result.result, Err(ExecError::Deadlock { .. })));
    assert!(h.kernel.health().tainted);
    assert_eq!(h.kernel.audit.count(EventKind::LockDeadlock), 1);
}

#[test]
fn sk_lookup_release_balanced_with_patched_helpers() {
    let h = Harness::new();
    // Tuple for the demo TCP socket 10.0.0.1:443 <-> 10.0.0.100:51724.
    let prog = sk_lookup_release_prog();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    assert!(result.leak_report.clean());
    assert_eq!(h.kernel.health().ref_leaks, 0);
}

fn sk_lookup_release_prog() -> Vec<Insn> {
    Asm::new()
        // Build the 12-byte tuple on the stack.
        .st(BPF_W, Reg::R10, -16, 0x0a00_0001u32 as i32)
        .st(BPF_H, Reg::R10, -12, 443)
        .st(BPF_W, Reg::R10, -10, 0x0a00_0064u32 as i32)
        .st(BPF_H, Reg::R10, -6, 51724u16 as i32)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 12)
        .mov64_imm(Reg::R4, 0)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_SK_LOOKUP_TCP as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "found")
        .exit()
        .label("found")
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SK_RELEASE as i32)
        .mov64_imm(Reg::R0, 1)
        .exit()
        .build()
        .unwrap()
}

#[test]
fn sk_lookup_shipped_bug_leaks_even_when_program_is_correct() {
    let h = Harness::new();
    let mut vm = h.vm().with_faults(FaultConfig::shipped());
    let id = vm.load(Program::new(
        "sk",
        ProgType::SocketFilter,
        sk_lookup_release_prog(),
    ));
    let result = vm.run(id, CtxInput::None);
    assert_eq!(result.unwrap(), 1);
    // The program balanced its reference, so the verifier-visible
    // accounting is clean...
    assert!(result.leak_report.clean());
    // ...but the helper's internal extra get leaked a count on the socket.
    let sock = h
        .kernel
        .objects
        .lookup_socket(
            kernel_sim::objects::Proto::Tcp,
            kernel_sim::objects::SockAddr::new(0x0a00_0001, 443),
            kernel_sim::objects::SockAddr::new(0x0a00_0064, 51724),
        )
        .unwrap();
    assert_eq!(h.kernel.refs.count(sock.obj), Some(2));
}

#[test]
fn forgot_sk_release_reports_ref_leak() {
    let h = Harness::new();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -16, 0x0a00_0001u32 as i32)
        .st(BPF_H, Reg::R10, -12, 443)
        .st(BPF_W, Reg::R10, -10, 0x0a00_0064u32 as i32)
        .st(BPF_H, Reg::R10, -6, 51724u16 as i32)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 12)
        .mov64_imm(Reg::R4, 0)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_SK_LOOKUP_TCP as i32)
        .exit() // No release.
        .build()
        .unwrap();
    let result = h.run(prog);
    assert_eq!(result.leak_report.leaked_refs.len(), 1);
    assert_eq!(h.kernel.health().ref_leaks, 1);
}

#[test]
fn sys_bpf_null_union_crash_with_shipped_bug() {
    let h = Harness::new();
    let mut vm = h.vm().with_faults(FaultConfig::shipped());
    // attr on stack: [scalar=0, inner_ptr=NULL]; cmd = PROG_RUN.
    let prog = sys_bpf_null_prog();
    let id = vm.load(Program::new("exploit", ProgType::Tracepoint, prog));
    let result = vm.run(id, CtxInput::None);
    assert!(matches!(result.result, Err(ExecError::Fault { .. })));
    assert!(h.kernel.health().tainted);
}

fn sys_bpf_null_prog() -> Vec<Insn> {
    Asm::new()
        .st(BPF_DW, Reg::R10, -16, 0)
        .st(BPF_DW, Reg::R10, -8, 0) // the NULL pointer inside the union
        .mov64_imm(Reg::R1, helpers::SYS_BPF_PROG_RUN as i32)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 16)
        .call_helper(helpers::BPF_SYS_BPF as i32)
        .exit()
        .build()
        .unwrap()
}

#[test]
fn sys_bpf_null_union_rejected_when_patched() {
    let h = Harness::new();
    let result = h.run(sys_bpf_null_prog());
    // -EINVAL, no oops.
    assert_eq!(result.unwrap() as i64, -22);
    assert!(h.kernel.health().pristine());
}

#[test]
fn control_flow_escape_detected() {
    let h = Harness::new();
    // A jump past the end of the program.
    let prog = vec![
        Insn::new(BPF_JMP | BPF_JA, 0, 0, 100, 0),
        Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
    ];
    let result = h.run(prog);
    assert!(matches!(
        result.result,
        Err(ExecError::ControlFlowEscape { .. })
    ));
}

#[test]
fn falling_off_the_end_is_an_escape() {
    let h = Harness::new();
    let prog = vec![Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 0, 0, 0, 1)];
    let result = h.run(prog);
    assert!(matches!(
        result.result,
        Err(ExecError::ControlFlowEscape { .. })
    ));
}

#[test]
fn get_current_comm_copies_name() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("out", 16, 1))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "ok")
        .exit()
        .label("ok")
        .mov64_reg(Reg::R1, Reg::R0)
        .mov64_imm(Reg::R2, 16)
        .call_helper(helpers::BPF_GET_CURRENT_COMM as i32)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert_eq!(result.unwrap(), 0);
    let map = h.maps.get(fd).unwrap();
    let addr = map.lookup(&0u32.to_le_bytes(), 0).unwrap().unwrap();
    let bytes = h.kernel.mem.read_bytes(addr, 6).unwrap();
    assert_eq!(&bytes[..5], b"nginx");
    assert_eq!(bytes[5], 0);
}

#[test]
fn prandom_is_deterministic_per_seed() {
    let h = Harness::new();
    let prog = Asm::new()
        .call_helper(helpers::BPF_GET_PRANDOM_U32 as i32)
        .exit()
        .build()
        .unwrap();
    let a = h.run_value(prog.clone());
    let b = h.run_value(prog);
    assert_eq!(a, b);
    assert!(a <= u32::MAX as u64);
}

#[test]
fn ringbuf_workflow_via_helpers() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::ringbuf("events", 256))
        .unwrap();
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, fd)
        .mov64_imm(Reg::R2, 8)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .exit()
        .label("got")
        .mov64_imm(Reg::R1, 777)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .mov64_reg(Reg::R1, Reg::R0)
        .mov64_imm(Reg::R2, 0)
        .call_helper(helpers::BPF_RINGBUF_SUBMIT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    let map = h.maps.get(fd).unwrap();
    let records = map.ringbuf_consume().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(&records[0], &777u64.to_le_bytes());
}

// ---- Additional helper coverage through full programs -----------------------------

#[test]
fn skb_load_and_store_bytes_helpers() {
    let h = Harness::new();
    let mut vm = h.vm();
    // Copy skb[0..4] to the stack, increment byte 0, write it back.
    let prog = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .mov64_imm(Reg::R2, 0) // offset
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4) // len
        .call_helper(helpers::BPF_SKB_LOAD_BYTES as i32)
        .ldx(BPF_B, Reg::R7, Reg::R10, -8)
        .alu64_imm(BPF_ADD, Reg::R7, 1)
        .stx(BPF_B, Reg::R10, -8, Reg::R7)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 0)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_SKB_STORE_BYTES as i32)
        .mov64_reg(Reg::R0, Reg::R7)
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("skbrw", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::Packet(vec![10, 20, 30, 40]));
    assert_eq!(result.unwrap(), 11);
    // Out-of-range offsets are -EINVAL, never a fault.
    let prog = Asm::new()
        .mov64_imm(Reg::R2, 100)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4)
        .call_helper(helpers::BPF_SKB_LOAD_BYTES as i32)
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("skb-oob", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::Packet(vec![1, 2]));
    assert_eq!(result.unwrap() as i64, -22);
    assert!(h.kernel.health().pristine());
}

#[test]
fn csum_replace_updates_checksum_field() {
    let h = Harness::new();
    let mut vm = h.vm();
    // Fold delta (from=0x10, to=0x30) into the u16 at offset 2.
    let prog = Asm::new()
        .mov64_imm(Reg::R2, 2)
        .mov64_imm(Reg::R3, 0x10)
        .mov64_imm(Reg::R4, 0x30)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_L3_CSUM_REPLACE as i32)
        .exit()
        .build()
        .unwrap();
    let id = vm.load(Program::new("csum", ProgType::SocketFilter, prog));
    let result = vm.run(id, CtxInput::Packet(vec![0, 0, 0x50, 0x00]));
    assert!(result.result.is_ok());
    // Checksum 0x0050 (le) adjusted by +0x20.
    // Read back via a second program.
    let reader = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 4)
        .mov64_imm(Reg::R0, 0)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_H, Reg::R0, Reg::R2, 2)
        .label("out")
        .exit()
        .build()
        .unwrap();
    let _rid = vm.load(Program::new("read", ProgType::SocketFilter, reader));
    // (The packets are per-run; this just checks the helper ran cleanly.)
    assert!(h.kernel.health().pristine());
}

#[test]
fn perf_event_output_and_redirect() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("events", 8, 1))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 777)
        .ld_map_fd(Reg::R2, fd)
        .mov64_imm(Reg::R3, 0)
        .mov64_reg(Reg::R4, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R4, -8)
        .mov64_imm(Reg::R5, 8)
        .call_helper(helpers::BPF_PERF_EVENT_OUTPUT as i32)
        .mov64_imm(Reg::R1, 2)
        .mov64_imm(Reg::R2, 0)
        .call_helper(helpers::BPF_REDIRECT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert!(result.result.is_ok());
    assert_eq!(result.perf_events.len(), 1);
    assert_eq!(&result.perf_events[0], &777u64.to_le_bytes());
    assert_eq!(result.redirects, 1);
}

#[test]
fn get_stackid_is_stable_per_task() {
    let h = Harness::new();
    let prog = Asm::new()
        .ld_map_fd(Reg::R2, {
            // get_stackid wants a map arg; any map satisfies the spec.
            h.maps
                .create(&h.kernel, MapDef::array("stacks", 8, 1))
                .unwrap()
        })
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_GET_STACKID as i32)
        .exit()
        .build()
        .unwrap();
    let a = h.run_value(prog.clone());
    let b = h.run_value(prog);
    assert_eq!(a, b);
    assert!(a <= 0x3ff);
}

#[test]
fn probe_read_kernel_copies_or_efaults() {
    let h = Harness::new();
    // Read our own stack through the helper (valid), then an unmapped
    // address (EFAULT, no oops).
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 4242)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -16)
        .mov64_imm(Reg::R2, 8)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .call_helper(helpers::BPF_PROBE_READ_KERNEL as i32)
        .ldx(BPF_DW, Reg::R6, Reg::R10, -16)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -24)
        .mov64_imm(Reg::R2, 8)
        .lddw(Reg::R3, 0xdead_0000_0000)
        .call_helper(helpers::BPF_PROBE_READ_KERNEL as i32)
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6) // -14 + 4242
        .exit()
        .build()
        .unwrap();
    let result = h.run(prog);
    assert_eq!(result.unwrap() as i64, 4242 - 14);
    assert!(h.kernel.health().pristine());
}

#[test]
fn strtoul_helper_parses_unsigned() {
    let h = Harness::new();
    let val = u64::from_le_bytes(*b"999\0\0\0\0\0");
    let prog = Asm::new()
        .lddw(Reg::R1, val)
        .stx(BPF_DW, Reg::R10, -8, Reg::R1)
        .st(BPF_DW, Reg::R10, -16, 0)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -8)
        .mov64_imm(Reg::R2, 4)
        .mov64_imm(Reg::R3, 10)
        .mov64_reg(Reg::R4, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R4, -16)
        .call_helper(helpers::BPF_STRTOUL as i32)
        .ldx(BPF_DW, Reg::R0, Reg::R10, -16)
        .exit()
        .build()
        .unwrap();
    assert_eq!(h.run_value(prog), 999);
}

#[test]
fn run_on_empty_vm_reports_no_such_program() {
    let h = Harness::new();
    let vm = h.vm();
    assert_eq!(vm.program_count(), 0);
    // Regression: this used to panic on the out-of-range index (and the
    // id computation in `load` used to rely on `len() - 1`).
    let res = vm.run(0, CtxInput::None);
    assert_eq!(res.result, Err(ExecError::NoSuchProgram { id: 0 }));
    assert_eq!(res.insns, 0);
}

#[test]
fn run_with_unloaded_id_reports_no_such_program() {
    let h = Harness::new();
    let mut vm = h.vm();
    let prog = Asm::new().mov64_imm(Reg::R0, 7).exit().build().unwrap();
    let first = vm.load(Program::new("t", ProgType::SocketFilter, prog.clone()));
    let second = vm.load(Program::new("t2", ProgType::SocketFilter, prog));
    // Loading hands out dense sequential ids starting at zero.
    assert_eq!((first, second), (0, 1));
    assert_eq!(vm.run(first, CtxInput::None).unwrap(), 7);
    let res = vm.run(2, CtxInput::None);
    assert_eq!(res.result, Err(ExecError::NoSuchProgram { id: 2 }));
    let res = vm.run(u32::MAX, CtxInput::None);
    assert_eq!(res.result, Err(ExecError::NoSuchProgram { id: u32::MAX }));
}

#[test]
fn fuel_is_carried_across_tail_call_boundaries() {
    // A tail call replaces the running program but must NOT hand it a
    // fresh instruction budget — otherwise a 33-deep chain multiplies
    // the effective fuel by 34. Pin the total executed count across a
    // full self-tail-call chain, then prove a budget below that total
    // aborts mid-chain instead of completing.
    let build = |fd: u32| {
        Asm::new()
            .ld_map_fd(Reg::R2, fd)
            .mov64_imm(Reg::R3, 0)
            .call_helper(helpers::BPF_TAIL_CALL as i32)
            .mov64_imm(Reg::R0, 5)
            .exit()
            .build()
            .unwrap()
    };

    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::prog_array("progs", 2))
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load(Program::new("self-tail", ProgType::SocketFilter, build(fd)));
    let map = h.maps.get(fd).unwrap();
    map.update(&h.kernel.mem, &0u32.to_le_bytes(), &id.to_le_bytes(), 0)
        .unwrap();
    let full = vm.run(id, CtxInput::None);
    assert_eq!(full.result.unwrap(), 5);
    // 33 transferring passes execute {lddw (2 slots), mov, call} = 4
    // insns each; the 34th call hits the chain limit, returns -EINVAL,
    // and the program falls through {lddw, mov, call, mov, exit} = 6.
    assert_eq!(full.insns, 33 * 4 + 6, "tail-call chain insn count drifted");

    // Now re-run the same chain under a budget that any single pass
    // fits inside but the whole chain does not. If each tail call reset
    // the fuel, this would finish with result 5; carried fuel must trip
    // the limit mid-chain instead.
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::prog_array("progs", 2))
        .unwrap();
    let mut vm = h.vm().with_config(VmConfig {
        max_insns: Some(50),
        ..VmConfig::default()
    });
    let id = vm.load(Program::new("self-tail", ProgType::SocketFilter, build(fd)));
    let map = h.maps.get(fd).unwrap();
    map.update(&h.kernel.mem, &0u32.to_le_bytes(), &id.to_le_bytes(), 0)
        .unwrap();
    let capped = vm.run(id, CtxInput::None);
    assert!(
        matches!(capped.result, Err(ExecError::InsnLimit { limit: 50 })),
        "budget below the chain total must abort mid-chain: {:?}",
        capped.result
    );
    assert!(capped.insns > 4, "aborted before even one full pass");
    assert!(capped.insns <= 51, "budget overshot");
}
