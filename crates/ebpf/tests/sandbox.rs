//! Behavioural tests of the sandbox lane: unverified programs in SFI
//! protection domains — masked access checks, trap-not-oops semantics,
//! window grants, domain-switch cost accounting, and interp/JIT parity.

use ebpf::asm::Asm;
use ebpf::helpers::{self, HelperRegistry};
use ebpf::insn::*;
use ebpf::interp::{CtxInput, ExecError, SandboxConfig, Vm};
use ebpf::jit::JitConfig;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::audit::EventKind;
use kernel_sim::{FaultPlan, FaultPlanConfig, FaultSite, Kernel};

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
}

/// counters[1] += 1 via lookup + direct pointer write; uses the stack,
/// a helper, and the returned map-value window. Well-behaved.
fn counter_prog(fd: u32) -> Vec<Insn> {
    Asm::new()
        .st(BPF_W, Reg::R10, -4, 1)
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
        .unwrap()
}

fn wild_deref_prog() -> Vec<Insn> {
    Asm::new()
        .lddw(Reg::R1, 0xdead_beef_0000)
        .ldx(BPF_DW, Reg::R0, Reg::R1, 0)
        .exit()
        .build()
        .unwrap()
}

#[test]
fn sandboxed_counter_program_matches_verified_lane() {
    // Verified lane result for reference.
    let verified = {
        let h = Harness::new();
        let fd = h
            .maps
            .create(&h.kernel, MapDef::array("counters", 8, 4))
            .unwrap();
        let mut vm = h.vm();
        let id = vm.load(Program::new("count", ProgType::Kprobe, counter_prog(fd)));
        vm.run(id, CtxInput::None).unwrap()
    };

    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("counters", 8, 4))
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("count", ProgType::Kprobe, counter_prog(fd)),
        SandboxConfig::default(),
    );
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), verified);
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), verified + 1);
    assert!(h.kernel.health().pristine());

    // Every crossing balances at rest: one entry/exit pair per run plus
    // one exit/entry pair per (real) helper call.
    let m = h.kernel.metrics.snapshot();
    assert_eq!(m.domain_entries, m.domain_exits);
    assert_eq!(m.domain_entries, 2 + 2);
    assert_eq!(m.domain_traps, 0);
}

#[test]
fn wild_deref_traps_without_an_oops() {
    let h = Harness::new();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("wild", ProgType::SocketFilter, wild_deref_prog()),
        SandboxConfig::default(),
    );
    let result = vm.run(id, CtxInput::None);
    assert!(
        matches!(result.result, Err(ExecError::DomainTrap { pc: 2, .. })),
        "expected a domain trap, got {:?}",
        result.result
    );
    // The defining divergence from the verified lane: the kernel did NOT
    // oops — the violating access never reached memory.
    assert!(h.kernel.health().pristine());
    assert_eq!(h.kernel.audit.count(EventKind::DomainTrap), 1);
    assert_eq!(h.kernel.audit.count(EventKind::Oops), 0);
    let m = h.kernel.metrics.snapshot();
    assert_eq!(m.domain_traps, 1);
    // The unwound run still pays its exit crossing.
    assert_eq!(m.domain_entries, m.domain_exits);
}

#[test]
fn verified_lane_oopses_where_sandbox_traps() {
    let h = Harness::new();
    let mut vm = h.vm();
    let id = vm.load(Program::new(
        "wild",
        ProgType::SocketFilter,
        wild_deref_prog(),
    ));
    let result = vm.run(id, CtxInput::None);
    assert!(matches!(result.result, Err(ExecError::Fault { .. })));
    assert!(!h.kernel.health().pristine());
}

#[test]
fn sandbox_interp_and_jit_are_observationally_identical() {
    let run = |jit: bool| {
        let h = Harness::new();
        let fd = h
            .maps
            .create(&h.kernel, MapDef::array("counters", 8, 4))
            .unwrap();
        let mut vm = h.vm();
        let prog = Program::new("count", ProgType::Kprobe, counter_prog(fd));
        let id = if jit {
            vm.load_sandboxed_jit(prog, SandboxConfig::default(), JitConfig::default())
                .unwrap()
                .0
        } else {
            vm.load_sandboxed(prog, SandboxConfig::default())
        };
        let r = vm.run(id, CtxInput::None);
        (
            r.result.clone(),
            r.insns,
            r.helper_calls,
            h.kernel.clock.now_ns(),
            h.kernel.audit.fingerprint(),
            h.kernel.metrics.snapshot(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn sandbox_jit_trap_matches_interp_trap() {
    let run = |jit: bool| {
        let h = Harness::new();
        let mut vm = h.vm();
        let prog = Program::new("wild", ProgType::SocketFilter, wild_deref_prog());
        let id = if jit {
            vm.load_sandboxed_jit(prog, SandboxConfig::default(), JitConfig::default())
                .unwrap()
                .0
        } else {
            vm.load_sandboxed(prog, SandboxConfig::default())
        };
        let r = vm.run(id, CtxInput::None);
        (
            r.result.clone(),
            r.insns,
            h.kernel.clock.now_ns(),
            h.kernel.audit.fingerprint(),
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn packet_payload_is_a_granted_window() {
    let h = Harness::new();
    // r0 = payload[0] via the ctx data pointer — a direct packet access
    // through a granted kernel window.
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 0) // data
        .ldx(BPF_B, Reg::R0, Reg::R2, 0)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("pkt", ProgType::SocketFilter, prog),
        SandboxConfig::default(),
    );
    let r = vm.run(id, CtxInput::Packet(vec![0xab, 1, 2, 3]));
    assert_eq!(r.unwrap(), 0xab);
    assert!(h.kernel.health().pristine());
}

#[test]
fn access_past_the_payload_window_traps() {
    let h = Harness::new();
    // Read one byte past data_end: outside the granted window.
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 8) // data_end
        .ldx(BPF_B, Reg::R0, Reg::R2, 0)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("pkt-over", ProgType::SocketFilter, prog),
        SandboxConfig::default(),
    );
    let r = vm.run(id, CtxInput::Packet(vec![1, 2, 3, 4]));
    assert!(matches!(r.result, Err(ExecError::DomainTrap { .. })));
    assert!(h.kernel.health().pristine());
}

#[test]
fn stack_frames_are_zeroed_between_calls() {
    let h = Harness::new();
    // main: call f (dirties its frame), call g (reads the same slot).
    let prog = Asm::new()
        .call_fn("f")
        .call_fn("g")
        .exit()
        .label("f")
        .st(BPF_DW, Reg::R10, -8, 0x55)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("g")
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("frames", ProgType::SocketFilter, prog),
        SandboxConfig::default(),
    );
    // g's bump-recycled frame must read as zero, like a fresh kernel frame.
    assert_eq!(vm.run(id, CtxInput::None).unwrap(), 0);
}

#[test]
fn reading_beyond_the_live_frame_traps() {
    let h = Harness::new();
    // r10 + 8 is inside the domain but above the bump allocator's high
    // water mark — covered by no live inner window.
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R10, 8)
        .exit()
        .build()
        .unwrap();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("under", ProgType::SocketFilter, prog),
        SandboxConfig::default(),
    );
    let r = vm.run(id, CtxInput::None);
    assert!(matches!(r.result, Err(ExecError::DomainTrap { pc: 0, .. })));
    assert!(h.kernel.health().pristine());
}

#[test]
fn domain_switch_costs_are_charged() {
    let elapsed = |sandbox: Option<SandboxConfig>| {
        let h = Harness::new();
        let prog = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
        let mut vm = h.vm();
        let program = Program::new("t", ProgType::SocketFilter, prog);
        let id = match sandbox {
            Some(sb) => vm.load_sandboxed(program, sb),
            None => vm.load(program),
        };
        let before = h.kernel.clock.now_ns();
        vm.run(id, CtxInput::None).unwrap();
        h.kernel.clock.now_ns() - before
    };
    let base = elapsed(None);
    let costs = kernel_sim::DomainCosts::default();
    assert_eq!(
        elapsed(Some(SandboxConfig::default())),
        base + costs.entry_ns + costs.exit_ns
    );
    // A free-crossing sandbox run costs exactly the verified lane.
    assert_eq!(
        elapsed(Some(SandboxConfig {
            costs: kernel_sim::DomainCosts::free(),
            ..SandboxConfig::default()
        })),
        base
    );
}

#[test]
fn helper_calls_pay_a_round_trip() {
    let elapsed = |sandbox: bool| {
        let h = Harness::new();
        let prog = Asm::new()
            .call_helper(helpers::BPF_KTIME_GET_NS as i32)
            .exit()
            .build()
            .unwrap();
        let mut vm = h.vm();
        let program = Program::new("t", ProgType::SocketFilter, prog);
        let id = if sandbox {
            vm.load_sandboxed(program, SandboxConfig::default())
        } else {
            vm.load(program)
        };
        let before = h.kernel.clock.now_ns();
        vm.run(id, CtxInput::None).unwrap();
        h.kernel.clock.now_ns() - before
    };
    let costs = kernel_sim::DomainCosts::default();
    // Run entry/exit plus one helper exit/entry round trip.
    assert_eq!(
        elapsed(true),
        elapsed(false) + 2 * (costs.entry_ns + costs.exit_ns)
    );
}

#[test]
fn tail_call_into_a_plain_program_stays_confined() {
    let h = Harness::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::prog_array("progs", 2))
        .unwrap();
    let mut vm = h.vm();
    // The target is loaded WITHOUT a sandbox; the run's domain still
    // confines it because the check rides on the run state.
    let target = vm.load(Program::new(
        "wild",
        ProgType::SocketFilter,
        wild_deref_prog(),
    ));
    let entry = Asm::new()
        .ld_map_fd(Reg::R2, fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 5)
        .exit()
        .build()
        .unwrap();
    let id = vm.load_sandboxed(
        Program::new("entry", ProgType::SocketFilter, entry),
        SandboxConfig::default(),
    );
    let map = h.maps.get(fd).unwrap();
    map.update(&h.kernel.mem, &0u32.to_le_bytes(), &target.to_le_bytes(), 0)
        .unwrap();
    let r = vm.run(id, CtxInput::None);
    assert!(matches!(r.result, Err(ExecError::DomainTrap { .. })));
    assert!(h.kernel.health().pristine());
    let m = h.kernel.metrics.snapshot();
    assert_eq!(m.domain_entries, m.domain_exits);
}

#[test]
fn tagged_sock_pointer_deref_traps_like_the_verified_lane_faults() {
    // sk_lookup_tcp returns a *tagged* pointer; dereferencing it is a
    // fault in the verified lane and must be a trap (same outcome class:
    // aborted run) in the sandbox lane — not a silent success.
    // Packed 12-byte tuple matching the demo env's TCP socket
    // (10.0.0.1:443 -> 10.0.0.100:51724), written as two aligned u64s.
    let prog = || {
        Asm::new()
            .lddw(Reg::R6, 0x0064_01bb_0a00_0001)
            .stx(BPF_DW, Reg::R10, -16, Reg::R6)
            .lddw(Reg::R6, 0x0000_0000_ca0c_0a00)
            .stx(BPF_DW, Reg::R10, -8, Reg::R6)
            .mov64_reg(Reg::R2, Reg::R10)
            .alu64_imm(BPF_ADD, Reg::R2, -16)
            .mov64_imm(Reg::R3, 16)
            .call_helper(helpers::BPF_SK_LOOKUP_TCP as i32)
            .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
            .exit()
            .label("got")
            .ldx(BPF_DW, Reg::R0, Reg::R0, 0) // deref the tagged pointer
            .exit()
            .build()
            .unwrap()
    };
    let h = Harness::new();
    let mut vm = h.vm();
    let id = vm.load_sandboxed(
        Program::new("sk", ProgType::SocketFilter, prog()),
        SandboxConfig::default(),
    );
    let sandbox = vm.run(id, CtxInput::None);

    let h2 = Harness::new();
    let mut vm2 = h2.vm();
    let id2 = vm2.load(Program::new("sk", ProgType::SocketFilter, prog()));
    let verified = vm2.run(id2, CtxInput::None);

    assert!(
        matches!(sandbox.result, Err(ExecError::DomainTrap { .. })),
        "sandbox lane: {:?}",
        sandbox.result
    );
    assert!(
        matches!(verified.result, Err(ExecError::Fault { .. })),
        "verified lane: {:?}",
        verified.result
    );
    // Both lanes leak the acquired sock ref (the run aborted before it
    // could be released) — the divergence is the oops, not the leak.
    assert_eq!(h.kernel.audit.count(EventKind::Oops), 0);
    assert_eq!(h.kernel.audit.count(EventKind::DomainTrap), 1);
    assert!(h2.kernel.health().oopses >= 1);
}

#[test]
fn failed_skb_allocation_leaves_nothing_mapped() {
    // A packet run maps its ctx — the whole protection domain when
    // sandboxed, charged to the account domain — before it allocates the
    // skb. When that allocation fails, the run must unmap what it has
    // already mapped, in every bytecode form.
    const DOMAIN: u32 = 7;
    fn accounted() -> SandboxConfig {
        SandboxConfig {
            account_domain: DOMAIN,
            ..SandboxConfig::default()
        }
    }
    type Load = fn(&mut Vm<'_>, Program) -> u32;
    let forms: [(&str, Load); 4] = [
        ("interp", |vm, p| vm.load(p)),
        ("jit", |vm, p| {
            vm.load_jit(p, JitConfig::default()).unwrap().0
        }),
        ("sandbox", |vm, p| vm.load_sandboxed(p, accounted())),
        ("sandbox-jit", |vm, p| {
            vm.load_sandboxed_jit(p, accounted(), JitConfig::default())
                .unwrap()
                .0
        }),
    ];
    let prog = Asm::new()
        .ldx(BPF_W, Reg::R0, Reg::R1, 16) // len
        .exit()
        .build()
        .unwrap();
    for (form, load) in forms {
        let h = Harness::new();
        let mut vm = h.vm();
        let id = load(&mut vm, Program::new("len", ProgType::Xdp, prog.clone()));
        let mapped = || {
            (
                h.kernel.mem.bytes_mapped(),
                h.kernel.mem.domain_bytes(DOMAIN),
            )
        };
        let before = mapped();
        let plane = h.kernel.arm_fault_plan(FaultPlan::with_config(
            3,
            FaultPlanConfig {
                alloc_fail_rate: 0.3,
                ..FaultPlanConfig::quiet()
            },
        ));
        let failed = (0..100)
            .filter(|_| vm.run_packet(id, &[0xab; 60]).result.is_err())
            .count();
        h.kernel.disarm_faults();
        assert!(failed > 0, "{form}: no run met an allocation failure");
        assert_eq!(failed as u64, plane.injected(FaultSite::Alloc), "{form}");
        assert_eq!(mapped(), before, "{form}: failed runs left bytes mapped");
    }
}
