//! Differential tests for the net path: every new net helper
//! (`xdp_load_bytes`, `xdp_store_bytes`, `ct_lookup`, `ct_observe`) and
//! both net scenarios must behave identically through the interpreter,
//! the JIT pipeline, the safe-ext runtime, and the unverified SFI
//! sandbox lane.
//!
//! The equality bars differ by what each pair shares. Interpreter vs JIT
//! *within a dialect* share the virtual-clock cost model, so their
//! *entire audit streams* must fingerprint identically — this holds for
//! the verified lane and for the sandbox lane separately. Across
//! dialects the cost models differ (safe-ext charges fuel, the sandbox
//! pays domain crossings), so audit timestamps legitimately diverge;
//! the cross-dialect contract is the timestamp-free one — identical
//! verdicts, identical conntrack flow logs, identical conntrack stats.

use bench::engine::Shard;
use bench::netflows::NetScenario;
use bench::Lane;
use ebpf::asm::Asm;
use ebpf::helpers::{
    HelperRegistry, BPF_CT_LOOKUP, BPF_CT_OBSERVE, BPF_XDP_LOAD_BYTES, BPF_XDP_STORE_BYTES,
};
use ebpf::insn::*;
use ebpf::interp::{CtxInput, SandboxConfig, Vm};
use ebpf::jit::{jit_compile, JitConfig};
use ebpf::maps::MapRegistry;
use ebpf::program::{ProgType, Program};
use kernel_sim::net::packet::{build_tcp_frame, FlowKey, IPPROTO_TCP, TCP_ACK, TCP_SYN};
use kernel_sim::net::traffic::{generate, TrafficConfig};
use kernel_sim::Kernel;
use safe_ext::{ExtError, ExtInput, Extension, Runtime};

fn key() -> FlowKey {
    FlowKey {
        src_ip: 0x0a00_0001,
        dst_ip: 0x0a01_0001,
        src_port: 40_000,
        dst_port: 443,
        proto: IPPROTO_TCP,
    }
}

/// What one execution pipeline produced for a frame sequence, with the
/// kernel-side artifacts the differential bars compare.
struct PathOutcome {
    verdicts: Vec<Option<u64>>,
    audit_fingerprint: String,
    flow_log: String,
    ct_stats: kernel_sim::net::conntrack::CtStats,
    pristine: bool,
}

/// Runs `frames` through `scenario` on `lane` on a fresh one-CPU shard.
/// With `translate`, the bytecode first goes through the JIT's validating
/// translation (`jit_compile`) and the result is loaded on `lane`.
fn run_lane(scenario: NetScenario, frames: &[Vec<u8>], lane: Lane, translate: bool) -> PathOutcome {
    let shard = Shard::boot(1, 0);
    let kernel = &shard.kernel;
    let fd = scenario.setup(kernel, &shard.maps);
    let prog = || {
        let prog = scenario.program(fd);
        if !translate {
            return prog;
        }
        jit_compile(&prog, JitConfig::default())
            .expect("net programs validate")
            .0
    };
    let run = lane.load(&shard, prog, || scenario.extension(fd), None);
    PathOutcome {
        verdicts: frames.iter().map(|bytes| run(bytes)).collect(),
        audit_fingerprint: kernel.audit.fingerprint(),
        flow_log: kernel.net.conntrack.flow_log_fingerprint(),
        ct_stats: kernel.net.conntrack.stats(),
        pristine: kernel.health().pristine(),
    }
}

fn traffic() -> Vec<Vec<u8>> {
    generate(&TrafficConfig::smoke(), 7)
        .into_iter()
        .map(|f| f.bytes)
        .collect()
}

/// Both scenarios, full smoke traffic: interpreting a net program and
/// interpreting its JIT translation must be indistinguishable down to
/// the complete audit fingerprint, and the safe-ext mirror must agree on
/// every verdict, the flow log, and the conntrack counters.
#[test]
fn scenarios_agree_across_all_three_backends() {
    let frames = traffic();
    for scenario in [NetScenario::SynFilter, NetScenario::LoadBalancer] {
        let interp = run_lane(scenario, &frames, Lane::Ebpf, false);
        let jit = run_lane(scenario, &frames, Lane::Ebpf, true);
        let compiled = run_lane(scenario, &frames, Lane::EbpfJit, false);
        let safe = run_lane(scenario, &frames, Lane::SafeExt, false);
        let sandbox = run_lane(scenario, &frames, Lane::Sandbox, false);
        let sandbox_jit = run_lane(scenario, &frames, Lane::SandboxJit, false);

        for other in [&jit, &compiled] {
            assert_eq!(
                interp.audit_fingerprint,
                other.audit_fingerprint,
                "{}: interp/JIT audit streams diverged",
                scenario.name()
            );
        }
        // The sandbox dialect has its own cost model (domain crossings),
        // but within the dialect interp vs JIT is byte-identical.
        assert_eq!(
            sandbox.audit_fingerprint,
            sandbox_jit.audit_fingerprint,
            "{}: sandbox interp/JIT audit streams diverged",
            scenario.name()
        );
        assert_eq!(interp.verdicts, jit.verdicts, "{}", scenario.name());
        assert_eq!(interp.verdicts, safe.verdicts, "{}", scenario.name());
        assert_eq!(interp.verdicts, sandbox.verdicts, "{}", scenario.name());
        assert_eq!(interp.flow_log, jit.flow_log, "{}", scenario.name());
        assert_eq!(interp.flow_log, safe.flow_log, "{}", scenario.name());
        assert_eq!(interp.flow_log, sandbox.flow_log, "{}", scenario.name());
        assert_eq!(interp.ct_stats, safe.ct_stats, "{}", scenario.name());
        assert_eq!(interp.ct_stats, sandbox.ct_stats, "{}", scenario.name());
        assert!(interp.pristine && jit.pristine && safe.pristine);
        assert!(sandbox.pristine && sandbox_jit.pristine);
    }
}

/// Runs one micro-program through interpreter and JIT on fresh kernels
/// and asserts indistinguishability including the audit fingerprint,
/// then repeats the pair in the sandbox dialect (unverified load, masked
/// accesses, domain crossings) and asserts the same internal bar plus
/// cross-dialect agreement on results, helper calls, and flow logs;
/// returns the shared result.
fn micro_differential(prog: Program, frame: &[u8]) -> (Option<u64>, String, String) {
    let run = |prog: Program, sandbox: bool| {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let helpers = HelperRegistry::standard();
        let mut vm = Vm::new(&kernel, &maps, &helpers);
        let id = if sandbox {
            vm.load_sandboxed(prog, SandboxConfig::default())
        } else {
            vm.load(prog)
        };
        let out = vm.run(id, CtxInput::Packet(frame.to_vec()));
        (
            out.result.ok(),
            out.helper_calls,
            kernel.audit.fingerprint(),
            kernel.net.conntrack.flow_log_fingerprint(),
        )
    };
    let (i_res, i_calls, i_audit, i_flow) = run(prog.clone(), false);
    let jitted = jit_compile(&prog, JitConfig::default())
        .expect("micro programs validate")
        .0;
    let (j_res, j_calls, j_audit, j_flow) = run(jitted.clone(), false);
    assert_eq!(i_res, j_res, "{}: results diverged", prog.name);
    assert_eq!(
        i_calls, j_calls,
        "{}: helper call counts diverged",
        prog.name
    );
    assert_eq!(
        i_audit, j_audit,
        "{}: audit fingerprints diverged",
        prog.name
    );
    assert_eq!(i_flow, j_flow, "{}: flow logs diverged", prog.name);

    let (sb_res, sb_calls, sb_audit, sb_flow) = run(prog.clone(), true);
    let (sj_res, _, sj_audit, _) = run(jitted, true);
    assert_eq!(i_res, sb_res, "{}: sandbox result diverged", prog.name);
    assert_eq!(
        i_calls, sb_calls,
        "{}: sandbox helper call counts diverged",
        prog.name
    );
    assert_eq!(i_flow, sb_flow, "{}: sandbox flow log diverged", prog.name);
    assert_eq!(sb_res, sj_res, "{}: sandbox interp/JIT diverged", prog.name);
    assert_eq!(
        sb_audit, sj_audit,
        "{}: sandbox interp/JIT audit fingerprints diverged",
        prog.name
    );

    (i_res, i_audit, i_flow)
}

/// `xdp_load_bytes(ctx, off, stack, 4)`; returns the loaded LE u32, or
/// the helper's error code when out of bounds.
fn load_bytes_prog(off: i32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .mov64_imm(Reg::R2, off)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -16)
        .mov64_imm(Reg::R4, 4)
        .call_helper(BPF_XDP_LOAD_BYTES as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "ok")
        .exit()
        .label("ok")
        .ldx(BPF_W, Reg::R0, Reg::R10, -16)
        .exit()
        .build()
        .unwrap();
    Program::new("micro-load-bytes", ProgType::Xdp, insns)
}

/// `xdp_store_bytes(ctx, off, stack, 4)` then loads the frame bytes back
/// and returns them, so a silent store diverges too.
fn store_bytes_prog(off: i32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .st(BPF_W, Reg::R10, -16, 0x61626364)
        .mov64_imm(Reg::R2, off)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -16)
        .mov64_imm(Reg::R4, 4)
        .call_helper(BPF_XDP_STORE_BYTES as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "ok")
        .exit()
        .label("ok")
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, off)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4)
        .call_helper(BPF_XDP_LOAD_BYTES as i32)
        .ldx(BPF_W, Reg::R0, Reg::R10, -8)
        .exit()
        .build()
        .unwrap();
    Program::new("micro-store-bytes", ProgType::Xdp, insns)
}

/// Builds the 13-byte conntrack tuple from the frame (12 wire bytes at
/// offset 26, protocol byte at offset 23) at `r10-16`, then jumps to the
/// instructions `tail` appends.
fn ct_tuple_prog(name: &str, tail: impl FnOnce(Asm) -> Asm) -> Program {
    let asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .mov64_imm(Reg::R2, 26)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -16)
        .mov64_imm(Reg::R4, 12)
        .call_helper(BPF_XDP_LOAD_BYTES as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "tuple")
        .exit()
        .label("tuple")
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 23)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -20)
        .mov64_imm(Reg::R4, 1)
        .call_helper(BPF_XDP_LOAD_BYTES as i32)
        .ldx(BPF_B, Reg::R5, Reg::R10, -20)
        .stx(BPF_B, Reg::R10, -4, Reg::R5);
    let insns = tail(asm).build().unwrap();
    Program::new(name, ProgType::Xdp, insns)
}

/// `ct_lookup(tuple)`: returns the state code, or `-ENOENT` on a miss.
fn ct_lookup_prog() -> Program {
    ct_tuple_prog("micro-ct-lookup", |asm| {
        asm.mov64_reg(Reg::R1, Reg::R10)
            .alu64_imm(BPF_ADD, Reg::R1, -16)
            .mov64_imm(Reg::R2, 13)
            .call_helper(BPF_CT_LOOKUP as i32)
            .exit()
    })
}

/// `ct_observe(tuple, flags, len)`: returns the packed transition.
fn ct_observe_prog() -> Program {
    ct_tuple_prog("micro-ct-observe", |asm| {
        asm.mov64_reg(Reg::R1, Reg::R6)
            .mov64_imm(Reg::R2, 47)
            .mov64_reg(Reg::R3, Reg::R10)
            .alu64_imm(BPF_ADD, Reg::R3, -24)
            .mov64_imm(Reg::R4, 1)
            .call_helper(BPF_XDP_LOAD_BYTES as i32)
            .mov64_reg(Reg::R1, Reg::R10)
            .alu64_imm(BPF_ADD, Reg::R1, -16)
            .mov64_imm(Reg::R2, 13)
            .ldx(BPF_B, Reg::R3, Reg::R10, -24)
            .ldx(BPF_DW, Reg::R4, Reg::R6, 16)
            .call_helper(BPF_CT_OBSERVE as i32)
            .exit()
    })
}

/// In-bounds `xdp_load_bytes`: interp == JIT == safe-ext on the value.
#[test]
fn xdp_load_bytes_differential() {
    let frame = build_tcp_frame(key(), TCP_SYN, 9, b"payload");
    for off in [0i32, 12, 26, 30, 40] {
        let (res, _, _) = micro_differential(load_bytes_prog(off), &frame);
        let ext = Extension::new("safe-load", ProgType::Xdp, move |ctx| {
            let mut buf = [0u8; 4];
            ctx.packet()?.load_bytes(off as u64, &mut buf)?;
            Ok(u32::from_le_bytes(buf) as u64)
        });
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let runtime = Runtime::new(&kernel, &maps);
        let safe = runtime
            .run(&ext, ExtInput::Packet(frame.clone()))
            .result
            .ok();
        assert_eq!(res, safe, "off={off}");
    }
}

/// Out-of-bounds `xdp_load_bytes`: interp and JIT return the same error
/// code with identical audit streams; the safe-ext accessor errors too.
#[test]
fn xdp_load_bytes_out_of_bounds_differential() {
    let frame = build_tcp_frame(key(), TCP_SYN, 9, b"x");
    for off in [frame.len() as i32 - 3, frame.len() as i32, i32::MAX] {
        let (res, _, _) = micro_differential(load_bytes_prog(off), &frame);
        // The helper reports -EINVAL; both pipelines surfaced it as the
        // program's return value.
        assert_eq!(res, Some(-22i64 as u64), "off={off}");
        let ext = Extension::new("safe-load-oob", ProgType::Xdp, move |ctx| {
            let mut buf = [0u8; 4];
            match ctx.packet()?.load_bytes(off as u64, &mut buf) {
                Err(ExtError::OutOfBounds { .. }) => Ok(-22i64 as u64),
                Err(e) => Err(e),
                Ok(()) => Ok(0),
            }
        });
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let runtime = Runtime::new(&kernel, &maps);
        let safe = runtime
            .run(&ext, ExtInput::Packet(frame.clone()))
            .result
            .ok();
        assert_eq!(res, safe, "off={off}");
    }
}

/// `xdp_store_bytes` + read-back: all three paths see the same rewritten
/// bytes; out-of-bounds stores fail identically.
#[test]
fn xdp_store_bytes_differential() {
    let frame = build_tcp_frame(key(), TCP_SYN, 9, b"payload");
    for off in [0i32, 30, frame.len() as i32 - 2] {
        let (res, _, _) = micro_differential(store_bytes_prog(off), &frame);
        let ext = Extension::new("safe-store", ProgType::Xdp, move |ctx| {
            let pkt = ctx.packet()?;
            let data = 0x61626364u32.to_le_bytes();
            if let Err(ExtError::OutOfBounds { .. }) = pkt.store_bytes(off as u64, &data) {
                return Ok(-22i64 as u64);
            }
            let mut buf = [0u8; 4];
            pkt.load_bytes(off as u64, &mut buf)?;
            Ok(u32::from_le_bytes(buf) as u64)
        });
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let runtime = Runtime::new(&kernel, &maps);
        let safe = runtime
            .run(&ext, ExtInput::Packet(frame.clone()))
            .result
            .ok();
        assert_eq!(res, safe, "off={off}");
        if off == frame.len() as i32 - 2 {
            assert_eq!(res, Some(-22i64 as u64), "partial store must fail");
        }
    }
}

/// `ct_lookup`: a miss returns -ENOENT on every path; after an observe,
/// every path reads the same state code and the flow logs agree.
#[test]
fn ct_lookup_differential() {
    let syn = build_tcp_frame(key(), TCP_SYN, 1, &[]);
    // Miss on an empty table.
    let (res, _, flow) = micro_differential(ct_lookup_prog(), &syn);
    assert_eq!(res, Some(-2i64 as u64));
    assert!(flow.is_empty(), "lookup must not log a transition");

    let ext = Extension::new("safe-ct-lookup", ProgType::Xdp, |ctx| {
        Ok(ctx
            .ct_lookup(key())?
            .map_or(-2i64 as u64, |s| s.code() as u64))
    });
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let runtime = Runtime::new(&kernel, &maps);
    let miss = runtime.run(&ext, ExtInput::Packet(syn.clone())).result.ok();
    assert_eq!(res, miss);

    // Observe a SYN through the safe path, then lookup agrees with the
    // packed transition the eBPF observe program reports on its kernel.
    let obs = Extension::new("safe-ct-observe", ProgType::Xdp, |ctx| {
        Ok(ctx.ct_observe(key(), TCP_SYN, 54)?.packed())
    });
    let safe_packed = runtime.run(&obs, ExtInput::Packet(syn.clone())).result.ok();
    let hit = runtime.run(&ext, ExtInput::Packet(syn)).result.ok();
    assert_eq!(safe_packed.map(|p| p & 0xff), hit.map(|h| h & 0xff));
}

/// `ct_observe`: driving the same handshake through the micro-program on
/// interp, JIT, and safe-ext produces the same packed transitions and
/// byte-identical flow logs.
#[test]
fn ct_observe_differential() {
    let handshake = [
        build_tcp_frame(key(), TCP_SYN, 1, &[]),
        build_tcp_frame(key(), TCP_SYN | TCP_ACK, 2, &[]),
        build_tcp_frame(key(), TCP_ACK, 3, &[]),
    ];

    // eBPF paths, one kernel per pipeline, all frames in sequence.
    let run_seq = |jit: bool| {
        let kernel = Kernel::new();
        let maps = MapRegistry::default();
        let helpers = HelperRegistry::standard();
        let prog = if jit {
            jit_compile(&ct_observe_prog(), JitConfig::default())
                .expect("validates")
                .0
        } else {
            ct_observe_prog()
        };
        let mut vm = Vm::new(&kernel, &maps, &helpers);
        let id = vm.load(prog);
        let packed: Vec<_> = handshake
            .iter()
            .map(|f| vm.run(id, CtxInput::Packet(f.clone())).result.ok())
            .collect();
        (
            packed,
            kernel.audit.fingerprint(),
            kernel.net.conntrack.flow_log_fingerprint(),
        )
    };
    let (i_packed, i_audit, i_flow) = run_seq(false);
    let (j_packed, j_audit, j_flow) = run_seq(true);
    assert_eq!(i_packed, j_packed);
    assert_eq!(i_audit, j_audit);
    assert_eq!(i_flow, j_flow);

    // Safe-ext path: same packed transitions, same flow log.
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let runtime = Runtime::new(&kernel, &maps);
    let ext = Extension::new("safe-ct-observe", ProgType::Xdp, |ctx| {
        let pkt = ctx.parse_packet()?.expect("handshake frames parse");
        let len = ctx.packet()?.len() as u64;
        Ok(ctx
            .ct_observe(pkt.flow_key(), pkt.tcp_flags(), len)?
            .packed())
    });
    let s_packed: Vec<_> = handshake
        .iter()
        .map(|f| runtime.run(&ext, ExtInput::Packet(f.clone())).result.ok())
        .collect();
    assert_eq!(i_packed, s_packed);
    assert_eq!(i_flow, kernel.net.conntrack.flow_log_fingerprint());
}
