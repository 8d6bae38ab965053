//! The programs every backend runs, in both dialects, plus the pure model
//! of what each returns.
//!
//! The eBPF programs load verified through `ProgramSpec::EbpfJit` and
//! unverified through `ProgramSpec::SandboxJit`; the safe-ext closures
//! mirror them decision for decision. Return values depend only on the
//! hook input and the program version, never on map contents that runs
//! mutate, so on a fault-free item all three backends and the model
//! agree exactly.

use bench::ladder::rungs;
use bench::workloads::packet_filter;
use ebpf::asm::Asm;
use ebpf::helpers;
use ebpf::insn::*;
use ebpf::maps::MapFd;
use ebpf::program::{ProgType, Program};
use kernel_sim::hooks::{LSM_ALLOW, LSM_DENY};
use kernel_sim::metrics::bucket_of;
use safe_ext::{ExtError, Extension};
use tenancy::HookInput;
use verifier::RejectCheck;

/// The program families tenants attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `bench::workloads::packet_filter`: bounds check, count, accept.
    Filter,
    /// An L2-L4 header parser that classifies by destination port
    /// through a hash map.
    Parser,
    /// A kprobe that folds a sampled value into the hook histograms.
    Probe,
    /// An LSM policy that counts per hook and denies one pair in eight.
    Policy,
    /// A sched-ext pick-next-task policy.
    Sched,
}

impl Kind {
    /// The program type both dialects declare.
    pub fn prog_type(self) -> ProgType {
        match self {
            Kind::Filter | Kind::Parser => ProgType::SocketFilter,
            Kind::Probe => ProgType::Kprobe,
            Kind::Policy => ProgType::Lsm,
            Kind::Sched => ProgType::SchedExt,
        }
    }

    /// Stable name for artifacts and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Filter => "filter",
            Kind::Parser => "parser",
            Kind::Probe => "probe",
            Kind::Policy => "policy",
            Kind::Sched => "sched",
        }
    }

    /// Whether the family runs on packets.
    pub fn is_packet(self) -> bool {
        matches!(self, Kind::Filter | Kind::Parser)
    }

    /// The kernel-crate capabilities the safe-ext artifact requests.
    pub fn requires(self) -> &'static [&'static str] {
        if self.is_packet() {
            &["maps", "packet"]
        } else {
            &["maps", "trace"]
        }
    }

    /// The safe-Rust source the trusted toolchain checks and signs; the
    /// loader binds the artifact to the closure linked under its entry
    /// symbol, which is the same logic.
    pub fn source(self) -> &'static str {
        match self {
            Kind::Filter => {
                "fn filter(ctx: &ExtCtx) -> Result<u64, ExtError> {\n\
                 \x20   let pkt = ctx.packet()?;\n\
                 \x20   if pkt.len() < 2 { return Ok(0); }\n\
                 \x20   let slot = (pkt.load_u8(0)? & 3) as u32;\n\
                 \x20   ctx.array(COUNTER)?.fetch_add_u64(slot, 0, 1)?;\n\
                 \x20   Ok(pkt.len() as u64)\n\
                 }\n"
            }
            Kind::Parser => {
                "fn parser(ctx: &ExtCtx) -> Result<u64, ExtError> {\n\
                 \x20   let pkt = ctx.packet()?;\n\
                 \x20   let hdr = match parse_l2_l4(&pkt)? { Ok(hdr) => hdr, Err(verdict) => return Ok(verdict) };\n\
                 \x20   let class = ctx.hash(PORTS)?.lookup(&hdr.dport_key())?.map_or(0, le_u64);\n\
                 \x20   Ok((class << 16 | hdr.proto << 8 | hdr.flags) + VERSION_TAG)\n\
                 }\n"
            }
            Kind::Probe => {
                "fn probe(ctx: &ExtCtx) -> Result<u64, ExtError> {\n\
                 \x20   let point = ctx.kprobe_arg(0)?;\n\
                 \x20   let bucket = ctx.hist_record(point & 3, ctx.kprobe_arg(1)?)?;\n\
                 \x20   ctx.array(COUNTER)?.fetch_add_u64((point & 3) as u32, 0, 1)?;\n\
                 \x20   Ok(bucket + VERSION_TAG)\n\
                 }\n"
            }
            Kind::Policy => {
                "fn policy(ctx: &ExtCtx) -> Result<u64, ExtError> {\n\
                 \x20   ctx.array(COUNTER)?.fetch_add_u64((ctx.lsm_field(0)? & 3) as u32, 0, 1)?;\n\
                 \x20   let pair = ctx.lsm_field(1)? ^ ctx.lsm_field(2)?;\n\
                 \x20   Ok(if pair & 7 == 7 { DENY } else { ALLOW })\n\
                 }\n"
            }
            Kind::Sched => {
                "fn pick(ctx: &ExtCtx) -> Result<u64, ExtError> {\n\
                 \x20   let vr = ctx.sched_field(3)?.wrapping_add(ctx.sched_field(5)?);\n\
                 \x20   let ids = ctx.sched_field(2)? ^ ctx.sched_field(4)?;\n\
                 \x20   Ok(if vr % 7 == 0 { 2 } else { ids & 1 })\n\
                 }\n"
            }
        }
    }
}

/// The maps one tenant's programs reference.
#[derive(Debug, Clone, Copy)]
pub struct TenantMaps {
    /// A 4-slot array of u64 counters.
    pub counter: MapFd,
    /// Destination port (as loaded from the wire, little-endian) to
    /// traffic class.
    pub ports: MapFd,
}

/// Destination ports the parser classifies, and their class.
pub const PORT_CLASSES: [(u16, u64); 12] = [
    (443, 1),
    (53, 2),
    (80, 3),
    (22, 4),
    (25, 5),
    (123, 6),
    (8080, 7),
    (3306, 8),
    (5432, 9),
    (6379, 10),
    (11211, 11),
    (9000, 12),
];

/// Hash-map key of a port: the two wire bytes read as a little-endian
/// u16, widened to u32, exactly what the parser stores on its stack.
pub fn port_key(port: u16) -> [u8; 4] {
    u32::from(u16::from_le_bytes(port.to_be_bytes())).to_le_bytes()
}

/// Parser verdict for a frame too short for the header it needs.
const RET_SHORT: u64 = 0;
/// Parser verdict for a non-IPv4 frame.
const RET_NOT_IPV4: u64 = 1;
/// Parser verdict for an IPv4 header with options or a bad version.
const RET_BAD_IP: u64 = 2;
/// Parser verdict for an L4 protocol other than TCP and UDP.
const RET_OTHER_L4: u64 = 3;

/// How a program version shows in its return value (parser: bits
/// 24..30, probe: bits 8..14), so an upgrade that did not take shows
/// up as a wrong return.
fn version_tag(version: u32, shift: u32) -> u64 {
    u64::from(version & 0x3f) << shift
}

fn parser_prog(ports: MapFd, version: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R2, Reg::R6, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R6, 8)
        .mov64_imm(Reg::R0, RET_SHORT as i32)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 14)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        // Ethertype, loaded little-endian: 0x0800 reads as 0x0008.
        .ldx(BPF_H, Reg::R5, Reg::R2, 12)
        .mov64_imm(Reg::R0, RET_NOT_IPV4 as i32)
        .jmp64_imm(BPF_JNE, Reg::R5, 0x0008, "out")
        .mov64_imm(Reg::R0, RET_SHORT as i32)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 34)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R5, Reg::R2, 14)
        .mov64_imm(Reg::R0, RET_BAD_IP as i32)
        .jmp64_imm(BPF_JNE, Reg::R5, 0x45, "out")
        .ldx(BPF_B, Reg::R7, Reg::R2, 23)
        .mov64_imm(Reg::R8, 0)
        .mov64_imm(Reg::R0, RET_SHORT as i32)
        .jmp64_imm(BPF_JEQ, Reg::R7, 17, "udp")
        .mov64_imm(Reg::R0, RET_OTHER_L4 as i32)
        .jmp64_imm(BPF_JNE, Reg::R7, 6, "out")
        .mov64_imm(Reg::R0, RET_SHORT as i32)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 54)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R8, Reg::R2, 47)
        .ja("ports")
        .label("udp")
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 42)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .label("ports")
        .ldx(BPF_H, Reg::R5, Reg::R2, 36)
        .stx(BPF_W, Reg::R10, -4, Reg::R5)
        .ld_map_fd(Reg::R1, ports)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .mov64_imm(Reg::R9, 0)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "classify")
        .ldx(BPF_DW, Reg::R9, Reg::R0, 0)
        .label("classify")
        .mov64_reg(Reg::R0, Reg::R9)
        .alu64_imm(BPF_LSH, Reg::R0, 16)
        .alu64_imm(BPF_LSH, Reg::R7, 8)
        .alu64_reg(BPF_OR, Reg::R0, Reg::R7)
        .alu64_reg(BPF_OR, Reg::R0, Reg::R8)
        .alu64_imm(BPF_ADD, Reg::R0, version_tag(version, 24) as i32)
        .label("out")
        .exit()
        .build()
        .expect("parser program assembles");
    Program::new("l4-parser", ProgType::SocketFilter, insns)
}

/// Looks up `slot` in the counter array and bumps it; `r1` and `r2`
/// are clobbered, `r0` is left as the (possibly null) value pointer.
fn bump_counter(asm: Asm, counter: MapFd, slot: Reg, done: &str) -> Asm {
    asm.stx(BPF_W, Reg::R10, -4, slot)
        .ld_map_fd(Reg::R1, counter)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, done)
        .mov64_imm(Reg::R1, 1)
        .atomic(BPF_DW, Reg::R0, 0, Reg::R1, BPF_ATOMIC_ADD)
        .label(done)
}

fn probe_prog(counter: MapFd, version: u32) -> Program {
    let asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0)
        .ldx(BPF_DW, Reg::R8, Reg::R6, 8)
        .mov64_reg(Reg::R1, Reg::R7)
        .alu64_imm(BPF_AND, Reg::R1, 3)
        .mov64_reg(Reg::R2, Reg::R8)
        .call_helper(helpers::BPF_HIST_RECORD as i32)
        .mov64_reg(Reg::R9, Reg::R0)
        .alu64_imm(BPF_AND, Reg::R7, 3);
    let insns = bump_counter(asm, counter, Reg::R7, "done")
        .mov64_reg(Reg::R0, Reg::R9)
        .alu64_imm(BPF_ADD, Reg::R0, version_tag(version, 8) as i32)
        .exit()
        .build()
        .expect("probe program assembles");
    Program::new("hook-probe", ProgType::Kprobe, insns)
}

fn policy_prog(counter: MapFd) -> Program {
    let asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0)
        .alu64_imm(BPF_AND, Reg::R7, 3);
    // Both exits return constants, so the verifier proves the [0, 1]
    // LSM return contract.
    let insns = bump_counter(asm, counter, Reg::R7, "decide")
        .ldx(BPF_DW, Reg::R2, Reg::R6, 8)
        .ldx(BPF_DW, Reg::R3, Reg::R6, 16)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R3)
        .alu64_imm(BPF_AND, Reg::R2, 7)
        .jmp64_imm(BPF_JEQ, Reg::R2, 7, "deny")
        .mov64_imm(Reg::R0, LSM_ALLOW as i32)
        .exit()
        .label("deny")
        .mov64_imm(Reg::R0, LSM_DENY as i32)
        .exit()
        .build()
        .expect("policy program assembles");
    Program::new("hook-policy", ProgType::Lsm, insns)
}

fn sched_prog() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 16)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 32)
        .ldx(BPF_DW, Reg::R4, Reg::R1, 24)
        .ldx(BPF_DW, Reg::R5, Reg::R1, 40)
        .alu64_reg(BPF_ADD, Reg::R4, Reg::R5)
        .alu64_imm(BPF_MOD, Reg::R4, 7)
        .jmp64_imm(BPF_JEQ, Reg::R4, 0, "defer")
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R3)
        .alu64_imm(BPF_AND, Reg::R2, 1)
        .jmp64_imm(BPF_JEQ, Reg::R2, 1, "second")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("second")
        .mov64_imm(Reg::R0, 1)
        .exit()
        .label("defer")
        .mov64_imm(Reg::R0, 2)
        .exit()
        .build()
        .expect("sched program assembles");
    Program::new("hook-sched", ProgType::SchedExt, insns)
}

/// The eBPF program of family `kind` at `version`.
pub fn ebpf_program(kind: Kind, version: u32, maps: TenantMaps) -> Program {
    match kind {
        Kind::Filter => packet_filter(maps.counter),
        Kind::Parser => parser_prog(maps.ports, version),
        Kind::Probe => probe_prog(maps.counter, version),
        Kind::Policy => policy_prog(maps.counter),
        Kind::Sched => sched_prog(),
    }
}

/// The model's parse: protocol, TCP flags and the destination port as
/// loaded from the wire, or the parser's early verdict.
fn l2_l4(p: &[u8]) -> Result<(u64, u64, u16), u64> {
    let u16_at = |off: usize| u16::from_le_bytes([p[off], p[off + 1]]);
    if p.len() < 14 {
        return Err(RET_SHORT);
    }
    if u16_at(12) != 0x0008 {
        return Err(RET_NOT_IPV4);
    }
    if p.len() < 34 {
        return Err(RET_SHORT);
    }
    if p[14] != 0x45 {
        return Err(RET_BAD_IP);
    }
    let proto = u64::from(p[23]);
    let flags = match proto {
        17 if p.len() < 42 => return Err(RET_SHORT),
        17 => 0,
        6 if p.len() < 54 => return Err(RET_SHORT),
        6 => u64::from(p[47]),
        _ => return Err(RET_OTHER_L4),
    };
    Ok((proto, flags, u16_at(36)))
}

fn classify(class: u64, proto: u64, flags: u64, version: u32) -> u64 {
    ((class << 16) | (proto << 8) | flags) + version_tag(version, 24)
}

/// The safe-ext extension of family `kind` at `version`.
pub fn safe_extension(kind: Kind, version: u32, maps: TenantMaps, name: &str) -> Extension {
    let TenantMaps { counter, ports } = maps;
    match kind {
        Kind::Filter => Extension::new(name, kind.prog_type(), move |ctx| {
            let pkt = ctx.packet()?;
            if pkt.len() < 2 {
                return Ok(0);
            }
            let slot = u32::from(pkt.load_u8(0)? & 3);
            ctx.array(counter)?.fetch_add_u64(slot, 0, 1)?;
            Ok(u64::from(pkt.len()))
        }),
        Kind::Parser => Extension::new(name, kind.prog_type(), move |ctx| {
            let pkt = ctx.packet()?;
            let len = pkt.len();
            if len < 14 {
                return Ok(RET_SHORT);
            }
            if pkt.load_u16(12)? != 0x0008 {
                return Ok(RET_NOT_IPV4);
            }
            if len < 34 {
                return Ok(RET_SHORT);
            }
            if pkt.load_u8(14)? != 0x45 {
                return Ok(RET_BAD_IP);
            }
            let proto = u64::from(pkt.load_u8(23)?);
            let flags = match proto {
                17 if len < 42 => return Ok(RET_SHORT),
                17 => 0,
                6 if len < 54 => return Ok(RET_SHORT),
                6 => u64::from(pkt.load_u8(47)?),
                _ => return Ok(RET_OTHER_L4),
            };
            let key = u32::from(pkt.load_u16(36)?).to_le_bytes();
            let class = match ctx.hash(ports)?.lookup(&key)? {
                Some(v) => v
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
                    .ok_or(ExtError::Invalid("short port class"))?,
                None => 0,
            };
            Ok(classify(class, proto, flags, version))
        }),
        Kind::Probe => Extension::new(name, kind.prog_type(), move |ctx| {
            let point = ctx.kprobe_arg(0)?;
            let value = ctx.kprobe_arg(1)?;
            let bucket = ctx.hist_record(point & 3, value)?;
            ctx.array(counter)?
                .fetch_add_u64((point & 3) as u32, 0, 1)?;
            Ok(bucket + version_tag(version, 8))
        }),
        Kind::Policy => Extension::new(name, kind.prog_type(), move |ctx| {
            let hook = ctx.lsm_field(0)?;
            ctx.array(counter)?.fetch_add_u64((hook & 3) as u32, 0, 1)?;
            let pair = ctx.lsm_field(1)? ^ ctx.lsm_field(2)?;
            Ok(if pair & 7 == 7 { LSM_DENY } else { LSM_ALLOW })
        }),
        Kind::Sched => Extension::new(name, kind.prog_type(), move |ctx| {
            let c0_id = ctx.sched_field(2)?;
            let c0_vr = ctx.sched_field(3)?;
            let c1_id = ctx.sched_field(4)?;
            let c1_vr = ctx.sched_field(5)?;
            Ok(model_sched(c0_id, c0_vr, c1_id, c1_vr))
        }),
    }
}

fn model_sched(c0_id: u64, c0_vr: u64, c1_id: u64, c1_vr: u64) -> u64 {
    if c0_vr.wrapping_add(c1_vr).is_multiple_of(7) {
        2
    } else {
        (c0_id ^ c1_id) & 1
    }
}

/// What program `kind` at `version` returns on `input`: the expected
/// outcome every backend is checked against.
pub fn model(kind: Kind, version: u32, input: HookInput<'_>) -> Option<u64> {
    Some(match (kind, input) {
        (Kind::Filter, HookInput::Packet(p)) => {
            if p.len() < 2 {
                0
            } else {
                p.len() as u64
            }
        }
        (Kind::Parser, HookInput::Packet(p)) => match l2_l4(p) {
            Ok((proto, flags, dport)) => {
                let class = PORT_CLASSES
                    .iter()
                    .find(|(port, _)| port_key(*port) == u32::from(dport).to_le_bytes())
                    .map_or(0, |(_, class)| *class);
                classify(class, proto, flags, version)
            }
            Err(verdict) => verdict,
        },
        (Kind::Probe, HookInput::Kprobe(regs)) => {
            bucket_of(regs[1]) as u64 + version_tag(version, 8)
        }
        (Kind::Policy, HookInput::Lsm(f)) => {
            if (f[1] ^ f[2]) & 7 == 7 {
                LSM_DENY
            } else {
                LSM_ALLOW
            }
        }
        (Kind::Sched, HookInput::Sched(f)) => model_sched(f[2], f[3], f[4], f[5]),
        _ => return None,
    })
}

/// One program of the verifier feature ladder and how the verifier
/// must judge it.
pub struct LadderProgram {
    /// The program.
    pub prog: Program,
    /// `Ok` for an accepted rung program, the rejecting check for a
    /// violation.
    pub expect: Result<(), RejectCheck>,
}

/// The ladder's 23 programs (12 accepted, 11 violations) against the
/// given map fds, and the five rungs' safe-Rust sources with their
/// capabilities.
pub fn ladder(
    arr: MapFd,
    progs: MapFd,
    rb: MapFd,
) -> (Vec<LadderProgram>, Vec<(String, Vec<&'static str>)>) {
    let mut programs = Vec::new();
    let mut sources = Vec::new();
    for rung in rungs(arr, progs, rb) {
        programs.extend(rung.accepted.into_iter().map(|prog| LadderProgram {
            prog,
            expect: Ok(()),
        }));
        programs.extend(
            rung.violations
                .into_iter()
                .map(|(prog, check)| LadderProgram {
                    prog,
                    expect: Err(check),
                }),
        );
        sources.push((rung.ext_source, rung.ext_requires));
    }
    (programs, sources)
}
