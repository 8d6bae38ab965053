//! The flow-steered network scenario: XDP-style sample extensions in
//! both dialects, driven over the simulated network stack.
//!
//! Two scenarios, each implemented twice with identical semantics — once
//! as eBPF assembly (run by the interpreter) and once as a safe-Rust
//! closure (run by the safe-ext runtime):
//!
//! - **SYN-flood filter**: tracks flows through conntrack
//!   (`bpf_ct_observe` / [`safe_ext::ExtCtx::ct_observe`]) and counts
//!   half-open connections per source IP in a hash map; a source that
//!   accumulates [`SYN_HALFOPEN_THRESHOLD`] half-opens has further SYNs
//!   dropped. Completing a handshake refunds the source's budget.
//! - **L4 load balancer**: hashes the 5-tuple, picks one of
//!   [`LB_BACKENDS`] backends, bumps its counter in an array map,
//!   rewrites the destination IP (`bpf_xdp_store_bytes` /
//!   `PacketView::store_bytes`), recomputes the IP header checksum in
//!   program code, and returns `XDP_TX`.
//!
//! # Determinism contract
//!
//! The canonical per-packet record log
//! (`idx|class|verdict|ct|cost_ns|injected`, sorted by global packet
//! index) is byte-identical at any shard count, fault plan armed or not:
//!
//! 1. **RSS flow steering.** Packets are routed to shards by a hash of
//!    the `(src_ip, dst_ip, proto)` 2-tuple ([`steer_shard`]), so every
//!    packet of a flow, and every flow of a source IP, lands on the same
//!    shard at any shard count; conntrack entries and per-source SYN
//!    budgets are partition-local. Frames that do not parse are steered
//!    by a hash of their raw bytes; the generator gives them unique
//!    source addresses, so they share state with nothing.
//! 2. **Per-packet fault arming.** The shard kernel is re-armed before
//!    *every packet* with a seed derived from the packet's global index
//!    ([`packet_fault_seed`]).
//! 3. **Per-packet virtual cost.** `cost_ns` is the shard clock's advance
//!    across the one run.
//! 4. **No cross-flow capacity pressure.** Shard conntrack tables are
//!    sized ([`kernel_sim::net::DEFAULT_CONNTRACK_CAPACITY`]) so
//!    canonical workloads never evict: eviction would couple unrelated
//!    flows through shard-global state.
//!
//! The merged audit fingerprint is replay-deterministic only; it differs
//! across shard counts.

use ebpf::asm::Asm;
use ebpf::helpers;
use ebpf::insn::*;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::net::hook::{RxSnapshot, XdpAction};
use kernel_sim::net::packet::parse_frame;
use kernel_sim::net::traffic::Frame;
use kernel_sim::{splitmix64, FaultPlan, FaultPlanConfig, Kernel};
use safe_ext::Extension;

use crate::engine::{self, DispatchError, Record, RunReport, Scenario, Shard, ShardOut};
use crate::Lane;

/// Half-open connections a single source may hold before its SYNs drop.
pub const SYN_HALFOPEN_THRESHOLD: u64 = 4;

/// Number of backends the load balancer spreads flows over.
pub const LB_BACKENDS: usize = 4;

/// Which sample extension processes the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetScenario {
    /// Conntrack-backed SYN-flood filter.
    SynFilter,
    /// Header-rewriting L4 load balancer.
    LoadBalancer,
}

impl NetScenario {
    /// Short stable name used in reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            NetScenario::SynFilter => "syn-filter",
            NetScenario::LoadBalancer => "l4-lb",
        }
    }

    /// Creates the scenario's map on a shard kernel, returning its fd.
    pub fn setup(&self, kernel: &Kernel, maps: &MapRegistry) -> u32 {
        let def = match self {
            NetScenario::SynFilter => MapDef::hash("syn-halfopen", 4, 8, 2048),
            NetScenario::LoadBalancer => MapDef::array("lb-backends", 8, LB_BACKENDS as u32),
        };
        maps.create(kernel, def).expect("scenario map creation")
    }

    /// The scenario as an eBPF program over the map at `fd`.
    pub fn program(&self, fd: u32) -> Program {
        match self {
            NetScenario::SynFilter => syn_filter_prog(fd),
            NetScenario::LoadBalancer => lb_prog(fd),
        }
    }

    /// The scenario as a safe-ext extension over the map at `fd`.
    pub fn extension(&self, fd: u32) -> Extension {
        match self {
            NetScenario::SynFilter => syn_filter_ext(fd),
            NetScenario::LoadBalancer => lb_ext(fd),
        }
    }
}

const XDP_DROP: u64 = 1;
const XDP_PASS: u64 = 2;
const XDP_TX: u64 = 3;

/// The SYN-flood filter as eBPF assembly.
///
/// Frame layout offsets (Ethernet/IPv4 without options/TCP):
/// ethertype@12, ip version@14, protocol@23, src_ip@26, dst_ip@30,
/// ports@34, tcp flags@47. The 13-byte conntrack tuple is the wire bytes
/// `src_ip|dst_ip|src_port|dst_port` (12 contiguous bytes at offset 26)
/// plus the protocol byte, assembled on the stack at `r10-16`.
pub fn syn_filter_prog(fd: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0) // data
        .ldx(BPF_DW, Reg::R9, Reg::R6, 16) // len
        .jmp64_imm(BPF_JLT, Reg::R9, 14, "drop")
        .ldx(BPF_H, Reg::R2, Reg::R7, 12) // ethertype, LE load: 0x0800 -> 0x0008
        .jmp64_imm(BPF_JNE, Reg::R2, 0x0008, "pass")
        .jmp64_imm(BPF_JLT, Reg::R9, 34, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 14)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x45, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 23)
        .jmp64_imm(BPF_JNE, Reg::R2, 6, "pass") // non-TCP: not our business
        .jmp64_imm(BPF_JLT, Reg::R9, 54, "drop")
        // tuple[0..12] = addrs + ports, copied via the helper.
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 26)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -16)
        .mov64_imm(Reg::R4, 12)
        .call_helper(helpers::BPF_XDP_LOAD_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        .st(BPF_B, Reg::R10, -4, 6) // tuple[12] = IPPROTO_TCP
        .ldx(BPF_B, Reg::R8, Reg::R7, 47) // tcp flags (survives calls in r8)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -16)
        .mov64_imm(Reg::R2, 13)
        .mov64_reg(Reg::R3, Reg::R8)
        .mov64_reg(Reg::R4, Reg::R9)
        .call_helper(helpers::BPF_CT_OBSERVE as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        // syn-sent -> established: the handshake completed, refund one.
        .jmp64_imm(BPF_JEQ, Reg::R0, 0x0102, "complete")
        .mov64_reg(Reg::R2, Reg::R8)
        .alu64_imm(BPF_AND, Reg::R2, 0x12) // SYN|ACK mask
        .jmp64_imm(BPF_JNE, Reg::R2, 0x02, "pass") // only bare SYNs counted
        // Charge the half-open against the source IP (tuple bytes 0..4).
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "have")
        .st(BPF_DW, Reg::R10, -32, 1)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -32)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_MAP_UPDATE_ELEM as i32)
        .ja("pass")
        .label("have")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .jmp64_imm(BPF_JGE, Reg::R1, SYN_HALFOPEN_THRESHOLD as i32, "drop")
        .alu64_imm(BPF_ADD, Reg::R1, 1)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .ja("pass")
        .label("complete")
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "pass")
        .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
        .jmp64_imm(BPF_JEQ, Reg::R1, 0, "pass")
        .alu64_imm(BPF_SUB, Reg::R1, 1)
        .stx(BPF_DW, Reg::R0, 0, Reg::R1)
        .label("pass")
        .mov64_imm(Reg::R0, XDP_PASS as i32)
        .exit()
        .label("drop")
        .mov64_imm(Reg::R0, XDP_DROP as i32)
        .exit()
        .build()
        .unwrap();
    Program::new("syn-filter", ProgType::Xdp, insns)
}

/// The SYN-flood filter as a safe-Rust extension with semantics
/// mirroring [`syn_filter_prog`] decision for decision.
pub fn syn_filter_ext(fd: u32) -> Extension {
    Extension::new("syn-filter", ProgType::Xdp, move |ctx| {
        let pkt = ctx.packet()?;
        let len = pkt.len() as u64;
        if len < 14 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u16(12)? != 0x0008 {
            return Ok(XDP_PASS);
        }
        if len < 34 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u8(14)? != 0x45 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u8(23)? != 6 {
            return Ok(XDP_PASS);
        }
        if len < 54 {
            return Ok(XDP_DROP);
        }
        let mut wire = [0u8; 13];
        pkt.load_bytes(26, &mut wire[..12])?;
        wire[12] = 6;
        let key = kernel_sim::net::packet::FlowKey::from_wire(&wire).expect("13-byte tuple");
        let flags = pkt.load_u8(47)?;
        let obs = ctx.ct_observe(key, flags, len)?;
        let src = &wire[..4];
        let halfopen = ctx.hash(fd)?;
        if obs.packed() == 0x0102 {
            if let Some(v) = halfopen.lookup(src)? {
                let n = u64::from_le_bytes(v[..8].try_into().expect("8-byte value"));
                if n > 0 {
                    halfopen.insert(src, &(n - 1).to_le_bytes())?;
                }
            }
            return Ok(XDP_PASS);
        }
        if flags & 0x12 != 0x02 {
            return Ok(XDP_PASS);
        }
        match halfopen.lookup(src)? {
            None => {
                halfopen.insert(src, &1u64.to_le_bytes())?;
                Ok(XDP_PASS)
            }
            Some(v) => {
                let n = u64::from_le_bytes(v[..8].try_into().expect("8-byte value"));
                if n >= SYN_HALFOPEN_THRESHOLD {
                    Ok(XDP_DROP)
                } else {
                    halfopen.insert(src, &(n + 1).to_le_bytes())?;
                    Ok(XDP_PASS)
                }
            }
        }
    })
}

/// The L4 load balancer as eBPF assembly.
///
/// Hashes the 5-tuple with three 32-bit multiplicative constants (staged
/// through `lddw` — `alu64_imm` would sign-extend them), picks a backend,
/// counts it, rewrites the destination IP to `10.2.0.<backend>`, and
/// recomputes the IP header checksum by summing the header's LE halfwords
/// (skipping the checksum field) and storing the folded complement LE —
/// one's-complement arithmetic commutes with byte order, so the wire
/// bytes come out correct.
pub fn lb_prog(fd: u32) -> Program {
    let mut asm = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0) // data
        .ldx(BPF_DW, Reg::R9, Reg::R6, 16) // len
        .jmp64_imm(BPF_JLT, Reg::R9, 14, "drop")
        .ldx(BPF_H, Reg::R2, Reg::R7, 12)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x0008, "pass")
        .jmp64_imm(BPF_JLT, Reg::R9, 34, "drop")
        .ldx(BPF_B, Reg::R2, Reg::R7, 14)
        .jmp64_imm(BPF_JNE, Reg::R2, 0x45, "drop")
        .ldx(BPF_B, Reg::R8, Reg::R7, 23) // protocol
        .jmp64_imm(BPF_JEQ, Reg::R8, 6, "l4ok")
        .jmp64_imm(BPF_JNE, Reg::R8, 17, "pass")
        .label("l4ok")
        .jmp64_imm(BPF_JLT, Reg::R9, 42, "drop")
        // h = src*K1 ^ dst*K2 ^ ports*K3 ^ proto; h ^= h >> 15.
        .ldx(BPF_W, Reg::R2, Reg::R7, 26)
        .lddw(Reg::R3, 0x9e37_79b1)
        .alu64_reg(BPF_MUL, Reg::R2, Reg::R3)
        .ldx(BPF_W, Reg::R4, Reg::R7, 30)
        .lddw(Reg::R3, 0x85eb_ca6b)
        .alu64_reg(BPF_MUL, Reg::R4, Reg::R3)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .ldx(BPF_W, Reg::R4, Reg::R7, 34)
        .lddw(Reg::R3, 0xc2b2_ae35)
        .alu64_reg(BPF_MUL, Reg::R4, Reg::R3)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R4, 15)
        .alu64_reg(BPF_XOR, Reg::R2, Reg::R4)
        .alu64_imm(BPF_AND, Reg::R2, LB_BACKENDS as i32 - 1)
        .mov64_reg(Reg::R8, Reg::R2) // r8 = backend index from here on
        // Count the pick in the plain array map.
        .stx(BPF_W, Reg::R10, -4, Reg::R2)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "rewrite") // injected miss: skip count
        .mov64_imm(Reg::R1, 1)
        .atomic(BPF_DW, Reg::R0, 0, Reg::R1, BPF_ATOMIC_ADD)
        .label("rewrite")
        // dst_ip = 10.2.0.<backend>, staged on the stack.
        .st(BPF_B, Reg::R10, -8, 10)
        .st(BPF_B, Reg::R10, -7, 2)
        .st(BPF_B, Reg::R10, -6, 0)
        .stx(BPF_B, Reg::R10, -5, Reg::R8)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 30)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 4)
        .call_helper(helpers::BPF_XDP_STORE_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        // Recompute the IP header checksum over the rewritten header.
        .mov64_imm(Reg::R2, 0);
    for off in [14i16, 16, 18, 20, 22, 26, 28, 30, 32] {
        asm = asm
            .ldx(BPF_H, Reg::R3, Reg::R7, off)
            .alu64_reg(BPF_ADD, Reg::R2, Reg::R3);
    }
    let insns = asm
        .mov64_reg(Reg::R3, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R3, 16)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .alu64_reg(BPF_ADD, Reg::R2, Reg::R3)
        .mov64_reg(Reg::R3, Reg::R2)
        .alu64_imm(BPF_RSH, Reg::R3, 16)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .alu64_reg(BPF_ADD, Reg::R2, Reg::R3)
        .alu64_imm(BPF_XOR, Reg::R2, 0xffff)
        .alu64_imm(BPF_AND, Reg::R2, 0xffff)
        .stx(BPF_H, Reg::R10, -12, Reg::R2)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 24)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -12)
        .mov64_imm(Reg::R4, 2)
        .call_helper(helpers::BPF_XDP_STORE_BYTES as i32)
        .jmp64_imm(BPF_JSLT, Reg::R0, 0, "drop")
        .mov64_imm(Reg::R0, XDP_TX as i32)
        .exit()
        .label("pass")
        .mov64_imm(Reg::R0, XDP_PASS as i32)
        .exit()
        .label("drop")
        .mov64_imm(Reg::R0, XDP_DROP as i32)
        .exit()
        .build()
        .unwrap();
    Program::new("l4-lb", ProgType::Xdp, insns)
}

/// The L4 load balancer as a safe-Rust extension mirroring [`lb_prog`].
pub fn lb_ext(fd: u32) -> Extension {
    Extension::new("l4-lb", ProgType::Xdp, move |ctx| {
        let pkt = ctx.packet()?;
        let len = pkt.len() as u64;
        if len < 14 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u16(12)? != 0x0008 {
            return Ok(XDP_PASS);
        }
        if len < 34 {
            return Ok(XDP_DROP);
        }
        if pkt.load_u8(14)? != 0x45 {
            return Ok(XDP_DROP);
        }
        let proto = pkt.load_u8(23)? as u64;
        if proto != 6 && proto != 17 {
            return Ok(XDP_PASS);
        }
        if len < 42 {
            return Ok(XDP_DROP);
        }
        let mut h = (pkt.load_u32(26)? as u64).wrapping_mul(0x9e37_79b1)
            ^ (pkt.load_u32(30)? as u64).wrapping_mul(0x85eb_ca6b)
            ^ (pkt.load_u32(34)? as u64).wrapping_mul(0xc2b2_ae35)
            ^ proto;
        h ^= h >> 15;
        let backend = (h & (LB_BACKENDS as u64 - 1)) as u32;
        ctx.array(fd)?.fetch_add_u64(backend, 0, 1)?;
        pkt.store_bytes(30, &[10, 2, 0, backend as u8])?;
        // Recompute the checksum exactly as the asm program does: LE
        // halfword sum skipping the checksum field, folded, complemented,
        // stored LE.
        let mut sum: u64 = 0;
        for off in [14u64, 16, 18, 20, 22, 26, 28, 30, 32] {
            sum += pkt.load_u16(off)? as u64;
        }
        sum = (sum & 0xffff) + (sum >> 16);
        sum = (sum & 0xffff) + (sum >> 16);
        let csum = !(sum as u16);
        pkt.store_bytes(24, &csum.to_le_bytes())?;
        Ok(XDP_TX)
    })
}

/// The shard a frame is steered to: RSS-style hashing of the
/// `(src_ip, dst_ip, proto)` 2-tuple for parseable frames, a raw-byte
/// hash for the rest. A pure function of `(seed, bytes)`, so every
/// packet of a flow — and every flow of a source — shares a shard at any
/// shard count.
pub fn steer_shard(seed: u64, bytes: &[u8], shards: usize) -> usize {
    let lane = match parse_frame(bytes) {
        Ok(pkt) => pkt.flow_key().hash_rss(),
        Err(_) => {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
    };
    (splitmix64(seed ^ lane) % shards.max(1) as u64) as usize
}

/// The fault-plan seed armed before packet `index`: derived from the
/// packet's global index alone, so injection decisions replay identically
/// at any shard count.
pub fn packet_fault_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d))
}

/// Net configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker shard count (also the simulated CPU count).
    pub shards: usize,
    /// Master seed: drives flow steering and per-packet fault seeds.
    pub seed: u64,
    /// Fault plan re-armed before every packet, or `None`.
    pub fault: Option<FaultPlanConfig>,
    /// Which sample extension to run.
    pub scenario: NetScenario,
}

impl NetConfig {
    /// A config for `scenario` with the given shard count and seed.
    pub fn new(scenario: NetScenario, shards: usize, seed: u64) -> Self {
        NetConfig {
            shards,
            seed,
            fault: None,
            scenario,
        }
    }
}

/// Per-shard net tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Per-verdict counters from the shard's RX hook.
    pub rx: RxSnapshot,
    /// Faults injected across the shard's packets (each packet arms a
    /// fresh plan, so this sums them).
    pub injected: u64,
    /// Per-backend pick totals (load-balancer scenario; zeros otherwise).
    pub backend_counts: [u64; LB_BACKENDS],
    /// `class -> verdict -> count`, indexed by `FrameClass` order
    /// (elephant, mouse, synflood, malformed) and XDP action code.
    pub class_verdicts: [[u64; 5]; 4],
    /// The conntrack flow-log lines; sorted once merged, a canonical
    /// multiset of flow transitions that is shard-count-invariant.
    pub flow_log: Vec<String>,
}

impl engine::Stats for NetStats {
    fn merge(&mut self, other: &Self) {
        self.rx.aborted += other.rx.aborted;
        self.rx.drop += other.rx.drop;
        self.rx.pass += other.rx.pass;
        self.rx.tx += other.rx.tx;
        self.rx.redirect += other.rx.redirect;
        self.injected += other.injected;
        for (a, b) in self.backend_counts.iter_mut().zip(&other.backend_counts) {
            *a += b;
        }
        for (row, other_row) in self.class_verdicts.iter_mut().zip(&other.class_verdicts) {
            for (a, b) in row.iter_mut().zip(other_row) {
                *a += b;
            }
        }
        self.flow_log.extend_from_slice(&other.flow_log);
        self.flow_log.sort_unstable();
    }
}

struct Flows<'a> {
    cfg: &'a NetConfig,
    frames: &'a [Frame],
}

impl<'a> Scenario for Flows<'a> {
    type Item = (u64, &'a Frame);
    type Stats = NetStats;

    fn shards(&self) -> usize {
        self.cfg.shards
    }

    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, Self::Item)> {
        let seed = self.cfg.seed;
        self.frames
            .iter()
            .enumerate()
            .map(move |(i, frame)| (steer_shard(seed, &frame.bytes, shards), (i as u64, frame)))
    }

    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = Self::Item>,
    ) -> Result<ShardOut<NetStats>, DispatchError> {
        let kernel = &shard.kernel;
        let scenario = self.cfg.scenario;
        let fd = scenario.setup(kernel, &shard.maps);
        let prog = lane.load(shard, || scenario.program(fd), || scenario.extension(fd));
        let mut stats = NetStats::default();
        let mut records = Vec::new();
        for (idx, frame) in feed {
            if let Some(fault) = &self.cfg.fault {
                kernel.arm_fault_plan(FaultPlan::with_config(
                    packet_fault_seed(self.cfg.seed, idx),
                    *fault,
                ));
            }
            let injected_before = shard.injected();
            let t0 = kernel.clock.now_ns();
            let verdict = prog(&frame.bytes).map_or(XdpAction::Aborted, XdpAction::from_code);
            kernel.net.rx.record(verdict);
            let cost_ns = kernel.clock.now_ns() - t0;
            let injected = shard.injected() - injected_before;
            stats.injected += injected;
            stats.class_verdicts[frame.class as usize][verdict.code() as usize] += 1;
            let ct = parse_frame(&frame.bytes)
                .ok()
                .and_then(|pkt| kernel.net.conntrack.lookup(pkt.flow_key()));
            records.push(Record {
                idx,
                rank: 0,
                line: format!(
                    "{idx}|{}|{}|{}|{cost_ns}|{injected}",
                    frame.class.name(),
                    verdict.name(),
                    ct.map_or("-", |s| s.name()),
                ),
            });
        }
        stats.rx = kernel.net.rx.snapshot();
        if scenario == NetScenario::LoadBalancer {
            stats.backend_counts = shard.counters(fd, 0)?;
        }
        stats.flow_log = kernel
            .net
            .conntrack
            .flow_log_fingerprint()
            .lines()
            .map(str::to_string)
            .collect();
        Ok(ShardOut {
            summary: format!(
                "net shard {}: scenario={} packets={} drop={} pass={} tx={} aborted={}",
                shard.id,
                scenario.name(),
                records.len(),
                stats.rx.drop,
                stats.rx.pass,
                stats.rx.tx,
                stats.rx.aborted,
            ),
            stats,
            records,
            trace: Vec::new(),
        })
    }
}

/// Dispatches `frames` over `cfg.shards` flow-steered shards through
/// `lane` and merges the results deterministically.
///
/// # Errors
///
/// A shard panic or map-recovery failure.
pub fn run_net_batched(
    lane: Lane,
    cfg: &NetConfig,
    frames: &[Frame],
) -> Result<RunReport<NetStats>, DispatchError> {
    engine::run(&Flows { cfg, frames }, lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::net::packet::{build_tcp_frame, FlowKey, IPPROTO_TCP, TCP_SYN};
    use kernel_sim::net::traffic::{generate, TrafficConfig};

    fn smoke_frames(seed: u64) -> Vec<Frame> {
        generate(&TrafficConfig::smoke(), seed)
    }

    #[test]
    fn le_halfword_checksum_trick_matches_parser() {
        // Replicates the LB programs' checksum algorithm in plain Rust
        // and checks the parser accepts the result — validating the
        // "sum LE, store LE" trick against the RFC 1071 reference.
        let key = FlowKey {
            src_ip: 0x0a00_0001,
            dst_ip: 0x0a01_0001,
            src_port: 40_000,
            dst_port: 443,
            proto: IPPROTO_TCP,
        };
        let mut bytes = build_tcp_frame(key, TCP_SYN, 7, b"hello");
        bytes[30..34].copy_from_slice(&[10, 2, 0, 3]); // rewrite dst
        let mut sum: u64 = 0;
        for off in [14usize, 16, 18, 20, 22, 26, 28, 30, 32] {
            sum += u16::from_le_bytes([bytes[off], bytes[off + 1]]) as u64;
        }
        sum = (sum & 0xffff) + (sum >> 16);
        sum = (sum & 0xffff) + (sum >> 16);
        bytes[24..26].copy_from_slice(&(!(sum as u16)).to_le_bytes());
        let pkt = parse_frame(&bytes).expect("rewritten header verifies");
        assert_eq!(pkt.ip.dst, 0x0a02_0003);
    }

    #[test]
    fn steering_is_pure_and_flow_stable() {
        let frames = smoke_frames(3);
        for f in &frames {
            assert_eq!(steer_shard(9, &f.bytes, 4), steer_shard(9, &f.bytes, 4));
        }
        // Same flow -> same shard: compare two frames of one flow.
        let key = FlowKey {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            proto: IPPROTO_TCP,
        };
        let a = build_tcp_frame(key, TCP_SYN, 0, &[]);
        let b = build_tcp_frame(key, 0x10, 1, b"data");
        assert_eq!(steer_shard(7, &a, 8), steer_shard(7, &b, 8));
    }

    #[test]
    fn syn_filter_drops_flood_not_legit_traffic() {
        let frames = generate(&TrafficConfig::default(), 11);
        for lane in Lane::ALL {
            let cfg = NetConfig::new(NetScenario::SynFilter, 1, 11);
            let report = run_net_batched(lane, &cfg, &frames).expect("net dispatch");
            let cv = report.stats.class_verdicts;
            // Flood: some SYNs pass (filling budgets), the bulk drops.
            assert!(cv[2][1] > 0, "{lane:?}: no flood frames dropped");
            // Legit TCP/UDP traffic is never dropped.
            assert_eq!(cv[0][1], 0, "{lane:?}: elephant dropped");
            assert_eq!(cv[1][1], 0, "{lane:?}: mouse dropped");
            assert!(report.shards[0].pristine);
        }
    }

    #[test]
    fn backends_agree_on_verdicts_fault_free() {
        let frames = smoke_frames(5);
        let cfg = NetConfig::new(NetScenario::SynFilter, 1, 5);
        let run = |lane| run_net_batched(lane, &cfg, &frames).expect("net dispatch");
        let ebpf = run(Lane::Ebpf);
        // Cost differs (the dialects charge time differently, and the
        // sandbox pays domain crossings), but the verdict/ct stream and
        // the flow transition log must match across every lane.
        let strip = |log: &str| {
            log.lines()
                .map(|l| l.rsplitn(3, '|').nth(2).unwrap().to_string())
                .collect::<Vec<_>>()
        };
        for lane in Lane::ALL {
            let other = run(lane);
            assert_eq!(strip(&ebpf.canonical_log), strip(&other.canonical_log));
            assert_eq!(ebpf.stats.flow_log, other.stats.flow_log);
        }
    }

    #[test]
    fn lb_balances_and_transmits() {
        let frames = smoke_frames(19);
        for lane in Lane::ALL {
            let cfg = NetConfig::new(NetScenario::LoadBalancer, 1, 19);
            let report = run_net_batched(lane, &cfg, &frames).expect("net dispatch");
            let rx = report.stats.rx;
            assert!(rx.tx > 0, "{lane:?}: nothing transmitted");
            let counts = report.stats.backend_counts;
            assert_eq!(
                counts.iter().sum::<u64>(),
                rx.tx,
                "{lane:?}: backend picks != tx verdicts"
            );
            assert!(
                counts.iter().filter(|&&c| c > 0).count() > 1,
                "{lane:?}: all flows hashed to one backend: {counts:?}"
            );
        }
    }
}
