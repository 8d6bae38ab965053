//! Control-plane churn under traffic: the multi-tenant benchmark.
//!
//! The dispatch and net scenarios load one program per shard and feed it
//! packets. This one exercises the [`tenancy`] control plane the way the
//! paper's fleet argument says production does: hundreds of tenants stay
//! attached while packets flow, and interleaved with the packet stream the
//! control plane hot-upgrades and unload/reloads tenants at a fixed rate.
//! Optionally a seeded quarantine *storm* ([`tenancy::Storm`]) drives a
//! victim subset past the watchdog through the fault-injection plane, so
//! their breakers trip, they serve refusals for a while, and the half-open
//! probe readmits them once the window passes.
//!
//! # Determinism contract
//!
//! The canonical artifact is the **churn log**: one line per packet
//! (`idx|P|tenant|verdict|cost_ns`) and one per control-plane event
//! (`idx|E|tenant|kind|outcome`), sorted by global index with events
//! ordering before the same-index packet. Its SHA-256 is byte-identical
//! at any shard count, storm armed or not: tenant steering and per-item
//! fault plans ([`crate::fleet`]) pin every source of nondeterminism, and
//! `cost_ns` is the virtual-clock advance across one run, which depends
//! only on that run's execution path.
//!
//! The merged audit fingerprint is replay determinism only (same config
//! twice → same bytes); it legitimately differs across shard counts.

use ebpf::asm::Asm;
use ebpf::helpers;
use ebpf::insn::*;
use ebpf::maps::{MapDef, MapFd};
use ebpf::program::{ProgType, Program};
use kernel_sim::splitmix64;
use safe_ext::Extension;
use tenancy::{HookInput, TenantId};

use crate::dispatch::make_packets;
use crate::engine::{DispatchError, Record, Scenario, Shard, ShardOut};
use crate::fleet::{ControlDraw, Fleet, FleetItem, FleetShard, FleetStats};
use crate::Lane;

/// The single attachment point every tenant uses.
pub const POINT: &str = "pkt";

/// Gives the churn storm its own victim draw.
pub const STORM_SALT: u64 = 0x5707_6d5a_1f5c_3a11;

/// The churn control plane: tenants drawn with their own salt, and every
/// third event a full unload/reload, the rest hot upgrades.
pub const CONTROL: ControlDraw = ControlDraw {
    salt: 0x94d0_49bb_1331_11eb,
    reloads: |k| k % 3 == 2,
};

/// Churn benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// The fleet; its items are the packets in the batch, its control
    /// events hot upgrades and unload/reloads ([`CONTROL`]), and each
    /// tenant holds one map and one program.
    pub fleet: Fleet,
}

/// The per-item fault-plan seed (packets and events share the stream).
fn item_fault_seed(seed: u64, idx: u64) -> u64 {
    splitmix64(seed ^ idx.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x165a_15c4_0e3b_7bed)
}

/// The per-tenant eBPF workload at `version`: bounds-check, count the
/// packet's protocol class in the tenant's array map, return the version
/// (so the canonical log pins which version served each packet).
fn counter_prog(fd: MapFd, version: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R2, Reg::R6, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R6, 8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 1)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R7, Reg::R2, 0)
        .alu64_imm(BPF_AND, Reg::R7, 3)
        .stx(BPF_W, Reg::R10, -4, Reg::R7)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JEQ, Reg::R0, 0, "out")
        .mov64_imm(Reg::R1, 1)
        .atomic(BPF_DW, Reg::R0, 0, Reg::R1, BPF_ATOMIC_ADD)
        .label("out")
        .mov64_imm(Reg::R0, version as i32)
        .exit()
        .build()
        .expect("counter program assembles");
    Program::new("tenant-counter", ProgType::SocketFilter, insns)
}

/// The same workload in the safe dialect.
fn counter_ext(tenant: TenantId, fd: MapFd, version: u32) -> Extension {
    Extension::new(
        &format!("tenant{tenant}-v{version}"),
        ProgType::SocketFilter,
        move |ctx| {
            let pkt = ctx.packet()?;
            let class = (pkt.load_u8(0)? & 3) as u32;
            ctx.array(fd)?.fetch_add_u64(class, 0, 1)?;
            Ok(version as u64)
        },
    )
}

impl Scenario for ChurnConfig {
    type Item = FleetItem<Vec<u8>>;
    type Stats = FleetStats;

    fn shards(&self) -> usize {
        self.fleet.shards
    }

    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, Self::Item)> {
        let packets = make_packets(self.fleet.items as usize);
        self.fleet.stream(shards, CONTROL, packets)
    }

    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = Self::Item>,
    ) -> Result<ShardOut<FleetStats>, DispatchError> {
        let seed = self.fleet.seed;
        let storm = self.fleet.storm(STORM_SALT);
        // A (re)loaded tenant gets a fresh counter map; upgrades keep it.
        let mut fds: Vec<MapFd> = vec![0; self.fleet.tenants as usize];
        let mut fs = FleetShard::boot(&self.fleet, storm, shard, POINT, move |reg, t, version| {
            if version == 1 {
                fds[t as usize] = reg
                    .create_map(t, MapDef::array(&format!("ctr{t}"), 8, 4))
                    .expect("tenant counter map fits the budget");
            }
            let fd = fds[t as usize];
            lane.spec(|| counter_prog(fd, version), || counter_ext(t, fd, version))
        });
        let mut records = Vec::new();
        for item in feed {
            records.push(match item {
                FleetItem::Work {
                    idx,
                    tenant,
                    payload,
                } => {
                    fs.arm(item_fault_seed(seed, idx), |s| s.targets(tenant, idx));
                    let out = fs.run(tenant, HookInput::Packet(&payload));
                    Record {
                        idx,
                        rank: 1,
                        line: format!("{idx}|P|{tenant}|{}|{}", out.verdict.label(), out.cost_ns),
                    }
                }
                FleetItem::Control(ev) => fs.apply(&ev, item_fault_seed(seed, ev.idx)),
            });
        }
        let summary = format!(
            "churn shard {}: tenants={} attached={} records={} upgrades={} reloads={}",
            shard.id,
            fs.reg.tenant_count(),
            fs.reg.attached_count(),
            records.len(),
            fs.stats.upgrades,
            fs.stats.reloads,
        );
        Ok(ShardOut {
            stats: fs.finish(),
            records,
            summary,
            trace: Vec::new(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine;

    /// The scenario's small test configuration.
    pub(crate) fn small(shards: usize, storm: bool) -> ChurnConfig {
        ChurnConfig {
            fleet: Fleet {
                shards,
                seed: 0xc0ffee,
                tenants: 12,
                items: 360,
                control_every: 11,
                storm_armed: storm,
                storm_victims: 3,
            },
        }
    }

    #[test]
    fn every_packet_runs_and_every_scheduled_event_applies() {
        for lane in Lane::ALL {
            for storm in [false, true] {
                let cfg = small(1, storm);
                let scheduled = cfg.fleet.schedule(CONTROL).count() as u64;
                let s = engine::run(&cfg, lane).unwrap().stats;
                assert_eq!(s.runs(), 360, "{lane:?} storm={storm}: every packet runs");
                assert!(scheduled > 0);
                assert_eq!(s.events, scheduled, "{lane:?} storm={storm}: events lost");
                assert_eq!(s.upgrades + s.reloads, scheduled, "{lane:?} storm={storm}");
            }
        }
    }

    #[test]
    fn storm_kills_only_victims_and_they_recover() {
        for lane in Lane::ALL {
            let cfg = small(4, true);
            let storm = cfg.fleet.storm(STORM_SALT).unwrap();
            let report = engine::run(&cfg, lane).unwrap();
            assert!(report.stats.killed > 0, "{lane:?}: storm never killed");
            assert!(report.stats.refused > 0, "{lane:?}: breakers never tripped");
            assert!(report.metrics.quarantine_trips > 0);

            let (_, window_end) = cfg.fleet.storm_window();
            let mut recovered = false;
            for line in report.canonical_log.lines() {
                let mut parts = line.split('|');
                let idx: u64 = parts.next().unwrap().parse().unwrap();
                if parts.next() != Some("P") {
                    continue;
                }
                let tenant: TenantId = parts.next().unwrap().parse().unwrap();
                let verdict = parts.next().unwrap();
                if verdict == "kill" || verdict == "refused" {
                    assert!(
                        storm.is_victim(tenant),
                        "{lane:?}: bystander tenant {tenant} hit at idx {idx}: {verdict}"
                    );
                }
                if verdict.starts_with("ok") && storm.is_victim(tenant) && idx > window_end {
                    recovered = true;
                }
            }
            assert!(
                recovered,
                "{lane:?}: no victim served again after the storm window"
            );
        }
    }

    #[test]
    fn fleet_scales_to_hundreds_of_tenants() {
        let cfg = ChurnConfig {
            fleet: Fleet {
                shards: 2,
                seed: 9,
                tenants: 512,
                items: 1024,
                control_every: 16,
                storm_armed: false,
                storm_victims: 0,
            },
        };
        let report = engine::run(&cfg, Lane::SafeExt).unwrap();
        assert_eq!(report.stats.attached, 512);
        assert_eq!(
            report.stats.upgrades + report.stats.reloads,
            cfg.fleet.schedule(CONTROL).count() as u64
        );
        assert_eq!(report.stats.ok, 1024, "quiet fleet: every packet serves");
        assert!(report.cost.count == 1024);
    }
}
