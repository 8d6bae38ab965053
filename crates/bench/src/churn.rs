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
use ebpf::maps::{MapDef, MapError, MapFd};
use ebpf::program::{ProgType, Program};
use safe_ext::Extension;
use tenancy::{HookInput, TenantId, TenantRegistry};

use crate::dispatch::make_packets;
use crate::engine::{splitmix64, Record, Scenario, Shard, ShardOut};
use crate::fleet::{tenant_of, tenant_shard, Fleet, FleetShard, FleetStats};
use crate::Lane;

/// The single attachment point every tenant uses.
pub const POINT: &str = "pkt";

/// Gives the churn storm its own victim draw.
pub const STORM_SALT: u64 = 0x5707_6d5a_1f5c_3a11;

/// Churn benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// The fleet; its items are the packets in the batch, and each tenant
    /// holds one map and one program.
    pub fleet: Fleet,
    /// One control-plane event fires before every `churn_every`-th packet
    /// (0 disables churn).
    pub churn_every: u64,
}

/// What a control-plane event does to its tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Hot upgrade the attachment to the next version.
    Upgrade,
    /// Unload the tenant entirely (maps included), then reload it at v1.
    Reload,
}

impl ChurnKind {
    /// Stable name for canonical log lines.
    pub fn name(&self) -> &'static str {
        match self {
            ChurnKind::Upgrade => "upgrade",
            ChurnKind::Reload => "reload",
        }
    }
}

/// One scheduled control-plane event: fires before packet `idx`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnEvent {
    /// Global packet index the event precedes.
    pub idx: u64,
    /// The tenant it targets.
    pub tenant: TenantId,
    /// What it does.
    pub kind: ChurnKind,
}

/// The deterministic churn schedule: an event before every
/// `churn_every`-th packet, targeting a seeded tenant; every third event
/// is a full unload/reload, the rest are hot upgrades.
pub fn churn_schedule(cfg: &ChurnConfig) -> Vec<ChurnEvent> {
    let mut out = Vec::new();
    if cfg.churn_every == 0 {
        return out;
    }
    let mut k = 0u64;
    loop {
        let idx = (k + 1) * cfg.churn_every;
        if idx >= cfg.fleet.items {
            return out;
        }
        out.push(ChurnEvent {
            idx,
            tenant: tenant_of(
                cfg.fleet.seed ^ 0x94d0_49bb_1331_11eb,
                idx,
                cfg.fleet.tenants,
            ),
            kind: if k % 3 == 2 {
                ChurnKind::Reload
            } else {
                ChurnKind::Upgrade
            },
        });
        k += 1;
    }
}

/// The per-item fault-plan seed (packets and events share the stream).
fn item_fault_seed(seed: u64, idx: u64) -> u64 {
    splitmix64(seed ^ idx.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x165a_15c4_0e3b_7bed)
}

/// One unit of churn work.
pub enum ChurnItem {
    /// A packet for `tenant`.
    Packet {
        /// Global packet index.
        idx: u64,
        /// The tenant it belongs to.
        tenant: TenantId,
        /// The payload.
        payload: Vec<u8>,
    },
    /// A control-plane event.
    Event(ChurnEvent),
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

/// Creates a resident tenant's counter map and attaches its v1 program.
fn setup_tenant(reg: &mut TenantRegistry<'_>, lane: Lane, tenant: TenantId) -> MapFd {
    let fd = reg
        .create_map(tenant, MapDef::array(&format!("ctr{tenant}"), 8, 4))
        .expect("tenant counter map fits the budget");
    let spec = lane.spec(|| counter_prog(fd, 1), || counter_ext(tenant, fd, 1));
    reg.attach(tenant, POINT, spec).expect("v1 attach");
    fd
}

impl Scenario for ChurnConfig {
    type Item = ChurnItem;
    type Stats = FleetStats;

    fn shards(&self) -> usize {
        self.fleet.shards
    }

    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, ChurnItem)> {
        let schedule = churn_schedule(self);
        let mut items = Vec::with_capacity(self.fleet.items as usize + schedule.len());
        let mut events = schedule.into_iter().peekable();
        for (i, payload) in make_packets(self.fleet.items as usize)
            .into_iter()
            .enumerate()
        {
            let idx = i as u64;
            while let Some(ev) = events.next_if(|ev| ev.idx == idx) {
                items.push((tenant_shard(ev.tenant, shards), ChurnItem::Event(ev)));
            }
            let tenant = tenant_of(self.fleet.seed, idx, self.fleet.tenants);
            items.push((
                tenant_shard(tenant, shards),
                ChurnItem::Packet {
                    idx,
                    tenant,
                    payload,
                },
            ));
        }
        items.into_iter()
    }

    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = ChurnItem>,
    ) -> Result<ShardOut<FleetStats>, MapError> {
        let seed = self.fleet.seed;
        let mut fds: Vec<MapFd> = vec![0; self.fleet.tenants as usize];
        let mut fs = FleetShard::boot(
            &self.fleet,
            self.fleet.storm(STORM_SALT),
            shard,
            |reg, t| {
                fds[t as usize] = setup_tenant(reg, lane, t);
            },
        );
        let mut records = Vec::new();
        for item in feed {
            match item {
                ChurnItem::Packet {
                    idx,
                    tenant,
                    payload,
                } => {
                    fs.arm(item_fault_seed(seed, idx), |s| s.targets(tenant, idx));
                    let out = fs.run(tenant, POINT, HookInput::Packet(&payload));
                    records.push(Record {
                        idx,
                        rank: 1,
                        line: format!("{idx}|P|{tenant}|{}|{}", out.verdict.label(), out.cost_ns),
                    });
                }
                ChurnItem::Event(ev) => {
                    fs.arm(item_fault_seed(seed, ev.idx) ^ 1, |_| false);
                    let t = ev.tenant;
                    let outcome = match ev.kind {
                        ChurnKind::Upgrade => fs.upgrade(t, POINT, |next| {
                            let fd = fds[t as usize];
                            lane.spec(|| counter_prog(fd, next), || counter_ext(t, fd, next))
                        }),
                        ChurnKind::Reload => {
                            fs.stats.events += 1;
                            match fs.reg.unload_tenant(t) {
                                Ok(()) => {
                                    fds[t as usize] = setup_tenant(&mut fs.reg, lane, t);
                                    fs.stats.reloads += 1;
                                    "v1".to_string()
                                }
                                Err(e) => format!("err:{e}"),
                            }
                        }
                    };
                    records.push(Record {
                        idx: ev.idx,
                        rank: 0,
                        line: format!("{}|E|{t}|{}|{outcome}", ev.idx, ev.kind.name()),
                    });
                }
            }
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
                storm_armed: storm,
                storm_victims: 3,
            },
            churn_every: 11,
        }
    }

    #[test]
    fn every_packet_runs_and_every_scheduled_event_applies() {
        for lane in Lane::ALL {
            for storm in [false, true] {
                let cfg = small(1, storm);
                let scheduled = churn_schedule(&cfg).len() as u64;
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
                storm_armed: false,
                storm_victims: 0,
            },
            churn_every: 16,
        };
        let report = engine::run(&cfg, Lane::SafeExt).unwrap();
        assert_eq!(report.stats.attached, 512);
        assert_eq!(
            report.stats.upgrades + report.stats.reloads,
            churn_schedule(&cfg).len() as u64
        );
        assert_eq!(report.stats.ok, 1024, "quiet fleet: every packet serves");
        assert!(report.cost.count == 1024);
    }
}
