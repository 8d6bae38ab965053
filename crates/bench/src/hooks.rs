//! Hook-point diversity under tenancy: kprobe, LSM, and sched-ext.
//!
//! The paper's fleet argument is not only about packet filters: real
//! deployments attach extensions at observability hooks, policy hooks,
//! and scheduler hooks. This scenario drives one workload per hook
//! family through the full multi-tenant control plane ([`tenancy`]) on
//! every lane, with the same breaker, storm, and hot-upgrade machinery as
//! [`crate::churn`] ([`crate::fleet`]):
//!
//! - **Kprobe** ([`HookFamily::Kprobe`]): each work item performs a seeded
//!   mix of kernel-sim substrate operations (lock acquire, refcount
//!   drop, skb alloc/free, RCU grace period) with tracing enabled, then
//!   drains the trace ring and maps its instants to probe fires via
//!   [`ProbePoint::from_trace`] — the trace layer *is* the probe source.
//!   Each fire runs the tenant's probe program, which folds a
//!   ctx-supplied value into the per-CPU log2 histograms
//!   (`bpf_hist_record` / [`safe_ext`]'s `hist_record`) and returns
//!   `version * 256 + bucket`.
//! - **LSM** ([`HookFamily::Lsm`]): each item gates one simulated
//!   operation (map-create, prog-load, fd-access) through the tenant's
//!   policy program. Deny verdicts — including *fail-closed* denials
//!   when the policy program itself is killed or quarantined — are
//!   audited as [`EventKind::PolicyDenied`] and counted.
//! - **Sched** ([`HookFamily::Sched`]): each item builds a seeded
//!   [`SchedBoard`] and runs a burst of pick-next-task decisions through
//!   the tenant's scheduler program; a killed, refused, or
//!   out-of-contract pick falls back to the default (min-vruntime)
//!   policy and is counted as a fallback.
//!
//! # Determinism contract
//!
//! The canonical artifact is the **hooks log**: one line per work item
//! and one per hot-upgrade event, sorted by global index with events
//! ordering before the same-index item. Unlike the churn log it carries
//! **no costs**: every field is a pure function of `(seed, idx)` and the
//! tenant's attachment version, so the fault-free log is byte-identical
//! not only across shard counts but across *backends and JIT lanes* —
//! the cross-dialect differential check. Probe fires embed the returned
//! bucket (log2 of a ctx value, never shard-local histogram state);
//! trace instants carry operation codes, never per-kernel ids.

use std::iter;

use ebpf::asm::Asm;
use ebpf::helpers;
use ebpf::insn::*;
use ebpf::program::{ProgType, Program};
use kernel_sim::audit::EventKind;
use kernel_sim::hooks::{LSM_ALLOW, LSM_DENY};
use kernel_sim::locks::LockId;
use kernel_sim::refcount::{ObjId, ObjKind};
use kernel_sim::{splitmix64, LsmHook, Metrics, ProbePoint, SchedBoard, SchedChoice};
use safe_ext::Extension;
use tenancy::{HookInput, RunVerdict, TenantId};

use crate::engine::{DispatchError, Record, Scenario, Shard, ShardOut};
use crate::fleet::{ControlDraw, Fleet, FleetItem, FleetShard, FleetStats};
use crate::Lane;

/// Gives the hooks storm its own victim draw.
pub const STORM_SALT: u64 = 0x6b8b_4567_327b_23c6;

/// The hooks control plane: tenants drawn with their own salt, and every
/// event a hot upgrade.
pub const CONTROL: ControlDraw = ControlDraw {
    salt: 0xa24b_aed4_963e_e407,
    reloads: |_| false,
};

/// Which hook family a run exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookFamily {
    /// Observability: trace-fed probe fires into per-CPU histograms.
    Kprobe,
    /// Policy: allow/deny gating of simulated kernel operations.
    Lsm,
    /// Scheduling: pick-next-task with default-policy fallback.
    Sched,
}

impl HookFamily {
    /// All hook families.
    pub const ALL: [HookFamily; 3] = [HookFamily::Kprobe, HookFamily::Lsm, HookFamily::Sched];

    /// Stable name for logs and JSON rows.
    pub fn name(&self) -> &'static str {
        match self {
            HookFamily::Kprobe => "kprobe",
            HookFamily::Lsm => "lsm",
            HookFamily::Sched => "sched",
        }
    }

    /// The attachment point tenants use for this family.
    pub fn point(&self) -> &'static str {
        match self {
            HookFamily::Kprobe => "probe",
            HookFamily::Lsm => "policy",
            HookFamily::Sched => "sched",
        }
    }
}

/// Hooks benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct HooksConfig {
    /// The hook family to run.
    pub family: HookFamily,
    /// The fleet; its items are work items, its control events hot
    /// upgrades ([`CONTROL`]).
    pub fleet: Fleet,
}

/// The per-item fault-plan seed (items and events share the stream).
fn item_fault_seed(seed: u64, idx: u64) -> u64 {
    splitmix64(seed ^ idx.wrapping_mul(0x9e6c_63d0_876a_9a47) ^ 0x2b99_2ddf_a232_49d6)
}

/// The seeded per-item content hash everything else derives from.
fn item_hash(seed: u64, idx: u64) -> u64 {
    splitmix64(seed ^ idx.wrapping_mul(0xe703_7ed1_a0b4_28db) ^ 0x8ebc_6af0_9c88_c6e3)
}

/// The per-tenant kprobe program at `version`: reads the probe point id
/// and the sampled value from the pt_regs-like ctx, folds the value into
/// histogram slot `point & 3`, and returns `version * 256 + bucket` so
/// the canonical log pins both the serving version and the log2 bucket.
fn probe_prog(version: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1)
        .ldx(BPF_DW, Reg::R7, Reg::R6, 0)
        .ldx(BPF_DW, Reg::R8, Reg::R6, 8)
        .mov64_reg(Reg::R1, Reg::R7)
        .alu64_imm(BPF_AND, Reg::R1, 3)
        .mov64_reg(Reg::R2, Reg::R8)
        .call_helper(helpers::BPF_HIST_RECORD as i32)
        .alu64_imm(BPF_ADD, Reg::R0, (version as i32) << 8)
        .exit()
        .build()
        .expect("probe program assembles");
    Program::new("hook-probe", ProgType::Kprobe, insns)
}

/// The same probe workload in the safe dialect.
fn probe_ext(tenant: TenantId, version: u32) -> Extension {
    Extension::new(
        &format!("t{tenant}-probe-v{version}"),
        ProgType::Kprobe,
        move |ctx| {
            let point = ctx.kprobe_arg(0)?;
            let value = ctx.kprobe_arg(1)?;
            let bucket = ctx.hist_record(point & 3, value)?;
            Ok((version as u64) * 256 + bucket)
        },
    )
}

/// The LSM policy program: denies iff `(subject ^ attr) & 7 == 7` (a
/// deterministic one-in-eight). Both exits return constants, so the
/// verifier proves the `[0, 1]` LSM return contract. Versions are not
/// encoded in the return value (the contract forbids it); the scenario
/// logs the serving version from the control plane instead.
fn policy_prog(_version: u32) -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 8)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 16)
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

/// The same policy in the safe dialect.
fn policy_ext(tenant: TenantId, version: u32) -> Extension {
    Extension::new(
        &format!("t{tenant}-policy-v{version}"),
        ProgType::Lsm,
        move |ctx| {
            let subject = ctx.lsm_field(1)?;
            let attr = ctx.lsm_field(2)?;
            Ok(if (subject ^ attr) & 7 == 7 {
                LSM_DENY
            } else {
                LSM_ALLOW
            })
        },
    )
}

/// The sched-ext pick-next-task program: defers to the default policy
/// when the candidates' vruntime sum hits a 1-in-7 residue, otherwise
/// picks by candidate-id parity. Every exit is a constant in `[0, 2]`,
/// satisfying the verifier's sched-ext return contract.
fn sched_prog(_version: u32) -> Program {
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

/// The same scheduler in the safe dialect.
fn sched_ext_prog(tenant: TenantId, version: u32) -> Extension {
    Extension::new(
        &format!("t{tenant}-sched-v{version}"),
        ProgType::SchedExt,
        move |ctx| {
            let c0_id = ctx.sched_field(2)?;
            let c0_vr = ctx.sched_field(3)?;
            let c1_id = ctx.sched_field(4)?;
            let c1_vr = ctx.sched_field(5)?;
            Ok(if (c0_vr.wrapping_add(c1_vr)) % 7 == 0 {
                2
            } else if (c0_id ^ c1_id) & 1 == 1 {
                1
            } else {
                0
            })
        },
    )
}

impl HookFamily {
    /// The family's eBPF program at `version`.
    fn program(self, version: u32) -> Program {
        match self {
            HookFamily::Kprobe => probe_prog(version),
            HookFamily::Lsm => policy_prog(version),
            HookFamily::Sched => sched_prog(version),
        }
    }

    /// The family's safe-dialect mirror for `tenant` at `version`.
    fn extension(self, tenant: TenantId, version: u32) -> Extension {
        match self {
            HookFamily::Kprobe => probe_ext(tenant, version),
            HookFamily::Lsm => policy_ext(tenant, version),
            HookFamily::Sched => sched_ext_prog(tenant, version),
        }
    }
}

/// The label a run verdict contributes to a canonical log element. `Ok`
/// embeds the return value (version and bucket for probes); the others
/// are bare words, because a killed run's return value is garbage.
fn verdict_label(v: &RunVerdict) -> String {
    match v {
        RunVerdict::Ok(ret) => format!("ok{ret}"),
        RunVerdict::Refused => "refused".to_string(),
        RunVerdict::Killed => "kill".to_string(),
        RunVerdict::Error => "err".to_string(),
    }
}

/// Substrate fixtures the kprobe op mix runs against.
struct Fixtures {
    lock: LockId,
    obj: ObjId,
}

impl HooksConfig {
    /// Kprobe item: a seeded mix of substrate ops with tracing on, then
    /// one probe run per trace instant that maps to a probe point.
    fn kprobe(&self, fs: &mut FleetShard<'_>, fx: &Fixtures, idx: u64, tenant: TenantId) -> String {
        let kernel = &fs.shard().kernel;
        let seed = self.fleet.seed;
        let h = item_hash(seed, idx);
        // Substrate ops run under a quiet plan: the storm aims at
        // extension runs, not at the kernel primitives that *generate*
        // the probe stream.
        fs.arm(item_fault_seed(seed, idx) ^ 2, |_| false);
        kernel.trace.enable();
        kernel.trace.clear();
        {
            let _rcu = kernel.rcu.read_lock();
            // Unconditional refcount cycle: every item fires at least the
            // ref-drop probe.
            kernel.refs.get(fx.obj).expect("fixture object");
            kernel.refs.put(fx.obj).expect("fixture object");
            if h & 1 == 0 {
                kernel
                    .locks
                    .acquire(tenant as u64, fx.lock)
                    .expect("free lock");
                kernel
                    .locks
                    .release(tenant as u64, fx.lock)
                    .expect("held lock");
            }
        }
        if h & 2 == 0 {
            let payload = [(idx & 0xff) as u8; 8];
            let skb = kernel
                .objects
                .create_skb(&kernel.mem, &payload)
                .expect("skb fits");
            kernel
                .objects
                .free_skb(&kernel.mem, skb.id)
                .expect("skb just created");
        }
        if h.is_multiple_of(5) {
            kernel.rcu.synchronize(&kernel.audit).expect("no readers");
        }
        let events = kernel.trace.take();
        kernel.trace.disable();
        let fires: Vec<ProbePoint> = events
            .iter()
            .filter_map(ProbePoint::from_trace)
            .take(6)
            .collect();

        fs.arm(item_fault_seed(seed, idx), |s| s.targets(tenant, idx));
        let mut parts = Vec::with_capacity(fires.len());
        for (ord, probe) in fires.iter().enumerate() {
            let value = (probe.id() + 1) * 64 + (splitmix64(h ^ (ord as u64) << 16) & 63);
            let regs = [probe.id(), value, ord as u64, idx, 0, 0, 0, 0];
            let out = fs.run(tenant, HookInput::Kprobe(regs));
            Metrics::bump(&kernel.metrics.probe_fires, 1);
            parts.push(format!("{}:{}", probe.label(), verdict_label(&out.verdict)));
        }
        format!("{idx}|K|{tenant}|{}", parts.join(","))
    }

    /// LSM item: one policy decision; anything but an allow denies, and a
    /// killed, refused or erroring policy program denies fail-closed.
    fn lsm(&self, fs: &mut FleetShard<'_>, idx: u64, tenant: TenantId) -> String {
        let kernel = &fs.shard().kernel;
        let h = item_hash(self.fleet.seed, idx);
        fs.arm(item_fault_seed(self.fleet.seed, idx), |s| {
            s.targets(tenant, idx)
        });
        let hook = LsmHook::from_id(idx % 3).expect("dense hook ids");
        let subject = h & 0xffff;
        let attr = (h >> 16) & 0xffff;
        let out = fs.run(tenant, HookInput::Lsm([hook.id(), subject, attr, idx]));
        let verdict = match out.verdict {
            RunVerdict::Ok(LSM_ALLOW) => "allow",
            RunVerdict::Ok(_) => "deny",
            _ => "deny-closed",
        };
        if verdict != "allow" {
            Metrics::bump(&kernel.metrics.policy_denies, 1);
            kernel.audit.record(
                kernel.clock.now_ns(),
                EventKind::PolicyDenied,
                format!(
                    "lsm: tenant {tenant} {} denied ({verdict}) subject={subject:#x}",
                    hook.label()
                ),
            );
        }
        let version = fs.version(tenant);
        format!("{idx}|L|{tenant}|{}|{verdict}|v{version}", hook.label())
    }

    /// Sched item: a burst of four pick-next-task decisions on a seeded
    /// board; a killed, refused or out-of-contract pick falls back to the
    /// default policy.
    fn sched(&self, fs: &mut FleetShard<'_>, idx: u64, tenant: TenantId) -> String {
        let kernel = &fs.shard().kernel;
        let seed = self.fleet.seed;
        let h = item_hash(seed, idx);
        fs.arm(item_fault_seed(seed, idx), |s| s.targets(tenant, idx));
        let mut board = SchedBoard::seeded(
            seed ^ idx.wrapping_mul(0xff51_afd7_ed55_8ccd),
            tenant as u64 & 3,
            2 + (h % 7) as usize,
        );
        let mut parts = Vec::with_capacity(4);
        for _ in 0..4 {
            let cand = board.candidates();
            let out = fs.run(tenant, HookInput::Sched(cand.ctx()));
            Metrics::bump(&kernel.metrics.sched_picks, 1);
            let choice = match out.verdict {
                RunVerdict::Ok(ret) => SchedChoice::from_ret(ret),
                _ => None,
            };
            parts.push(match choice {
                Some(SchedChoice::Default) => {
                    format!("d{}", board.apply(&cand, SchedChoice::Default))
                }
                Some(choice) => format!("e{}", board.apply(&cand, choice)),
                None => {
                    Metrics::bump(&kernel.metrics.sched_fallbacks, 1);
                    format!("f{}", board.apply_fallback(&cand))
                }
            });
        }
        let version = fs.version(tenant);
        format!("{idx}|S|{tenant}|v{version}|{}", parts.join(","))
    }
}

impl Scenario for HooksConfig {
    type Item = FleetItem<()>;
    type Stats = FleetStats;

    fn shards(&self) -> usize {
        self.fleet.shards
    }

    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, Self::Item)> {
        self.fleet.stream(shards, CONTROL, iter::repeat(()))
    }

    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = Self::Item>,
    ) -> Result<ShardOut<FleetStats>, DispatchError> {
        let family = self.family;
        let mut fs = FleetShard::boot(
            &self.fleet,
            self.fleet.storm(STORM_SALT),
            shard,
            family.point(),
            move |_, tenant, version| {
                lane.spec(
                    || family.program(version),
                    || family.extension(tenant, version),
                )
            },
        );
        let kernel = &shard.kernel;
        let fx = Fixtures {
            lock: kernel.locks.create("hooks-probe"),
            obj: kernel.refs.register(ObjKind::Other, 1),
        };
        let mut records = Vec::new();
        for item in feed {
            records.push(match item {
                FleetItem::Work { idx, tenant, .. } => {
                    let line = match family {
                        HookFamily::Kprobe => self.kprobe(&mut fs, &fx, idx, tenant),
                        HookFamily::Lsm => self.lsm(&mut fs, idx, tenant),
                        HookFamily::Sched => self.sched(&mut fs, idx, tenant),
                    };
                    Record { idx, rank: 1, line }
                }
                FleetItem::Control(ev) => fs.apply(&ev, item_fault_seed(self.fleet.seed, ev.idx)),
            });
        }
        let summary = format!(
            "hooks shard {}: scenario={} tenants={} attached={} records={} upgrades={}",
            shard.id,
            family.name(),
            fs.reg.tenant_count(),
            fs.reg.attached_count(),
            records.len(),
            fs.stats.upgrades,
        );
        fs.stats.hist_samples = (0..kernel_sim::hooks::HIST_SLOTS)
            .map(|slot| kernel.hooks.merged(slot).count)
            .sum();
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
    use crate::engine::{self, RunReport};

    /// The scenario's small test configuration.
    pub(crate) fn small(family: HookFamily, shards: usize, storm: bool) -> HooksConfig {
        HooksConfig {
            family,
            fleet: Fleet {
                shards,
                seed: 0x600c5,
                tenants: 10,
                items: 240,
                control_every: 17,
                storm_armed: storm,
                storm_victims: 3,
            },
        }
    }

    fn run(lane: Lane, cfg: &HooksConfig) -> RunReport<FleetStats> {
        engine::run(cfg, lane).unwrap()
    }

    #[test]
    fn fault_free_log_is_backend_and_jit_invariant() {
        for family in HookFamily::ALL {
            let reference = run(Lane::Ebpf, &small(family, 2, false));
            for lane in Lane::ALL {
                let r = run(lane, &small(family, 2, false));
                assert_eq!(
                    reference.canonical_log, r.canonical_log,
                    "{family:?}: {lane:?} diverged from the verified eBPF lane"
                );
            }
        }
    }

    #[test]
    fn every_scheduled_upgrade_applies_quiet_and_under_storm() {
        for family in HookFamily::ALL {
            for lane in Lane::ALL {
                for storm in [false, true] {
                    let cfg = small(family, 1, storm);
                    let scheduled = (cfg.fleet.items - 1) / cfg.fleet.control_every;
                    let s = run(lane, &cfg).stats;
                    let at = format!("{family:?}/{lane:?} storm={storm}");
                    assert!(s.runs() > 0, "{at}: nothing ran");
                    assert_eq!(s.events, scheduled, "{at}: upgrade events lost");
                    assert_eq!(s.upgrades, scheduled, "{at}: hot upgrades failed");
                }
            }
        }
    }

    #[test]
    fn kprobe_histograms_absorb_every_fire() {
        let r = run(Lane::SafeExt, &small(HookFamily::Kprobe, 2, false));
        assert!(r.metrics.probe_fires > 0);
        assert_eq!(
            r.stats.hist_samples, r.stats.ok,
            "every successful probe run records exactly one histogram sample"
        );
        assert_eq!(r.metrics.probe_fires, r.stats.runs());
    }

    #[test]
    fn lsm_denies_are_audited_and_fail_closed_under_storm() {
        let quiet = run(Lane::Ebpf, &small(HookFamily::Lsm, 2, false));
        assert!(quiet.metrics.policy_denies > 0, "deny residue never hit");
        assert!(quiet.stats.killed == 0 && quiet.stats.refused == 0);

        let storm = run(Lane::Ebpf, &small(HookFamily::Lsm, 2, true));
        assert!(
            storm.stats.killed > 0,
            "storm never killed a policy program"
        );
        assert!(
            storm.metrics.policy_denies > quiet.metrics.policy_denies,
            "killed policy programs must deny fail-closed"
        );
        assert!(storm
            .canonical_log
            .lines()
            .any(|l| l.contains("|deny-closed|")));
    }

    #[test]
    fn sched_falls_back_when_the_extension_is_killed() {
        let quiet = run(Lane::SafeExt, &small(HookFamily::Sched, 2, false));
        assert!(quiet.metrics.sched_picks > 0);
        assert_eq!(
            quiet.metrics.sched_fallbacks, 0,
            "quiet picks never fall back"
        );

        let storm = run(Lane::SafeExt, &small(HookFamily::Sched, 2, true));
        assert!(storm.stats.killed > 0, "storm never killed a sched program");
        assert!(
            storm.metrics.sched_fallbacks > 0,
            "kills must fall back to default"
        );
        assert_eq!(storm.metrics.sched_picks, storm.stats.runs());
        assert!(storm.canonical_log.lines().any(|l| l.contains("f")));
    }
}
