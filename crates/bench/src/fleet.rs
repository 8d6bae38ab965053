//! The tenant fleet [`crate::churn`] and [`crate::hooks`] share: tenant
//! steering, the seeded quarantine storm, per-item fault plans, hot
//! upgrades and verdict tallies over the [`tenancy`] control plane.
//!
//! Packets, work items and control-plane events all route to
//! `shard = mix(tenant) % shards`, so each tenant's state machine
//! (attachment version, breaker counters, probe cadence, map contents)
//! sees exactly the same global-order subsequence at any shard count.
//! When the storm is armed every item re-arms a fresh [`FaultPlan`]
//! seeded by its global index, so injection decisions are a pure function
//! of `(seed, idx)`, never of what else shares the shard.

use kernel_sim::{FaultPlan, FaultPlanConfig};
use tenancy::{
    storm_fault_config, HookInput, ProgramSpec, RunOutcome, RunVerdict, Storm, TenantBudget,
    TenantId, TenantRegistry,
};

use crate::engine::{self, splitmix64, Shard};

/// The knobs every fleet scenario shares.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Worker shards (1 = the sequential baseline).
    pub shards: usize,
    /// Master seed: tenant steering, item content, storm selection and
    /// fault plans all derive from it.
    pub seed: u64,
    /// Concurrently attached tenants.
    pub tenants: u32,
    /// Work items (for churn: packets) in the batch.
    pub items: u64,
    /// Arm the seeded quarantine storm.
    pub storm_armed: bool,
    /// How many victim tenants the storm picks.
    pub storm_victims: u32,
}

impl Fleet {
    /// The storm's item-index window: the middle half of the batch, so
    /// victims demonstrably serve before it and recover after it.
    pub fn storm_window(&self) -> (u64, u64) {
        (self.items / 4, self.items - self.items / 4)
    }

    /// The armed storm, if any; `salt` gives each scenario its own
    /// victim draw.
    pub fn storm(&self, salt: u64) -> Option<Storm> {
        self.storm_armed.then(|| {
            Storm::seeded(
                self.seed ^ salt,
                self.tenants,
                self.storm_victims,
                self.storm_window(),
            )
        })
    }
}

/// The tenant item `idx` belongs to: a pure function of `(seed, idx)`.
pub fn tenant_of(seed: u64, idx: u64, tenants: u32) -> TenantId {
    (splitmix64(seed ^ idx.wrapping_mul(0x2545_f491_4f6c_dd1d)) % tenants.max(1) as u64) as TenantId
}

/// The shard a tenant (and everything belonging to it) is steered to.
pub fn tenant_shard(tenant: TenantId, shards: usize) -> usize {
    (splitmix64(0xc2b2_ae3d_27d4_eb4f ^ tenant as u64) % shards.max(1) as u64) as usize
}

/// Per-shard fleet tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Runs that returned a value.
    pub ok: u64,
    /// Runs refused at admission (tripped breaker).
    pub refused: u64,
    /// Runs killed (watchdog or abort; counts toward breakers).
    pub killed: u64,
    /// Ordinary errors (safe dialect only).
    pub errors: u64,
    /// Control-plane events applied, successful or not.
    pub events: u64,
    /// Hot upgrades that succeeded.
    pub upgrades: u64,
    /// Unload-and-reload events that succeeded.
    pub reloads: u64,
    /// Attachments live at the end of the batch: the "concurrently
    /// loaded tenants" figure.
    pub attached: u64,
    /// Samples in the per-CPU hook histograms, summed over slots (kprobe
    /// scenario; shard-local, *not* in the canonical log).
    pub hist_samples: u64,
}

impl FleetStats {
    /// Tallies one run verdict.
    pub fn note(&mut self, v: &RunVerdict) {
        match v {
            RunVerdict::Ok(_) => self.ok += 1,
            RunVerdict::Refused => self.refused += 1,
            RunVerdict::Killed => self.killed += 1,
            RunVerdict::Error => self.errors += 1,
        }
    }

    /// Extension runs tallied.
    pub fn runs(&self) -> u64 {
        self.ok + self.refused + self.killed + self.errors
    }

    /// Asserts the breaker's shape: a storm kills and trips breakers, a
    /// quiet run does neither.
    pub fn assert_storm(&self, storm: bool) {
        if storm {
            assert!(self.killed > 0, "storm run without kills");
            assert!(self.refused > 0, "storm run without refusals");
        } else {
            assert_eq!(self.killed, 0, "quiet run with kills");
            assert_eq!(self.refused, 0, "quiet run with refusals");
        }
    }
}

impl engine::Stats for FleetStats {
    fn merge(&mut self, o: &Self) {
        self.ok += o.ok;
        self.refused += o.refused;
        self.killed += o.killed;
        self.errors += o.errors;
        self.events += o.events;
        self.upgrades += o.upgrades;
        self.reloads += o.reloads;
        self.attached += o.attached;
        self.hist_samples += o.hist_samples;
    }
}

/// One shard's slice of the fleet: a registry holding every tenant, with
/// only the tenants steered here attached.
pub struct FleetShard<'s> {
    /// The shard's control plane.
    pub reg: TenantRegistry<'s>,
    /// The shard's tallies.
    pub stats: FleetStats,
    shard: &'s Shard,
    storm: Option<Storm>,
}

impl<'s> FleetShard<'s> {
    /// Registers the whole fleet in id order (ids must be dense and
    /// globally consistent across shards) and calls `attach` for each
    /// tenant steered to `shard`.
    pub fn boot(
        fleet: &Fleet,
        storm: Option<Storm>,
        shard: &'s Shard,
        mut attach: impl FnMut(&mut TenantRegistry<'s>, TenantId),
    ) -> Self {
        let mut reg = TenantRegistry::new(&shard.kernel, &shard.maps, &shard.helpers);
        for t in 0..fleet.tenants {
            reg.register(&format!("tenant{t}"), TenantBudget::small())
                .expect("fresh registry");
            if tenant_shard(t, fleet.shards) == shard.id {
                attach(&mut reg, t);
            }
        }
        FleetShard {
            reg,
            stats: FleetStats::default(),
            shard,
            storm,
        }
    }

    /// The shard the slice lives on.
    pub fn shard(&self) -> &'s Shard {
        self.shard
    }

    /// Runs `tenant`'s program at `point` on `input`, recording its cost
    /// in the shard's sketch and tallying its verdict.
    pub fn run(&mut self, tenant: TenantId, point: &str, input: HookInput<'_>) -> RunOutcome {
        let out = self
            .reg
            .run_input(tenant, point, input)
            .expect("resident tenant serves its own items");
        self.shard.cost.record(out.cost_ns);
        self.stats.note(&out.verdict);
        out
    }

    /// Re-arms a fresh fault plan seeded `seed` when the storm is armed:
    /// the storm's config when `hit` says it targets the coming run,
    /// quiet otherwise (control-plane ops and substrate work always run
    /// quiet, so leftover storm state can't leak into an RCU drain).
    /// Without a storm nothing is armed.
    pub fn arm(&self, seed: u64, hit: impl FnOnce(&Storm) -> bool) {
        if let Some(storm) = &self.storm {
            let fc = if hit(storm) {
                storm_fault_config()
            } else {
                FaultPlanConfig::quiet()
            };
            self.shard
                .kernel
                .arm_fault_plan(FaultPlan::with_config(seed, fc));
        }
    }

    /// Hot-upgrades `tenant` at `point` to its next version; returns the
    /// canonical outcome, `v<next>` or `err:<error>`.
    pub fn upgrade(
        &mut self,
        tenant: TenantId,
        point: &str,
        spec: impl FnOnce(u32) -> ProgramSpec,
    ) -> String {
        self.stats.events += 1;
        let next = self.reg.version(tenant, point).expect("attached") + 1;
        match self.reg.upgrade(tenant, point, spec(next)) {
            Ok(()) => {
                self.stats.upgrades += 1;
                format!("v{next}")
            }
            Err(e) => format!("err:{e}"),
        }
    }

    /// Closes the shard's tallies.
    pub fn finish(mut self) -> FleetStats {
        self.stats.attached = self.reg.attached_count() as u64;
        self.stats
    }
}
