//! The tenant fleet [`crate::churn`] and [`crate::hooks`] share: tenant
//! steering, one item stream of work items and control-plane events, the
//! seeded quarantine storm, per-item fault plans, hot upgrades and
//! reloads, and verdict tallies over the [`tenancy`] control plane.
//!
//! Work items and control-plane events all route to
//! `shard = mix(tenant) % shards`, so each tenant's state machine
//! (attachment version, breaker counters, probe cadence, map contents)
//! sees exactly the same global-order subsequence at any shard count.
//! When the storm is armed every item re-arms a fresh [`FaultPlan`]
//! seeded by its global index, so injection decisions are a pure function
//! of `(seed, idx)`, never of what else shares the shard.

use std::iter;

use kernel_sim::{splitmix64, FaultPlan, FaultPlanConfig};
use tenancy::{
    storm_fault_config, HookInput, ProgramSpec, RunOutcome, RunVerdict, Storm, TenantBudget,
    TenantId, TenantRegistry,
};

use crate::engine::{self, Record, Shard};

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
    /// One control-plane event fires before every `control_every`-th
    /// work item (0 disables them).
    pub control_every: u64,
    /// Arm the seeded quarantine storm.
    pub storm_armed: bool,
    /// How many victim tenants the storm picks.
    pub storm_victims: u32,
}

/// How a scenario draws its control-plane events.
#[derive(Debug, Clone, Copy)]
pub struct ControlDraw {
    /// Gives the scenario its own tenant draw.
    pub salt: u64,
    /// Whether the `k`-th event (from 0) unloads and reloads its tenant;
    /// every other event hot-upgrades it.
    pub reloads: fn(u64) -> bool,
}

/// A scheduled control-plane event: fires before work item `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEvent {
    /// Global index of the work item the event precedes.
    pub idx: u64,
    /// The tenant it targets.
    pub tenant: TenantId,
    /// Unload the tenant entirely (maps included), then reload it at v1,
    /// instead of hot-upgrading it to its next version.
    pub reload: bool,
}

impl ControlEvent {
    /// Stable name of what the event does, for canonical records.
    pub fn kind(&self) -> &'static str {
        if self.reload {
            "reload"
        } else {
            "upgrade"
        }
    }
}

/// One unit of fleet work, as fed to a shard.
pub enum FleetItem<W> {
    /// Work item `idx` for `tenant`.
    Work {
        /// Global item index.
        idx: u64,
        /// The tenant it belongs to.
        tenant: TenantId,
        /// What the scenario runs (for churn: the packet).
        payload: W,
    },
    /// A control-plane event.
    Control(ControlEvent),
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

    /// The control-plane schedule: one event before every
    /// `control_every`-th work item (none before item 0), each targeting
    /// a tenant drawn from the seed and `draw.salt`.
    pub fn schedule(&self, draw: ControlDraw) -> impl Iterator<Item = ControlEvent> {
        let Fleet {
            seed,
            tenants,
            control_every: every,
            ..
        } = *self;
        let events = self.items.saturating_sub(1).checked_div(every).unwrap_or(0);
        (0..events).map(move |k| {
            let idx = (k + 1) * every;
            ControlEvent {
                idx,
                tenant: tenant_of(seed ^ draw.salt, idx, tenants),
                reload: (draw.reloads)(k),
            }
        })
    }

    /// Every item in global order, each tagged with its tenant's shard:
    /// work item `idx` (for a tenant drawn from the seed and `idx`,
    /// carrying the `idx`-th of `payloads`) preceded by the control event
    /// scheduled before it, if any.
    pub fn stream<W>(
        &self,
        shards: usize,
        draw: ControlDraw,
        payloads: impl IntoIterator<Item = W>,
    ) -> impl Iterator<Item = (usize, FleetItem<W>)> {
        let Fleet { seed, tenants, .. } = *self;
        let mut events = self.schedule(draw).peekable();
        (0..self.items)
            .zip(payloads)
            .flat_map(move |(idx, payload)| {
                let control = events
                    .next_if(|ev| ev.idx == idx)
                    .map(|ev| (tenant_shard(ev.tenant, shards), FleetItem::Control(ev)));
                let tenant = tenant_of(seed, idx, tenants);
                let work = FleetItem::Work {
                    idx,
                    tenant,
                    payload,
                };
                control
                    .into_iter()
                    .chain(iter::once((tenant_shard(tenant, shards), work)))
            })
    }
}

/// The tenant item `idx` belongs to: a pure function of `(seed, idx)`.
fn tenant_of(seed: u64, idx: u64, tenants: u32) -> TenantId {
    (splitmix64(seed ^ idx.wrapping_mul(0x2545_f491_4f6c_dd1d)) % tenants.max(1) as u64) as TenantId
}

/// The shard a tenant (and everything belonging to it) is steered to.
fn tenant_shard(tenant: TenantId, shards: usize) -> usize {
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

/// Builds a tenant's program at a version. At version 1 (boot, and the
/// reload after an unload) it first creates whatever the program needs in
/// the tenant's registry, such as its maps.
type Loader<'s> = Box<dyn FnMut(&mut TenantRegistry<'s>, TenantId, u32) -> ProgramSpec + 's>;

/// One shard's slice of the fleet: a registry holding every tenant, with
/// only the tenants steered here attached, each at the fleet's one point.
pub struct FleetShard<'s> {
    /// The shard's control plane.
    pub reg: TenantRegistry<'s>,
    /// The shard's tallies.
    pub stats: FleetStats,
    shard: &'s Shard,
    storm: Option<Storm>,
    point: &'static str,
    load: Loader<'s>,
}

impl<'s> FleetShard<'s> {
    /// Registers the whole fleet in id order (ids must be dense and
    /// globally consistent across shards) and attaches the v1 program
    /// `load` builds at `point` for each tenant steered to `shard`.
    pub fn boot(
        fleet: &Fleet,
        storm: Option<Storm>,
        shard: &'s Shard,
        point: &'static str,
        load: impl FnMut(&mut TenantRegistry<'s>, TenantId, u32) -> ProgramSpec + 's,
    ) -> Self {
        let mut fs = FleetShard {
            reg: TenantRegistry::new(&shard.kernel, &shard.maps, &shard.helpers),
            stats: FleetStats::default(),
            shard,
            storm,
            point,
            load: Box::new(load),
        };
        for t in 0..fleet.tenants {
            fs.reg
                .register(&format!("tenant{t}"), TenantBudget::small())
                .expect("fresh registry");
            if tenant_shard(t, fleet.shards) == shard.id {
                fs.attach(t);
            }
        }
        fs
    }

    /// Attaches `tenant`'s freshly loaded v1 program.
    fn attach(&mut self, tenant: TenantId) {
        let spec = (self.load)(&mut self.reg, tenant, 1);
        self.reg
            .attach(tenant, self.point, spec)
            .expect("v1 attach");
    }

    /// The shard the slice lives on.
    pub fn shard(&self) -> &'s Shard {
        self.shard
    }

    /// The version of `tenant`'s program now attached (0 when none is).
    pub fn version(&self, tenant: TenantId) -> u32 {
        self.reg.version(tenant, self.point).unwrap_or(0)
    }

    /// Runs `tenant`'s program on `input`, recording its cost in the
    /// shard's sketch and tallying its verdict.
    pub fn run(&mut self, tenant: TenantId, input: HookInput<'_>) -> RunOutcome {
        let out = self
            .reg
            .run_input(tenant, self.point, input)
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

    /// Applies control event `ev` under a quiet plan seeded
    /// `item_seed ^ 1`, where `item_seed` is the fault seed of the work
    /// item the event precedes: a hot upgrade to the tenant's next
    /// version, or an unload and a reload at v1. Returns its canonical
    /// record, `idx|E|tenant|kind|outcome`, ordered before that work
    /// item's; the outcome is the version now serving, `v<n>`, or
    /// `err:<error>`.
    pub fn apply(&mut self, ev: &ControlEvent, item_seed: u64) -> Record {
        self.arm(item_seed ^ 1, |_| false);
        self.stats.events += 1;
        let t = ev.tenant;
        let applied = if ev.reload {
            self.reg.unload_tenant(t).map(|()| {
                self.attach(t);
                self.stats.reloads += 1;
                1
            })
        } else {
            let next = self.reg.version(t, self.point).expect("attached") + 1;
            let spec = (self.load)(&mut self.reg, t, next);
            self.reg.upgrade(t, self.point, spec).map(|()| {
                self.stats.upgrades += 1;
                next
            })
        };
        let outcome = match applied {
            Ok(version) => format!("v{version}"),
            Err(e) => format!("err:{e}"),
        };
        Record {
            idx: ev.idx,
            rank: 0,
            line: format!("{}|E|{t}|{}|{outcome}", ev.idx, ev.kind()),
        }
    }

    /// Closes the shard's tallies.
    pub fn finish(mut self) -> FleetStats {
        self.stats.attached = self.reg.attached_count() as u64;
        self.stats
    }
}
