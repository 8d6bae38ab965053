//! Workloads and the seeded item streams they feed every backend.
//!
//! An epoch's [`Plan`] is a pure function of the workload, its sizes
//! and the seed: the system under test only ever sees the generated
//! items, and the three backends see the same stream.

use kernel_sim::net::traffic::{generate, TrafficConfig};
use tenancy::{HookInput, Storm};

use crate::mix64;
use crate::programs::Kind;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A handful of tenants under the seeded traffic mix: per-run layers
    /// dominate, with a config push upgrading every tenant a few times
    /// now and then.
    PktSteady,
    /// One tenant hot-upgrading through the verifier feature ladder,
    /// with a short packet burst after every upgrade.
    CtlUpgrade,
    /// Hundreds of tenants, all four hook kinds, upgrades and full
    /// reloads, and a quarantine storm in the middle of the stream.
    FleetChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PktSteady,
        Workload::CtlUpgrade,
        Workload::FleetChurn,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PktSteady => "pkt-steady",
            Workload::CtlUpgrade => "ctl-upgrade",
            Workload::FleetChurn => "fleet-churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big one epoch of a workload is.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Tenants per backend.
    pub tenants: u32,
    /// Attached-program runs per epoch (pkt-steady, fleet-churn).
    pub items: u32,
    /// A control-plane event precedes every `event_every`-th item.
    pub event_every: u32,
    /// Hot upgrades of every tenant in one config push (pkt-steady).
    pub rounds: u32,
    /// Ladder upgrades per epoch (ctl-upgrade).
    pub cycles: u32,
    /// Packets run after each ladder upgrade (ctl-upgrade).
    pub burst: u32,
    /// Storm victims (fleet-churn).
    pub victims: u32,
}

impl Sizes {
    /// The sizes a workload runs at; `small` is the seconds-long variant
    /// the benchmark's own tests use.
    pub fn of(workload: Workload, small: bool) -> Self {
        let none = Sizes {
            tenants: 1,
            items: 0,
            event_every: 0,
            rounds: 0,
            cycles: 0,
            burst: 0,
            victims: 0,
        };
        match (workload, small) {
            (Workload::PktSteady, false) => Sizes {
                tenants: 4,
                items: 16384,
                event_every: 4096,
                rounds: 8,
                ..none
            },
            (Workload::PktSteady, true) => Sizes {
                tenants: 4,
                items: 1024,
                event_every: 256,
                rounds: 2,
                ..none
            },
            (Workload::CtlUpgrade, false) => Sizes {
                cycles: 23 * 24,
                burst: 4,
                ..none
            },
            (Workload::CtlUpgrade, true) => Sizes {
                cycles: 23 * 2,
                burst: 2,
                ..none
            },
            (Workload::FleetChurn, false) => Sizes {
                tenants: 256,
                items: 8192,
                event_every: 64,
                victims: 4,
                ..none
            },
            (Workload::FleetChurn, true) => Sizes {
                tenants: 20,
                items: 1024,
                event_every: 32,
                victims: 2,
                ..none
            },
        }
    }
}

/// One item's hook input; packets index the plan's frame table.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// A frame of the traffic mix.
    Packet(u32),
    /// A kprobe register file.
    Kprobe([u64; 8]),
    /// An LSM decision `{hook, subject, attr, cookie}`.
    Lsm([u64; 4]),
    /// A sched-ext pick.
    Sched([u64; 6]),
}

/// One step of the stream.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// One run of the tenant's main attachment.
    Run {
        /// Tenant index.
        tenant: u32,
        /// The hook input.
        input: Input,
        /// Item index (seeds the storm's fault plan).
        item: u32,
        /// Whether the storm targets this run.
        storm: bool,
    },
    /// Hot upgrade of the tenant's main attachment to its next version.
    Upgrade {
        /// Tenant index.
        tenant: u32,
    },
    /// `unload_tenant`, then fresh maps and the next version attached.
    Reload {
        /// Tenant index.
        tenant: u32,
    },
    /// Hot upgrade of the control attachment to ladder program `rung`
    /// (eBPF and sandbox) or ladder artifact `artifact` (safe-ext).
    Cycle {
        /// Index into the 23 ladder programs.
        rung: u8,
        /// Index into the six ladder artifacts (the last is tampered).
        artifact: u8,
    },
}

/// Ladder programs (12 accepted, 11 violations).
pub const LADDER_PROGRAMS: usize = 23;
/// Ladder artifacts: one per rung plus one with a tampered signature.
pub const LADDER_ARTIFACTS: usize = 6;

/// One epoch's generated inputs.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The traffic mix packets index.
    pub frames: Vec<Vec<u8>>,
    /// Each tenant's program family.
    pub kinds: Vec<Kind>,
    /// The stream, in order.
    pub units: Vec<Unit>,
    /// Units whose outcomes feed the digest and the layer counts.
    pub prefix: usize,
    /// The storm, if the workload has one.
    pub storm: Option<Storm>,
    /// First item index of the storm window.
    pub storm_start: u32,
}

/// The seed of a run's `stream`-th stream; stream 0's outcomes are the
/// ones pinned for the default seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// A seeded permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<u8> {
    let mut out: Vec<u8> = (0..n as u8).collect();
    for i in (1..n).rev() {
        let j = (mix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

impl Plan {
    /// Generates the epoch's stream.
    pub fn generate(workload: Workload, seed: u64, sizes: Sizes) -> Plan {
        let frames: Vec<Vec<u8>> = generate(&TrafficConfig::default(), seed)
            .into_iter()
            .map(|f| f.bytes)
            .collect();
        let hash = |tag: u64, i: u64| mix64(seed ^ tag ^ i.wrapping_mul(0x9e6c_63d0_876a_9a47));
        let pick = |i: u64| (hash(0x7e4a_11c0, i) % u64::from(sizes.tenants)) as u32;
        let packet = |i: u32| Input::Packet(i % frames.len() as u32);
        let mut units = Vec::new();
        let mut storm = None;
        let mut storm_start = u32::MAX;
        let prefix;
        let kinds;
        match workload {
            Workload::PktSteady => {
                kinds = (0..sizes.tenants)
                    .map(|t| {
                        if t % 2 == 0 {
                            Kind::Filter
                        } else {
                            Kind::Parser
                        }
                    })
                    .collect();
                for i in 0..sizes.items {
                    if i > 0 && i % sizes.event_every == 0 {
                        // A config push: every tenant hot-upgrades
                        // `rounds` times, round-robin from a seeded first
                        // tenant. Back to back, the loads after the first
                        // find the control plane's code warm.
                        let first = pick(u64::from(i) | 1 << 40);
                        units.extend((0..sizes.tenants * sizes.rounds).map(|k| Unit::Upgrade {
                            tenant: (first + k) % sizes.tenants,
                        }));
                    }
                    units.push(Unit::Run {
                        tenant: pick(u64::from(i)),
                        input: packet(i),
                        item: i,
                        storm: false,
                    });
                }
                prefix = units.len();
            }
            Workload::CtlUpgrade => {
                kinds = vec![Kind::Filter];
                let rungs = permutation(seed ^ 0x001a_dde4, LADDER_PROGRAMS);
                let artifacts = permutation(seed ^ 0xa471_fac7, LADDER_ARTIFACTS);
                let mut item = 0;
                for c in 0..sizes.cycles as usize {
                    units.push(Unit::Cycle {
                        rung: rungs[c % LADDER_PROGRAMS],
                        artifact: artifacts[c % LADDER_ARTIFACTS],
                    });
                    for _ in 0..sizes.burst {
                        units.push(Unit::Run {
                            tenant: 0,
                            input: packet(item),
                            item,
                            storm: false,
                        });
                        item += 1;
                    }
                }
                prefix = units.len();
            }
            Workload::FleetChurn => {
                const KINDS: [Kind; 5] = [
                    Kind::Filter,
                    Kind::Parser,
                    Kind::Probe,
                    Kind::Policy,
                    Kind::Sched,
                ];
                kinds = (0..sizes.tenants)
                    .map(|t| KINDS[t as usize % KINDS.len()])
                    .collect::<Vec<_>>();
                let window = (sizes.items / 4, sizes.items - sizes.items / 4);
                let s = Storm::seeded(
                    seed ^ 0x6b8b_4567_327b_23c6,
                    sizes.tenants,
                    sizes.victims,
                    (u64::from(window.0), u64::from(window.1)),
                );
                storm_start = window.0;
                let mut first_storm_unit = None;
                for i in 0..sizes.items {
                    if i == window.0 {
                        first_storm_unit = Some(units.len());
                    }
                    if i > 0 && i % sizes.event_every == 0 {
                        let event = i / sizes.event_every;
                        let tenant = pick(u64::from(event) | 1 << 41);
                        // Every third control-plane event is a full
                        // unload and reload; the others hot-upgrade.
                        units.push(if event.is_multiple_of(3) {
                            Unit::Reload { tenant }
                        } else {
                            Unit::Upgrade { tenant }
                        });
                    }
                    let tenant = pick(u64::from(i));
                    let h = hash(0x17e3, u64::from(i));
                    let g = hash(0x5ced, u64::from(i));
                    let i64_ = u64::from(i);
                    let input = match kinds[tenant as usize] {
                        Kind::Filter | Kind::Parser => packet(i),
                        Kind::Probe => {
                            Input::Kprobe([h & 7, (g >> 16) >> (g % 40), i64_, 0, 0, 0, 0, 0])
                        }
                        Kind::Policy => {
                            Input::Lsm([i64_ % 3, h & 0xffff, (h >> 16) & 0xffff, i64_])
                        }
                        Kind::Sched => Input::Sched([
                            h & 1,
                            2 + (h >> 1) % 6,
                            (h >> 8) & 0xff,
                            g & 0xf_ffff,
                            (h >> 16) & 0xff,
                            (g >> 20) & 0xf_ffff,
                        ]),
                    };
                    units.push(Unit::Run {
                        tenant,
                        input,
                        item: i,
                        storm: s.targets(tenant, u64::from(i)),
                    });
                }
                prefix = first_storm_unit.unwrap_or(units.len());
                storm = Some(s);
            }
        }
        Plan {
            workload,
            seed,
            frames,
            kinds,
            units,
            prefix,
            storm,
            storm_start,
        }
    }

    /// The hook input an item hands the registry.
    pub fn hook_input(&self, input: &Input) -> HookInput<'_> {
        match *input {
            Input::Packet(f) => HookInput::Packet(&self.frames[f as usize]),
            Input::Kprobe(regs) => HookInput::Kprobe(regs),
            Input::Lsm(fields) => HookInput::Lsm(fields),
            Input::Sched(fields) => HookInput::Sched(fields),
        }
    }

    /// Whether a run's outcome may legitimately be a storm kill or a
    /// quarantine refusal: the tenant is a victim and the storm has
    /// started.
    pub fn storm_exposed(&self, tenant: u32, item: u32) -> bool {
        item >= self.storm_start && self.storm.as_ref().is_some_and(|s| s.is_victim(tenant))
    }
}
