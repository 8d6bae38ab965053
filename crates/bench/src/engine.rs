//! The one sharded engine every bench scenario runs on.
//!
//! A [`Scenario`] supplies what makes it different: its items and how
//! they are steered to shards, its fault-seed derivation, its per-item
//! run and canonical record line, and its per-shard summary text. The
//! engine does the rest, identically for every scenario and [`Lane`]: it
//! deals the items into one list per shard in one pass, boots one private
//! [`Shard`] per worker thread, runs it over its list, times it, writes
//! its summary audit event, and merges the shards into one [`RunReport`].
//!
//! Determinism under racing host threads (DESIGN.md §9) rests on four
//! rules the engine enforces: share-nothing shards (each owns a
//! [`Kernel`] booted with `nr_cpus = shards`, pinned to its own CPU); an
//! ordered feed (each shard's list is the global item order restricted to
//! that shard, and steering is a pure function of the item); a merge by
//! shard id for audits, by task for traces and by `(idx, rank)` for
//! canonical records, never by completion order; and one content-bearing
//! summary audit event per shard.

use std::any::Any;
use std::fmt;
use std::time::Instant;

use analysis::report::fail;
use ebpf::helpers::HelperRegistry;
use ebpf::maps::{MapError, MapRegistry};
use kernel_sim::audit::{self, AuditEvent, EventKind};
use kernel_sim::percpu::CpuInfo;
use kernel_sim::trace::{self, TraceEvent};
use kernel_sim::{HistSketch, HistSnapshot, Kernel, MetricsSnapshot};
use signing::sha256;

use crate::hostclock::thread_cpu_ns;
use crate::Lane;

/// Typed failure of a sharded run. Soak and fuzz callers need the batch
/// to fail, not the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// A shard worker thread panicked; `msg` carries the panic payload.
    ShardPanicked {
        /// Which shard died.
        shard: usize,
        /// The panic message, when the payload was a string.
        msg: String,
    },
    /// Recovering a shard's results hit a typed map error (map vanished,
    /// index out of range, memory fault).
    Map {
        /// Which shard was being recovered.
        shard: usize,
        /// The underlying map error.
        err: MapError,
    },
    /// A shard's trace ring overflowed between drains, so its span
    /// balance is void.
    TraceOverflow {
        /// Which shard's tracer overflowed.
        shard: usize,
        /// Events the ring overwrote.
        dropped: u64,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::ShardPanicked { shard, msg } => {
                write!(f, "shard {shard} panicked: {msg}")
            }
            DispatchError::Map { shard, err } => {
                write!(f, "shard {shard} result recovery failed: {err:?}")
            }
            DispatchError::TraceOverflow { shard, dropped } => {
                write!(f, "shard {shard} trace ring dropped {dropped} events")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Renders a panic payload for [`DispatchError::ShardPanicked`].
fn panic_msg(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// SHA-256 of `s`, hex-encoded: how canonical artifacts are pinned.
pub fn sha256_hex(s: &str) -> String {
    sha256::to_hex(&sha256::digest(s.as_bytes()))
}

/// One shard's private world, booted by the engine before the scenario
/// sees it.
pub struct Shard {
    /// Shard index == the simulated CPU the kernel is pinned to.
    pub id: usize,
    /// The shard's kernel: `nr_cpus = shards`, pinned to CPU `id`.
    pub kernel: Kernel,
    /// The shard's map registry.
    pub maps: MapRegistry,
    /// The standard helper set, for the bytecode lanes.
    pub helpers: HelperRegistry,
    /// Per-run simulated costs the scenario records (tail latency).
    pub cost: HistSketch,
}

impl Shard {
    /// Boots shard `id` of `shards`.
    pub fn boot(shards: usize, id: usize) -> Self {
        Shard {
            id,
            kernel: Kernel::with_topology(CpuInfo::pinned(shards, id)),
            maps: MapRegistry::default(),
            helpers: HelperRegistry::standard(),
            cost: HistSketch::new(),
        }
    }

    /// Reads slots `0..N` of array map `fd` as CPU `cpu` sees them; an
    /// unreadable slot counts as 0.
    ///
    /// # Errors
    ///
    /// [`DispatchError::Map`]: the map vanished, or a slot is out of its
    /// range.
    pub fn counters<const N: usize>(&self, fd: u32, cpu: usize) -> Result<[u64; N], DispatchError> {
        let read = || {
            let map = self.maps.get(fd).ok_or(MapError::NotFound)?;
            let mut out = [0u64; N];
            for (slot, value) in out.iter_mut().enumerate() {
                let addr = map
                    .elem_addr(slot as u32, cpu)
                    .ok_or(MapError::IndexOutOfRange)?;
                *value = self.kernel.mem.read_u64(addr).unwrap_or(0);
            }
            Ok(out)
        };
        read().map_err(|err| DispatchError::Map {
            shard: self.id,
            err,
        })
    }

    /// Faults injected so far by the fault plan armed last on the kernel.
    pub fn injected(&self) -> u64 {
        let plane = self.kernel.inject.get();
        plane.map_or(0, |plane| plane.total_injected())
    }
}

/// One canonical-log line, tagged for the cross-shard merge sort.
#[derive(Debug, Clone)]
pub struct Record {
    /// Global index of the item the line belongs to.
    pub idx: u64,
    /// Orders lines that share an index (lower first).
    pub rank: u8,
    /// The line itself.
    pub line: String,
}

/// Scenario-specific per-shard tallies, summed into the run's total.
pub trait Stats: Default + Send {
    /// Folds another shard's tallies into these.
    fn merge(&mut self, other: &Self);
}

/// What a scenario's shard run hands back to the engine.
#[derive(Default)]
pub struct ShardOut<St> {
    /// The shard's tallies.
    pub stats: St,
    /// The shard's canonical records, in processing order.
    pub records: Vec<Record>,
    /// The detail of the shard's summary audit event.
    pub summary: String,
    /// Trace events drained from the shard's tracer, if it recorded.
    pub trace: Vec<TraceEvent>,
}

/// A workload the engine can shard.
pub trait Scenario: Sync {
    /// One unit of work fed to a shard.
    type Item: Send;
    /// The scenario's per-shard tallies.
    type Stats: Stats;

    /// Worker shards (also the simulated CPU count); 0 means 1.
    fn shards(&self) -> usize;

    /// Every item in global order, each tagged with the shard it is
    /// steered to (`< shards`).
    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, Self::Item)>;

    /// Runs one shard: sets up the scenario on the booted `shard` and runs
    /// every item of `feed` through `lane`.
    ///
    /// # Errors
    ///
    /// A typed map error while recovering the shard's results, or a trace
    /// ring overflow.
    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = Self::Item>,
    ) -> Result<ShardOut<Self::Stats>, DispatchError>;
}

/// What one shard did.
#[derive(Debug, Clone)]
pub struct ShardRun<St> {
    /// Shard index == the simulated CPU the shard was pinned to.
    pub shard: usize,
    /// Items the shard was fed.
    pub items: u64,
    /// The scenario's tallies for this shard.
    pub stats: St,
    /// Faults injected by the fault plan armed last on this shard (all of
    /// them, for a scenario that arms one plan per shard).
    pub injected: u64,
    /// The shard kernel's full audit snapshot.
    pub audit: Vec<AuditEvent>,
    /// The shard kernel's trace events (empty unless tracing was on).
    pub trace: Vec<TraceEvent>,
    /// The shard kernel's metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// The shard's per-run cost sketch.
    pub cost: HistSnapshot,
    /// The shard's virtual-clock reading after the batch: how long the
    /// simulated CPU was busy. Deterministic for a fixed configuration.
    pub sim_ns: u64,
    /// Host CPU time the shard's worker thread consumed from boot until
    /// the scenario's shard run returned, nanoseconds. Host-dependent.
    pub host_cpu_ns: u64,
    /// Whether the shard kernel finished pristine (no oops, leak, stall).
    pub pristine: bool,
}

/// The merged outcome of one sharded run.
#[derive(Debug, Clone)]
pub struct RunReport<St> {
    /// Per-shard outcomes, in shard-id order.
    pub shards: Vec<ShardRun<St>>,
    /// The scenario's tallies summed over shards.
    pub stats: St,
    /// Canonical merge of all per-shard audit streams: byte-identical
    /// across replays of one configuration.
    pub merged_fingerprint: String,
    /// Every shard's canonical records sorted by `(idx, rank)`, one line
    /// each (empty for a scenario that logs none).
    pub canonical_log: String,
    /// The shard-count-invariant canonical trace: per-task events with
    /// task-relative timestamps, sorted by task id — the `TRACE_SHA256`
    /// contract. Empty unless tracing was on.
    pub canonical_trace: String,
    /// Sum of all shard metrics.
    pub metrics: MetricsSnapshot,
    /// Merge of every shard's per-run cost sketch.
    pub cost: HistSnapshot,
    /// Host wall-clock time for the whole run, nanoseconds.
    pub elapsed_ns: u64,
    /// The busiest shard's host CPU time: the run's host critical path,
    /// which shows parallel capacity even on a single-core host.
    pub host_cpu_ns: u64,
    /// Simulated elapsed time: the busiest shard's virtual-clock advance,
    /// the deterministic scaling metric.
    pub sim_elapsed_ns: u64,
}

fn per_sec(n: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        n as f64 * 1e9 / ns as f64
    }
}

impl<St> RunReport<St> {
    /// Items fed across all shards.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|s| s.items).sum()
    }

    /// Faults injected across shards (see [`ShardRun::injected`]).
    pub fn injected(&self) -> u64 {
        self.shards.iter().map(|s| s.injected).sum()
    }

    /// SHA-256 of the merged audit fingerprint.
    pub fn audit_sha256(&self) -> String {
        sha256_hex(&self.merged_fingerprint)
    }

    /// SHA-256 of the canonical log.
    pub fn canonical_sha256(&self) -> String {
        sha256_hex(&self.canonical_log)
    }

    /// SHA-256 of the canonical trace.
    pub fn trace_sha256(&self) -> String {
        sha256_hex(&self.canonical_trace)
    }

    /// `n` per host wall-clock second over the whole run.
    pub fn per_wall_sec(&self, n: u64) -> f64 {
        per_sec(n, self.elapsed_ns)
    }

    /// `n` per second of host CPU time on the busiest shard: a capacity
    /// projection, not throughput.
    pub fn per_host_cpu_sec(&self, n: u64) -> f64 {
        per_sec(n, self.host_cpu_ns)
    }

    /// `n` per simulated second on the modelled machine.
    pub fn per_sim_sec(&self, n: u64) -> f64 {
        per_sec(n, self.sim_elapsed_ns)
    }
}

/// The generic sharded-execution scaffold: deals `items` (already tagged
/// with their target shard) into one list per shard in iteration order,
/// spawns one worker per list inside a thread scope, and returns the
/// per-shard results in shard-id order.
///
/// Worker panics are contained: every shard is joined explicitly, and the
/// first panic comes back as [`DispatchError::ShardPanicked`].
fn run_sharded<T, R, F>(
    shards: usize,
    items: impl Iterator<Item = (usize, T)>,
    worker: F,
) -> Result<Vec<R>, DispatchError>
where
    T: Send,
    R: Send,
    F: Fn(usize, Vec<T>) -> R + Sync,
{
    let mut feeds: Vec<Vec<T>> = (0..shards.max(1)).map(|_| Vec::new()).collect();
    for (shard, item) in items {
        feeds[shard].push(item);
    }
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = feeds
            .into_iter()
            .enumerate()
            .map(|(shard, feed)| scope.spawn(move || worker(shard, feed)))
            .collect();
        let mut reports = Vec::with_capacity(handles.len());
        let mut failure: Option<DispatchError> = None;
        for (shard, handle) in handles.into_iter().enumerate() {
            // join() consumes the panic payload, so the scope won't
            // re-raise it; surface the first one as a typed error.
            match handle.join() {
                Ok(report) => reports.push(report),
                Err(payload) => {
                    let msg = panic_msg(payload);
                    failure.get_or_insert(DispatchError::ShardPanicked { shard, msg });
                }
            }
        }
        match failure {
            Some(err) => Err(err),
            None => Ok(reports),
        }
    })
}

type ShardResult<St> = Result<(ShardRun<St>, Vec<Record>), DispatchError>;

/// Boots shard `id` of `shards`, runs the scenario on it, and closes it
/// with the summary audit event.
fn run_shard<S: Scenario>(
    scenario: &S,
    lane: Lane,
    shards: usize,
    id: usize,
    feed: Vec<S::Item>,
) -> ShardResult<S::Stats> {
    let cpu_t0 = thread_cpu_ns();
    let shard = Shard::boot(shards, id);
    let items = feed.len() as u64;
    let out = scenario.run_shard(lane, &shard, feed.into_iter())?;
    // The bill stops with the scenario's own work (boot, setup, every
    // item, its result readback); the engine's bookkeeping below is free.
    let host_cpu_ns = thread_cpu_ns().saturating_sub(cpu_t0);
    let kernel = &shard.kernel;
    kernel
        .audit
        .record(kernel.clock.now_ns(), EventKind::Info, out.summary);
    let run = ShardRun {
        shard: id,
        items,
        stats: out.stats,
        injected: shard.injected(),
        audit: kernel.audit.snapshot(),
        trace: out.trace,
        metrics: kernel.metrics.snapshot(),
        cost: shard.cost.snapshot(),
        sim_ns: kernel.clock.now_ns(),
        pristine: kernel.health().pristine(),
        host_cpu_ns,
    };
    Ok((run, out.records))
}

/// Runs `scenario` on `lane` over its shards and merges the results
/// deterministically.
///
/// # Errors
///
/// A shard panic, a shard's map-recovery failure or a trace ring
/// overflow.
pub fn run<S: Scenario>(scenario: &S, lane: Lane) -> Result<RunReport<S::Stats>, DispatchError> {
    let shards = scenario.shards().max(1);
    let started = Instant::now();
    let results = run_sharded(shards, scenario.items(shards), |id, feed| {
        run_shard(scenario, lane, shards, id, feed)
    })?;
    let results = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let elapsed_ns = started.elapsed().as_nanos() as u64;

    let mut stats = S::Stats::default();
    let mut metrics = MetricsSnapshot::default();
    let mut cost = HistSnapshot::default();
    let mut records = Vec::new();
    let mut runs = Vec::with_capacity(results.len());
    for (run, shard_records) in results {
        stats.merge(&run.stats);
        metrics.merge(&run.metrics);
        cost.merge(&run.cost);
        records.extend(shard_records);
        runs.push(run);
    }
    records.sort_by_key(|r| (r.idx, r.rank));
    let canonical_log = records
        .iter()
        .map(|r| r.line.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let audits: Vec<(usize, Vec<AuditEvent>)> =
        runs.iter().map(|r| (r.shard, r.audit.clone())).collect();
    let traces: Vec<(usize, Vec<TraceEvent>)> =
        runs.iter().map(|r| (r.shard, r.trace.clone())).collect();

    Ok(RunReport {
        merged_fingerprint: audit::merged_fingerprint(&audits),
        canonical_log,
        canonical_trace: trace::canonical_fingerprint(&traces),
        metrics,
        cost,
        elapsed_ns,
        host_cpu_ns: runs.iter().map(|r| r.host_cpu_ns).max().unwrap_or(0),
        sim_elapsed_ns: runs.iter().map(|r| r.sim_ns).max().unwrap_or(0),
        stats,
        shards: runs,
    })
}

/// Unwraps a run, failing the report binary on a typed engine error.
pub fn ok<St>(run: Result<RunReport<St>, DispatchError>, what: &str) -> RunReport<St> {
    run.unwrap_or_else(|e| fail(&format!("{what}: {e}")))
}

/// Runs one grid cell — one configuration at each of `shard_counts`,
/// once each — and fails unless the canonical log, the canonical trace
/// and the tallies are the same at every shard count. Returns one run
/// per shard count. Replay determinism is the report gate's to check,
/// across processes.
pub fn sweep<St: PartialEq>(
    what: &str,
    shard_counts: &[usize],
    run: impl Fn(usize) -> Result<RunReport<St>, DispatchError>,
) -> Vec<RunReport<St>> {
    let runs: Vec<_> = shard_counts
        .iter()
        .map(|&n| ok(run(n), &format!("{what} shards={n}")))
        .collect();
    let first = &runs[0];
    for (n, r) in shard_counts.iter().zip(&runs) {
        if r.canonical_log != first.canonical_log
            || r.canonical_trace != first.canonical_trace
            || r.stats != first.stats
        {
            fail(&format!("{what}: artifacts diverged at {n} shards"));
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use kernel_sim::net::traffic::{generate, TrafficConfig};
    use kernel_sim::FaultPlanConfig;

    use super::*;
    use crate::dispatch::{make_packets, run_batched, DispatchConfig};
    use crate::hooks::HookFamily;
    use crate::netflows::{run_net_batched, NetConfig, NetScenario};

    #[test]
    fn each_shard_is_fed_exactly_its_own_items_in_global_order() {
        // Uneven steering: shard 0 takes most items, shard 1 every fifth,
        // shard 2 none at all.
        let steer = |i: u64| usize::from(i.is_multiple_of(5));
        let items = (0..1000u64).map(|i| (steer(i), i));
        let feeds = run_sharded(3, items, |_, feed: Vec<u64>| feed).unwrap();
        assert_eq!(feeds.len(), 3, "every shard must report");
        for (shard, feed) in feeds.iter().enumerate() {
            let own: Vec<u64> = (0..1000).filter(|&i| steer(i) == shard).collect();
            assert_eq!(feed, &own, "shard {shard} was fed the wrong items");
        }
        assert!(feeds[2].is_empty());
    }

    #[test]
    fn worker_panic_surfaces_as_typed_error() {
        // Shard 1 dies mid-run; the other shards still finish, every
        // shard is joined, and the panic comes back as a typed error
        // instead of aborting the process.
        let items = (0..1000usize).map(|i| (i % 3, i as u64));
        let err = run_sharded(3, items, |shard, feed: Vec<u64>| {
            let mut sum = 0u64;
            for item in feed {
                if shard == 1 && item >= 100 {
                    panic!("shard exploded on item {item}");
                }
                sum += item;
            }
            sum
        })
        .expect_err("the panicking shard must fail the run");
        match err {
            DispatchError::ShardPanicked { shard, msg } => {
                assert_eq!(shard, 1);
                assert!(msg.contains("shard exploded"), "payload lost: {msg}");
            }
            other => panic!("expected ShardPanicked, got {other:?}"),
        }
    }

    /// A run reduced to what the generic engine properties compare.
    #[derive(Debug, PartialEq)]
    struct Summary {
        items: u64,
        shards: usize,
        log: String,
        audit: String,
        trace: String,
        stats: String,
        injected: u64,
        fault_injections: u64,
    }

    fn summary<St: Debug>(run: Result<RunReport<St>, DispatchError>) -> Summary {
        let r = run.expect("run");
        Summary {
            items: r.items(),
            shards: r.shards.len(),
            log: r.canonical_log.clone(),
            audit: r.merged_fingerprint.clone(),
            trace: r.canonical_trace.clone(),
            stats: format!("{:?}", r.stats),
            injected: r.injected(),
            fault_injections: r.metrics.fault_injections,
        }
    }

    /// Every scenario's test configuration on `lane`, fault plans (or the
    /// storm) armed when `faulty`. `shards` overrides each configuration's
    /// shard count and `empty` strips every input. Each entry says whether
    /// the scenario promises a shard-count-invariant log and tallies.
    fn every_scenario(
        lane: Lane,
        shards: Option<usize>,
        faulty: bool,
        empty: bool,
    ) -> Vec<(&'static str, bool, Summary)> {
        let n = |items: usize| if empty { 0 } else { items };
        let fault = faulty.then(FaultPlanConfig::default);
        let packets = make_packets(n(48));
        let dispatch = DispatchConfig {
            shards: shards.unwrap_or(4),
            seed: 11,
            fault,
            trace: false,
        };
        let mut out = vec![(
            "dispatch",
            false,
            summary(run_batched(lane, &dispatch, &packets)),
        )];
        let mut frames = generate(&TrafficConfig::smoke(), 17);
        frames.truncate(n(frames.len()));
        for scenario in [NetScenario::SynFilter, NetScenario::LoadBalancer] {
            let net = NetConfig {
                shards: shards.unwrap_or(4),
                seed: 17,
                fault,
                scenario,
            };
            let run = run_net_batched(lane, &net, &frames);
            out.push((scenario.name(), true, summary(run)));
        }
        let mut churn = crate::churn::tests::small(shards.unwrap_or(2), faulty);
        if empty {
            churn.fleet.items = 0;
        }
        out.push(("churn", true, summary(run(&churn, lane))));
        for family in HookFamily::ALL {
            let mut hooks = crate::hooks::tests::small(family, shards.unwrap_or(2), faulty);
            if empty {
                hooks.fleet.items = 0;
            }
            out.push((family.name(), true, summary(run(&hooks, lane))));
        }
        out
    }

    #[test]
    fn merged_fingerprint_replays_byte_identical() {
        for lane in Lane::ALL {
            for faulty in [false, true] {
                let again = every_scenario(lane, None, faulty, false);
                for ((what, _, a), (_, _, b)) in
                    every_scenario(lane, None, faulty, false).iter().zip(&again)
                {
                    assert_eq!(a, b, "{what}/{lane:?} faulty={faulty}: replay diverged");
                    assert!(a.items > 0, "{what}/{lane:?}: nothing ran");
                }
            }
        }
    }

    #[test]
    fn canonical_log_and_tallies_are_shard_count_invariant() {
        for lane in Lane::ALL {
            for faulty in [false, true] {
                let one = every_scenario(lane, Some(1), faulty, false);
                for shards in [2, 4, 8] {
                    let many = every_scenario(lane, Some(shards), faulty, false);
                    for ((what, invariant, one), (_, _, many)) in one.iter().zip(&many) {
                        if !invariant {
                            continue;
                        }
                        let at = format!("{what}/{lane:?} faulty={faulty} at {shards} shards");
                        assert_eq!(one.log, many.log, "{at}: canonical log diverged");
                        assert_eq!(one.stats, many.stats, "{at}: tallies diverged");
                        assert!(!faulty || many.fault_injections > 0, "{at}: no faults");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_stream_is_a_clean_empty_run() {
        for lane in Lane::ALL {
            for (what, _, run) in every_scenario(lane, None, false, true) {
                assert_eq!(run.items, 0, "{what}/{lane:?}: ran items from nothing");
                assert!(run.shards > 1, "{what}/{lane:?}: every shard must report");
            }
        }
    }
}
