//! One benchmark run.
//!
//! A run is a sequence of epochs until `--seconds` have passed. An epoch
//! generates the stream, boots one kernel per backend and sets up its
//! tenants (timed as one `setup_s` sample), then runs the three lanes and
//! the reference loop round-robin in [`SLICE_NS`] slices until every
//! lane has run the whole stream, checks every outcome, and tears the
//! worlds down. Rebuilding the worlds every epoch bounds memory (each
//! hot upgrade leaves an audit record and a dead VM slot behind) so
//! `peak_rss_mb` does not grow with run length.
//!
//! Every lane slice's CPU time is scaled by the reference loop's rate
//! around it. End-to-end rates are medians over [`WINDOWS`] groups of
//! consecutive epochs, `setup_s` the median over epochs. Every epoch runs
//! a fresh stream, so a run averages over many and its figures depend
//! little on the seed. A traced run alternates untraced and traced
//! epochs on the same stream: spans and side calls come from the traced
//! ones, the tracing overhead from comparing the two.

use std::time::Instant;

use crate::host::{cpu_ns, peak_rss_mb, HostRecord, RefLoop};
use crate::lane::{Backend, Counts, Expect, Lane, LaneMeters, Meter, Substrate};
use crate::pins::{DEFAULT_SEED, DIGESTS, REF_NOMINAL};
use crate::plan::{stream_seed, Plan, Sizes, Unit, Workload};
use crate::trace::Tracer;

/// CPU time a lane or the reference loop runs before the next one.
pub const SLICE_NS: u64 = 2_000_000;
/// Reference-loop steps between clock reads.
const REF_CHUNK: u32 = 16;
/// Epochs every run completes, whatever its length (a traced run needs
/// an untraced and a traced one).
const MIN_EPOCHS: usize = 2;
/// Groups of epochs the end-to-end medians are taken over.
const WINDOWS: usize = 9;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run the seconds-long sizes the benchmark's own tests use.
    pub small: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A run's result.
pub struct Report {
    /// Stream units run, over all epochs and backends.
    pub attempted: u64,
    /// Units whose outcome was not the expected one, plus fault-free
    /// runs on which the backends disagreed.
    pub failed: u64,
    /// Everything else that makes the run incorrect.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Outcome digests of the first epoch's prefix, per backend.
    pub digests: [u64; 3],
    /// Work counts of the first epoch's prefix, per backend.
    pub counts: [Counts; 3],
    /// Epochs completed.
    pub epochs: usize,
    /// The host.
    pub host: HostRecord,
    /// The reference loop's rate over the run, steps per CPU second.
    pub ref_per_s: f64,
}

impl Report {
    /// Whether every outcome was the expected one.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

struct Epoch {
    /// Setup CPU time, scaled by the reference rate measured just before.
    setup_norm_ns: f64,
    reference: Meter,
    lanes: [LaneMeters; 3],
    /// Per lane, runs and loads CPU time with each slice scaled by the
    /// rate of the reference slice nearest it.
    norm_ns: [[f64; 2]; 3],
    traced: bool,
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The first epoch's digests and counts.
    first: Option<([u64; 3], [Counts; 3])>,
    /// The last untraced epoch's, which the next traced epoch replays.
    partner: Option<([u64; 3], [Counts; 3])>,
}

impl Checks {
    fn error(&mut self, msg: String) {
        if self.errors.len() < 16 {
            self.errors.push(msg);
        }
    }

    /// Checks every outcome of an epoch against its expectation and the
    /// fault-free runs across backends, and keeps the first epoch's
    /// digests and counts.
    fn epoch(&mut self, plan: &Plan, lanes: &[Lane<'_>], traced: bool) {
        for lane in lanes {
            let expected = lane.expected(plan);
            for (u, (e, o)) in expected.iter().zip(&lane.outcomes).enumerate() {
                self.attempted += 1;
                if !e.admits(*o) {
                    self.failed += 1;
                    self.error(format!(
                        "{}: unit {u} {:?} ended {o:?}, expected {}",
                        lane.backend.name(),
                        plan.units[u],
                        match e {
                            Expect::Exact(x) => format!("{x:?}"),
                            Expect::StormExposed(v) => format!("Ok({v}), Killed or Refused"),
                        }
                    ));
                }
            }
        }
        for (u, unit) in plan.units.iter().enumerate() {
            if let Unit::Run { tenant, item, .. } = *unit {
                if plan.storm_exposed(tenant, item) {
                    continue;
                }
                let first = lanes[0].outcomes[u];
                if lanes[1..].iter().any(|l| l.outcomes[u] != first) {
                    self.failed += 1;
                    self.error(format!(
                        "unit {u}: backends disagree: {:?}",
                        lanes.iter().map(|l| l.outcomes[u]).collect::<Vec<_>>()
                    ));
                }
            }
        }
        let digests: [u64; 3] = std::array::from_fn(|b| {
            let mut h = 0xcbf2_9ce4_8422_2325;
            for o in &lanes[b].outcomes[..plan.prefix] {
                o.fold(&mut h);
            }
            h
        });
        let counts: [Counts; 3] = std::array::from_fn(|b| lanes[b].counts);
        self.first.get_or_insert((digests, counts));
        if !traced {
            self.partner = Some((digests, counts));
            return;
        }
        // A traced epoch replays its untraced partner's stream: spans and
        // side calls must change no outcome and no count.
        match self.partner.take() {
            Some((d, c)) if d == digests && c == counts => {}
            Some((d, c)) => self.error(format!(
                "traced epoch differs from its untraced partner: digests {digests:x?} vs {d:x?}, counts {counts:?} vs {c:?}"
            )),
            None => self.error("traced epoch without an untraced partner".into()),
        }
    }
}

/// The reference loop and the rate of its latest slice.
struct Reference {
    work: RefLoop,
    last_rate: f64,
}

impl Reference {
    fn new(seed: u64) -> Self {
        let mut reference = Reference {
            work: RefLoop::new(seed),
            last_rate: 0.0,
        };
        reference.slice(&mut Meter::default());
        reference
    }

    /// Runs the loop for one slice; returns the mean of this slice's
    /// rate and the previous one's, the rate to scale the lane slices
    /// run between them by.
    fn slice(&mut self, meter: &mut Meter) -> f64 {
        let start = cpu_ns();
        let mut t = start;
        let mut steps = 0;
        while t - start < SLICE_NS {
            self.work.steps(REF_CHUNK);
            steps += u64::from(REF_CHUNK);
            t = cpu_ns();
        }
        meter.ops += steps;
        meter.ns += t - start;
        let rate = steps as f64 * 1e9 / (t - start) as f64;
        let previous = std::mem::replace(&mut self.last_rate, rate);
        if previous > 0.0 {
            (previous + rate) / 2.0
        } else {
            rate
        }
    }
}

fn run_epoch(
    cfg: &Config,
    sizes: Sizes,
    stream: u64,
    traced: bool,
    reference: &mut Reference,
    mut tracer: Option<&mut Tracer>,
    checks: &mut Checks,
) -> Option<Epoch> {
    let setup_scale = reference.last_rate / REF_NOMINAL;
    let c0 = cpu_ns();
    let plan = Plan::generate(cfg.workload, stream_seed(cfg.seed, stream), sizes);
    let worlds = [Substrate::boot(), Substrate::boot(), Substrate::boot()];
    let lanes: Result<Vec<Lane<'_>>, String> = Backend::ALL
        .iter()
        .zip(&worlds)
        .map(|(&b, world)| {
            Lane::setup(b, world, &plan, traced).map_err(|e| format!("{} setup: {e}", b.name()))
        })
        .collect();
    let setup_ns = cpu_ns() - c0;
    let mut lanes = match lanes {
        Ok(lanes) => lanes,
        Err(e) => {
            checks.error(e);
            return None;
        }
    };
    let mut ref_meter = Meter::default();
    let mut norm_ns = [[0.0; 2]; 3];
    // CPU time since the last reference slice, per lane and class; it is
    // scaled by the mean of the reference rates on either side of it.
    let mut pending = [[0u64; 2]; 3];
    let mut flush = |pending: &mut [[u64; 2]; 3], rate: f64| {
        for (norm, pend) in norm_ns.iter_mut().zip(pending.iter_mut()) {
            for (n, p) in norm.iter_mut().zip(pend.iter_mut()) {
                *n += std::mem::take(p) as f64 * rate / REF_NOMINAL;
            }
        }
    };
    let mut round = 0;
    while lanes.iter().any(|l| !l.done(&plan)) {
        // Rotate who goes first so no lane always follows the same one.
        for k in 0..4 {
            match (round + k) % 4 {
                3 => {
                    let rate = reference.slice(&mut ref_meter);
                    flush(&mut pending, rate);
                }
                b if !lanes[b].done(&plan) => {
                    let before = lanes[b].meters;
                    lanes[b].slice(&plan, SLICE_NS, tracer.as_deref_mut());
                    let after = lanes[b].meters;
                    pending[b][0] += after.runs.ns - before.runs.ns;
                    pending[b][1] += after.loads.ns - before.loads.ns;
                }
                _ => {}
            }
        }
        round += 1;
    }
    flush(&mut pending, reference.last_rate);
    checks.epoch(&plan, &lanes, traced);
    Some(Epoch {
        setup_norm_ns: setup_ns as f64 * setup_scale,
        reference: ref_meter,
        lanes: std::array::from_fn(|b| lanes[b].meters),
        norm_ns,
        traced,
    })
}

fn rate(m: Meter) -> Option<f64> {
    (m.ops > 0 && m.ns > 0).then(|| m.ops as f64 * 1e9 / m.ns as f64)
}

fn sum(meters: impl Iterator<Item = Meter>) -> Meter {
    meters.fold(Meter::default(), |a, m| Meter {
        ops: a.ops + m.ops,
        ns: a.ns + m.ns,
    })
}

fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `n` contiguous, nearly equal groups of `items`.
fn groups<T>(items: &[T], n: usize) -> Vec<&[T]> {
    let n = n.min(items.len()).max(1);
    (0..n)
        .map(|i| &items[i * items.len() / n..(i + 1) * items.len() / n])
        .filter(|g| !g.is_empty())
        .collect()
}

/// Runs or loads per second of reference-scaled CPU time.
fn norm_rate(w: &[&Epoch], b: usize, class: usize) -> Option<f64> {
    let ops: u64 = w
        .iter()
        .map(|e| [e.lanes[b].runs, e.lanes[b].loads][class].ops)
        .sum();
    let ns: f64 = w.iter().map(|e| e.norm_ns[b][class]).sum();
    (ops > 0 && ns > 0.0).then(|| ops as f64 * 1e9 / ns)
}

/// The end-to-end metrics of the untraced epochs.
fn end_to_end(epochs: &[&Epoch], errors: &mut Vec<String>) -> Vec<Metric> {
    let windows = groups(epochs, WINDOWS);
    let setup = epochs.iter().map(|e| e.setup_norm_ns / 1e9).collect();
    let mut runs: [Vec<f64>; 3] = Default::default();
    let mut loads: [Vec<f64>; 3] = Default::default();
    for w in &windows {
        for b in 0..3 {
            runs[b].extend(norm_rate(w, b, 0));
            loads[b].extend(norm_rate(w, b, 1));
        }
    }
    let mut out = Vec::new();
    let mut push = |name: String, unit, value: Option<f64>| match value {
        Some(value) => out.push(Metric { name, unit, value }),
        None => errors.push(format!("no measurement for {name}")),
    };
    push("setup_s".into(), "s", median(setup));
    for (b, backend) in Backend::ALL.iter().enumerate() {
        push(
            format!("{}.runs_per_s", backend.name()),
            "runs/s",
            median(std::mem::take(&mut runs[b])),
        );
    }
    for (b, backend) in Backend::ALL.iter().enumerate() {
        push(
            format!("{}.loads_per_s", backend.name()),
            "loads/s",
            median(std::mem::take(&mut loads[b])),
        );
    }
    push("peak_rss_mb".into(), "MiB", peak_rss_mb());
    out
}

/// Extra front-door CPU time per run in traced epochs over untraced
/// ones, as a percentage, each side normalised by its own reference
/// rate. Side calls are excluded: they are the layers' own calls. Loads
/// are left out because a traced epoch prices their layers first, which
/// warms the front-door call that follows.
fn trace_overhead_pct(epochs: &[Epoch]) -> f64 {
    let (traced, untraced): (Vec<&Epoch>, Vec<&Epoch>) = epochs.iter().partition(|e| e.traced);
    let scale =
        |eps: &[&Epoch]| rate(sum(eps.iter().map(|e| e.reference))).map(|r| r / REF_NOMINAL);
    let (Some(ref_t), Some(ref_u)) = (scale(&traced), scale(&untraced)) else {
        return 0.0;
    };
    let (mut extra, mut base) = (0.0, 0.0);
    for b in 0..3 {
        let u = sum(untraced.iter().map(|e| e.lanes[b].runs));
        let t = sum(traced.iter().map(|e| Meter {
            ops: e.lanes[b].runs.ops,
            ns: e.lanes[b].runs.ns.saturating_sub(e.lanes[b].side_run_ns),
        }));
        if u.ops == 0 || t.ops == 0 {
            continue;
        }
        let per_u = u.ns as f64 / u.ops as f64 * ref_u;
        let per_t = t.ns as f64 / t.ops as f64 * ref_t;
        extra += t.ops as f64 * (per_t - per_u);
        base += t.ops as f64 * per_u;
    }
    if base > 0.0 {
        100.0 * extra / base
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    tracer: &Tracer,
    counts: &[Counts; 3],
    epochs: &[Epoch],
    ref_per_s: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: Option<f64>| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value: value.unwrap_or(0.0),
        })
    };
    let per = |n: u64, d: u64| (d > 0).then(|| n as f64 / d as f64);
    for backend in Backend::ALL {
        let b = backend.name();
        push(
            &format!("{b}.tenancy.run_self_ns"),
            "ns",
            tracer.self_mean(&format!("{b}.tenancy.run_self")),
        );
    }
    push("ebpf.vm.run_ns", "ns", tracer.mean("ebpf.vm.run"));
    push("sandbox.vm.run_ns", "ns", tracer.mean("sandbox.vm.run"));
    push(
        "safe-ext.runtime.run_ns",
        "ns",
        tracer.mean("safe-ext.runtime.run"),
    );
    push("kernel-sim.skb_ns", "ns", tracer.mean("kernel-sim.skb"));
    push(
        "kernel-sim.mem.read_ns",
        "ns",
        tracer.mean("kernel-sim.mem.read"),
    );
    for (backend, c) in Backend::ALL.iter().zip(counts) {
        let b = backend.name();
        push(&format!("{b}.insns_per_run"), "count", per(c.insns, c.runs));
        push(
            &format!("{b}.helper_calls_per_run"),
            "count",
            per(c.helper_calls, c.runs),
        );
        push(
            &format!("{b}.sim_cost_ns_per_run"),
            "ns",
            per(c.sim_cost_ns, c.runs),
        );
    }
    let v = counts[0];
    push("verifier.verify_ns", "ns", tracer.mean("verifier.verify"));
    push(
        "verifier.insns_processed",
        "count",
        per(v.insns_processed, v.verifies),
    );
    push(
        "verifier.states_pushed",
        "count",
        per(v.states_pushed, v.verifies),
    );
    push(
        "verifier.states_pruned",
        "count",
        per(v.states_pruned, v.verifies),
    );
    push("ebpf.jit.lower_ns", "ns", tracer.mean("ebpf.jit.lower"));
    push(
        "sandbox.jit.lower_ns",
        "ns",
        tracer.mean("sandbox.jit.lower"),
    );
    push("signing.validate_ns", "ns", tracer.mean("signing.validate"));
    push(
        "safe-ext.loader.load_ns",
        "ns",
        tracer.mean("safe-ext.loader.load"),
    );
    for backend in Backend::ALL {
        let b = backend.name();
        push(
            &format!("{b}.tenancy.upgrade_self_ns"),
            "ns",
            tracer.self_mean(&format!("{b}.tenancy.upgrade_self")),
        );
    }
    push(
        "ebpf.maps.create_destroy_ns",
        "ns",
        tracer.mean("ebpf.maps.create_destroy"),
    );
    push(
        "kernel-sim.audit.record_ns",
        "ns",
        tracer.mean("kernel-sim.audit.record"),
    );
    push(
        "kernel-sim.audit.events_per_op",
        "count",
        per(
            counts.iter().map(|c| c.audit_events).sum(),
            counts.iter().map(|c| c.ops).sum(),
        ),
    );
    push(
        "kernel-sim.inject.arm_ns",
        "ns",
        tracer.mean("kernel-sim.inject.arm"),
    );
    push("host.ref_per_s", "1/s", Some(ref_per_s));
    push("trace.overhead_pct", "%", Some(trace_overhead_pct(epochs)));
    out
}

/// Runs one workload.
pub fn run(cfg: &Config) -> Report {
    let host = HostRecord::start();
    let sizes = Sizes::of(cfg.workload, cfg.small);
    let mut reference = Reference::new(cfg.seed);
    let mut tracer = cfg.trace.then(Tracer::default);
    let mut checks = Checks::default();
    let mut epochs = Vec::new();
    let started = Instant::now();
    while epochs.len() < MIN_EPOCHS || started.elapsed().as_secs_f64() < cfg.seconds {
        // A traced run pairs each traced epoch with an untraced one on
        // the same stream.
        let (stream, traced) = if cfg.trace {
            ((epochs.len() / 2) as u64, epochs.len() % 2 == 1)
        } else {
            (epochs.len() as u64, false)
        };
        let tr = tracer.as_mut().filter(|_| traced);
        match run_epoch(cfg, sizes, stream, traced, &mut reference, tr, &mut checks) {
            Some(epoch) => epochs.push(epoch),
            None => break,
        }
    }
    let ref_per_s = rate(sum(epochs.iter().map(|e| e.reference))).unwrap_or(0.0);
    let (digests, counts) = checks.first.unwrap_or_default();
    let mut errors = std::mem::take(&mut checks.errors);
    if cfg.seed == DEFAULT_SEED && !cfg.small {
        let pinned = DIGESTS
            .iter()
            .find(|(name, _)| *name == cfg.workload.name())
            .map(|(_, d)| *d);
        if pinned != Some(digests) {
            errors.push(format!(
                "outcome digests {digests:#x?} differ from the pinned {pinned:#x?}"
            ));
        }
    }
    let metrics = match &tracer {
        None => {
            let untraced: Vec<&Epoch> = epochs.iter().collect();
            end_to_end(&untraced, &mut errors)
        }
        Some(tracer) => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!(
                    "trace-{}-seed{}.csv",
                    cfg.workload.name(),
                    cfg.seed
                ));
            if let Err(e) = tracer.write_csv(&path) {
                errors.push(format!("writing {}: {e}", path.display()));
            }
            per_layer(tracer, &counts, &epochs, ref_per_s)
        }
    };
    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        errors,
        metrics,
        digests,
        counts,
        epochs: epochs.len(),
        host,
        ref_per_s,
    }
}
