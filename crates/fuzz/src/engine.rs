//! Sharded deterministic sweep and soundness/completeness accounting.
//!
//! Seeds are dealt to shards by residue (`seed % shards`), each shard
//! judges its seeds independently on worker threads, and the results
//! are merged **sorted by seed** before any aggregation or shrinking —
//! so the report is byte-identical for any shard count, and two runs of
//! the same configuration produce the same `BENCH_fuzz.json` and the same
//! reproducer store.

use std::collections::BTreeMap;

use analysis::json::Obj;
use verifier::RejectCheck;

use crate::corpus::{Reproducer, FEATURE_SHAPES, LADDER_PICKS};
use crate::gen::{generate, Shape};
use crate::oracle::{Bucket, Lane, Observation, Oracle};
use crate::shrink::shrink;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of seeds, counting from 0.
    pub seeds: u64,
    /// Worker threads, one per shard.
    pub shards: usize,
    /// Maximum disagreements shrunk per (lane, bucket) pair; the rest
    /// are counted but not minimised.
    pub shrink_limit: usize,
}

impl Default for FuzzConfig {
    /// The committed report's sweep, on one shard per available core:
    /// the report does not depend on the shard count.
    fn default() -> Self {
        FuzzConfig {
            seeds: 1000,
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shrink_limit: 4,
        }
    }
}

/// One program's judgement across both lanes.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The seed.
    pub seed: u64,
    /// The generated shape.
    pub shape: Shape,
    /// Observations, one per [`Lane::ALL`] entry, in lane order.
    pub obs: Vec<Observation>,
}

/// Per-lane accounting.
#[derive(Debug, Clone)]
pub struct LaneReport {
    /// The lane.
    pub lane: Lane,
    /// Programs judged.
    pub total: u64,
    /// Verifier accepts.
    pub accepted: u64,
    /// Bucket counts, parallel to [`Bucket::ALL`].
    pub buckets: [u64; 7],
    /// Reject counts per structured check, parallel to
    /// [`RejectCheck::ALL`].
    pub checks: [u64; 12],
    /// Summed verifier-processed instructions over accepted programs.
    pub insns_processed: u64,
    /// Summed `check_mem` accesses proven over accepted programs.
    pub mem_accesses_checked: u64,
    /// Summed packet-range comparisons over accepted programs.
    pub packet_compares_checked: u64,
    /// Summed helper call sites checked over accepted programs.
    pub helper_calls_checked: u64,
}

impl LaneReport {
    fn new(lane: Lane) -> LaneReport {
        LaneReport {
            lane,
            total: 0,
            accepted: 0,
            buckets: [0; 7],
            checks: [0; 12],
            insns_processed: 0,
            mem_accesses_checked: 0,
            packet_compares_checked: 0,
            helper_calls_checked: 0,
        }
    }

    fn absorb(&mut self, obs: &Observation) {
        self.total += 1;
        if obs.accepted {
            self.accepted += 1;
        }
        let b = Bucket::ALL.iter().position(|b| *b == obs.bucket).unwrap();
        self.buckets[b] += 1;
        if let Some(check) = obs.check {
            let c = RejectCheck::ALL.iter().position(|c| *c == check).unwrap();
            self.checks[c] += 1;
        }
        if let Some(stats) = &obs.stats {
            self.insns_processed += stats.insns_processed;
            self.mem_accesses_checked += stats.mem_accesses_checked;
            self.packet_compares_checked += stats.packet_compares_checked;
            self.helper_calls_checked += stats.helper_calls_checked;
        }
    }

    /// Count for one bucket.
    pub fn bucket(&self, b: Bucket) -> u64 {
        self.buckets[Bucket::ALL.iter().position(|x| *x == b).unwrap()]
    }
}

/// Renders the paper-style table EXPERIMENTS.md embeds verbatim: per
/// lane, the accept rate, the disagreement counts (unsoundness
/// candidates, incompleteness witnesses, JIT divergences), the
/// undecided runs and the disagreement rate, in fixed-width columns.
pub fn render_table(lanes: &[LaneReport]) -> String {
    let pct = |n: u64, total: u64| {
        if total == 0 {
            0.0
        } else {
            100.0 * n as f64 / total as f64
        }
    };
    let mut out = String::from(
        "Differential fuzzing: verifier verdict vs sandboxed runtime behaviour\n\
         ----------------------------------------------------------------------\n",
    );
    out.push_str(&format!(
        "{:<9} {:>7} {:>8} {:>8} {:>9} {:>9} {:>7} {:>9} {:>10}\n",
        "lane", "progs", "accept", "acc%", "unsound", "incompl", "jitdiv", "undecided", "disagree%"
    ));
    for l in lanes {
        let unsound = l.bucket(Bucket::UnsoundnessCandidate);
        let incompl = l.bucket(Bucket::IncompletenessWitness);
        let jitdiv = l.bucket(Bucket::JitDivergence);
        out.push_str(&format!(
            "{:<9} {:>7} {:>8} {:>7.1}% {:>9} {:>9} {:>7} {:>9} {:>9.2}%\n",
            l.lane.name(),
            l.total,
            l.accepted,
            pct(l.accepted, l.total),
            unsound,
            incompl,
            jitdiv,
            l.bucket(Bucket::AcceptUndecided) + l.bucket(Bucket::RejectUndecided),
            pct(unsound + incompl + jitdiv, l.total),
        ));
    }
    out
}

/// One shrunk program: its store entry and how far it shrank.
#[derive(Debug, Clone)]
pub struct ShrunkCase {
    /// The shrunk program with its recorded verdict.
    pub repro: Reproducer,
    /// Steps before shrinking.
    pub steps_before: usize,
    /// Steps after shrinking.
    pub steps_after: usize,
}

impl ShrunkCase {
    /// Shrinks `seed`'s program while its bucket under `lane` holds, and
    /// records what the shrunk program does.
    fn new(oracle: &Oracle, seed: u64, lane: Lane) -> ShrunkCase {
        let prog = generate(seed);
        let (small, bucket) = shrink(oracle, &prog, lane);
        let insns = small.emit().expect("shrunk programs assemble");
        let obs = oracle.evaluate(&insns, small.prog_type(), lane);
        debug_assert_eq!(obs.bucket, bucket);
        ShrunkCase {
            steps_before: prog.steps.len(),
            steps_after: small.steps.len(),
            repro: Reproducer::new(seed, small.shape, insns, obs),
        }
    }
}

/// The full sweep report.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seeds judged.
    pub seeds: u64,
    /// Programs generated per shape, parallel to [`Shape::ALL`].
    pub shapes: [u64; 10],
    /// Per-lane accounting, in [`Lane::ALL`] order.
    pub lanes: Vec<LaneReport>,
    /// Shrunk disagreements, in (lane, bucket, seed) order.
    pub shrunk: Vec<ShrunkCase>,
    /// Shrunk feature-ladder picks whose (seed, lane) is not in `shrunk`.
    pub ladder: Vec<Reproducer>,
}

/// Judges one seed: generate, probe once, verdict per lane.
fn judge(oracle: &Oracle, seed: u64) -> CaseResult {
    let prog = generate(seed);
    let insns = prog.emit().expect("generated programs assemble");
    let prog_type = prog.prog_type();
    let probe = oracle.probe(&insns, prog_type);
    let obs = Lane::ALL
        .iter()
        .map(|&lane| Observation::from_parts(lane, oracle.verdict(&insns, prog_type, lane), &probe))
        .collect();
    CaseResult {
        seed,
        shape: prog.shape,
        obs,
    }
}

/// Runs the sweep: shard, judge, merge sorted by seed, aggregate, shrink
/// the first `shrink_limit` disagreements per (lane, bucket), and shrink
/// [`LADDER_PICKS`] seeds per [`FEATURE_SHAPES`] entry: disagreements
/// first, then plain rejects, ties toward lower seeds and [`Lane::ALL`]
/// order.
pub fn sweep(cfg: &FuzzConfig) -> FuzzReport {
    let oracle = &Oracle::new();
    let shards = cfg.shards.max(1);
    let mut cases: Vec<CaseResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let seeds = (shard as u64..cfg.seeds).step_by(shards);
                scope.spawn(move || seeds.map(|s| judge(oracle, s)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fuzz shard panicked"))
            .collect()
    });
    // Determinism hinges on this: aggregate in seed order regardless of
    // shard interleaving.
    cases.sort_by_key(|c| c.seed);

    let mut shapes = [0u64; 10];
    let mut lanes: Vec<LaneReport> = Lane::ALL.iter().map(|&l| LaneReport::new(l)).collect();
    // (lane index, bucket index) -> seeds of disagreements, seed order.
    let mut disagreements: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
    for case in &cases {
        let s = Shape::ALL.iter().position(|s| *s == case.shape).unwrap();
        shapes[s] += 1;
        for (li, obs) in case.obs.iter().enumerate() {
            lanes[li].absorb(obs);
            if obs.bucket.is_disagreement() {
                let bi = Bucket::ALL.iter().position(|b| *b == obs.bucket).unwrap();
                disagreements.entry((li, bi)).or_default().push(case.seed);
            }
        }
    }

    let mut shrunk = Vec::new();
    for ((li, _), seeds) in &disagreements {
        for &seed in seeds.iter().take(cfg.shrink_limit) {
            shrunk.push(ShrunkCase::new(oracle, seed, Lane::ALL[*li]));
        }
    }

    let mut ladder = Vec::new();
    for shape in FEATURE_SHAPES {
        // (priority, seed, lane index): sorting puts the picks first. An
        // accepted program that ran as judged is never worth storing.
        let mut picks: Vec<(u8, u64, usize)> = Vec::new();
        for case in cases.iter().filter(|c| c.shape == shape) {
            for (li, obs) in case.obs.iter().enumerate() {
                let priority = match (obs.bucket.is_disagreement(), obs.accepted) {
                    (true, _) => 0,
                    (false, false) => 1,
                    (false, true) => continue,
                };
                picks.push((priority, case.seed, li));
            }
        }
        picks.sort_unstable();
        let mut taken: Vec<u64> = Vec::new();
        for (_, seed, li) in picks {
            if taken.len() == LADDER_PICKS {
                break;
            }
            if taken.contains(&seed) {
                continue;
            }
            taken.push(seed);
            let lane = Lane::ALL[li];
            if !shrunk
                .iter()
                .any(|c| (c.repro.seed, c.repro.lane) == (seed, lane))
            {
                ladder.push(ShrunkCase::new(oracle, seed, lane).repro);
            }
        }
    }

    FuzzReport {
        seeds: cfg.seeds,
        shapes,
        lanes,
        shrunk,
        ladder,
    }
}

impl FuzzReport {
    /// The reproducer store's entries: the shrunk disagreements in report
    /// order, then the ladder picks.
    pub fn corpus(&self) -> impl Iterator<Item = &Reproducer> {
        self.shrunk.iter().map(|c| &c.repro).chain(&self.ladder)
    }

    /// The report header: the sweep size, the programs per shape and each
    /// lane's accounting. Counts only: no wall-clock, no host-dependent
    /// values.
    pub fn header(&self) -> Obj {
        let lanes: Vec<Obj> = self
            .lanes
            .iter()
            .map(|l| {
                Obj::new()
                    .str("lane", l.lane.name())
                    .num("total", l.total)
                    .num("accepted", l.accepted)
                    .obj(
                        "buckets",
                        &counts(Bucket::ALL.map(Bucket::name), &l.buckets),
                    )
                    .obj(
                        "reject_checks",
                        &counts(RejectCheck::ALL.map(RejectCheck::name), &l.checks),
                    )
                    .num("insns_processed", l.insns_processed)
                    .num("mem_accesses_checked", l.mem_accesses_checked)
                    .num("packet_compares_checked", l.packet_compares_checked)
                    .num("helper_calls_checked", l.helper_calls_checked)
            })
            .collect();
        Obj::new()
            .str("bench", "fuzz_differential")
            .num("seeds", self.seeds)
            .obj("shapes", &counts(Shape::ALL.map(Shape::name), &self.shapes))
            .objs("lanes", &lanes)
    }

    /// The report's `shrunk` rows: one per shrunk disagreement, in report
    /// order.
    pub fn rows(&self) -> Vec<Obj> {
        self.shrunk
            .iter()
            .map(|c| {
                Obj::new()
                    .num("seed", c.repro.seed)
                    .str("shape", c.repro.shape.name())
                    .str("lane", c.repro.lane.name())
                    .str("bucket", c.repro.bucket.name())
                    .num("steps_before", c.steps_before)
                    .num("steps_after", c.steps_after)
                    .num("insns_after", c.repro.insns.len())
            })
            .collect()
    }
}

/// An object holding each name's count.
fn counts<const N: usize>(names: [&'static str; N], counts: &[u64; N]) -> Obj {
    names
        .into_iter()
        .zip(counts)
        .fold(Obj::new(), |obj, (name, n)| obj.num(name, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use analysis::json::document;

    fn small_cfg(shards: usize) -> FuzzConfig {
        FuzzConfig {
            seeds: 40,
            shards,
            shrink_limit: 1,
        }
    }

    fn json(r: &FuzzReport) -> String {
        document(&r.header(), "shrunk", &r.rows())
    }

    #[test]
    fn report_is_shard_invariant() {
        let one = sweep(&small_cfg(1));
        let three = sweep(&small_cfg(3));
        assert_eq!(json(&one), json(&three));
        let store = |r: &FuzzReport| crate::corpus::render_store(r.corpus());
        assert_eq!(store(&one), store(&three));
    }

    #[test]
    fn report_is_deterministic_across_runs() {
        let a = sweep(&small_cfg(2));
        let b = sweep(&small_cfg(2));
        assert_eq!(json(&a), json(&b));
    }

    #[test]
    fn table_rows_carry_each_lanes_rates() {
        let mut patched = LaneReport::new(Lane::Patched);
        patched.total = 1000;
        patched.accepted = 400;
        let at = |b| Bucket::ALL.iter().position(|x| *x == b).unwrap();
        patched.buckets[at(Bucket::IncompletenessWitness)] = 120;
        patched.buckets[at(Bucket::AcceptUndecided)] = 15;
        let table = render_table(&[patched, LaneReport::new(Lane::Shipped)]);
        let rows: Vec<&str> = table.lines().skip(3).collect();
        assert_eq!(
            rows,
            [
                "patched      1000      400    40.0%         0       120       0        15     12.00%",
                "shipped         0        0     0.0%         0         0       0         0      0.00%",
            ]
        );
    }

    #[test]
    fn every_seed_is_judged_once_per_lane() {
        let report = sweep(&small_cfg(2));
        for lane in &report.lanes {
            assert_eq!(lane.total, 40);
            assert_eq!(lane.buckets.iter().sum::<u64>(), 40);
        }
        assert_eq!(report.shapes.iter().sum::<u64>(), 40);
        // 40 seeds over 10 shapes: exactly 4 programs per shape.
        assert!(report.shapes.iter().all(|&n| n == 4));
    }
}
