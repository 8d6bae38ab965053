//! The reproducer store: every shrunk fuzzer witness, in one file.
//!
//! Each entry is commented assembly text — the syntax
//! [`ebpf::text::parse_program`] reads and
//! [`ebpf::disasm::disasm_program`] writes — under a `; key: value`
//! header that records the seed, shape, lane, and the full observed
//! verdict: bucket, structured reject check, runtime class and trap.
//! Every `fuzzstats` run writes the whole store to
//! `BENCH_fuzz_corpus.txt` beside its report: first the report's shrunk
//! disagreements, in report order, then [`LADDER_PICKS`] picks per
//! [`FEATURE_SHAPES`] entry, each (seed, lane) pair once. The CI report
//! gate regenerates the store byte for byte, and the workspace-root
//! `fuzz_corpus_replay` and `bugdb_replay` suites re-judge every entry
//! on each `cargo test`, so a behaviour change that flips a recorded
//! verdict fails loudly.

use ebpf::disasm::disasm_program;
use ebpf::insn::Insn;
use ebpf::text::parse_program;
use verifier::RejectCheck;

use crate::gen::Shape;
use crate::oracle::{Bucket, Lane, Observation, Oracle, RuntimeClass};

/// The feature-ladder shapes the store keeps picks for, whatever their
/// bucket: bpf2bpf calls, tail calls, spin locks, ringbuf reservations.
pub const FEATURE_SHAPES: [Shape; 4] = [
    Shape::Bpf2Bpf,
    Shape::TailCall,
    Shape::SpinLock,
    Shape::RingbufRes,
];

/// Seeds picked per [`FEATURE_SHAPES`] entry.
pub const LADDER_PICKS: usize = 2;

/// The first line of every entry.
const MAGIC: &str = "; fuzz-reproducer v1";

/// One shrunk program with the verdict recorded when it was stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// The generating seed.
    pub seed: u64,
    /// The generator shape (fixes the program type).
    pub shape: Shape,
    /// The verifier lane the verdict is recorded under.
    pub lane: Lane,
    /// The verdict × behaviour bucket.
    pub bucket: Bucket,
    /// The structured reject check, when the lane rejected.
    pub check: Option<RejectCheck>,
    /// The runtime class over the input family.
    pub runtime: RuntimeClass,
    /// Debug rendering of the first runtime trap, if any.
    pub trap: Option<String>,
    /// The shrunk bytecode.
    pub insns: Vec<Insn>,
}

impl Reproducer {
    /// Records `obs`, the judgement of `insns` from `seed` under its lane.
    pub fn new(seed: u64, shape: Shape, insns: Vec<Insn>, obs: Observation) -> Reproducer {
        Reproducer {
            seed,
            shape,
            lane: obs.lane,
            bucket: obs.bucket,
            check: obs.check,
            runtime: obs.runtime,
            trap: obs.trap,
            insns,
        }
    }

    /// Renders the entry text.
    pub fn render(&self) -> String {
        let mut out = format!("{MAGIC}\n");
        out.push_str(&format!("; seed: {}\n", self.seed));
        out.push_str(&format!("; shape: {}\n", self.shape.name()));
        out.push_str(&format!("; lane: {}\n", self.lane.name()));
        out.push_str(&format!("; bucket: {}\n", self.bucket.name()));
        if let Some(check) = self.check {
            out.push_str(&format!("; check: {}\n", check.name()));
        }
        out.push_str(&format!("; runtime: {}\n", self.runtime.name()));
        for line in self.trap.iter().flat_map(|t| t.lines()) {
            out.push_str(&format!("; note: {line}\n"));
        }
        out.push_str(&disasm_program(&self.insns, None));
        out
    }

    /// Parses one entry.
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let (mut seed, mut shape, mut lane, mut bucket) = (None, None, None, None);
        let (mut check, mut runtime, mut notes) = (None, None, Vec::new());
        for line in text.lines() {
            let Some((key, value)) = line.strip_prefix(';').and_then(|r| r.split_once(':')) else {
                continue;
            };
            let value = value.trim();
            match key.trim() {
                "seed" => seed = value.parse::<u64>().ok(),
                "shape" => shape = Shape::from_name(value),
                "lane" => lane = Lane::from_name(value),
                "bucket" => bucket = Bucket::from_name(value),
                "check" => {
                    let found = RejectCheck::ALL.into_iter().find(|c| c.name() == value);
                    check = Some(found.ok_or("bad `; check:` header")?);
                }
                "runtime" => runtime = RuntimeClass::from_name(value),
                "note" => notes.push(value),
                _ => {}
            }
        }
        Ok(Reproducer {
            seed: seed.ok_or("missing `; seed:` header")?,
            shape: shape.ok_or("missing or bad `; shape:` header")?,
            lane: lane.ok_or("missing or bad `; lane:` header")?,
            bucket: bucket.ok_or("missing or bad `; bucket:` header")?,
            check,
            runtime: runtime.ok_or("missing or bad `; runtime:` header")?,
            trap: (!notes.is_empty()).then(|| notes.join("\n")),
            insns: parse_program(text).map_err(|e| e.to_string())?,
        })
    }

    /// Re-judges the program under its recorded lane.
    pub fn replay(&self, oracle: &Oracle) -> Observation {
        oracle.evaluate(&self.insns, self.shape.prog_type(), self.lane)
    }
}

/// Renders a store: the entries in order, a blank line between entries.
pub fn render_store<'a>(entries: impl IntoIterator<Item = &'a Reproducer>) -> String {
    let texts: Vec<String> = entries.into_iter().map(Reproducer::render).collect();
    texts.join("\n")
}

/// Parses a store; each entry starts at a `; fuzz-reproducer v1` line,
/// and an error names the line its entry starts on.
pub fn parse_store(text: &str) -> Result<Vec<Reproducer>, String> {
    // (byte offset, line number) of each entry's first line.
    let mut starts = Vec::new();
    let mut at = 0;
    for (i, line) in text.split_inclusive('\n').enumerate() {
        if line.trim_end() == MAGIC {
            starts.push((at, i + 1));
        } else if starts.is_empty() {
            return Err(format!("line {}: expected `{MAGIC}`", i + 1));
        }
        at += line.len();
    }
    let ends = starts.iter().skip(1).map(|s| s.0).chain([text.len()]);
    starts
        .iter()
        .zip(ends)
        .map(|(&(from, line), to)| {
            Reproducer::parse(&text[from..to]).map_err(|e| format!("entry at line {line}: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{emit, Step};
    use ebpf::insn::{Reg, BPF_W};
    use ebpf::program::ProgType;

    fn sample() -> Reproducer {
        let steps = [
            Step::MapLookup { key: 1000 },
            Step::OrNullArith { imm: 16 },
            Step::NullCheck,
            Step::MapLoad {
                size: BPF_W,
                dst: Reg::R7,
                off: 0,
            },
        ];
        let insns = emit(&steps, ProgType::SocketFilter).unwrap();
        let obs = Oracle::new().evaluate(&insns, ProgType::SocketFilter, Lane::Shipped);
        Reproducer::new(42, Shape::Jmp32, insns, obs)
    }

    #[test]
    fn render_parse_roundtrip() {
        let r = sample();
        assert_eq!(Reproducer::parse(&r.render()), Ok(r.clone()));
        let mut witness = r;
        witness.bucket = Bucket::IncompletenessWitness;
        witness.check = Some(RejectCheck::Lock);
        witness.runtime = RuntimeClass::Safe;
        witness.trap = None;
        assert_eq!(Reproducer::parse(&witness.render()), Ok(witness));
    }

    #[test]
    fn store_roundtrips_and_names_a_bad_entry_by_line() {
        let mut second = sample();
        second.seed = 7;
        let store = render_store([&sample(), &second]);
        assert_eq!(parse_store(&store), Ok(vec![sample(), second.clone()]));
        // The second entry starts after the first and one blank line.
        let line = sample().render().lines().count() + 2;
        let bad = format!(
            "{}\n{}",
            sample().render(),
            second.render().replace("; runtime: trap\n", "")
        );
        assert_eq!(
            parse_store(&bad),
            Err(format!(
                "entry at line {line}: missing or bad `; runtime:` header"
            ))
        );
        assert_eq!(
            parse_store("  0: exit\n"),
            Err(format!("line 1: expected `{MAGIC}`"))
        );
    }

    #[test]
    fn replay_reproduces_the_recorded_verdict() {
        let r = sample();
        let obs = r.replay(&Oracle::new());
        assert_eq!(
            (obs.bucket, obs.check),
            (Bucket::UnsoundnessCandidate, None)
        );
        assert_eq!((obs.runtime, obs.trap), (r.runtime, r.trap));
    }
}
