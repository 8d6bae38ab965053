//! Spans recorded by the traced run around the benchmark's own calls
//! into each layer.
//!
//! Every span covers one public call (or a fixed batch of calls to a
//! sub-microsecond primitive) and carries a name, start, end, parent and
//! op id. Per-name totals are kept for every span; the spans themselves
//! are kept in memory up to a cap and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept in memory for the trace file; totals cover every span.
const MAX_SPANS: usize = 200_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `verifier.verify`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing op's span, if any.
    pub parent: Option<u32>,
    /// The op (stream unit) the span belongs to.
    pub op: u64,
}

/// A per-name total: time and the number of calls it covers.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    /// Summed duration, nanoseconds.
    pub ns: u64,
    /// Calls covered.
    pub calls: u64,
}

impl Total {
    /// Mean nanoseconds per call, or `None` if no call was recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.calls > 0).then(|| self.ns as f64 / self.calls as f64)
    }
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
    /// Self-time samples (span minus its children), summed per name.
    selfs: BTreeMap<&'static str, (f64, u64)>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            selfs: BTreeMap::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh op id for the next stream unit.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Records a span covering `calls` calls; returns its index when it
    /// was kept. Returns the span's duration as well.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
        calls: u64,
    ) -> (Option<u32>, u64) {
        let ns = end_ns.saturating_sub(start_ns);
        let total = self.totals.entry(name).or_default();
        total.ns += ns;
        total.calls += calls;
        let id = (self.spans.len() < MAX_SPANS).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
            });
            (self.spans.len() - 1) as u32
        });
        (id, ns)
    }

    /// Records one self-time sample: a span's duration minus the
    /// durations of its child spans.
    pub fn self_sample(&mut self, name: &'static str, span_ns: u64, children_ns: u64) {
        let entry = self.selfs.entry(name).or_insert((0.0, 0));
        entry.0 += span_ns as f64 - children_ns as f64;
        entry.1 += 1;
    }

    /// Mean nanoseconds per call of `name`.
    pub fn mean(&self, name: &str) -> Option<f64> {
        self.totals.get(name).and_then(Total::mean)
    }

    /// Mean self time of `name`.
    pub fn self_mean(&self, name: &str) -> Option<f64> {
        self.selfs
            .get(name)
            .and_then(|&(sum, n)| (n > 0).then(|| sum / n as f64))
    }

    /// Writes the kept spans as CSV (`id,parent,op,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{id},{parent},{},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
