//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace routes `criterion` to this path crate. It keeps the
//! statistical machinery out and the API surface in: `criterion_group!` /
//! `criterion_main!`, `Criterion::benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `black_box`, and `Bencher::iter`.
//! Each benchmark runs `sample_size` timed samples after a warm-up and
//! prints the median, quartiles, min and max nanoseconds per iteration.

use std::hint;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity function.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// A benchmark named `function_name` with parameter `parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// A benchmark identified by its parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// The shortest batch `Bencher::iter` times as one sample.
const SAMPLE_TIME: Duration = Duration::from_millis(1);

/// Passed to benchmark closures; runs the measured routine.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, collecting `sample_size` samples.
    ///
    /// One untimed call warms the routine up; then a batch that doubles
    /// until it takes at least `SAMPLE_TIME` sets the iterations per
    /// sample. A cold first call can be many times slower than a warm
    /// one, so sizing samples from it would make them far too short.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let mut iters_per_sample: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            if start.elapsed() >= SAMPLE_TIME {
                break;
            }
            iters_per_sample *= 2;
        }

        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let total = start.elapsed();
            let per_iter = total.as_nanos() / u128::from(iters_per_sample);
            self.samples.push(Duration::from_nanos(per_iter as u64));
        }
    }

    /// Times `routine` with a fresh `setup` value per timing; the setup
    /// cost is excluded from the measurement.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, label: &str) {
        if self.samples.is_empty() {
            println!("{label:<50} (no samples)");
            return;
        }
        let mut ns: Vec<u128> = self.samples.iter().map(|d| d.as_nanos()).collect();
        ns.sort_unstable();
        let n = ns.len();
        println!(
            "{label:<50} median {:>12} ns/iter  (q1 {}, q3 {}, min {}, max {}, {n} samples)",
            ns[n / 2],
            ns[n / 4],
            ns[3 * n / 4],
            ns[0],
            ns[n - 1],
        );
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Overrides the number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl ToString, mut f: F) {
        let label = format!("{}/{}", self.name, id.to_string());
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        b.report(&label);
    }

    /// Benchmarks `f` with a borrowed input under `id`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let label = format!("{}/{}", self.name, id);
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        b.report(&label);
    }

    /// Ends the group (report-flush point in real criterion; no-op here).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the default number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
        }
    }

    /// Benchmarks `f` under `name` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        b.report(name);
    }
}

/// Declares a benchmark group; mirror of `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main`; mirror of `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("sum", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        c.bench_function("top-level", |b| b.iter(|| black_box(2 * 2)));
    }

    criterion_group! {
        name = benches;
        config = Criterion::default().sample_size(3);
        targets = quick
    }

    #[test]
    fn harness_runs() {
        benches();
    }
}
