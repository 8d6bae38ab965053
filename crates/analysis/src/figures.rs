//! Figure regeneration: paper-digitized series next to series measured
//! from this artifact. The `repro` report binary writes them out.

use ebpf::version::KernelVersion;

use crate::{callgraph, datasets, kerngen, loc};

/// Figure 2: verifier LoC over time.
#[derive(Debug)]
pub struct Fig2 {
    /// Digitized paper series: `(version, year, loc)`.
    pub paper: Vec<(KernelVersion, u16, u32)>,
    /// Measured from this artifact: cumulative verifier LoC per feature
    /// stage: `(version, stage label, loc)`.
    pub measured: Vec<(KernelVersion, &'static str, usize)>,
}

/// Computes Figure 2.
pub fn fig2() -> Fig2 {
    Fig2 {
        paper: datasets::FIG2_VERIFIER_LOC
            .iter()
            .map(|(v, l)| (*v, v.release_year(), *l))
            .collect(),
        measured: loc::verifier_loc_by_stage(),
    }
}

/// Figure 3's log-scale histogram bins: `(label, lo, hi)`, a helper whose
/// call graph has `lo <= nodes < hi` falls in the bin.
pub const FIG3_BINS: [(&str, usize, usize); 6] = [
    ("0", 0, 1),
    ("1-9", 1, 10),
    ("10-29", 10, 30),
    ("30-99", 30, 100),
    ("100-499", 100, 500),
    ("500+", 500, usize::MAX),
];

/// Figure 3: call-graph complexity of each helper.
#[derive(Debug)]
pub struct Fig3 {
    /// Per-helper reach over the calibrated synthetic kernel.
    pub sizes: Vec<(String, usize)>,
    /// Summary statistics of the synthetic analysis.
    pub stats: callgraph::ReachStats,
    /// How many helpers fall in each of [`FIG3_BINS`]: `(label, helpers)`.
    pub bins: Vec<(&'static str, usize)>,
    /// The same metric over this artifact's own simulated helpers
    /// (their declared fan-out in the simulated kernel).
    pub ours: Vec<(String, u32)>,
}

/// Computes Figure 3 (deterministic for a given seed).
pub fn fig3(seed: u64) -> Fig3 {
    let kernel = kerngen::generate(seed);
    let sizes = kernel.analyze();
    let stats = callgraph::reach_stats(&sizes.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let bins = FIG3_BINS
        .iter()
        .map(|&(label, lo, hi)| {
            let n = sizes.iter().filter(|(_, s)| (lo..hi).contains(s)).count();
            (label, n)
        })
        .collect();
    let registry = ebpf::helpers::HelperRegistry::standard();
    let ours = registry
        .specs()
        .iter()
        .map(|s| (s.name.to_string(), s.callgraph_fanout))
        .collect();
    Fig3 {
        sizes,
        stats,
        bins,
        ours,
    }
}

impl Fig3 {
    /// The call-graph size of helper `name` in the synthetic kernel.
    pub fn nodes_of(&self, name: &str) -> Option<usize> {
        self.sizes.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }
}

/// Figure 4: helper count over time.
#[derive(Debug)]
pub struct Fig4 {
    /// Digitized paper series.
    pub paper: Vec<(KernelVersion, u16, u32)>,
    /// Measured from this artifact's registry metadata (cumulative count
    /// of simulated helpers by `introduced_in`).
    pub measured: Vec<(KernelVersion, usize)>,
    /// Linear-fit growth rate of the paper series, helpers per two years.
    pub paper_growth_per_two_years: f64,
}

/// Computes Figure 4.
pub fn fig4() -> Fig4 {
    let registry = ebpf::helpers::HelperRegistry::standard();
    let specs = registry.specs();
    let measured = KernelVersion::FIGURE_SERIES
        .iter()
        .map(|v| (*v, specs.iter().filter(|s| s.introduced_in <= *v).count()))
        .collect();
    let points: Vec<(f64, f64)> = datasets::FIG4_HELPER_COUNT
        .iter()
        .map(|(v, c)| (v.release_year() as f64, *c as f64))
        .collect();
    Fig4 {
        paper: datasets::FIG4_HELPER_COUNT
            .iter()
            .map(|(v, c)| (*v, v.release_year(), *c))
            .collect(),
        measured,
        paper_growth_per_two_years: linear_slope(&points) * 2.0,
    }
}

/// Least-squares slope of `(x, y)` points.
pub fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_has_both_series() {
        let f = fig2();
        assert_eq!(f.paper.len(), 9);
        assert!(!f.measured.is_empty());
    }

    #[test]
    fn fig3_matches_calibration() {
        let f = fig3(42);
        assert_eq!(f.stats.count, 249);
        assert_eq!(f.stats.max, datasets::FIG3_MAX_NODES);
        assert!(!f.ours.is_empty());
        assert_eq!(f.nodes_of("bpf_sys_bpf"), Some(datasets::FIG3_MAX_NODES));
        let binned: usize = f.bins.iter().map(|(_, n)| n).sum();
        assert_eq!(binned, f.stats.count);
    }

    #[test]
    fn fig4_measured_grows_with_versions() {
        let f = fig4();
        for pair in f.measured.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // Our registry is a 48-helper subset; the *shape* grows.
        assert!(f.measured.last().unwrap().1 >= 35);
        assert!((40.0..60.0).contains(&f.paper_growth_per_two_years));
    }

    #[test]
    fn slope_of_line_is_exact() {
        let pts = [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)];
        assert!((linear_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
