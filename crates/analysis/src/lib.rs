//! Analysis substrate: regenerates the paper's figures and tables.
//!
//! * [`callgraph`] — the Figure 3 analysis machinery (BFS reachability,
//!   SCCs, distribution statistics);
//! * [`kerngen`] — the calibrated synthetic kernel call graph standing in
//!   for Linux 5.18 source (see DESIGN.md's substitution table);
//! * [`datasets`] — digitized paper series (Figures 2 and 4) and the
//!   exact published Table 1;
//! * [`loc`] — LoC counting over this repo's own verifier, producing the
//!   measured Figure 2 series from the feature-stage layout;
//! * [`bugdb`] — the corpus of replicated bugs behind the fault toggles;
//! * [`figures`] — each figure's data: the paper's series next to the
//!   one measured from this artifact (the `repro` binary writes them to
//!   `BENCH_repro.json`);
//! * [`profile`] — folds `kernel_sim::trace` span streams into
//!   per-stage self/total cost tables and flamegraph collapsed stacks;
//! * [`json`] — a minimal offline JSON writer and reader for the
//!   `BENCH_*.json` reports;
//! * [`report`] — what the report binaries share: the `[--out <path>]`
//!   command line and the writer that moves `host_*` members out of the
//!   canonical report;
//! * [`regress`] — the CI report gate: every canonical report,
//!   regenerated, must equal its committed copy byte for byte, and a
//!   mismatch names each differing value.
//!
//! # Examples
//!
//! ```
//! let fig3 = analysis::figures::fig3(42);
//! assert_eq!(fig3.stats.count, 249);          // helpers analyzed
//! assert_eq!(fig3.stats.max, 4_845);          // bpf_sys_bpf
//! let (bin, helpers) = fig3.bins[5];
//! assert_eq!((bin, helpers), ("500+", 86));   // call graphs of 500+ nodes
//! ```

pub mod bugdb;
pub mod callgraph;
pub mod datasets;
pub mod figures;
pub mod json;
pub mod kerngen;
pub mod loc;
pub mod profile;
pub mod regress;
pub mod report;

pub use callgraph::{CallGraph, ReachStats};
pub use figures::{fig2, fig3, fig4};
pub use profile::{Profile, StageCost};
