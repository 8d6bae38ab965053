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
//! * [`figures`] — composition + ASCII/JSON rendering of each figure;
//! * [`fuzztable`] — the differential-fuzzing soundness/completeness
//!   table rendered from `crates/fuzz` sweep counts;
//! * [`profile`] — folds `kernel_sim::trace` span streams into
//!   per-stage self/total cost tables and flamegraph collapsed stacks;
//! * [`json`] — a minimal offline JSON writer and reader for the
//!   `BENCH_*.json` reports;
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
//! println!("{}", fig3.render());
//! ```

pub mod bugdb;
pub mod callgraph;
pub mod datasets;
pub mod figures;
pub mod fuzztable;
pub mod json;
pub mod kerngen;
pub mod loc;
pub mod profile;
pub mod regress;

pub use callgraph::{CallGraph, ReachStats};
pub use figures::{fig2, fig3, fig4};
pub use profile::{Profile, StageCost};
