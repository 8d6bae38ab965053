//! Benchmark and reproduction harness.
//!
//! [`workloads`] builds the programs and extensions the experiments run;
//! [`experiments`] contains the structured experiment runners shared by
//! the Criterion benches (`benches/`) and the `repro` binary, which
//! regenerates every figure and table of the paper (see EXPERIMENTS.md).
//! [`engine`] runs the sharded scenarios ([`dispatch`], [`netflows`],
//! [`churn`], [`hooks`]) on any [`Lane`]; [`cli`] is the plumbing their
//! report binaries share.

pub mod churn;
pub mod cli;
pub mod dispatch;
pub mod engine;
pub mod experiments;
pub mod fleet;
pub mod hooks;
pub mod hostclock;
pub mod ladder;
mod lane;
pub mod netflows;
pub mod workloads;

pub use lane::{Lane, PacketRun};
