//! Benchmark and reproduction harness.
//!
//! [`workloads`] builds the programs and extensions the experiments run;
//! [`experiments`] contains the structured experiment runners behind the
//! `repro` report binary, which regenerates every figure and table of the
//! paper into `BENCH_repro.json` (see EXPERIMENTS.md).
//! [`engine`] runs the sharded scenarios ([`dispatch`], [`netflows`],
//! [`churn`], [`hooks`]) on any [`Lane`], and sweeps each of their report
//! binaries' grid cells over shard counts. [`soak`] holds the differential
//! fault-injection soak behind the `soak` report binary.

pub mod churn;
pub mod dispatch;
pub mod engine;
pub mod experiments;
pub mod fleet;
pub mod hooks;
pub mod hostclock;
pub mod ladder;
mod lane;
pub mod netflows;
pub mod soak;
pub mod workloads;

pub use lane::{Lane, PacketRun};
