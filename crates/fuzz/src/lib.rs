//! Verifier-oracle differential fuzzing.
//!
//! The paper's §2 argument is empirical: the in-kernel verifier is both
//! **unsound** (verifier bugs let unsafe programs through) and
//! **incomplete** (safe programs are rejected). This crate hunts for
//! both kinds of evidence systematically instead of citing it:
//!
//! 1. [`gen`] builds seeded, structured eBPF programs stratified over
//!    shapes (ALU, JMP32 bounds gadgets, stack/map memory traffic,
//!    helper calls, bounded loops, packet access), biased toward the
//!    verifier's boundary conditions.
//! 2. [`oracle`] classifies each program as {verifier-accept,
//!    verifier-reject} × {runtime-safe, runtime-trap} by actually
//!    executing it — in the sandboxed interpreter *and* through the JIT
//!    pipeline, under a fuel budget, over a deterministic input family —
//!    and cross-checks the two pipelines' full audit fingerprints.
//! 3. [`shrink`] minimizes any verdict/behaviour disagreement to a
//!    small reproducer by delta-debugging the generator's step IR.
//! 4. [`corpus`] renders shrunk reproducers, each with its recorded
//!    verdict, as commented assembly text in one store that the
//!    workspace-root `fuzz_corpus_replay` and `bugdb_replay` suites
//!    re-run on every `cargo test`.
//! 5. [`engine`] sweeps seed ranges across shards deterministically,
//!    aggregates the soundness/completeness accounting, renders the
//!    paper-style table, builds the report's rows, and picks the store's
//!    entries; the `fuzzstats` report binary writes `BENCH_fuzz.json`
//!    through `analysis::report`, `BENCH_fuzz_corpus.txt` beside it, and
//!    prints the table.

pub mod corpus;
pub mod engine;
pub mod gen;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use engine::{sweep, FuzzConfig, FuzzReport};
pub use gen::{generate, FuzzProgram, Shape, Step};
pub use oracle::{Bucket, Lane, Observation, Oracle, RuntimeClass};
