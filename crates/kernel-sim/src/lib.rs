//! Simulated kernel substrate for the `untenable` reproduction.
//!
//! This crate stands in for the parts of a real kernel that the paper's
//! argument touches: checked kernel memory (so that a wild dereference is a
//! detectable [`Fault`] instead of a bricked machine), RCU read-side critical
//! sections with a stall detector, spinlocks and reference counts with leak
//! detection, kernel objects (tasks, sockets, socket buffers), a virtual
//! monotonic clock, and an oops/audit subsystem that records every property
//! violation as structured data that tests and benchmarks can assert on.
//!
//! Both extension frameworks built on top of this substrate — the eBPF-style
//! baseline (`ebpf` + `verifier` crates) and the paper's proposed safe-Rust
//! framework (`safe-ext` crate) — run against the same [`Kernel`] façade, so
//! property violations are observed identically on both sides.
//!
//! # Examples
//!
//! ```
//! use kernel_sim::{Kernel, mem::Perms};
//!
//! let kernel = Kernel::new();
//! let buf = kernel.mem.map("example-buffer", 64, Perms::rw()).unwrap();
//! kernel.mem.write_u64(buf, 0xdead_beef).unwrap();
//! assert_eq!(kernel.mem.read_u64(buf).unwrap(), 0xdead_beef);
//!
//! // A NULL dereference is a fault, not a crash of the host process.
//! assert!(kernel.mem.read_u64(0).is_err());
//! ```

pub mod audit;
pub mod domain;
pub mod exec;
pub mod hooks;
pub mod inject;
pub mod kernel;
pub mod locks;
pub mod mem;
pub mod metrics;
pub mod net;
pub mod objects;
pub mod oops;
pub mod percpu;
pub mod rcu;
pub mod refcount;
mod table;
pub mod time;
pub mod trace;

pub use domain::{DomainCosts, SandboxDomain};
pub use exec::{ExecCtx, ExecReport};
pub use hooks::{HookHists, LsmHook, ProbePoint, SchedBoard, SchedCandidates, SchedChoice};
pub use inject::{FaultPlan, FaultPlanConfig, FaultPlane, FaultSite};
pub use kernel::{HealthReport, Kernel};
pub use mem::{Addr, Fault};
pub use metrics::{HistSketch, HistSnapshot, Metrics, MetricsSnapshot};
pub use oops::{Oops, OopsReason};
pub use trace::{SpanKind, SpanPhase, TraceEvent, Tracer};

/// splitmix64: the finalizer every seeded choice in the workspace derives
/// from (shard steering, generated items, fault-plan seeds, storm victims,
/// the fuzzer's program generator).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
