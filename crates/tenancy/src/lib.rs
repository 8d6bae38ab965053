//! Multi-tenant extension control plane.
//!
//! The paper's untenability argument is a *fleet* argument: verification
//! cost, lifecycle churn, and blast-radius isolation only matter because a
//! production kernel hosts hundreds of extensions owned by mutually
//! distrusting teams. Every earlier subsystem in this workspace loads one
//! program per scenario; this crate supplies the missing control plane:
//!
//! - **[`TenantRegistry`]** — hundreds to thousands of concurrently loaded
//!   extensions in *both* dialects (verified eBPF bytecode and safe-Rust
//!   extensions) behind named attachment points.
//! - **[`TenantBudget`]** — per-tenant budgets: a fuel budget for safe-ext
//!   runs, a [`kernel_sim::mem::KernelMem`] byte quota (an accounting
//!   *domain*, charged at map creation **and** at runtime when hash
//!   entries or ring records are allocated), and map-count / map-size
//!   quotas checked at load.
//! - **Atomic hot upgrade** — [`TenantRegistry::upgrade`] loads v2, swaps
//!   the attachment pointer, waits out an RCU grace period on the existing
//!   machinery, and only then tears down v1; packets admitted before the
//!   swap complete on v1, packets after it see v2.
//! - **Shared maps** — created once, referenced by many programs, torn
//!   down when the last reference drops ([`TenancyError`] on stale use;
//!   the fd-generation table in [`ebpf::maps`] turns any stale fd into an
//!   error rather than aliasing).
//! - **Tenant-scoped quarantine** — the circuit breaker is keyed by
//!   `tenant/point` (tenant names hold no `/`, so two tenants' keys never
//!   collide), so one misbehaving tenant's breaker trips without
//!   disturbing neighbors, and the half-open cooldown probe readmits it
//!   deterministically once the fault storm passes. [`storm`] derives the
//!   seeded "quarantine storm" fault configuration that drives targeted
//!   kills through the fault-injection plane.

pub mod budget;
pub mod registry;
pub mod storm;

pub use budget::TenantBudget;
pub use registry::{
    HookInput, ProgramSpec, RunOutcome, RunVerdict, TenancyError, TenantId, TenantRegistry,
};
pub use storm::{storm_fault_config, Storm};
