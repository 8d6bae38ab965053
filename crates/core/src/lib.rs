//! `safe-ext`: the paper's proposed kernel extension framework.
//!
//! *Kernel extension verification is untenable* (HotOS '23) argues that
//! the in-kernel eBPF verifier should retire, replaced by a balance of
//! **language safety** and **lightweight runtime mechanisms**:
//!
//! 1. extensions are written in *safe Rust* against a trusted kernel
//!    crate ([`kernel_crate`]) — memory/type safety comes from the
//!    compiler, not from symbolic execution of bytecode;
//! 2. a trusted userspace toolchain checks the no-`unsafe` policy and
//!    **signs** the artifact ([`toolchain`]); the kernel merely validates
//!    the signature and performs load-time fixup ([`loader`]);
//! 3. the runtime supplies what the language cannot ([`runtime`]):
//!    watchdog termination, stack protection, and unwinding-free cleanup
//!    of kernel resources via trusted destructors ([`cleanup`]);
//! 4. helpers are retired ([`retired`]), simplified (RAII guards in
//!    [`kernel_crate`]), or wrapped (typed `sys_bpf`), shrinking the
//!    unsafe escape-hatch surface of §2.2.
//!
//! # Examples
//!
//! ```
//! use ebpf::maps::{MapDef, MapRegistry};
//! use ebpf::program::ProgType;
//! use kernel_sim::Kernel;
//! use safe_ext::{ExtInput, Extension, Runtime};
//!
//! let kernel = Kernel::new();
//! kernel.populate_demo_env();
//! let maps = MapRegistry::default();
//! let counters = maps.create(&kernel, MapDef::array("hits", 8, 4)).unwrap();
//!
//! // A safe-Rust extension: counts invocations per CPU slot.
//! let ext = Extension::new("counter", ProgType::Kprobe, move |ctx| {
//!     let hits = ctx.array(counters)?;
//!     let cpu = ctx.smp_processor_id()? as u32;
//!     hits.fetch_add_u64(cpu, 0, 1)
//! });
//!
//! let runtime = Runtime::new(&kernel, &maps);
//! let outcome = runtime.run(&ext, ExtInput::None);
//! assert_eq!(outcome.unwrap(), 1);
//! assert!(kernel.health().pristine());
//! ```

pub mod cleanup;
pub mod error;
pub mod ext;
pub mod kernel_crate;
pub mod loader;
pub mod net;
pub mod pool;
pub mod props;
pub mod retired;
pub mod runtime;
pub mod toolchain;

pub use cleanup::{CleanupRegistry, Resource};
pub use error::{Abort, ExtError};
pub use ext::{ChainFn, ExtTable, ExtVerdict, Extension, MAX_TAIL_CHAIN};
pub use kernel_crate::{ExtCtx, ExtInput, SysBpfRequest, TaskRef};
pub use loader::{ExtensionRegistry, LoadError, Loader};
pub use runtime::{ExtOutcome, Runtime, RuntimeConfig};
pub use toolchain::{SignedArtifact, Toolchain, ToolchainError};
