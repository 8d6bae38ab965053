//! The five execution lanes every bench scenario runs on.

use ebpf::interp::{SandboxConfig, Vm};
use ebpf::jit::JitConfig;
use ebpf::program::Program;
use safe_ext::{Extension, Runtime};
use tenancy::ProgramSpec;

use crate::engine::Shard;

/// A program loaded by [`Lane::load`]: runs one packet, returning the
/// program's return value, or `None` when the run aborted or errored.
pub type PacketRun<'s> = Box<dyn Fn(&[u8]) -> Option<u64> + 's>;

/// One way to run an extension: a backend — verified eBPF, the safe-Rust
/// runtime, or the SFI sandbox running *unverified* eBPF bytecode — and,
/// for the two bytecode backends, an execution form. A JIT lane is
/// observationally identical to its interpreter: audit bytes, canonical
/// traces and simulated costs do not move, only host cost does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Verified eBPF, interpreted instruction at a time.
    Ebpf,
    /// Verified eBPF, lowered to one IR op per slot, with fuel settled
    /// where the clock is read and resolved helper call sites.
    EbpfJit,
    /// The safe-Rust extension runtime.
    SafeExt,
    /// The same bytecode loaded unverified into an SFI domain: masked
    /// bounds checks on every access, domain crossings at entry, exit and
    /// helper boundaries, traps (not oopses) on violations.
    Sandbox,
    /// The sandbox lane lowered through the JIT with masked memory ops.
    SandboxJit,
}

impl Lane {
    /// Every lane, in report order.
    pub const ALL: [Lane; 5] = [
        Lane::Ebpf,
        Lane::EbpfJit,
        Lane::SafeExt,
        Lane::Sandbox,
        Lane::SandboxJit,
    ];

    /// Each backend's interpreted lane, in report order.
    pub const INTERP: [Lane; 3] = [Lane::Ebpf, Lane::SafeExt, Lane::Sandbox];

    /// Each backend's fastest lane, in report order (safe-ext has one).
    pub const FASTEST: [Lane; 3] = [Lane::EbpfJit, Lane::SafeExt, Lane::SandboxJit];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Ebpf => "ebpf",
            Lane::EbpfJit => "ebpf-jit",
            Lane::SafeExt => "safe-ext",
            Lane::Sandbox => "sandbox",
            Lane::SandboxJit => "sandbox-jit",
        }
    }

    /// The backend's name, as reports key their rows.
    pub fn backend(self) -> &'static str {
        match self {
            Lane::Ebpf | Lane::EbpfJit => "ebpf",
            Lane::SafeExt => "safe-ext",
            Lane::Sandbox | Lane::SandboxJit => "sandbox",
        }
    }

    /// The compiled twin of an interpreted bytecode lane.
    pub fn jit(self) -> Option<Lane> {
        match self {
            Lane::Ebpf => Some(Lane::EbpfJit),
            Lane::Sandbox => Some(Lane::SandboxJit),
            _ => None,
        }
    }

    /// Whether the lane runs JIT-compiled code.
    pub fn is_jit(self) -> bool {
        matches!(self, Lane::EbpfJit | Lane::SandboxJit)
    }

    /// The tenancy program spec for this lane: the bytecode from `prog`,
    /// or the safe-dialect mirror from `ext`.
    pub fn spec(
        self,
        prog: impl FnOnce() -> Program,
        ext: impl FnOnce() -> Extension,
    ) -> ProgramSpec {
        match self {
            Lane::Ebpf => ProgramSpec::Ebpf(prog()),
            Lane::EbpfJit => ProgramSpec::EbpfJit(prog()),
            Lane::SafeExt => ProgramSpec::Safe(ext()),
            Lane::Sandbox => ProgramSpec::Sandbox(prog()),
            Lane::SandboxJit => ProgramSpec::SandboxJit(prog()),
        }
    }

    /// Loads the bytecode from `prog`, or the safe-dialect mirror from
    /// `ext`, onto `shard` outside the tenancy plane, with no breaker:
    /// admission control is the tenancy plane's.
    ///
    /// # Panics
    ///
    /// If a JIT lane cannot lower `prog`: scenario programs are fixed
    /// and known to lower.
    pub fn load<'s>(
        self,
        shard: &'s Shard,
        prog: impl FnOnce() -> Program,
        ext: impl FnOnce() -> Extension,
    ) -> PacketRun<'s> {
        let mut vm = Vm::new(&shard.kernel, &shard.maps, &shard.helpers);
        let (sandbox, jit) = (SandboxConfig::default(), JitConfig::default());
        let id = match self {
            Lane::Ebpf => vm.load(prog()),
            Lane::EbpfJit => vm.load_jit(prog(), jit).expect("program lowers").0,
            Lane::Sandbox => vm.load_sandboxed(prog(), sandbox),
            Lane::SandboxJit => {
                vm.load_sandboxed_jit(prog(), sandbox, jit)
                    .expect("program lowers")
                    .0
            }
            Lane::SafeExt => {
                let runtime = Runtime::new(&shard.kernel, &shard.maps);
                let ext = ext();
                return Box::new(move |payload| runtime.run_packet(&ext, payload).result.ok());
            }
        };
        Box::new(move |payload| vm.run_packet(id, payload).result.ok())
    }
}
