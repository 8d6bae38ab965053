//! Observational equivalence of the lowering pass and the interpreter,
//! property-tested across the fuzz generator's strata.
//!
//! Every generated program (all ten [`Shape`](fuzz::gen::Shape) strata:
//! ALU boundary arithmetic, JMP32 narrowing gadgets, stack/map memory
//! edges, helper calls, budget-straddling loops, packet access, bpf2bpf,
//! tail calls, spin locks, ringbuf reservations) is run over the
//! oracle's exhaustive input family through both lanes:
//!
//! * the instruction-at-a-time interpreter ([`Vm::load`]), and
//! * the compiled lane ([`Vm::load_jit`]): one lowered op per slot, with
//!   the fuel it owes settled wherever the clock is read.
//!
//! The lanes must agree on the *full observable surface*: run result,
//! instruction/helper/depth counters, printk stream, the kernel's audit
//! fingerprint, the span-trace hash, and the virtual clock afterwards. A second property pins the
//! CVE-2021-29154 replica: with `branch_offset_bug` armed, the lowered
//! lane must reproduce byte-for-byte the behaviour of interpreting the
//! byte-lane (`jit_compile`) bugged text — the bug is replicated, not
//! merely approximated.

use proptest::prelude::*;

use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, ExecError, RunResult, Vm, VmConfig};
use ebpf::jit::{jit_compile, JitConfig, JitError};
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::Program;
use fuzz::gen::generate;
use fuzz::oracle::{inputs, ARR_FD, FUEL, HASH_FD, PROG_FD, RB_FD};
use kernel_sim::{trace, Kernel};

/// A run's observable surface; see [`Env::observe`].
type Surface = (RunResult, String, String, u64);

/// A fresh kernel + registries with the fuzzer's fixed map layout and
/// span tracing enabled, so the trace hash is part of the comparison.
struct Env {
    kernel: Kernel,
    maps: MapRegistry,
    helpers: HelperRegistry,
}

impl Env {
    fn new() -> Env {
        let kernel = Kernel::new();
        kernel.enable_tracing();
        let maps = MapRegistry::default();
        let helpers = HelperRegistry::standard();
        let arr = maps
            .create(&kernel, MapDef::array("fz_arr", 64, 4))
            .expect("array map");
        let hash = maps
            .create(&kernel, MapDef::hash("fz_hash", 4, 16, 8))
            .expect("hash map");
        let rb = maps
            .create(&kernel, MapDef::ringbuf("fz_rb", 4096))
            .expect("ringbuf");
        let prog = maps
            .create(&kernel, MapDef::prog_array("fz_prog", 4))
            .expect("prog array");
        assert_eq!((arr, hash, rb, prog), (ARR_FD, HASH_FD, RB_FD, PROG_FD));
        Env {
            kernel,
            maps,
            helpers,
        }
    }

    /// Pins prog-array slot 0 to `id` so generated tail calls have a
    /// live target, exactly as the oracle does.
    fn pin_tail_target(&self, id: u32) {
        self.maps
            .get(PROG_FD)
            .expect("prog array exists")
            .update(&self.kernel.mem, &0u32.to_le_bytes(), &id.to_le_bytes(), 0)
            .expect("prog slot update");
    }

    /// Collapses the run into its full observable surface:
    /// `(result, audit fingerprint, trace hash, clock)`.
    fn observe(self, result: RunResult) -> Surface {
        let trace_fp = trace::fingerprint(&self.kernel.trace.take());
        (
            result,
            self.kernel.audit.fingerprint(),
            trace_fp,
            self.kernel.clock.now_ns(),
        )
    }
}

fn run_interp(prog: Program, input: CtxInput) -> Surface {
    let env = Env::new();
    let result = {
        let mut vm = Vm::new(&env.kernel, &env.maps, &env.helpers).with_config(VmConfig {
            max_insns: Some(FUEL),
            ..VmConfig::default()
        });
        let id = vm.load(prog);
        env.pin_tail_target(id);
        vm.run(id, input)
    };
    env.observe(result)
}

fn run_lowered(prog: Program, config: JitConfig, input: CtxInput) -> Result<Surface, JitError> {
    let env = Env::new();
    let result = {
        let mut vm = Vm::new(&env.kernel, &env.maps, &env.helpers).with_config(VmConfig {
            max_insns: Some(FUEL),
            ..VmConfig::default()
        });
        let (id, _stats) = vm.load_jit(prog, config)?;
        env.pin_tail_target(id);
        vm.run(id, input)
    };
    Ok(env.observe(result))
}

fn assert_same_surface(base: &Surface, jit: &Surface) -> Result<(), TestCaseError> {
    prop_assert_eq!(&base.0.result, &jit.0.result);
    prop_assert_eq!(base.0.insns, jit.0.insns);
    prop_assert_eq!(base.0.helper_calls, jit.0.helper_calls);
    prop_assert_eq!(base.0.max_depth, jit.0.max_depth);
    prop_assert_eq!(&base.0.printk, &jit.0.printk);
    prop_assert_eq!(&base.1, &jit.1, "audit fingerprints diverged");
    prop_assert_eq!(&base.2, &jit.2, "trace hashes diverged");
    prop_assert_eq!(base.3, jit.3, "virtual clocks diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Across every generator stratum and every input of the oracle's
    /// family: lowering + block execution is observationally identical
    /// to the interpreter, down to audit bytes and trace hashes.
    #[test]
    fn lowered_lane_is_observationally_identical(seed in any::<u64>()) {
        let fp = generate(seed);
        let insns = fp.emit().expect("generated programs assemble");
        for input in inputs(fp.prog_type()) {
            let prog = || Program::new("fuzz", fp.prog_type(), insns.clone());
            let base = run_interp(prog(), input.clone());
            match run_lowered(prog(), JitConfig::default(), input) {
                Ok(jit) => assert_same_surface(&base, &jit)?,
                // Lowering refuses mid-LDDW programs; the interpreter
                // must refuse them identically, at the same pc.
                Err(JitError::TruncatedLddw { pc }) => prop_assert!(matches!(
                    base.0.result,
                    Err(ExecError::TruncatedLddw { pc: p }) if p == pc
                )),
                Err(e) => prop_assert!(false, "generator emitted invalid branches: {e}"),
            }
        }
    }

    /// With the CVE-2021-29154 replica armed, the lowered lane diverges
    /// *exactly* like the byte lane: running the lowered program with
    /// the bug equals interpreting the `jit_compile`-bugged text.
    #[test]
    fn armed_branch_bug_matches_byte_lane(seed in any::<u64>()) {
        let fp = generate(seed);
        let insns = fp.emit().expect("generated programs assemble");
        let bug = JitConfig { branch_offset_bug: true, ..JitConfig::default() };
        let prog = || Program::new("fuzz", fp.prog_type(), insns.clone());
        let bugged_text = match jit_compile(&prog(), bug) {
            Ok((mut p, _)) => {
                // Audit events carry the owning program's name; normalize
                // so only behavioural differences can show.
                p.name = "fuzz".to_string();
                p
            }
            Err(byte_err) => {
                // The byte lane refused the program; the lowering pass
                // must refuse it with the same error.
                let low_err = run_lowered(prog(), bug, CtxInput::None)
                    .expect_err("byte lane rejected, lowering must too");
                prop_assert_eq!(byte_err, low_err);
                return Ok(());
            }
        };
        for input in inputs(fp.prog_type()) {
            let base = run_interp(bugged_text.clone(), input.clone());
            let jit = run_lowered(prog(), bug, input)
                .expect("byte lane compiled, lowering must too");
            assert_same_surface(&base, &jit)?;
        }
    }
}
