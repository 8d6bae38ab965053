//! The feature-growth ladder experiment (§2.1).
//!
//! Climbs four feature rungs — bpf2bpf calls, tail calls, spin locks,
//! ringbuf reservations — in both dialects. On the eBPF side each rung
//! adds a family of programs (accepted workloads plus intentional
//! violations) and the verifier's per-feature counters price what the
//! extra state tracking costs. On the safe-ext side the same construct
//! is plain Rust (`ExtCtx::frame`, `ExtTable`, `lock_map_value`,
//! `RecordGuard`) and load cost is a signature check over the artifact
//! bytes — flat, whatever the program uses.
//!
//! All reported costs are **simulated**: deterministic functions of the
//! verifier's counters and the artifact's size, so the regress gate
//! holds them exactly, with no host noise.

use ebpf::asm::Asm;
use ebpf::helpers::{self, HelperRegistry};
use ebpf::insn::*;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use safe_ext::{Extension, ExtensionRegistry, Loader, Toolchain};
use signing::{KeyStore, SigningKey};
use verifier::{RejectCheck, VerifStats, Verifier};

/// One rung of the ladder: a feature plus the programs that exercise it.
pub struct Rung {
    /// Feature name (row id in `BENCH_verifier.json`).
    pub feature: &'static str,
    /// Programs that must verify.
    pub accepted: Vec<Program>,
    /// Programs that must be rejected, with the check that rejects them.
    pub violations: Vec<(Program, RejectCheck)>,
    /// The equivalent extension as safe-Rust source, plus the
    /// kernel-crate capabilities it needs.
    pub ext_source: String,
    pub ext_requires: Vec<&'static str>,
}

/// The measured result for one rung.
#[derive(Debug, Clone)]
pub struct RungReport {
    /// Feature name.
    pub feature: &'static str,
    /// Programs in the rung's cumulative family.
    pub programs: usize,
    /// How many verified.
    pub accepted: usize,
    /// How many were rejected (all intentional violations).
    pub rejected: usize,
    /// Total verifier states explored across the accepted family.
    pub states_explored: u64,
    /// Total instructions processed across the accepted family.
    pub insns_processed: u64,
    /// rejected / programs.
    pub reject_rate: f64,
    /// Simulated verification cost of the accepted family.
    pub verify_sim_ns: u64,
    /// Simulated load cost of the safe-ext equivalent.
    pub safe_ext_load_sim_ns: u64,
    /// Simulated cost of loading the **whole** cumulative family —
    /// accepted programs *and* intentional violations — into sandbox
    /// domains. No verification happens, so everything loads and the
    /// price is a flat per-instruction copy, whatever features the
    /// programs use.
    pub sandbox_load_sim_ns: u64,
    /// Cumulative-family programs that ran to completion sandboxed.
    pub sandbox_ok: usize,
    /// Programs whose first violating access tripped an SFI domain trap.
    pub sandbox_trapped: usize,
    /// Programs aborted sandboxed for another runtime reason (call
    /// depth, helper failure, deadlock...).
    pub sandbox_aborted: usize,
}

/// How one program ended when loaded unverified into a sandbox domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SandboxOutcome {
    /// Ran to completion (a verifier verdict is not a runtime verdict:
    /// most statically-rejected programs never reach their bad state on
    /// a given input).
    Ok,
    /// The SFI check trapped the first out-of-domain access.
    Trapped,
    /// Aborted for another runtime reason (call depth, helper failure,
    /// deadlock).
    Aborted,
}

/// Prices a verification run from its counters. Base exploration work
/// plus a per-feature surcharge: every tracked callee frame, tail-call
/// site, lock section, and reservation costs extra analysis.
pub fn verify_sim_ns(s: &VerifStats) -> u64 {
    150 + s.insns_processed * 9
        + s.states_pushed * 60
        + s.states_pruned * 18
        + s.mem_accesses_checked * 11
        + s.helper_calls_checked * 24
        + s.subprog_calls_checked * 120
        + s.tail_calls_checked * 140
        + s.lock_sections_entered * 90
        + s.ringbuf_reservations_checked * 130
}

/// Prices a safe-ext load from the artifact: a linear pass over the
/// signed bytes (signature check) plus one fixup per capability. No term
/// depends on what the extension *does* — that is the experiment.
pub fn load_sim_ns(artifact_bytes: usize, requires: usize) -> u64 {
    200 + artifact_bytes as u64 * 3 + requires as u64 * 40
}

/// Prices one sandbox load: domain setup plus a per-instruction copy.
/// Like the safe-ext loader — and unlike the verifier — no term depends
/// on which features the program uses; the safety work is deferred to
/// run time (mask checks and domain crossings).
pub fn sandbox_load_sim_ns(insns: usize) -> u64 {
    120 + insns as u64 * 2
}

/// Loads `prog` unverified into a fresh sandboxed world (same map
/// layout as the ladder's) and runs it once on a small packet.
pub fn sandbox_outcome(prog: &Program) -> SandboxOutcome {
    use ebpf::interp::{ExecError, SandboxConfig, Vm};
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    // Recreate the ladder's map world so the programs' embedded fds
    // resolve to maps of the kinds they expect.
    maps.create(&kernel, MapDef::array("ladder-arr", 64, 4))
        .expect("array map");
    maps.create(&kernel, MapDef::prog_array("ladder-progs", 4))
        .expect("prog array");
    maps.create(&kernel, MapDef::ringbuf("ladder-rb", 4096))
        .expect("ringbuf");
    let helpers = HelperRegistry::standard();
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load_sandboxed(prog.clone(), SandboxConfig::default());
    let outcome = match vm.run_packet(id, &[0u8; 32]).result {
        Ok(_) => SandboxOutcome::Ok,
        Err(ExecError::DomainTrap { .. }) => SandboxOutcome::Trapped,
        Err(_) => SandboxOutcome::Aborted,
    };
    // Whatever the program did, it must not have oopsed the kernel:
    // that is the sandbox contract the ladder rows report against.
    assert_eq!(
        kernel.health().oopses,
        0,
        "{}: sandboxed run oopsed the kernel",
        prog.name
    );
    outcome
}

// ---- eBPF program families ----

fn diamonds(n: usize) -> Program {
    crate::workloads::diamonds(n)
}

/// Map lookup + atomic count: the base rung's "real work" program.
fn base_map_count(arr_fd: u32) -> Program {
    crate::workloads::packet_filter(arr_fd)
}

/// Violation: read uninitialized stack.
fn base_uninit_read() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R10, -16)
        .exit()
        .build()
        .unwrap();
    Program::new("uninit-read", ProgType::SocketFilter, insns)
}

/// Violation: dereference a wild scalar.
fn base_wild_deref() -> Program {
    let insns = Asm::new()
        .lddw(Reg::R1, 0xffff_8800_dead_0000)
        .ldx(BPF_DW, Reg::R0, Reg::R1, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("wild-deref", ProgType::SocketFilter, insns)
}

/// A chain of `depth` nested bpf2bpf calls; each callee uses its own
/// full stack frame, so the verifier tracks per-frame bounds.
fn call_chain(depth: usize) -> Program {
    let mut asm = Asm::new().mov64_imm(Reg::R1, 1).call_fn("f0").exit();
    for i in 0..depth {
        let name = format!("f{i}");
        asm = asm
            .label(&name)
            .stx(BPF_DW, Reg::R10, -8, Reg::R1)
            .stx(BPF_DW, Reg::R10, -512, Reg::R1)
            .alu64_imm(BPF_ADD, Reg::R1, 1);
        if i + 1 < depth {
            asm = asm.call_fn(&format!("f{}", i + 1));
        } else {
            asm = asm.mov64_reg(Reg::R0, Reg::R1);
        }
        asm = asm.ldx(BPF_DW, Reg::R2, Reg::R10, -8).exit();
    }
    Program::new("call-chain", ProgType::SocketFilter, asm.build().unwrap())
}

/// Caller branches, then calls the subprogram on both paths: the callee
/// is verified per calling state, and caller-saved regs are invalidated.
fn call_branchy() -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
        .mov64_imm(Reg::R1, 2)
        .jmp64_imm(BPF_JEQ, Reg::R6, 0, "zero")
        .mov64_imm(Reg::R1, 3)
        .label("zero")
        .call_fn("double")
        .mov64_reg(Reg::R7, Reg::R0)
        .mov64_imm(Reg::R1, 5)
        .call_fn("double")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R7)
        .alu64_imm(BPF_AND, Reg::R0, 0xff)
        .exit()
        .label("double")
        .mov64_reg(Reg::R0, Reg::R1)
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R1)
        .exit()
        .build()
        .unwrap();
    Program::new("call-branchy", ProgType::SocketFilter, insns)
}

/// A callee full of branch diamonds, invoked from two call sites: the
/// verifier re-explores the body under each calling state, which is the
/// multiplicative cost bpf2bpf introduced.
fn call_diamond_callee() -> Program {
    let mut asm = Asm::new()
        .ldx(BPF_DW, Reg::R8, Reg::R1, 16)
        .mov64_reg(Reg::R1, Reg::R8)
        .call_fn("body")
        .mov64_reg(Reg::R7, Reg::R0)
        .mov64_reg(Reg::R1, Reg::R8)
        .alu64_imm(BPF_ADD, Reg::R1, 1)
        .call_fn("body")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R7)
        .alu64_imm(BPF_AND, Reg::R0, 0xff)
        .exit()
        .label("body")
        .mov64_imm(Reg::R0, 0);
    for i in 0..8 {
        let t = format!("b{i}");
        asm = asm
            .jmp64_imm(BPF_JEQ, Reg::R1, i, &t)
            .alu64_imm(BPF_ADD, Reg::R0, 1)
            .label(&t);
    }
    Program::new(
        "call-diamond-callee",
        ProgType::SocketFilter,
        asm.exit().build().unwrap(),
    )
}

/// Violation: the callee returns its frame pointer.
fn callee_leaks_fp() -> Program {
    let insns = Asm::new()
        .call_fn("leak")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("leak")
        .mov64_reg(Reg::R0, Reg::R10)
        .exit()
        .build()
        .unwrap();
    Program::new("callee-leaks-fp", ProgType::SocketFilter, insns)
}

/// A tail-call dispatcher: ctx stays in R1, prog-array in R2.
fn tail_dispatch(prog_fd: u32, index: i32) -> Program {
    let insns = Asm::new()
        .ld_map_fd(Reg::R2, prog_fd)
        .mov64_imm(Reg::R3, index)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        // Fallthrough when the slot is empty.
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("tail-dispatch", ProgType::SocketFilter, insns)
}

/// Branch chooses between two tail-call indices.
fn tail_dispatch_branchy(prog_fd: u32) -> Program {
    let insns = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
        .ld_map_fd(Reg::R2, prog_fd)
        .mov64_imm(Reg::R3, 0)
        .jmp64_imm(BPF_JEQ, Reg::R6, 0, "go")
        .mov64_imm(Reg::R3, 1)
        .label("go")
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("tail-dispatch-branchy", ProgType::SocketFilter, insns)
}

/// Violation: tail call through a plain array map.
fn tail_wrong_map(arr_fd: u32) -> Program {
    let insns = Asm::new()
        .ld_map_fd(Reg::R2, arr_fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("tail-wrong-map", ProgType::SocketFilter, insns)
}

/// Violation: tail call from inside a subprogram frame.
fn tail_in_subprog(prog_fd: u32) -> Program {
    let insns = Asm::new()
        .call_fn("sub")
        .exit()
        .label("sub")
        .ld_map_fd(Reg::R2, prog_fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("tail-in-subprog", ProgType::SocketFilter, insns)
}

/// Emits lookup + null check, leaving the non-null value pointer in R6
/// and the saved ctx pointer in R7.
fn locked_prologue(arr_fd: u32) -> Asm {
    Asm::new()
        .mov64_reg(Reg::R7, Reg::R1)
        .mov64_imm(Reg::R8, 7)
        .stx(BPF_W, Reg::R10, -4, Reg::R8)
        .ld_map_fd(Reg::R1, arr_fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .mov64_imm(Reg::R9, 0)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .mov64_reg(Reg::R6, Reg::R0)
}

/// Lock, store under the lock, unlock.
fn lock_clean(arr_fd: u32) -> Program {
    let insns = locked_prologue(arr_fd)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .stx(BPF_DW, Reg::R6, 8, Reg::R9)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_UNLOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("lock-clean", ProgType::SocketFilter, insns)
}

/// Branches inside the critical section: lock-held state rides along
/// every explored path, and all of them must reach the unlock.
fn lock_branchy(arr_fd: u32) -> Program {
    let mut asm = locked_prologue(arr_fd)
        .ldx(BPF_DW, Reg::R8, Reg::R7, 16)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32);
    for i in 0..6 {
        let t = format!("k{i}");
        asm = asm
            .jmp64_imm(BPF_JEQ, Reg::R8, i, &t)
            .stx(BPF_DW, Reg::R6, 16, Reg::R9)
            .label(&t);
    }
    let insns = asm
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_UNLOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("lock-branchy", ProgType::SocketFilter, insns)
}

/// Violation: helper call inside the critical section.
fn lock_helper_inside(arr_fd: u32) -> Program {
    let insns = locked_prologue(arr_fd)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .call_helper(helpers::BPF_KTIME_GET_NS as i32)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_UNLOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("lock-helper-inside", ProgType::SocketFilter, insns)
}

/// Violation: exit while holding the lock.
fn lock_no_unlock(arr_fd: u32) -> Program {
    let insns = locked_prologue(arr_fd)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("lock-no-unlock", ProgType::SocketFilter, insns)
}

/// Violation: second lock while one is held.
fn lock_double(arr_fd: u32) -> Program {
    let insns = locked_prologue(arr_fd)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_reg(Reg::R1, Reg::R6)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("lock-double", ProgType::SocketFilter, insns)
}

/// Reserve a record, write it, close it via `closer` (submit/discard).
fn ringbuf_reserve_close(rb_fd: u32, closer: u32, name: &str) -> Program {
    let insns = Asm::new()
        .ld_map_fd(Reg::R1, rb_fd)
        .mov64_imm(Reg::R2, 16)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("got")
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_imm(Reg::R7, 42)
        .stx(BPF_DW, Reg::R6, 0, Reg::R7)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 0)
        .call_helper(closer as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new(name, ProgType::SocketFilter, insns)
}

/// The path-sensitive closer: one branch submits, the other discards —
/// the verifier must prove the reservation ends on **both**.
fn ringbuf_branchy_close(rb_fd: u32) -> Program {
    let insns = Asm::new()
        .mov64_reg(Reg::R7, Reg::R1)
        .ld_map_fd(Reg::R1, rb_fd)
        .mov64_imm(Reg::R2, 16)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("got")
        .mov64_reg(Reg::R6, Reg::R0)
        .ldx(BPF_DW, Reg::R8, Reg::R7, 16)
        .mov64_reg(Reg::R1, Reg::R6)
        .mov64_imm(Reg::R2, 0)
        .jmp64_imm(BPF_JEQ, Reg::R8, 0, "drop")
        .call_helper(helpers::BPF_RINGBUF_SUBMIT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("drop")
        .call_helper(helpers::BPF_RINGBUF_DISCARD as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("ringbuf-branchy-close", ProgType::SocketFilter, insns)
}

/// Violation: a path exits with the reservation still open.
fn ringbuf_leak(rb_fd: u32) -> Program {
    let insns = Asm::new()
        .ld_map_fd(Reg::R1, rb_fd)
        .mov64_imm(Reg::R2, 16)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("ringbuf-leak", ProgType::SocketFilter, insns)
}

/// Violation: submitting something that is not a record.
fn ringbuf_submit_nonrecord() -> Program {
    let insns = Asm::new()
        .mov64_imm(Reg::R1, 0)
        .stx(BPF_DW, Reg::R10, -8, Reg::R1)
        .mov64_reg(Reg::R1, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R1, -8)
        .mov64_imm(Reg::R2, 0)
        .call_helper(helpers::BPF_RINGBUF_SUBMIT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("ringbuf-submit-nonrecord", ProgType::SocketFilter, insns)
}

// ---- safe-ext equivalents ----

fn ext_source(feature: &str) -> String {
    match feature {
        "base" => r#"
fn count(ctx: &ExtCtx) -> Result<u64, ExtError> {
    let counts = ctx.array(MapFd(1))?;
    counts.fetch_add_u64(0, 0, 1)?;
    Ok(0)
}
"#
        .to_string(),
        "bpf2bpf" => r#"
fn depth(ctx: &ExtCtx, n: u64) -> Result<u64, ExtError> {
    if n == 0 { return Ok(0); }
    ctx.frame(|ctx| depth(ctx, n - 1).map(|v| v + 1))
}
"#
        .to_string(),
        "tail_call" => r#"
fn dispatch(ctx: &ExtCtx, table: &ExtTable) -> Result<u64, ExtError> {
    table.run(ctx, 0)
}
"#
        .to_string(),
        "spin_lock" => r#"
fn bump(ctx: &ExtCtx) -> Result<u64, ExtError> {
    let guard = ctx.lock_map_value(MapFd(1), 0)?;
    let _ = guard.lock_id();
    Ok(0)
}
"#
        .to_string(),
        "ringbuf" => r#"
fn publish(ctx: &ExtCtx) -> Result<u64, ExtError> {
    let rb = ctx.ringbuf(MapFd(3))?;
    if let Some(rec) = rb.reserve(16)? {
        rec.write(0, &42u64.to_le_bytes())?;
        rec.submit()?;
    }
    Ok(0)
}
"#
        .to_string(),
        other => panic!("unknown rung {other}"),
    }
}

fn ext_requires(feature: &str) -> Vec<&'static str> {
    match feature {
        "base" | "bpf2bpf" | "tail_call" => vec!["maps"],
        "spin_lock" => vec!["maps", "locks"],
        "ringbuf" => vec!["maps", "ringbuf"],
        other => panic!("unknown rung {other}"),
    }
}

/// Builds the five rungs against the given map fds.
pub fn rungs(arr_fd: u32, prog_fd: u32, rb_fd: u32) -> Vec<Rung> {
    let rung = |feature: &'static str,
                accepted: Vec<Program>,
                violations: Vec<(Program, RejectCheck)>| Rung {
        feature,
        accepted,
        violations,
        ext_source: ext_source(feature),
        ext_requires: ext_requires(feature),
    };
    vec![
        rung(
            "base",
            vec![diamonds(8), base_map_count(arr_fd)],
            vec![
                (base_uninit_read(), RejectCheck::Mem),
                (base_wild_deref(), RejectCheck::Mem),
            ],
        ),
        rung(
            "bpf2bpf",
            vec![call_chain(7), call_branchy(), call_diamond_callee()],
            vec![
                (call_chain(8), RejectCheck::Call),
                (callee_leaks_fp(), RejectCheck::Return),
            ],
        ),
        rung(
            "tail_call",
            vec![tail_dispatch(prog_fd, 1), tail_dispatch_branchy(prog_fd)],
            vec![
                (tail_wrong_map(arr_fd), RejectCheck::Call),
                (tail_in_subprog(prog_fd), RejectCheck::Call),
            ],
        ),
        rung(
            "spin_lock",
            vec![lock_clean(arr_fd), lock_branchy(arr_fd)],
            vec![
                (lock_helper_inside(arr_fd), RejectCheck::Lock),
                (lock_no_unlock(arr_fd), RejectCheck::Lock),
                (lock_double(arr_fd), RejectCheck::Lock),
            ],
        ),
        rung(
            "ringbuf",
            vec![
                ringbuf_reserve_close(rb_fd, helpers::BPF_RINGBUF_SUBMIT, "ringbuf-submit"),
                ringbuf_reserve_close(rb_fd, helpers::BPF_RINGBUF_DISCARD, "ringbuf-discard"),
                ringbuf_branchy_close(rb_fd),
            ],
            vec![
                (ringbuf_leak(rb_fd), RejectCheck::Ref),
                (ringbuf_submit_nonrecord(), RejectCheck::Call),
            ],
        ),
    ]
}

/// Runs the whole ladder: each rung's row covers the **cumulative**
/// family up to that rung — a kernel that supports N features must be
/// able to check programs using any of them, which is exactly how the
/// real verifier's cost compounds.
pub fn run_ladder() -> Vec<RungReport> {
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let arr_fd = maps
        .create(&kernel, MapDef::array("ladder-arr", 64, 4))
        .expect("array map");
    let prog_fd = maps
        .create(&kernel, MapDef::prog_array("ladder-progs", 4))
        .expect("prog array");
    let rb_fd = maps
        .create(&kernel, MapDef::ringbuf("ladder-rb", 4096))
        .expect("ringbuf");
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);

    // Safe-ext toolchain + loader (each rung's artifact must really load).
    let key = SigningKey::derive(6);
    let toolchain = Toolchain::new(key.clone());
    let mut keyring = KeyStore::new();
    keyring.enroll(&key).unwrap();
    keyring.seal();
    let loader = Loader::new(&kernel, keyring);
    let mut registry = ExtensionRegistry::new();
    registry.link(
        "ladder_entry",
        Extension::new("ladder", ProgType::SocketFilter, |_| Ok(0)),
    );

    let mut out = Vec::new();
    let mut family_ok: Vec<Program> = Vec::new();
    let mut family_bad: Vec<(Program, RejectCheck)> = Vec::new();
    for r in rungs(arr_fd, prog_fd, rb_fd) {
        family_ok.extend(r.accepted);
        family_bad.extend(r.violations);

        let mut stats_sum = VerifStats::default();
        for prog in &family_ok {
            let v = verifier
                .verify(prog)
                .unwrap_or_else(|e| panic!("{} must verify: {e}", prog.name));
            stats_sum = add_stats(stats_sum, v.stats);
        }
        for (prog, check) in &family_bad {
            let err = verifier
                .verify(prog)
                .map(|_| ())
                .expect_err(&format!("{} must be rejected", prog.name));
            assert_eq!(
                err.check(),
                *check,
                "{}: rejected by {:?} ({err}), expected {:?}",
                prog.name,
                err.check(),
                check
            );
        }

        let signed = toolchain
            .build(
                &r.ext_source,
                "ladder",
                ProgType::SocketFilter,
                "ladder_entry",
                &r.ext_requires,
            )
            .expect("safe source builds");
        loader.load(&signed, &registry).expect("artifact loads");

        // The sandbox lane loads the whole family — violations included,
        // since nothing is checked at load — and classifies each run.
        let (mut sb_ok, mut sb_trap, mut sb_abort) = (0usize, 0usize, 0usize);
        let mut sb_load = 0u64;
        for prog in family_ok.iter().chain(family_bad.iter().map(|(p, _)| p)) {
            sb_load += sandbox_load_sim_ns(prog.insns.len());
            match sandbox_outcome(prog) {
                SandboxOutcome::Ok => sb_ok += 1,
                SandboxOutcome::Trapped => sb_trap += 1,
                SandboxOutcome::Aborted => sb_abort += 1,
            }
        }

        let programs = family_ok.len() + family_bad.len();
        out.push(RungReport {
            feature: r.feature,
            programs,
            accepted: family_ok.len(),
            rejected: family_bad.len(),
            states_explored: stats_sum.states_pushed + family_ok.len() as u64,
            insns_processed: stats_sum.insns_processed,
            reject_rate: family_bad.len() as f64 / programs as f64,
            verify_sim_ns: verify_sim_ns(&stats_sum),
            safe_ext_load_sim_ns: load_sim_ns(signed.bytes.len(), r.ext_requires.len()),
            sandbox_load_sim_ns: sb_load,
            sandbox_ok: sb_ok,
            sandbox_trapped: sb_trap,
            sandbox_aborted: sb_abort,
        });
    }
    out
}

fn add_stats(mut a: VerifStats, b: VerifStats) -> VerifStats {
    a.insns_processed += b.insns_processed;
    a.states_pushed += b.states_pushed;
    a.states_pruned += b.states_pruned;
    a.peak_states = a.peak_states.max(b.peak_states);
    a.peak_state_bytes = a.peak_state_bytes.max(b.peak_state_bytes);
    a.spec_sanitations += b.spec_sanitations;
    a.mem_accesses_checked += b.mem_accesses_checked;
    a.packet_compares_checked += b.packet_compares_checked;
    a.helper_calls_checked += b.helper_calls_checked;
    a.subprog_calls_checked += b.subprog_calls_checked;
    a.tail_calls_checked += b.tail_calls_checked;
    a.lock_sections_entered += b.lock_sections_entered;
    a.ringbuf_reservations_checked += b.ringbuf_reservations_checked;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_cost_rises_while_load_stays_flat() {
        let rows = run_ladder();
        assert_eq!(rows.len(), 5);
        for pair in rows.windows(2) {
            assert!(
                pair[1].verify_sim_ns > pair[0].verify_sim_ns,
                "{} ({}) should cost more than {} ({})",
                pair[1].feature,
                pair[1].verify_sim_ns,
                pair[0].feature,
                pair[0].verify_sim_ns
            );
            assert!(pair[1].states_explored >= pair[0].states_explored);
        }
        // Flat: the dearest rung loads within 2x of the cheapest, while
        // verification spans more than 5x base.
        let min_load = rows.iter().map(|r| r.safe_ext_load_sim_ns).min().unwrap();
        let max_load = rows.iter().map(|r| r.safe_ext_load_sim_ns).max().unwrap();
        assert!(
            max_load < min_load * 2,
            "load cost not flat: {min_load}..{max_load}"
        );
        let base = rows[0].verify_sim_ns;
        let top = rows.last().unwrap().verify_sim_ns;
        assert!(top > base * 5, "verifier cost barely grew: {base} -> {top}");
    }

    #[test]
    fn sandbox_lane_loads_everything_and_confines_at_runtime() {
        let rows = run_ladder();
        let last = rows.last().unwrap();
        // Everything loads (no verifier) and every run is classified.
        assert_eq!(
            last.sandbox_ok + last.sandbox_trapped + last.sandbox_aborted,
            last.programs
        );
        // The statically-rejected wild deref is caught dynamically.
        assert!(last.sandbox_trapped >= 1, "no violation trapped");
        // Other violations abort for non-memory reasons (call depth,
        // helper failure) rather than trapping.
        assert!(last.sandbox_aborted >= 1, "no violation aborted");
        // Load cost is flat per instruction: monotone in family size,
        // with no feature surcharge anywhere.
        for pair in rows.windows(2) {
            assert!(pair[1].sandbox_load_sim_ns > pair[0].sandbox_load_sim_ns);
        }
        // A single program's sandbox load is priced like a copy: the
        // 23-program family still loads cheaper than verifying it.
        assert!(last.sandbox_load_sim_ns < last.verify_sim_ns);
    }

    #[test]
    fn every_violation_is_rejected_by_its_check() {
        // run_ladder asserts per-program; this pins the rung composition.
        let rows = run_ladder();
        assert_eq!(rows.last().unwrap().rejected, 11);
        for r in &rows {
            assert!(r.reject_rate > 0.0 && r.reject_rate < 1.0);
        }
    }
}
