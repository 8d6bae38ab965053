//! The JIT stage: a genuine lowering pass, and a faithful compiler bug.
//!
//! The paper notes (§2.1) that "even a perfectly coded verifier cannot
//! prevent malicious eBPF programs from exploiting bugs in downstream
//! components of the eBPF ecosystem such as the JIT compiler", citing
//! CVE-2021-29154 — a branch-displacement miscalculation that let verified
//! programs hijack kernel control flow.
//!
//! Two lanes live here:
//!
//! * [`jit_compile`] — the original byte-level translation pass: validates
//!   the program and re-emits it as bytecode with resolved branches. Still
//!   used wherever a `Program`-shaped artifact is wanted (disassembly,
//!   instruction-level differential tests).
//! * [`jit_lower`] — the compiled execution lane. One linear walk
//!   validates each slot and decodes it into a compact [`LowOp`] IR, one
//!   op per slot in a single table: immediates pre-sign-extended, LDDW
//!   pairs folded into one 64-bit constant (map/function pointers
//!   pre-tagged), branch targets resolved to instruction indices at
//!   compile time. The executor owes fuel while nothing can observe it
//!   and settles it where the clock is read (`Vm::load_jit`), and helper
//!   call sites are resolved to direct function pointers at load time,
//!   eliminating the per-call table walk.
//!
//! Both lanes accept exactly the same programs and replicate the CVE the
//! same way: with [`JitConfig::branch_offset_bug`] enabled, backward
//! branches with displacements beyond the "short encoding" range are
//! emitted with an off-by-one displacement, so a *verified* program
//! executes different control flow than the verifier reasoned about —
//! including jumps out of the program text, which execution surfaces as
//! [`crate::interp::ExecError::ControlFlowEscape`].

use crate::{
    helpers::{tagged, FUNC_PTR_TAG, MAP_PTR_TAG},
    insn::{
        lddw_imm, Insn, BPF_ALU, BPF_ALU64, BPF_ATOMIC, BPF_CALL, BPF_END, BPF_EXIT, BPF_JA,
        BPF_JMP, BPF_JMP32, BPF_LD, BPF_LDX, BPF_MEM, BPF_NEG, BPF_PSEUDO_CALL, BPF_PSEUDO_FUNC,
        BPF_PSEUDO_MAP_FD, BPF_ST, BPF_STX,
    },
    interp::{alu64, jmp_taken},
    program::Program,
};

/// The displacement magnitude beyond which the buggy encoder miscomputes
/// backward branches (modelled on the x86 rel8/rel32 selection boundary).
pub const SHORT_BRANCH_RANGE: i16 = 0x80;

/// JIT configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct JitConfig {
    /// Enable the CVE-2021-29154 replica: miscompute large backward
    /// branch displacements by one instruction.
    pub branch_offset_bug: bool,
    /// Sandbox (SFI) lowering: memory ops come out as their masked
    /// forms ([`LowOp::MaskedLoad`] and friends), which bounds-check
    /// every access against the run's protection domain instead of
    /// relying on verifier range facts. Set by `Vm::load_sandboxed_jit`.
    pub sandbox: bool,
}

/// Errors found while compiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// A branch target outside the program (caught at compile time when
    /// the bug is disabled).
    BadBranchTarget {
        /// Branch site.
        pc: usize,
        /// Target instruction index.
        target: i64,
    },
    /// A dangling LDDW first slot at the end of the program.
    TruncatedLddw {
        /// Offending pc.
        pc: usize,
    },
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::BadBranchTarget { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range {target}")
            }
            JitError::TruncatedLddw { pc } => write!(f, "truncated LDDW at pc {pc}"),
        }
    }
}

impl std::error::Error for JitError {}

/// Compilation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitStats {
    /// Instructions translated.
    pub insns: usize,
    /// Branches resolved.
    pub branches: usize,
    /// Branches emitted through the (buggy) long-displacement path.
    pub long_branches: usize,
}

/// Operand source of a lowered op: a register, or an immediate already
/// sign-extended to the 64-bit register width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// Register number.
    Reg(u8),
    /// Pre-extended immediate.
    Imm(u64),
}

/// A control-flow edge resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JumpTarget {
    /// In-range target instruction index.
    At(u32),
    /// Out-of-range target: taking this edge escapes the program text
    /// (reachable only through the armed branch bug or a bad pseudo-call).
    Escape(i64),
}

/// One lowered instruction slot.
///
/// Every slot of the original program lowers to exactly one `LowOp` — the
/// op the interpreter would decode *if control reached that slot* — so
/// arbitrary branch targets (including jumps into the middle of an LDDW
/// pair, which decode its second slot as a standalone instruction) behave
/// byte-identically to the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LowOp {
    /// A validated ALU op (BPF_NEG lowers with `Src::Imm(0)`).
    Alu {
        /// 64-bit (vs 32-bit) lane.
        is64: bool,
        /// The operation bits.
        op: u8,
        /// Destination register.
        dst: u8,
        /// Operand.
        src: Src,
    },
    /// Byte-swap / truncate.
    End {
        /// Destination register.
        dst: u8,
        /// `to_be` (swap) vs `to_le` (truncate) on the little-endian model.
        swap: bool,
        /// 16, 32, or 64.
        width: i32,
    },
    /// A folded LDDW pair: the full 64-bit constant, map-fd / function
    /// pointers already tagged. Occupies two slots and two fuel units.
    Lddw {
        /// Destination register.
        dst: u8,
        /// Resolved constant.
        value: u64,
    },
    /// Memory load.
    Load {
        /// Destination register.
        dst: u8,
        /// Address base register.
        src: u8,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
    },
    /// Memory store.
    Store {
        /// Address base register.
        dst: u8,
        /// Stored value.
        src: Src,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
    },
    /// Atomic read-modify-write.
    Atomic {
        /// Address base register.
        dst: u8,
        /// Operand register.
        src: u8,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
        /// The atomic op immediate (BPF_ATOMIC_* | BPF_FETCH | ...).
        aop: i32,
    },
    /// Memory load with an SFI domain check (sandbox lowering). Same
    /// operands and fuel as [`LowOp::Load`]; the executor masks the
    /// address against the run's protection domain and traps — instead
    /// of faulting the kernel — when it escapes.
    MaskedLoad {
        /// Destination register.
        dst: u8,
        /// Address base register.
        src: u8,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
    },
    /// Memory store with an SFI domain check (sandbox lowering).
    MaskedStore {
        /// Address base register.
        dst: u8,
        /// Stored value.
        src: Src,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
    },
    /// Atomic read-modify-write with an SFI domain check (sandbox
    /// lowering).
    MaskedAtomic {
        /// Address base register.
        dst: u8,
        /// Operand register.
        src: u8,
        /// Address displacement.
        off: i16,
        /// Access size in bytes.
        size: u8,
        /// The atomic op immediate (BPF_ATOMIC_* | BPF_FETCH | ...).
        aop: i32,
    },
    /// Unconditional jump.
    Ja {
        /// Resolved target.
        target: JumpTarget,
    },
    /// Conditional jump.
    Jcc {
        /// Comparison op bits.
        op: u8,
        /// 64-bit (vs 32-bit) comparison.
        wide: bool,
        /// Left operand register.
        dst: u8,
        /// Right operand.
        src: Src,
        /// Resolved taken-edge target.
        target: JumpTarget,
    },
    /// Helper call (id resolved to a direct function pointer at load).
    Call {
        /// Helper id.
        id: u32,
    },
    /// bpf2bpf call.
    CallPseudo {
        /// Resolved callee entry.
        target: JumpTarget,
    },
    /// Program exit.
    Exit,
    /// Any slot the interpreter would reject as a bad instruction.
    Bad,
}

impl LowOp {
    /// Fuel units this op charges (LDDW charges both of its slots).
    pub(crate) fn units(self) -> u64 {
        match self {
            LowOp::Lddw { .. } => 2,
            _ => 1,
        }
    }
}

/// A lowered program: one [`LowOp`] per original slot, the table the
/// compiled executor runs (`Vm::load_jit`).
#[derive(Debug, Clone)]
pub struct Lowered {
    pub(crate) ops: Vec<LowOp>,
    /// Compilation statistics.
    pub stats: JitStats,
}

/// Lowers `prog` into the compiled-executor IR in one pass.
///
/// The pass is the validating walk [`jit_compile`] runs: the same
/// programs are rejected with the same errors, and with
/// [`JitConfig::branch_offset_bug`] enabled, the same long backward
/// branches come out off by one.
///
/// # Errors
///
/// [`JitError::BadBranchTarget`] and [`JitError::TruncatedLddw`] exactly
/// as [`jit_compile`] reports them.
///
/// # Examples
///
/// ```
/// use ebpf::asm::Asm;
/// use ebpf::insn::Reg;
/// use ebpf::jit::{jit_lower, JitConfig};
/// use ebpf::program::{ProgType, Program};
///
/// let insns = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
/// let prog = Program::new("p", ProgType::SocketFilter, insns);
/// let lowered = jit_lower(&prog, JitConfig::default()).unwrap();
/// assert_eq!(lowered.stats.insns, 2);
/// ```
pub fn jit_lower(prog: &Program, config: JitConfig) -> Result<Lowered, JitError> {
    let mut ops = Vec::with_capacity(prog.insns.len());
    let stats = walk(prog, config, |pc, off| {
        ops.push(lower_one(&prog.insns, pc, off, config.sandbox));
    })?;
    Ok(Lowered { ops, stats })
}

/// The one strict linear walk of both lanes: validates every slot in
/// order and hands `emit` each slot's pc with the branch displacement
/// the encoder emits for it. An LDDW hands over both of its slots, the
/// payload with its raw offset: the bug never applies to it (the byte
/// lane copies it verbatim as data), but the lowered lane still decodes
/// it in case a branch jumps into it.
fn walk(
    prog: &Program,
    config: JitConfig,
    mut emit: impl FnMut(usize, i16),
) -> Result<JitStats, JitError> {
    let insns = &prog.insns;
    let len = insns.len();
    let mut stats = JitStats::default();
    let mut pc = 0usize;
    while pc < len {
        let insn = insns[pc];
        if insn.is_lddw() {
            let hi = insns.get(pc + 1).ok_or(JitError::TruncatedLddw { pc })?;
            emit(pc, insn.off);
            emit(pc + 1, hi.off);
            stats.insns += 2;
            pc += 2;
            continue;
        }
        stats.insns += 1;
        let mut off = insn.off;
        let class = insn.class();
        let is_branch = (class == BPF_JMP || class == BPF_JMP32)
            && insn.op() != BPF_CALL
            && insn.op() != BPF_EXIT;
        if is_branch {
            stats.branches += 1;
            let target = pc as i64 + 1 + off as i64;
            if target < 0 || target >= len as i64 {
                return Err(JitError::BadBranchTarget { pc, target });
            }
            if off <= -SHORT_BRANCH_RANGE || off >= SHORT_BRANCH_RANGE {
                stats.long_branches += 1;
                if config.branch_offset_bug && off < 0 {
                    // BUG replica (CVE-2021-29154): the long-displacement
                    // encoding path computes the branch base one
                    // instruction too early for backward branches.
                    off = off.saturating_sub(1);
                }
            }
        }
        emit(pc, off);
        pc += 1;
    }
    Ok(stats)
}

/// Lowers the single slot at `pc` exactly as the interpreter decodes it,
/// with `off` as the (possibly bug-adjusted) branch displacement. With
/// `sandbox` set, memory ops lower to their masked SFI forms.
fn lower_one(insns: &[Insn], pc: usize, off: i16, sandbox: bool) -> LowOp {
    let len = insns.len();
    let insn = insns[pc];
    match insn.class() {
        BPF_ALU64 | BPF_ALU => {
            if insn.op() == BPF_END {
                if matches!(insn.imm, 16 | 32 | 64) {
                    LowOp::End {
                        dst: insn.dst,
                        swap: insn.is_src_reg(),
                        width: insn.imm,
                    }
                } else {
                    LowOp::Bad
                }
            } else if alu64(insn.op(), 0, 1).is_none() {
                LowOp::Bad
            } else {
                let src = if insn.op() == BPF_NEG {
                    Src::Imm(0)
                } else if insn.is_src_reg() {
                    Src::Reg(insn.src)
                } else {
                    Src::Imm(insn.imm as i64 as u64)
                };
                LowOp::Alu {
                    is64: insn.class() == BPF_ALU64,
                    op: insn.op(),
                    dst: insn.dst,
                    src,
                }
            }
        }
        BPF_LD if insn.is_lddw() => {
            let Some(hi) = insns.get(pc + 1) else {
                return LowOp::Bad;
            };
            let value = match insn.src {
                0 => lddw_imm(&insn, hi),
                BPF_PSEUDO_MAP_FD => tagged(MAP_PTR_TAG, insn.imm as u32 as u64),
                BPF_PSEUDO_FUNC => tagged(FUNC_PTR_TAG, insn.imm as u32 as u64),
                _ => return LowOp::Bad,
            };
            LowOp::Lddw {
                dst: insn.dst,
                value,
            }
        }
        BPF_LDX => {
            if insn.mode() == BPF_MEM {
                let (dst, src, off, size) = (insn.dst, insn.src, insn.off, insn.access_size());
                if sandbox {
                    LowOp::MaskedLoad {
                        dst,
                        src,
                        off,
                        size,
                    }
                } else {
                    LowOp::Load {
                        dst,
                        src,
                        off,
                        size,
                    }
                }
            } else {
                LowOp::Bad
            }
        }
        BPF_ST | BPF_STX => match insn.mode() {
            BPF_MEM => {
                let src = if insn.class() == BPF_ST {
                    Src::Imm(insn.imm as i64 as u64)
                } else {
                    Src::Reg(insn.src)
                };
                let (dst, off, size) = (insn.dst, insn.off, insn.access_size());
                if sandbox {
                    LowOp::MaskedStore {
                        dst,
                        src,
                        off,
                        size,
                    }
                } else {
                    LowOp::Store {
                        dst,
                        src,
                        off,
                        size,
                    }
                }
            }
            BPF_ATOMIC if insn.class() == BPF_STX => {
                let (dst, src, off, size, aop) =
                    (insn.dst, insn.src, insn.off, insn.access_size(), insn.imm);
                if sandbox {
                    LowOp::MaskedAtomic {
                        dst,
                        src,
                        off,
                        size,
                        aop,
                    }
                } else {
                    LowOp::Atomic {
                        dst,
                        src,
                        off,
                        size,
                        aop,
                    }
                }
            }
            _ => LowOp::Bad,
        },
        BPF_JMP | BPF_JMP32 => {
            let wide = insn.class() == BPF_JMP;
            match insn.op() {
                BPF_JA => {
                    if wide {
                        LowOp::Ja {
                            target: resolve(pc, off, len),
                        }
                    } else {
                        LowOp::Bad
                    }
                }
                BPF_EXIT => LowOp::Exit,
                BPF_CALL => {
                    if insn.src == BPF_PSEUDO_CALL {
                        let target = pc as i64 + 1 + insn.imm as i64;
                        LowOp::CallPseudo {
                            target: if target >= 0 && target < len as i64 {
                                JumpTarget::At(target as u32)
                            } else {
                                JumpTarget::Escape(target)
                            },
                        }
                    } else {
                        LowOp::Call {
                            id: insn.imm as u32,
                        }
                    }
                }
                op if jmp_taken(op, 0, 0).is_some() => LowOp::Jcc {
                    op,
                    wide,
                    dst: insn.dst,
                    src: if insn.is_src_reg() {
                        Src::Reg(insn.src)
                    } else {
                        Src::Imm(insn.imm as i64 as u64)
                    },
                    target: resolve(pc, off, len),
                },
                _ => LowOp::Bad,
            }
        }
        _ => LowOp::Bad,
    }
}

/// Resolves `pc + 1 + off` against the program bounds.
fn resolve(pc: usize, off: i16, len: usize) -> JumpTarget {
    let target = pc as i64 + 1 + off as i64;
    if target >= 0 && target < len as i64 {
        JumpTarget::At(target as u32)
    } else {
        JumpTarget::Escape(target)
    }
}

/// Compiles `prog`, returning the translated program and statistics —
/// the byte-level lane.
///
/// With [`JitConfig::branch_offset_bug`] disabled this is a validating
/// identity transform; with it enabled, large backward branches come out
/// subtly wrong — exactly the CVE's failure mode.
///
/// # Examples
///
/// ```
/// use ebpf::asm::Asm;
/// use ebpf::insn::Reg;
/// use ebpf::jit::{jit_compile, JitConfig};
/// use ebpf::program::{ProgType, Program};
///
/// let insns = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
/// let prog = Program::new("p", ProgType::SocketFilter, insns);
/// let (jitted, stats) = jit_compile(&prog, JitConfig::default()).unwrap();
/// assert_eq!(jitted.insns, prog.insns);
/// assert_eq!(stats.insns, 2);
/// ```
pub fn jit_compile(prog: &Program, config: JitConfig) -> Result<(Program, JitStats), JitError> {
    let mut out = Vec::with_capacity(prog.insns.len());
    let stats = walk(prog, config, |pc, off| {
        out.push(Insn {
            off,
            ..prog.insns[pc]
        });
    })?;
    let mut compiled = prog.clone();
    compiled.name = format!("{}.jit", prog.name);
    compiled.insns = out;
    Ok((compiled, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::{Insn, Reg, BPF_ADD, BPF_DW, BPF_IMM, BPF_JA, BPF_JNE, BPF_LD};
    use crate::program::ProgType;

    fn small_loop() -> Program {
        let insns = Asm::new()
            .mov64_imm(Reg::R0, 3)
            .label("l")
            .alu64_imm(BPF_ADD, Reg::R0, -1)
            .jmp64_imm(BPF_JNE, Reg::R0, 0, "l")
            .exit()
            .build()
            .unwrap();
        Program::new("loop", ProgType::SocketFilter, insns)
    }

    /// A program whose loop body is long enough that the backward branch
    /// falls in the long-displacement range.
    fn long_loop() -> Program {
        let mut asm = Asm::new().mov64_imm(Reg::R0, 200).label("l");
        for _ in 0..SHORT_BRANCH_RANGE + 10 {
            asm = asm.alu64_imm(BPF_ADD, Reg::R1, 1);
        }
        let insns = asm
            .alu64_imm(BPF_ADD, Reg::R0, -1)
            .jmp64_imm(BPF_JNE, Reg::R0, 0, "l")
            .exit()
            .build()
            .unwrap();
        Program::new("long-loop", ProgType::SocketFilter, insns)
    }

    #[test]
    fn correct_jit_is_identity() {
        let prog = small_loop();
        let (jitted, stats) = jit_compile(&prog, JitConfig::default()).unwrap();
        assert_eq!(jitted.insns, prog.insns);
        assert_eq!(stats.branches, 1);
        assert_eq!(stats.long_branches, 0);
    }

    #[test]
    fn long_backward_branch_counted() {
        let prog = long_loop();
        let (jitted, stats) = jit_compile(&prog, JitConfig::default()).unwrap();
        assert_eq!(jitted.insns, prog.insns);
        assert_eq!(stats.long_branches, 1);
    }

    #[test]
    fn buggy_jit_corrupts_long_backward_branch() {
        let prog = long_loop();
        let (jitted, _) = jit_compile(
            &prog,
            JitConfig {
                branch_offset_bug: true,
                ..JitConfig::default()
            },
        )
        .unwrap();
        assert_ne!(jitted.insns, prog.insns);
        // Exactly one instruction differs: the backward branch, off by one.
        let diffs: Vec<_> = prog
            .insns
            .iter()
            .zip(&jitted.insns)
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].1.off, diffs[0].0.off - 1);
    }

    #[test]
    fn buggy_jit_leaves_short_branches_alone() {
        let prog = small_loop();
        let (jitted, _) = jit_compile(
            &prog,
            JitConfig {
                branch_offset_bug: true,
                ..JitConfig::default()
            },
        )
        .unwrap();
        assert_eq!(jitted.insns, prog.insns);
    }

    #[test]
    fn out_of_range_branch_rejected() {
        let prog = Program::new(
            "bad",
            ProgType::SocketFilter,
            vec![
                Insn::new(BPF_JMP | BPF_JA, 0, 0, 50, 0),
                Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
            ],
        );
        assert!(matches!(
            jit_compile(&prog, JitConfig::default()),
            Err(JitError::BadBranchTarget { pc: 0, target: 51 })
        ));
        assert!(matches!(
            jit_lower(&prog, JitConfig::default()),
            Err(JitError::BadBranchTarget { pc: 0, target: 51 })
        ));
    }

    #[test]
    fn truncated_lddw_rejected() {
        let prog = Program::new(
            "bad",
            ProgType::SocketFilter,
            vec![Insn::new(BPF_LD | BPF_IMM | BPF_DW, 0, 0, 0, 0)],
        );
        assert!(matches!(
            jit_compile(&prog, JitConfig::default()),
            Err(JitError::TruncatedLddw { pc: 0 })
        ));
        assert!(matches!(
            jit_lower(&prog, JitConfig::default()),
            Err(JitError::TruncatedLddw { pc: 0 })
        ));
    }

    #[test]
    fn lowering_resolves_branch_targets() {
        let prog = small_loop();
        let lowered = jit_lower(&prog, JitConfig::default()).unwrap();
        assert_eq!(lowered.stats.insns, prog.insns.len());
        // mov; add; jne -> 1 (the label "l"); exit.
        assert!(matches!(
            lowered.ops[2],
            LowOp::Jcc {
                target: JumpTarget::At(1),
                ..
            }
        ));
        assert!(matches!(lowered.ops[3], LowOp::Exit));
        // One op per slot, in one table.
        assert_eq!(lowered.ops.len(), prog.insns.len());
    }

    #[test]
    fn lowering_applies_branch_bug_to_resolved_target() {
        let prog = long_loop();
        let clean = jit_lower(&prog, JitConfig::default()).unwrap();
        let buggy = jit_lower(
            &prog,
            JitConfig {
                branch_offset_bug: true,
                ..JitConfig::default()
            },
        )
        .unwrap();
        let site = prog.insns.len() - 2; // the backward jne
        let (
            LowOp::Jcc {
                target: JumpTarget::At(good),
                ..
            },
            LowOp::Jcc {
                target: JumpTarget::At(bad),
                ..
            },
        ) = (clean.ops[site], buggy.ops[site])
        else {
            panic!("expected resolved conditional branches");
        };
        assert_eq!(bad, good - 1, "bugged taken edge lands one insn early");
    }

    #[test]
    fn lowering_folds_lddw_and_counts_two_units() {
        let insns = Asm::new()
            .lddw(Reg::R1, 0x1122_3344_5566_7788)
            .exit()
            .build()
            .unwrap();
        let prog = Program::new("lddw", ProgType::SocketFilter, insns);
        let lowered = jit_lower(&prog, JitConfig::default()).unwrap();
        assert_eq!(
            lowered.ops[0],
            LowOp::Lddw {
                dst: Reg::R1.num(),
                value: 0x1122_3344_5566_7788
            }
        );
        assert_eq!(lowered.ops[0].units(), 2);
        // A jump into the hi slot decodes it as a standalone (bad) insn.
        assert_eq!(lowered.ops[1], LowOp::Bad);
    }
}
