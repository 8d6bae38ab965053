//! Loop support: jump-target discovery and back-edge accounting.
//!
//! Pre-5.3 kernels rejected any back edge; modern kernels explore bounded
//! loops iteration by iteration, relying on state pruning for convergence
//! and on the complexity budget as the backstop. The verifier here does
//! the same; this module computes the pruning points (all branch targets
//! plus instructions following calls) used by the engine.

use ebpf::insn::{Insn, BPF_CALL, BPF_EXIT, BPF_JMP, BPF_JMP32};

/// Marks the instruction indices that are targets of any jump, plus
/// function entry points — the engine's pruning points: `targets[pc]` is
/// true at each, and the table has one entry per instruction.
pub fn jump_targets(insns: &[Insn]) -> Vec<bool> {
    let mut targets = vec![false; insns.len()];
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.is_lddw() {
            pc += 2;
            continue;
        }
        let class = insn.class();
        if class == BPF_JMP || class == BPF_JMP32 {
            match insn.op() {
                BPF_EXIT => {}
                BPF_CALL => {
                    if insn.src == ebpf::insn::BPF_PSEUDO_CALL {
                        let target = pc as i64 + 1 + insn.imm as i64;
                        if target >= 0 && (target as usize) < insns.len() {
                            targets[target as usize] = true;
                        }
                    }
                }
                _ => {
                    let target = pc as i64 + 1 + insn.off as i64;
                    if target >= 0 && (target as usize) < insns.len() {
                        targets[target as usize] = true;
                    }
                }
            }
        }
        pc += 1;
    }
    // `bpf_loop` callbacks referenced by PSEUDO_FUNC loads are entry
    // points too (skipped by the LDDW fast path above).
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.is_lddw() {
            if insn.src == ebpf::insn::BPF_PSEUDO_FUNC {
                let target = insn.imm as usize;
                if target < insns.len() {
                    targets[target] = true;
                }
            }
            pc += 2;
            continue;
        }
        pc += 1;
    }
    targets
}

/// Whether `insns` contains any backward branch.
pub fn has_back_edge(insns: &[Insn]) -> bool {
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.is_lddw() {
            pc += 2;
            continue;
        }
        let class = insn.class();
        if (class == BPF_JMP || class == BPF_JMP32)
            && insn.op() != BPF_EXIT
            && insn.op() != BPF_CALL
            && insn.off < 0
        {
            return true;
        }
        pc += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::Asm;
    use ebpf::insn::{Reg, BPF_ADD, BPF_JNE};

    #[test]
    fn finds_branch_targets() {
        let insns = Asm::new()
            .mov64_imm(Reg::R0, 3)
            .label("l")
            .alu64_imm(BPF_ADD, Reg::R0, -1)
            .jmp64_imm(BPF_JNE, Reg::R0, 0, "l")
            .exit()
            .build()
            .unwrap();
        assert_eq!(jump_targets(&insns), [false, true, false, false]);
        assert!(has_back_edge(&insns));
    }

    #[test]
    fn finds_call_and_func_targets() {
        let insns = Asm::new()
            .call_fn("f")
            .ld_fn_ptr(Reg::R2, "g")
            .exit()
            .label("f")
            .exit()
            .label("g")
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build()
            .unwrap();
        let targets = jump_targets(&insns);
        assert!(targets[4]); // f
        assert!(targets[5]); // g
        assert!(!has_back_edge(&insns));
    }

    #[test]
    fn straight_line_has_no_targets() {
        let insns = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
        assert!(!jump_targets(&insns).contains(&true));
        assert!(!has_back_edge(&insns));
    }
}
