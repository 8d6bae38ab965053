//! Direct packet access: pkt / pkt_end comparison refinement.
//!
//! Packet-path programs bound their accesses with the idiom
//! `if (data + N > data_end) goto out;` — on the fall-through branch the
//! verifier learns that `N` bytes of packet are readable. This module
//! implements that range refinement, one of the verifier features whose
//! addition Figure 2's growth curve reflects (~v4.9 era).

use ebpf::insn::{BPF_JGE, BPF_JGT, BPF_JLE, BPF_JLT};

use crate::{
    checker::{Vctx, Verifier},
    error::VerifyError,
    types::{RegType, VerifierState},
};

/// Handles a conditional jump where at least one side is a packet
/// pointer. Returns `Ok(Some(next_pc))` when handled (the other arm is
/// pushed on the worklist), `Ok(None)` when this is not a packet compare.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_pkt_compare(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    target: usize,
    op: u8,
    dst: &RegType,
    src: &RegType,
    state: &mut VerifierState,
) -> Result<Option<usize>, VerifyError> {
    if !v.features.packet_access {
        return Ok(None);
    }
    // Identify the `pkt <op> pkt_end` orientation.
    let (pkt_off, op_vs_end) = match (dst, src) {
        (RegType::PtrToPacket { off_lo, off_hi, .. }, RegType::PtrToPacketEnd) => {
            if off_lo != off_hi {
                // Only constant-offset pointers refine the range.
                return refine_nothing(ctx, pc, target, state);
            }
            (*off_hi, op)
        }
        (RegType::PtrToPacketEnd, RegType::PtrToPacket { off_lo, off_hi, .. }) => {
            if off_lo != off_hi {
                return refine_nothing(ctx, pc, target, state);
            }
            // Reverse the comparison: `end <op> pkt+N` == `pkt+N <rev> end`.
            let rev = match op {
                BPF_JGT => BPF_JLT,
                BPF_JGE => BPF_JLE,
                BPF_JLT => BPF_JGT,
                BPF_JLE => BPF_JGE,
                other => other,
            };
            (*off_hi, rev)
        }
        _ => return Ok(None),
    };
    ctx.stats.packet_compares_checked += 1;

    // `pkt + N <op> end`: which branch teaches us `pkt + N <= end`,
    // i.e. range >= N?
    let (range_on_taken, range_on_fall) = match op_vs_end {
        // taken: pkt+N > end (no info); fall: pkt+N <= end.
        BPF_JGT => (None, Some(pkt_off)),
        // taken: pkt+N >= end (almost no info; kernel uses off-1): skip.
        BPF_JGE => (None, Some(pkt_off - 1)),
        // taken: pkt+N < end => range >= N (conservatively N, kernel N+1).
        BPF_JLT => (Some(pkt_off), None),
        // taken: pkt+N <= end => range >= N.
        BPF_JLE => (Some(pkt_off), None),
        _ => {
            return Err(VerifyError::PointerArithmetic {
                pc,
                reason: "unsupported packet pointer comparison".into(),
            })
        }
    };

    let mut taken = state.clone();
    if let Some(n) = range_on_taken {
        if n > 0 {
            taken.pkt_range = taken.pkt_range.max(n as u32);
        }
    }
    if let Some(n) = range_on_fall {
        if n > 0 {
            state.pkt_range = state.pkt_range.max(n as u32);
        }
    }
    ctx.push_branch(target, taken);
    Ok(Some(pc + 1))
}

/// Both arms are possible but neither teaches anything.
fn refine_nothing(
    ctx: &mut Vctx<'_>,
    pc: usize,
    target: usize,
    state: &VerifierState,
) -> Result<Option<usize>, VerifyError> {
    ctx.push_branch(target, state.clone());
    Ok(Some(pc + 1))
}
