//! `bpf_loop` callback verification (~v5.15).
//!
//! The callback function is verified once per entry point, in a dedicated
//! [`FrameKind::Callback`] frame whose exit checks that the callback
//! neither leaked references nor changed lock state. On the continuing
//! main path, any stack frame reachable through the callback-context
//! pointer is conservatively clobbered.

use std::rc::Rc;

use crate::{
    checker::{Vctx, Verifier},
    error::VerifyError,
    scalar::Scalar,
    types::{FrameKind, FrameState, RegType, Slot, VerifierState},
};

/// Handles a `bpf_loop` call: schedules verification of the callback body
/// and applies the call's effects to the continuing state.
pub(crate) fn check_bpf_loop(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    state: &mut VerifierState,
) -> Result<(), VerifyError> {
    // R1 = nr_loops (scalar), R2 = callback fn, R3 = callback ctx,
    // R4 = flags (must be scalar; kernel requires 0).
    let nr = v.read_reg(state, pc, 1)?;
    if !matches!(nr, RegType::Scalar(_)) {
        return Err(VerifyError::BadHelperArg {
            pc,
            helper: "bpf_loop",
            arg: 0,
            reason: format!("nr_loops must be scalar, got {}", nr.name()),
        });
    }
    let cb = v.read_reg(state, pc, 2)?;
    let cb_pc = match cb {
        RegType::FuncPtr { pc } => pc,
        other => {
            return Err(VerifyError::BadHelperArg {
                pc,
                helper: "bpf_loop",
                arg: 1,
                reason: format!("callback must be a function pointer, got {}", other.name()),
            })
        }
    };
    let cb_ctx = v.read_reg(state, pc, 3)?;
    let flags = v.read_reg(state, pc, 4)?;
    if !matches!(flags, RegType::Scalar(_)) {
        return Err(VerifyError::BadHelperArg {
            pc,
            helper: "bpf_loop",
            arg: 3,
            reason: "flags must be scalar".into(),
        });
    }

    // Schedule the callback body for verification (once per entry).
    if ctx.callbacks_seen.insert(cb_pc) {
        let mut cb_state = state.clone();
        let frame_index = cb_state.frames.len();
        let mut frame = FrameState::new(
            FrameKind::Callback {
                entry_refs: cb_state.acquired_refs.len(),
                entry_lock: cb_state.lock_held,
            },
            frame_index,
        );
        // R1 = loop index in [0, BPF_MAX_LOOPS).
        frame.regs[1] = RegType::Scalar(Scalar::from_urange(0, (1 << 23) - 1));
        frame.regs[2] = cb_ctx;
        cb_state.frames.push(Rc::new(frame));
        ctx.push_callback(cb_pc, cb_state);
    }

    // Continuing path: the callback may have scribbled over any frame
    // reachable through its context pointer.
    if let RegType::PtrToStack { frame, .. } = cb_ctx {
        for slot in state.frame_mut(frame).written_slots_mut() {
            if !matches!(slot, Slot::Invalid) {
                *slot = Slot::Misc;
            }
        }
    }
    state.set_reg(0, RegType::unknown());
    for r in 1..=5u8 {
        state.set_reg(r, RegType::NotInit);
    }
    Ok(())
}
