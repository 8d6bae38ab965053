//! Call checking: helper calls, bpf2bpf calls, and exits.
//!
//! Helper-call checking is where the paper's §2.2 observation lives in
//! code: the verifier checks each argument **against its declared type
//! only** — a `PtrToMem` argument is proven to point at N readable bytes,
//! but what those bytes *mean* to the helper (say, a union containing a
//! pointer, as in `bpf_sys_bpf`) is never inspected. A verified program
//! can therefore hand a NULL-bearing union to a buggy helper.

use std::rc::Rc;

use ebpf::helpers::{
    ArgType, RetType, BPF_LOOP, BPF_RINGBUF_DISCARD, BPF_RINGBUF_OUTPUT, BPF_RINGBUF_RESERVE,
    BPF_RINGBUF_SUBMIT, BPF_SK_LOOKUP_TCP, BPF_SK_LOOKUP_UDP, BPF_SK_RELEASE, BPF_SPIN_LOCK,
    BPF_SPIN_UNLOCK, BPF_TAIL_CALL,
};
use ebpf::insn::Insn;
use ebpf::maps::MapKind;
use ebpf::program::ProgType;

use crate::{
    check_lock, check_loop_helper, check_mem, check_ref, check_ringbuf,
    checker::{Vctx, Verifier},
    error::VerifyError,
    scalar::Scalar,
    types::{FrameKind, FrameState, RegType, VerifierState},
};

/// Handles EXIT. Returns `Some(pc)` to continue in the caller frame, or
/// `None` when the path is fully verified.
pub(crate) fn check_exit(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    state: &mut VerifierState,
) -> Result<Option<usize>, VerifyError> {
    let r0 = v.read_reg(state, pc, 0)?;
    match state.cur().kind {
        FrameKind::Main => {
            let ret = match r0 {
                RegType::Scalar(s) => s,
                other => {
                    return Err(VerifyError::BadReturnValue {
                        pc,
                        reason: format!("returning {} leaks a pointer", other.name()),
                    })
                }
            };
            if !state.acquired_refs.is_empty() {
                return Err(VerifyError::UnreleasedReference { pc });
            }
            if state.lock_held {
                return Err(VerifyError::LockNotReleased { pc });
            }
            check_return_range(ctx.prog.prog_type, pc, &ret)?;
            Ok(None)
        }
        FrameKind::Func { ret_pc } => {
            let ret = match r0 {
                RegType::Scalar(s) => s,
                other => {
                    return Err(VerifyError::BadReturnValue {
                        pc,
                        reason: format!("subprogram returning {}", other.name()),
                    })
                }
            };
            // A subprogram must not return to its caller mid-critical-
            // section: the lock/unlock pair has to close within one frame
            // so the caller's view of the section stays well-bracketed.
            if state.lock_held {
                return Err(VerifyError::LockNotReleased { pc });
            }
            let popped_index = state.frames.len() - 1;
            state.frames.pop();
            state.invalidate_frames_from(popped_index);
            state.set_reg(0, RegType::Scalar(ret));
            for r in 1..=5u8 {
                state.set_reg(r, RegType::NotInit);
            }
            Ok(Some(ret_pc))
        }
        FrameKind::Callback {
            entry_refs,
            entry_lock,
        } => {
            if !matches!(r0, RegType::Scalar(_)) {
                return Err(VerifyError::BadReturnValue {
                    pc,
                    reason: "callback returning pointer".into(),
                });
            }
            if state.acquired_refs.len() != entry_refs {
                return Err(VerifyError::UnreleasedReference { pc });
            }
            if state.lock_held != entry_lock {
                return Err(VerifyError::LockNotReleased { pc });
            }
            Ok(None)
        }
    }
}

fn check_return_range(prog_type: ProgType, pc: usize, ret: &Scalar) -> Result<(), VerifyError> {
    match prog_type {
        // XDP actions are 0..=4 (ABORTED..REDIRECT).
        ProgType::Xdp => {
            if ret.umax > 4 {
                return Err(VerifyError::BadReturnValue {
                    pc,
                    reason: format!("XDP return value must be in [0, 4], got umax {}", ret.umax),
                });
            }
            Ok(())
        }
        // Policy hooks return allow (0) or deny (1).
        ProgType::Lsm => {
            if ret.umax > 1 {
                return Err(VerifyError::BadReturnValue {
                    pc,
                    reason: format!("LSM return value must be in [0, 1], got umax {}", ret.umax),
                });
            }
            Ok(())
        }
        // Pick-next-task returns candidate 0, candidate 1, or defer (2).
        ProgType::SchedExt => {
            if ret.umax > 2 {
                return Err(VerifyError::BadReturnValue {
                    pc,
                    reason: format!(
                        "sched_ext return value must be in [0, 2], got umax {}",
                        ret.umax
                    ),
                });
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Handles a bpf2bpf call; returns the callee entry pc.
pub(crate) fn check_bpf2bpf_call(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    insn: Insn,
    state: &mut VerifierState,
) -> Result<usize, VerifyError> {
    if !v.features.calls {
        return Err(VerifyError::CallsNotSupported { pc });
    }
    ctx.stats.subprog_calls_checked += 1;
    if state.lock_held {
        return Err(VerifyError::CallWhileLocked {
            pc,
            what: "bpf2bpf call",
        });
    }
    let target = pc as i64 + 1 + insn.imm as i64;
    if target < 0 || target as usize >= ctx.prog.insns.len() {
        return Err(VerifyError::BadCall { pc });
    }
    if state.frames.len() >= v.limits.max_call_depth {
        return Err(VerifyError::CallDepthExceeded { pc });
    }
    let frame_index = state.frames.len();
    let mut frame = FrameState::new(FrameKind::Func { ret_pc: pc + 1 }, frame_index);
    for r in 1..=5usize {
        frame.regs[r] = state.cur().regs[r];
    }
    state.frames.push(Rc::new(frame));
    Ok(target as usize)
}

fn required_feature_ok(v: &Verifier<'_>, id: u32) -> bool {
    match id {
        BPF_SK_LOOKUP_TCP | BPF_SK_LOOKUP_UDP | BPF_SK_RELEASE => v.features.references,
        BPF_SPIN_LOCK | BPF_SPIN_UNLOCK => v.features.spin_locks,
        BPF_RINGBUF_OUTPUT | BPF_RINGBUF_RESERVE | BPF_RINGBUF_SUBMIT | BPF_RINGBUF_DISCARD => {
            v.features.ringbuf
        }
        BPF_LOOP => v.features.loop_helper,
        _ => true,
    }
}

/// Handles a helper call: argument typing, reference effects, return type.
pub(crate) fn check_helper_call(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    insn: Insn,
    state: &mut VerifierState,
) -> Result<(), VerifyError> {
    ctx.stats.helper_calls_checked += 1;
    let id = insn.imm as u32;
    let helper = v
        .helpers
        .get(id)
        .ok_or(VerifyError::UnknownHelper { pc, id })?;
    let spec = &helper.spec;
    if !required_feature_ok(v, id) {
        return Err(VerifyError::HelperNotSupported {
            pc,
            helper: spec.name,
        });
    }

    // No helper calls inside a spin-lock section: the kernel forbids
    // anything that could sleep, trap, or re-enter while the lock is
    // held. Only the unlock itself (and a re-lock attempt, which gets
    // the sharper DoubleLock diagnostic) reach their own checks.
    if state.lock_held && id != BPF_SPIN_UNLOCK && id != BPF_SPIN_LOCK {
        return Err(VerifyError::CallWhileLocked {
            pc,
            what: spec.name,
        });
    }

    // Fully special-cased helpers.
    match id {
        BPF_SPIN_LOCK => {
            check_lock::lock(v, ctx, pc, state)?;
            clobber_caller_saved(state, RegType::unknown());
            return Ok(());
        }
        BPF_SPIN_UNLOCK => {
            check_lock::unlock(v, ctx, pc, state)?;
            clobber_caller_saved(state, RegType::unknown());
            return Ok(());
        }
        BPF_LOOP => {
            return check_loop_helper::check_bpf_loop(v, ctx, pc, state);
        }
        BPF_RINGBUF_SUBMIT => {
            check_ringbuf::submit(v, pc, state)?;
            clobber_caller_saved(state, RegType::unknown());
            return Ok(());
        }
        BPF_RINGBUF_DISCARD => {
            check_ringbuf::discard(v, pc, state)?;
            clobber_caller_saved(state, RegType::unknown());
            return Ok(());
        }
        _ => {}
    }

    // Generic argument checking, left to right.
    let mut map_fd: Option<u32> = None;
    let mut pending_mem: Option<(u8, RegType)> = None;
    let mut released = false;
    for (i, arg_type) in spec.args.iter().enumerate() {
        let arg_idx = i as u8;
        let reg_no = arg_idx + 1;
        match arg_type {
            ArgType::None => continue,
            ArgType::Scalar => {
                let val = v.read_reg(state, pc, reg_no)?;
                if !matches!(val, RegType::Scalar(_)) {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper: spec.name,
                        arg: arg_idx,
                        reason: format!("expected scalar, got {}", val.name()),
                    });
                }
            }
            ArgType::Any => {
                // "No deep argument inspection": anything initialized.
                v.read_reg(state, pc, reg_no)?;
            }
            ArgType::CtxPtr => {
                let val = v.read_reg(state, pc, reg_no)?;
                if !matches!(val, RegType::PtrToCtx { off: 0 }) {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper: spec.name,
                        arg: arg_idx,
                        reason: format!("expected ctx pointer, got {}", val.name()),
                    });
                }
            }
            ArgType::ConstMapPtr => {
                let val = v.read_reg(state, pc, reg_no)?;
                match val {
                    RegType::ConstMapPtr { fd } => {
                        if v.maps.get(fd).is_none() {
                            return Err(VerifyError::BadMapFd { pc, fd });
                        }
                        map_fd = Some(fd);
                    }
                    other => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper: spec.name,
                            arg: arg_idx,
                            reason: format!("expected map pointer, got {}", other.name()),
                        })
                    }
                }
            }
            ArgType::MapKeyPtr | ArgType::MapValuePtr => {
                let val = v.read_reg(state, pc, reg_no)?;
                let fd = map_fd.ok_or(VerifyError::BadCall { pc })?;
                let map = v.maps.get(fd).ok_or(VerifyError::BadMapFd { pc, fd })?;
                let len = if *arg_type == ArgType::MapKeyPtr {
                    map.def.key_size
                } else {
                    map.def.value_size
                } as i64;
                check_mem::check_helper_region(
                    v, ctx, pc, state, &val, len, true, spec.name, arg_idx,
                )?;
            }
            ArgType::PtrToMem => {
                let val = v.read_reg(state, pc, reg_no)?;
                pending_mem = Some((arg_idx, val));
            }
            ArgType::MemSize => {
                let (mem_arg, mem_reg) = pending_mem.take().ok_or(VerifyError::BadCall { pc })?;
                let val = v.read_reg(state, pc, reg_no)?;
                let size = match val {
                    RegType::Scalar(s) => s,
                    other => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper: spec.name,
                            arg: arg_idx,
                            reason: format!("expected size scalar, got {}", other.name()),
                        })
                    }
                };
                if size.umax > 1 << 24 {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper: spec.name,
                        arg: arg_idx,
                        reason: format!("possibly unbounded memory size (umax {})", size.umax),
                    });
                }
                if size.umax > 0 {
                    check_mem::check_helper_region(
                        v,
                        ctx,
                        pc,
                        state,
                        &mem_reg,
                        size.umax as i64,
                        false,
                        spec.name,
                        mem_arg,
                    )?;
                }
            }
            ArgType::SockPtr => {
                let val = v.read_reg(state, pc, reg_no)?;
                match val {
                    RegType::PtrToSocket {
                        or_null: false,
                        ref_id,
                    } => {
                        if spec.releases_arg == Some(arg_idx) {
                            check_ref::release(state, pc, ref_id)?;
                            released = true;
                        }
                    }
                    other => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper: spec.name,
                            arg: arg_idx,
                            reason: format!("expected referenced socket, got {}", other.name()),
                        })
                    }
                }
            }
            ArgType::SpinLockPtr => {
                // Only reachable via the special cases above.
                return Err(VerifyError::BadCall { pc });
            }
            ArgType::FuncPtr => {
                // Only bpf_loop takes one, handled above.
                return Err(VerifyError::BadCall { pc });
            }
        }
    }
    let _ = released;

    // Tail calls additionally require a prog-array map, a main-frame
    // call site (the replaced program would orphan callee frames), and
    // no live acquired references (the target never releases them).
    if id == BPF_TAIL_CALL {
        ctx.stats.tail_calls_checked += 1;
        let fd = map_fd.ok_or(VerifyError::BadCall { pc })?;
        let map = v.maps.get(fd).ok_or(VerifyError::BadMapFd { pc, fd })?;
        if map.def.kind != MapKind::ProgArray {
            return Err(VerifyError::BadHelperArg {
                pc,
                helper: spec.name,
                arg: 1,
                reason: format!("expected prog_array map, got {:?}", map.def.kind),
            });
        }
        if state.frames.len() > 1 {
            return Err(VerifyError::TailCallInSubprog { pc });
        }
        if !state.acquired_refs.is_empty() {
            return Err(VerifyError::UnreleasedReference { pc });
        }
    }

    // Return-value typing.
    let r0 = match (id, spec.ret) {
        (BPF_RINGBUF_RESERVE, _) => {
            check_ringbuf::reserve_ret(v, ctx, pc, state)?;
            clobber_caller_saved_args_only(state);
            return Ok(());
        }
        (_, RetType::SockOrNull) => {
            let ref_id = ctx.fresh_id();
            check_ref::acquire(state, ref_id);
            RegType::PtrToSocket {
                or_null: true,
                ref_id,
            }
        }
        (_, RetType::MapValueOrNull) => {
            let fd = map_fd.ok_or(VerifyError::BadCall { pc })?;
            RegType::map_value(fd, 0, true, ctx.fresh_id())
        }
        (_, RetType::Integer) | (_, RetType::Void) => RegType::unknown(),
    };
    state.set_reg(0, r0);
    clobber_caller_saved_args_only(state);
    Ok(())
}

/// Clobbers R1-R5 and sets R0.
fn clobber_caller_saved(state: &mut VerifierState, r0: RegType) {
    state.set_reg(0, r0);
    clobber_caller_saved_args_only(state);
}

/// Clobbers R1-R5 only.
fn clobber_caller_saved_args_only(state: &mut VerifierState) {
    for r in 1..=5u8 {
        state.set_reg(r, RegType::NotInit);
    }
}
