//! Memory-access checking: loads, stores, atomics, and region arguments.
//!
//! Every load/store is proven in-bounds against the abstract type of the
//! base register: context fields by layout, stack slots by frame, map
//! values by `[off_lo, off_hi]` against the value size, packet bytes
//! against the verified range, and `mem` regions against their size.

use ebpf::insn::{Insn, BPF_CMPXCHG, BPF_FETCH, BPF_REG_FP, BPF_ST, BPF_STACK_SIZE, BPF_XCHG};
use ebpf::program::CtxFieldKind;

use crate::{
    checker::{Vctx, Verifier},
    error::VerifyError,
    scalar::Scalar,
    types::{FrameState, RegType, Slot, VerifierState},
};

/// Returns the alias id of a pointer register, if it has one.
pub(crate) fn alias_id(reg: &RegType) -> Option<u32> {
    crate::types::reg_alias_id(reg)
}

/// Rejects writes to the frame pointer.
pub(crate) fn check_reg_writable(pc: usize, reg: u8) -> Result<(), VerifyError> {
    if reg == BPF_REG_FP {
        return Err(VerifyError::FramePointerWrite { pc });
    }
    Ok(())
}

/// Checks `LDX dst = *(size*)(src + off)`.
pub(crate) fn check_load(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    insn: Insn,
    state: &mut VerifierState,
) -> Result<(), VerifyError> {
    ctx.stats.mem_accesses_checked += 1;
    check_reg_writable(pc, insn.dst)?;
    let base = v.read_reg(state, pc, insn.src)?;
    let size = insn.access_size() as i64;
    let off = insn.off as i64;
    let loaded: RegType = match base {
        RegType::PtrToCtx { off: base_off } => {
            let field_off = base_off + off;
            let field = u16::try_from(field_off)
                .ok()
                .and_then(|fo| ctx.layout.field_at(fo, size as u16))
                .ok_or(VerifyError::BadCtxAccess { pc, off: field_off })?;
            match field.kind {
                CtxFieldKind::Scalar => RegType::unknown(),
                CtxFieldKind::PacketPtr => {
                    if !v.features.packet_access {
                        return Err(VerifyError::BadCtxAccess { pc, off: field_off });
                    }
                    RegType::PtrToPacket {
                        off_lo: 0,
                        off_hi: 0,
                        id: ctx.fresh_id(),
                    }
                }
                CtxFieldKind::PacketEnd => {
                    if !v.features.packet_access {
                        return Err(VerifyError::BadCtxAccess { pc, off: field_off });
                    }
                    RegType::PtrToPacketEnd
                }
            }
        }
        RegType::PtrToStack { frame, off: base } => read_stack(state, pc, frame, base + off, size)?,
        RegType::PtrToMapValue { .. } | RegType::PtrToMem { .. } | RegType::PtrToPacket { .. } => {
            check_region(v, ctx, pc, state, &base, off, size, AccessKind::Read)?;
            RegType::unknown()
        }
        other => {
            return Err(VerifyError::BadMemAccess {
                pc,
                reason: format!("cannot read through {}", other.name()),
            })
        }
    };
    state.set_reg(insn.dst, loaded);
    Ok(())
}

/// Checks `ST`/`STX` stores.
pub(crate) fn check_store(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    insn: Insn,
    state: &mut VerifierState,
) -> Result<(), VerifyError> {
    ctx.stats.mem_accesses_checked += 1;
    let base = v.read_reg(state, pc, insn.dst)?;
    let size = insn.access_size() as i64;
    let off = insn.off as i64;
    let value: RegType = if insn.class() == BPF_ST {
        RegType::Scalar(Scalar::constant(insn.imm as i64 as u64))
    } else {
        v.read_reg(state, pc, insn.src)?
    };

    match base {
        RegType::PtrToCtx { off: base_off } => {
            let field_off = base_off + off;
            let field = u16::try_from(field_off)
                .ok()
                .and_then(|fo| ctx.layout.field_at(fo, size as u16))
                .ok_or(VerifyError::BadCtxAccess { pc, off: field_off })?;
            if !field.writable {
                return Err(VerifyError::BadCtxAccess { pc, off: field_off });
            }
            if value.is_pointer() {
                return Err(VerifyError::PointerLeak {
                    pc,
                    reason: "store of pointer into ctx".into(),
                });
            }
        }
        RegType::PtrToStack { frame, off: base } => {
            write_stack(state, pc, frame, base + off, size, value)?;
        }
        RegType::PtrToMapValue { .. } | RegType::PtrToMem { .. } | RegType::PtrToPacket { .. } => {
            if value.is_pointer() {
                return Err(VerifyError::PointerLeak {
                    pc,
                    reason: format!("store of {} into {}", value.name(), base.name()),
                });
            }
            check_region(v, ctx, pc, state, &base, off, size, AccessKind::Write)?;
        }
        other => {
            return Err(VerifyError::BadMemAccess {
                pc,
                reason: format!("cannot write through {}", other.name()),
            })
        }
    }
    Ok(())
}

/// Checks atomic read-modify-write instructions.
pub(crate) fn check_atomic(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    insn: Insn,
    state: &mut VerifierState,
) -> Result<(), VerifyError> {
    ctx.stats.mem_accesses_checked += 1;
    let size = insn.access_size() as i64;
    if size != 4 && size != 8 {
        return Err(VerifyError::BadInstruction { pc });
    }
    let base = v.read_reg(state, pc, insn.dst)?;
    let src = v.read_reg(state, pc, insn.src)?;
    if src.is_pointer() {
        return Err(VerifyError::PointerLeak {
            pc,
            reason: "pointer operand in atomic op".into(),
        });
    }
    let off = insn.off as i64;

    // The memory operand must be writable, and — unless the documented
    // atomics pointer-leak bug is enabled — must not contain a spilled
    // pointer that the fetch would launder into a scalar.
    match base {
        RegType::PtrToStack { frame, off: base } => {
            let total = base + off;
            if total % size != 0 || total < -(BPF_STACK_SIZE as i64) || total + size > 0 {
                return Err(VerifyError::BadStackAccess {
                    pc,
                    off: total,
                    size,
                    uninit: false,
                });
            }
            let slot_idx = FrameState::slot_containing(total).expect("in range");
            match state.frames[frame].slot(slot_idx) {
                // An atomic reads its operand, like an LDX of the slot.
                Slot::Invalid => {
                    return Err(VerifyError::BadStackAccess {
                        pc,
                        off: total,
                        size,
                        uninit: true,
                    })
                }
                Slot::Spill(spilled) if spilled.is_pointer() && !v.faults.atomic_pointer_leak => {
                    // The fix for the Table-1 pointer-leak bugs: reject
                    // atomics on slots holding pointers.
                    return Err(VerifyError::PointerLeak {
                        pc,
                        reason: "atomic op on spilled pointer leaks kernel address".into(),
                    });
                }
                _ => {}
            }
            state.frame_mut(frame).set_slot(slot_idx, Slot::Misc);
        }
        RegType::PtrToMapValue { .. } | RegType::PtrToMem { .. } => {
            check_region(v, ctx, pc, state, &base, off, size, AccessKind::Write)?;
        }
        other => {
            return Err(VerifyError::BadMemAccess {
                pc,
                reason: format!("atomic op on {}", other.name()),
            })
        }
    }

    let is_fetch = insn.imm & BPF_FETCH != 0;
    if insn.imm & !BPF_FETCH == BPF_CMPXCHG & !BPF_FETCH {
        // CMPXCHG reads R0 as the expected value and writes the old value
        // to R0.
        let r0 = v.read_reg(state, pc, 0)?;
        if r0.is_pointer() {
            return Err(VerifyError::PointerLeak {
                pc,
                reason: "pointer in R0 for cmpxchg".into(),
            });
        }
        state.set_reg(0, RegType::unknown());
    } else if is_fetch || insn.imm & !BPF_FETCH == BPF_XCHG & !BPF_FETCH {
        check_reg_writable(pc, insn.src)?;
        state.set_reg(insn.src, RegType::unknown());
    }
    Ok(())
}

/// Direction of a checked access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccessKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// Proves an access of `size` bytes at `ptr + rel` stays inside the
/// pointed-to region.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_region(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    state: &VerifierState,
    ptr: &RegType,
    rel: i64,
    size: i64,
    _kind: AccessKind,
) -> Result<(), VerifyError> {
    match *ptr {
        RegType::PtrToMapValue {
            fd,
            off_lo,
            off_hi,
            or_null,
            ..
        } => {
            if or_null {
                return Err(VerifyError::BadMapValueAccess {
                    pc,
                    lo: 0,
                    hi: 0,
                    value_size: 0,
                    or_null: true,
                });
            }
            let map = v.maps.get(fd).ok_or(VerifyError::BadMapFd { pc, fd })?;
            let value_size = map.def.value_size as i64;
            let lo = off_lo.saturating_add(rel);
            let hi = off_hi.saturating_add(rel).saturating_add(size);
            if lo < 0 || hi > value_size {
                return Err(VerifyError::BadMapValueAccess {
                    pc,
                    lo,
                    hi,
                    value_size,
                    or_null: false,
                });
            }
            if off_lo != off_hi && v.features.speculation {
                ctx.stats.spec_sanitations += 1;
            }
            Ok(())
        }
        RegType::PtrToPacket { off_lo, off_hi, .. } => {
            let lo = off_lo.saturating_add(rel);
            let hi = off_hi.saturating_add(rel).saturating_add(size);
            if !v.features.packet_access {
                // `range: 0` marks the feature-off rejection.
                return Err(VerifyError::BadPacketAccess {
                    pc,
                    lo,
                    hi,
                    range: 0,
                });
            }
            if lo < 0 || hi > state.pkt_range as i64 {
                return Err(VerifyError::BadPacketAccess {
                    pc,
                    lo,
                    hi,
                    range: state.pkt_range as i64,
                });
            }
            Ok(())
        }
        RegType::PtrToMem {
            size: region,
            or_null,
            ..
        } => {
            if or_null {
                return Err(VerifyError::BadMemRegionAccess {
                    pc,
                    lo: 0,
                    hi: 0,
                    region: 0,
                    or_null: true,
                });
            }
            if rel < 0 || rel + size > region as i64 {
                return Err(VerifyError::BadMemRegionAccess {
                    pc,
                    lo: rel,
                    hi: rel + size,
                    region,
                    or_null: false,
                });
            }
            Ok(())
        }
        ref other => Err(VerifyError::BadMemAccess {
            pc,
            reason: format!("access through {}", other.name()),
        }),
    }
}

/// Reads `size` bytes at `frames[frame]`'s offset `off`, returning the
/// loaded abstract value.
fn read_stack(
    state: &VerifierState,
    pc: usize,
    frame: usize,
    off: i64,
    size: i64,
) -> Result<RegType, VerifyError> {
    if off < -(BPF_STACK_SIZE as i64) || off + size > 0 {
        return Err(VerifyError::BadStackAccess {
            pc,
            off,
            size,
            uninit: false,
        });
    }
    let aligned_full = off % 8 == 0 && size == 8;
    if aligned_full {
        let idx = FrameState::slot_index(off).expect("aligned in-range offset");
        return match state.frames[frame].slot(idx) {
            Slot::Invalid => Err(VerifyError::BadStackAccess {
                pc,
                off,
                size,
                uninit: true,
            }),
            Slot::Misc => Ok(RegType::unknown()),
            Slot::Zero => Ok(RegType::Scalar(Scalar::constant(0))),
            Slot::Spill(reg) => Ok(reg),
        };
    }
    // Partial reads: every touched slot must be initialized; result is an
    // unknown scalar (reading half a spilled pointer scrubs it to data).
    let first = FrameState::slot_containing(off + size - 1).expect("in range");
    let last = FrameState::slot_containing(off).expect("in range");
    for idx in first..=last {
        if matches!(state.frames[frame].slot(idx), Slot::Invalid) {
            return Err(VerifyError::BadStackAccess {
                pc,
                off,
                size,
                uninit: true,
            });
        }
    }
    Ok(RegType::unknown())
}

/// Writes `size` bytes at `frames[frame]`'s offset `off`.
fn write_stack(
    state: &mut VerifierState,
    pc: usize,
    frame: usize,
    off: i64,
    size: i64,
    value: RegType,
) -> Result<(), VerifyError> {
    if off < -(BPF_STACK_SIZE as i64) || off + size > 0 {
        return Err(VerifyError::BadStackAccess {
            pc,
            off,
            size,
            uninit: false,
        });
    }
    if off % 8 == 0 && size == 8 {
        let idx = FrameState::slot_index(off).expect("aligned in-range offset");
        let slot = match value {
            RegType::Scalar(s) if s.const_val() == Some(0) => Slot::Zero,
            v if v.is_pointer() => Slot::Spill(v),
            v => Slot::Spill(v),
        };
        state.frame_mut(frame).set_slot(idx, slot);
        return Ok(());
    }
    if value.is_pointer() {
        return Err(VerifyError::PointerLeak {
            pc,
            reason: "partial spill of pointer corrupts it".into(),
        });
    }
    let first = FrameState::slot_containing(off + size - 1).expect("in range");
    let last = FrameState::slot_containing(off).expect("in range");
    let frame = state.frame_mut(frame);
    for idx in first..=last {
        frame.set_slot(idx, Slot::Misc);
    }
    Ok(())
}

/// Proves that `len` bytes behind `ptr` are addressable (and readable
/// when `require_init`), for helper memory arguments; marks written
/// stack bytes `Misc`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_helper_region(
    v: &Verifier<'_>,
    ctx: &mut Vctx<'_>,
    pc: usize,
    state: &mut VerifierState,
    ptr: &RegType,
    len: i64,
    require_init: bool,
    helper: &'static str,
    arg: u8,
) -> Result<(), VerifyError> {
    if len <= 0 {
        return Err(VerifyError::BadHelperArg {
            pc,
            helper,
            arg,
            reason: format!("non-positive region size {len}"),
        });
    }
    match *ptr {
        RegType::PtrToStack { frame, off } => {
            if off < -(BPF_STACK_SIZE as i64) || off + len > 0 {
                return Err(VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg,
                    reason: format!("stack region [fp{off:+}, +{len}) out of frame"),
                });
            }
            let first = FrameState::slot_containing(off + len - 1).expect("in range");
            let last = FrameState::slot_containing(off).expect("in range");
            let frame = state.frame_mut(frame);
            for idx in first..=last {
                if require_init && matches!(frame.slot(idx), Slot::Invalid) {
                    return Err(VerifyError::BadHelperArg {
                        pc,
                        helper,
                        arg,
                        reason: "indirect read from uninitialized stack".into(),
                    });
                }
                // The helper may write through the region.
                frame.set_slot(idx, Slot::Misc);
            }
            Ok(())
        }
        RegType::PtrToMapValue { .. } | RegType::PtrToMem { .. } | RegType::PtrToPacket { .. } => {
            check_region(v, ctx, pc, state, ptr, 0, len, AccessKind::Write).map_err(|e| {
                VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg,
                    reason: e.to_string(),
                }
            })
        }
        ref other => Err(VerifyError::BadHelperArg {
            pc,
            helper,
            arg,
            reason: format!("expected memory region, got {}", other.name()),
        }),
    }
}
