//! Verifier state: register types, stack slots, frames, and subsumption.
//!
//! A [`VerifierState`] is one point in the symbolic exploration: a stack
//! of call frames (registers + up to 512 bytes of stack each), the set of
//! outstanding acquired references, lock state, and the verified packet
//! range. State subsumption ([`VerifierState::is_subsumed_by`]) powers the
//! pruning that keeps path exploration tractable — and whose limits force
//! the program-size restrictions §2.1 criticizes.
//!
//! States are copy-on-write: frames are shared between a state and its
//! clones (branch arms and recorded prune-point states) and a
//! frame is copied only when one of the sharers writes it. Each frame's
//! stack holds only the slots up to the deepest one written, like the
//! kernel's `allocated_stack`.

use std::rc::Rc;

use ebpf::insn::BPF_STACK_SIZE;
use ebpf::maps::MapFd;

use crate::scalar::Scalar;

/// Number of 8-byte stack slots per frame.
pub const STACK_SLOTS: usize = (BPF_STACK_SIZE / 8) as usize;

/// The abstract type of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegType {
    /// Never written; reading is an error.
    NotInit,
    /// A number.
    Scalar(Scalar),
    /// Pointer to the program context, plus a constant offset.
    PtrToCtx {
        /// Byte offset from the context base.
        off: i64,
    },
    /// Pointer into a frame's stack.
    PtrToStack {
        /// Index of the frame (into [`VerifierState::frames`]).
        frame: usize,
        /// Byte offset relative to that frame's top (R10); negative.
        off: i64,
    },
    /// A map object pointer loaded via `ld_map_fd`.
    ConstMapPtr {
        /// The map fd.
        fd: MapFd,
    },
    /// Pointer into a map value, with a (possibly variable) offset range.
    PtrToMapValue {
        /// The map fd.
        fd: MapFd,
        /// Minimum byte offset within the value.
        off_lo: i64,
        /// Maximum byte offset within the value.
        off_hi: i64,
        /// Whether this may still be NULL (must be checked before use).
        or_null: bool,
        /// Alias id: registers sharing an id are the same pointer.
        id: u32,
    },
    /// Pointer into packet data.
    PtrToPacket {
        /// Minimum byte offset from packet start.
        off_lo: i64,
        /// Maximum byte offset from packet start.
        off_hi: i64,
        /// Alias id.
        id: u32,
    },
    /// The packet-end pointer.
    PtrToPacketEnd,
    /// Pointer to a fixed-size memory region (e.g. a ring-buffer record).
    PtrToMem {
        /// Bytes addressable after the pointer.
        size: u64,
        /// Whether this may be NULL.
        or_null: bool,
        /// Alias id; also the reference id for acquired records.
        id: u32,
    },
    /// A socket pointer returned by an acquiring helper.
    PtrToSocket {
        /// Whether this may be NULL.
        or_null: bool,
        /// The acquired-reference id this pointer carries.
        ref_id: u32,
    },
    /// A bpf2bpf function pointer (`BPF_PSEUDO_FUNC`).
    FuncPtr {
        /// Absolute instruction index of the function entry.
        pc: usize,
    },
}

impl RegType {
    /// A fully unknown scalar.
    pub const fn unknown() -> Self {
        RegType::Scalar(Scalar::UNKNOWN)
    }

    /// A map-value pointer with a constant offset.
    pub fn map_value(fd: MapFd, off: i64, or_null: bool, id: u32) -> Self {
        RegType::PtrToMapValue {
            fd,
            off_lo: off,
            off_hi: off,
            or_null,
            id,
        }
    }

    /// Whether this is any kind of pointer.
    pub fn is_pointer(&self) -> bool {
        !matches!(self, RegType::NotInit | RegType::Scalar(_))
    }

    /// Whether this register's value may be NULL and unchecked.
    pub fn is_maybe_null(&self) -> bool {
        matches!(
            self,
            RegType::PtrToMapValue { or_null: true, .. }
                | RegType::PtrToMem { or_null: true, .. }
                | RegType::PtrToSocket { or_null: true, .. }
        )
    }

    /// A short human-readable name, used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            RegType::NotInit => "uninitialized",
            RegType::Scalar(_) => "scalar",
            RegType::PtrToCtx { .. } => "ctx",
            RegType::PtrToStack { .. } => "fp",
            RegType::ConstMapPtr { .. } => "map_ptr",
            RegType::PtrToMapValue { or_null: true, .. } => "map_value_or_null",
            RegType::PtrToMapValue { .. } => "map_value",
            RegType::PtrToPacket { .. } => "pkt",
            RegType::PtrToPacketEnd => "pkt_end",
            RegType::PtrToMem { or_null: true, .. } => "mem_or_null",
            RegType::PtrToMem { .. } => "mem",
            RegType::PtrToSocket { or_null: true, .. } => "sock_or_null",
            RegType::PtrToSocket { .. } => "sock",
            RegType::FuncPtr { .. } => "func",
        }
    }

    /// Subsumption: may a state verified with `self` (old) stand in for a
    /// state holding `new`?
    pub fn subsumes(&self, new: &RegType) -> bool {
        match (self, new) {
            // An uninitialized old register was never read on any verified
            // path, so any new content is safe.
            (RegType::NotInit, _) => true,
            (RegType::Scalar(old), RegType::Scalar(new)) => new.is_subset_of(old),
            (
                RegType::PtrToPacket {
                    off_lo: l1,
                    off_hi: h1,
                    ..
                },
                RegType::PtrToPacket {
                    off_lo: l2,
                    off_hi: h2,
                    ..
                },
            ) => l1 <= l2 && h1 >= h2,
            (
                RegType::PtrToMapValue {
                    fd: f1,
                    off_lo: l1,
                    off_hi: h1,
                    or_null: n1,
                    ..
                },
                RegType::PtrToMapValue {
                    fd: f2,
                    off_lo: l2,
                    off_hi: h2,
                    or_null: n2,
                    ..
                },
            ) => f1 == f2 && l1 <= l2 && h1 >= h2 && (*n1 || !*n2),
            (
                RegType::PtrToSocket { or_null: n1, .. },
                RegType::PtrToSocket { or_null: n2, .. },
            ) => *n1 || !*n2,
            (
                RegType::PtrToMem {
                    size: s1,
                    or_null: n1,
                    ..
                },
                RegType::PtrToMem {
                    size: s2,
                    or_null: n2,
                    ..
                },
            ) => s1 <= s2 && (*n1 || !*n2),
            (a, b) => a == b,
        }
    }
}

/// One 8-byte stack slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot {
    /// Never written; reads are rejected.
    Invalid,
    /// Written with data of unknown provenance.
    Misc,
    /// Known zero (e.g. `ST` of 0).
    Zero,
    /// A register spilled with an aligned 8-byte store.
    Spill(RegType),
}

impl Slot {
    fn subsumes(&self, new: &Slot) -> bool {
        match (self, new) {
            (Slot::Invalid, _) => true,
            (Slot::Misc, Slot::Misc | Slot::Zero) => true,
            // Reading old-Misc yields an unknown scalar; a new spilled
            // scalar or pointer read the same way is still safe.
            (Slot::Misc, Slot::Spill(_)) => true,
            (Slot::Zero, Slot::Zero) => true,
            (Slot::Spill(old), Slot::Spill(new)) => old.subsumes(new),
            _ => false,
        }
    }
}

/// What kind of frame this is, and how exiting it behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The program's entry frame: EXIT ends the program.
    Main,
    /// A bpf2bpf function frame: EXIT returns to the caller.
    Func {
        /// pc to resume at in the caller.
        ret_pc: usize,
    },
    /// A `bpf_loop` callback frame: EXIT ends the exploration of the
    /// callback body.
    Callback {
        /// Outstanding references at callback entry (must match at exit).
        entry_refs: usize,
        /// Lock state at callback entry (must match at exit).
        entry_lock: bool,
    },
}

/// One call frame: registers plus stack.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameState {
    /// R0..=R10.
    pub regs: [RegType; 11],
    /// 8-byte stack slots, index 0 = `[fp-8, fp)`, up to the deepest slot
    /// written; every slot past the end is [`Slot::Invalid`].
    stack: Vec<Slot>,
    /// Frame kind.
    pub kind: FrameKind,
}

impl FrameState {
    /// A fresh frame with all registers uninitialized except FP.
    ///
    /// `frame_index` is this frame's index in [`VerifierState::frames`].
    pub fn new(kind: FrameKind, frame_index: usize) -> Self {
        let mut regs = [RegType::NotInit; 11];
        regs[10] = RegType::PtrToStack {
            frame: frame_index,
            off: 0,
        };
        FrameState {
            regs,
            stack: Vec::new(),
            kind,
        }
    }

    /// The stack slot at `idx` (`idx < STACK_SLOTS`).
    pub fn slot(&self, idx: usize) -> Slot {
        self.stack.get(idx).copied().unwrap_or(Slot::Invalid)
    }

    /// Writes the stack slot at `idx` (`idx < STACK_SLOTS`), growing the
    /// stack to reach it.
    pub fn set_slot(&mut self, idx: usize, slot: Slot) {
        debug_assert!(idx < STACK_SLOTS, "stack slot {idx} out of frame");
        if idx >= self.stack.len() {
            self.stack.resize(idx + 1, Slot::Invalid);
        }
        self.stack[idx] = slot;
    }

    /// The slots up to the deepest one written; the rest are all
    /// [`Slot::Invalid`].
    pub fn written_slots_mut(&mut self) -> &mut [Slot] {
        &mut self.stack
    }

    /// The slot index covering `[fp + off, fp + off + 8)`, when aligned
    /// and in range.
    pub fn slot_index(off: i64) -> Option<usize> {
        if off >= 0 || off < -(BPF_STACK_SIZE as i64) || off % 8 != 0 {
            return None;
        }
        Some((-off / 8 - 1) as usize)
    }

    /// The slot index containing byte offset `off` (not necessarily
    /// aligned).
    pub fn slot_containing(off: i64) -> Option<usize> {
        if off >= 0 || off < -(BPF_STACK_SIZE as i64) {
            return None;
        }
        Some(((-off - 1) / 8) as usize)
    }

    /// Subsumption over registers and the longer of the two stacks. Old
    /// slots past the end of `self.stack` are `Invalid`, which subsumes
    /// anything, so only `self`'s written slots need comparing.
    fn subsumes(&self, new: &FrameState) -> bool {
        if self.kind != new.kind {
            return false;
        }
        self.regs
            .iter()
            .zip(&new.regs)
            .all(|(old, new)| old.subsumes(new))
            && self
                .stack
                .iter()
                .enumerate()
                .all(|(idx, old)| old.subsumes(&new.slot(idx)))
    }

    /// Registers and spilled registers, in that order.
    fn regs_and_spills(&self) -> impl Iterator<Item = &RegType> {
        self.regs
            .iter()
            .chain(self.stack.iter().filter_map(|slot| match slot {
                Slot::Spill(reg) => Some(reg),
                _ => None,
            }))
    }

    /// Registers and spilled registers, mutably, in that order.
    fn regs_and_spills_mut(&mut self) -> impl Iterator<Item = &mut RegType> {
        self.regs
            .iter_mut()
            .chain(self.stack.iter_mut().filter_map(|slot| match slot {
                Slot::Spill(reg) => Some(reg),
                _ => None,
            }))
    }
}

/// A full verifier state at one program point.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifierState {
    /// Call frames, innermost last, shared with this state's clones.
    /// Write them through [`VerifierState::cur_mut`] and
    /// [`VerifierState::frame_mut`], which copy a shared frame first.
    pub frames: Vec<Rc<FrameState>>,
    /// Outstanding acquired reference ids.
    pub acquired_refs: Vec<u32>,
    /// Whether a `bpf_spin_lock` is held.
    pub lock_held: bool,
    /// Verified readable packet bytes (refined by pkt-end comparisons).
    pub pkt_range: u32,
}

impl VerifierState {
    /// The entry state of a program: one frame, R1 = ctx.
    pub fn entry() -> Self {
        let mut frame = FrameState::new(FrameKind::Main, 0);
        frame.regs[1] = RegType::PtrToCtx { off: 0 };
        VerifierState {
            frames: vec![Rc::new(frame)],
            acquired_refs: Vec::new(),
            lock_held: false,
            pkt_range: 0,
        }
    }

    /// The innermost frame.
    pub fn cur(&self) -> &FrameState {
        self.frames.last().expect("at least one frame")
    }

    /// The innermost frame, mutably; copied first if shared.
    pub fn cur_mut(&mut self) -> &mut FrameState {
        Rc::make_mut(self.frames.last_mut().expect("at least one frame"))
    }

    /// Frame `index`, mutably; copied first if shared.
    pub fn frame_mut(&mut self, index: usize) -> &mut FrameState {
        Rc::make_mut(&mut self.frames[index])
    }

    /// Reads a register type.
    pub fn reg(&self, r: u8) -> &RegType {
        &self.cur().regs[r as usize]
    }

    /// Sets a register type.
    pub fn set_reg(&mut self, r: u8, t: RegType) {
        self.cur_mut().regs[r as usize] = t;
    }

    /// Whether a previously verified state (`old`) subsumes `new`, so
    /// exploration of `new` can be pruned. A frame both states share is
    /// skipped: frame subsumption is reflexive.
    pub fn is_subsumed_by(new: &VerifierState, old: &VerifierState) -> bool {
        old.frames.len() == new.frames.len()
            && old.lock_held == new.lock_held
            && old.acquired_refs.len() == new.acquired_refs.len()
            && old.pkt_range <= new.pkt_range
            && old
                .frames
                .iter()
                .zip(&new.frames)
                .all(|(old, new)| Rc::ptr_eq(old, new) || old.subsumes(new))
    }

    /// Marks every register aliasing `id` (map value / mem / socket) as
    /// definitely-non-NULL, in all frames.
    pub fn mark_non_null(&mut self, id: u32) {
        self.replace_regs(|reg| {
            let mut new = *reg;
            match &mut new {
                RegType::PtrToMapValue { or_null, .. }
                | RegType::PtrToMem { or_null, .. }
                | RegType::PtrToSocket { or_null, .. }
                    if *or_null && reg_alias_id(reg) == Some(id) =>
                {
                    *or_null = false
                }
                _ => return None,
            }
            Some(new)
        });
    }

    /// Replaces every register aliasing `id` with the scalar 0 (the NULL
    /// branch of a null check) and drops the reference if it was acquired.
    pub fn mark_null(&mut self, id: u32) {
        self.replace_regs(|reg| {
            (reg_alias_id(reg) == Some(id)).then_some(RegType::Scalar(Scalar::constant(0)))
        });
        self.acquired_refs.retain(|r| *r != id);
    }

    /// Invalidates every register aliasing `id` (e.g. a released socket
    /// or a submitted ring-buffer record).
    pub fn invalidate_id(&mut self, id: u32) {
        self.replace_regs(|reg| (reg_alias_id(reg) == Some(id)).then_some(RegType::NotInit));
    }

    /// Invalidates pointers into frames at or beyond `frame_index`
    /// (used when frames are popped).
    pub fn invalidate_frames_from(&mut self, frame_index: usize) {
        self.replace_regs(|reg| {
            matches!(reg, RegType::PtrToStack { frame, .. } if *frame >= frame_index)
                .then_some(RegType::NotInit)
        });
    }

    /// Replaces each register and spilled register, in every frame, for
    /// which `f` returns a new type. Only a frame holding such a register
    /// is written, so frames shared with other states stay shared.
    fn replace_regs(&mut self, f: impl Fn(&RegType) -> Option<RegType>) {
        for frame in &mut self.frames {
            if frame.regs_and_spills().all(|reg| f(reg).is_none()) {
                continue;
            }
            for reg in Rc::make_mut(frame).regs_and_spills_mut() {
                if let Some(new) = f(reg) {
                    *reg = new;
                }
            }
        }
    }
}

pub(crate) fn reg_alias_id(reg: &RegType) -> Option<u32> {
    match reg {
        RegType::PtrToMapValue { id, .. } | RegType::PtrToMem { id, .. } => Some(*id),
        RegType::PtrToSocket { ref_id, .. } => Some(*ref_id),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_state_shape() {
        let st = VerifierState::entry();
        assert_eq!(st.frames.len(), 1);
        assert!(matches!(st.reg(1), RegType::PtrToCtx { off: 0 }));
        assert!(matches!(
            st.reg(10),
            RegType::PtrToStack { frame: 0, off: 0 }
        ));
        assert!(matches!(st.reg(0), RegType::NotInit));
        assert!(!st.lock_held);
    }

    #[test]
    fn slot_index_mapping() {
        assert_eq!(FrameState::slot_index(-8), Some(0));
        assert_eq!(FrameState::slot_index(-16), Some(1));
        assert_eq!(FrameState::slot_index(-512), Some(63));
        assert_eq!(FrameState::slot_index(-4), None); // misaligned
        assert_eq!(FrameState::slot_index(0), None); // above frame
        assert_eq!(FrameState::slot_index(-520), None); // below frame

        assert_eq!(FrameState::slot_containing(-1), Some(0));
        assert_eq!(FrameState::slot_containing(-8), Some(0));
        assert_eq!(FrameState::slot_containing(-9), Some(1));
        assert_eq!(FrameState::slot_containing(-512), Some(63));
        assert_eq!(FrameState::slot_containing(0), None);
    }

    #[test]
    fn scalar_subsumption() {
        let wide = RegType::Scalar(Scalar::from_urange(0, 100));
        let narrow = RegType::Scalar(Scalar::from_urange(10, 20));
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
        assert!(RegType::NotInit.subsumes(&wide));
        assert!(!wide.subsumes(&RegType::NotInit));
    }

    #[test]
    fn or_null_subsumption_direction() {
        let maybe = RegType::map_value(1, 0, true, 1);
        let definitely = RegType::map_value(1, 0, false, 2);
        // A state verified safe with a maybe-null pointer null-checked
        // everything, so a definitely-non-null pointer is fine.
        assert!(maybe.subsumes(&definitely));
        assert!(!definitely.subsumes(&maybe));
    }

    #[test]
    fn map_value_offset_range_subsumption() {
        let wide = RegType::PtrToMapValue {
            fd: 1,
            off_lo: 0,
            off_hi: 64,
            or_null: false,
            id: 1,
        };
        let narrow = RegType::PtrToMapValue {
            fd: 1,
            off_lo: 8,
            off_hi: 16,
            or_null: false,
            id: 2,
        };
        assert!(wide.subsumes(&narrow));
        assert!(!narrow.subsumes(&wide));
    }

    #[test]
    fn state_subsumption_requires_same_shape() {
        let a = VerifierState::entry();
        let mut b = VerifierState::entry();
        assert!(VerifierState::is_subsumed_by(&b, &a));
        b.lock_held = true;
        assert!(!VerifierState::is_subsumed_by(&b, &a));
    }

    #[test]
    fn pkt_range_subsumption_direction() {
        let mut old = VerifierState::entry();
        let mut new = VerifierState::entry();
        old.pkt_range = 10;
        new.pkt_range = 20;
        // Old verified with range 10; new knows at least that much.
        assert!(VerifierState::is_subsumed_by(&new, &old));
        assert!(!VerifierState::is_subsumed_by(&old, &new));
    }

    #[test]
    fn mark_non_null_clears_aliases() {
        let mut st = VerifierState::entry();
        st.set_reg(0, RegType::map_value(1, 0, true, 7));
        st.set_reg(6, RegType::map_value(1, 8, true, 7));
        st.mark_non_null(7);
        assert!(!st.reg(0).is_maybe_null());
        assert!(!st.reg(6).is_maybe_null());
    }

    #[test]
    fn mark_null_zeroes_and_drops_ref() {
        let mut st = VerifierState::entry();
        st.set_reg(
            0,
            RegType::PtrToSocket {
                or_null: true,
                ref_id: 3,
            },
        );
        st.acquired_refs.push(3);
        st.mark_null(3);
        assert!(matches!(st.reg(0), RegType::Scalar(s) if s.const_val() == Some(0)));
        assert!(st.acquired_refs.is_empty());
    }

    #[test]
    fn invalidate_frames_clears_dangling_stack_pointers() {
        let mut st = VerifierState::entry();
        st.frames
            .push(Rc::new(FrameState::new(FrameKind::Func { ret_pc: 5 }, 1)));
        st.set_reg(6, RegType::PtrToStack { frame: 1, off: -8 });
        st.frames.pop();
        st.invalidate_frames_from(1);
        assert!(matches!(st.reg(6), RegType::NotInit));
    }

    #[test]
    fn stack_slot_subsumption() {
        assert!(Slot::Invalid.subsumes(&Slot::Misc));
        assert!(Slot::Misc.subsumes(&Slot::Zero));
        assert!(!Slot::Zero.subsumes(&Slot::Misc));
        let sp = Slot::Spill(RegType::unknown());
        assert!(Slot::Misc.subsumes(&sp));
        assert!(sp.subsumes(&Slot::Spill(RegType::Scalar(Scalar::constant(1)))));
    }

    #[test]
    fn state_header_stays_56_bytes() {
        // `VerifStats::peak_state_bytes` counts retained states at this
        // size, and the committed reports pin it.
        assert_eq!(std::mem::size_of::<VerifierState>(), 56);
    }

    /// A caller frame with one written slot, plus an empty callee frame.
    fn two_frames() -> VerifierState {
        let mut st = VerifierState::entry();
        st.frame_mut(0).set_slot(0, Slot::Zero);
        st.frames
            .push(Rc::new(FrameState::new(FrameKind::Func { ret_pc: 5 }, 1)));
        st
    }

    #[test]
    fn writing_a_caller_slot_through_a_clone_leaves_the_original() {
        let orig = two_frames();
        let mut copy = orig.clone();
        copy.frame_mut(0).set_slot(0, Slot::Misc);
        copy.frame_mut(0).set_slot(3, Slot::Misc);
        assert_eq!(orig.frames[0].slot(0), Slot::Zero);
        assert_eq!(orig.frames[0].slot(3), Slot::Invalid);
        assert_eq!(copy.frames[0].slot(0), Slot::Misc);
        assert_eq!(copy.frames[0].slot(3), Slot::Misc);
        assert!(!Rc::ptr_eq(&orig.frames[0], &copy.frames[0]));
        // The callee frame, never written, is still shared.
        assert!(Rc::ptr_eq(&orig.frames[1], &copy.frames[1]));
    }

    #[test]
    fn alias_walks_leave_a_sharing_state_unchanged() {
        let mut st = two_frames();
        st.set_reg(0, RegType::map_value(1, 0, true, 7));
        st.set_reg(6, RegType::PtrToStack { frame: 1, off: -8 });
        st.cur_mut()
            .set_slot(1, Slot::Spill(RegType::map_value(1, 8, true, 7)));
        // A deep copy: comparing against it catches an in-place write to
        // a shared frame.
        let before: Vec<FrameState> = st.frames.iter().map(|f| (**f).clone()).collect();
        let walks: [fn(&mut VerifierState); 4] = [
            |s| s.mark_non_null(7),
            |s| s.mark_null(7),
            |s| s.invalidate_id(7),
            |s| s.invalidate_frames_from(1),
        ];
        for walk in walks {
            let mut other = st.clone();
            walk(&mut other);
            assert_ne!(*other.frames[1], before[1], "the walk rewrote the callee");
            assert!(st.frames.iter().map(|f| &**f).eq(&before));
            // The caller frame holds no match, so it was not copied.
            assert!(Rc::ptr_eq(&st.frames[0], &other.frames[0]));
        }
    }

    /// Frame subsumption over all `STACK_SLOTS` slots, as with a stack of
    /// fixed size.
    fn fixed_array_subsumes(old: &FrameState, new: &FrameState) -> bool {
        old.kind == new.kind
            && old.regs.iter().zip(&new.regs).all(|(o, n)| o.subsumes(n))
            && (0..STACK_SLOTS).all(|idx| old.slot(idx).subsumes(&new.slot(idx)))
    }

    #[test]
    fn shorter_old_stack_subsumes_as_with_the_fixed_array() {
        let mut old = FrameState::new(FrameKind::Main, 0);
        old.set_slot(0, Slot::Zero);
        let mut new = old.clone();
        new.set_slot(5, Slot::Spill(RegType::PtrToCtx { off: 0 }));
        new.set_slot(STACK_SLOTS - 1, Slot::Misc);
        // Old slots past the end are Invalid, which subsumes anything.
        assert!(old.subsumes(&new));
        assert_eq!(old.subsumes(&new), fixed_array_subsumes(&old, &new));
        // Slots old did write are still compared.
        new.set_slot(0, Slot::Misc);
        assert!(!old.subsumes(&new));
        assert_eq!(old.subsumes(&new), fixed_array_subsumes(&old, &new));
    }

    #[test]
    fn longer_old_stack_with_a_written_tail_is_rejected() {
        let mut old = FrameState::new(FrameKind::Main, 0);
        old.set_slot(0, Slot::Misc);
        old.set_slot(9, Slot::Zero);
        let mut new = FrameState::new(FrameKind::Main, 0);
        new.set_slot(0, Slot::Misc);
        // New's slot 9 is past its end, so Invalid, which Zero does not
        // subsume.
        assert!(!old.subsumes(&new));
        assert_eq!(old.subsumes(&new), fixed_array_subsumes(&old, &new));
        // Once new writes the tail, old covers it again.
        new.set_slot(9, Slot::Zero);
        assert!(old.subsumes(&new));
        assert_eq!(old.subsumes(&new), fixed_array_subsumes(&old, &new));
    }
}
