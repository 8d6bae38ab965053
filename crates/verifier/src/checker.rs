//! The verification engine: symbolic exploration of all program paths.
//!
//! This is the analogue of `kernel/bpf/verifier.c`'s `do_check` loop:
//! a worklist of `(pc, abstract state)` pairs, a per-instruction transfer
//! function, branch splitting with range refinement, subsumption-based
//! state pruning at jump targets, and a processed-instruction budget whose
//! exhaustion rejects the program as too complex — the scalability wall
//! §2.1 describes.
//!
//! States reached at pruning points go into one table, chained per pc and
//! capped at `max_states_per_insn` each; the path being explored is a
//! stack of table indices. A new state at a pruning point is checked
//! against its pc's recorded states only, as the kernel's
//! `is_state_visited` does: a covering state still on the current path
//! means the path looped without abstract progress (rejected), any other
//! covering state prunes it. So each processed instruction costs at most
//! `max_states_per_insn` subsumption checks, however long the path. A
//! state reached after its pc's table filled is not recorded, so a loop
//! back to it is not caught as a loop: it runs into the instruction
//! budget and is rejected as too complex.

use std::collections::HashSet;

use ebpf::helpers::HelperRegistry;
use ebpf::insn::{
    Insn, BPF_ADD, BPF_ALU, BPF_ALU64, BPF_ATOMIC, BPF_CALL, BPF_END, BPF_EXIT, BPF_JA, BPF_JEQ,
    BPF_JMP, BPF_JMP32, BPF_JNE, BPF_LD, BPF_LDX, BPF_MEM, BPF_MOV, BPF_NEG, BPF_PSEUDO_CALL,
    BPF_PSEUDO_FUNC, BPF_PSEUDO_MAP_FD, BPF_ST, BPF_STX, BPF_SUB,
};
use ebpf::maps::MapRegistry;
use ebpf::program::{CtxLayout, Program};

use crate::{
    check_call, check_mem, check_packet,
    error::VerifyError,
    faults::VerifierFaults,
    features::VerifierFeatures,
    limits::VerifierLimits,
    loops,
    scalar::{self, Scalar},
    stats::VerifStats,
    types::{RegType, VerifierState},
};

/// A successful verification: statistics the caller can inspect.
#[derive(Debug, Clone)]
pub struct Verification {
    /// Exploration statistics.
    pub stats: VerifStats,
}

/// The static verifier.
pub struct Verifier<'a> {
    /// Map registry, for `ld_map_fd` resolution and value sizes.
    pub maps: &'a MapRegistry,
    /// Helper registry, for call signatures.
    pub helpers: &'a HelperRegistry,
    /// Enabled capabilities (a historical kernel's feature set).
    pub features: VerifierFeatures,
    /// Complexity limits.
    pub limits: VerifierLimits,
    /// Injected bug replicas.
    pub faults: VerifierFaults,
}

/// [`Vctx::heads`] entry for a pc that is not a pruning point.
const NOT_POINT: u32 = u32::MAX;
/// The end of a pc's chain of recorded states.
const END: u32 = u32::MAX - 1;

/// A state recorded at a pruning point.
struct Recorded {
    state: VerifierState,
    /// The state recorded before it at the same pc, or [`END`].
    prev: u32,
    /// Its index in [`Vctx::path`]: it is on the current path while that
    /// slot still holds it.
    depth: usize,
}

/// A deferred path: it resumes at `pc` in `state`, with [`Vctx::path`]
/// cut back to `depth` entries and [`Vctx::floor`] set to `floor`.
struct Pending {
    pc: usize,
    state: VerifierState,
    depth: usize,
    floor: usize,
}

/// Internal exploration context for a single `verify` run.
pub(crate) struct Vctx<'p> {
    pub prog: &'p Program,
    pub layout: &'static CtxLayout,
    pub stats: VerifStats,
    pub next_id: u32,
    worklist: Vec<Pending>,
    /// Every state recorded at a pruning point.
    recorded: Vec<Recorded>,
    /// Each pc's most recent entry in `recorded`, [`END`] before the
    /// first, or [`NOT_POINT`].
    heads: Vec<u32>,
    /// The current path's recorded states, oldest first. Worklist entries
    /// pushed later resume at least as deep, so a popped entry's prefix
    /// is intact.
    path: Vec<u32>,
    /// `path` entries below it belong to the path that scheduled the
    /// `bpf_loop` callback being explored, not to its ancestry.
    floor: usize,
    /// `bpf_loop` callback entries already scheduled for verification.
    pub callbacks_seen: HashSet<usize>,
}

impl Vctx<'_> {
    /// Allocates a fresh alias / reference id.
    pub fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Defers `state` at `pc` as a branch of the current path.
    pub fn push_branch(&mut self, pc: usize, state: VerifierState) {
        self.defer(pc, state, self.floor);
    }

    /// Defers a `bpf_loop` callback body at `pc`: a fresh path, not a
    /// continuation of this one, so its floor hides this path's states.
    pub fn push_callback(&mut self, pc: usize, state: VerifierState) {
        self.defer(pc, state, self.path.len());
    }

    fn defer(&mut self, pc: usize, state: VerifierState, floor: usize) {
        self.stats.states_pushed += 1;
        let depth = self.path.len();
        self.worklist.push(Pending {
            pc,
            state,
            depth,
            floor,
        });
    }

    /// Checks `state` at pruning point `pc` against the states recorded
    /// there: `Ok(true)` prunes it, and a covering state on the current
    /// path is an infinite loop. An uncovered state is recorded while the
    /// pc has room.
    fn visit(&mut self, pc: usize, state: &VerifierState, cap: usize) -> Result<bool, VerifyError> {
        let (mut at, mut count, mut covered) = (self.heads[pc], 0, false);
        while at != END {
            let old = &self.recorded[at as usize];
            let on_path = old.depth >= self.floor && self.path.get(old.depth) == Some(&at);
            // An off-path cover prunes, unless an on-path one rejects.
            if on_path || !covered {
                self.stats.subsumption_checks += 1;
                if VerifierState::is_subsumed_by(state, &old.state) {
                    if on_path {
                        return Err(VerifyError::InfiniteLoop { pc });
                    }
                    covered = true;
                }
            }
            (at, count) = (old.prev, count + 1);
        }
        if !covered && count < cap {
            let (prev, depth) = (self.heads[pc], self.path.len());
            self.heads[pc] = self.recorded.len() as u32;
            self.path.push(self.heads[pc]);
            let state = state.clone();
            self.recorded.push(Recorded { state, prev, depth });
        }
        Ok(covered)
    }
}

impl<'a> Verifier<'a> {
    /// Creates a verifier with all features, modern limits, and no bugs.
    pub fn new(maps: &'a MapRegistry, helpers: &'a HelperRegistry) -> Self {
        Verifier {
            maps,
            helpers,
            features: VerifierFeatures::all(),
            limits: VerifierLimits::modern(),
            faults: VerifierFaults::patched(),
        }
    }

    /// Sets the feature set.
    pub fn with_features(mut self, features: VerifierFeatures) -> Self {
        self.features = features;
        self
    }

    /// Sets the limits.
    pub fn with_limits(mut self, limits: VerifierLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets the injected bug configuration.
    pub fn with_faults(mut self, faults: VerifierFaults) -> Self {
        self.faults = faults;
        self
    }

    /// Verifies `prog`, returning statistics on success.
    pub fn verify(&self, prog: &Program) -> Result<Verification, VerifyError> {
        self.verify_traced(prog, None)
    }

    /// Verifies `prog`, recording each verifier pass — pre-checks
    /// (arg 0), the speculation-gadget scan (arg 1), and symbolic path
    /// exploration (arg 2) — as a
    /// [`kernel_sim::trace::SpanKind::VerifierPass`] span on `tracer`.
    pub fn verify_traced(
        &self,
        prog: &Program,
        tracer: Option<&kernel_sim::trace::Tracer>,
    ) -> Result<Verification, VerifyError> {
        use kernel_sim::trace::SpanKind;
        let started = std::time::Instant::now();
        {
            let _pre = tracer.map(|t| t.span(SpanKind::VerifierPass, 0));
            if prog.insns.is_empty() {
                return Err(VerifyError::EmptyProgram);
            }
            if prog.insns.len() > self.limits.max_prog_len {
                return Err(VerifyError::ProgramTooLarge {
                    len: prog.insns.len(),
                    limit: self.limits.max_prog_len,
                });
            }
        }
        let heads = loops::jump_targets(&prog.insns)
            .into_iter()
            .map(|target| if target { END } else { NOT_POINT })
            .collect();
        let mut ctx = Vctx {
            prog,
            layout: prog.prog_type.ctx_layout(),
            stats: VerifStats::default(),
            next_id: 0,
            worklist: vec![Pending {
                pc: 0,
                state: VerifierState::entry(),
                depth: 0,
                floor: 0,
            }],
            recorded: Vec::new(),
            heads,
            path: Vec::new(),
            floor: 0,
            callbacks_seen: HashSet::new(),
        };
        if self.features.speculation {
            let _spec = tracer.map(|t| t.span(SpanKind::VerifierPass, 1));
            ctx.stats.spec_sanitations += crate::spec::count_gadgets(&prog.insns);
        }

        let _explore = tracer.map(|t| t.span(SpanKind::VerifierPass, 2));
        while let Some(next) = ctx.worklist.pop() {
            debug_assert!(
                next.depth <= ctx.path.len(),
                "a resumed path lost its prefix"
            );
            ctx.path.truncate(next.depth);
            ctx.floor = next.floor;
            self.explore_path(&mut ctx, next.pc, next.state)?;
        }
        // Recorded states are never dropped, so the peak is the final count.
        ctx.stats.peak_states = ctx.recorded.len();
        ctx.stats.peak_state_bytes = ctx.recorded.len() * std::mem::size_of::<VerifierState>();
        ctx.stats.wall_ns = started.elapsed().as_nanos();
        Ok(Verification { stats: ctx.stats })
    }

    /// Explores one path until it exits or branches are deferred.
    fn explore_path(
        &self,
        ctx: &mut Vctx<'_>,
        mut pc: usize,
        mut state: VerifierState,
    ) -> Result<(), VerifyError> {
        loop {
            if pc >= ctx.prog.insns.len() {
                return Err(VerifyError::BadInstruction { pc });
            }
            ctx.stats.insns_processed += 1;
            if ctx.stats.insns_processed > self.limits.max_insns_processed {
                return Err(VerifyError::TooComplex {
                    insns_processed: ctx.stats.insns_processed,
                });
            }
            if ctx.heads[pc] != NOT_POINT
                && ctx.visit(pc, &state, self.limits.max_states_per_insn)?
            {
                ctx.stats.states_pruned += 1;
                return Ok(());
            }

            let insn = ctx.prog.insns[pc];
            match insn.class() {
                BPF_ALU64 | BPF_ALU => {
                    self.check_alu(ctx, pc, insn, &mut state)?;
                    pc += 1;
                }
                BPF_LD => {
                    pc = self.check_ld_imm(ctx, pc, insn, &mut state)?;
                }
                BPF_LDX => {
                    check_mem::check_load(self, ctx, pc, insn, &mut state)?;
                    pc += 1;
                }
                BPF_ST | BPF_STX => {
                    if insn.mode() == BPF_MEM {
                        check_mem::check_store(self, ctx, pc, insn, &mut state)?;
                    } else if insn.mode() == BPF_ATOMIC && insn.class() == BPF_STX {
                        check_mem::check_atomic(self, ctx, pc, insn, &mut state)?;
                    } else {
                        return Err(VerifyError::BadInstruction { pc });
                    }
                    pc += 1;
                }
                BPF_JMP | BPF_JMP32 => match insn.op() {
                    BPF_JA => {
                        if insn.class() != BPF_JMP {
                            return Err(VerifyError::BadInstruction { pc });
                        }
                        pc = self.branch_target(ctx, pc, insn)?;
                    }
                    BPF_EXIT => {
                        match check_call::check_exit(self, ctx, pc, &mut state)? {
                            Some(ret_pc) => pc = ret_pc,
                            None => return Ok(()), // Path verified to completion.
                        }
                    }
                    BPF_CALL => {
                        if insn.src == BPF_PSEUDO_CALL {
                            pc = check_call::check_bpf2bpf_call(self, ctx, pc, insn, &mut state)?;
                        } else {
                            check_call::check_helper_call(self, ctx, pc, insn, &mut state)?;
                            pc += 1;
                        }
                    }
                    _ => {
                        match self.check_cond_jmp(ctx, pc, insn, &mut state)? {
                            Some(next) => pc = next,
                            None => return Ok(()), // Both arms deferred or dead.
                        }
                    }
                },
                _ => return Err(VerifyError::BadInstruction { pc }),
            }
        }
    }

    fn branch_target(&self, ctx: &Vctx<'_>, pc: usize, insn: Insn) -> Result<usize, VerifyError> {
        let target = pc as i64 + 1 + insn.off as i64;
        if target < 0 || target as usize >= ctx.prog.insns.len() {
            return Err(VerifyError::BadInstruction { pc });
        }
        if target as usize <= pc && !self.features.bounded_loops {
            return Err(VerifyError::BackEdge { pc });
        }
        Ok(target as usize)
    }

    fn check_ld_imm(
        &self,
        ctx: &mut Vctx<'_>,
        pc: usize,
        insn: Insn,
        state: &mut VerifierState,
    ) -> Result<usize, VerifyError> {
        if !insn.is_lddw() || pc + 1 >= ctx.prog.insns.len() {
            return Err(VerifyError::BadInstruction { pc });
        }
        let hi = ctx.prog.insns[pc + 1];
        check_mem::check_reg_writable(pc, insn.dst)?;
        let value = match insn.src {
            0 => RegType::Scalar(Scalar::constant(ebpf::insn::lddw_imm(&insn, &hi))),
            BPF_PSEUDO_MAP_FD => {
                let fd = insn.imm as u32;
                if self.maps.get(fd).is_none() {
                    return Err(VerifyError::BadMapFd { pc, fd });
                }
                RegType::ConstMapPtr { fd }
            }
            BPF_PSEUDO_FUNC => {
                let target = insn.imm as usize;
                if insn.imm < 0 || target >= ctx.prog.insns.len() {
                    return Err(VerifyError::BadCall { pc });
                }
                RegType::FuncPtr { pc: target }
            }
            _ => return Err(VerifyError::BadInstruction { pc }),
        };
        state.set_reg(insn.dst, value);
        // The second slot is processed too, as in the kernel.
        ctx.stats.insns_processed += 1;
        Ok(pc + 2)
    }

    fn check_alu(
        &self,
        ctx: &mut Vctx<'_>,
        pc: usize,
        insn: Insn,
        state: &mut VerifierState,
    ) -> Result<(), VerifyError> {
        check_mem::check_reg_writable(pc, insn.dst)?;
        let is64 = insn.class() == BPF_ALU64;
        let op = insn.op();

        if op == BPF_END {
            let dst = self.read_reg(state, pc, insn.dst)?;
            match dst {
                RegType::Scalar(_) => {
                    state.set_reg(insn.dst, RegType::unknown());
                    return Ok(());
                }
                _ => {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "byte swap on pointer".into(),
                    })
                }
            }
        }
        if op == BPF_NEG {
            let dst = self.read_reg(state, pc, insn.dst)?;
            match dst {
                RegType::Scalar(s) => {
                    let out = if is64 {
                        scalar::alu64(BPF_NEG, s, Scalar::constant(0))
                    } else {
                        scalar::alu32(BPF_NEG, s, Scalar::constant(0))
                    };
                    state.set_reg(insn.dst, RegType::Scalar(out));
                    return Ok(());
                }
                _ => {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "negation of pointer".into(),
                    })
                }
            }
        }

        let src_val: RegType = if insn.is_src_reg() {
            self.read_reg(state, pc, insn.src)?
        } else {
            RegType::Scalar(Scalar::constant(insn.imm as i64 as u64))
        };

        // MOV copies the whole abstract value, pointers included.
        if op == BPF_MOV {
            if is64 {
                state.set_reg(insn.dst, src_val);
            } else {
                match src_val {
                    RegType::Scalar(s) => state.set_reg(insn.dst, RegType::Scalar(s.cast32())),
                    _ => {
                        return Err(VerifyError::PointerArithmetic {
                            pc,
                            reason: "32-bit move of pointer".into(),
                        })
                    }
                }
            }
            return Ok(());
        }

        let dst_val = self.read_reg(state, pc, insn.dst)?;
        let out = match (dst_val, src_val) {
            (RegType::Scalar(d), RegType::Scalar(s)) => {
                let result = if is64 {
                    if self.faults.bounds_overflow_gap && (op == BPF_ADD || op == BPF_SUB) {
                        scalar::alu64_buggy_wrap(op, d, s)
                    } else {
                        scalar::alu64(op, d, s)
                    }
                } else {
                    scalar::alu32(op, d, s)
                };
                RegType::Scalar(result)
            }
            // Pointer arithmetic.
            (ptr, RegType::Scalar(s)) if ptr.is_pointer() => {
                if !is64 {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "32-bit pointer arithmetic prohibited".into(),
                    });
                }
                self.pointer_arith(ctx, pc, op, ptr, s, false)?
            }
            // scalar += pointer commutes for ADD only.
            (RegType::Scalar(s), ptr) if ptr.is_pointer() && op == BPF_ADD && is64 => {
                self.pointer_arith(ctx, pc, op, ptr, s, false)?
            }
            (a, b) if a.is_pointer() && b.is_pointer() => {
                return Err(VerifyError::PointerArithmetic {
                    pc,
                    reason: format!("{} {} {} arithmetic", a.name(), op, b.name()),
                })
            }
            _ => {
                return Err(VerifyError::PointerArithmetic {
                    pc,
                    reason: "arithmetic on uninitialized value".into(),
                })
            }
        };
        state.set_reg(insn.dst, out);
        let _ = ctx;
        Ok(())
    }

    /// Applies `ptr <op> scalar`, enforcing the pointer-arithmetic rules.
    pub(crate) fn pointer_arith(
        &self,
        ctx: &mut Vctx<'_>,
        pc: usize,
        op: u8,
        ptr: RegType,
        s: Scalar,
        _speculative: bool,
    ) -> Result<RegType, VerifyError> {
        if op != BPF_ADD && op != BPF_SUB {
            return Err(VerifyError::PointerArithmetic {
                pc,
                reason: format!("op {op:#x} on {}", ptr.name()),
            });
        }
        // Offsets as a signed range.
        let (lo, hi) = if op == BPF_ADD {
            (s.smin, s.smax)
        } else {
            match (s.smax.checked_neg(), s.smin.checked_neg()) {
                (Some(lo), Some(hi)) => (lo, hi),
                _ => {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "pointer offset overflows".into(),
                    })
                }
            }
        };
        match ptr {
            RegType::PtrToStack { frame, off } => {
                // Stack pointers require constant offsets.
                if lo != hi {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "variable stack pointer offset".into(),
                    });
                }
                Ok(RegType::PtrToStack {
                    frame,
                    off: off + lo,
                })
            }
            RegType::PtrToCtx { off } => {
                if lo != hi {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "variable ctx pointer offset".into(),
                    });
                }
                Ok(RegType::PtrToCtx { off: off + lo })
            }
            RegType::PtrToMapValue {
                fd,
                off_lo,
                off_hi,
                or_null,
                id,
            } => {
                if or_null && !self.faults.ptr_arith_on_or_null {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "R pointer arithmetic on map_value_or_null prohibited".into(),
                    });
                }
                if off_lo != off_hi || lo != hi {
                    ctx.stats.spec_sanitations += u64::from(self.features.speculation);
                }
                Ok(RegType::PtrToMapValue {
                    fd,
                    off_lo: off_lo.saturating_add(lo),
                    off_hi: off_hi.saturating_add(hi),
                    or_null,
                    id,
                })
            }
            RegType::PtrToPacket { off_lo, off_hi, id } => {
                if !self.features.packet_access {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "packet access not supported".into(),
                    });
                }
                Ok(RegType::PtrToPacket {
                    off_lo: off_lo.saturating_add(lo),
                    off_hi: off_hi.saturating_add(hi),
                    id,
                })
            }
            RegType::PtrToMem { size, or_null, id } => {
                if or_null && !self.faults.ptr_arith_on_or_null {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "pointer arithmetic on mem_or_null prohibited".into(),
                    });
                }
                if lo != hi {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "variable mem pointer offset".into(),
                    });
                }
                // Fold the constant into a reduced window; negative is out.
                if lo < 0 || lo as u64 > size {
                    return Err(VerifyError::PointerArithmetic {
                        pc,
                        reason: "mem pointer escapes region".into(),
                    });
                }
                Ok(RegType::PtrToMem {
                    size: size - lo as u64,
                    or_null,
                    id,
                })
            }
            other => Err(VerifyError::PointerArithmetic {
                pc,
                reason: format!("arithmetic on {}", other.name()),
            }),
        }
    }

    /// Handles a conditional jump: returns the pc to continue at, pushing
    /// the other arm on the worklist; `None` when this path is finished.
    fn check_cond_jmp(
        &self,
        ctx: &mut Vctx<'_>,
        pc: usize,
        insn: Insn,
        state: &mut VerifierState,
    ) -> Result<Option<usize>, VerifyError> {
        let target = self.branch_target(ctx, pc, insn)?;
        let wide = insn.class() == BPF_JMP;
        let op = insn.op();
        let dst = self.read_reg(state, pc, insn.dst)?;
        let src: RegType = if insn.is_src_reg() {
            self.read_reg(state, pc, insn.src)?
        } else {
            RegType::Scalar(Scalar::constant(insn.imm as i64 as u64))
        };

        // NULL checks on maybe-null pointers: JEQ/JNE against 0.
        if dst.is_maybe_null() && wide && (op == BPF_JEQ || op == BPF_JNE) {
            if let RegType::Scalar(s) = src {
                if s.const_val() == Some(0) {
                    let id = check_mem::alias_id(&dst).expect("maybe-null has an id");
                    let mut taken = state.clone();
                    if op == BPF_JNE {
                        taken.mark_non_null(id);
                        state.mark_null(id);
                    } else {
                        taken.mark_null(id);
                        state.mark_non_null(id);
                    }
                    ctx.push_branch(target, taken);
                    return Ok(Some(pc + 1));
                }
            }
        }

        // Definitely-non-null pointer vs 0: statically decided.
        if dst.is_pointer() && !dst.is_maybe_null() {
            if let RegType::Scalar(s) = src {
                if s.const_val() == Some(0) && wide && (op == BPF_JEQ || op == BPF_JNE) {
                    return Ok(Some(if op == BPF_JNE { target } else { pc + 1 }));
                }
            }
            // Packet range refinement: pkt vs pkt_end.
            if let Some(next) =
                check_packet::check_pkt_compare(self, ctx, pc, target, op, &dst, &src, state)?
            {
                return Ok(Some(next));
            }
            return Err(VerifyError::PointerArithmetic {
                pc,
                reason: format!("comparison of {} with {}", dst.name(), src.name()),
            });
        }

        let (d, s) = match (dst, src) {
            (RegType::Scalar(d), RegType::Scalar(s)) => (d, s),
            (a, b) => {
                return Err(VerifyError::PointerArithmetic {
                    pc,
                    reason: format!("comparison of {} with {}", a.name(), b.name()),
                })
            }
        };

        // JMP32 compares the low 32 bits.
        let (cd, cs) = if wide {
            (d, s)
        } else {
            (d.cast32(), s.cast32())
        };

        match scalar::branch_known(op, &cd, &cs) {
            Some(true) => return Ok(Some(target)),
            Some(false) => return Ok(Some(pc + 1)),
            None => {}
        }

        // Refinement. For JMP32, narrowing the 64-bit bounds from a 32-bit
        // compare is only sound when the value is known to fit in 32 bits;
        // the CVE-2021-31440 replica skips that soundness condition.
        let can_refine_64 = wide
            || (d.umax <= u32::MAX as u64 && s.umax <= u32::MAX as u64)
            || self.faults.jmp32_narrows_64bit_bounds;

        let apply = |state: &mut VerifierState, (nd, ns): (Scalar, Scalar)| {
            if can_refine_64 {
                state.set_reg(insn.dst, RegType::Scalar(nd));
                if insn.is_src_reg() {
                    state.set_reg(insn.src, RegType::Scalar(ns));
                }
            }
        };

        // A live arm gets its refinement; only two live arms need a copy.
        match (
            scalar::refine_branch(op, d, s, true),
            scalar::refine_branch(op, d, s, false),
        ) {
            (Some(taken), Some(fall)) => {
                let mut taken_state = state.clone();
                apply(&mut taken_state, taken);
                apply(state, fall);
                ctx.push_branch(target, taken_state);
                Ok(Some(pc + 1))
            }
            (Some(taken), None) => {
                apply(state, taken);
                Ok(Some(target))
            }
            (None, Some(fall)) => {
                apply(state, fall);
                Ok(Some(pc + 1))
            }
            (None, None) => Ok(None), // Dead code both ways (impossible).
        }
    }

    /// Reads a register, rejecting uninitialized reads.
    pub(crate) fn read_reg(
        &self,
        state: &VerifierState,
        pc: usize,
        r: u8,
    ) -> Result<RegType, VerifyError> {
        let reg = *state.reg(r);
        if matches!(reg, RegType::NotInit) {
            return Err(VerifyError::UninitializedRead { pc, reg: r });
        }
        Ok(reg)
    }
}
