//! Verifier behaviour: what is accepted, what is rejected, and why.

use ebpf::asm::Asm;
use ebpf::helpers::{self, HelperRegistry};
use ebpf::insn::*;
use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use verifier::{Verifier, VerifierFeatures, VerifierLimits, VerifyError};

struct H {
    kernel: Kernel,
    maps: MapRegistry,
    helpers: HelperRegistry,
}

impl H {
    fn new() -> Self {
        Self {
            kernel: Kernel::new(),
            maps: MapRegistry::default(),
            helpers: HelperRegistry::standard(),
        }
    }

    fn verifier(&self) -> Verifier<'_> {
        Verifier::new(&self.maps, &self.helpers)
    }

    fn verify(&self, insns: Vec<Insn>) -> Result<verifier::Verification, VerifyError> {
        self.verify_as(insns, ProgType::SocketFilter)
    }

    fn verify_as(
        &self,
        insns: Vec<Insn>,
        pt: ProgType,
    ) -> Result<verifier::Verification, VerifyError> {
        self.verifier().verify(&Program::new("t", pt, insns))
    }
}

// ---- Basic acceptance/rejection --------------------------------------------------

#[test]
fn trivial_program_accepted() {
    let h = H::new();
    let prog = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
    let v = h.verify(prog).unwrap();
    assert_eq!(v.stats.insns_processed, 2);
}

#[test]
fn empty_program_rejected() {
    let h = H::new();
    assert!(matches!(h.verify(vec![]), Err(VerifyError::EmptyProgram)));
}

#[test]
fn uninitialized_register_read_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_reg(Reg::R0, Reg::R5)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UninitializedRead { reg: 5, .. })
    ));
}

#[test]
fn exit_without_r0_rejected() {
    let h = H::new();
    let prog = Asm::new().exit().build().unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UninitializedRead { reg: 0, .. })
    ));
}

#[test]
fn frame_pointer_write_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R10, 5)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::FramePointerWrite { pc: 0 })
    ));
}

#[test]
fn returning_pointer_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_reg(Reg::R0, Reg::R10)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadReturnValue { .. })
    ));
}

// ---- Stack discipline --------------------------------------------------------------

#[test]
fn stack_roundtrip_accepted() {
    let h = H::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 42)
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn uninitialized_stack_read_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadStackAccess { uninit: true, .. })
    ));
}

#[test]
fn atomic_on_uninitialized_stack_slot_rejected() {
    let h = H::new();
    // An atomic reads its operand, so a never-written slot is rejected
    // like the LDX above; once written, the same atomic verifies.
    let atomic = |init: bool| {
        let asm = Asm::new().mov64_imm(Reg::R1, 1);
        let asm = if init {
            asm.st(BPF_DW, Reg::R10, -8, 0)
        } else {
            asm
        };
        asm.atomic(BPF_DW, Reg::R10, -8, Reg::R1, BPF_ATOMIC_ADD | BPF_FETCH)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build()
            .unwrap()
    };
    assert!(matches!(
        h.verify(atomic(false)),
        Err(VerifyError::BadStackAccess {
            off: -8,
            size: 8,
            uninit: true,
            ..
        })
    ));
    h.verify(atomic(true)).unwrap();
}

#[test]
fn out_of_frame_stack_access_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -520, 1)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadStackAccess {
            off: -520,
            uninit: false,
            ..
        })
    ));
    // Above the frame too.
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, 8, 1)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadStackAccess {
            off: 8,
            uninit: false,
            ..
        })
    ));
}

#[test]
fn spill_fill_preserves_pointer_type() {
    let h = H::new();
    // Spill ctx pointer, fill it, then use it as ctx for a helper.
    let prog = Asm::new()
        .stx(BPF_DW, Reg::R10, -8, Reg::R1)
        .ldx(BPF_DW, Reg::R1, Reg::R10, -8)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn partial_overwrite_of_spilled_pointer_scrubs_it() {
    let h = H::new();
    let prog = Asm::new()
        .stx(BPF_DW, Reg::R10, -8, Reg::R1) // spill ctx ptr
        .st(BPF_B, Reg::R10, -8, 0) // partial overwrite
        .ldx(BPF_DW, Reg::R2, Reg::R10, -8) // now scalar...
        .ldx(BPF_DW, Reg::R0, Reg::R2, 0) // ...so deref is rejected
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMemAccess { .. })
    ));
}

// ---- Context access ---------------------------------------------------------------

#[test]
fn ctx_scalar_field_readable() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R1, 16) // len field
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn ctx_unknown_offset_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R0, Reg::R1, 100)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadCtxAccess { off: 100, .. })
    ));
}

#[test]
fn ctx_misaligned_access_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_W, Reg::R0, Reg::R1, 2)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadCtxAccess { .. })
    ));
}

#[test]
fn ctx_write_to_readonly_field_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R1, 16, 0)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadCtxAccess { .. })
    ));
}

// ---- Packet access ----------------------------------------------------------------

fn packet_prog(extra_len: i32) -> Vec<Insn> {
    // Standard idiom: r2 = data, r3 = data_end; bound-check; load.
    Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 0)
        .ldx(BPF_DW, Reg::R3, Reg::R1, 8)
        .mov64_reg(Reg::R4, Reg::R2)
        .alu64_imm(BPF_ADD, Reg::R4, 2)
        .mov64_imm(Reg::R0, 0)
        .jmp64_reg(BPF_JGT, Reg::R4, Reg::R3, "out")
        .ldx(BPF_B, Reg::R0, Reg::R2, (2 + extra_len - 1) as i16)
        .alu64_imm(BPF_AND, Reg::R0, 1)
        .label("out")
        .exit()
        .build()
        .unwrap()
}

#[test]
fn bounds_checked_packet_access_accepted() {
    let h = H::new();
    h.verify_as(packet_prog(0), ProgType::Xdp).unwrap();
}

#[test]
fn packet_access_beyond_checked_range_rejected() {
    let h = H::new();
    // Checked 2 bytes but reads byte at offset 2 (the third byte).
    assert!(matches!(
        h.verify_as(packet_prog(1), ProgType::Xdp),
        Err(VerifyError::BadPacketAccess { range: 2, .. })
    ));
}

#[test]
fn unchecked_packet_access_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 0)
        .ldx(BPF_B, Reg::R0, Reg::R2, 0) // no bounds check at all
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify_as(prog, ProgType::Xdp),
        Err(VerifyError::BadPacketAccess { .. })
    ));
}

#[test]
fn packet_access_without_feature_rejected() {
    let h = H::new();
    let verifier = h.verifier().with_features(VerifierFeatures::baseline());
    let prog = Program::new("p", ProgType::Xdp, packet_prog(0));
    assert!(verifier.verify(&prog).is_err());
}

#[test]
fn xdp_return_range_enforced() {
    let h = H::new();
    let prog = Asm::new().mov64_imm(Reg::R0, 7).exit().build().unwrap();
    assert!(matches!(
        h.verify_as(prog, ProgType::Xdp),
        Err(VerifyError::BadReturnValue { .. })
    ));
    let prog = Asm::new().mov64_imm(Reg::R0, 2).exit().build().unwrap();
    h.verify_as(prog, ProgType::Xdp).unwrap();
}

// ---- Maps -------------------------------------------------------------------------

fn lookup_prog(h: &H, value_size: u32, access_off: i16, write: bool) -> Vec<Insn> {
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("m", value_size, 4))
        .unwrap();
    let mut asm = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit");
    asm = if write {
        asm.st(BPF_DW, Reg::R0, access_off, 1).mov64_imm(Reg::R0, 0)
    } else {
        asm.ldx(BPF_DW, Reg::R0, Reg::R0, access_off)
    };
    asm.exit().build().unwrap()
}

#[test]
fn null_checked_map_access_accepted() {
    let h = H::new();
    let prog = lookup_prog(&h, 16, 8, false);
    h.verify(prog).unwrap();
    let prog = lookup_prog(&h, 16, 0, true);
    h.verify(prog).unwrap();
}

#[test]
fn missing_null_check_rejected() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 8, 1)).unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .ldx(BPF_DW, Reg::R0, Reg::R0, 0) // no null check!
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapValueAccess { or_null: true, .. })
    ));
}

#[test]
fn map_value_out_of_bounds_rejected() {
    let h = H::new();
    let prog = lookup_prog(&h, 16, 16, false); // reads [16, 24) of a 16-byte value
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapValueAccess {
            or_null: false,
            value_size: 16,
            ..
        })
    ));
    let h = H::new();
    let prog = lookup_prog(&h, 16, -1, false);
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapValueAccess { or_null: false, .. })
    ));
}

#[test]
fn variable_offset_map_access_with_bounds_accepted() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 64, 1)).unwrap();
    // idx = len & 7 (from ctx); value[idx * 8] read: offsets [0, 56].
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
        .alu64_imm(BPF_AND, Reg::R6, 7)
        .alu64_imm(BPF_LSH, Reg::R6, 3)
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6)
        .ldx(BPF_DW, Reg::R0, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let v = h.verify(prog).unwrap();
    // The variable-offset access was counted for speculative sanitation.
    assert!(v.stats.spec_sanitations >= 1);
}

#[test]
fn variable_offset_without_bounds_rejected() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 64, 1)).unwrap();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16) // unbounded scalar
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6)
        .ldx(BPF_DW, Reg::R0, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapValueAccess { or_null: false, .. })
    ));
}

#[test]
fn bad_map_fd_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, 99)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapFd { fd: 99, .. })
    ));
}

#[test]
fn uninitialized_map_key_rejected() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 8, 1)).unwrap();
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4) // key bytes never written
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadHelperArg { .. })
    ));
}

// ---- Helper calls ------------------------------------------------------------------

#[test]
fn unknown_helper_rejected() {
    let h = H::new();
    let prog = Asm::new().call_helper(9999).exit().build().unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UnknownHelper { id: 9999, .. })
    ));
}

#[test]
fn helper_gated_by_feature_set() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 10)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .label("cb")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    // Old kernel: bpf_loop unknown.
    let old = h
        .verifier()
        .with_features(VerifierFeatures::for_version(ebpf::KernelVersion::V5_10));
    assert!(matches!(
        old.verify(&Program::new("p", ProgType::SocketFilter, prog.clone())),
        Err(VerifyError::HelperNotSupported { .. })
    ));
    // Modern kernel: fine.
    h.verify(prog).unwrap();
}

#[test]
fn scalar_arg_rejects_pointer_leak() {
    let h = H::new();
    // bpf_tail_call's index argument (R3) must be scalar.
    let fd = h
        .maps
        .create(&h.kernel, MapDef::prog_array("t", 2))
        .unwrap();
    let prog = Asm::new()
        .ld_map_fd(Reg::R2, fd)
        .mov64_reg(Reg::R3, Reg::R10) // pointer as index!
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadHelperArg { .. })
    ));
}

#[test]
fn tail_call_requires_prog_array() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("a", 4, 2)).unwrap();
    let prog = Asm::new()
        .ld_map_fd(Reg::R2, fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_TAIL_CALL as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadHelperArg { .. })
    ));
}

#[test]
fn sys_bpf_with_valid_region_passes_despite_null_inside_union() {
    // THE §2.2 OBSERVATION: the verifier proves the attr region is 16
    // readable bytes but never inspects the pointer stored inside it.
    let h = H::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -16, 0)
        .st(BPF_DW, Reg::R10, -8, 0) // NULL pointer inside the union
        .mov64_imm(Reg::R1, helpers::SYS_BPF_PROG_RUN as i32)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 16)
        .call_helper(helpers::BPF_SYS_BPF as i32)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

// ---- References and locks -----------------------------------------------------------

fn sk_lookup_prog(release: bool) -> Vec<Insn> {
    let mut asm = Asm::new()
        .st(BPF_DW, Reg::R10, -16, 0)
        .st(BPF_DW, Reg::R10, -8, 0)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 12)
        .mov64_imm(Reg::R4, 0)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_SK_LOOKUP_TCP as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "found")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("found");
    if release {
        asm = asm
            .mov64_reg(Reg::R1, Reg::R0)
            .call_helper(helpers::BPF_SK_RELEASE as i32);
    }
    asm.mov64_imm(Reg::R0, 1).exit().build().unwrap()
}

#[test]
fn balanced_socket_reference_accepted() {
    let h = H::new();
    h.verify(sk_lookup_prog(true)).unwrap();
}

#[test]
fn leaked_socket_reference_rejected() {
    let h = H::new();
    assert!(matches!(
        h.verify(sk_lookup_prog(false)),
        Err(VerifyError::UnreleasedReference { .. })
    ));
}

#[test]
fn null_branch_does_not_hold_reference() {
    // The null branch exits without releasing; that is fine because a
    // NULL result carries no reference.
    let h = H::new();
    h.verify(sk_lookup_prog(true)).unwrap();
}

fn spin_lock_prog(h: &H, unlock: bool, double: bool) -> Vec<Insn> {
    let fd = h.maps.create(&h.kernel, MapDef::array("l", 16, 1)).unwrap();
    let mut asm = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_LOCK as i32);
    if double {
        asm = asm
            .mov64_reg(Reg::R1, Reg::R6)
            .call_helper(helpers::BPF_SPIN_LOCK as i32);
    }
    if unlock {
        asm = asm
            .mov64_reg(Reg::R1, Reg::R6)
            .call_helper(helpers::BPF_SPIN_UNLOCK as i32);
    }
    asm.mov64_imm(Reg::R0, 0).exit().build().unwrap()
}

#[test]
fn balanced_spin_lock_accepted() {
    let h = H::new();
    let prog = spin_lock_prog(&h, true, false);
    h.verify(prog).unwrap();
}

#[test]
fn lock_leak_rejected() {
    let h = H::new();
    let prog = spin_lock_prog(&h, false, false);
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::LockNotReleased { .. })
    ));
}

#[test]
fn double_lock_rejected() {
    let h = H::new();
    let prog = spin_lock_prog(&h, true, true);
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::DoubleLock { .. })
    ));
}

#[test]
fn unlock_without_lock_rejected() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("l", 16, 1)).unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_UNLOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UnlockWithoutLock { .. })
    ));
}

#[test]
fn ringbuf_reserve_must_be_submitted() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::ringbuf("rb", 4096))
        .unwrap();
    // Reserve then exit without submit: rejected.
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, fd)
        .mov64_imm(Reg::R2, 8)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UnreleasedReference { .. })
    ));
    // Reserve, write, submit: accepted.
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, fd)
        .mov64_imm(Reg::R2, 8)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("got")
        .st(BPF_DW, Reg::R0, 0, 7)
        .mov64_reg(Reg::R1, Reg::R0)
        .mov64_imm(Reg::R2, 0)
        .call_helper(helpers::BPF_RINGBUF_SUBMIT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

// ---- Loops and complexity -----------------------------------------------------------

#[test]
fn bounded_loop_accepted_with_cost_proportional_to_trip_count() {
    let h = H::new();
    let trip = |n: i32| {
        Asm::new()
            .mov64_imm(Reg::R0, 0)
            .mov64_imm(Reg::R1, n)
            .label("loop")
            .alu64_imm(BPF_ADD, Reg::R0, 1)
            .alu64_imm(BPF_SUB, Reg::R1, 1)
            .jmp64_imm(BPF_JNE, Reg::R1, 0, "loop")
            .alu64_imm(BPF_AND, Reg::R0, 0)
            .exit()
            .build()
            .unwrap()
    };
    let small = h.verify(trip(4)).unwrap();
    let large = h.verify(trip(64)).unwrap();
    // Verification cost grows with the loop trip count — the §2.1
    // scalability story in one assertion.
    assert!(large.stats.insns_processed > 8 * small.stats.insns_processed);
}

#[test]
fn unbounded_loop_exhausts_budget() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 0)
        .label("spin")
        .alu64_imm(BPF_ADD, Reg::R0, 1)
        .ja("spin")
        .build()
        .unwrap();
    let verifier = h.verifier().with_limits(VerifierLimits::tiny());
    assert!(matches!(
        verifier.verify(&Program::new("p", ProgType::SocketFilter, prog)),
        Err(VerifyError::TooComplex { .. })
    ));
}

#[test]
fn back_edge_rejected_on_old_kernels() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 4)
        .label("loop")
        .alu64_imm(BPF_SUB, Reg::R0, 1)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "loop")
        .exit()
        .build()
        .unwrap();
    let old = h
        .verifier()
        .with_features(VerifierFeatures::for_version(ebpf::KernelVersion::V4_20));
    assert!(matches!(
        old.verify(&Program::new("p", ProgType::SocketFilter, prog.clone())),
        Err(VerifyError::BackEdge { .. })
    ));
    h.verify(prog).unwrap();
}

#[test]
fn program_size_limit_enforced() {
    let h = H::new();
    let mut asm = Asm::new();
    for _ in 0..100 {
        asm = asm.mov64_imm(Reg::R0, 0);
    }
    let prog = asm.exit().build().unwrap();
    let verifier = h.verifier().with_limits(VerifierLimits::tiny());
    assert!(matches!(
        verifier.verify(&Program::new("p", ProgType::SocketFilter, prog)),
        Err(VerifyError::ProgramTooLarge { .. })
    ));
}

#[test]
fn state_pruning_makes_diamonds_tractable() {
    // A chain of N if/else diamonds has 2^N paths; pruning must collapse
    // them or the budget would explode.
    let h = H::new();
    let mut asm = Asm::new().mov64_imm(Reg::R0, 0);
    for i in 0..24 {
        let t = format!("t{i}");
        let j = format!("j{i}");
        // Each diamond branches on a freshly loaded value, and both arms
        // clobber it before the join, so the joined states converge and
        // the second arrival is pruned.
        asm = asm
            .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
            .jmp64_imm(BPF_JEQ, Reg::R6, i, &t)
            .mov64_imm(Reg::R6, 0)
            .ja(&j)
            .label(&t)
            .mov64_imm(Reg::R6, 0)
            .label(&j);
    }
    let prog = asm.alu64_imm(BPF_AND, Reg::R0, 0).exit().build().unwrap();
    let v = h.verify(prog).unwrap();
    assert!(v.stats.states_pruned > 0);
    assert!(
        v.stats.insns_processed < 10_000,
        "pruning failed: {}",
        v.stats.insns_processed
    );
}

// ---- bpf2bpf calls ------------------------------------------------------------------

#[test]
fn bpf2bpf_call_verified() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 21)
        .call_fn("double")
        .exit()
        .label("double")
        .mov64_reg(Reg::R0, Reg::R1)
        .alu64_imm(BPF_MUL, Reg::R0, 2)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn bpf2bpf_gated_by_feature() {
    let h = H::new();
    let prog = Asm::new()
        .call_fn("f")
        .exit()
        .label("f")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let old = h
        .verifier()
        .with_features(VerifierFeatures::for_version(ebpf::KernelVersion::V4_9));
    assert!(matches!(
        old.verify(&Program::new("p", ProgType::SocketFilter, prog)),
        Err(VerifyError::CallsNotSupported { .. })
    ));
}

#[test]
fn recursion_rejected_by_depth_limit() {
    let h = H::new();
    let prog = Asm::new()
        .call_fn("f")
        .exit()
        .label("f")
        .call_fn("f")
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::CallDepthExceeded { .. })
    ));
}

#[test]
fn callee_cannot_read_callers_scratch_regs() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R6, 7)
        .mov64_imm(Reg::R1, 0)
        .call_fn("f")
        .exit()
        .label("f")
        .mov64_reg(Reg::R0, Reg::R6) // callee reads its own uninit R6
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UninitializedRead { reg: 6, .. })
    ));
}

#[test]
fn dangling_callee_stack_pointer_invalidated() {
    let h = H::new();
    // Callee returns a pointer into its own (dead) frame... it cannot:
    // subprograms must return scalars, so leak via spill to caller frame.
    let prog = Asm::new()
        .mov64_reg(Reg::R1, Reg::R10)
        .call_fn("f")
        .ldx(BPF_DW, Reg::R2, Reg::R10, -8) // spilled callee-frame ptr
        .ldx(BPF_DW, Reg::R0, Reg::R2, -8) // deref dangling pointer
        .exit()
        .label("f")
        .stx(BPF_DW, Reg::R1, -8, Reg::R10) // spill callee fp into caller frame
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    // The spilled callee frame pointer must not be usable after return.
    assert!(h.verify(prog).is_err());
}

// ---- bpf_loop ----------------------------------------------------------------------

#[test]
fn bpf_loop_callback_verified() {
    let h = H::new();
    let prog = Asm::new()
        .st(BPF_DW, Reg::R10, -8, 0)
        .mov64_imm(Reg::R1, 100)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R3, -8)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .ldx(BPF_DW, Reg::R0, Reg::R10, -8)
        .alu64_imm(BPF_AND, Reg::R0, 1)
        .exit()
        .label("cb")
        .ldx(BPF_DW, Reg::R3, Reg::R2, 0)
        .alu64_reg(BPF_ADD, Reg::R3, Reg::R1)
        .stx(BPF_DW, Reg::R2, 0, Reg::R3)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn bpf_loop_callback_bug_caught() {
    let h = H::new();
    // The callback dereferences NULL; verification of the callback body
    // must reject the whole program.
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 10)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .label("cb")
        .mov64_imm(Reg::R3, 0)
        .ldx(BPF_DW, Reg::R0, Reg::R3, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMemAccess { .. })
    ));
}

#[test]
fn bpf_loop_requires_function_pointer() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 10)
        .mov64_imm(Reg::R2, 5) // scalar, not a function pointer
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadHelperArg { .. })
    ));
}

// ---- Pointer arithmetic rules -------------------------------------------------------

#[test]
fn pointer_plus_pointer_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_reg(BPF_ADD, Reg::R2, Reg::R1)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::PointerArithmetic { .. })
    ));
}

#[test]
fn variable_stack_offset_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 16)
        .mov64_reg(Reg::R3, Reg::R10)
        .alu64_reg(BPF_ADD, Reg::R3, Reg::R2)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::PointerArithmetic { .. })
    ));
}

#[test]
fn pointer_multiplication_rejected() {
    let h = H::new();
    let prog = Asm::new()
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_MUL, Reg::R2, 2)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::PointerArithmetic { .. })
    ));
}

#[test]
fn ptr_arith_on_or_null_rejected_when_patched() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("h", 4, 64, 4))
        .unwrap();
    let prog = or_null_arith_prog(fd);
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::PointerArithmetic { .. })
    ));
}

fn or_null_arith_prog(fd: u32) -> Vec<Insn> {
    // CVE-2022-23222 shape: arithmetic on the or_null pointer BEFORE the
    // null check; the check then "proves" NULL+8 is a valid pointer.
    Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .alu64_imm(BPF_ADD, Reg::R0, 8) // arithmetic on map_value_or_null!
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "nonnull")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("nonnull")
        .st(BPF_DW, Reg::R0, 0, 0x41) // write through it
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap()
}

#[test]
fn cve_2022_23222_replica_accepted_by_buggy_verifier() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("h", 4, 64, 4))
        .unwrap();
    let prog = or_null_arith_prog(fd);
    let buggy = h
        .verifier()
        .with_faults(verifier::VerifierFaults::shipped());
    buggy
        .verify(&Program::new("exploit", ProgType::SocketFilter, prog))
        .unwrap();
}

// ---- Additional edge cases --------------------------------------------------------

#[test]
fn callback_leaking_reference_rejected() {
    // A bpf_loop callback that acquires a socket ref without releasing
    // it: the Callback frame's exit check must reject the imbalance.
    let h = H::new();
    let prog = Asm::new()
        .mov64_reg(Reg::R6, Reg::R1) // keep ctx for the callback
        .mov64_imm(Reg::R1, 4)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_reg(Reg::R3, Reg::R6) // callback ctx = program ctx
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .label("cb")
        .st(BPF_DW, Reg::R10, -16, 0)
        .st(BPF_DW, Reg::R10, -8, 0)
        .mov64_reg(Reg::R1, Reg::R2) // ctx pointer for the helper
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -16)
        .mov64_imm(Reg::R3, 12)
        .mov64_imm(Reg::R4, 0)
        .mov64_imm(Reg::R5, 0)
        .call_helper(helpers::BPF_SK_LOOKUP_TCP as i32)
        .mov64_imm(Reg::R0, 0)
        .exit() // Exits the callback still holding the (maybe) reference.
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::UnreleasedReference { .. })
    ));
}

#[test]
fn spilled_or_null_pointer_null_check_works() {
    // Spill a maybe-null map value, null-check the register, then use the
    // refilled spill: the alias tracking must mark the spilled copy too.
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 8, 1)).unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .stx(BPF_DW, Reg::R10, -16, Reg::R0) // spill maybe-null
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .ldx(BPF_DW, Reg::R1, Reg::R10, -16) // fill: must be non-null now
        .ldx(BPF_DW, Reg::R0, Reg::R1, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn jset_branches_explore_both_arms() {
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
        .mov64_imm(Reg::R0, 0)
        .jmp64_imm(BPF_JSET, Reg::R6, 0xf0, "set")
        .mov64_imm(Reg::R0, 1)
        .label("set")
        .exit()
        .build()
        .unwrap();
    let v = h.verify(prog).unwrap();
    assert!(v.stats.states_pushed >= 1);
}

#[test]
fn jmp32_refinement_is_conservative_when_patched() {
    // The patched verifier must NOT narrow 64-bit bounds from a 32-bit
    // compare on a possibly-wide value — so the access is rejected.
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 64, 1)).unwrap();
    let prog = Asm::new()
        .call_helper(helpers::BPF_KTIME_GET_NS as i32)
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_imm(Reg::R0, 0)
        .jmp32_imm(BPF_JLT, Reg::R6, 8, "use")
        .exit()
        .label("use")
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6)
        .ldx(BPF_B, Reg::R0, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMapValueAccess { or_null: false, .. })
    ));

    // But when the value provably fits 32 bits, JMP32 refinement applies
    // and the same shape is accepted.
    let h2 = H::new();
    let fd2 = h2
        .maps
        .create(&h2.kernel, MapDef::array("m", 64, 1))
        .unwrap();
    let prog = Asm::new()
        .call_helper(helpers::BPF_KTIME_GET_NS as i32)
        .alu64_imm(BPF_AND, Reg::R0, 0xffff) // now provably 32-bit
        .mov64_reg(Reg::R6, Reg::R0)
        .mov64_imm(Reg::R0, 0)
        .jmp32_imm(BPF_JLT, Reg::R6, 8, "use")
        .exit()
        .label("use")
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd2)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .alu64_reg(BPF_ADD, Reg::R0, Reg::R6)
        .ldx(BPF_B, Reg::R0, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h2.verify(prog).unwrap();
}

#[test]
fn ringbuf_variable_size_reserve_rejected() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::ringbuf("rb", 4096))
        .unwrap();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R2, Reg::R1, 16) // unknown size
        .ld_map_fd(Reg::R1, fd)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadHelperArg { .. })
    ));
}

#[test]
fn write_beyond_reserved_record_rejected() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::ringbuf("rb", 4096))
        .unwrap();
    let prog = Asm::new()
        .ld_map_fd(Reg::R1, fd)
        .mov64_imm(Reg::R2, 8)
        .mov64_imm(Reg::R3, 0)
        .call_helper(helpers::BPF_RINGBUF_RESERVE as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "got")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("got")
        .st(BPF_DW, Reg::R0, 8, 7) // 8 bytes past an 8-byte record
        .mov64_reg(Reg::R1, Reg::R0)
        .mov64_imm(Reg::R2, 0)
        .call_helper(helpers::BPF_RINGBUF_SUBMIT as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::BadMemRegionAccess {
            region: 8,
            or_null: false,
            ..
        })
    ));
}

#[test]
fn exit_inside_callback_with_lock_held_rejected() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("l", 16, 1)).unwrap();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 2)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .exit()
        .label("cb")
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .mov64_reg(Reg::R1, Reg::R0)
        .call_helper(helpers::BPF_SPIN_LOCK as i32)
        .mov64_imm(Reg::R0, 0)
        .exit() // Callback exits with the lock held.
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::LockNotReleased { .. })
    ));
}

#[test]
fn percpu_array_verifies_like_array() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::percpu_array("pc", 8, 4))
        .unwrap();
    let prog = Asm::new()
        .st(BPF_W, Reg::R10, -4, 1)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .ldx(BPF_DW, Reg::R0, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn dead_code_after_constant_branch_is_skipped_cheaply() {
    // A statically-false branch's arm is never explored.
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 5)
        .jmp64_imm(BPF_JEQ, Reg::R0, 5, "always")
        // Dead: would fault if explored concretely... but the verifier
        // must still not charge for it.
        .mov64_imm(Reg::R1, 0)
        .ldx(BPF_DW, Reg::R0, Reg::R1, 0)
        .label("always")
        .exit()
        .build()
        .unwrap();
    let v = h.verify(prog).unwrap();
    // Entry + branch + exit (+ the LDDW-style accounting): few insns.
    assert!(v.stats.insns_processed <= 4);
}

#[test]
fn verification_stats_expose_memory_pressure() {
    let h = H::new();
    let mut asm = Asm::new().mov64_imm(Reg::R0, 0);
    for i in 0..32 {
        let t = format!("t{i}");
        asm = asm
            .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
            .jmp64_imm(BPF_JEQ, Reg::R6, i, &t)
            .mov64_imm(Reg::R6, 0)
            .label(&t);
    }
    let prog = asm.mov64_imm(Reg::R0, 0).exit().build().unwrap();
    let v = h.verify(prog).unwrap();
    assert!(v.stats.peak_states > 0);
    assert!(v.stats.peak_state_bytes > 0);
    assert!(v.stats.prune_ratio() > 0.5, "{}", v.stats.prune_ratio());
}

// ---- Infinite-loop detection (kernel: "infinite loop detected") -------------------

#[test]
fn trivial_infinite_loop_rejected() {
    let h = H::new();
    let prog = Asm::new().label("l").ja("l").build().unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::InfiniteLoop { .. })
    ));
}

#[test]
fn state_converging_loop_rejected_not_pruned() {
    // The loop body makes no abstract progress: without telling a
    // covering state on the current path from one on a finished path,
    // this would be PRUNED and accepted — an unsound termination verdict.
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R6, 0)
        .label("l")
        .mov64_imm(Reg::R6, 0)
        .ja("l")
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::InfiniteLoop { .. })
    ));
}

#[test]
fn loop_on_unprovable_condition_rejected() {
    // `while (*map_value != 0)`: the value is reloaded each iteration and
    // the abstract state converges — termination cannot be proven.
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("m", 8, 1)).unwrap();
    let prog = Asm::new()
        .label("l")
        .st(BPF_W, Reg::R10, -4, 0)
        .ld_map_fd(Reg::R1, fd)
        .mov64_reg(Reg::R2, Reg::R10)
        .alu64_imm(BPF_ADD, Reg::R2, -4)
        .call_helper(helpers::BPF_MAP_LOOKUP_ELEM as i32)
        .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("hit")
        .ldx(BPF_DW, Reg::R3, Reg::R0, 0)
        .jmp64_imm(BPF_JNE, Reg::R3, 0, "l")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::InfiniteLoop { .. })
    ));
}

#[test]
fn a_loop_back_to_a_state_past_the_cap_runs_to_the_budget() {
    // `r1` counts up to 12 around the loop head, then goes back to 9 and
    // loops forever. Only recorded states are checked for loops. `tiny()`
    // records 8 per pc (r1 = 0..=7), so the `r1 == 9` revisit is never
    // caught as a loop, and the program is rejected by the budget instead.
    let h = H::new();
    let insns = Asm::new()
        .mov64_imm(Reg::R0, 0)
        .mov64_imm(Reg::R1, 0)
        .label("loop")
        .alu64_imm(BPF_ADD, Reg::R1, 1)
        .jmp64_imm(BPF_JLT, Reg::R1, 12, "loop")
        .mov64_imm(Reg::R1, 9)
        .ja("loop")
        .build()
        .unwrap();
    let prog = Program::new("back-to-9", ProgType::SocketFilter, insns);
    let tiny = h.verifier().with_limits(VerifierLimits::tiny());
    assert_eq!(
        tiny.verify(&prog).map(|_| ()),
        Err(VerifyError::TooComplex {
            insns_processed: 513
        })
    );
    // With room for 64 states per pc, `r1 == 9` was recorded.
    assert_eq!(
        h.verifier().verify(&prog).map(|_| ()),
        Err(VerifyError::InfiniteLoop { pc: 2 })
    );
}

#[test]
fn a_bpf_loop_callback_looping_without_progress_is_an_infinite_loop() {
    // The callback body is a fresh path: its own recorded states are its
    // ancestry, so revisiting its loop head unchanged is a loop, not a
    // prune.
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R1, 4)
        .ld_fn_ptr(Reg::R2, "cb")
        .mov64_imm(Reg::R3, 0)
        .mov64_imm(Reg::R4, 0)
        .call_helper(helpers::BPF_LOOP as i32)
        .mov64_imm(Reg::R0, 0)
        .exit()
        .label("cb")
        .mov64_imm(Reg::R0, 0)
        .label("spin")
        .mov64_imm(Reg::R6, 0)
        .ja("spin")
        .build()
        .unwrap();
    assert!(matches!(
        h.verify(prog),
        Err(VerifyError::InfiniteLoop { pc: 9 })
    ));
}

#[test]
fn counted_loops_still_verify_after_loop_detection() {
    // Abstract progress (the counter's constant value changes) keeps
    // bounded loops verifiable.
    let h = H::new();
    let prog = Asm::new()
        .mov64_imm(Reg::R0, 0)
        .mov64_imm(Reg::R1, 16)
        .label("l")
        .alu64_imm(BPF_ADD, Reg::R0, 1)
        .alu64_imm(BPF_SUB, Reg::R1, 1)
        .jmp64_imm(BPF_JNE, Reg::R1, 0, "l")
        .alu64_imm(BPF_AND, Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    h.verify(prog).unwrap();
}

#[test]
fn sibling_paths_are_still_pruned_not_misflagged() {
    // Two sibling branches converging on identical states must PRUNE,
    // not trip the infinite-loop detector.
    let h = H::new();
    let prog = Asm::new()
        .ldx(BPF_DW, Reg::R6, Reg::R1, 16)
        .jmp64_imm(BPF_JEQ, Reg::R6, 0, "a")
        .mov64_imm(Reg::R6, 0)
        .ja("join")
        .label("a")
        .mov64_imm(Reg::R6, 0)
        .label("join")
        .mov64_imm(Reg::R0, 0)
        .exit()
        .build()
        .unwrap();
    let v = h.verify(prog).unwrap();
    assert_eq!(v.stats.states_pruned, 1);
}
