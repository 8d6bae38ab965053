//! Property tests: soundness of the verifier's abstract domains.
//!
//! The master invariant: if a concrete value is contained in an abstract
//! value, then the concrete result of any operation is contained in the
//! abstract result of the same operation. A violation here is exactly the
//! kind of bug that produced the Table-1 verifier CVEs.

use proptest::prelude::*;

use ebpf::insn::*;
use verifier::scalar::{alu32, alu64, branch_known, refine_branch, Scalar};
use verifier::tnum::Tnum;
use verifier::types::RegType;

/// Projects `pick` onto a member of `[lo, hi]` without overflowing when the
/// interval spans all of `u64` (where `hi - lo + 1` would wrap to 0).
fn member_of(lo: u64, hi: u64, pick: u64) -> u64 {
    let span = hi.wrapping_sub(lo);
    if span == u64::MAX {
        pick
    } else {
        lo + pick % (span + 1)
    }
}

/// Generates an arbitrary tnum together with one concrete member.
fn tnum_with_member() -> impl Strategy<Value = (Tnum, u64)> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(value, mask, pick)| {
        let t = Tnum::new(value, mask);
        // A member: known bits from value, unknown bits arbitrary.
        let member = t.value | (pick & t.mask);
        (t, member)
    })
}

/// Generates an arbitrary scalar together with one concrete member.
fn scalar_with_member() -> impl Strategy<Value = (Scalar, u64)> {
    prop_oneof![
        // Constants.
        any::<u64>().prop_map(|v| (Scalar::constant(v), v)),
        // Ranges.
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, pick)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            (Scalar::from_urange(lo, hi), member_of(lo, hi, pick))
        }),
        // Fully unknown.
        any::<u64>().prop_map(|v| (Scalar::UNKNOWN, v)),
    ]
}

/// Generates a register type of any kind, scalars and pointers alike.
fn reg_type() -> impl Strategy<Value = RegType> {
    (
        0u8..11,
        scalar_with_member(),
        any::<i64>(),
        any::<i64>(),
        any::<bool>(),
        any::<u32>(),
    )
        .prop_map(|(kind, (s, _), a, b, or_null, id)| {
            let (lo, hi) = (a.min(b), a.max(b));
            match kind {
                0 => RegType::NotInit,
                1 => RegType::Scalar(s),
                2 => RegType::PtrToCtx { off: a },
                3 => RegType::PtrToStack {
                    frame: id as usize % 8,
                    off: a,
                },
                4 => RegType::ConstMapPtr { fd: id },
                5 => RegType::PtrToMapValue {
                    fd: id,
                    off_lo: lo,
                    off_hi: hi,
                    or_null,
                    id,
                },
                6 => RegType::PtrToPacket {
                    off_lo: lo,
                    off_hi: hi,
                    id,
                },
                7 => RegType::PtrToPacketEnd,
                8 => RegType::PtrToMem {
                    size: b as u64,
                    or_null,
                    id,
                },
                9 => RegType::PtrToSocket {
                    or_null,
                    ref_id: id,
                },
                _ => RegType::FuncPtr { pc: id as usize },
            }
        })
}

fn concrete_alu64(op: u8, dst: u64, src: u64) -> u64 {
    match op {
        BPF_ADD => dst.wrapping_add(src),
        BPF_SUB => dst.wrapping_sub(src),
        BPF_MUL => dst.wrapping_mul(src),
        BPF_DIV => dst.checked_div(src).unwrap_or(0),
        BPF_OR => dst | src,
        BPF_AND => dst & src,
        BPF_LSH => dst.wrapping_shl((src & 63) as u32),
        BPF_RSH => dst.wrapping_shr((src & 63) as u32),
        BPF_MOD => {
            if src == 0 {
                dst
            } else {
                dst % src
            }
        }
        BPF_XOR => dst ^ src,
        BPF_MOV => src,
        BPF_ARSH => ((dst as i64) >> (src & 63)) as u64,
        _ => unreachable!(),
    }
}

fn op_strategy() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![
        BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_OR, BPF_AND, BPF_LSH, BPF_RSH, BPF_MOD, BPF_XOR,
        BPF_MOV, BPF_ARSH,
    ])
}

fn cmp_op_strategy() -> impl Strategy<Value = u8> {
    prop::sample::select(vec![
        BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE, BPF_JLT, BPF_JLE, BPF_JSGT, BPF_JSGE, BPF_JSLT,
        BPF_JSLE, BPF_JSET,
    ])
}

fn concrete_taken(op: u8, dst: u64, src: u64) -> bool {
    match op {
        BPF_JEQ => dst == src,
        BPF_JNE => dst != src,
        BPF_JGT => dst > src,
        BPF_JGE => dst >= src,
        BPF_JLT => dst < src,
        BPF_JLE => dst <= src,
        BPF_JSGT => (dst as i64) > (src as i64),
        BPF_JSGE => (dst as i64) >= (src as i64),
        BPF_JSLT => (dst as i64) < (src as i64),
        BPF_JSLE => (dst as i64) <= (src as i64),
        BPF_JSET => dst & src != 0,
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- Tnum soundness -------------------------------------------------

    #[test]
    fn tnum_invariant_holds((t, _m) in tnum_with_member()) {
        prop_assert_eq!(t.value & t.mask, 0);
    }

    #[test]
    fn tnum_member_is_contained((t, m) in tnum_with_member()) {
        prop_assert!(t.contains(m));
    }

    #[test]
    fn tnum_add_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.add(b).contains(x.wrapping_add(y)));
    }

    #[test]
    fn tnum_sub_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.sub(b).contains(x.wrapping_sub(y)));
    }

    #[test]
    fn tnum_and_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.and(b).contains(x & y));
    }

    #[test]
    fn tnum_or_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.or(b).contains(x | y));
    }

    #[test]
    fn tnum_xor_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.xor(b).contains(x ^ y));
    }

    #[test]
    fn tnum_mul_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        prop_assert!(a.mul(b).contains(x.wrapping_mul(y)));
    }

    #[test]
    fn tnum_shift_sound((a, x) in tnum_with_member(), shift in 0u32..64) {
        prop_assert!(a.lshift(shift).contains(x.wrapping_shl(shift)));
        prop_assert!(a.rshift(shift).contains(x.wrapping_shr(shift)));
        prop_assert!(a.arshift(shift).contains(((x as i64) >> shift) as u64));
    }

    #[test]
    fn tnum_cast_sound((a, x) in tnum_with_member(), size in prop::sample::select(vec![1u8, 2, 4, 8])) {
        let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
        prop_assert!(a.cast(size).contains(x & mask));
    }

    #[test]
    fn tnum_range_sound(a in any::<u64>(), b in any::<u64>(), pick in any::<u64>()) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Tnum::range(lo, hi).contains(member_of(lo, hi, pick)));
    }

    #[test]
    fn tnum_union_sound((a, x) in tnum_with_member(), (b, y) in tnum_with_member()) {
        let u = a.union(b);
        prop_assert!(u.contains(x));
        prop_assert!(u.contains(y));
    }

    #[test]
    fn tnum_subset_is_sound((a, x) in tnum_with_member(), (b, _y) in tnum_with_member()) {
        if a.is_subset_of(b) {
            prop_assert!(b.contains(x));
        }
    }

    // ---- Scalar transfer-function soundness ------------------------------

    #[test]
    fn scalar_member_is_contained((s, m) in scalar_with_member()) {
        prop_assert!(s.contains(m));
    }

    #[test]
    fn alu64_transfer_sound(op in op_strategy(),
                            (d, x) in scalar_with_member(),
                            (s, y) in scalar_with_member()) {
        let abstract_result = alu64(op, d, s);
        let concrete = concrete_alu64(op, x, y);
        prop_assert!(
            abstract_result.contains(concrete),
            "op {op:#x}: {concrete:#x} not in {abstract_result:?} (inputs {x:#x}, {y:#x})"
        );
    }

    #[test]
    fn alu32_transfer_sound(op in op_strategy(),
                            (d, x) in scalar_with_member(),
                            (s, y) in scalar_with_member()) {
        let abstract_result = alu32(op, d, s);
        let concrete = concrete_alu64(op, (x as u32) as u64, (y as u32) as u64) as u32 as u64;
        prop_assert!(
            abstract_result.contains(concrete),
            "op {op:#x}: {concrete:#x} not in {abstract_result:?}"
        );
    }

    #[test]
    fn normalize_preserves_members((s, m) in scalar_with_member()) {
        let mut n = s;
        n.normalize();
        prop_assert!(n.contains(m));
    }

    #[test]
    fn cast32_sound((s, m) in scalar_with_member()) {
        prop_assert!(s.cast32().contains(m as u32 as u64));
    }

    // ---- Branch logic soundness -------------------------------------------

    #[test]
    fn branch_known_agrees_with_concrete(op in cmp_op_strategy(),
                                         (d, x) in scalar_with_member(),
                                         (s, y) in scalar_with_member()) {
        if let Some(decided) = branch_known(op, &d, &s) {
            prop_assert_eq!(
                decided,
                concrete_taken(op, x, y),
                "op {:#x} decided {} but concrete ({:#x}, {:#x}) disagrees", op, decided, x, y
            );
        }
    }

    #[test]
    fn refine_branch_sound(op in cmp_op_strategy(),
                           (d, x) in scalar_with_member(),
                           (s, y) in scalar_with_member()) {
        let taken = concrete_taken(op, x, y);
        match refine_branch(op, d, s, taken) {
            None => prop_assert!(false, "live branch declared dead: op {op:#x} ({x:#x}, {y:#x}) taken={taken}"),
            Some((nd, ns)) => {
                prop_assert!(nd.contains(x), "dst {x:#x} refined away on op {op:#x} taken={taken}");
                prop_assert!(ns.contains(y), "src {y:#x} refined away on op {op:#x} taken={taken}");
            }
        }
    }

    #[test]
    fn scalar_subset_is_sound((a, x) in scalar_with_member(), (b, _y) in scalar_with_member()) {
        if a.is_subset_of(&b) {
            prop_assert!(b.contains(x));
        }
    }

    // ---- Subsumption reflexivity ------------------------------------------

    // State pruning skips a call frame that two states share, which is
    // exact only because every frame subsumes itself.
    #[test]
    fn subsumption_is_reflexive(x in reg_type(), (s, _m) in scalar_with_member()) {
        prop_assert!(x.subsumes(&x), "{x:?} does not subsume itself");
        prop_assert!(s.is_subset_of(&s), "{s:?} is not a subset of itself");
    }
}
