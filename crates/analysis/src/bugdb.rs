//! The bug database: documented bug replicas.
//!
//! Table 1 counts 40 security bugs (18 helper, 22 verifier) found in
//! 2021-2022. The dataset itself is in [`crate::datasets::TABLE1`]; this
//! module indexes the *mechanism replicas* — the 10 representative bugs
//! implemented as injectable faults across the workspace, each mapped to
//! its Table 1 class, its component, its toggle, and the reference the
//! paper cites. The fuzzer's shrunk witnesses live in the reproducer
//! store, `BENCH_fuzz_corpus.txt` (`fuzz::corpus`).

/// Table 1 bug classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugClass {
    /// Arbitrary read/write.
    ArbitraryReadWrite,
    /// Deadlock/Hang.
    DeadlockHang,
    /// Integer overflow/underflow.
    IntegerOverflow,
    /// Kernel pointer leak.
    KernelPointerLeak,
    /// Memory leak.
    MemoryLeak,
    /// Null-pointer dereference.
    NullPointerDeref,
    /// Out-of-bound access.
    OutOfBounds,
    /// Reference count leak.
    RefcountLeak,
    /// Use-after-free.
    UseAfterFree,
    /// Everything else.
    Misc,
}

impl BugClass {
    /// The Table 1 row label.
    pub fn label(&self) -> &'static str {
        match self {
            BugClass::ArbitraryReadWrite => "Arbitrary read/write",
            BugClass::DeadlockHang => "Deadlock/Hang",
            BugClass::IntegerOverflow => "Integer overflow/underflow",
            BugClass::KernelPointerLeak => "Kernel pointer leak",
            BugClass::MemoryLeak => "Memory leak",
            BugClass::NullPointerDeref => "Null-pointer dereference",
            BugClass::OutOfBounds => "Out-of-bound access",
            BugClass::RefcountLeak => "Reference count leak",
            BugClass::UseAfterFree => "Use-after-free",
            BugClass::Misc => "Misc",
        }
    }
}

/// Which component hosts the bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// A helper function.
    Helper,
    /// The verifier.
    Verifier,
    /// The JIT compiler (downstream of the verifier, §2.1).
    Jit,
}

/// One replicated bug.
#[derive(Debug, Clone, Copy)]
pub struct BugEntry {
    /// CVE id or the paper's citation tag.
    pub id: &'static str,
    /// Table 1 class.
    pub class: BugClass,
    /// Component.
    pub component: Component,
    /// What goes wrong.
    pub description: &'static str,
    /// The fault toggle that re-opens the hole in this reproduction.
    pub toggle: &'static str,
    /// Which safety property the exploit violates.
    pub violates: &'static str,
}

/// The replica corpus.
pub const CORPUS: [BugEntry; 10] = [
    BugEntry {
        id: "CVE-2022-2785",
        class: BugClass::NullPointerDeref,
        component: Component::Helper,
        description: "bpf_sys_bpf dereferences a pointer field inside a union \
                      attribute without validation; a verified program smuggles \
                      NULL (or an arbitrary address) through it (§2.2)",
        toggle: "ebpf::FaultConfig::sys_bpf_union_null_deref",
        violates: "memory safety / arbitrary kernel read",
    },
    BugEntry {
        id: "paper [35] (June 2022)",
        class: BugClass::RefcountLeak,
        component: Component::Helper,
        description: "bpf_sk_lookup_* leaks an internal request-sock reference; \
                      even reference-balanced programs leak one count per lookup",
        toggle: "ebpf::FaultConfig::sk_lookup_refcount_leak",
        violates: "resource management",
    },
    BugEntry {
        id: "paper [34] (March 2021)",
        class: BugClass::RefcountLeak,
        component: Component::Helper,
        description: "bpf_get_task_stack takes a task-stack reference and never \
                      drops it",
        toggle: "ebpf::FaultConfig::task_stack_refcount_leak",
        violates: "resource management",
    },
    BugEntry {
        id: "paper [36] (July 2022)",
        class: BugClass::IntegerOverflow,
        component: Component::Helper,
        description: "ARRAY-map element offset computed with 32-bit arithmetic; \
                      large indices wrap or escape the value region",
        toggle: "ebpf::FaultConfig::array_map_overflow",
        violates: "memory safety (out-of-bounds)",
    },
    BugEntry {
        id: "paper [42] (January 2021)",
        class: BugClass::NullPointerDeref,
        component: Component::Helper,
        description: "bpf_task_storage_get dereferences the owner task pointer \
                      without a NULL check",
        toggle: "ebpf::FaultConfig::task_storage_null_deref",
        violates: "memory safety",
    },
    BugEntry {
        id: "CVE-2022-23222",
        class: BugClass::ArbitraryReadWrite,
        component: Component::Verifier,
        description: "pointer arithmetic permitted on *_or_null pointers before \
                      the NULL check; NULL+K passes the non-zero check and becomes \
                      a 'valid' pointer",
        toggle: "verifier::VerifierFaults::ptr_arith_on_or_null",
        violates: "memory safety / privilege escalation",
    },
    BugEntry {
        id: "CVE-2021-31440",
        class: BugClass::OutOfBounds,
        component: Component::Verifier,
        description: "32-bit conditional jumps incorrectly narrow 64-bit bounds; \
                      values with attacker-controlled high bits are believed small",
        toggle: "verifier::VerifierFaults::jmp32_narrows_64bit_bounds",
        violates: "memory safety (out-of-bounds)",
    },
    BugEntry {
        id: "paper [15] (July 2022)",
        class: BugClass::OutOfBounds,
        component: Component::Verifier,
        description: "insufficient bounds propagation: ADD/SUB bounds computed with \
                      wrapping arithmetic and no overflow fallback",
        toggle: "verifier::VerifierFaults::bounds_overflow_gap",
        violates: "memory safety (out-of-bounds)",
    },
    BugEntry {
        id: "paper [13][14] (Dec 2021)",
        class: BugClass::KernelPointerLeak,
        component: Component::Verifier,
        description: "atomic cmpxchg/fetch on a stack slot holding a spilled \
                      pointer returns the kernel address as a plain scalar",
        toggle: "verifier::VerifierFaults::atomic_pointer_leak",
        violates: "kernel address-space layout secrecy",
    },
    BugEntry {
        id: "CVE-2021-29154",
        class: BugClass::ArbitraryReadWrite,
        component: Component::Jit,
        description: "JIT branch-displacement miscalculation: verified programs \
                      execute control flow the verifier never saw",
        toggle: "ebpf::jit::JitConfig::branch_offset_bug",
        violates: "control-flow integrity",
    },
];

/// Counts corpus entries by `(class, component)` — the measured companion
/// to Table 1.
pub fn corpus_counts() -> Vec<(BugClass, u32, u32, u32)> {
    let classes = [
        BugClass::ArbitraryReadWrite,
        BugClass::DeadlockHang,
        BugClass::IntegerOverflow,
        BugClass::KernelPointerLeak,
        BugClass::MemoryLeak,
        BugClass::NullPointerDeref,
        BugClass::OutOfBounds,
        BugClass::RefcountLeak,
        BugClass::UseAfterFree,
        BugClass::Misc,
    ];
    classes
        .into_iter()
        .map(|class| {
            let helper = CORPUS
                .iter()
                .filter(|b| b.class == class && b.component == Component::Helper)
                .count() as u32;
            let verifier = CORPUS
                .iter()
                .filter(|b| b.class == class && b.component == Component::Verifier)
                .count() as u32;
            let jit = CORPUS
                .iter()
                .filter(|b| b.class == class && b.component == Component::Jit)
                .count() as u32;
            (class, helper, verifier, jit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_ten_replicas() {
        assert_eq!(CORPUS.len(), 10);
        let helpers = CORPUS
            .iter()
            .filter(|b| b.component == Component::Helper)
            .count();
        let verifiers = CORPUS
            .iter()
            .filter(|b| b.component == Component::Verifier)
            .count();
        let jits = CORPUS
            .iter()
            .filter(|b| b.component == Component::Jit)
            .count();
        assert_eq!(helpers, 5);
        assert_eq!(verifiers, 4);
        assert_eq!(jits, 1);
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = CORPUS.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CORPUS.len());
    }

    #[test]
    fn counts_sum_to_corpus_size() {
        let total: u32 = corpus_counts().iter().map(|(_, h, v, j)| h + v + j).sum();
        assert_eq!(total, CORPUS.len() as u32);
    }

    #[test]
    fn every_class_in_corpus_appears_in_table1() {
        for bug in CORPUS {
            assert!(
                crate::datasets::TABLE1
                    .iter()
                    .any(|row| row.class == bug.class.label()),
                "{} has no Table 1 row",
                bug.id
            );
        }
    }
}
