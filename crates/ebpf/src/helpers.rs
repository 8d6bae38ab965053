//! Simulated kernel helper functions.
//!
//! Helpers are the "escape hatches" at the centre of the paper's argument:
//! ordinary, *unverified* kernel functions that verified bytecode calls
//! into. This module provides a registry of ~40 helpers modelled on their
//! Linux namesakes, each carrying metadata used across the reproduction —
//! the kernel version that introduced it (Figure 4), its approximate
//! transitive call-graph fan-out (Figure 3), its §3.2 classification
//! (retire / simplify / wrap), and its verifier-facing signature.
//!
//! The documented helper bugs from Table 1 are implemented as *replicas*
//! behind [`FaultConfig`] toggles: `FaultConfig::shipped()` reproduces the
//! kernel as it historically shipped (bugs present); `patched()` applies
//! the fixes. The §2.2 safety exploit (`bpf_sys_bpf` dereferencing a NULL
//! pointer smuggled inside a union) works exactly as described when the
//! shipped configuration is used.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use kernel_sim::{
    audit::EventKind,
    exec::ExecCtx,
    locks::LockId,
    mem::{Addr, Fault},
    objects::{Proto, SkBuff, SockAddr},
    refcount::ObjId,
    Kernel,
};

use crate::{
    maps::{MapError, MapRegistry},
    program::ProgType,
    version::KernelVersion,
};

// ---- Tagged non-memory pointers -------------------------------------------------

/// Tag mask for typed kernel pointers handed to programs.
pub const TAG_MASK: u64 = 0xffff_f000_0000_0000;
/// Tag for map pointers (what `ld_map_fd` loads after load-time fixup).
pub const MAP_PTR_TAG: u64 = 0xffff_a000_0000_0000;
/// Tag for socket pointers returned by `bpf_sk_lookup_*`.
pub const SOCK_PTR_TAG: u64 = 0xffff_b000_0000_0000;
/// Tag for task pointers returned by `bpf_get_current_task`.
pub const TASK_PTR_TAG: u64 = 0xffff_d000_0000_0000;
/// Tag for bpf2bpf function pointers (`BPF_PSEUDO_FUNC` loads).
pub const FUNC_PTR_TAG: u64 = 0xffff_e000_0000_0000;

/// Builds a tagged pointer from a tag and a 32-bit payload.
pub fn tagged(tag: u64, payload: u64) -> u64 {
    tag | (payload & 0xffff_ffff)
}

/// Returns the payload if `v` carries `tag`, else `None`.
pub fn untag(tag: u64, v: u64) -> Option<u64> {
    (v & TAG_MASK == tag).then_some(v & 0xffff_ffff)
}

// ---- Fault toggles ---------------------------------------------------------------

/// Which documented helper bugs are present (Table 1 replicas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// CVE-2022-2785 replica: `bpf_sys_bpf` dereferences a pointer field
    /// inside a union attribute without a NULL check (§2.2).
    pub sys_bpf_union_null_deref: bool,
    /// Request-sock refcount leak in `bpf_sk_lookup_*` helpers
    /// (Table 1, fixed June 2022).
    pub sk_lookup_refcount_leak: bool,
    /// Missing task-stack refcount handling in `bpf_get_task_stack`
    /// (Table 1, fixed March 2021).
    pub task_stack_refcount_leak: bool,
    /// 32-bit offset overflow when accessing ARRAY map elements
    /// (Table 1, fixed July 2022). The buggy code path is compiled only
    /// with the `bug-replicas` feature; without it this toggle is inert.
    pub array_map_overflow: bool,
    /// Missing NULL-owner check in `bpf_task_storage_get`
    /// (Table 1, fixed January 2021).
    pub task_storage_null_deref: bool,
}

impl FaultConfig {
    /// The kernel as it historically shipped: all documented bugs present.
    pub const fn shipped() -> Self {
        Self {
            sys_bpf_union_null_deref: true,
            sk_lookup_refcount_leak: true,
            task_stack_refcount_leak: true,
            array_map_overflow: true,
            task_storage_null_deref: true,
        }
    }

    /// All documented bugs fixed.
    pub const fn patched() -> Self {
        Self {
            sys_bpf_union_null_deref: false,
            sk_lookup_refcount_leak: false,
            task_stack_refcount_leak: false,
            array_map_overflow: false,
            task_storage_null_deref: false,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::patched()
    }
}

// ---- Verifier-facing signatures ---------------------------------------------------

/// Argument type of a helper, as the verifier models it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgType {
    /// Unused argument slot.
    None,
    /// Any scalar value.
    Scalar,
    /// Anything — the verifier performs **no deep inspection** (the
    /// property §2.2 exploits).
    Any,
    /// The program context pointer.
    CtxPtr,
    /// A map pointer loaded via `ld_map_fd`.
    ConstMapPtr,
    /// A readable pointer to `map.key_size` bytes.
    MapKeyPtr,
    /// A readable pointer to `map.value_size` bytes.
    MapValuePtr,
    /// A readable/writable memory region; paired with a following
    /// [`ArgType::MemSize`] argument.
    PtrToMem,
    /// The byte size of the preceding [`ArgType::PtrToMem`] argument.
    MemSize,
    /// A referenced socket pointer (from an acquiring helper).
    SockPtr,
    /// A pointer to a map value containing a `bpf_spin_lock`.
    SpinLockPtr,
    /// A bpf2bpf function pointer (`BPF_PSEUDO_FUNC`).
    FuncPtr,
}

/// Return type of a helper, as the verifier models it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetType {
    /// A scalar.
    Integer,
    /// Nothing meaningful.
    Void,
    /// A map-value pointer or NULL — must be null-checked before use.
    MapValueOrNull,
    /// A referenced socket pointer or NULL — must be released.
    SockOrNull,
}

/// §3.2 classification of a helper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperCategory {
    /// Exists only to compensate for eBPF's lack of expressiveness; can be
    /// retired outright in safe Rust (`bpf_loop`, `bpf_strtol`, ...).
    Expressiveness,
    /// Interfaces with kernel objects; can be greatly simplified with safe
    /// Rust (RAII, checked integer arithmetic) around a thin unsafe core.
    KernelInterface,
    /// Must remain, but gains a sanitizing safe wrapper (`bpf_sys_bpf`).
    Wrapper,
}

/// Static description of one helper.
#[derive(Debug, Clone)]
pub struct HelperSpec {
    /// The Linux helper id.
    pub id: u32,
    /// The Linux helper name.
    pub name: &'static str,
    /// First kernel release (from our version series) shipping it.
    pub introduced_in: KernelVersion,
    /// Verifier-facing argument types.
    pub args: [ArgType; 5],
    /// Verifier-facing return type.
    pub ret: RetType,
    /// Whether the return value carries a reference that must be released.
    pub acquires: bool,
    /// Index (0-based) of an argument that releases a reference, if any.
    pub releases_arg: Option<u8>,
    /// Approximate transitive callee count in the simulated kernel
    /// call graph (the measured counterpart of Figure 3).
    pub callgraph_fanout: u32,
    /// §3.2 classification.
    pub category: HelperCategory,
}

// ---- Runtime ----------------------------------------------------------------------

/// Errors from helper execution that crash or corrupt the kernel.
///
/// Recoverable conditions (bad flags, missing keys) are returned to the
/// program as negative errno values in R0, exactly as in the kernel;
/// `HelperError` is reserved for genuine safety violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HelperError {
    /// A memory fault inside helper code (kernel oops).
    Fault(Fault),
    /// A map operation faulted.
    Map(MapError),
    /// A deadlock was detected.
    Deadlock(LockId),
    /// Unknown helper id.
    UnknownHelper(u32),
    /// Helper exists but is handled inline by the interpreter.
    InlinedByVm(u32),
}

impl std::fmt::Display for HelperError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HelperError::Fault(fault) => write!(f, "fault in helper: {fault}"),
            HelperError::Map(e) => write!(f, "map error in helper: {e}"),
            HelperError::Deadlock(id) => write!(f, "deadlock in helper on {id:?}"),
            HelperError::UnknownHelper(id) => write!(f, "unknown helper id {id}"),
            HelperError::InlinedByVm(id) => write!(f, "helper {id} must be inlined by the VM"),
        }
    }
}

impl std::error::Error for HelperError {}

impl From<Fault> for HelperError {
    fn from(f: Fault) -> Self {
        HelperError::Fault(f)
    }
}

impl From<MapError> for HelperError {
    fn from(e: MapError) -> Self {
        match e {
            MapError::Fault(f) => HelperError::Fault(f),
            other => HelperError::Map(other),
        }
    }
}

/// Negative errno as a u64 register value.
pub fn neg_errno(errno: i64) -> u64 {
    (-errno) as u64
}

/// `-EINVAL` as a register value.
pub const EINVAL: i64 = 22;
/// `-ENOENT` as a register value.
pub const ENOENT: i64 = 2;
/// `-E2BIG` as a register value.
pub const E2BIG: i64 = 7;
/// `-EAGAIN` as a register value (transient failure; retry may succeed).
pub const EAGAIN: i64 = 11;

/// Mutable per-run state owned by the interpreter, visible to helpers.
#[derive(Debug, Default)]
pub struct RunState {
    /// xorshift64 PRNG state for `bpf_get_prandom_u32`.
    pub rng: u64,
    /// Captured `bpf_trace_printk` output.
    pub printk: Vec<String>,
    /// Captured `bpf_perf_event_output` records.
    pub perf_events: Vec<Vec<u8>>,
    /// Number of `bpf_redirect`/`bpf_clone_redirect` actions.
    pub redirects: u32,
    /// Per-(map fd, pid) task-storage value cells.
    pub task_storage: BTreeMap<(u32, u32), Addr>,
}

impl RunState {
    /// Creates run state with a deterministic PRNG seed.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: seed.max(1),
            ..Self::default()
        }
    }

    /// Advances the xorshift64 PRNG.
    pub fn next_random(&mut self) -> u64 {
        let mut x = self.rng.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// Everything a helper sees when invoked.
pub struct HelperCtx<'a> {
    /// The kernel.
    pub kernel: &'a Kernel,
    /// The map registry.
    pub maps: &'a MapRegistry,
    /// The calling execution's resource accounting.
    pub exec: &'a ExecCtx,
    /// Which bugs are present.
    pub faults: &'a FaultConfig,
    /// The calling program's type.
    pub prog_type: ProgType,
    /// The packet being processed, for skb helpers.
    pub skb: Option<SkBuff>,
    /// Interpreter-owned mutable run state.
    pub run: &'a mut RunState,
}

/// A helper implementation.
pub type HelperImpl = fn(&mut HelperCtx<'_>, [u64; 5]) -> Result<u64, HelperError>;

/// A registered helper: spec + implementation.
pub struct Helper {
    /// Static description.
    pub spec: HelperSpec,
    /// Runtime implementation.
    pub imp: HelperImpl,
}

impl std::fmt::Debug for Helper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helper").field("spec", &self.spec).finish()
    }
}

/// The helper registry (the kernel's helper table).
#[derive(Debug, Default)]
pub struct HelperRegistry {
    by_id: HashMap<u32, Helper>,
}

// Helper ids, matching Linux.
/// `bpf_map_lookup_elem`.
pub const BPF_MAP_LOOKUP_ELEM: u32 = 1;
/// `bpf_map_update_elem`.
pub const BPF_MAP_UPDATE_ELEM: u32 = 2;
/// `bpf_map_delete_elem`.
pub const BPF_MAP_DELETE_ELEM: u32 = 3;
/// `bpf_ktime_get_ns`.
pub const BPF_KTIME_GET_NS: u32 = 5;
/// `bpf_trace_printk`.
pub const BPF_TRACE_PRINTK: u32 = 6;
/// `bpf_get_prandom_u32`.
pub const BPF_GET_PRANDOM_U32: u32 = 7;
/// `bpf_get_smp_processor_id`.
pub const BPF_GET_SMP_PROCESSOR_ID: u32 = 8;
/// `bpf_skb_store_bytes`.
pub const BPF_SKB_STORE_BYTES: u32 = 9;
/// `bpf_l3_csum_replace`.
pub const BPF_L3_CSUM_REPLACE: u32 = 10;
/// `bpf_l4_csum_replace`.
pub const BPF_L4_CSUM_REPLACE: u32 = 11;
/// `bpf_tail_call` (inlined by the VM).
pub const BPF_TAIL_CALL: u32 = 12;
/// `bpf_clone_redirect`.
pub const BPF_CLONE_REDIRECT: u32 = 13;
/// `bpf_get_current_pid_tgid`.
pub const BPF_GET_CURRENT_PID_TGID: u32 = 14;
/// `bpf_get_current_uid_gid`.
pub const BPF_GET_CURRENT_UID_GID: u32 = 15;
/// `bpf_get_current_comm`.
pub const BPF_GET_CURRENT_COMM: u32 = 16;
/// `bpf_redirect`.
pub const BPF_REDIRECT: u32 = 23;
/// `bpf_perf_event_output`.
pub const BPF_PERF_EVENT_OUTPUT: u32 = 25;
/// `bpf_skb_load_bytes`.
pub const BPF_SKB_LOAD_BYTES: u32 = 26;
/// `bpf_get_stackid`.
pub const BPF_GET_STACKID: u32 = 27;
/// `bpf_csum_diff`.
pub const BPF_CSUM_DIFF: u32 = 28;
/// `bpf_get_current_task`.
pub const BPF_GET_CURRENT_TASK: u32 = 35;
/// `bpf_sk_lookup_tcp`.
pub const BPF_SK_LOOKUP_TCP: u32 = 84;
/// `bpf_sk_lookup_udp`.
pub const BPF_SK_LOOKUP_UDP: u32 = 85;
/// `bpf_sk_release`.
pub const BPF_SK_RELEASE: u32 = 86;
/// `bpf_spin_lock`.
pub const BPF_SPIN_LOCK: u32 = 93;
/// `bpf_spin_unlock`.
pub const BPF_SPIN_UNLOCK: u32 = 94;
/// `bpf_strtol`.
pub const BPF_STRTOL: u32 = 105;
/// `bpf_strtoul`.
pub const BPF_STRTOUL: u32 = 106;
/// `bpf_probe_read_kernel`.
pub const BPF_PROBE_READ_KERNEL: u32 = 113;
/// `bpf_ringbuf_output`.
pub const BPF_RINGBUF_OUTPUT: u32 = 130;
/// `bpf_ringbuf_reserve`.
pub const BPF_RINGBUF_RESERVE: u32 = 131;
/// `bpf_ringbuf_submit`.
pub const BPF_RINGBUF_SUBMIT: u32 = 132;
/// `bpf_ringbuf_discard`.
pub const BPF_RINGBUF_DISCARD: u32 = 133;
/// `bpf_get_task_stack`.
pub const BPF_GET_TASK_STACK: u32 = 141;
/// `bpf_task_storage_get`.
pub const BPF_TASK_STORAGE_GET: u32 = 156;
/// `bpf_task_storage_delete`.
pub const BPF_TASK_STORAGE_DELETE: u32 = 157;
/// `bpf_sys_bpf`.
pub const BPF_SYS_BPF: u32 = 166;
/// `bpf_loop` (inlined by the VM).
pub const BPF_LOOP: u32 = 181;
/// `bpf_strncmp`.
pub const BPF_STRNCMP: u32 = 182;
/// `bpf_xdp_load_bytes`.
pub const BPF_XDP_LOAD_BYTES: u32 = 189;
/// `bpf_xdp_store_bytes`.
pub const BPF_XDP_STORE_BYTES: u32 = 190;
/// `bpf_kptr_xchg`.
pub const BPF_KPTR_XCHG: u32 = 194;
/// Conntrack state lookup (stand-in for the `bpf_*_ct_lookup` kfunc
/// family, given a helper id so it dispatches through the same table).
pub const BPF_CT_LOOKUP: u32 = 197;
/// Conntrack observe/update (stand-in for `bpf_ct_insert_entry` +
/// `bpf_ct_change_state`, folded into one deterministic transition).
pub const BPF_CT_OBSERVE: u32 = 198;
/// `bpf_ktime_get_tai_ns`.
pub const BPF_KTIME_GET_TAI_NS: u32 = 208;
/// `bpf_cgrp_storage_get`.
pub const BPF_CGRP_STORAGE_GET: u32 = 210;
/// Hook-layer histogram record (sim-local kfunc stand-in, like the
/// conntrack pair at 197/198): `hist_record(slot, value)` folds `value`
/// into the per-CPU log2 histogram bank `slot` and returns the bucket
/// index — a pure function of `value`, so programs may fold it into
/// deterministic return values.
pub const BPF_HIST_RECORD: u32 = 212;
/// Hook-layer histogram read-back: `hist_read(slot, bucket)` returns the
/// current CPU's count in `bucket` of bank `slot`. Shard-local (each
/// shard kernel is one CPU) — canonical logs must never embed it.
pub const BPF_HIST_READ: u32 = 213;

/// `bpf_sys_bpf` command: create a map.
pub const SYS_BPF_MAP_CREATE: u64 = 0;
/// `bpf_sys_bpf` command: probe-read kernel memory described by the union.
pub const SYS_BPF_PROG_RUN: u64 = 10;

impl HelperRegistry {
    /// Builds the full standard registry.
    pub fn standard() -> Self {
        let mut reg = Self::default();
        for helper in standard_helpers() {
            reg.register(helper);
        }
        reg
    }

    /// Registers (or replaces) a helper.
    pub fn register(&mut self, helper: Helper) {
        self.by_id.insert(helper.spec.id, helper);
    }

    /// Looks up a helper by id.
    pub fn get(&self, id: u32) -> Option<&Helper> {
        self.by_id.get(&id)
    }

    /// All specs, sorted by id.
    pub fn specs(&self) -> Vec<&HelperSpec> {
        let mut specs: Vec<&HelperSpec> = self.by_id.values().map(|h| &h.spec).collect();
        specs.sort_by_key(|s| s.id);
        specs
    }

    /// Number of registered helpers.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Invokes helper `id` with `args`.
    pub fn call(
        &self,
        id: u32,
        ctx: &mut HelperCtx<'_>,
        args: [u64; 5],
    ) -> Result<u64, HelperError> {
        match self.by_id.get(&id) {
            Some(h) => (h.imp)(ctx, args),
            None => Err(HelperError::UnknownHelper(id)),
        }
    }
}

fn spec(
    id: u32,
    name: &'static str,
    introduced_in: KernelVersion,
    args: [ArgType; 5],
    ret: RetType,
    fanout: u32,
    category: HelperCategory,
) -> HelperSpec {
    HelperSpec {
        id,
        name,
        introduced_in,
        args,
        ret,
        acquires: false,
        releases_arg: None,
        callgraph_fanout: fanout,
        category,
    }
}

use ArgType as A;
use HelperCategory as C;
use KernelVersion as V;
use RetType as R;

/// Builds the standard helper set.
pub fn standard_helpers() -> Vec<Helper> {
    let mut helpers = vec![
        Helper {
            spec: spec(
                BPF_MAP_LOOKUP_ELEM,
                "bpf_map_lookup_elem",
                V::V3_18,
                [A::ConstMapPtr, A::MapKeyPtr, A::None, A::None, A::None],
                R::MapValueOrNull,
                35,
                C::KernelInterface,
            ),
            imp: h_map_lookup_elem,
        },
        Helper {
            spec: spec(
                BPF_MAP_UPDATE_ELEM,
                "bpf_map_update_elem",
                V::V3_18,
                [
                    A::ConstMapPtr,
                    A::MapKeyPtr,
                    A::MapValuePtr,
                    A::Scalar,
                    A::None,
                ],
                R::Integer,
                123,
                C::KernelInterface,
            ),
            imp: h_map_update_elem,
        },
        Helper {
            spec: spec(
                BPF_MAP_DELETE_ELEM,
                "bpf_map_delete_elem",
                V::V3_18,
                [A::ConstMapPtr, A::MapKeyPtr, A::None, A::None, A::None],
                R::Integer,
                87,
                C::KernelInterface,
            ),
            imp: h_map_delete_elem,
        },
        Helper {
            spec: spec(
                BPF_KTIME_GET_NS,
                "bpf_ktime_get_ns",
                V::V3_18,
                [A::None; 5],
                R::Integer,
                6,
                C::KernelInterface,
            ),
            imp: h_ktime_get_ns,
        },
        Helper {
            spec: spec(
                BPF_TRACE_PRINTK,
                "bpf_trace_printk",
                V::V3_18,
                [A::PtrToMem, A::MemSize, A::Any, A::Any, A::Any],
                R::Integer,
                214,
                C::KernelInterface,
            ),
            imp: h_trace_printk,
        },
        Helper {
            spec: spec(
                BPF_GET_PRANDOM_U32,
                "bpf_get_prandom_u32",
                V::V3_18,
                [A::None; 5],
                R::Integer,
                11,
                C::Expressiveness,
            ),
            imp: h_get_prandom_u32,
        },
        Helper {
            spec: spec(
                BPF_GET_SMP_PROCESSOR_ID,
                "bpf_get_smp_processor_id",
                V::V3_18,
                [A::None; 5],
                R::Integer,
                2,
                C::KernelInterface,
            ),
            imp: h_get_smp_processor_id,
        },
        Helper {
            spec: spec(
                BPF_SKB_STORE_BYTES,
                "bpf_skb_store_bytes",
                V::V4_3,
                [A::CtxPtr, A::Scalar, A::PtrToMem, A::MemSize, A::Scalar],
                R::Integer,
                64,
                C::KernelInterface,
            ),
            imp: h_skb_store_bytes,
        },
        Helper {
            spec: spec(
                BPF_L3_CSUM_REPLACE,
                "bpf_l3_csum_replace",
                V::V4_3,
                [A::CtxPtr, A::Scalar, A::Scalar, A::Scalar, A::Scalar],
                R::Integer,
                41,
                C::KernelInterface,
            ),
            imp: h_csum_replace,
        },
        Helper {
            spec: spec(
                BPF_L4_CSUM_REPLACE,
                "bpf_l4_csum_replace",
                V::V4_3,
                [A::CtxPtr, A::Scalar, A::Scalar, A::Scalar, A::Scalar],
                R::Integer,
                47,
                C::KernelInterface,
            ),
            imp: h_csum_replace,
        },
        Helper {
            spec: spec(
                BPF_TAIL_CALL,
                "bpf_tail_call",
                V::V4_3,
                [A::CtxPtr, A::ConstMapPtr, A::Scalar, A::None, A::None],
                R::Void,
                28,
                C::Expressiveness,
            ),
            imp: h_inlined,
        },
        Helper {
            spec: spec(
                BPF_CLONE_REDIRECT,
                "bpf_clone_redirect",
                V::V4_3,
                [A::CtxPtr, A::Scalar, A::Scalar, A::None, A::None],
                R::Integer,
                312,
                C::KernelInterface,
            ),
            imp: h_redirect,
        },
        Helper {
            spec: spec(
                BPF_GET_CURRENT_PID_TGID,
                "bpf_get_current_pid_tgid",
                V::V4_3,
                [A::None; 5],
                R::Integer,
                0, // The paper's zero-callee example.
                C::KernelInterface,
            ),
            imp: h_get_current_pid_tgid,
        },
        Helper {
            spec: spec(
                BPF_GET_CURRENT_UID_GID,
                "bpf_get_current_uid_gid",
                V::V4_3,
                [A::None; 5],
                R::Integer,
                3,
                C::KernelInterface,
            ),
            imp: h_get_current_uid_gid,
        },
        Helper {
            spec: spec(
                BPF_GET_CURRENT_COMM,
                "bpf_get_current_comm",
                V::V4_3,
                [A::PtrToMem, A::MemSize, A::None, A::None, A::None],
                R::Integer,
                9,
                C::KernelInterface,
            ),
            imp: h_get_current_comm,
        },
        Helper {
            spec: spec(
                BPF_REDIRECT,
                "bpf_redirect",
                V::V4_9,
                [A::Scalar, A::Scalar, A::None, A::None, A::None],
                R::Integer,
                95,
                C::KernelInterface,
            ),
            imp: h_redirect,
        },
        Helper {
            spec: spec(
                BPF_PERF_EVENT_OUTPUT,
                "bpf_perf_event_output",
                V::V4_9,
                [
                    A::CtxPtr,
                    A::ConstMapPtr,
                    A::Scalar,
                    A::PtrToMem,
                    A::MemSize,
                ],
                R::Integer,
                259,
                C::KernelInterface,
            ),
            imp: h_perf_event_output,
        },
        Helper {
            spec: spec(
                BPF_SKB_LOAD_BYTES,
                "bpf_skb_load_bytes",
                V::V4_9,
                [A::CtxPtr, A::Scalar, A::PtrToMem, A::MemSize, A::None],
                R::Integer,
                17,
                C::KernelInterface,
            ),
            imp: h_skb_load_bytes,
        },
        Helper {
            spec: spec(
                BPF_GET_STACKID,
                "bpf_get_stackid",
                V::V4_9,
                [A::CtxPtr, A::ConstMapPtr, A::Scalar, A::None, A::None],
                R::Integer,
                152,
                C::KernelInterface,
            ),
            imp: h_get_stackid,
        },
        Helper {
            spec: spec(
                BPF_CSUM_DIFF,
                "bpf_csum_diff",
                V::V4_9,
                [A::PtrToMem, A::MemSize, A::PtrToMem, A::MemSize, A::Scalar],
                R::Integer,
                21,
                C::Expressiveness,
            ),
            imp: h_csum_diff,
        },
        Helper {
            spec: spec(
                BPF_GET_CURRENT_TASK,
                "bpf_get_current_task",
                V::V4_9,
                [A::None; 5],
                R::Integer,
                12,
                C::KernelInterface,
            ),
            imp: h_get_current_task,
        },
        Helper {
            spec: {
                let mut s = spec(
                    BPF_SK_LOOKUP_TCP,
                    "bpf_sk_lookup_tcp",
                    V::V4_20,
                    [A::CtxPtr, A::PtrToMem, A::MemSize, A::Scalar, A::Scalar],
                    R::SockOrNull,
                    547,
                    C::KernelInterface,
                );
                s.acquires = true;
                s
            },
            imp: h_sk_lookup_tcp,
        },
        Helper {
            spec: {
                let mut s = spec(
                    BPF_SK_LOOKUP_UDP,
                    "bpf_sk_lookup_udp",
                    V::V4_20,
                    [A::CtxPtr, A::PtrToMem, A::MemSize, A::Scalar, A::Scalar],
                    R::SockOrNull,
                    531,
                    C::KernelInterface,
                );
                s.acquires = true;
                s
            },
            imp: h_sk_lookup_udp,
        },
        Helper {
            spec: {
                let mut s = spec(
                    BPF_SK_RELEASE,
                    "bpf_sk_release",
                    V::V4_20,
                    [A::SockPtr, A::None, A::None, A::None, A::None],
                    R::Integer,
                    58,
                    C::KernelInterface,
                );
                s.releases_arg = Some(0);
                s
            },
            imp: h_sk_release,
        },
        Helper {
            spec: spec(
                BPF_SPIN_LOCK,
                "bpf_spin_lock",
                V::V5_4,
                [A::SpinLockPtr, A::None, A::None, A::None, A::None],
                R::Void,
                13,
                C::KernelInterface,
            ),
            imp: h_spin_lock,
        },
        Helper {
            spec: spec(
                BPF_SPIN_UNLOCK,
                "bpf_spin_unlock",
                V::V5_4,
                [A::SpinLockPtr, A::None, A::None, A::None, A::None],
                R::Void,
                13,
                C::KernelInterface,
            ),
            imp: h_spin_unlock,
        },
        Helper {
            spec: spec(
                BPF_STRTOL,
                "bpf_strtol",
                V::V5_4,
                [A::PtrToMem, A::MemSize, A::Scalar, A::PtrToMem, A::None],
                R::Integer,
                19,
                C::Expressiveness,
            ),
            imp: h_strtol,
        },
        Helper {
            spec: spec(
                BPF_STRTOUL,
                "bpf_strtoul",
                V::V5_4,
                [A::PtrToMem, A::MemSize, A::Scalar, A::PtrToMem, A::None],
                R::Integer,
                19,
                C::Expressiveness,
            ),
            imp: h_strtoul,
        },
        Helper {
            spec: spec(
                BPF_PROBE_READ_KERNEL,
                "bpf_probe_read_kernel",
                V::V5_4,
                [A::PtrToMem, A::MemSize, A::Any, A::None, A::None],
                R::Integer,
                33,
                C::Wrapper,
            ),
            imp: h_probe_read_kernel,
        },
        Helper {
            spec: spec(
                BPF_RINGBUF_OUTPUT,
                "bpf_ringbuf_output",
                V::V5_10,
                [A::ConstMapPtr, A::PtrToMem, A::MemSize, A::Scalar, A::None],
                R::Integer,
                104,
                C::KernelInterface,
            ),
            imp: h_ringbuf_output,
        },
        Helper {
            spec: spec(
                BPF_RINGBUF_RESERVE,
                "bpf_ringbuf_reserve",
                V::V5_10,
                [A::ConstMapPtr, A::Scalar, A::Scalar, A::None, A::None],
                R::MapValueOrNull,
                71,
                C::KernelInterface,
            ),
            imp: h_ringbuf_reserve,
        },
        Helper {
            spec: spec(
                BPF_RINGBUF_SUBMIT,
                "bpf_ringbuf_submit",
                V::V5_10,
                [A::Any, A::Scalar, A::None, A::None, A::None],
                R::Void,
                44,
                C::KernelInterface,
            ),
            imp: h_ringbuf_submit,
        },
        Helper {
            spec: spec(
                BPF_RINGBUF_DISCARD,
                "bpf_ringbuf_discard",
                V::V5_10,
                [A::Any, A::Scalar, A::None, A::None, A::None],
                R::Void,
                40,
                C::KernelInterface,
            ),
            imp: h_ringbuf_discard,
        },
        Helper {
            spec: spec(
                BPF_GET_TASK_STACK,
                "bpf_get_task_stack",
                V::V5_10,
                [A::Any, A::PtrToMem, A::MemSize, A::Scalar, A::None],
                R::Integer,
                328,
                C::KernelInterface,
            ),
            imp: h_get_task_stack,
        },
        Helper {
            spec: spec(
                BPF_TASK_STORAGE_GET,
                "bpf_task_storage_get",
                V::V5_15,
                [A::ConstMapPtr, A::Any, A::Any, A::Scalar, A::None],
                R::MapValueOrNull,
                183,
                C::KernelInterface,
            ),
            imp: h_task_storage_get,
        },
        Helper {
            spec: spec(
                BPF_TASK_STORAGE_DELETE,
                "bpf_task_storage_delete",
                V::V5_15,
                [A::ConstMapPtr, A::Any, A::None, A::None, A::None],
                R::Integer,
                127,
                C::KernelInterface,
            ),
            imp: h_task_storage_delete,
        },
        Helper {
            spec: spec(
                BPF_SYS_BPF,
                "bpf_sys_bpf",
                V::V5_15,
                [A::Scalar, A::PtrToMem, A::MemSize, A::None, A::None],
                R::Integer,
                4845, // The paper's maximum call-graph fan-out.
                C::Wrapper,
            ),
            imp: h_sys_bpf,
        },
        Helper {
            spec: spec(
                BPF_LOOP,
                "bpf_loop",
                V::V5_15,
                [A::Scalar, A::FuncPtr, A::Any, A::Scalar, A::None],
                R::Integer,
                38,
                C::Expressiveness,
            ),
            imp: h_inlined,
        },
        Helper {
            spec: spec(
                BPF_STRNCMP,
                "bpf_strncmp",
                V::V5_15,
                [A::PtrToMem, A::MemSize, A::PtrToMem, A::None, A::None],
                R::Integer,
                5,
                C::Expressiveness,
            ),
            imp: h_strncmp,
        },
        Helper {
            spec: spec(
                BPF_KPTR_XCHG,
                "bpf_kptr_xchg",
                V::V6_1,
                [A::Any, A::Any, A::None, A::None, A::None],
                R::Integer,
                31,
                C::KernelInterface,
            ),
            imp: h_kptr_xchg,
        },
        Helper {
            spec: spec(
                BPF_KTIME_GET_TAI_NS,
                "bpf_ktime_get_tai_ns",
                V::V6_1,
                [A::None; 5],
                R::Integer,
                6,
                C::KernelInterface,
            ),
            imp: h_ktime_get_ns,
        },
        Helper {
            spec: spec(
                BPF_CGRP_STORAGE_GET,
                "bpf_cgrp_storage_get",
                V::V6_1,
                [A::ConstMapPtr, A::Any, A::Any, A::Scalar, A::None],
                R::MapValueOrNull,
                168,
                C::KernelInterface,
            ),
            imp: h_task_storage_get,
        },
        Helper {
            spec: spec(
                BPF_XDP_LOAD_BYTES,
                "bpf_xdp_load_bytes",
                V::V6_1,
                [A::CtxPtr, A::Scalar, A::PtrToMem, A::MemSize, A::None],
                R::Integer,
                18,
                C::KernelInterface,
            ),
            imp: h_xdp_load_bytes,
        },
        Helper {
            spec: spec(
                BPF_XDP_STORE_BYTES,
                "bpf_xdp_store_bytes",
                V::V6_1,
                [A::CtxPtr, A::Scalar, A::PtrToMem, A::MemSize, A::None],
                R::Integer,
                22,
                C::KernelInterface,
            ),
            imp: h_xdp_store_bytes,
        },
        Helper {
            spec: spec(
                BPF_CT_LOOKUP,
                "bpf_ct_lookup",
                V::V6_1,
                [A::PtrToMem, A::MemSize, A::None, A::None, A::None],
                R::Integer,
                96,
                C::KernelInterface,
            ),
            imp: h_ct_lookup,
        },
        Helper {
            spec: spec(
                BPF_CT_OBSERVE,
                "bpf_ct_observe",
                V::V6_1,
                [A::PtrToMem, A::MemSize, A::Scalar, A::Scalar, A::None],
                R::Integer,
                114,
                C::KernelInterface,
            ),
            imp: h_ct_observe,
        },
        Helper {
            spec: spec(
                BPF_HIST_RECORD,
                "bpf_hist_record",
                V::V6_1,
                [A::Scalar, A::Scalar, A::None, A::None, A::None],
                R::Integer,
                18,
                C::KernelInterface,
            ),
            imp: h_hist_record,
        },
        Helper {
            spec: spec(
                BPF_HIST_READ,
                "bpf_hist_read",
                V::V6_1,
                [A::Scalar, A::Scalar, A::None, A::None, A::None],
                R::Integer,
                12,
                C::KernelInterface,
            ),
            imp: h_hist_read,
        },
    ];
    helpers.sort_by_key(|h| h.spec.id);
    helpers
}

// ---- Implementations ---------------------------------------------------------------

fn map_from_arg(ctx: &HelperCtx<'_>, arg: u64) -> Result<Rc<crate::maps::Map>, u64> {
    let fd = match untag(MAP_PTR_TAG, arg) {
        Some(fd) => fd as u32,
        // An untagged value reaching a map argument means the program
        // passed garbage; the (patched) helper rejects it.
        None => return Err(neg_errno(EINVAL)),
    };
    ctx.maps.get(fd).ok_or(neg_errno(EINVAL))
}

fn h_inlined(_ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    // bpf_tail_call and bpf_loop are handled inside the VM.
    Err(HelperError::InlinedByVm(0))
}

fn h_map_lookup_elem(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    // Lookup is the hottest helper; small keys read through a stack
    // buffer instead of a fresh allocation per call.
    let mut kbuf = [0u8; 64];
    let key_vec;
    let ks = map.def.key_size as usize;
    let key: &[u8] = if ks <= kbuf.len() {
        ctx.kernel.mem.read_into(args[1], &mut kbuf[..ks])?;
        &kbuf[..ks]
    } else {
        key_vec = ctx.kernel.mem.read_bytes(args[1], ks as u64)?;
        &key_vec
    };
    let cpu = ctx.kernel.cpus.current_cpu();
    // The buggy address path exists only in bug-reproduction builds; in a
    // normal build the `array_map_overflow` toggle is inert and every
    // lookup goes through the bounds-checked `Map::lookup` below.
    #[cfg(any(test, feature = "bug-replicas"))]
    if ctx.faults.array_map_overflow && map.def.kind == crate::maps::MapKind::Array {
        // BUG replica [36]: 32-bit offset arithmetic without a range
        // re-check; huge indices wrap or escape the map region.
        let index = u32::from_le_bytes(key[..4].try_into().expect("array key is 4 bytes"));
        if index >= map.def.max_entries {
            match map.elem_addr_overflow_bug(index) {
                Some(addr) => {
                    // Touch the element header the way the kernel would;
                    // out-of-region addresses fault here (kernel oops).
                    ctx.kernel.mem.read_u8(addr)?;
                    return Ok(addr);
                }
                None => return Ok(0),
            }
        }
    }
    match map.lookup(key, cpu) {
        Ok(Some(addr)) => Ok(addr),
        Ok(None) => Ok(0),
        Err(MapError::Fault(f)) => Err(f.into()),
        Err(_) => Ok(0),
    }
}

fn h_map_update_elem(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    let key = ctx
        .kernel
        .mem
        .read_bytes(args[1], map.def.key_size as u64)?;
    let value = ctx
        .kernel
        .mem
        .read_bytes(args[2], map.def.value_size as u64)?;
    let cpu = ctx.kernel.cpus.current_cpu();
    match map.update(&ctx.kernel.mem, &key, &value, cpu) {
        Ok(()) => Ok(0),
        Err(MapError::Fault(f)) => Err(f.into()),
        Err(MapError::NoSpace) => Ok(neg_errno(E2BIG)),
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn h_map_delete_elem(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    let key = ctx
        .kernel
        .mem
        .read_bytes(args[1], map.def.key_size as u64)?;
    match map.delete(&ctx.kernel.mem, &key) {
        Ok(()) => Ok(0),
        Err(MapError::Fault(f)) => Err(f.into()),
        Err(MapError::NotFound) => Ok(neg_errno(ENOENT)),
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn h_ktime_get_ns(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    Ok(ctx.kernel.clock.now_ns())
}

fn h_trace_printk(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let len = args[1].min(128);
    if len == 0 {
        return Ok(neg_errno(EINVAL));
    }
    let bytes = ctx.kernel.mem.read_bytes(args[0], len)?;
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    let fmt = String::from_utf8_lossy(&bytes[..end]).into_owned();
    // A minimal printk: substitute up to three %d/%u/%x with args 2..5.
    let mut out = String::new();
    let mut arg_i = 2;
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '%' {
            match chars.next() {
                Some('d') | Some('u') if arg_i < 5 => {
                    out.push_str(&args[arg_i].to_string());
                    arg_i += 1;
                }
                Some('x') if arg_i < 5 => {
                    out.push_str(&format!("{:x}", args[arg_i]));
                    arg_i += 1;
                }
                Some('%') => out.push('%'),
                Some(other) => {
                    out.push('%');
                    out.push(other);
                }
                None => out.push('%'),
            }
        } else {
            out.push(c);
        }
    }
    let written = out.len() as u64;
    ctx.run.printk.push(out);
    Ok(written)
}

fn h_get_prandom_u32(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    Ok(ctx.run.next_random() & 0xffff_ffff)
}

fn h_get_smp_processor_id(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    Ok(ctx.kernel.cpus.current_cpu() as u64)
}

fn h_get_current_pid_tgid(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    match ctx.kernel.objects.current() {
        Some(task) => Ok(((task.tgid as u64) << 32) | task.pid as u64),
        None => Ok(neg_errno(EINVAL)),
    }
}

fn h_get_current_uid_gid(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    // The simulation runs everything as root.
    let _ = ctx;
    Ok(0)
}

fn h_get_current_comm(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let size = args[1];
    if size == 0 {
        return Ok(neg_errno(EINVAL));
    }
    let task = match ctx.kernel.objects.current() {
        Some(t) => t,
        None => return Ok(neg_errno(EINVAL)),
    };
    let mut buf = vec![0u8; size as usize];
    let comm = task.comm.as_bytes();
    let n = comm.len().min(buf.len() - 1);
    buf[..n].copy_from_slice(&comm[..n]);
    ctx.kernel.mem.write_from(args[0], &buf)?;
    Ok(0)
}

fn h_redirect(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    ctx.run.redirects += 1;
    Ok(0)
}

fn h_perf_event_output(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let data = ctx.kernel.mem.read_bytes(args[3], args[4].min(4096))?;
    ctx.run.perf_events.push(data);
    Ok(0)
}

fn h_skb_load_bytes(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let skb = match ctx.skb {
        Some(skb) => skb,
        None => return Ok(neg_errno(EINVAL)),
    };
    let (offset, len) = (args[1], args[3]);
    if offset + len > skb.len as u64 {
        return Ok(neg_errno(EINVAL));
    }
    let data = ctx.kernel.mem.read_bytes(skb.data + offset, len)?;
    ctx.kernel.mem.write_from(args[2], &data)?;
    Ok(0)
}

fn h_skb_store_bytes(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let skb = match ctx.skb {
        Some(skb) => skb,
        None => return Ok(neg_errno(EINVAL)),
    };
    let (offset, len) = (args[1], args[3]);
    if offset + len > skb.len as u64 {
        return Ok(neg_errno(EINVAL));
    }
    let data = ctx.kernel.mem.read_bytes(args[2], len)?;
    ctx.kernel.mem.write_from(skb.data + offset, &data)?;
    Ok(0)
}

/// `bpf_xdp_load_bytes(ctx, offset, to, len)`: copies packet bytes into
/// program memory. Same semantics as `bpf_skb_load_bytes` here — the
/// simulated RX path hands XDP programs an skb-backed frame — but with
/// the XDP signature (no flags argument) and overflow-safe bounds.
fn h_xdp_load_bytes(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let skb = match ctx.skb {
        Some(skb) => skb,
        None => return Ok(neg_errno(EINVAL)),
    };
    let (offset, len) = (args[1], args[3]);
    match offset.checked_add(len) {
        Some(end) if end <= skb.len as u64 => {}
        _ => return Ok(neg_errno(EINVAL)),
    }
    let data = ctx.kernel.mem.read_bytes(skb.data + offset, len)?;
    ctx.kernel.mem.write_from(args[2], &data)?;
    Ok(0)
}

/// `bpf_xdp_store_bytes(ctx, offset, from, len)`: rewrites packet bytes.
fn h_xdp_store_bytes(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let skb = match ctx.skb {
        Some(skb) => skb,
        None => return Ok(neg_errno(EINVAL)),
    };
    let (offset, len) = (args[1], args[3]);
    match offset.checked_add(len) {
        Some(end) if end <= skb.len as u64 => {}
        _ => return Ok(neg_errno(EINVAL)),
    }
    let data = ctx.kernel.mem.read_bytes(args[2], len)?;
    ctx.kernel.mem.write_from(skb.data + offset, &data)?;
    Ok(0)
}

/// Reads the canonical 13-byte flow tuple (`FlowKey` wire form) that net
/// helpers take from program memory; `None` on a malformed length.
fn read_flow_tuple(
    ctx: &mut HelperCtx<'_>,
    ptr: u64,
    len: u64,
) -> Result<Option<kernel_sim::net::packet::FlowKey>, HelperError> {
    use kernel_sim::net::packet::{FlowKey, FLOW_KEY_WIRE_LEN};
    if len != FLOW_KEY_WIRE_LEN as u64 {
        return Ok(None);
    }
    let bytes = ctx.kernel.mem.read_bytes(ptr, len)?;
    Ok(FlowKey::from_wire(&bytes))
}

/// `bpf_ct_lookup(tuple, tuple_len)`: returns the flow's conntrack state
/// code, `-ENOENT` for untracked flows, `-EINVAL` for a bad tuple.
fn h_ct_lookup(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let key = match read_flow_tuple(ctx, args[0], args[1])? {
        Some(key) => key,
        None => return Ok(neg_errno(EINVAL)),
    };
    let state = ctx.kernel.net.conntrack.lookup(key);
    ctx.kernel.trace.instant(
        kernel_sim::trace::SpanKind::CtLookup,
        state.is_some() as u64,
    );
    match state {
        Some(state) => Ok(state.code() as u64),
        None => Ok(neg_errno(ENOENT)),
    }
}

/// `bpf_ct_observe(tuple, tuple_len, tcp_flags, pkt_len)`: advances the
/// flow's state machine and returns `prev_code << 8 | new_code` (prev 0
/// for a brand-new flow), `-EINVAL` for a bad tuple.
fn h_ct_observe(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let key = match read_flow_tuple(ctx, args[0], args[1])? {
        Some(key) => key,
        None => return Ok(neg_errno(EINVAL)),
    };
    let flags = (args[2] & 0xff) as u8;
    let obs = ctx.kernel.net.conntrack.observe(key, flags, args[3]);
    // Arg 1 = the flow already existed, 0 = freshly tracked.
    ctx.kernel.trace.instant(
        kernel_sim::trace::SpanKind::CtLookup,
        (obs.packed() >> 8 != 0) as u64,
    );
    Ok(obs.packed())
}

/// `bpf_hist_record(slot, value)`: folds `value` into the hook layer's
/// per-CPU log2 histogram bank `slot` (masked into range) and returns
/// the bucket index.
fn h_hist_record(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let cpu = ctx.kernel.cpus.current_cpu();
    let slot = (args[0] as usize) % kernel_sim::hooks::HIST_SLOTS;
    Ok(ctx.kernel.hooks.record(cpu, slot, args[1]))
}

/// `bpf_hist_read(slot, bucket)`: the current CPU's count in `bucket` of
/// histogram bank `slot`; `-EINVAL` for an out-of-range bucket.
fn h_hist_read(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    if args[1] as usize >= kernel_sim::metrics::HIST_BUCKETS {
        return Ok(neg_errno(EINVAL));
    }
    let cpu = ctx.kernel.cpus.current_cpu();
    let slot = (args[0] as usize) % kernel_sim::hooks::HIST_SLOTS;
    Ok(ctx.kernel.hooks.read(cpu, slot, args[1] as usize))
}

fn h_get_stackid(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    // A synthetic stack id derived from the current task.
    match ctx.kernel.objects.current() {
        Some(task) => Ok((task.pid as u64).wrapping_mul(2654435761) & 0x3ff),
        None => Ok(neg_errno(EINVAL)),
    }
}

fn h_csum_diff(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let from = ctx.kernel.mem.read_bytes(args[0], args[1].min(512))?;
    let to = ctx.kernel.mem.read_bytes(args[2], args[3].min(512))?;
    let sum = |b: &[u8]| -> u64 {
        b.chunks(2)
            .map(|c| {
                let hi = c[0] as u64;
                let lo = *c.get(1).unwrap_or(&0) as u64;
                (hi << 8) | lo
            })
            .sum()
    };
    Ok((args[4] + sum(&to)).wrapping_sub(sum(&from)) & 0xffff_ffff)
}

fn h_csum_replace(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let skb = match ctx.skb {
        Some(skb) => skb,
        None => return Ok(neg_errno(EINVAL)),
    };
    let offset = args[1];
    if offset + 2 > skb.len as u64 {
        return Ok(neg_errno(EINVAL));
    }
    // Fold the (from, to) delta into the 16-bit checksum at offset.
    let old = ctx.kernel.mem.read_u16(skb.data + offset)? as u64;
    let new = old.wrapping_sub(args[2]).wrapping_add(args[3]) & 0xffff;
    ctx.kernel.mem.write_u16(skb.data + offset, new as u16)?;
    Ok(0)
}

fn h_get_current_task(ctx: &mut HelperCtx<'_>, _args: [u64; 5]) -> Result<u64, HelperError> {
    match ctx.kernel.objects.current() {
        Some(task) => Ok(tagged(TASK_PTR_TAG, task.pid as u64)),
        None => Ok(0),
    }
}

fn sk_lookup(ctx: &mut HelperCtx<'_>, args: [u64; 5], proto: Proto) -> Result<u64, HelperError> {
    // The tuple is {src_ip:u32, src_port:u16, dst_ip:u32, dst_port:u16}
    // packed into 12 bytes.
    if args[2] < 12 {
        return Ok(0);
    }
    let tuple = ctx.kernel.mem.read_bytes(args[1], 12)?;
    let src = SockAddr::new(
        u32::from_le_bytes(tuple[0..4].try_into().expect("sized")),
        u16::from_le_bytes(tuple[4..6].try_into().expect("sized")),
    );
    let dst = SockAddr::new(
        u32::from_le_bytes(tuple[6..10].try_into().expect("sized")),
        u16::from_le_bytes(tuple[10..12].try_into().expect("sized")),
    );
    match ctx.kernel.objects.lookup_socket(proto, src, dst) {
        Some(sock) => {
            // Take the reference the program must later release. Injected
            // saturation pressure refuses the reference; degrade to a
            // lookup miss (NULL), holding nothing.
            if ctx.kernel.refs.get(sock.obj).is_err() {
                return Ok(0);
            }
            ctx.exec.note_acquired(sock.obj);
            if ctx.faults.sk_lookup_refcount_leak {
                // BUG replica [35]: an internal request-sock reference is
                // taken on the lookup path and never handed to anyone, so
                // even a correct program leaks one count per lookup.
                let _ = ctx.kernel.refs.get(sock.obj);
            }
            Ok(tagged(SOCK_PTR_TAG, sock.obj.0))
        }
        None => Ok(0),
    }
}

fn h_sk_lookup_tcp(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    sk_lookup(ctx, args, Proto::Tcp)
}

fn h_sk_lookup_udp(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    sk_lookup(ctx, args, Proto::Udp)
}

fn h_sk_release(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let obj = match untag(SOCK_PTR_TAG, args[0]) {
        Some(id) => ObjId(id),
        None => return Ok(neg_errno(EINVAL)),
    };
    if !ctx.exec.note_released(obj) {
        return Ok(neg_errno(EINVAL));
    }
    match ctx.kernel.refs.put(obj) {
        Ok(_) => Ok(0),
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn h_spin_lock(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let addr = args[0];
    // The lock's identity is the cell's kernel address: stable across
    // runs and shared with the safe-ext framework.
    let lock = ctx
        .kernel
        .locks
        .lock_for_key(addr, &format!("bpf_spin_lock@{addr:#x}"));
    match ctx.kernel.locks.acquire(ctx.exec.owner(), lock) {
        Ok(()) => Ok(0),
        Err(kernel_sim::locks::LockError::SelfDeadlock(id)) => {
            ctx.kernel.audit.record(
                ctx.kernel.clock.now_ns(),
                EventKind::LockDeadlock,
                format!("bpf_spin_lock AA deadlock on {id:?}"),
            );
            Err(HelperError::Deadlock(id))
        }
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn h_spin_unlock(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let addr = args[0];
    let lock = ctx
        .kernel
        .locks
        .lock_for_key(addr, &format!("bpf_spin_lock@{addr:#x}"));
    match ctx.kernel.locks.release(ctx.exec.owner(), lock) {
        Ok(()) => Ok(0),
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn parse_int_prefix(bytes: &[u8], base: u32, signed: bool) -> Option<(i64, usize)> {
    let s = std::str::from_utf8(bytes).ok()?;
    let s_trim = s.trim_start();
    let skipped = s.len() - s_trim.len();
    let (neg, body) = match s_trim.strip_prefix('-') {
        Some(rest) if signed => (true, rest),
        _ => (false, s_trim),
    };
    let digits: String = body
        .chars()
        .take_while(|c| c.is_digit(base.max(2)))
        .collect();
    if digits.is_empty() {
        return None;
    }
    let magnitude = i64::from_str_radix(&digits, base.max(2)).ok()?;
    let value = if neg { -magnitude } else { magnitude };
    let consumed = skipped + usize::from(neg) + digits.len();
    Some((value, consumed))
}

fn strtox(ctx: &mut HelperCtx<'_>, args: [u64; 5], signed: bool) -> Result<u64, HelperError> {
    let len = args[1].min(64);
    if len == 0 {
        return Ok(neg_errno(EINVAL));
    }
    let bytes = ctx.kernel.mem.read_bytes(args[0], len)?;
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    let base = if args[2] == 0 { 10 } else { args[2] as u32 };
    match parse_int_prefix(&bytes[..end], base, signed) {
        Some((value, consumed)) => {
            ctx.kernel.mem.write_u64(args[3], value as u64)?;
            Ok(consumed as u64)
        }
        None => Ok(neg_errno(EINVAL)),
    }
}

fn h_strtol(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    strtox(ctx, args, true)
}

fn h_strtoul(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    strtox(ctx, args, false)
}

fn h_strncmp(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let len = args[1].min(256);
    let a = ctx.kernel.mem.read_bytes(args[0], len)?;
    let b = ctx.kernel.mem.read_bytes(args[2], len)?;
    for i in 0..len as usize {
        if a[i] != b[i] || a[i] == 0 {
            return Ok((a[i] as i64 - b[i] as i64) as u64);
        }
    }
    Ok(0)
}

fn h_probe_read_kernel(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    // The safe wrapper around unsafe reads: a faulting source address
    // returns -EFAULT instead of oopsing, as in the real helper.
    let len = args[1].min(4096);
    match ctx.kernel.mem.read_bytes(args[2], len) {
        Ok(data) => {
            ctx.kernel.mem.write_from(args[0], &data)?;
            Ok(0)
        }
        Err(_) => Ok(neg_errno(14)), // -EFAULT
    }
}

fn h_ringbuf_output(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    let data = ctx.kernel.mem.read_bytes(args[1], args[2].min(4096))?;
    match map.ringbuf_output(&data) {
        Ok(()) => Ok(0),
        Err(_) => Ok(neg_errno(EINVAL)),
    }
}

fn h_ringbuf_reserve(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    match map.ringbuf_reserve(&ctx.kernel.mem, args[1] as u32) {
        Ok(Some(addr)) => Ok(addr),
        Ok(None) => Ok(0),
        Err(MapError::Fault(f)) => Err(f.into()),
        Err(_) => Ok(0),
    }
}

fn h_ringbuf_submit(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    // Find the ring buffer owning this reservation by asking each map.
    for fd in 1..=ctx.maps.len() as u32 {
        if let Some(map) = ctx.maps.get(fd) {
            if map.def.kind == crate::maps::MapKind::RingBuf
                && map.ringbuf_submit(&ctx.kernel.mem, args[0]).is_ok()
            {
                return Ok(0);
            }
        }
    }
    Ok(neg_errno(EINVAL))
}

fn h_ringbuf_discard(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    for fd in 1..=ctx.maps.len() as u32 {
        if let Some(map) = ctx.maps.get(fd) {
            if map.def.kind == crate::maps::MapKind::RingBuf
                && map.ringbuf_discard(&ctx.kernel.mem, args[0]).is_ok()
            {
                return Ok(0);
            }
        }
    }
    Ok(neg_errno(EINVAL))
}

fn h_get_task_stack(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let task = match untag(TASK_PTR_TAG, args[0])
        .and_then(|pid| ctx.kernel.objects.task_by_pid(pid as u32))
    {
        Some(t) => t,
        None => return Ok(neg_errno(EINVAL)),
    };
    // Take a reference on the task stack for the duration of the copy;
    // injected saturation pressure degrades to -EINVAL with nothing held.
    if ctx.kernel.refs.get(task.stack_obj).is_err() {
        return Ok(neg_errno(EINVAL));
    }
    ctx.exec.note_acquired(task.stack_obj);
    // Write a synthetic stack trace into the buffer.
    let len = args[2].min(256) & !7;
    for i in 0..len / 8 {
        ctx.kernel
            .mem
            .write_u64(args[1] + i * 8, 0xffff_8000_0000_0000 | (i << 4))?;
    }
    if ctx.faults.task_stack_refcount_leak {
        // BUG replica [34]: the helper returns without dropping the stack
        // reference it took; the count stays elevated forever.
        return Ok(len);
    }
    ctx.kernel
        .refs
        .put(task.stack_obj)
        .expect("stack ref was taken above");
    ctx.exec.note_released(task.stack_obj);
    Ok(len)
}

fn h_task_storage_get(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    let task_arg = args[1];
    if !ctx.faults.task_storage_null_deref {
        // Patched behaviour [42]: check nullness of the owner pointer.
        if untag(TASK_PTR_TAG, task_arg).is_none() {
            return Ok(neg_errno(EINVAL));
        }
    }
    // BUG replica [42]: dereference the task pointer without the check.
    // An untagged (e.g. NULL or scalar) "pointer" is dereferenced as a
    // kernel address and faults.
    let pid = match untag(TASK_PTR_TAG, task_arg) {
        Some(pid) => pid as u32,
        None => {
            // Dereferencing task->pid at offset 0 of a bogus pointer.
            ctx.kernel.mem.read_u32(task_arg)?;
            return Ok(0);
        }
    };
    if ctx.kernel.objects.task_by_pid(pid).is_none() {
        return Ok(neg_errno(ENOENT));
    }
    // One value cell per (map fd, task) pair, lazily mapped in kernel
    // memory so the program receives a real value pointer.
    let fd = untag(MAP_PTR_TAG, args[0]).expect("validated by map_from_arg") as u32;
    if let Some(addr) = ctx.run.task_storage.get(&(fd, pid)) {
        return Ok(*addr);
    }
    let addr = ctx.kernel.mem.map(
        format_args!("task-storage:{fd}:{pid}"),
        map.def.value_size.max(8) as u64,
        kernel_sim::mem::Perms::rw(),
    )?;
    ctx.run.task_storage.insert((fd, pid), addr);
    Ok(addr)
}

fn h_task_storage_delete(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let _map = match map_from_arg(ctx, args[0]) {
        Ok(m) => m,
        Err(e) => return Ok(e),
    };
    let pid = match untag(TASK_PTR_TAG, args[1]) {
        Some(pid) => pid as u32,
        None => return Ok(neg_errno(EINVAL)),
    };
    let fd = untag(MAP_PTR_TAG, args[0]).expect("validated by map_from_arg") as u32;
    match ctx.run.task_storage.remove(&(fd, pid)) {
        Some(addr) => {
            ctx.kernel.mem.unmap(addr)?;
            Ok(0)
        }
        None => Ok(neg_errno(ENOENT)),
    }
}

fn h_kptr_xchg(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    // Exchange a kernel pointer stored in a map value (args[0] is the
    // value address, args[1] the new pointer); returns the old pointer.
    let old = ctx.kernel.mem.read_u64(args[0])?;
    ctx.kernel.mem.write_u64(args[0], args[1])?;
    Ok(old)
}

/// Layout of the `bpf_sys_bpf` attribute union, as the exploit sees it:
/// offset 0: command-specific scalar; offset 8: a pointer field inside the
/// union that the helper dereferences.
pub const SYS_BPF_ATTR_SIZE: u64 = 16;

fn h_sys_bpf(ctx: &mut HelperCtx<'_>, args: [u64; 5]) -> Result<u64, HelperError> {
    let (cmd, attr_ptr, attr_size) = (args[0], args[1], args[2]);
    if attr_size < SYS_BPF_ATTR_SIZE {
        return Ok(neg_errno(EINVAL));
    }
    // The verifier checked that `attr_ptr` points to `attr_size` readable
    // bytes — but it performs no *deep* inspection of what those bytes
    // contain (§2.2).
    let scalar = ctx.kernel.mem.read_u64(attr_ptr)?;
    let inner_ptr = ctx.kernel.mem.read_u64(attr_ptr + 8)?;
    match cmd {
        SYS_BPF_MAP_CREATE => {
            // scalar = packed (value_size << 32 | max_entries).
            let value_size = (scalar >> 32) as u32;
            let max_entries = scalar as u32;
            let def = crate::maps::MapDef::array("sys_bpf-map", value_size, max_entries);
            match ctx.maps.create(ctx.kernel, def) {
                Ok(fd) => Ok(fd as u64),
                Err(_) => Ok(neg_errno(EINVAL)),
            }
        }
        SYS_BPF_PROG_RUN => {
            if ctx.faults.sys_bpf_union_null_deref {
                // BUG replica (CVE-2022-2785): dereference the union's
                // pointer field with no NULL / validity check. A NULL (or
                // arbitrary) pointer placed in the union by the program
                // faults in kernel context — and a *valid-but-arbitrary*
                // kernel address becomes an arbitrary kernel read.
                let leaked = ctx.kernel.mem.read_u64(inner_ptr)?;
                Ok(leaked)
            } else {
                // Patched: the pointer field is validated first.
                if inner_ptr < kernel_sim::mem::NULL_GUARD {
                    return Ok(neg_errno(EINVAL));
                }
                match ctx.kernel.mem.read_u64(inner_ptr) {
                    Ok(v) => Ok(v),
                    Err(_) => Ok(neg_errno(14)), // -EFAULT
                }
            }
        }
        _ => Ok(neg_errno(EINVAL)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::mem::Perms;

    fn harness() -> (Kernel, MapRegistry, HelperRegistry) {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        (kernel, MapRegistry::default(), HelperRegistry::standard())
    }

    /// Calls one helper directly, outside the interpreter.
    fn call(
        kernel: &Kernel,
        maps: &MapRegistry,
        reg: &HelperRegistry,
        faults: FaultConfig,
        run: &mut RunState,
        id: u32,
        args: [u64; 5],
    ) -> Result<u64, HelperError> {
        let exec = ExecCtx::for_kernel(kernel);
        let mut ctx = HelperCtx {
            kernel,
            maps,
            exec: &exec,
            faults: &faults,
            prog_type: ProgType::Kprobe,
            skb: None,
            run,
        };
        reg.call(id, &mut ctx, args)
    }

    #[test]
    fn tag_untag_roundtrip() {
        let v = tagged(SOCK_PTR_TAG, 0x1234);
        assert_eq!(untag(SOCK_PTR_TAG, v), Some(0x1234));
        assert_eq!(untag(MAP_PTR_TAG, v), None);
        assert_eq!(untag(SOCK_PTR_TAG, 0), None);
        // Tags never collide with real kernel addresses.
        assert_eq!(untag(MAP_PTR_TAG, kernel_sim::mem::KERNEL_VA_BASE), None);
    }

    #[test]
    fn registry_is_sorted_and_unique() {
        let reg = HelperRegistry::standard();
        let specs = reg.specs();
        assert!(specs.len() >= 38);
        for pair in specs.windows(2) {
            assert!(pair[0].id < pair[1].id, "unsorted or duplicate ids");
        }
        assert!(reg.get(BPF_SYS_BPF).is_some());
        assert!(reg.get(0xdead).is_none());
        assert!(!reg.is_empty());
    }

    #[test]
    fn the_paper_extremes_have_matching_metadata() {
        let reg = HelperRegistry::standard();
        assert_eq!(
            reg.get(BPF_GET_CURRENT_PID_TGID)
                .unwrap()
                .spec
                .callgraph_fanout,
            0
        );
        assert_eq!(reg.get(BPF_SYS_BPF).unwrap().spec.callgraph_fanout, 4845);
        assert!(reg.get(BPF_SK_LOOKUP_TCP).unwrap().spec.acquires);
        assert_eq!(reg.get(BPF_SK_RELEASE).unwrap().spec.releases_arg, Some(0));
    }

    #[test]
    fn unknown_helper_is_an_error() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        assert!(matches!(
            call(
                &kernel,
                &maps,
                &reg,
                FaultConfig::patched(),
                &mut run,
                9999,
                [0; 5]
            ),
            Err(HelperError::UnknownHelper(9999))
        ));
    }

    #[test]
    fn pid_tgid_packs_current_task() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_GET_CURRENT_PID_TGID,
            [0; 5],
        )
        .unwrap();
        assert_eq!(v, (100 << 32) | 100);
    }

    #[test]
    fn prandom_is_seed_deterministic_and_32bit() {
        let (kernel, maps, reg) = harness();
        let mut a = RunState::with_seed(7);
        let mut b = RunState::with_seed(7);
        let va = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut a,
            BPF_GET_PRANDOM_U32,
            [0; 5],
        )
        .unwrap();
        let vb = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut b,
            BPF_GET_PRANDOM_U32,
            [0; 5],
        )
        .unwrap();
        assert_eq!(va, vb);
        assert!(va <= u32::MAX as u64);
        // Sequence advances.
        let va2 = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut a,
            BPF_GET_PRANDOM_U32,
            [0; 5],
        )
        .unwrap();
        assert_ne!(va, va2);
    }

    #[test]
    fn trace_printk_substitutes_and_caps() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let fmt = kernel.mem.map("fmt", 32, Perms::rw()).unwrap();
        kernel
            .mem
            .write_from(fmt, b"x=%d y=%x p=%% z=%d\0")
            .unwrap();
        let written = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_TRACE_PRINTK,
            [fmt, 20, 7, 255, 9],
        )
        .unwrap();
        assert_eq!(run.printk, vec!["x=7 y=ff p=% z=9".to_string()]);
        assert_eq!(written, run.printk[0].len() as u64);
        // Zero-length format is -EINVAL.
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_TRACE_PRINTK,
            [fmt, 0, 0, 0, 0],
        )
        .unwrap();
        assert_eq!(v as i64, -22);
    }

    #[test]
    fn strtol_and_strncmp_behave() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let buf = kernel.mem.map("s", 32, Perms::rw()).unwrap();
        let out = kernel.mem.map("o", 8, Perms::rw()).unwrap();
        kernel.mem.write_from(buf, b"  -42xyz\0").unwrap();
        let consumed = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_STRTOL,
            [buf, 9, 10, out, 0],
        )
        .unwrap();
        assert_eq!(consumed, 5);
        assert_eq!(kernel.mem.read_u64(out).unwrap() as i64, -42);

        let a = kernel.mem.map("a", 8, Perms::rw()).unwrap();
        let b = kernel.mem.map("b", 8, Perms::rw()).unwrap();
        kernel.mem.write_from(a, b"abc\0").unwrap();
        kernel.mem.write_from(b, b"abd\0").unwrap();
        let cmp = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_STRNCMP,
            [a, 4, b, 0, 0],
        )
        .unwrap();
        assert!((cmp as i64) < 0);
    }

    #[test]
    fn sys_bpf_map_create_works_when_sanely_used() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let attr = kernel.mem.map("attr", 16, Perms::rw()).unwrap();
        // scalar = value_size << 32 | max_entries.
        kernel.mem.write_u64(attr, (8u64 << 32) | 4).unwrap();
        kernel.mem.write_u64(attr + 8, 0).unwrap();
        let fd = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_SYS_BPF,
            [SYS_BPF_MAP_CREATE, attr, 16, 0, 0],
        )
        .unwrap();
        let map = maps.get(fd as u32).expect("created");
        assert_eq!(map.def.value_size, 8);
        assert_eq!(map.def.max_entries, 4);
    }

    #[test]
    fn sys_bpf_rejects_short_attr() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let attr = kernel.mem.map("attr", 16, Perms::rw()).unwrap();
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_SYS_BPF,
            [SYS_BPF_PROG_RUN, attr, 8, 0, 0],
        )
        .unwrap();
        assert_eq!(v as i64, -22);
    }

    #[test]
    fn probe_read_kernel_returns_efault_not_oops() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let dst = kernel.mem.map("dst", 16, Perms::rw()).unwrap();
        // Unmapped source: the wrapper converts the fault.
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_PROBE_READ_KERNEL,
            [dst, 8, 0xffff_0000_0000, 0, 0],
        )
        .unwrap();
        assert_eq!(v as i64, -14);
        assert!(!kernel.oopses.tainted());
    }

    #[test]
    fn get_current_comm_truncates_and_terminates() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let buf = kernel.mem.map("comm", 4, Perms::rw()).unwrap();
        call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_GET_CURRENT_COMM,
            [buf, 4, 0, 0, 0],
        )
        .unwrap();
        let bytes = kernel.mem.read_bytes(buf, 4).unwrap();
        assert_eq!(&bytes[..3], b"ngi"); // truncated "nginx"
        assert_eq!(bytes[3], 0); // always NUL-terminated
    }

    #[test]
    fn kptr_xchg_swaps() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let cell = kernel.mem.map("cell", 8, Perms::rw()).unwrap();
        kernel.mem.write_u64(cell, 111).unwrap();
        let old = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_KPTR_XCHG,
            [cell, 222, 0, 0, 0],
        )
        .unwrap();
        assert_eq!(old, 111);
        assert_eq!(kernel.mem.read_u64(cell).unwrap(), 222);
    }

    #[test]
    fn map_args_reject_untagged_pointers() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let key = kernel.mem.map("key", 4, Perms::rw()).unwrap();
        // An arbitrary scalar where a map pointer belongs: -EINVAL, not a
        // crash — the patched helper validates the tag.
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_MAP_LOOKUP_ELEM,
            [0x1234_5678, key, 0, 0, 0],
        )
        .unwrap();
        assert_eq!(v as i64, -22);
    }

    #[test]
    fn sk_lookup_returns_tagged_pointer_and_takes_ref() {
        let (kernel, maps, reg) = harness();
        let mut run = RunState::with_seed(1);
        let tuple = kernel.mem.map("tuple", 12, Perms::rw()).unwrap();
        kernel.mem.write_u32(tuple, 0x0a00_0001).unwrap();
        kernel.mem.write_u16(tuple + 4, 443).unwrap();
        kernel.mem.write_u32(tuple + 6, 0x0a00_0064).unwrap();
        kernel.mem.write_u16(tuple + 10, 51724).unwrap();
        let v = call(
            &kernel,
            &maps,
            &reg,
            FaultConfig::patched(),
            &mut run,
            BPF_SK_LOOKUP_TCP,
            [0, tuple, 12, 0, 0],
        )
        .unwrap();
        let obj = untag(SOCK_PTR_TAG, v).expect("tagged socket pointer");
        assert_eq!(kernel.refs.count(ObjId(obj)), Some(2));
    }

    #[test]
    fn fault_presets_differ() {
        assert_ne!(FaultConfig::shipped(), FaultConfig::patched());
        assert_eq!(FaultConfig::default(), FaultConfig::patched());
        assert_eq!(neg_errno(EINVAL) as i64, -22);
        assert_eq!(neg_errno(ENOENT) as i64, -2);
    }

    #[test]
    fn category_split_is_sensible() {
        let reg = HelperRegistry::standard();
        let retire = reg
            .specs()
            .iter()
            .filter(|s| s.category == HelperCategory::Expressiveness)
            .count();
        let wrap = reg
            .specs()
            .iter()
            .filter(|s| s.category == HelperCategory::Wrapper)
            .count();
        assert!(retire >= 5);
        assert!(wrap >= 2);
    }
}
