//! Program container and program types.
//!
//! A [`Program`] is bytecode plus metadata. Its [`ProgType`] determines the
//! context-structure layout — which fields an extension may read or write
//! and which fields carry packet pointers — mirroring how the kernel's
//! verifier specializes context-access rules per program type.

use crate::insn::Insn;

/// Program attachment type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProgType {
    /// Classic socket filter: inspects an skb, returns a trim length.
    SocketFilter,
    /// XDP: earliest packet hook, returns an XDP action.
    Xdp,
    /// Kprobe: function entry instrumentation, register-file context.
    Kprobe,
    /// Tracepoint: static tracing hook, raw record context.
    Tracepoint,
    /// LSM-style policy hook: gates a simulated operation, returns
    /// allow (0) or deny (1).
    Lsm,
    /// Sched-ext-style pick-next-task hook: picks one of two candidate
    /// tasks (0/1) or defers to the default policy (2).
    SchedExt,
}

impl ProgType {
    /// All supported program types.
    pub const ALL: [ProgType; 6] = [
        ProgType::SocketFilter,
        ProgType::Xdp,
        ProgType::Kprobe,
        ProgType::Tracepoint,
        ProgType::Lsm,
        ProgType::SchedExt,
    ];

    /// The context layout for this program type.
    pub fn ctx_layout(&self) -> &'static CtxLayout {
        match self {
            ProgType::SocketFilter | ProgType::Xdp => &PACKET_CTX,
            ProgType::Kprobe => &KPROBE_CTX,
            ProgType::Tracepoint => &TRACEPOINT_CTX,
            ProgType::Lsm => &LSM_CTX,
            ProgType::SchedExt => &SCHED_CTX,
        }
    }
}

/// A read-only 8-byte field of kind `kind` at `offset`.
const fn field(offset: u16, kind: CtxFieldKind, name: &'static str) -> CtxField {
    CtxField {
        offset,
        size: 8,
        kind,
        writable: false,
        name,
    }
}

/// A read-only scalar 8-byte field at `offset`.
const fn scalar(offset: u16, name: &'static str) -> CtxField {
    field(offset, CtxFieldKind::Scalar, name)
}

/// Packet-path contexts: data pointer, data_end pointer, length.
static PACKET_CTX: CtxLayout = CtxLayout {
    size: 24,
    fields: &[
        field(0, CtxFieldKind::PacketPtr, "data"),
        field(8, CtxFieldKind::PacketEnd, "data_end"),
        scalar(16, "len"),
    ],
};

/// A pt_regs-like context: eight readable scalar slots.
static KPROBE_CTX: CtxLayout = CtxLayout {
    size: 64,
    fields: &[
        scalar(0, "reg"),
        scalar(8, "reg"),
        scalar(16, "reg"),
        scalar(24, "reg"),
        scalar(32, "reg"),
        scalar(40, "reg"),
        scalar(48, "reg"),
        scalar(56, "reg"),
    ],
};

/// A raw record: four readable scalar slots.
static TRACEPOINT_CTX: CtxLayout = CtxLayout {
    size: 32,
    fields: &[
        scalar(0, "field"),
        scalar(8, "field"),
        scalar(16, "field"),
        scalar(24, "field"),
    ],
};

/// Policy-hook context: hook id, subject, attribute, cookie.
static LSM_CTX: CtxLayout = CtxLayout {
    size: 32,
    fields: &[
        scalar(0, "hook"),
        scalar(8, "subject"),
        scalar(16, "attr"),
        scalar(24, "cookie"),
    ],
};

/// Pick-next-task context: cpu, runnable count, and the two best
/// candidates as (id, vruntime) pairs.
static SCHED_CTX: CtxLayout = CtxLayout {
    size: 48,
    fields: &[
        scalar(0, "cpu"),
        scalar(8, "nr_runnable"),
        scalar(16, "cand0_id"),
        scalar(24, "cand0_vruntime"),
        scalar(32, "cand1_id"),
        scalar(40, "cand1_vruntime"),
    ],
};

impl std::fmt::Display for ProgType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProgType::SocketFilter => "socket_filter",
            ProgType::Xdp => "xdp",
            ProgType::Kprobe => "kprobe",
            ProgType::Tracepoint => "tracepoint",
            ProgType::Lsm => "lsm",
            ProgType::SchedExt => "sched_ext",
        };
        f.write_str(s)
    }
}

/// What a context field contains, for access checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxFieldKind {
    /// A plain number.
    Scalar,
    /// A pointer to the start of packet data.
    PacketPtr,
    /// A pointer one past the end of packet data.
    PacketEnd,
}

/// One field of a context structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxField {
    /// Byte offset within the context.
    pub offset: u16,
    /// Field size in bytes.
    pub size: u16,
    /// What the field contains.
    pub kind: CtxFieldKind,
    /// Whether the program may store to it.
    pub writable: bool,
    /// Field name, for diagnostics.
    pub name: &'static str,
}

/// The layout of a program type's context structure.
#[derive(Debug, Clone)]
pub struct CtxLayout {
    /// Total context size in bytes.
    pub size: u16,
    /// Field descriptors, sorted by offset.
    pub fields: &'static [CtxField],
}

impl CtxLayout {
    /// Finds the field an access of `size` bytes at `offset` falls in,
    /// requiring exact field alignment (as the kernel does for most
    /// context fields).
    pub fn field_at(&self, offset: u16, size: u16) -> Option<&CtxField> {
        self.fields
            .iter()
            .find(|f| f.offset == offset && f.size == size)
    }
}

/// An extension program for the baseline framework.
#[derive(Debug, Clone)]
pub struct Program {
    /// Display name.
    pub name: String,
    /// Attachment type.
    pub prog_type: ProgType,
    /// Instruction slots.
    pub insns: Vec<Insn>,
    /// License string (the kernel gates some helpers on GPL).
    pub license: String,
}

impl Program {
    /// Creates a program with the default (GPL) license.
    pub fn new(name: &str, prog_type: ProgType, insns: Vec<Insn>) -> Self {
        Self {
            name: name.to_string(),
            prog_type,
            insns,
            license: "GPL".to_string(),
        }
    }

    /// Number of instruction slots.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::insn::Reg;

    #[test]
    fn packet_ctx_layout_has_pointer_fields() {
        let layout = ProgType::Xdp.ctx_layout();
        assert_eq!(layout.size, 24);
        assert_eq!(layout.field_at(0, 8).unwrap().kind, CtxFieldKind::PacketPtr);
        assert_eq!(layout.field_at(8, 8).unwrap().kind, CtxFieldKind::PacketEnd);
        assert_eq!(layout.field_at(16, 8).unwrap().kind, CtxFieldKind::Scalar);
    }

    #[test]
    fn misaligned_ctx_access_finds_no_field() {
        let layout = ProgType::Xdp.ctx_layout();
        assert!(layout.field_at(4, 8).is_none());
        assert!(layout.field_at(0, 4).is_none());
        assert!(layout.field_at(24, 8).is_none());
    }

    #[test]
    fn kprobe_ctx_is_registers() {
        let layout = ProgType::Kprobe.ctx_layout();
        assert_eq!(layout.size, 64);
        assert_eq!(layout.fields.len(), 8);
        assert!(layout
            .fields
            .iter()
            .all(|f| f.kind == CtxFieldKind::Scalar && !f.writable));
    }

    #[test]
    fn program_basics() {
        let insns = Asm::new().mov64_imm(Reg::R0, 0).exit().build().unwrap();
        let prog = Program::new("test", ProgType::SocketFilter, insns);
        assert_eq!(prog.len(), 2);
        assert!(!prog.is_empty());
        assert_eq!(prog.license, "GPL");
        assert_eq!(prog.prog_type.to_string(), "socket_filter");
    }
}
