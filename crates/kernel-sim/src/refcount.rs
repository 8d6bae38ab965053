//! Reference counts on kernel objects.
//!
//! The verifier tracks references acquired from helpers like
//! `bpf_sk_lookup_tcp` so a program cannot leak them — and Table 1 of the
//! paper shows two real bugs where helpers themselves leaked counts anyway.
//! The substrate counts for real: `get`/`put` with underflow detection, and
//! leak detection is performed per-execution by [`crate::exec::ExecCtx`].

use std::cell::RefCell;
use std::collections::HashMap;

/// Identifies a refcounted kernel object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u64);

/// What kind of object a refcount belongs to; for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// A socket (`struct sock`).
    Socket,
    /// A task (`struct task_struct`).
    Task,
    /// A task stack backing allocation.
    TaskStack,
    /// Anything else.
    Other,
}

/// Errors from refcount operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefError {
    /// The object id is not registered.
    UnknownObject(ObjId),
    /// A `put` would drive the count below zero (a real UAF precursor).
    Underflow(ObjId),
    /// A `get` was refused by saturation pressure (injected by the fault
    /// plane, modelling `refcount_t` saturation): no reference was taken,
    /// retrying later may succeed.
    Saturated(ObjId),
}

impl std::fmt::Display for RefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefError::UnknownObject(id) => write!(f, "unknown object {:?}", id),
            RefError::Underflow(id) => write!(f, "refcount underflow on {:?}", id),
            RefError::Saturated(id) => write!(f, "refcount saturation on {:?}", id),
        }
    }
}

impl std::error::Error for RefError {}

#[derive(Debug)]
struct RefInfo {
    kind: ObjKind,
    count: u64,
    gets: u64,
}

/// The kernel-wide refcount table.
///
/// # Examples
///
/// ```
/// use kernel_sim::refcount::{ObjKind, RefTable};
///
/// let refs = RefTable::default();
/// let obj = refs.register(ObjKind::Socket, 1);
/// refs.get(obj).unwrap();
/// assert_eq!(refs.count(obj), Some(2));
/// refs.put(obj).unwrap();
/// assert_eq!(refs.count(obj), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct RefTable {
    state: RefCell<RefState>,
    pub(crate) inject: crate::inject::InjectSlot,
    pub(crate) trace: crate::trace::TraceSlot,
}

#[derive(Debug, Default)]
struct RefState {
    next_id: u64,
    objects: HashMap<ObjId, RefInfo>,
}

impl RefTable {
    /// Registers a new object with an initial count and returns its id.
    pub fn register(&self, kind: ObjKind, initial: u64) -> ObjId {
        let mut st = self.state.borrow_mut();
        st.next_id += 1;
        let id = ObjId(st.next_id);
        st.objects.insert(
            id,
            RefInfo {
                kind,
                count: initial,
                gets: 0,
            },
        );
        id
    }

    /// Increments the refcount of `id`.
    ///
    /// When a fault plan is armed, the increment may be refused with
    /// [`RefError::Saturated`] — callers must treat that as "no reference
    /// taken" and degrade (e.g. report a lookup miss).
    pub fn get(&self, id: ObjId) -> Result<u64, RefError> {
        let mut st = self.state.borrow_mut();
        let info = st.objects.get_mut(&id).ok_or(RefError::UnknownObject(id))?;
        if let Some(plane) = self.inject.get() {
            if plane.ref_should_saturate(id) {
                return Err(RefError::Saturated(id));
            }
        }
        info.count += 1;
        info.gets += 1;
        // Operation code only — object ids are per-kernel allocation
        // order and would break the canonical trace's shard invariance.
        if let Some(tracer) = self.trace.get() {
            tracer.instant(crate::trace::SpanKind::RefOp, 0);
        }
        Ok(info.count)
    }

    /// Decrements the refcount of `id`, detecting underflow.
    pub fn put(&self, id: ObjId) -> Result<u64, RefError> {
        let mut st = self.state.borrow_mut();
        let info = st.objects.get_mut(&id).ok_or(RefError::UnknownObject(id))?;
        if info.count == 0 {
            return Err(RefError::Underflow(id));
        }
        info.count -= 1;
        if let Some(tracer) = self.trace.get() {
            tracer.instant(crate::trace::SpanKind::RefOp, 1);
        }
        Ok(info.count)
    }

    /// Current count, or `None` for unknown objects.
    pub fn count(&self, id: ObjId) -> Option<u64> {
        self.state.borrow().objects.get(&id).map(|i| i.count)
    }

    /// Object kind, or `None` for unknown objects.
    pub fn kind(&self, id: ObjId) -> Option<ObjKind> {
        self.state.borrow().objects.get(&id).map(|i| i.kind)
    }

    /// Total `get` operations ever performed on `id`.
    pub fn total_gets(&self, id: ObjId) -> u64 {
        self.state
            .borrow()
            .objects
            .get(&id)
            .map(|i| i.gets)
            .unwrap_or(0)
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.state.borrow().objects.len()
    }

    /// Whether no objects are registered.
    pub fn is_empty(&self) -> bool {
        self.state.borrow().objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip() {
        let t = RefTable::default();
        let id = t.register(ObjKind::Socket, 1);
        assert_eq!(t.get(id).unwrap(), 2);
        assert_eq!(t.put(id).unwrap(), 1);
        assert_eq!(t.count(id), Some(1));
        assert_eq!(t.total_gets(id), 1);
        assert_eq!(t.kind(id), Some(ObjKind::Socket));
    }

    #[test]
    fn underflow_detected() {
        let t = RefTable::default();
        let id = t.register(ObjKind::Task, 0);
        assert_eq!(t.put(id), Err(RefError::Underflow(id)));
    }

    #[test]
    fn unknown_object_rejected() {
        let t = RefTable::default();
        assert!(matches!(t.get(ObjId(42)), Err(RefError::UnknownObject(_))));
        assert_eq!(t.count(ObjId(42)), None);
    }

    #[test]
    fn ids_are_unique() {
        let t = RefTable::default();
        let a = t.register(ObjKind::Other, 1);
        let b = t.register(ObjKind::Other, 1);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
    }
}
