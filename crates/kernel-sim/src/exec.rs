//! Per-execution resource accounting.
//!
//! Every run of an extension — through either framework — gets an
//! [`ExecCtx`] that records the kernel resources (object references,
//! spinlocks) the run acquired. When the run ends, [`ExecCtx::finish`]
//! reports anything still held as a leak (the baseline behaviour: the real
//! kernel just leaks), while [`ExecCtx::cleanup`] force-releases everything
//! (what the paper's proposed termination engine does via trusted
//! destructors).
//!
//! A context belongs to its one run, so its acquired list is a plain
//! `RefCell`: recording an acquisition takes no lock.

use std::cell::RefCell;

use crate::{
    audit::EventKind,
    kernel::Kernel,
    locks::{LockId, OwnerId},
    refcount::ObjId,
};

/// Outcome summary of one execution's resource accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// The execution's owner id.
    pub owner: OwnerId,
    /// References acquired but never released.
    pub leaked_refs: Vec<ObjId>,
    /// Locks held at termination.
    pub leaked_locks: Vec<LockId>,
}

impl ExecReport {
    /// Whether the execution released everything it acquired.
    pub fn clean(&self) -> bool {
        self.leaked_refs.is_empty() && self.leaked_locks.is_empty()
    }
}

/// Resource-accounting context for a single extension execution.
///
/// # Examples
///
/// ```
/// use kernel_sim::{ExecCtx, Kernel, refcount::ObjKind};
///
/// let kernel = Kernel::new();
/// let obj = kernel.refs.register(ObjKind::Socket, 1);
/// let ctx = ExecCtx::for_kernel(&kernel);
///
/// kernel.refs.get(obj).unwrap();
/// ctx.note_acquired(obj);
/// let report = ctx.finish(&kernel); // The ref was never released...
/// assert_eq!(report.leaked_refs, vec![obj]); // ...so it is a leak.
/// ```
#[derive(Debug)]
pub struct ExecCtx {
    id: OwnerId,
    acquired: RefCell<Vec<ObjId>>,
}

impl ExecCtx {
    /// Creates a context whose owner id comes from `kernel`'s private,
    /// deterministic counter ([`Kernel::next_exec_id`]): the Nth
    /// execution on any fresh kernel always gets id N, so leak audit
    /// records replay byte-identically.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        Self {
            id: kernel.next_exec_id(),
            acquired: RefCell::new(Vec::new()),
        }
    }

    /// The owner id used for lock ownership.
    pub fn owner(&self) -> OwnerId {
        self.id
    }

    /// Records that this execution acquired a reference on `obj`.
    pub fn note_acquired(&self, obj: ObjId) {
        self.acquired.borrow_mut().push(obj);
    }

    /// Records that this execution released a reference on `obj`; returns
    /// `false` if no matching acquisition was recorded.
    pub fn note_released(&self, obj: ObjId) -> bool {
        let mut acquired = self.acquired.borrow_mut();
        if let Some(pos) = acquired.iter().position(|o| *o == obj) {
            acquired.remove(pos);
            true
        } else {
            false
        }
    }

    /// Ends the execution *without* cleanup, reporting leaks to the audit
    /// log — the baseline (eBPF) behaviour when a buggy helper leaks.
    pub fn finish(&self, kernel: &Kernel) -> ExecReport {
        let now = kernel.clock.now_ns();
        let leaked_refs = self.acquired.borrow().clone();
        for obj in &leaked_refs {
            kernel.audit.record(
                now,
                EventKind::RefLeak,
                format!("execution {} leaked a reference on {:?}", self.id, obj),
            );
        }
        let leaked_locks = kernel.locks.held_by(self.id);
        for lock in &leaked_locks {
            kernel.audit.record(
                now,
                EventKind::LockLeak,
                format!("execution {} exited holding {:?}", self.id, lock),
            );
        }
        ExecReport {
            owner: self.id,
            leaked_refs,
            leaked_locks,
        }
    }

    /// Force-releases everything still held (references put, locks
    /// released) and returns what was cleaned; used by the safe-ext
    /// termination engine.
    pub fn cleanup(&self, kernel: &Kernel) -> ExecReport {
        let refs: Vec<ObjId> = self.acquired.take();
        for obj in &refs {
            // A cleanup put can only fail if the count is already zero,
            // which itself indicates a bug elsewhere; record it.
            if kernel.refs.put(*obj).is_err() {
                kernel.audit.record(
                    kernel.clock.now_ns(),
                    EventKind::RefUnderflow,
                    format!("cleanup put underflowed on {:?}", obj),
                );
            }
        }
        let locks = kernel.locks.force_release_all(self.id);
        ExecReport {
            owner: self.id,
            leaked_refs: refs,
            leaked_locks: locks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refcount::ObjKind;

    #[test]
    fn per_kernel_ids_are_deterministic() {
        // Two fresh kernels hand out the same sequence — that is what
        // keeps leak audit records replay/lane byte-identical.
        let a = Kernel::new();
        let b = Kernel::new();
        let a_ids: Vec<_> = (0..3).map(|_| ExecCtx::for_kernel(&a).owner()).collect();
        let b_ids: Vec<_> = (0..3).map(|_| ExecCtx::for_kernel(&b).owner()).collect();
        assert_eq!(a_ids, vec![1, 2, 3]);
        assert_eq!(a_ids, b_ids);
    }

    #[test]
    fn balanced_acquire_release_is_clean() {
        let kernel = Kernel::new();
        let obj = kernel.refs.register(ObjKind::Socket, 1);
        let ctx = ExecCtx::for_kernel(&kernel);
        kernel.refs.get(obj).unwrap();
        ctx.note_acquired(obj);
        kernel.refs.put(obj).unwrap();
        assert!(ctx.note_released(obj));
        let report = ctx.finish(&kernel);
        assert!(report.clean());
        assert_eq!(kernel.audit.count(EventKind::RefLeak), 0);
    }

    #[test]
    fn unbalanced_release_returns_false() {
        let ctx = ExecCtx::for_kernel(&Kernel::new());
        assert!(!ctx.note_released(ObjId(9)));
    }

    #[test]
    fn finish_reports_ref_and_lock_leaks() {
        let kernel = Kernel::new();
        let obj = kernel.refs.register(ObjKind::Socket, 1);
        let lock = kernel.locks.create("l");
        let ctx = ExecCtx::for_kernel(&kernel);
        kernel.refs.get(obj).unwrap();
        ctx.note_acquired(obj);
        kernel.locks.acquire(ctx.owner(), lock).unwrap();
        let report = ctx.finish(&kernel);
        assert_eq!(report.leaked_refs, vec![obj]);
        assert_eq!(report.leaked_locks, vec![lock]);
        assert!(!report.clean());
        assert_eq!(kernel.audit.count(EventKind::RefLeak), 1);
        assert_eq!(kernel.audit.count(EventKind::LockLeak), 1);
        // Baseline semantics: the count stays elevated (a real leak).
        assert_eq!(kernel.refs.count(obj), Some(2));
    }

    #[test]
    fn cleanup_releases_everything() {
        let kernel = Kernel::new();
        let obj = kernel.refs.register(ObjKind::Socket, 1);
        let lock = kernel.locks.create("l");
        let ctx = ExecCtx::for_kernel(&kernel);
        kernel.refs.get(obj).unwrap();
        ctx.note_acquired(obj);
        kernel.locks.acquire(ctx.owner(), lock).unwrap();
        let report = ctx.cleanup(&kernel);
        assert_eq!(report.leaked_refs, vec![obj]);
        assert_eq!(report.leaked_locks, vec![lock]);
        assert_eq!(kernel.refs.count(obj), Some(1));
        assert!(kernel.locks.held_by(ctx.owner()).is_empty());
        // Nothing left: a second cleanup is a no-op.
        assert!(ctx.cleanup(&kernel).clean());
    }

    #[test]
    fn multiset_semantics_for_double_acquire() {
        let kernel = Kernel::new();
        let obj = kernel.refs.register(ObjKind::Socket, 1);
        let ctx = ExecCtx::for_kernel(&kernel);
        kernel.refs.get(obj).unwrap();
        kernel.refs.get(obj).unwrap();
        ctx.note_acquired(obj);
        ctx.note_acquired(obj);
        assert!(ctx.note_released(obj));
        kernel.refs.put(obj).unwrap();
        let report = ctx.finish(&kernel);
        assert_eq!(report.leaked_refs, vec![obj]);
    }
}
