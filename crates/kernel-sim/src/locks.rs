//! Kernel spinlocks with discipline checking.
//!
//! The eBPF verifier grew dedicated logic to check that a program holds at
//! most one `bpf_spin_lock` at a time and releases it before exit. Here the
//! *substrate* detects violations of that discipline at runtime: self
//! deadlock (re-acquiring a held lock), releasing a lock that is not held,
//! and leaking a lock past program exit.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Identifies a simulated execution (one run of one extension).
pub type OwnerId = u64;

/// The owner id reported for injected contention spikes: no real execution
/// holds the lock, it is just briefly busy (another CPU in the model).
pub const PHANTOM_OWNER: OwnerId = u64::MAX;

/// Handle to a kernel spinlock object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u64);

/// Errors from lock operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The lock id does not exist.
    UnknownLock(LockId),
    /// The owner already holds this lock: an AA deadlock on real hardware.
    SelfDeadlock(LockId),
    /// Another owner holds the lock (contention; fatal in a simulated
    /// single-runqueue model since the holder cannot run).
    Contended(LockId, OwnerId),
    /// Release of a lock the owner does not hold.
    NotHeld(LockId),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::UnknownLock(id) => write!(f, "unknown lock {:?}", id),
            LockError::SelfDeadlock(id) => write!(f, "AA deadlock on {:?}", id),
            LockError::Contended(id, owner) => {
                write!(f, "{:?} contended (held by owner {owner})", id)
            }
            LockError::NotHeld(id) => write!(f, "release of un-held {:?}", id),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug)]
struct LockInfo {
    name: String,
    holder: Option<OwnerId>,
    acquisitions: u64,
}

/// The spinlock table.
///
/// # Examples
///
/// ```
/// use kernel_sim::locks::SpinTable;
///
/// let locks = SpinTable::default();
/// let id = locks.create("map-bucket");
/// locks.acquire(1, id).unwrap();
/// assert!(locks.acquire(1, id).is_err()); // AA deadlock detected.
/// locks.release(1, id).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct SpinTable {
    state: RefCell<TableState>,
    /// How many locks have a holder. Written with every change of a
    /// holder, so it always equals the table's count; [`Self::held_by`]
    /// reads it first and returns at once when nothing is held.
    held: Cell<usize>,
    pub(crate) inject: crate::inject::InjectSlot,
    pub(crate) trace: crate::trace::TraceSlot,
}

#[derive(Debug, Default)]
struct TableState {
    next_id: u64,
    locks: HashMap<LockId, LockInfo>,
    /// Stable mapping from an external key (e.g. the address of a
    /// `bpf_spin_lock` cell inside a map value) to its lock identity.
    keyed: HashMap<u64, LockId>,
}

impl SpinTable {
    /// Creates a new named lock and returns its id.
    pub fn create(&self, name: &str) -> LockId {
        let mut st = self.state.borrow_mut();
        st.next_id += 1;
        let id = LockId(st.next_id);
        st.locks.insert(
            id,
            LockInfo {
                name: name.to_string(),
                holder: None,
                acquisitions: 0,
            },
        );
        id
    }

    /// Returns the lock identified by `key`, creating it on first use.
    ///
    /// This is how `bpf_spin_lock` cells embedded in map values get a
    /// *stable* kernel identity: every execution — and both extension
    /// frameworks — locking the same cell contends on the same lock.
    pub fn lock_for_key(&self, key: u64, name: &str) -> LockId {
        let mut st = self.state.borrow_mut();
        if let Some(id) = st.keyed.get(&key) {
            return *id;
        }
        st.next_id += 1;
        let id = LockId(st.next_id);
        st.locks.insert(
            id,
            LockInfo {
                name: name.to_string(),
                holder: None,
                acquisitions: 0,
            },
        );
        st.keyed.insert(key, id);
        id
    }

    /// Acquires `id` on behalf of `owner`.
    ///
    /// When a fault plan is armed, a free lock may report a transient
    /// contention spike ([`LockError::Contended`] with [`PHANTOM_OWNER`]):
    /// the trylock failed, nothing is held, retrying may succeed.
    pub fn acquire(&self, owner: OwnerId, id: LockId) -> Result<(), LockError> {
        let mut st = self.state.borrow_mut();
        let info = st.locks.get_mut(&id).ok_or(LockError::UnknownLock(id))?;
        match info.holder {
            Some(h) if h == owner => Err(LockError::SelfDeadlock(id)),
            Some(h) => Err(LockError::Contended(id, h)),
            None => {
                if let Some(plane) = self.inject.get() {
                    if plane.lock_should_busy(id) {
                        return Err(LockError::Contended(id, PHANTOM_OWNER));
                    }
                }
                info.holder = Some(owner);
                info.acquisitions += 1;
                self.held.set(self.held.get() + 1);
                // The trace argument is the operation code, not the lock
                // id: lock ids are per-kernel allocation order, which
                // would break the canonical trace's shard invariance.
                if let Some(tracer) = self.trace.get() {
                    tracer.instant(crate::trace::SpanKind::LockOp, 0);
                }
                Ok(())
            }
        }
    }

    /// Releases `id` on behalf of `owner`.
    pub fn release(&self, owner: OwnerId, id: LockId) -> Result<(), LockError> {
        let mut st = self.state.borrow_mut();
        let info = st.locks.get_mut(&id).ok_or(LockError::UnknownLock(id))?;
        match info.holder {
            Some(h) if h == owner => {
                info.holder = None;
                self.held.set(self.held.get() - 1);
                if let Some(tracer) = self.trace.get() {
                    tracer.instant(crate::trace::SpanKind::LockOp, 1);
                }
                Ok(())
            }
            Some(_) | None => Err(LockError::NotHeld(id)),
        }
    }

    /// Returns all locks currently held by `owner`.
    ///
    /// Does not borrow the table while no lock in it is held: a zero
    /// count means `owner` holds none.
    pub fn held_by(&self, owner: OwnerId) -> Vec<LockId> {
        if self.held.get() == 0 {
            return Vec::new();
        }
        let st = self.state.borrow();
        let mut held: Vec<LockId> = st
            .locks
            .iter()
            .filter(|(_, info)| info.holder == Some(owner))
            .map(|(id, _)| *id)
            .collect();
        held.sort();
        held
    }

    /// Forcibly releases everything held by `owner` (termination cleanup);
    /// returns what was released.
    pub fn force_release_all(&self, owner: OwnerId) -> Vec<LockId> {
        let mut st = self.state.borrow_mut();
        let mut released = Vec::new();
        for (id, info) in st.locks.iter_mut() {
            if info.holder == Some(owner) {
                info.holder = None;
                released.push(*id);
            }
        }
        self.held.set(self.held.get() - released.len());
        released.sort();
        released
    }

    /// The display name of a lock.
    pub fn name(&self, id: LockId) -> Option<String> {
        self.state.borrow().locks.get(&id).map(|i| i.name.clone())
    }

    /// Total successful acquisitions of a lock.
    pub fn acquisitions(&self, id: LockId) -> u64 {
        self.state
            .borrow()
            .locks
            .get(&id)
            .map(|i| i.acquisitions)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip() {
        let t = SpinTable::default();
        let id = t.create("l");
        t.acquire(1, id).unwrap();
        assert_eq!(t.held_by(1), vec![id]);
        t.release(1, id).unwrap();
        assert!(t.held_by(1).is_empty());
        assert_eq!(t.acquisitions(id), 1);
    }

    #[test]
    fn self_deadlock_detected() {
        let t = SpinTable::default();
        let id = t.create("l");
        t.acquire(1, id).unwrap();
        assert_eq!(t.acquire(1, id), Err(LockError::SelfDeadlock(id)));
    }

    #[test]
    fn contention_detected() {
        let t = SpinTable::default();
        let id = t.create("l");
        t.acquire(1, id).unwrap();
        assert_eq!(t.acquire(2, id), Err(LockError::Contended(id, 1)));
    }

    #[test]
    fn bad_release_detected() {
        let t = SpinTable::default();
        let id = t.create("l");
        assert_eq!(t.release(1, id), Err(LockError::NotHeld(id)));
        t.acquire(2, id).unwrap();
        assert_eq!(t.release(1, id), Err(LockError::NotHeld(id)));
    }

    #[test]
    fn unknown_lock_rejected() {
        let t = SpinTable::default();
        assert!(matches!(
            t.acquire(1, LockId(99)),
            Err(LockError::UnknownLock(_))
        ));
    }

    #[test]
    fn force_release_all_sweeps_owner() {
        let t = SpinTable::default();
        let a = t.create("a");
        let b = t.create("b");
        let c = t.create("c");
        t.acquire(1, a).unwrap();
        t.acquire(1, b).unwrap();
        t.acquire(2, c).unwrap();
        let released = t.force_release_all(1);
        assert_eq!(released.len(), 2);
        assert!(t.held_by(1).is_empty());
        assert_eq!(t.held_by(2), vec![c]);
    }
}
