//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace routes `parking_lot` to this path crate. It provides the
//! subset of the `parking_lot` API the workspace actually uses: a `Mutex`
//! whose non-poisoning `lock()` / `try_lock()` return guards directly rather
//! than `Result`s.
//!
//! Two crates use it: `safe_ext` for its scratch pool and `tenancy` for
//! its circuit breakers. The simulated kernel and the eBPF maps take no
//! lock at all: a kernel has one owner, so they keep their state in
//! `Cell`/`RefCell`.
//!
//! `Mutex` is a spinlock rather than a `std::sync::Mutex` wrapper. Both
//! users are effectively thread-private (each dispatch shard owns its
//! kernel and control plane outright), so the uncontended path is all that
//! matters: one compare-exchange to take the lock, one plain store to
//! release it. The rare contended path spins briefly and then yields,
//! which also keeps single-core hosts from burning a timeslice waiting on
//! a descheduled holder.

use std::cell::UnsafeCell;
use std::fmt;
use std::hint;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A mutual-exclusion primitive with the `parking_lot` calling convention.
///
/// Poisoning is deliberately absent: like `parking_lot`, a panic while the
/// lock is held does not make the data permanently inaccessible (the guard
/// releases the lock during unwinding).
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: sending the mutex to another thread sends both fields.
// `locked` is an `AtomicBool`, which is `Send`. `value` owns the `T`,
// which may move to another thread because `T: Send`. (This is the bound
// the compiler would infer on its own; it is spelled out next to `Sync`.)
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: through `&Mutex<T>`, `locked` is touched only by atomic
// operations, and `value` only through a `MutexGuard`, which exists only
// while this thread holds `locked` (taken with `Acquire`, released with
// `Release`). Accesses to `value` from different threads are therefore
// serialised, never concurrent, and each hands `T` from one thread to the
// next: that needs `T: Send` and not `T: Sync`, the same bounds as
// `std::sync::Mutex`.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// Guard type returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Self {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self
            .locked
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return MutexGuard { lock: self };
        }
        self.lock_contended()
    }

    #[cold]
    fn lock_contended(&self) -> MutexGuard<'_, T> {
        let mut spins = 0u32;
        loop {
            while self.locked.load(Ordering::Relaxed) {
                if spins < 64 {
                    spins += 1;
                    hint::spin_loop();
                } else {
                    // The holder may be descheduled (single-core hosts);
                    // hand the core back rather than spinning it hot.
                    std::thread::yield_now();
                }
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return MutexGuard { lock: self };
            }
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(MutexGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard holds `locked` until it drops, so no other
        // guard exists and nothing else reads or writes `value`. The
        // returned reference borrows the guard, so it cannot outlive the
        // lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this guard holds `locked` until it drops, so no other
        // guard exists, and the `&mut self` borrow rules out any other
        // reference derived from this guard. The returned reference is the
        // only access to `value` and cannot outlive the lock.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_panic_while_held() {
        let m = std::sync::Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: still lockable, data intact.
        assert_eq!(*m.lock(), 7);
    }
}
