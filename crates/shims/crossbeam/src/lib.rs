//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access and no vendored registry, so
//! the workspace routes `crossbeam` to this path crate. One piece of the
//! real crate is used and reimplemented here: `crossbeam::thread::scope`.
//! Since Rust 1.63 the standard library's `std::thread::scope` provides the
//! same structured-concurrency guarantee; this shim adapts the API shape
//! (spawn closures take a scope argument, `scope` returns a `Result` like
//! crossbeam's).

/// Scoped-thread module mirroring `crossbeam::thread`.
pub mod thread {
    /// Handle passed to the `scope` closure; spawns threads that must
    /// terminate before `scope` returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. As in crossbeam, the closure receives the
        /// scope itself (so nested spawns are possible); most callers ignore
        /// the argument.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: for<'a> FnOnce(&'a Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Creates a scope in which threads can borrow from the enclosing stack
    /// frame. All spawned threads are joined before this returns.
    ///
    /// Mirrors crossbeam's signature by returning `Result`; the `std`
    /// implementation already propagates child panics by panicking in
    /// `scope` itself, so the `Ok` arm is the only one constructed.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_join_and_borrow() {
        let data = [1u32, 2, 3];
        let sum = std::sync::atomic::AtomicU32::new(0);
        super::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|_| {
                    let local: u32 = data.iter().sum();
                    sum.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 18);
    }
}
