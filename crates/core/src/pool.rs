#![allow(clippy::result_unit_err)] // Failures carry no payload by design (no-alloc paths).

//! Pre-allocated memory pool (§4, "Dynamic memory allocation").
//!
//! Extensions often run in non-sleepable contexts where a general
//! allocator is unavailable; the paper proposes "a pre-allocated memory
//! pool implementation" \[17\]. [`Pool`] carves a single up-front arena into
//! fixed size classes with free lists — allocation and free are O(1),
//! never call the global allocator, and never sleep. A [`PoolGuard`]
//! returns its block on drop.
//!
//! The runtime gives every run a fresh, full pool, created on the run's
//! first [`crate::ExtCtx::scratch`] call: a run that never asks for
//! scratch memory never builds one.

use parking_lot::Mutex;

/// The size classes (bytes) a pool serves.
pub const SIZE_CLASSES: [usize; 6] = [16, 32, 64, 128, 256, 512];

/// A raw allocation (offset into the arena + its class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolAlloc {
    offset: usize,
    /// Usable size in bytes (the class size).
    pub size: usize,
    class: usize,
}

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Failed allocations (class exhausted or oversize).
    pub failures: u64,
    /// Current live allocations.
    pub in_use: usize,
    /// Peak live allocations.
    pub peak_in_use: usize,
}

#[derive(Debug)]
struct ClassState {
    size: usize,
    free: Vec<usize>,
}

#[derive(Debug)]
struct PoolInner {
    arena: Vec<u8>,
    classes: Vec<ClassState>,
    stats: PoolStats,
}

/// A fixed-size-class arena allocator.
///
/// Its whole arena is allocated and zeroed in [`Pool::new`], so build one
/// only when something is about to allocate from it.
///
/// # Examples
///
/// ```
/// use safe_ext::pool::Pool;
///
/// let pool = Pool::new(8);
/// let block = pool.alloc(40).unwrap(); // Served from the 64-byte class.
/// assert_eq!(block.size, 64);
/// pool.write(block, 0, b"hello").unwrap();
/// let mut buf = [0u8; 5];
/// pool.read(block, 0, &mut buf).unwrap();
/// assert_eq!(&buf, b"hello");
/// pool.free(block).unwrap();
/// ```
#[derive(Debug)]
pub struct Pool {
    inner: Mutex<PoolInner>,
}

impl Pool {
    /// Creates a pool with `blocks_per_class` blocks in each size class.
    /// All memory is allocated here, once.
    pub fn new(blocks_per_class: usize) -> Self {
        let total: usize = SIZE_CLASSES.iter().map(|s| s * blocks_per_class).sum();
        let arena = vec![0u8; total];
        let mut classes = Vec::with_capacity(SIZE_CLASSES.len());
        let mut offset = 0;
        for &size in &SIZE_CLASSES {
            let mut free = Vec::with_capacity(blocks_per_class);
            // Push in reverse so blocks are handed out low-to-high.
            for i in (0..blocks_per_class).rev() {
                free.push(offset + i * size);
            }
            offset += size * blocks_per_class;
            classes.push(ClassState { size, free });
        }
        Pool {
            inner: Mutex::new(PoolInner {
                arena,
                classes,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Allocates at least `len` bytes; `None` when the class is exhausted
    /// or `len` exceeds the largest class.
    pub fn alloc(&self, len: usize) -> Option<PoolAlloc> {
        let mut inner = self.inner.lock();
        let class = SIZE_CLASSES.iter().position(|s| *s >= len.max(1));
        let class = match class {
            Some(c) => c,
            None => {
                inner.stats.failures += 1;
                return None;
            }
        };
        // Allow falling through to a bigger class when the ideal one is
        // exhausted.
        for c in class..SIZE_CLASSES.len() {
            if let Some(offset) = inner.classes[c].free.pop() {
                let size = inner.classes[c].size;
                // Blocks are zeroed on allocation, like the kernel pool.
                inner.arena[offset..offset + size].fill(0);
                inner.stats.allocs += 1;
                inner.stats.in_use += 1;
                inner.stats.peak_in_use = inner.stats.peak_in_use.max(inner.stats.in_use);
                return Some(PoolAlloc {
                    offset,
                    size,
                    class: c,
                });
            }
        }
        inner.stats.failures += 1;
        None
    }

    /// Returns a block to its free list.
    ///
    /// Returns `Err` when the allocation does not belong to this pool
    /// state (e.g. double free).
    pub fn free(&self, alloc: PoolAlloc) -> Result<(), ()> {
        let mut inner = self.inner.lock();
        if alloc.class >= inner.classes.len()
            || inner.classes[alloc.class].size != alloc.size
            || inner.classes[alloc.class].free.contains(&alloc.offset)
        {
            return Err(());
        }
        inner.classes[alloc.class].free.push(alloc.offset);
        inner.stats.frees += 1;
        inner.stats.in_use = inner.stats.in_use.saturating_sub(1);
        Ok(())
    }

    /// Allocates and wraps in an RAII guard.
    pub fn alloc_guard(&self, len: usize) -> Option<PoolGuard<'_>> {
        self.alloc(len).map(|alloc| PoolGuard { pool: self, alloc })
    }

    /// Writes `data` at `off` within `alloc`.
    pub fn write(&self, alloc: PoolAlloc, off: usize, data: &[u8]) -> Result<(), ()> {
        if off + data.len() > alloc.size {
            return Err(());
        }
        let mut inner = self.inner.lock();
        inner.arena[alloc.offset + off..alloc.offset + off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `buf.len()` bytes at `off` within `alloc`.
    pub fn read(&self, alloc: PoolAlloc, off: usize, buf: &mut [u8]) -> Result<(), ()> {
        if off + buf.len() > alloc.size {
            return Err(());
        }
        let inner = self.inner.lock();
        buf.copy_from_slice(&inner.arena[alloc.offset + off..alloc.offset + off + buf.len()]);
        Ok(())
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats
    }

    /// Frees everything (end-of-run reset).
    pub fn reset(&self) {
        let mut inner = self.inner.lock();
        let blocks: Vec<(usize, usize)> = {
            let mut out = Vec::new();
            let mut offset = 0;
            let per_class = inner.arena.len() / SIZE_CLASSES.iter().sum::<usize>().max(1);
            for (c, &size) in SIZE_CLASSES.iter().enumerate() {
                for i in 0..per_class {
                    out.push((c, offset + i * size));
                }
                offset += size * per_class;
            }
            out
        };
        for class in &mut inner.classes {
            class.free.clear();
        }
        for (c, off) in blocks.into_iter().rev() {
            inner.classes[c].free.push(off);
        }
        inner.stats.in_use = 0;
    }
}

/// RAII pool allocation.
#[derive(Debug)]
pub struct PoolGuard<'p> {
    pool: &'p Pool,
    alloc: PoolAlloc,
}

impl PoolGuard<'_> {
    /// Usable size in bytes.
    pub fn size(&self) -> usize {
        self.alloc.size
    }

    /// Writes `data` at `off`.
    pub fn write(&self, off: usize, data: &[u8]) -> Result<(), ()> {
        self.pool.write(self.alloc, off, data)
    }

    /// Reads into `buf` at `off`.
    pub fn read(&self, off: usize, buf: &mut [u8]) -> Result<(), ()> {
        self.pool.read(self.alloc, off, buf)
    }
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        let _ = self.pool.free(self.alloc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_selection() {
        let pool = Pool::new(4);
        assert_eq!(pool.alloc(1).unwrap().size, 16);
        assert_eq!(pool.alloc(16).unwrap().size, 16);
        assert_eq!(pool.alloc(17).unwrap().size, 32);
        assert_eq!(pool.alloc(512).unwrap().size, 512);
        assert!(pool.alloc(513).is_none());
    }

    #[test]
    fn exhaustion_falls_through_then_fails() {
        let pool = Pool::new(1);
        let a = pool.alloc(16).unwrap();
        // 16-class exhausted: falls through to 32.
        let b = pool.alloc(16).unwrap();
        assert_eq!(b.size, 32);
        let _ = a;
        // Exhaust everything.
        let mut held = vec![];
        while let Some(x) = pool.alloc(16) {
            held.push(x);
        }
        assert!(pool.alloc(16).is_none());
        assert!(pool.stats().failures >= 1);
    }

    #[test]
    fn data_roundtrip_and_zeroing() {
        let pool = Pool::new(2);
        let a = pool.alloc(64).unwrap();
        pool.write(a, 8, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        pool.read(a, 8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        pool.free(a).unwrap();
        // Reallocated block is zeroed.
        let b = pool.alloc(64).unwrap();
        let mut buf = [9u8; 3];
        pool.read(b, 8, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0]);
    }

    #[test]
    fn double_free_rejected() {
        let pool = Pool::new(2);
        let a = pool.alloc(16).unwrap();
        pool.free(a).unwrap();
        assert!(pool.free(a).is_err());
    }

    #[test]
    fn out_of_bounds_io_rejected() {
        let pool = Pool::new(1);
        let a = pool.alloc(16).unwrap();
        assert!(pool.write(a, 10, &[0; 7]).is_err());
        let mut buf = [0u8; 17];
        assert!(pool.read(a, 0, &mut buf).is_err());
    }

    #[test]
    fn guard_frees_on_drop() {
        let pool = Pool::new(1);
        {
            let g = pool.alloc_guard(16).unwrap();
            assert_eq!(g.size(), 16);
            assert_eq!(pool.stats().in_use, 1);
        }
        assert_eq!(pool.stats().in_use, 0);
        assert_eq!(pool.stats().frees, 1);
        // Block is reusable.
        assert_eq!(pool.alloc(16).unwrap().size, 16);
    }

    #[test]
    fn stats_track_peak() {
        let pool = Pool::new(4);
        let a = pool.alloc(16).unwrap();
        let b = pool.alloc(16).unwrap();
        pool.free(a).unwrap();
        pool.free(b).unwrap();
        let stats = pool.stats();
        assert_eq!(stats.allocs, 2);
        assert_eq!(stats.frees, 2);
        assert_eq!(stats.peak_in_use, 2);
        assert_eq!(stats.in_use, 0);
    }

    #[test]
    fn reset_restores_full_capacity() {
        let pool = Pool::new(2);
        let mut held = vec![];
        while let Some(x) = pool.alloc(512) {
            held.push(x);
        }
        pool.reset();
        assert!(pool.alloc(512).is_some());
        assert_eq!(pool.stats().in_use, 1);
    }
}
