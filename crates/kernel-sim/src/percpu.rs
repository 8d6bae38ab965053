//! Per-CPU data.
//!
//! The paper's proposed framework suggests "a dedicated per-CPU region" to
//! avoid dynamic allocation of the unwind/cleanup context (§3.1); per-CPU
//! array maps in the baseline also build on this.

use std::cell::{Cell, RefCell};

/// Default number of simulated CPUs.
pub const DEFAULT_NR_CPUS: usize = 4;

/// CPU topology and current-CPU plumbing.
#[derive(Debug)]
pub struct CpuInfo {
    nr_cpus: usize,
    /// The current CPU.
    current: Cell<usize>,
}

impl Default for CpuInfo {
    fn default() -> Self {
        Self::new(DEFAULT_NR_CPUS)
    }
}

impl CpuInfo {
    /// Creates a topology with `nr_cpus` CPUs (at least 1).
    pub fn new(nr_cpus: usize) -> Self {
        Self {
            nr_cpus: nr_cpus.max(1),
            current: Cell::new(0),
        }
    }

    /// Number of CPUs.
    pub fn nr_cpus(&self) -> usize {
        self.nr_cpus
    }

    /// The CPU the "current" execution runs on.
    pub fn current_cpu(&self) -> usize {
        self.current.get()
    }

    /// Creates a topology with `nr_cpus` CPUs already migrated to `cpu`:
    /// the shape a dispatch shard boots in, where shard *i* of *N* runs
    /// pinned to CPU *i*.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= nr_cpus`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kernel_sim::percpu::CpuInfo;
    ///
    /// let cpus = CpuInfo::pinned(8, 3);
    /// assert_eq!(cpus.nr_cpus(), 8);
    /// assert_eq!(cpus.current_cpu(), 3);
    /// ```
    pub fn pinned(nr_cpus: usize, cpu: usize) -> Self {
        let info = Self::new(nr_cpus);
        info.set_current_cpu(cpu);
        info
    }

    /// Migrates the current execution to `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu >= nr_cpus`.
    pub fn set_current_cpu(&self, cpu: usize) {
        assert!(cpu < self.nr_cpus, "cpu {cpu} out of range");
        self.current.set(cpu);
    }
}

/// A value replicated per CPU, owned by one kernel: each slot is a
/// `RefCell`, so a closure that re-enters its own slot panics.
///
/// # Examples
///
/// ```
/// use kernel_sim::percpu::PerCpu;
///
/// let counters: PerCpu<u64> = PerCpu::new(4);
/// counters.with_mut(2, |c| *c += 10);
/// assert_eq!(counters.with(2, |c| *c), 10);
/// assert_eq!(counters.with(0, |c| *c), 0);
/// ```
#[derive(Debug)]
pub struct PerCpu<T> {
    slots: Vec<RefCell<T>>,
}

impl<T: Default> PerCpu<T> {
    /// Creates one default-initialized slot per CPU.
    pub fn new(nr_cpus: usize) -> Self {
        Self {
            slots: (0..nr_cpus.max(1))
                .map(|_| RefCell::new(T::default()))
                .collect(),
        }
    }
}

impl<T> PerCpu<T> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Runs `f` with shared access to CPU `cpu`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn with<R>(&self, cpu: usize, f: impl FnOnce(&T) -> R) -> R {
        f(&self.slots[cpu].borrow())
    }

    /// Runs `f` with exclusive access to CPU `cpu`'s slot.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn with_mut<R>(&self, cpu: usize, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.slots[cpu].borrow_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology() {
        let info = CpuInfo::default();
        assert_eq!(info.nr_cpus(), DEFAULT_NR_CPUS);
        assert_eq!(info.current_cpu(), 0);
    }

    #[test]
    fn migration() {
        let info = CpuInfo::new(2);
        info.set_current_cpu(1);
        assert_eq!(info.current_cpu(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn migration_out_of_range_panics() {
        CpuInfo::new(2).set_current_cpu(2);
    }

    #[test]
    fn percpu_slots_are_independent() {
        let p: PerCpu<Vec<u32>> = PerCpu::new(3);
        p.with_mut(0, |v| v.push(1));
        p.with_mut(1, |v| v.push(2));
        assert_eq!(p.with(0, |v| v.clone()), vec![1]);
        assert_eq!(p.with(1, |v| v.clone()), vec![2]);
        assert!(p.with(2, |v| v.is_empty()));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn zero_cpus_clamped_to_one() {
        let info = CpuInfo::new(0);
        assert_eq!(info.nr_cpus(), 1);
        let p: PerCpu<u8> = PerCpu::new(0);
        assert_eq!(p.len(), 1);
    }
}
