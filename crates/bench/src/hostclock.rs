//! Per-thread host CPU clock.
//!
//! The sharded engine reports *parallel capacity* — items divided by the
//! busiest shard's CPU time — as its host-side scaling metric, because
//! CI may provide a single core, where wall-clock cannot show parallel
//! speedup no matter how well the harness shards. Thread CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`) counts only cycles the calling thread
//! actually executed: time a worker spends blocked or descheduled costs
//! nothing, so the per-shard figure is the work the shard did,
//! independent of how the host scheduler interleaved the shards.
//!
//! Declared directly against the C library so the workspace stays free
//! of external crates; on non-unix targets the probe degrades to zero
//! and callers fall back to wall-clock figures.

/// Nanoseconds of CPU time consumed by the calling thread, or 0 if the
/// host cannot say.
#[cfg(unix)]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    // POSIX: the per-thread CPU-time clock.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`-layout value
    // and the clock id is a compile-time constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec.max(0) as u64).saturating_mul(1_000_000_000) + ts.tv_nsec.max(0) as u64
}

/// Fallback for hosts without a per-thread CPU clock.
#[cfg(not(unix))]
pub fn thread_cpu_ns() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_under_load() {
        let before = thread_cpu_ns();
        // Busy work the optimizer cannot elide.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = thread_cpu_ns();
        assert!(after >= before, "thread CPU clock went backwards");
        assert!(after > 0, "thread CPU clock unavailable on this host");
    }

    #[test]
    fn sleep_costs_no_cpu_time() {
        let before = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let after = thread_cpu_ns();
        // Blocked time must not be billed: allow generous scheduler slop
        // but far less than the 30ms slept.
        assert!(
            after - before < 20_000_000,
            "sleep billed {}ns of CPU",
            after - before
        );
    }
}
