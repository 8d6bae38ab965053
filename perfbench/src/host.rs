//! The host side of a run: the process CPU clock every rate is measured
//! on, the std-only reference loop every rate is normalised by, and the
//! host record (cores, CPU model, compiler, steal time, peak RSS).

use std::collections::HashMap;
use std::hint::black_box;

use crate::mix64;

/// Nanoseconds of CPU time consumed by this process.
///
/// The benchmark runs on one thread, so this is the time the host
/// actually gave the measured code: time the process sat descheduled
/// (another tenant of the machine running) is not billed.
#[cfg(unix)]
pub fn cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    // POSIX: the per-process CPU-time clock.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`-layout value
    // and the clock id is a constant every POSIX kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Hosts without a process CPU clock cannot run the benchmark.
#[cfg(not(unix))]
pub fn cpu_ns() -> u64 {
    panic!("the benchmark needs a POSIX process CPU clock")
}

/// Nodes in each graph the reference loop explores.
const REF_NODES: u32 = 32;

/// A fixed std-only workload in the image of the system's hot code:
/// walk a seeded branching graph with a worklist, keep the states seen at
/// each node in a hash map and prune those already covered (the
/// verifier's exploration), lower the walk into a vector of ops (the
/// JIT) and format one log line (an audit record). Like the system it is
/// allocation-heavy, hash-heavy and branchy, so contention on the host
/// slows both alike; its rate moves only with the host, never with the
/// system under test, so dividing by it cancels a slowdown of the whole
/// host.
pub struct RefLoop {
    state: u64,
    acc: u64,
}

impl RefLoop {
    /// Seeds the loop.
    pub fn new(seed: u64) -> Self {
        RefLoop {
            state: seed,
            acc: 0,
        }
    }

    /// Runs `n` steps.
    pub fn steps(&mut self, n: u32) {
        for _ in 0..n {
            self.state = mix64(self.state);
            let seed = self.state;
            let mut seen: HashMap<u32, Vec<[u64; 3]>> = HashMap::new();
            let mut work = vec![(0u32, [seed & 0xf, 0, seed])];
            let mut lowered = Vec::new();
            while let Some((node, mut regs)) = work.pop() {
                let states = seen.entry(node).or_default();
                // At most 16 shapes per node: the walk is bounded.
                if states.iter().any(|s| s[0] == regs[0]) {
                    continue;
                }
                states.push(regs);
                regs[2] = mix64(regs[2] ^ u64::from(node));
                lowered.push(regs[2] ^ regs[1]);
                if node + 1 == REF_NODES {
                    continue;
                }
                regs[1] += 1;
                work.push((node + 1, regs));
                if regs[2] & 3 == 0 {
                    regs[0] = (regs[0] + 1) & 0xf;
                    work.push((node + 1, regs));
                }
            }
            let line = format!("ref: graph {seed:x} lowered to {} ops", lowered.len());
            self.acc ^= lowered.iter().fold(line.len() as u64, |a, x| a ^ x);
        }
        black_box(self.acc);
    }
}

/// The parts of `/proc/stat`'s aggregate cpu line the run record needs.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `VmHWM` of this process in MiB, if the host reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// What every run records about the host it ran on.
pub struct HostRecord {
    /// Cores available to the process.
    pub nproc: usize,
    /// The `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo build profile.
    pub profile: &'static str,
    steal_start: Option<u64>,
}

impl HostRecord {
    /// Takes the record at the start of a run.
    pub fn start() -> Self {
        HostRecord {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            steal_start: steal_ticks(),
        }
    }

    /// Seconds of CPU time the hypervisor stole from this machine's
    /// cores since [`HostRecord::start`] (USER_HZ = 100 ticks per second).
    pub fn steal_s(&self) -> Option<f64> {
        let end = steal_ticks()?;
        Some(end.saturating_sub(self.steal_start?) as f64 / 100.0)
    }
}
