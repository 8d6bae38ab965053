//! Runtime-protection behaviour: watchdogs, panic cleanup, RAII guards,
//! stack guard, and the checked kernel-crate surface.

use ebpf::maps::{MapDef, MapRegistry};
use ebpf::program::ProgType;
use kernel_sim::audit::EventKind;
use kernel_sim::objects::SockAddr;
use kernel_sim::Kernel;
use safe_ext::{Abort, ExtError, ExtInput, Extension, Runtime, RuntimeConfig, SysBpfRequest};

struct H {
    kernel: Kernel,
    maps: MapRegistry,
}

impl H {
    fn new() -> Self {
        let kernel = Kernel::new();
        kernel.populate_demo_env();
        Self {
            kernel,
            maps: MapRegistry::default(),
        }
    }

    fn runtime(&self) -> Runtime<'_> {
        Runtime::new(&self.kernel, &self.maps)
    }
}

const DEMO_TCP_SRC: SockAddr = SockAddr::new(0x0a00_0001, 443);
const DEMO_TCP_DST: SockAddr = SockAddr::new(0x0a00_0064, 51724);

#[test]
fn simple_extension_runs() {
    let h = H::new();
    let ext = Extension::new("id", ProgType::Kprobe, |ctx| ctx.pid_tgid());
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), (100 << 32) | 100);
    assert!(outcome.cleaned.is_empty());
    assert!(outcome.leak_report.clean());
    assert!(h.kernel.health().pristine());
}

#[test]
fn packet_extension_with_checked_access() {
    let h = H::new();
    let ext = Extension::new("parse", ProgType::Xdp, |ctx| {
        let pkt = ctx.packet()?;
        if pkt.len() < 4 {
            return Ok(0); // XDP_ABORTED-ish: just drop.
        }
        Ok(pkt.load_u8(3)? as u64)
    });
    let outcome = h.runtime().run(&ext, ExtInput::Packet(vec![1, 2, 3, 99]));
    assert_eq!(outcome.unwrap(), 99);
    // Short packet: the bounds branch handles it, no error.
    let outcome = h.runtime().run(&ext, ExtInput::Packet(vec![1]));
    assert_eq!(outcome.unwrap(), 0);
}

#[test]
fn out_of_bounds_packet_access_is_error_not_oops() {
    let h = H::new();
    let ext = Extension::new("oob", ProgType::Xdp, |ctx| {
        let pkt = ctx.packet()?;
        // Unchecked (by the extension) read past the end: the kernel
        // crate checks it and returns an error.
        pkt.load_u8(1000).map(u64::from)
    });
    let outcome = h.runtime().run(&ext, ExtInput::Packet(vec![0; 8]));
    assert!(matches!(
        outcome.result,
        Err(Abort::Error(ExtError::OutOfBounds { .. }))
    ));
    // THE point: the kernel did not oops.
    assert!(h.kernel.health().pristine());
}

#[test]
fn infinite_loop_terminated_by_fuel_watchdog() {
    let h = H::new();
    let ext = Extension::new("spin", ProgType::Kprobe, |ctx| {
        loop {
            ctx.tick()?; // The preemption point.
        }
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::WatchdogFuel)));
    assert_eq!(h.kernel.audit.count(EventKind::WatchdogFired), 1);
    // Terminated long before an RCU stall could form.
    assert_eq!(h.kernel.health().rcu_stalls, 0);
    assert!(!h.kernel.health().tainted);
}

#[test]
fn deadline_watchdog_fires_on_slow_virtual_time() {
    let h = H::new();
    let config = RuntimeConfig {
        fuel: u64::MAX / 2,
        deadline_ns: 1_000_000, // 1 ms of virtual time
        time_per_fuel_ns: 1_000,
        ..RuntimeConfig::default()
    };
    let ext = Extension::new("slow", ProgType::Kprobe, |ctx| loop {
        ctx.tick()?;
    });
    let outcome = h.runtime().with_config(config).run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::WatchdogDeadline)));
    assert!(outcome.fuel_used <= 1_001);
}

#[test]
fn host_watchdog_catches_compute_only_loop() {
    let h = H::new();
    let config = RuntimeConfig {
        host_watchdog_ms: Some(20),
        ..RuntimeConfig::default()
    };
    let ext = Extension::new("hot", ProgType::Kprobe, |ctx| {
        // A loop that computes without charging fuel, except for a rare
        // cooperative check — the pattern for heavy pure computation.
        let mut acc = 0u64;
        for i in 0u64.. {
            acc = acc.wrapping_add(i).rotate_left(7);
            if i % 100_000 == 0 {
                ctx.tick()?;
            }
        }
        Ok(acc)
    });
    let outcome = h.runtime().with_config(config).run(&ext, ExtInput::None);
    assert!(matches!(
        outcome.result,
        Err(Abort::WatchdogAsync) | Err(Abort::WatchdogFuel)
    ));
    assert!(h.kernel.audit.count(EventKind::WatchdogFired) >= 1);
}

#[test]
fn panic_is_caught_and_resources_cleaned() {
    let h = H::new();
    let ext = Extension::new("panicky", ProgType::SocketFilter, |ctx| {
        let sock = ctx
            .lookup_tcp(DEMO_TCP_SRC, DEMO_TCP_DST)?
            .ok_or(ExtError::NotFound)?;
        // Keep the guard alive across the panic.
        let _held = std::mem::ManuallyDrop::new(sock);
        panic!("extension bug");
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    match &outcome.result {
        Err(Abort::Panic(msg)) => assert!(msg.contains("extension bug")),
        other => panic!("expected panic abort, got {other:?}"),
    }
    // ManuallyDrop suppressed the RAII release, so the cleanup registry
    // (the trusted-destructor path) had to release the socket reference.
    assert_eq!(outcome.cleaned.len(), 1);
    assert!(outcome.leak_report.clean());
    assert_eq!(h.kernel.audit.count(EventKind::ExtensionPanic), 1);
    // The socket's refcount is back to baseline.
    let sock = h
        .kernel
        .objects
        .lookup_socket(kernel_sim::objects::Proto::Tcp, DEMO_TCP_SRC, DEMO_TCP_DST)
        .unwrap();
    assert_eq!(h.kernel.refs.count(sock.obj), Some(1));
}

#[test]
fn watchdog_termination_releases_held_lock() {
    let h = H::new();
    let locks_fd = h
        .maps
        .create(&h.kernel, MapDef::array("locked", 16, 1))
        .unwrap();
    let ext = Extension::new("lock-spin", ProgType::Kprobe, move |ctx| {
        let guard = ctx.lock_map_value(locks_fd, 0)?;
        let _keep = std::mem::ManuallyDrop::new(guard);
        loop {
            ctx.tick()?; // Spins while holding the lock.
        }
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::WatchdogFuel)));
    assert_eq!(outcome.cleaned.len(), 1);
    // The lock is free again; nothing leaked, kernel pristine.
    assert!(outcome.leak_report.clean());
    assert_eq!(h.kernel.health().lock_leaks, 0);
}

#[test]
fn raii_socket_guard_releases_on_normal_return() {
    let h = H::new();
    let ext = Extension::new("sk", ProgType::SocketFilter, |ctx| {
        match ctx.lookup_tcp(DEMO_TCP_SRC, DEMO_TCP_DST)? {
            Some(sock) => {
                let port = sock.src().port as u64;
                Ok(port) // Guard drops here: reference released.
            }
            None => Ok(0),
        }
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), 443);
    assert!(
        outcome.cleaned.is_empty(),
        "RAII handled it, not the registry"
    );
    let sock = h
        .kernel
        .objects
        .lookup_socket(kernel_sim::objects::Proto::Tcp, DEMO_TCP_SRC, DEMO_TCP_DST)
        .unwrap();
    assert_eq!(h.kernel.refs.count(sock.obj), Some(1));
    assert_eq!(h.kernel.health().ref_leaks, 0);
}

#[test]
fn double_lock_is_refused_not_deadlocked() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::array("locked", 16, 1))
        .unwrap();
    let ext = Extension::new("aa", ProgType::Kprobe, move |ctx| {
        let _a = ctx.lock_map_value(fd, 0)?;
        // Second acquisition: refused with an error, not a lockup.
        match ctx.lock_map_value(fd, 0) {
            Err(ExtError::Invalid(_)) => Ok(1),
            other => {
                let _ = other;
                Ok(0)
            }
        }
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), 1);
    // Contrast with the baseline: no oops, no hard lockup.
    assert!(h.kernel.health().pristine());
    assert_eq!(h.kernel.audit.count(EventKind::WrapperRejected), 1);
}

#[test]
fn stack_guard_stops_runaway_recursion() {
    let h = H::new();
    fn recurse(ctx: &safe_ext::ExtCtx<'_>) -> Result<u64, ExtError> {
        ctx.frame(recurse)
    }
    let ext = Extension::new("deep", ProgType::Kprobe, recurse);
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::StackGuard)));
    assert_eq!(h.kernel.audit.count(EventKind::StackOverflowGuard), 1);
    assert!(h.kernel.health().pristine());
}

#[test]
fn bounded_recursion_is_fine() {
    let h = H::new();
    fn sum(ctx: &safe_ext::ExtCtx<'_>, n: u64) -> Result<u64, ExtError> {
        if n == 0 {
            return Ok(0);
        }
        ctx.frame(|ctx| Ok(n + sum(ctx, n - 1)?))
    }
    let ext = Extension::new("sum", ProgType::Kprobe, |ctx| sum(ctx, 10));
    assert_eq!(h.runtime().run(&ext, ExtInput::None).unwrap(), 55);
}

#[test]
fn typed_sys_bpf_cannot_express_the_cve() {
    let h = H::new();
    let ext = Extension::new("mapmaker", ProgType::Tracepoint, |ctx| {
        // The CVE-2022-2785 attack passed a NULL pointer inside a union;
        // SysBpfRequest has no pointer field at all. The closest misuse —
        // zero sizes — is sanitized with an error.
        match ctx.sys_bpf(SysBpfRequest::CreateArrayMap {
            value_size: 0,
            max_entries: 0,
        }) {
            Err(ExtError::Invalid(_)) => {}
            other => return Ok(0xbad0 + other.is_ok() as u64),
        }
        let fd = ctx.sys_bpf(SysBpfRequest::CreateArrayMap {
            value_size: 8,
            max_entries: 4,
        })?;
        let count = ctx.sys_bpf(SysBpfRequest::MapCount)?;
        Ok(fd * 100 + count)
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), 101); // fd 1, one map
    assert!(h.kernel.health().pristine());
    assert_eq!(h.kernel.audit.count(EventKind::WrapperRejected), 1);
}

#[test]
fn task_storage_requires_valid_task_by_construction() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("tls", 4, 8, 8))
        .unwrap();
    let ext = Extension::new("tls", ProgType::Kprobe, move |ctx| {
        let task = ctx.current_task()?; // A TaskRef — never null.
        let cell = ctx.task_storage(fd, &task)?;
        cell.set(cell.get()? + 7)?;
        cell.get()
    });
    let runtime = h.runtime();
    // Storage persists across runs, like the kernel's local-storage maps.
    assert_eq!(runtime.run(&ext, ExtInput::None).unwrap(), 7);
    assert_eq!(runtime.run(&ext, ExtInput::None).unwrap(), 14);
}

#[test]
fn ringbuf_record_discarded_when_not_submitted() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::ringbuf("events", 128))
        .unwrap();
    let ext = Extension::new("rb", ProgType::Kprobe, move |ctx| {
        let rb = ctx.ringbuf(fd)?;
        // First record: submitted.
        if let Some(rec) = rb.reserve(8)? {
            rec.write(0, &1u64.to_le_bytes())?;
            rec.submit()?;
        }
        // Second record: dropped without submit -> discarded.
        let _forgotten = rb.reserve(8)?;
        Ok(0)
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert!(outcome.result.is_ok());
    let map = h.maps.get(fd).unwrap();
    let records = map.ringbuf_consume().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(&records[0], &1u64.to_le_bytes());
}

#[test]
fn task_stack_never_leaks_the_stack_ref() {
    let h = H::new();
    let ext = Extension::new("stack", ProgType::Kprobe, |ctx| {
        let task = ctx.current_task()?;
        let mut frames = [0u64; 8];
        let n = ctx.task_stack(&task, &mut frames)?;
        Ok(n as u64)
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), 8);
    let task = h.kernel.objects.current().unwrap();
    // Contrast with the shipped bpf_get_task_stack bug: count is back to 1.
    assert_eq!(h.kernel.refs.count(task.stack_obj), Some(1));
}

#[test]
fn scratch_pool_allocation_and_exhaustion() {
    let h = H::new();
    let config = RuntimeConfig {
        pool_blocks: 2,
        ..RuntimeConfig::default()
    };
    let ext = Extension::new("scratch", ProgType::Kprobe, |ctx| {
        let a = ctx.scratch(64)?;
        a.write(0, b"hello")
            .map_err(|_| ExtError::Invalid("write"))?;
        let mut buf = [0u8; 5];
        a.read(0, &mut buf).map_err(|_| ExtError::Invalid("read"))?;
        if &buf != b"hello" {
            return Ok(0);
        }
        // Exhaust the 512-class; pool must fail cleanly.
        let _b = ctx.scratch(512)?;
        let _c = ctx.scratch(512)?;
        match ctx.scratch(512) {
            Err(ExtError::PoolExhausted) => Ok(1),
            _ => Ok(2),
        }
    });
    // Each run exhausts a fresh, full pool: nothing carries over from the
    // first run into the second.
    let runtime = h.runtime().with_config(config);
    for run in 0..2 {
        let outcome = runtime.run(&ext, ExtInput::None);
        assert_eq!(outcome.unwrap(), 1, "run {run}");
    }
}

#[test]
fn printk_is_captured() {
    let h = H::new();
    let ext = Extension::new("logger", ProgType::Kprobe, |ctx| {
        let pid = ctx.pid_tgid()? as u32;
        ctx.printk(format!("pid={pid}"))?;
        Ok(0)
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.printk, vec!["pid=100".to_string()]);
}

#[test]
fn no_stall_even_on_long_runs_thanks_to_watchdog() {
    // §2.2's RCU-stall attack cannot happen: the deadline is far below
    // the 21 s stall threshold.
    let h = H::new();
    let config = RuntimeConfig {
        fuel: u64::MAX / 2,
        deadline_ns: 10_000_000_000, // even a generous 10 s deadline...
        time_per_fuel_ns: 10_000,
        ..RuntimeConfig::default()
    };
    let ext = Extension::new("grinder", ProgType::Kprobe, |ctx| loop {
        ctx.tick()?;
    });
    let outcome = h.runtime().with_config(config).run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::WatchdogDeadline)));
    // ...still beats the 21 s RCU stall threshold.
    assert_eq!(h.kernel.health().rcu_stalls, 0);
}

#[test]
fn hash_handle_crud() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("m", 4, 8, 8))
        .unwrap();
    let ext = Extension::new("hash", ProgType::Kprobe, move |ctx| {
        let m = ctx.hash(fd)?;
        m.insert(&[1, 0, 0, 0], &10u64.to_le_bytes())?;
        m.insert(&[2, 0, 0, 0], &20u64.to_le_bytes())?;
        let v = m
            .lookup(&[1, 0, 0, 0])?
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
            .unwrap_or(0);
        let removed = m.remove(&[2, 0, 0, 0])? as u64;
        let gone = m.lookup(&[2, 0, 0, 0])?.is_none() as u64;
        Ok(v + removed + gone)
    });
    assert_eq!(h.runtime().run(&ext, ExtInput::None).unwrap(), 12);
}

#[test]
fn wrong_map_kind_is_checked() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("m", 4, 8, 8))
        .unwrap();
    let ext = Extension::new("confused", ProgType::Kprobe, move |ctx| {
        match ctx.array(fd) {
            Err(ExtError::Map(ebpf::maps::MapError::WrongKind)) => Ok(1),
            _ => Ok(0),
        }
    });
    assert_eq!(h.runtime().run(&ext, ExtInput::None).unwrap(), 1);
}

#[test]
fn array_bounds_checked_with_huge_index() {
    // The array-map 32-bit-overflow bug class: a huge index must be a
    // clean error here, never an out-of-bounds kernel access.
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("a", 8, 4)).unwrap();
    let ext = Extension::new("huge-index", ProgType::Kprobe, move |ctx| {
        let a = ctx.array(fd)?;
        match a.get_u64(0x2000_0001, 0) {
            Err(ExtError::OutOfBounds { .. }) => Ok(1),
            _ => Ok(0),
        }
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    assert_eq!(outcome.unwrap(), 1);
    assert!(h.kernel.health().pristine());
}

#[test]
fn kprobe_and_tracepoint_accessors() {
    let h = H::new();
    let ext = Extension::new("kp", ProgType::Kprobe, |ctx| {
        let a = ctx.kprobe_arg(2)?;
        let oob = ctx.kprobe_arg(9).is_err() as u64;
        Ok(a + oob)
    });
    let mut regs = [0u64; 8];
    regs[2] = 41;
    assert_eq!(h.runtime().run(&ext, ExtInput::Kprobe(regs)).unwrap(), 42);

    let ext = Extension::new("tp", ProgType::Tracepoint, |ctx| {
        Ok(ctx.tracepoint_field(1)? * 2)
    });
    assert_eq!(
        h.runtime()
            .run(&ext, ExtInput::Tracepoint([0, 21, 0, 0]))
            .unwrap(),
        42
    );
    // Wrong input kind: accessor errors cleanly.
    let ext = Extension::new("none", ProgType::Kprobe, |ctx| match ctx.kprobe_arg(0) {
        Err(ExtError::Invalid(_)) => Ok(1),
        _ => Ok(0),
    });
    assert_eq!(h.runtime().run(&ext, ExtInput::None).unwrap(), 1);
}

#[test]
fn percpu_array_handle_is_cpu_local() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::percpu_array("pc", 8, 2))
        .unwrap();
    let ext = Extension::new("pc", ProgType::Kprobe, move |ctx| {
        let a = ctx.percpu_array(fd)?;
        a.fetch_add_u64(0, 0, 1)
    });
    let runtime = h.runtime();
    h.kernel.cpus.set_current_cpu(0);
    assert_eq!(runtime.run(&ext, ExtInput::None).unwrap(), 1);
    assert_eq!(runtime.run(&ext, ExtInput::None).unwrap(), 2);
    // Another CPU sees its own slot.
    h.kernel.cpus.set_current_cpu(1);
    assert_eq!(runtime.run(&ext, ExtInput::None).unwrap(), 1);
}

#[test]
fn array_read_write_whole_values() {
    let h = H::new();
    let fd = h.maps.create(&h.kernel, MapDef::array("v", 4, 2)).unwrap();
    let ext = Extension::new("rw", ProgType::Kprobe, move |ctx| {
        let a = ctx.array(fd)?;
        a.write(1, &[9, 8, 7, 6])?;
        let mut buf = [0u8; 4];
        a.read(1, &mut buf)?;
        // Wrong-size buffers are rejected.
        let wrong = a.read(1, &mut [0u8; 3]).is_err() as u64;
        Ok(u32::from_le_bytes(buf) as u64 + wrong)
    });
    assert_eq!(
        h.runtime().run(&ext, ExtInput::None).unwrap(),
        u32::from_le_bytes([9, 8, 7, 6]) as u64 + 1
    );
}

#[test]
fn packet_store_and_be_loads() {
    let h = H::new();
    let ext = Extension::new("mut", ProgType::Xdp, |ctx| {
        let pkt = ctx.packet()?;
        pkt.store_u8(0, 0xab)?;
        pkt.store_bytes(1, &[0x12, 0x34])?;
        // Network-order read of the two bytes just stored.
        Ok(pkt.load_be16(1)? as u64)
    });
    let outcome = h.runtime().run(&ext, ExtInput::Packet(vec![0; 4]));
    assert_eq!(outcome.unwrap(), 0x3412u16.swap_bytes() as u64);
}

#[test]
fn fuel_accounting_reflects_work() {
    let h = H::new();
    let light = Extension::new("light", ProgType::Kprobe, |ctx| {
        ctx.tick()?;
        Ok(0)
    });
    let heavy = Extension::new("heavy", ProgType::Kprobe, |ctx| {
        for _ in 0..100 {
            ctx.tick()?;
        }
        Ok(0)
    });
    let runtime = h.runtime();
    let l = runtime.run(&light, ExtInput::None);
    let hv = runtime.run(&heavy, ExtInput::None);
    assert!(hv.fuel_used > l.fuel_used + 90);
}

#[test]
fn for_each_replaces_the_map_iteration_helper() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("m", 4, 8, 16))
        .unwrap();
    let ext = Extension::new("iter", ProgType::Kprobe, move |ctx| {
        let m = ctx.hash(fd)?;
        for k in 0u32..6 {
            m.insert(&k.to_le_bytes(), &(k as u64 * 10).to_le_bytes())?;
        }
        // Sum all values; stop early when the sum exceeds 60.
        let mut sum = 0u64;
        let visited = m.for_each(|_k, v| {
            sum += u64::from_le_bytes(v.try_into().expect("8 bytes"));
            Ok(sum <= 60)
        })?;
        Ok(sum * 100 + visited)
    });
    let outcome = h.runtime().run(&ext, ExtInput::None);
    let result = outcome.unwrap();
    let (sum, visited) = (result / 100, result % 100);
    // Order is unspecified, but the early-stop contract bounds both.
    assert!(sum > 60 || visited == 6, "sum={sum} visited={visited}");
    assert!(visited <= 6);
}

#[test]
fn for_each_is_watchdogged() {
    let h = H::new();
    let fd = h
        .maps
        .create(&h.kernel, MapDef::hash("m", 4, 8, 64))
        .unwrap();
    let config = RuntimeConfig {
        fuel: 50,
        ..RuntimeConfig::default()
    };
    let ext = Extension::new("iter-heavy", ProgType::Kprobe, move |ctx| {
        let m = ctx.hash(fd)?;
        for k in 0u32..40 {
            m.insert(&k.to_le_bytes(), &0u64.to_le_bytes())?;
        }
        m.for_each(|_, _| Ok(true))
    });
    let outcome = h.runtime().with_config(config).run(&ext, ExtInput::None);
    assert!(matches!(outcome.result, Err(Abort::WatchdogFuel)));
}

// ---- Fault plane: graceful degradation and backoff ----

use kernel_sim::{FaultPlan, FaultPlanConfig};

/// A quiet plan that deterministically fails the first `burst`
/// allocations — the scripted schedule for retry/backoff tests.
fn alloc_burst_plan(burst: u32) -> FaultPlan {
    FaultPlan::with_config(
        7,
        FaultPlanConfig {
            alloc_fail_burst: burst,
            ..FaultPlanConfig::quiet()
        },
    )
}

#[test]
fn transient_alloc_faults_are_retried_with_exponential_backoff() {
    let h = H::new();
    h.kernel.arm_fault_plan(alloc_burst_plan(2));
    let runtime = h.runtime(); // defaults: 3 retries, 1000 ns base backoff
    let ext = Extension::new("pkt", ProgType::Xdp, |ctx| Ok(ctx.packet()?.len() as u64));

    let before = h.kernel.clock.now_ns();
    let outcome = runtime.run(&ext, ExtInput::Packet(vec![1, 2, 3, 4]));
    assert_eq!(outcome.unwrap(), 4);

    // Two scripted failures: two injections, two audited retries, and at
    // least 1000 + 2000 ns of deterministic virtual-time backoff.
    assert_eq!(h.kernel.audit.count(EventKind::FaultInjected), 2);
    let retries = h
        .kernel
        .audit
        .of_kind(EventKind::Info)
        .iter()
        .filter(|e| e.detail.contains("transient skb allocation failure"))
        .count();
    assert_eq!(retries, 2);
    assert!(h.kernel.clock.now_ns() - before >= 3_000);
    assert!(h.kernel.health().pristine());
}

#[test]
fn alloc_faults_beyond_the_retry_budget_degrade_without_oops() {
    let h = H::new();
    h.kernel.arm_fault_plan(alloc_burst_plan(10));
    let runtime = h.runtime();
    let ext = Extension::new("pkt", ProgType::Xdp, |ctx| Ok(ctx.packet()?.len() as u64));

    let outcome = runtime.run(&ext, ExtInput::Packet(vec![1, 2, 3, 4]));
    assert!(matches!(
        outcome.result,
        Err(Abort::Error(ExtError::Invalid("packet allocation")))
    ));
    // Initial attempt + 3 retries, then a clean refusal — never an oops.
    assert_eq!(h.kernel.audit.count(EventKind::FaultInjected), 4);
    assert!(outcome.leak_report.clean());
    assert!(h.kernel.health().pristine());
}

#[test]
fn fault_schedule_and_backoff_are_deterministic_in_virtual_time() {
    let scenario = || {
        let h = H::new();
        h.kernel.arm_fault_plan(FaultPlan::new(42));
        let runtime = h.runtime();
        let ext = Extension::new("det", ProgType::Xdp, |ctx| {
            let pkt = ctx.packet()?;
            Ok(pkt.len() as u64)
        });
        for i in 0..32u8 {
            let _ = runtime.run(&ext, ExtInput::Packet(vec![i; 4]));
        }
        let stream: String = h
            .kernel
            .audit
            .snapshot()
            .iter()
            .map(|e| format!("{}|{:?}|{}|{:?}\n", e.at_ns, e.kind, e.detail, e.fault))
            .collect();
        (stream, h.kernel.clock.now_ns())
    };
    assert_eq!(scenario(), scenario());
}
