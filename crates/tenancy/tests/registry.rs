//! Integration tests for the tenant control plane: quotas at load and at
//! runtime, hot-upgrade semantics, shared-map refcounts, and storm-driven
//! tenant-scoped quarantine.

use std::sync::Arc;

use ebpf::asm::Asm;
use ebpf::helpers::HelperRegistry;
use ebpf::insn::Reg;
use ebpf::maps::{MapDef, MapError, MapRegistry};
use ebpf::program::{ProgType, Program};
use kernel_sim::mem::Fault;
use kernel_sim::{FaultPlan, FaultPlanConfig, Kernel};
use safe_ext::{ExtError, Extension, Quarantine};
use tenancy::{
    storm_fault_config, ProgramSpec, RunVerdict, Storm, TenancyError, TenantBudget, TenantRegistry,
};

fn world() -> (Kernel, MapRegistry, HelperRegistry) {
    (
        Kernel::new(),
        MapRegistry::default(),
        HelperRegistry::standard(),
    )
}

/// An eBPF program that returns a constant.
fn const_prog(v: i32) -> Program {
    let insns = Asm::new().mov64_imm(Reg::R0, v).exit().build().unwrap();
    Program::new("const", ProgType::SocketFilter, insns)
}

/// A safe extension that returns a constant.
fn const_ext(name: &str, v: u64) -> Extension {
    Extension::new(name, ProgType::SocketFilter, move |_| Ok(v))
}

#[test]
fn map_quotas_enforced_at_load_and_runtime() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg
        .register(
            "t0",
            TenantBudget {
                fuel: 10_000,
                mem_bytes: 96,
                max_maps: 2,
                max_map_bytes: 128,
                ..TenantBudget::default()
            },
        )
        .unwrap();

    // Per-map size quota at load: 8 * 32 = 256 > 128.
    assert!(matches!(
        reg.create_map(id, MapDef::array("big", 8, 32)),
        Err(TenancyError::MapSizeQuota {
            requested: 256,
            limit: 128
        })
    ));

    // Within quota: a hash map whose entries are charged lazily.
    let fd = reg.create_map(id, MapDef::hash("h", 4, 28, 4)).unwrap();

    // Map-count quota: one more map is fine, a third is refused.
    reg.create_map(id, MapDef::array("a", 8, 4)).unwrap();
    assert!(matches!(
        reg.create_map(id, MapDef::array("b", 8, 4)),
        Err(TenancyError::MapCountQuota { limit: 2 })
    ));

    // Runtime byte-quota enforcement: the array took 32 bytes of the
    // 96-byte domain, each hash entry takes 28 more — the domain runs
    // out (after 2 of the 4 entries) before the map's own max_entries
    // does.
    let map = maps.get(fd).unwrap();
    let mut inserted = 0u32;
    let mut hit_quota = false;
    for i in 0..4u32 {
        match map.update(&kernel.mem, &i.to_le_bytes(), &[0u8; 28], 0) {
            Ok(()) => inserted += 1,
            Err(MapError::Fault(Fault::QuotaExceeded { .. })) => {
                hit_quota = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(hit_quota, "domain quota never fired; inserted {inserted}");
    assert_eq!(inserted, 2);
    assert!(reg.mem_bytes(id) <= 96);
}

#[test]
fn over_quota_map_creation_bumps_rejection_metric() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg
        .register(
            "t0",
            TenantBudget {
                mem_bytes: 16,
                max_map_bytes: 1 << 20,
                ..TenantBudget::default()
            },
        )
        .unwrap();
    assert!(matches!(
        reg.create_map(id, MapDef::array("big", 8, 32)),
        Err(TenancyError::Map(MapError::Fault(
            Fault::QuotaExceeded { .. }
        )))
    ));
    assert_eq!(kernel.metrics.snapshot().quota_rejections, 1);
}

#[test]
fn hot_upgrade_swaps_after_rcu_drain() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::default()).unwrap();
    reg.attach(id, "pkt", ProgramSpec::Ebpf(const_prog(1)))
        .unwrap();
    assert_eq!(reg.version(id, "pkt").unwrap(), 1);
    let out = reg.run_packet(id, "pkt", &[0u8; 8]).unwrap();
    assert_eq!(out.verdict, RunVerdict::Ok(1));

    let gp_before = kernel.rcu.gp_seq();
    reg.upgrade(id, "pkt", ProgramSpec::Ebpf(const_prog(2)))
        .unwrap();
    assert!(
        kernel.rcu.gp_seq() > gp_before,
        "upgrade must wait out a grace period before teardown"
    );
    assert_eq!(reg.version(id, "pkt").unwrap(), 2);
    let out = reg.run_packet(id, "pkt", &[0u8; 8]).unwrap();
    assert_eq!(out.verdict, RunVerdict::Ok(2));

    // Cross-dialect upgrade: v3 is a safe extension.
    reg.upgrade(id, "pkt", ProgramSpec::Safe(const_ext("t0-v3", 3)))
        .unwrap();
    let out = reg.run_packet(id, "pkt", &[0u8; 8]).unwrap();
    assert_eq!(out.verdict, RunVerdict::Ok(3));

    let m = kernel.metrics.snapshot();
    assert_eq!(m.tenant_loads, 3);
    assert_eq!(m.tenant_swaps, 2);
    assert_eq!(m.tenant_unloads, 2);
}

#[test]
fn failed_upgrade_leaves_old_version_serving() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::default()).unwrap();
    reg.attach(id, "pkt", ProgramSpec::Ebpf(const_prog(7)))
        .unwrap();
    // Exit without initializing R0: the verifier rejects it, so the
    // upgrade fails before the swap.
    let bad = Program::new(
        "bad",
        ProgType::SocketFilter,
        Asm::new().exit().build().unwrap(),
    );
    assert!(matches!(
        reg.upgrade(id, "pkt", ProgramSpec::Ebpf(bad)),
        Err(TenancyError::Verifier(_))
    ));
    assert_eq!(reg.version(id, "pkt").unwrap(), 1);
    let out = reg.run_packet(id, "pkt", &[0u8; 8]).unwrap();
    assert_eq!(out.verdict, RunVerdict::Ok(7));
}

#[test]
fn shared_maps_are_refcounted_and_die_with_last_reference() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let a = reg.register("a", TenantBudget::default()).unwrap();
    let b = reg.register("b", TenantBudget::default()).unwrap();

    let fd = reg
        .create_shared_map(a, "flow-table", MapDef::hash("flow-table", 4, 8, 16))
        .unwrap();
    assert_eq!(reg.shared_refs("flow-table"), 1);
    let fd_b = reg.acquire_shared(b, "flow-table").unwrap();
    assert_eq!(fd, fd_b, "sharers see the same fd");
    assert_eq!(reg.shared_refs("flow-table"), 2);

    // Both tenants see the same state through the shared fd.
    let map = maps.get(fd).unwrap();
    map.update(&kernel.mem, &1u32.to_le_bytes(), &9u64.to_le_bytes(), 0)
        .unwrap();
    // Entries are charged to the creator's domain.
    assert!(reg.mem_bytes(a) > 0);
    assert_eq!(reg.mem_bytes(b), 0);

    // Owner drops out first: the map survives on b's reference.
    reg.release_shared(a, "flow-table").unwrap();
    assert_eq!(reg.shared_refs("flow-table"), 1);
    assert!(maps.get(fd).is_some());

    // Last reference: the map dies, the fd goes stale, memory is freed.
    reg.release_shared(b, "flow-table").unwrap();
    assert_eq!(reg.shared_refs("flow-table"), 0);
    assert!(maps.get(fd).is_none(), "stale fd must not resolve");
    assert_eq!(reg.mem_bytes(a), 0);

    assert!(matches!(
        reg.release_shared(b, "flow-table"),
        Err(TenancyError::NotASharer(_))
    ));
}

#[test]
fn unload_tenant_tears_down_everything() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::default()).unwrap();
    reg.attach(id, "pkt", ProgramSpec::Ebpf(const_prog(1)))
        .unwrap();
    reg.attach(id, "trace", ProgramSpec::Safe(const_ext("t0-trace", 2)))
        .unwrap();
    let fd = reg.create_map(id, MapDef::array("a", 8, 4)).unwrap();
    assert_eq!(reg.attached_count(), 2);
    assert!(reg.mem_bytes(id) > 0);

    reg.unload_tenant(id).unwrap();
    assert_eq!(reg.attached_count(), 0);
    assert_eq!(reg.mem_bytes(id), 0);
    assert!(maps.get(fd).is_none(), "owned map fd must go stale");
    assert!(matches!(
        reg.run_packet(id, "pkt", &[0u8; 8]),
        Err(TenancyError::UnknownPoint(_))
    ));
    assert_eq!(kernel.metrics.snapshot().tenant_unloads, 2);
}

#[test]
fn storm_trips_only_the_targeted_tenants() {
    let (kernel, maps, helpers) = world();
    let quarantine = Arc::new(Quarantine::new(3).with_cooldown(1_000_000));
    let mut reg = TenantRegistry::with_quarantine(&kernel, &maps, &helpers, quarantine.clone());
    let tenants = 6u32;
    for t in 0..tenants {
        let id = reg
            .register(&format!("tenant{t}"), TenantBudget::default())
            .unwrap();
        // The entry touches the meter (packet access charges fuel), so an
        // injected RCU-entry delay that blows the deadline kills the run.
        reg.attach(
            id,
            "pkt",
            ProgramSpec::Safe(Extension::new(
                &format!("tenant{t}/pkt"),
                ProgType::SocketFilter,
                |ctx| {
                    let pkt = ctx.packet()?;
                    Ok(pkt.len() as u64)
                },
            )),
        )
        .unwrap();
    }

    let storm = Storm::seeded(42, tenants, 2, (0, 1_000));
    let quiet = kernel_sim::FaultPlanConfig::quiet();
    for idx in 0..8u64 {
        for t in 0..tenants {
            let cfg = if storm.targets(t, idx) {
                storm_fault_config()
            } else {
                quiet
            };
            kernel.arm_fault_plan(FaultPlan::with_config(idx ^ (t as u64) << 32, cfg));
            reg.run_packet(t, "pkt", &[0u8; 16]).unwrap();
        }
    }

    for t in 0..tenants {
        let key = reg.breaker_key(t, "pkt").unwrap();
        assert_eq!(
            quarantine.is_quarantined(&key),
            storm.is_victim(t),
            "tenant {t}: breaker state must match victim status"
        );
    }
    assert_eq!(
        kernel.metrics.snapshot().quarantine_trips,
        storm.victims().len() as u64,
        "exactly the victims' breakers trip"
    );
    // Victims are refused, neighbors keep serving.
    let victim = storm.victims()[0];
    let bystander = (0..tenants).find(|t| !storm.is_victim(*t)).unwrap();
    kernel.arm_fault_plan(FaultPlan::with_config(99, quiet));
    assert_eq!(
        reg.run_packet(victim, "pkt", &[0u8; 16]).unwrap().verdict,
        RunVerdict::Refused
    );
    assert_eq!(
        reg.run_packet(bystander, "pkt", &[0u8; 16])
            .unwrap()
            .verdict,
        RunVerdict::Ok(16)
    );
}

#[test]
fn slash_in_tenant_name_cannot_alias_another_tenants_breaker() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let a = reg.register("a", TenantBudget::default()).unwrap();
    reg.attach(a, "b/c", ProgramSpec::Safe(const_ext("a", 7)))
        .unwrap();

    // Tenant `a/b` at point `c` would share `a`'s breaker key `a/b/c`, so
    // three kills of its extension would quarantine `a` as well.
    let aliased = reg.register("a/b", TenantBudget::default());
    if let Ok(id) = aliased {
        reg.attach(
            id,
            "c",
            ProgramSpec::Safe(Extension::new("runaway", ProgType::SocketFilter, |_| {
                Err(ExtError::DeadlineExceeded)
            })),
        )
        .unwrap();
        for _ in 0..3 {
            reg.run_packet(id, "c", &[0u8; 8]).unwrap();
        }
    }
    assert_eq!(
        reg.run_packet(a, "b/c", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(7)
    );
    assert_eq!(
        aliased,
        Err(TenancyError::InvalidTenantName("a/b".to_string()))
    );
}

#[test]
fn quarantined_tenant_recovers_through_half_open_probe() {
    let (kernel, maps, helpers) = world();
    let quarantine = Arc::new(Quarantine::new(2).with_cooldown(3));
    let mut reg = TenantRegistry::with_quarantine(&kernel, &maps, &helpers, quarantine.clone());
    let id = reg.register("flaky", TenantBudget::default()).unwrap();
    reg.attach(
        id,
        "pkt",
        ProgramSpec::Safe(Extension::new("flaky/pkt", ProgType::SocketFilter, |_| {
            Err(ExtError::DeadlineExceeded)
        })),
    )
    .unwrap();

    // Two deadline kills trip the breaker.
    for _ in 0..2 {
        assert_eq!(
            reg.run_packet(id, "pkt", &[0u8; 8]).unwrap().verdict,
            RunVerdict::Killed
        );
    }
    let key = reg.breaker_key(id, "pkt").unwrap();
    assert!(quarantine.is_quarantined(&key));

    // The tenant ships a fix via hot upgrade while quarantined.
    reg.upgrade(id, "pkt", ProgramSpec::Safe(const_ext("flaky/pkt-v2", 5)))
        .unwrap();

    // Three refused admissions are the cooldown, then the probe runs the
    // fixed version clean and the tenant is readmitted — no operator
    // reset() involved.
    for _ in 0..3 {
        assert_eq!(
            reg.run_packet(id, "pkt", &[0u8; 8]).unwrap().verdict,
            RunVerdict::Refused
        );
    }
    assert_eq!(
        reg.run_packet(id, "pkt", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(5)
    );
    assert!(!quarantine.is_quarantined(&key));
    assert_eq!(
        reg.run_packet(id, "pkt", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(5)
    );
}

#[test]
fn registry_scales_to_a_thousand_tenants() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let n = 1000u32;
    for t in 0..n {
        let id = reg
            .register(&format!("tenant{t}"), TenantBudget::small())
            .unwrap();
        let spec = if t % 2 == 0 {
            ProgramSpec::Ebpf(const_prog(t as i32))
        } else {
            ProgramSpec::Safe(const_ext(&format!("tenant{t}/pkt"), t as u64))
        };
        reg.attach(id, "pkt", spec).unwrap();
        reg.create_map(id, MapDef::array(&format!("m{t}"), 8, 8))
            .unwrap();
    }
    assert_eq!(reg.tenant_count(), 1000);
    assert_eq!(reg.attached_count(), 1000);
    // Spot-check that every tenant's program answers with its own value.
    for t in [0u32, 1, 499, 998, 999] {
        let out = reg.run_packet(t, "pkt", &[0u8; 8]).unwrap();
        assert_eq!(out.verdict, RunVerdict::Ok(t as u64), "tenant {t}");
    }
    // And a mid-fleet unload disturbs nobody else.
    reg.unload_tenant(500).unwrap();
    assert_eq!(reg.attached_count(), 999);
    assert_eq!(
        reg.run_packet(499, "pkt", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(499)
    );
    assert_eq!(
        reg.run_packet(501, "pkt", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(501)
    );
}

/// A program the verifier rejects (wild pointer deref), for the sandbox
/// dialect: it loads fine unverified and traps at run time.
fn wild_prog() -> Program {
    let insns = Asm::new()
        .lddw(Reg::R1, 0xdead_beef_0000)
        .ldx(ebpf::insn::BPF_DW, Reg::R0, Reg::R1, 0)
        .exit()
        .build()
        .unwrap();
    Program::new("wild", ProgType::SocketFilter, insns)
}

#[test]
fn sandbox_dialect_skips_the_verifier_and_traps_at_runtime() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::default()).unwrap();

    // The verified dialect rejects this program at load...
    assert!(matches!(
        reg.attach(id, "xdp", ProgramSpec::Ebpf(wild_prog())),
        Err(TenancyError::Verifier(_))
    ));
    // ...the sandbox dialect admits it and confines it at run time.
    reg.attach(id, "xdp", ProgramSpec::Sandbox(wild_prog()))
        .unwrap();
    let outcome = reg.run_packet(id, "xdp", &[0u8; 8]).unwrap();
    assert_eq!(outcome.verdict, RunVerdict::Killed);
    // Trap, not oops: the tenant dies, the kernel stays pristine.
    assert!(kernel.health().pristine());

    // A well-behaved sandboxed program runs to completion.
    let mut reg2 = TenantRegistry::new(&kernel, &maps, &helpers);
    let id2 = reg2.register("t1", TenantBudget::default()).unwrap();
    reg2.attach(id2, "xdp", ProgramSpec::Sandbox(const_prog(7)))
        .unwrap();
    assert_eq!(
        reg2.run_packet(id2, "xdp", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(7)
    );
}

#[test]
fn sandbox_traps_trip_the_tenant_breaker() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::default()).unwrap();
    reg.attach(id, "xdp", ProgramSpec::Sandbox(wild_prog()))
        .unwrap();
    // Default breaker threshold is 3 consecutive kills.
    for _ in 0..3 {
        assert_eq!(
            reg.run_packet(id, "xdp", &[0u8; 8]).unwrap().verdict,
            RunVerdict::Killed
        );
    }
    assert_eq!(
        reg.run_packet(id, "xdp", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Refused
    );
    assert!(kernel.health().pristine());
}

#[test]
fn sandbox_domain_quota_limits_attached_domains() {
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let budget = TenantBudget {
        max_domains: 1,
        ..TenantBudget::default()
    };
    let id = reg.register("t0", budget).unwrap();
    reg.attach(id, "a", ProgramSpec::Sandbox(const_prog(1)))
        .unwrap();
    // A second domain is over quota; the other dialects are not.
    assert!(matches!(
        reg.attach(id, "b", ProgramSpec::Sandbox(const_prog(2))),
        Err(TenancyError::DomainQuota { limit: 1 })
    ));
    reg.attach(id, "b", ProgramSpec::Ebpf(const_prog(2)))
        .unwrap();
    reg.attach(id, "c", ProgramSpec::Safe(const_ext("c", 3)))
        .unwrap();
    // Sandbox-for-sandbox upgrade reuses the domain slot...
    reg.upgrade(id, "a", ProgramSpec::Sandbox(const_prog(4)))
        .unwrap();
    assert_eq!(
        reg.run_packet(id, "a", &[0u8; 8]).unwrap().verdict,
        RunVerdict::Ok(4)
    );
    // ...and detaching frees it for someone else.
    reg.detach(id, "a").unwrap();
    reg.attach(id, "d", ProgramSpec::Sandbox(const_prog(5)))
        .unwrap();
}

#[test]
fn small_sandbox_tenant_serves_again_once_faults_stop() {
    // Each sandboxed run maps an 8 KiB protection domain charged to the
    // tenant; a small budget holds two. A run whose skb allocation fails
    // must give its domain back, or two such runs leave the tenant over
    // quota — every later run killed — long after the faults stop.
    let (kernel, maps, helpers) = world();
    let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
    let id = reg.register("t0", TenantBudget::small()).unwrap();
    reg.attach(id, "xdp", ProgramSpec::Sandbox(const_prog(7)))
        .unwrap();
    kernel.arm_fault_plan(FaultPlan::with_config(
        2,
        FaultPlanConfig {
            alloc_fail_rate: 0.5,
            ..FaultPlanConfig::quiet()
        },
    ));
    for _ in 0..4 {
        reg.run_packet(id, "xdp", &[0u8; 8]).unwrap();
    }
    kernel.disarm_faults();
    let verdicts: Vec<RunVerdict> = (0..12)
        .map(|_| reg.run_packet(id, "xdp", &[0u8; 8]).unwrap().verdict)
        .collect();
    // The faults tripped the breaker: its cooldown refuses eight runs,
    // then the half-open probe and every run after it are served.
    let mut expected = vec![RunVerdict::Refused; 8];
    expected.extend([RunVerdict::Ok(7); 4]);
    assert_eq!(verdicts, expected);
    assert_eq!(reg.mem_bytes(id), 0);
}
