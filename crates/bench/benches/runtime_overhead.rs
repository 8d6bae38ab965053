//! §3.1 runtime cost: the per-event price of the lightweight runtime
//! mechanisms vs the interpreted baseline, on identical packet workloads.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use bench::hooks::HookFamily;
use bench::workloads;
use ebpf::helpers::HelperRegistry;
use ebpf::interp::{CtxInput, Vm};
use ebpf::jit::JitConfig;
use ebpf::maps::{MapDef, MapFd, MapRegistry};
use ebpf::program::ProgType;
use kernel_sim::mem::{KernelMem, Perms};
use kernel_sim::Kernel;
use safe_ext::{ExtInput, Extension, Runtime};
use tenancy::{HookInput, ProgramSpec, RunVerdict, TenantBudget, TenantId, TenantRegistry};
use verifier::Verifier;

/// The safe-dialect mirror of `workloads::packet_filter`: counts the
/// packet's protocol class in `fd` and returns its length.
fn filter_ext(fd: MapFd) -> Extension {
    Extension::new("filter.rs", ProgType::SocketFilter, move |ctx| {
        let pkt = ctx.packet()?;
        if pkt.len() < 2 {
            return Ok(0);
        }
        let proto = (pkt.load_u8(0)? & 3) as u32;
        ctx.array(fd)?.fetch_add_u64(proto, 0, 1)?;
        Ok(pkt.len() as u64)
    })
}

fn bench_packet_path(c: &mut Criterion) {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let fd = maps.create(&kernel, MapDef::array("counts", 8, 4)).unwrap();

    let prog = workloads::packet_filter(fd);
    Verifier::new(&maps, &helpers).verify(&prog).unwrap();
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load(prog);
    c.bench_function("runtime/baseline-interpreted-filter", |b| {
        b.iter(|| {
            let result = vm.run(id, CtxInput::Packet(vec![1, 0xaa, 0xbb]));
            assert!(result.result.is_ok());
        });
    });

    let ext = filter_ext(fd);
    let runtime = Runtime::new(&kernel, &maps);
    c.bench_function("runtime/safe-ext-filter", |b| {
        b.iter(|| {
            let outcome = runtime.run(&ext, ExtInput::Packet(vec![1, 0xaa, 0xbb]));
            assert!(outcome.result.is_ok());
        });
    });
}

fn bench_guard_costs(c: &mut Criterion) {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let runtime = Runtime::new(&kernel, &maps);

    // The watchdog poll itself.
    let tick_ext = Extension::new("ticker", ProgType::Kprobe, |ctx| {
        for _ in 0..1000 {
            ctx.tick()?;
        }
        Ok(0)
    });
    c.bench_function("runtime/1000-watchdog-polls", |b| {
        b.iter(|| {
            let outcome = runtime.run(&tick_ext, ExtInput::None);
            assert!(outcome.result.is_ok());
        });
    });

    // RAII guard acquire/release round trip.
    let sk_ext = Extension::new("sk", ProgType::SocketFilter, |ctx| {
        let guard = ctx.lookup_tcp(
            kernel_sim::objects::SockAddr::new(0x0a00_0001, 443),
            kernel_sim::objects::SockAddr::new(0x0a00_0064, 51724),
        )?;
        Ok(guard.is_some() as u64)
    });
    c.bench_function("runtime/raii-socket-guard-roundtrip", |b| {
        b.iter(|| {
            let outcome = runtime.run(&sk_ext, ExtInput::None);
            assert_eq!(outcome.unwrap(), 1);
        });
    });
}

fn bench_map_access(c: &mut Criterion) {
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let fd = maps.create(&kernel, MapDef::array("m", 8, 16)).unwrap();

    // Baseline: helper-call + raw pointer write, interpreted.
    let prog = {
        use ebpf::asm::Asm;
        use ebpf::insn::*;
        let insns = Asm::new()
            .st(BPF_W, Reg::R10, -4, 3)
            .ld_map_fd(Reg::R1, fd)
            .mov64_reg(Reg::R2, Reg::R10)
            .alu64_imm(BPF_ADD, Reg::R2, -4)
            .call_helper(ebpf::helpers::BPF_MAP_LOOKUP_ELEM as i32)
            .jmp64_imm(BPF_JNE, Reg::R0, 0, "hit")
            .exit()
            .label("hit")
            .ldx(BPF_DW, Reg::R1, Reg::R0, 0)
            .alu64_imm(BPF_ADD, Reg::R1, 1)
            .stx(BPF_DW, Reg::R0, 0, Reg::R1)
            .mov64_imm(Reg::R0, 0)
            .exit()
            .build()
            .unwrap();
        ebpf::Program::new("bump", ProgType::Kprobe, insns)
    };
    Verifier::new(&maps, &helpers).verify(&prog).unwrap();
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let id = vm.load(prog);
    c.bench_function("map-access/baseline-lookup-bump", |b| {
        b.iter(|| {
            assert!(vm.run(id, CtxInput::None).result.is_ok());
        });
    });

    let ext = Extension::new("bump.rs", ProgType::Kprobe, move |ctx| {
        ctx.array(fd)?.fetch_add_u64(3, 0, 1)
    });
    let runtime = Runtime::new(&kernel, &maps);
    c.bench_function("map-access/safe-ext-handle-bump", |b| {
        b.iter(|| {
            assert!(runtime.run(&ext, ExtInput::None).result.is_ok());
        });
    });
}

/// Checked memory at fleet scale: a run touches its own regions, the
/// newest ones, while thousands of older ones (map values, other
/// tenants' state) stay live; a sandbox run charges its domain to one
/// of hundreds of quota'd tenants.
fn bench_checked_mem(c: &mut Criterion) {
    let mut group = c.benchmark_group("checked-mem");
    for live in [16, 4096] {
        let mem = KernelMem::new();
        let bases: Vec<_> = (0..live)
            .map(|_| mem.map("region", 64, Perms::rw()).unwrap())
            .collect();
        for (name, addr) in [("newest", bases[live - 1]), ("oldest", bases[0])] {
            group.bench_function(format!("read_u64-{name}/{live}-regions"), |b| {
                b.iter(|| mem.read_u64(black_box(addr)).unwrap());
            });
        }
    }

    let mem = KernelMem::new();
    for domain in 1..=256 {
        mem.set_domain_quota(domain, 1 << 20);
    }
    let mut domain = 0;
    group.bench_function("map_in_domain+unmap/256-domains", |b| {
        b.iter(|| {
            domain = domain % 256 + 1;
            let addr = mem.map_in_domain("domain", 8192, Perms::rw(), domain);
            mem.unmap(addr.unwrap()).unwrap();
        });
    });

    // The counter map's value is mapped first, so it is the oldest
    // region; the run's ctx, skb and stack are the newest.
    let kernel = Kernel::new();
    kernel.populate_demo_env();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let fd = maps.create(&kernel, MapDef::array("counts", 8, 4)).unwrap();
    for _ in 0..4096 {
        kernel.mem.map("background", 64, Perms::rw()).unwrap();
    }
    let mut vm = Vm::new(&kernel, &maps, &helpers);
    let (id, _) = vm
        .load_jit(workloads::packet_filter(fd), JitConfig::default())
        .unwrap();
    group.bench_function("run_packet-jit/4096-regions", |b| {
        b.iter(|| assert!(vm.run_packet(id, &[1, 0xaa, 0xbb]).result.is_ok()));
    });
    group.finish();
}

/// The tenancy front door: `TenantRegistry::run_input` per backend, on a
/// registry of 4 and of 256 tenants that each attach a packet filter at
/// `xdp` and a kprobe program at `probe`. Runs go round-robin over the
/// tenants, so the larger registry pays for its working set.
fn bench_front_door(c: &mut Criterion) {
    let mut group = c.benchmark_group("tenancy/run_input");
    for tenants in [4, 256] {
        for backend in ["safe-ext", "ebpf-jit", "sandbox-jit"] {
            let kernel = Kernel::new();
            kernel.populate_demo_env();
            let maps = MapRegistry::default();
            let helpers = HelperRegistry::standard();
            let mut reg = TenantRegistry::new(&kernel, &maps, &helpers);
            let ids: Vec<TenantId> = (0..tenants)
                .map(|t| {
                    let id = reg
                        .register(&format!("t{t}"), TenantBudget::default())
                        .unwrap();
                    let fd = reg.create_map(id, MapDef::array("counts", 8, 4)).unwrap();
                    let probe = HookFamily::Kprobe;
                    let (filter, kprobe) = match backend {
                        "safe-ext" => (
                            ProgramSpec::Safe(filter_ext(fd)),
                            ProgramSpec::Safe(probe.extension(id, 1)),
                        ),
                        "ebpf-jit" => (
                            ProgramSpec::EbpfJit(workloads::packet_filter(fd)),
                            ProgramSpec::EbpfJit(probe.program(1)),
                        ),
                        _ => (
                            ProgramSpec::SandboxJit(workloads::packet_filter(fd)),
                            ProgramSpec::SandboxJit(probe.program(1)),
                        ),
                    };
                    reg.attach(id, "xdp", filter).unwrap();
                    reg.attach(id, "probe", kprobe).unwrap();
                    id
                })
                .collect();
            let inputs = [
                ("packet", "xdp", HookInput::Packet(&[1, 0xaa, 0xbb])),
                (
                    "kprobe",
                    "probe",
                    HookInput::Kprobe([2, 1 << 10, 0, 0, 0, 0, 0, 0]),
                ),
            ];
            for (kind, point, input) in inputs {
                let mut next = 0;
                group.bench_function(format!("{backend}/{kind}/{tenants}-tenants"), |b| {
                    b.iter(|| {
                        next = (next + 1) % ids.len();
                        let out = reg.run_input(ids[next], point, input).unwrap();
                        assert!(matches!(out.verdict, RunVerdict::Ok(_)));
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_packet_path, bench_guard_costs, bench_map_access, bench_checked_mem,
        bench_front_door
}
criterion_main!(benches);
