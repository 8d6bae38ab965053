//! §3.1 load path: in-kernel verification vs signature validation +
//! load-time fixup — the cost the paper proposes to remove from the
//! kernel — and the JIT lowering that is the sandbox lane's whole load.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::{ladder, workloads};
use ebpf::helpers::HelperRegistry;
use ebpf::jit::{jit_lower, JitConfig};
use ebpf::maps::MapRegistry;
use ebpf::program::{ProgType, Program};
use kernel_sim::Kernel;
use safe_ext::toolchain::Toolchain;
use safe_ext::{Extension, ExtensionRegistry, Loader};
use signing::{KeyStore, SigningKey};
use verifier::Verifier;

fn bench_load_paths(c: &mut Criterion) {
    let kernel = Kernel::new();
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);

    let key = SigningKey::derive(1);
    let toolchain = Toolchain::new(key.clone());
    let mut keyring = KeyStore::new();
    keyring.enroll(&key).unwrap();
    keyring.seal();
    let loader = Loader::new(&kernel, keyring);
    let mut registry = ExtensionRegistry::new();
    registry.link(
        "entry",
        Extension::new("e", ProgType::SocketFilter, |_| Ok(0)),
    );

    let mut group = c.benchmark_group("load-path");
    for n in [256usize, 1024, 4096] {
        let prog = workloads::straightline(n);
        group.bench_with_input(BenchmarkId::new("baseline-verify", n), &prog, |b, prog| {
            b.iter(|| verifier.verify(prog).expect("verifies"));
        });
        let source = format!(
            "fn ext(ctx: &ExtCtx) -> Result<u64, ExtError> {{\n{}    Ok(0)\n}}\n",
            "    let _ = 1 + 1;\n".repeat(n / 2)
        );
        let signed = toolchain
            .build(&source, "e", ProgType::SocketFilter, "entry", &["maps"])
            .expect("builds");
        group.bench_with_input(
            BenchmarkId::new("safe-ext-signed-load", n),
            &signed,
            |b, signed| {
                b.iter(|| loader.load(signed, &registry).expect("loads"));
            },
        );
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    // The one check the kernel keeps: a fixed outer HMAC block plus the
    // artifact's SHA-256 blocks.
    let key = SigningKey::derive(1);
    let mut keyring = KeyStore::new();
    keyring.enroll(&key).unwrap();
    keyring.seal();
    let mut group = c.benchmark_group("signing/validate");
    for len in [96usize, 1024, 16 * 1024] {
        let artifact = vec![0xa5u8; len];
        let sig = key.sign(&artifact);
        group.bench_with_input(
            BenchmarkId::from_parameter(len),
            &artifact,
            |b, artifact| {
                b.iter(|| keyring.validate(artifact, &sig).expect("validates"));
            },
        );
    }
    group.finish();
}

fn bench_jit_lower(c: &mut Criterion) {
    // The ladder's 23 programs (12 accepted, 11 violations); lowering
    // never resolves a map fd, so any fds do.
    let progs: Vec<Program> = ladder::rungs(1, 2, 3)
        .into_iter()
        .flat_map(|r| {
            let violations = r.violations.into_iter().map(|(prog, _)| prog);
            r.accepted.into_iter().chain(violations)
        })
        .collect();
    let sandbox = JitConfig {
        sandbox: true,
        ..JitConfig::default()
    };
    let mut group = c.benchmark_group("jit/lower");
    for (name, config) in [("plain", JitConfig::default()), ("sandbox", sandbox)] {
        let id = BenchmarkId::new(name, format!("{}-ladder-programs", progs.len()));
        group.bench_with_input(id, &progs, |b, progs| {
            b.iter(|| {
                for prog in progs {
                    let _ = black_box(jit_lower(prog, config));
                }
            });
        });
    }
    group.finish();
}

fn bench_toolchain(c: &mut Criterion) {
    // The cost that *moved to userspace*: the safety scan + signing.
    let toolchain = Toolchain::new(SigningKey::derive(2));
    let source = format!(
        "fn ext(ctx: &ExtCtx) -> Result<u64, ExtError> {{\n{}    Ok(0)\n}}\n",
        "    let value = ctx.pid_tgid()?;\n".repeat(500)
    );
    c.bench_function("toolchain/check-and-sign-1kloc", |b| {
        b.iter(|| {
            toolchain
                .build(&source, "e", ProgType::SocketFilter, "entry", &["task"])
                .expect("builds")
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_load_paths, bench_validate, bench_jit_lower, bench_toolchain
}
criterion_main!(benches);
