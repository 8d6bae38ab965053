//! §2.1 "Verification is expensive" + Figure 2 companion: how long
//! verification takes as programs grow, per program shape and per
//! historical feature set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::workloads;
use ebpf::helpers::HelperRegistry;
use ebpf::maps::MapRegistry;
use verifier::{Verifier, VerifierFeatures};

fn bench_by_size(c: &mut Criterion) {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let verifier = Verifier::new(&maps, &helpers);

    let mut group = c.benchmark_group("verify/straightline");
    for n in [64usize, 256, 1024] {
        let prog = workloads::straightline(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &prog, |b, prog| {
            b.iter(|| verifier.verify(prog).expect("verifies"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("verify/diamonds");
    for n in [16usize, 64, 256] {
        let prog = workloads::diamonds(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &prog, |b, prog| {
            b.iter(|| verifier.verify(prog).expect("verifies"));
        });
    }
    group.finish();

    // The headline scalability pain: verification cost grows with LOOP
    // TRIP COUNT, not program size — a 7-insn program can cost thousands
    // of verifier steps. Host time grows linearly with those steps, up to
    // 32,768 trips (98,308 processed instructions).
    let mut group = c.benchmark_group("verify/loop-trip-count");
    for n in [16i32, 128, 1024, 8192, 32768] {
        let prog = workloads::counted_loop(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &prog, |b, prog| {
            b.iter(|| verifier.verify(prog).expect("verifies"));
        });
    }
    group.finish();
}

fn bench_by_feature_set(c: &mut Criterion) {
    let maps = MapRegistry::default();
    let helpers = HelperRegistry::standard();
    let prog = workloads::straightline(512);

    let mut group = c.benchmark_group("verify/by-feature-era");
    for version in [
        ebpf::KernelVersion::V3_18,
        ebpf::KernelVersion::V4_20,
        ebpf::KernelVersion::V6_1,
    ] {
        let verifier =
            Verifier::new(&maps, &helpers).with_features(VerifierFeatures::for_version(version));
        group.bench_with_input(BenchmarkId::from_parameter(version), &prog, |b, prog| {
            b.iter(|| verifier.verify(prog).expect("verifies"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_by_size, bench_by_feature_set
}
criterion_main!(benches);
