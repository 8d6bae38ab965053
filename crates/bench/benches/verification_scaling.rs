//! §2.1 "Verification is expensive": how long verification takes as
//! programs grow, per program shape. The ladder (`BENCH_verifier.json`)
//! prices each feature with programs that use it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::workloads;
use ebpf::helpers::HelperRegistry;
use ebpf::maps::MapRegistry;
use verifier::Verifier;

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_by_size
}
criterion_main!(benches);
