//! B2 — backend comparison: the GDP program's end-to-end runtime on every
//! target engine, as data scale grows. Expected shape: native and SQL
//! lead; the chase pays homomorphism-enumeration overhead; the interpreted
//! R/Matlab minis trail; ETL pays per-row stream overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exl_bench::{dataset_rows, gdp_at_scale};
use exl_engine::{run_on_target, TargetKind};

fn bench_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("B2/backends");
    group.sample_size(10);
    for (regions, quarters) in [(4usize, 12usize), (8, 24), (16, 48)] {
        let (analyzed, data, label) = gdp_at_scale(regions, quarters);
        group.throughput(Throughput::Elements(dataset_rows(&data) as u64));
        for target in TargetKind::ALL {
            group.bench_with_input(BenchmarkId::new(target.name(), &label), &target, |b, &t| {
                b.iter(|| run_on_target(&analyzed, &data, t).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
