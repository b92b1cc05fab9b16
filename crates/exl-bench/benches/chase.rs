//! B3 — the cost of executing through the chase: stratified chase vs the
//! reference interpreter (same asymptotics, constant-factor overhead for
//! homomorphism enumeration and egd bookkeeping), plus the ablation
//! against the classical fair chase, whose repeated passes re-scan every
//! rule until the fixpoint is *detected* rather than known.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use exl_bench::{dataset_rows, gdp_at_scale, write_bench_metrics};
use exl_chase::{chase, chase_traced, ChaseMode};
use exl_map::generate::{generate_mapping, GenMode};
use exl_workload::{random_scenario, RandomConfig};

fn bench_chase(c: &mut Criterion) {
    let mut group = c.benchmark_group("B3/chase-vs-eval");
    group.sample_size(10);
    for (regions, quarters) in [(4usize, 12usize), (8, 24), (16, 48)] {
        let (analyzed, data, label) = gdp_at_scale(regions, quarters);
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        group.throughput(Throughput::Elements(dataset_rows(&data) as u64));
        group.bench_with_input(BenchmarkId::new("eval", &label), &(), |b, _| {
            b.iter(|| exl_eval::run_program(&analyzed, &data).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("chase-stratified", &label), &(), |b, _| {
            b.iter(|| chase(&mapping, &re.schemas, &data, ChaseMode::Stratified).unwrap())
        });
    }
    group.finish();

    // the fair-chase ablation needs a tuple-level-only program (fair mode
    // is not sound for aggregations fired early — see the chase tests)
    let mut group = c.benchmark_group("B3/stratified-vs-fair");
    group.sample_size(10);
    for quarters in [16usize, 64, 256] {
        let (analyzed, data) = random_scenario(RandomConfig {
            statements: 8,
            multituple: false,
            quarters,
            seed: 11,
            ..RandomConfig::default()
        });
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        group.throughput(Throughput::Elements(dataset_rows(&data) as u64));
        group.bench_with_input(BenchmarkId::new("stratified", quarters), &(), |b, _| {
            b.iter(|| chase(&mapping, &re.schemas, &data, ChaseMode::Stratified).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fair", quarters), &(), |b, _| {
            b.iter(|| chase(&mapping, &re.schemas, &data, ChaseMode::Fair).unwrap())
        });
    }
    group.finish();

    // one instrumented pass at the largest GDP scale: span data and chase
    // counters for the B3 section of the collected report
    let registry = exl_obs::MetricsRegistry::new();
    let (analyzed, data, _) = gdp_at_scale(16, 48);
    let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
    chase_traced(
        &mapping,
        &re.schemas,
        &data,
        ChaseMode::Stratified,
        &registry,
        &exl_obs::Span::disabled(),
    )
    .unwrap();
    write_bench_metrics("B3", &registry);
}

criterion_group!(benches, bench_chase);
criterion_main!(benches);
