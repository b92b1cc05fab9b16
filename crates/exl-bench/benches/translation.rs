//! B1 — §6's claim that translation (EXL → mapping → executable) "can be
//! efficiently performed off line" and "does not affect the global elapsed
//! time for calculations": translation time grows only with program size
//! and sits orders of magnitude below execution time on real data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exl_engine::{translate, TargetKind};
use exl_workload::chains::chain_scenario;

fn bench_translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("B1/translate");
    group.sample_size(20);
    for depth in [5usize, 20, 80] {
        let (analyzed, _) = chain_scenario(depth, 8);
        for target in [
            TargetKind::Sql,
            TargetKind::R,
            TargetKind::Matlab,
            TargetKind::Etl,
        ] {
            group.bench_with_input(BenchmarkId::new(target.name(), depth), &depth, |b, _| {
                b.iter(|| translate(&analyzed, target).unwrap())
            });
        }
    }
    group.finish();

    // execution at the same program sizes, on non-trivial data: the
    // number the translation cost should vanish next to
    let mut group = c.benchmark_group("B1/execute-native");
    group.sample_size(10);
    for depth in [5usize, 20, 80] {
        let (analyzed, data) = chain_scenario(depth, 2000);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| exl_eval::run_program(&analyzed, &data).unwrap())
        });
    }
    group.finish();

    // the statement-at-a-time reference path: the guard group that keeps
    // the plan-compilation win visible — `collect_bench.py --trajectory`
    // shows execute-native (fused) dropping away from this line
    let mut group = c.benchmark_group("B1/execute-native-unfused");
    group.sample_size(10);
    for depth in [5usize, 20, 80] {
        let (analyzed, data) = chain_scenario(depth, 2000);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| exl_eval::run_program_unfused(&analyzed, &data).unwrap())
        });
    }
    group.finish();

    // the same execution with a flight ring entered: the overhead guard —
    // medians must stay within noise of the run without one above
    // (`scripts/bench.sh` runs both; tests/tests/flight_overhead.rs pins
    // the ring-less path to zero allocations)
    let mut group = c.benchmark_group("B1/execute-native-recorder-armed");
    group.sample_size(10);
    let ring = exl_obs::flight::FlightRing::new(exl_obs::flight::DEFAULT_CAPACITY);
    let entered = ring.enter();
    for depth in [5usize, 20, 80] {
        let (analyzed, data) = chain_scenario(depth, 2000);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| exl_eval::run_program(&analyzed, &data).unwrap())
        });
    }
    drop(entered);
    group.finish();
}

criterion_group!(benches, bench_translation);
criterion_main!(benches);
