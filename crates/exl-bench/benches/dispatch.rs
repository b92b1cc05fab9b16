//! B5 — §6's parallelism claim: a stage of independent subgraphs, at
//! widths 2, 4 and 8. The dispatcher runs a stage's subgraphs one after
//! another on the dispatching thread; within each subgraph the evaluator
//! fans out over the cores. Running the stage's subgraphs on scoped
//! threads lost on a 2-core host (EXPERIMENTS.md § One dispatch path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exl_engine::{ExlEngine, TargetKind};
use exl_workload::chains::{forest_program, forest_scenario};

const DEPTH: usize = 3;
const QUARTERS: usize = 512;

fn build_engine(width: usize) -> ExlEngine {
    let (analyzed, data) = forest_scenario(width, DEPTH, QUARTERS);
    let mut e = ExlEngine::new();
    e.register_program("forest", &forest_program(width, DEPTH))
        .unwrap();
    // one subgraph per chain: alternate affinity between two targets so
    // the partitioner cannot merge chains
    for w in 0..width {
        let target = if w % 2 == 0 {
            TargetKind::Native
        } else {
            TargetKind::Chase
        };
        for d in 1..=DEPTH {
            let id = format!("F{w}_{d}");
            e.catalog
                .set_affinity(&id.as_str().into(), Some(target))
                .unwrap();
        }
    }
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    e
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5/dispatcher");
    group.sample_size(10);
    for width in [2usize, 4, 8] {
        let mut e = build_engine(width);
        group.bench_with_input(BenchmarkId::new("sequential", width), &(), |b, _| {
            b.iter(|| e.run_all().unwrap())
        });
    }
    group.finish();

    // one instrumented pass: per-subgraph spans from the dispatcher,
    // written for the B5 section of the collected report
    let mut e = build_engine(4);
    let registry = e.enable_metrics();
    e.run_all().unwrap();
    exl_bench::write_bench_metrics("B5", &registry);
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
