//! Shard-invariance differential coverage of the sharded dispatcher.
//!
//! Sharding is only allowed to change *where* a native subgraph's rows
//! are computed, never a single bit of what comes out. Each case builds
//! a seeded random program with matching data and runs it through the
//! full engine at shard counts 1, 2, 4 and 8, and every run must be
//! bit-identical (`approx_eq` tolerance `0.0`) to the
//! unsharded reference. A corpus-wide tally asserts the matrix is not
//! vacuous: a healthy fraction of the seeded programs must actually
//! admit a shard plan and dispatch sharded.
//!
//! The warm half pins the run cache: a sharded subgraph consults and
//! stores it exactly as an unsharded one, so cache counts, diffed rows
//! and disk entries do not depend on the shard count, and warm delta
//! runs still match a cold unsharded run over the patched data bit for
//! bit.

use exl_engine::{ExlEngine, SubgraphStatus};
use exl_lang::analyze::AnalyzedProgram;
use exl_model::value::DimValue;
use exl_model::Dataset;
use exl_workload::{random_scenario, wide_program, wide_scenario, RandomConfig, WideConfig};

/// A full engine over `src`/`input`, sharded `shards` ways (`None` =
/// unsharded reference).
fn engine_for(
    src: &str,
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    shards: Option<usize>,
) -> ExlEngine {
    let mut e = ExlEngine::new();
    e.shards = shards;
    e.register_program("p", src).expect("program registers");
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, input.data(&id).expect("input data").clone())
            .expect("elementary loads");
    }
    e
}

/// Run to completion and pull every derived cube out of the catalog.
/// Returns the run's report alongside, so callers can inspect whether
/// (and how) sharding engaged.
fn run_collect(e: &mut ExlEngine, analyzed: &AnalyzedProgram) -> (Dataset, bool) {
    let report = e.run_all().expect("run succeeds");
    let sharded = report.subgraphs.iter().any(|s| !s.shards.is_empty());
    let mut out = Dataset::new();
    for id in analyzed.program.derived_ids() {
        let data = e.data(&id).expect("derived cube computed").clone();
        let schema = analyzed.schemas[&id].clone();
        out.put(exl_model::Cube::new(schema, data));
    }
    (out, sharded)
}

fn assert_bit_identical(analyzed: &AnalyzedProgram, a: &Dataset, b: &Dataset, label: &str) {
    for id in analyzed.program.derived_ids() {
        let x = a.data(&id).expect("reference derived");
        let y = b
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing on the sharded side"));
        assert!(
            x.approx_eq(y, 0.0),
            "{label}: {id} is not bit-identical\nprogram:\n{}\n{:?}",
            exl_lang::program_to_string(&analyzed.program),
            x.diff(y, 0.0)
        );
    }
}

/// The headline matrix: 100 seeded random programs, each executed at
/// shard counts 1/2/4/8, all bit-identical to the unsharded reference — with a corpus-wide floor on how many
/// cases really dispatched sharded, so a planner regression that stops
/// sharding everything cannot pass vacuously.
#[test]
fn sharded_runs_are_bit_identical_over_100_seeded_programs() {
    let mut sharded_cases = 0usize;
    for seed in 0..100u64 {
        let cfg = RandomConfig {
            seed,
            statements: 3 + (seed as usize % 7),
            multituple: true,
            ..RandomConfig::default()
        };
        let (analyzed, input) = random_scenario(cfg);
        let src = exl_lang::program_to_string(&analyzed.program);
        let mut reference = engine_for(&src, &analyzed, &input, None);
        let (want, _) = run_collect(&mut reference, &analyzed);
        let mut case_sharded = false;
        for shards in [1usize, 2, 4, 8] {
            let label = format!("seed {seed}, {shards} shard(s)");
            let mut e = engine_for(&src, &analyzed, &input, Some(shards));
            let (got, sharded) = run_collect(&mut e, &analyzed);
            assert_bit_identical(&analyzed, &want, &got, &label);
            assert!(
                shards >= 2 || !sharded,
                "{label}: a single-shard run reported shard dispatch"
            );
            case_sharded |= sharded;
        }
        if case_sharded {
            sharded_cases += 1;
        }
    }
    // the corpus is seeded and fixed, so this floor is deterministic; it
    // guards against the matrix silently degenerating to 100 unsharded
    // self-comparisons
    assert!(
        sharded_cases >= 30,
        "only {sharded_cases}/100 seeded programs dispatched sharded — \
         the invariance matrix has gone vacuous"
    );
}

/// The wide workload (the B5 bench shape, scaled down): a five-statement
/// shard-local chain over `(q, r)` capped by a cross-region merge
/// barrier, pinned bit-identical across shard counts.
#[test]
fn wide_workload_is_bit_identical_across_shard_counts() {
    let cfg = WideConfig {
        regions: 50,
        quarters: 16,
        seed: 7,
        barrier: true,
    };
    let (analyzed, input) = wide_scenario(cfg);
    let src = wide_program(cfg.barrier);
    let mut reference = engine_for(&src, &analyzed, &input, None);
    let (want, _) = run_collect(&mut reference, &analyzed);
    for shards in [1usize, 2, 4, 8] {
        let mut e = engine_for(&src, &analyzed, &input, Some(shards));
        let (got, sharded) = run_collect(&mut e, &analyzed);
        assert_eq!(sharded, shards >= 2, "wide workload must shard");
        assert_bit_identical(&analyzed, &want, &got, &format!("wide, {shards} shard(s)"));
    }
}

/// The shard count is invisible to the run cache. On the wide workload,
/// at 2, 4 and 8 shards:
///
/// * (a) a warm one-region delta is bit-identical to a cold unsharded
///   run on the patched data;
/// * (b) its cache counts and `diff_rows` equal those of an unsharded
///   cached engine on the same vintage — the sharded subgraph consults
///   and stores the cache exactly as an unsharded one does;
/// * (c) a disk cache filled by an unsharded run serves a sharded
///   engine's first run entirely from exact hits.
#[test]
fn shard_count_is_invisible_to_the_run_cache() {
    let cfg = WideConfig {
        regions: 40,
        quarters: 12,
        seed: 3,
        barrier: true,
    };
    let (analyzed, input) = wide_scenario(cfg);
    let src = wide_program(cfg.barrier);
    let w: exl_model::schema::CubeId = "W".into();
    let mut patched = input.data(&w).expect("wide input").clone();
    patched.insert_overwrite(
        vec![
            DimValue::Time(exl_model::TimePoint::Quarter {
                year: 2000,
                quarter: 1,
            }),
            DimValue::Str("r00007".into()),
        ],
        999.25,
    );
    // cold run, then the one-region vintage on the same cached engine
    let vintage = |shards: Option<usize>| {
        let mut e = engine_for(&src, &analyzed, &input, shards);
        e.enable_cache();
        let cold = e.run_all().expect("cold vintage");
        let sharded = cold.subgraphs.iter().any(|s| !s.shards.is_empty());
        assert_eq!(sharded, shards.is_some(), "{shards:?}: cold run sharding");
        e.load_elementary(&w, patched.clone()).expect("patch loads");
        let warm = e
            .recompute(std::slice::from_ref(&w))
            .expect("warm delta recompute");
        (e, warm)
    };
    let (_, unsharded) = vintage(None);
    assert!(unsharded.cache.delta_hits > 0, "{:?}", unsharded.cache);

    let mut patched_input = input.clone();
    patched_input.put(exl_model::Cube::new(
        analyzed.schemas[&w].clone(),
        patched.clone(),
    ));
    let mut reference = engine_for(&src, &analyzed, &patched_input, None);
    let (want, _) = run_collect(&mut reference, &analyzed);

    let dir = std::env::temp_dir().join(format!("exl-shard-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut filler = engine_for(&src, &analyzed, &input, None);
    filler.enable_disk_cache(&dir).expect("cache dir opens");
    filler.run_all().expect("unsharded run fills the cache");
    let statements = analyzed.program.derived_ids().len() as u64;

    for shards in [2usize, 4, 8] {
        // (a) bit-identical to cold unsharded on the patched data
        let (e, warm) = vintage(Some(shards));
        for id in analyzed.program.derived_ids() {
            let got = e.data(&id).expect("warm derived");
            let x = want.data(&id).expect("cold derived");
            assert!(
                got.approx_eq(x, 0.0),
                "{shards} shards: {id} diverged on the warm delta\n{:?}",
                got.diff(x, 0.0)
            );
        }
        // (b) the same cache work as the unsharded engine
        assert_eq!(
            (warm.cache.hits, warm.cache.delta_hits, warm.cache.misses),
            (
                unsharded.cache.hits,
                unsharded.cache.delta_hits,
                unsharded.cache.misses
            ),
            "{shards} shards: cache counts"
        );
        assert_eq!(
            warm.diff_rows, unsharded.diff_rows,
            "{shards} shards: diff_rows"
        );

        // (c) an unsharded disk cache serves the sharded first run
        let mut e = engine_for(&src, &analyzed, &input, Some(shards));
        e.enable_disk_cache(&dir).expect("cache dir opens");
        let report = e.run_all().expect("sharded run from the disk cache");
        assert_eq!(
            (
                report.cache.hits,
                report.cache.delta_hits,
                report.cache.misses
            ),
            (statements, 0, 0),
            "{shards} shards: not served by exact hits"
        );
        for sub in &report.subgraphs {
            assert_eq!(sub.status, SubgraphStatus::Cached, "{shards} shards");
            assert!(sub.shards.is_empty(), "{shards} shards: a shard ran");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Warm invariance on the random corpus: a 25-seed delta matrix — cold
/// sharded run, one-cube vintage patch, warm sharded recompute — pinned
/// bit-identical against a cold unsharded engine over the patched data,
/// at shard counts 2 and 4.
#[test]
fn warm_sharded_delta_runs_stay_bit_identical() {
    use exl_workload::DeltaGen;
    for seed in 0..25u64 {
        let cfg = RandomConfig {
            seed,
            statements: 3 + (seed as usize % 5),
            ..RandomConfig::default()
        };
        let (analyzed, input) = random_scenario(cfg);
        let src = exl_lang::program_to_string(&analyzed.program);
        for shards in [2usize, 4] {
            let mut warm = engine_for(&src, &analyzed, &input, Some(shards));
            warm.enable_cache();
            warm.run_all().expect("first vintage");

            let patch =
                DeltaGen::new(seed ^ 0x5a4d).patch_dataset(&input, 1, 1 + seed as usize % 3);
            let mut changed = Vec::new();
            let mut patched_input = input.clone();
            for (id, data) in &patch {
                warm.load_elementary(id, data.clone()).expect("patch loads");
                let schema = patched_input.get(id).expect("patched cube").schema.clone();
                patched_input.put(exl_model::Cube::new(schema, data.clone()));
                changed.push(id.clone());
            }
            warm.recompute(&changed).expect("warm delta recompute");

            let mut reference = engine_for(&src, &analyzed, &patched_input, None);
            let (want, _) = run_collect(&mut reference, &analyzed);
            for id in analyzed.program.derived_ids() {
                let got = warm.data(&id).expect("warm derived");
                let x = want.data(&id).expect("cold derived");
                assert!(
                    got.approx_eq(x, 0.0),
                    "seed {seed}, {shards} shards: {id} diverged on the warm delta\n{:?}",
                    got.diff(x, 0.0)
                );
            }
        }
    }
}
