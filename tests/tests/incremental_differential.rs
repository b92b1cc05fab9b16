//! The cold≡warm differential harness pinning the run cache.
//!
//! The incremental machinery (content fingerprints, exact cache hits,
//! delta kernels, disk reload) is only allowed to change *how much work*
//! a run does, never a single bit of what it produces. Each case here
//! builds a seeded random program with matching data, runs it once to
//! warm the cache, applies a seeded random vintage delta
//! ([`exl_workload::DeltaGen`] — inserts, updates, deletes), and then
//! compares the warm incremental re-run against engines that never saw
//! the first vintage:
//!
//! * a **cold** engine loaded directly with the patched data;
//! * a cache-**disabled** engine driven through the identical two-phase
//!   load/recompute sequence;
//! * a **fresh engine over the same disk cache directory**, standing in
//!   for a new process reattaching to a persistent store (a true
//!   fresh-process reload is exercised by the `exlc --cache-dir` CLI
//!   test).
//!
//! All comparisons are **bitwise** (`approx_eq` with tolerance `0.0`):
//! the delta kernels replay the same kernels over restricted inputs, so
//! even float folds must land on identical bits.

use exl_engine::ExlEngine;
use exl_fault::FaultPlan;
use exl_lang::analyze::AnalyzedProgram;
use exl_model::fingerprint::Fingerprint;
use exl_model::schema::CubeId;
use exl_model::time::TimePoint;
use exl_model::value::DimValue;
use exl_model::{CubeData, Dataset};
use exl_workload::chains::forest_scenario;
use exl_workload::{gdp_scenario, random_scenario, DeltaGen, GdpConfig, RandomConfig, GDP_PROGRAM};

/// An engine with the program registered and `input`'s elementary cubes
/// loaded.
fn build_engine(src: &str, analyzed: &AnalyzedProgram, input: &Dataset) -> ExlEngine {
    let mut e = ExlEngine::new();
    e.register_program("p", src).expect("program registers");
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, input.data(&id).expect("input data").clone())
            .expect("elementary loads");
    }
    e
}

/// Every derived cube of `a`, bit-compared against `b`.
fn assert_bit_identical(analyzed: &AnalyzedProgram, a: &ExlEngine, b: &ExlEngine, label: &str) {
    for id in analyzed.program.derived_ids() {
        let got = a
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing in warm engine"));
        let want = b
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} missing in reference engine"));
        assert!(
            got.approx_eq(want, 0.0),
            "{label}: {id} is not bit-identical\n{:?}",
            got.diff(want, 0.0)
        );
    }
}

/// Load a patch into an engine and recompute exactly the changed cubes.
fn apply_patch(e: &mut ExlEngine, patch: &[(CubeId, CubeData)]) {
    let mut changed = Vec::new();
    for (id, data) in patch {
        e.load_elementary(id, data.clone()).expect("patch loads");
        changed.push(id.clone());
    }
    e.recompute(&changed).expect("incremental recompute");
}

/// One seeded program/delta pair: warm cached re-run ≡ cold engine ≡
/// cache-disabled engine, bit for bit. Returns the warm run's cache
/// counters so the matrix can assert aggregate behavior.
fn differential_case(seed: u64) -> exl_engine::CacheStats {
    let cfg = RandomConfig {
        seed,
        statements: 3 + (seed as usize % 6),
        ..RandomConfig::default()
    };
    let (analyzed, input) = random_scenario(cfg);
    let src = exl_lang::program_to_string(&analyzed.program);
    let patch = DeltaGen::new(seed ^ 0x5eed).patch_dataset(
        &input,
        1 + seed as usize % 2,
        1 + seed as usize % 4,
    );

    // warm: cache on, two vintages
    let mut warm = build_engine(&src, &analyzed, &input);
    warm.enable_cache();
    warm.run_all().expect("warm first vintage");
    let mut changed = Vec::new();
    for (id, data) in &patch {
        warm.load_elementary(id, data.clone()).expect("patch loads");
        changed.push(id.clone());
    }
    let report = warm
        .recompute(&changed)
        .expect("warm incremental recompute");

    // disabled: the identical call sequence without a cache
    let mut disabled = build_engine(&src, &analyzed, &input);
    disabled.run_all().expect("disabled first vintage");
    apply_patch(&mut disabled, &patch);

    // cold: never saw the first vintage at all
    let mut patched_input = input.clone();
    for (id, data) in &patch {
        let schema = patched_input
            .get(id)
            .expect("patched cube exists")
            .schema
            .clone();
        patched_input.put(exl_model::Cube::new(schema, data.clone()));
    }
    let mut cold = build_engine(&src, &analyzed, &patched_input);
    cold.run_all().expect("cold run");

    assert_bit_identical(
        &analyzed,
        &warm,
        &disabled,
        &format!("seed {seed} (cache off)"),
    );
    assert_bit_identical(&analyzed, &warm, &cold, &format!("seed {seed} (cold)"));
    report.cache
}

/// The acceptance matrix: 100 seeded program/delta pairs, every one
/// bit-identical across warm, cache-disabled, and cold engines — and the
/// cache must have actually done something across the corpus.
#[test]
fn cold_equals_warm_over_100_seeded_pairs() {
    let mut total = exl_engine::CacheStats::default();
    for seed in 0..100 {
        total.add(&differential_case(seed));
    }
    assert!(
        total.hits + total.delta_hits > 0,
        "the cache never resolved a statement across 100 pairs: {total:?}"
    );
    assert!(
        total.delta_hits > 0,
        "no delta kernel ever engaged across 100 pairs: {total:?}"
    );
    assert_eq!(total.corrupt_entries, 0);
    assert_eq!(total.write_failures, 0);
}

/// A fresh engine attached to the disk store of a previous engine must
/// replay the first vintage exactly and stay bit-identical through a
/// delta — the persistent-store variant of the differential.
#[test]
fn disk_cache_reload_stays_bit_identical() {
    for seed in [0u64, 3, 11, 42, 97] {
        let cfg = RandomConfig {
            seed,
            statements: 5,
            ..RandomConfig::default()
        };
        let (analyzed, input) = random_scenario(cfg);
        let src = exl_lang::program_to_string(&analyzed.program);
        let dir = std::env::temp_dir().join(format!("exl-incr-diff-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut first = build_engine(&src, &analyzed, &input);
        first.enable_disk_cache(&dir).expect("disk cache");
        first.run_all().expect("first engine run");
        drop(first);

        // fresh engine, same store: the whole first vintage replays
        let mut second = build_engine(&src, &analyzed, &input);
        second.enable_disk_cache(&dir).expect("disk cache");
        let replay = second.run_all().expect("replay run");
        assert_eq!(
            replay.cache.misses, 0,
            "seed {seed}: fresh engine re-executed statements: {:?}",
            replay.cache
        );

        // and a delta on top of the reloaded store stays bit-identical
        let patch = DeltaGen::new(seed).patch_dataset(&input, 1, 3);
        apply_patch(&mut second, &patch);
        let mut patched_input = input.clone();
        for (id, data) in &patch {
            let schema = patched_input.get(id).unwrap().schema.clone();
            patched_input.put(exl_model::Cube::new(schema, data.clone()));
        }
        let mut cold = build_engine(&src, &analyzed, &patched_input);
        cold.run_all().expect("cold run");
        assert_bit_identical(
            &analyzed,
            &second,
            &cold,
            &format!("seed {seed} (disk reload)"),
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// The headline claim: on a wide forest workload, a warm re-run after a
/// one-cube vintage delta executes at least 5× fewer statements than the
/// plan contains — everything off the dirty chain is served from cache.
#[test]
fn warm_one_cube_delta_skips_5x_statements() {
    let (analyzed, input) = forest_scenario(8, 4, 12);
    let src = exl_lang::program_to_string(&analyzed.program);

    let mut e = build_engine(&src, &analyzed, &input);
    e.enable_cache();
    let cold = e.run_all().expect("cold forest run");
    let total_stmts = cold.cache.misses;
    assert_eq!(total_stmts, 32, "8 chains × depth 4");

    // revise one observation of one root cube
    let root: CubeId = "F0_0".into();
    let patch = DeltaGen::new(7).patch_cube(input.data(&root).unwrap(), 2);
    e.load_elementary(&root, patch).expect("patch loads");
    // a full re-run, not a targeted recompute: the plan spans all 32
    // statements and the cache must prune it
    let warm = e.run_all().expect("warm forest run");
    let executed = warm.cache.misses;
    let resolved = warm.cache.hits + warm.cache.delta_hits;
    assert_eq!(executed + resolved, total_stmts);
    assert!(
        executed * 5 <= total_stmts,
        "warm run executed {executed} of {total_stmts} statements (cache: {:?})",
        warm.cache
    );

    // and the pruned run is still bit-identical to a cold engine
    let mut patched_input = input.clone();
    let schema = patched_input.get(&root).unwrap().schema.clone();
    patched_input.put(exl_model::Cube::new(
        schema,
        e.catalog.current(&root).unwrap().clone(),
    ));
    let mut cold_engine = build_engine(&src, &analyzed, &patched_input);
    cold_engine.run_all().expect("cold reference run");
    assert_bit_identical(&analyzed, &e, &cold_engine, "forest 1-cube delta");
}

/// Rows a full diff of two versions of a cube compares: none when they
/// share storage, else the rows of both.
fn diff_rows(old: &CubeData, new: &CubeData) -> u64 {
    if old.storage_ptr() == new.storage_ptr() {
        return 0;
    }
    (old.len() + new.len()) as u64
}

/// A cube's entries with their measure bits, in key order.
fn bits(data: &CubeData) -> Vec<(Vec<exl_model::value::DimValue>, u64)> {
    data.iter_sorted()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect()
}

/// One resident engine serves 200 chained vintages of a small GDP
/// scenario, each a seeded revision of the previous one. Every 20th
/// vintage is compared bit for bit against a fresh cold engine. Every
/// vintage diffs only what no change set reaches: the revised `RGDPPC`
/// against its previous version, and `GDPT` (`stl_trend` is whole-cube,
/// so `PCHNG` gets no delta for it) when it changed. `RGDP` and `GDP`
/// carry their deltas downstream and are never diffed.
#[test]
fn chained_vintages_stay_bit_identical() {
    let (analyzed, input) = gdp_scenario(GdpConfig {
        regions: 6,
        quarters: 32,
        days_per_quarter: 3,
        seed: 19,
    });
    let revised: CubeId = "RGDPPC".into();
    let gdpt: CubeId = "GDPT".into();
    let mut e = build_engine(GDP_PROGRAM, &analyzed, &input);
    e.enable_cache();
    e.run_all().expect("cold first vintage");

    let mut deltas = DeltaGen::new(0xc4a1);
    let mut current = input.data(&revised).expect("revised cube").clone();
    let mut delta_hits = 0;
    for vintage in 1..=200 {
        let previous = current;
        current = deltas.patch_cube(&previous, 3);
        let previous_gdpt = e.data(&gdpt).expect("GDPT").clone();
        e.load_elementary(&revised, current.clone())
            .expect("vintage loads");
        let report = e.run_all().expect("warm vintage");
        delta_hits += report.cache.delta_hits;

        let now_gdpt = e.data(&gdpt).expect("GDPT");
        let gdpt_diff = if Fingerprint::of_cube(&previous_gdpt) == Fingerprint::of_cube(now_gdpt) {
            0
        } else {
            diff_rows(&previous_gdpt, now_gdpt)
        };
        assert_eq!(
            report.diff_rows,
            diff_rows(&previous, &current) + gdpt_diff,
            "vintage {vintage}: a derived cube was diffed ({:?})",
            report.cache
        );

        if vintage % 20 == 0 {
            let mut patched = input.clone();
            let schema = patched.get(&revised).unwrap().schema.clone();
            patched.put(exl_model::Cube::new(schema, current.clone()));
            let mut cold = build_engine(GDP_PROGRAM, &analyzed, &patched);
            cold.run_all().expect("cold reference run");
            for id in analyzed.program.derived_ids() {
                assert_eq!(
                    bits(e.data(&id).unwrap()),
                    bits(cold.data(&id).unwrap()),
                    "vintage {vintage}: {id} is not bit-identical to a cold run"
                );
            }
        }
    }
    assert!(
        delta_hits >= 200,
        "the delta path barely engaged: {delta_hits} delta hits"
    );
}

/// An engine pinned to one evaluator thread keeps the run cache's
/// evaluations on that thread too. The warm vintage patches `B` by delta
/// and evaluates the series statement `C` inline over all of `B`, 5 120
/// rows: past the evaluator's fan-out threshold (4 096 rows), so any
/// fanned-out interning or series kernel would pass the `eval.worker`
/// site and fire the armed fault. That only tells a pinned run from an
/// unpinned one on a host with two or more cores: on one core the
/// machine's worker count is 1 as well, and nothing fans out either way.
#[test]
fn pinned_eval_threads_reach_the_run_cache() {
    let src = "cube A(q: time[quarter], r: text) -> y;\nB := 2 * A;\nC := movavg(B, 2);";
    let a: CubeId = "A".into();
    let vintage = |bump: f64| {
        let mut data = CubeData::new();
        for r in 0..64 {
            for t in 0..80 {
                let q = TimePoint::Quarter {
                    year: 2000 + t / 4,
                    quarter: (t % 4) as u32 + 1,
                };
                let key = vec![DimValue::Time(q), DimValue::str(format!("r{r}"))];
                let v = (r * 80 + t) as f64 * 0.37 + if (r, t) == (5, 40) { bump } else { 0.0 };
                data.insert_overwrite(key, v);
            }
        }
        data
    };
    let mut e = ExlEngine::new();
    e.exec.eval_threads = Some(1);
    e.register_program("p", src).expect("program registers");
    e.load_elementary(&a, vintage(0.0)).expect("loads");
    e.enable_cache();
    e.run_all().expect("cold run");

    e.load_elementary(&a, vintage(0.5)).expect("vintage loads");
    let guard = exl_fault::install(FaultPlan::fail_once("eval.worker"));
    let report = e.run_all().expect("warm vintage");
    let fired = guard.fired();
    drop(guard);
    assert!(fired.is_empty(), "the run cache fanned out: {fired:?}");
    assert_eq!(
        (report.cache.delta_hits, report.cache.misses),
        (1, 1),
        "B patched by delta, C evaluated inline: {:?}",
        report.cache
    );

    let mut cold = ExlEngine::new();
    cold.register_program("p", src).expect("program registers");
    cold.load_elementary(&a, vintage(0.5)).expect("loads");
    cold.run_all().expect("cold reference run");
    for id in ["B", "C"] {
        let id: CubeId = id.into();
        assert_eq!(
            bits(e.data(&id).unwrap()),
            bits(cold.data(&id).unwrap()),
            "{id}"
        );
    }
}
