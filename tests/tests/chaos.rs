//! Chaos integration tests: deterministic fault injection (exl-fault)
//! against the dispatch supervisor's guarantees — transactional catalog
//! commits, retries, panic containment, deadlines, and the `keep_going`
//! degradation mode.
//!
//! A plan installed through [`exl_fault::install`] reaches only the
//! installing test's thread and the engine runs it makes, so these tests
//! run side by side under the default parallel test runner.

use std::time::Duration;

use exl_engine::{
    AttemptOutcome, DispatchPolicy, EngineError, ExlEngine, SubgraphStatus, TargetKind,
};
use exl_fault::FaultPlan;
use exl_integration_tests::{fresh_dir, gdp_engine, wide_sharded_engine};
use exl_model::value::DimValue;
use exl_model::CubeData;
use exl_workload::{gdp_scenario, GdpConfig};

/// A program with two independent derived cubes (C from A, D from B) and
/// one downstream of C (E), so a failure of C must skip E but not D.
const DIAMOND: &str = "cube A(k: int) -> a; cube B(k: int) -> b; \
                       C := 2 * A; D := 3 * B; E := 2 * C;";

fn diamond_engine() -> ExlEngine {
    let mut e = ExlEngine::new();
    e.register_program("diamond", DIAMOND).unwrap();
    let cube = |v: f64| CubeData::from_tuples(vec![(vec![DimValue::Int(1)], v)]).unwrap();
    e.load_elementary(&"A".into(), cube(1.0)).unwrap();
    e.load_elementary(&"B".into(), cube(10.0)).unwrap();
    e
}

/// Atomicity: a failing subgraph under the default policy rolls the whole
/// run back — the catalog is byte-identical to its pre-run state.
#[test]
fn failed_run_leaves_catalog_byte_identical() {
    let mut e = gdp_engine(TargetKind::Native);
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::fail_once("exec.native"));
    let err = e.run_all().unwrap_err();
    assert!(matches!(err, EngineError::Execution(_)), "{err}");
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// The retry half of the same criterion: with `retries ≥ 1` a one-shot
/// injected failure is absorbed, the run commits, and
/// `RunReport::metrics` reports the retry.
#[test]
fn one_shot_failure_is_absorbed_by_retry() {
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &data).unwrap();
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_metrics();
    e.policy = DispatchPolicy {
        retries: 1,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let guard = exl_fault::install(FaultPlan::fail_once("exec.native"));
    let report = e.run_all().unwrap();
    assert_eq!(guard.fired_count(), 1);
    assert!(report.metrics.counter("engine.retries") >= 1);
    assert!(report.failed.is_empty() && report.skipped.is_empty());
    for id in analyzed.program.derived_ids() {
        assert!(
            e.data(&id)
                .unwrap()
                .approx_eq(reference.data(&id).unwrap(), 1e-9),
            "{id} diverged after retry"
        );
    }
}

/// A panicking backend thread is contained: `Engine::recompute` returns
/// `EngineError::Panic` instead of propagating the panic, and the catalog
/// is rolled back.
#[test]
fn backend_panic_is_contained_and_rolled_back() {
    let mut e = gdp_engine(TargetKind::Native);
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    let err = e.run_all().unwrap_err();
    let EngineError::Panic { target, message } = &err else {
        panic!("expected a contained panic, got {err}");
    };
    assert_eq!(target, "native");
    assert!(message.contains("injected"), "{message}");
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// Under `keep_going`, independent subgraphs still commit, downstream
/// subgraphs of the failure are skipped, and the report lists both.
#[test]
fn keep_going_commits_independent_subgraphs() {
    let mut e = diamond_engine();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Sql))
        .unwrap();
    // E gets its own target so it forms its own subgraph (the partition
    // merges same-target statements)
    e.catalog
        .set_affinity(&"E".into(), Some(TargetKind::Chase))
        .unwrap();
    e.policy.keep_going = true;
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    let report = e.run_all().unwrap();
    assert_eq!(report.failed, vec!["C".into()]);
    assert_eq!(report.skipped, vec!["E".into()]);
    assert_eq!(report.computed, vec!["D".into()]);
    // D committed a new version; C and E have none
    assert_eq!(
        e.data(&"D".into()).unwrap().get(&[DimValue::Int(1)]),
        Some(30.0)
    );
    assert!(e.data(&"C".into()).is_none());
    assert!(e.data(&"E".into()).is_none());
    let status_of = |id: &str| {
        report
            .subgraphs
            .iter()
            .find(|s| s.cubes.contains(&id.into()))
            .map(|s| s.status)
    };
    assert_eq!(status_of("C"), Some(SubgraphStatus::Failed));
    assert_eq!(status_of("D"), Some(SubgraphStatus::Computed));
    assert_eq!(status_of("E"), Some(SubgraphStatus::Skipped));
}

/// A panic inside one of the evaluator's data-parallel workers degrades
/// the run *per subgraph*, not per process: the scoped worker's panic is
/// joined into a typed `EvalError::WorkerPanicked`, the owning subgraph
/// fails, independent subgraphs still commit, and the same engine
/// recovers completely on the next fault-free run.
#[test]
fn eval_worker_panic_degrades_per_subgraph() {
    let guard = exl_fault::install(FaultPlan::panic_once("eval.worker"));
    let mut e = ExlEngine::new();
    // pin this engine's evaluator to 4 workers so the partitioned path
    // (and with it the `eval.worker` fault site) engages even on a
    // single-core CI box, without touching process-wide state
    e.exec.eval_threads = Some(4);
    e.register_program("diamond", DIAMOND).unwrap();
    // A is wide enough for `C := 2 * A` to cross the evaluator's parallel
    // threshold; B stays a single row, so D's evaluation never reaches a
    // worker and the one-shot panic can only land inside C's subgraph
    let big: Vec<(Vec<DimValue>, f64)> = (0..5000)
        .map(|i| (vec![DimValue::Int(i)], i as f64))
        .collect();
    e.load_elementary(&"A".into(), CubeData::from_tuples(big).unwrap())
        .unwrap();
    e.load_elementary(
        &"B".into(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 10.0)]).unwrap(),
    )
    .unwrap();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Native))
        .unwrap();
    e.catalog
        .set_affinity(&"D".into(), Some(TargetKind::Sql))
        .unwrap();
    e.catalog
        .set_affinity(&"E".into(), Some(TargetKind::Chase))
        .unwrap();
    e.policy.keep_going = true;
    let report = e.run_all().unwrap();
    assert_eq!(guard.fired_count(), 1, "worker fault never engaged");
    assert_eq!(report.failed, vec!["C".into()]);
    assert_eq!(report.skipped, vec!["E".into()]);
    assert_eq!(report.computed, vec!["D".into()]);
    assert!(e.data(&"C".into()).is_none());
    assert_eq!(
        e.data(&"D".into()).unwrap().get(&[DimValue::Int(1)]),
        Some(30.0)
    );
    // the process survived the panic; a fault-free rerun recovers C and E
    drop(guard);
    let report = e.run_all().unwrap();
    assert!(report.failed.is_empty() && report.skipped.is_empty());
    assert_eq!(
        e.data(&"C".into()).unwrap().get(&[DimValue::Int(7)]),
        Some(14.0)
    );
    assert_eq!(
        e.data(&"E".into()).unwrap().get(&[DimValue::Int(7)]),
        Some(28.0)
    );
}

/// Without `keep_going` the same fault aborts the whole run and nothing
/// commits — not even the independent subgraph.
#[test]
fn fail_fast_aborts_the_whole_run() {
    let mut e = diamond_engine();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Sql))
        .unwrap();
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    e.run_all().unwrap_err();
    assert_eq!(e.catalog.to_json().unwrap(), before);
    assert!(e.data(&"D".into()).is_none());
}

/// A stalled backend is cut off by the per-subgraph deadline: the
/// attempt's governor carries it, so the stall ends at the backend's
/// next checkpoint, on the dispatching thread, before this returns.
#[test]
fn deadline_cuts_off_stalled_backend() {
    let mut e = gdp_engine(TargetKind::Native);
    e.policy.subgraph_timeout = Some(Duration::from_millis(30));
    let _guard = exl_fault::install(FaultPlan::delay_once("exec.native", 300));
    let err = e.run_all().unwrap_err();
    assert!(
        matches!(err, EngineError::Timeout { millis: 30, .. }),
        "{err}"
    );
}

/// The runtime fallback chain: a backend that keeps failing at execution
/// time is re-run on the native engine, and the run still commits.
#[test]
fn runtime_fallback_reroutes_to_native() {
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &data).unwrap();
    let mut e = gdp_engine(TargetKind::Sql);
    e.enable_metrics();
    e.policy = DispatchPolicy {
        runtime_fallback: true,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    let report = e.run_all().unwrap();
    assert!(report.metrics.counter("engine.runtime_fallbacks") >= 1);
    let sub = &report.subgraphs[0];
    assert_eq!(sub.status, SubgraphStatus::Computed);
    assert_eq!(sub.attempts.last().unwrap().target, TargetKind::Native);
    for id in analyzed.program.derived_ids() {
        assert!(
            e.data(&id)
                .unwrap()
                .approx_eq(reference.data(&id).unwrap(), 1e-9),
            "{id} diverged after fallback"
        );
    }
}

/// The fault matrix of the acceptance criterion, over every backend
/// execution site: a one-shot failure on any single target makes the
/// default policy fail with an untouched catalog, while `retries = 1`
/// absorbs it.
#[test]
fn one_shot_fault_matrix_over_all_targets() {
    for target in TargetKind::ALL {
        let site = format!("exec.{target}");
        // default policy: Err + unchanged catalog
        {
            let mut e = gdp_engine(target);
            let before = e.catalog.to_json().unwrap();
            let guard = exl_fault::install(FaultPlan::fail_once(&site));
            let err = e.run_all().unwrap_err();
            assert!(matches!(err, EngineError::Execution(_)), "{target}: {err}");
            assert_eq!(guard.fired_count(), 1, "{target}");
            assert_eq!(e.catalog.to_json().unwrap(), before, "{target}");
        }
        // retry policy: Ok + a recorded retry
        {
            let mut e = gdp_engine(target);
            e.enable_metrics();
            e.policy = DispatchPolicy {
                retries: 1,
                backoff_base: Duration::ZERO,
                ..DispatchPolicy::default()
            };
            let _guard = exl_fault::install(FaultPlan::fail_once(&site));
            let report = e.run_all().unwrap_or_else(|e| panic!("{target}: {e}"));
            assert!(
                report.metrics.counter("engine.retries") >= 1,
                "{target}: no retry recorded"
            );
        }
    }
}

/// Seed-driven chaos (the `scripts/chaos.sh` matrix): derive a fault plan
/// from `CHAOS_SEED`, run the affected target with generous retries, and
/// require the run to converge to the reference regardless of where the
/// fault landed.
#[test]
fn seeded_fault_plan_converges_under_retries() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let sites: Vec<String> = TargetKind::ALL
        .iter()
        .map(|t| format!("exec.{t}"))
        .collect();
    let site_refs: Vec<&str> = sites.iter().map(String::as_str).collect();
    let plan = FaultPlan::from_seed(seed, &site_refs);
    let site = plan.specs[0].site.clone();
    let target = TargetKind::ALL
        .into_iter()
        .find(|t| site == format!("exec.{t}"))
        .expect("seeded site names a target");

    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &data).unwrap();
    let mut e = gdp_engine(target);
    e.enable_metrics();
    e.policy = DispatchPolicy {
        // from_seed picks occurrence 1..=3: 3 retries always cover it
        retries: 3,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let guard = exl_fault::install(plan);
    // the plan fires on the 1st..=3rd execution of the site: recompute
    // three times so the armed occurrence is reached no matter the seed
    let mut last = None;
    for round in 0..3 {
        let report = e
            .run_all()
            .unwrap_or_else(|err| panic!("seed {seed} ({site}) round {round}: {err}"));
        last = Some(report);
    }
    let report = last.unwrap();
    assert_eq!(guard.fired_count(), 1, "seed {seed}: fault never fired");
    let recovered =
        report.metrics.counter("engine.retries") + report.metrics.counter("engine.panics_caught");
    assert!(recovered >= 1, "seed {seed}: no recovery recorded");
    for id in analyzed.program.derived_ids() {
        assert!(
            e.data(&id)
                .unwrap()
                .approx_eq(reference.data(&id).unwrap(), 1e-9),
            "seed {seed}: {id} diverged"
        );
    }
}

/// Faults injected below the dispatcher — inside the interpreters — are
/// surfaced as ordinary execution errors and are retryable too.
#[test]
fn interpreter_level_faults_are_retryable() {
    for (site, target) in [
        ("rmini.run", TargetKind::R),
        ("matmini.run", TargetKind::Matlab),
        ("sqlengine.execute", TargetKind::Sql),
        ("etl.flow", TargetKind::Etl),
    ] {
        let mut e = gdp_engine(target);
        e.policy = DispatchPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
            ..DispatchPolicy::default()
        };
        let guard = exl_fault::install(FaultPlan::fail_once(site));
        e.run_all().unwrap_or_else(|err| panic!("{site}: {err}"));
        assert_eq!(guard.fired_count(), 1, "{site}");
    }
}

/// Tracing × chaos: a retried execution shows up in the span tree as two
/// sibling `attempt` spans under one `subgraph` span — the failed try
/// with `status=error` and an error event, the successful one with
/// `status=ok`.
#[test]
fn retried_attempts_are_sibling_spans_with_status() {
    let mut e = gdp_engine(TargetKind::Native);
    let tracer = e.enable_tracing();
    e.policy = DispatchPolicy {
        retries: 1,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let _guard = exl_fault::install(FaultPlan::fail_once("exec.native"));
    e.run_all().unwrap();

    let snap = tracer.snapshot();
    let attempts = snap.spans_named("attempt");
    assert_eq!(attempts.len(), 2, "one failed + one retried attempt");
    // same parent subgraph span — true siblings
    assert_eq!(attempts[0].parent, attempts[1].parent);
    let parent = snap.span(attempts[0].parent.unwrap()).unwrap();
    assert_eq!(parent.name, "subgraph");
    assert_eq!(parent.attr_str("status"), Some("computed"));
    assert_eq!(parent.attr_u64("attempts"), Some(2));
    // per-attempt outcome attrs
    assert_eq!(attempts[0].attr_str("status"), Some("error"));
    assert_eq!(attempts[0].attr_u64("attempt"), Some(1));
    assert!(!attempts[0].events.is_empty(), "failed attempt logs why");
    assert_eq!(attempts[1].attr_str("status"), Some("ok"));
    assert_eq!(attempts[1].attr_u64("attempt"), Some(2));
    assert_eq!(attempts[1].attr_str("target"), Some("native"));
}

/// Same for the runtime fallback chain: the failing SQL attempt and the
/// native fallback attempt are siblings, distinguished by their `target`
/// attrs, and the subgraph records the fallback transition as an event.
#[test]
fn fallback_attempts_are_siblings_with_target_attrs() {
    let mut e = gdp_engine(TargetKind::Sql);
    let tracer = e.enable_tracing();
    e.policy = DispatchPolicy {
        runtime_fallback: true,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    e.run_all().unwrap();

    let snap = tracer.snapshot();
    let attempts = snap.spans_named("attempt");
    assert!(attempts.len() >= 2, "sql attempt + native fallback");
    assert!(
        attempts.windows(2).all(|w| w[0].parent == w[1].parent),
        "all under one subgraph"
    );
    let first = attempts.first().unwrap();
    let last = attempts.last().unwrap();
    assert_eq!(first.attr_str("target"), Some("sql"));
    assert_eq!(first.attr_str("status"), Some("error"));
    assert_eq!(last.attr_str("target"), Some("native"));
    assert_eq!(last.attr_str("status"), Some("ok"));
    // the parent subgraph logged the reroute
    let parent = snap.span(first.parent.unwrap()).unwrap();
    assert!(
        parent
            .events
            .iter()
            .any(|ev| ev.message.contains("fallback")),
        "{:?}",
        parent.events
    );
    assert_eq!(parent.attr_str("status"), Some("computed"));
}

// ---------------------------------------------------------------------
// Run-cache chaos: the persistent store must only ever *lose* work, never
// corrupt a result. Every fault below degrades the run to a cold
// recompute — counted, committed, and bit-identical to a cache-free
// engine.
// ---------------------------------------------------------------------

/// Every derived GDP cube of `e`, bit-compared against the reference run.
fn assert_gdp_reference(e: &ExlEngine, label: &str) {
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &data).unwrap();
    for id in analyzed.program.derived_ids() {
        let got = e
            .data(&id)
            .unwrap_or_else(|| panic!("{label}: {id} never committed"));
        assert!(
            got.approx_eq(reference.data(&id).unwrap(), 0.0),
            "{label}: {id} diverged from the cache-free reference"
        );
    }
}

/// Disk writes that always fail leave the run itself untouched: every
/// statement still computes and commits, the failures are counted, and a
/// later engine simply finds an empty (cold) store.
#[test]
fn cache_write_faults_degrade_to_cold_store() {
    let dir = fresh_dir("chaos-cache-write-always");
    {
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&dir).unwrap();
        let _guard = exl_fault::install(FaultPlan::fail_always("cache.write"));
        let report = e.run_all().unwrap();
        assert!(report.failed.is_empty() && report.skipped.is_empty());
        assert_eq!(report.cache.misses, 5, "{:?}", report.cache);
        assert!(
            report.cache.write_failures >= 1,
            "no write failure recorded: {:?}",
            report.cache
        );
        assert_gdp_reference(&e, "write-fault run");
    }
    // nothing was persisted, so a fresh engine runs fully cold — a miss,
    // not an error
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(report.cache.hits + report.cache.delta_hits, 0);
    assert_eq!(report.cache.misses, 5);
    assert_eq!(report.cache.corrupt_entries, 0, "{:?}", report.cache);
    assert_gdp_reference(&e, "post-write-fault cold run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A single write failure mid-run is transactional: the run commits, the
/// failure is counted, and the partial store never poisons a fresh
/// engine — stale or absent entries are plain misses, recomputed to the
/// same bits.
#[test]
fn mid_run_cache_write_failure_stays_transactional() {
    let dir = fresh_dir("chaos-cache-write-once");
    {
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&dir).unwrap();
        let guard = exl_fault::install(FaultPlan::fail_once("cache.write"));
        let report = e.run_all().unwrap();
        assert_eq!(guard.fired_count(), 1);
        assert_eq!(report.cache.write_failures, 1, "{:?}", report.cache);
        assert!(report.failed.is_empty() && report.skipped.is_empty());
        assert_gdp_reference(&e, "one-shot write fault");
    }
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(report.cache.corrupt_entries, 0, "{:?}", report.cache);
    assert_eq!(
        report.cache.hits + report.cache.delta_hits + report.cache.misses,
        5,
        "{:?}",
        report.cache
    );
    assert_gdp_reference(&e, "replay over partial store");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Disk reads that always fail turn a fully warm store into a cold run:
/// every entry is treated as corrupt, every statement recomputes, and the
/// results still match.
#[test]
fn cache_read_faults_degrade_to_cold_run() {
    let dir = fresh_dir("chaos-cache-read-always");
    {
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&dir).unwrap();
        let report = e.run_all().unwrap();
        assert_eq!(report.cache.stores, 5, "warm store never filled");
    }
    let _guard = exl_fault::install(FaultPlan::fail_always("cache.read"));
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(report.cache.hits + report.cache.delta_hits, 0);
    assert_eq!(report.cache.misses, 5, "{:?}", report.cache);
    assert!(
        report.cache.corrupt_entries >= 1,
        "faulted reads not counted: {:?}",
        report.cache
    );
    assert_gdp_reference(&e, "read-fault run");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Truncated and garbage disk entries — the crash-mid-write and
/// bit-rot cases — are detected (version header, JSON parse, content
/// hash), counted as corrupt, and recomputed cold.
#[test]
fn truncated_and_garbage_entries_are_cold_misses() {
    let dir = fresh_dir("chaos-cache-truncate");
    {
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&dir).unwrap();
        e.run_all().unwrap();
    }
    // mangle every entry three different ways
    for (kind, mangle) in [
        ("cubes", 0usize), // truncate: parses never or hashes wrong
        ("keys", 1),       // garbage: not JSON at all
        ("stmts", 2),      // stale: valid JSON, wrong version header
    ] {
        for entry in std::fs::read_dir(dir.join(kind)).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let mangled = match mangle {
                0 => text[..text.len() / 2].to_string(),
                1 => "{ this is not json".to_string(),
                _ => text.replace("exl-cache-v1", "exl-cache-v0"),
            };
            std::fs::write(&path, mangled).unwrap();
        }
    }
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(report.cache.hits + report.cache.delta_hits, 0);
    assert_eq!(report.cache.misses, 5, "{:?}", report.cache);
    assert!(
        report.cache.corrupt_entries >= 1,
        "mangled entries not counted: {:?}",
        report.cache
    );
    assert_gdp_reference(&e, "mangled-store run");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Cancellation & budget chaos: cooperative cancellation injected at
// every fault site must abort with a *typed* error, skip the retry
// machinery, and leave the catalog byte-identical; budget exhaustion
// does the same unless `keep_going` degrades it per subgraph. See
// docs/GOVERNANCE.md for the token topology these tests pin down.
// ---------------------------------------------------------------------

/// Every governed fault site paired with a target whose execution
/// reaches it: the backend dispatch sites plus the interpreter-internal
/// ones.
fn cancellable_sites() -> Vec<(String, TargetKind)> {
    let mut sites: Vec<(String, TargetKind)> = TargetKind::ALL
        .into_iter()
        .map(|t| (format!("exec.{t}"), t))
        .collect();
    for (s, t) in [
        ("rmini.run", TargetKind::R),
        ("matmini.run", TargetKind::Matlab),
        ("sqlengine.execute", TargetKind::Sql),
        ("etl.flow", TargetKind::Etl),
    ] {
        sites.push((s.to_string(), t));
    }
    sites
}

/// Kernel threads of this process (the main thread plus every live
/// worker), straight from the kernel's accounting.
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

/// The cancellation matrix: an injected cancel at any site aborts with
/// `EngineError::Cancelled`, is *not* retried despite a generous retry
/// budget, and rolls the catalog back byte-identically.
#[test]
fn injected_cancel_rolls_back_and_is_not_retried() {
    for (site, target) in cancellable_sites() {
        let mut e = gdp_engine(target);
        e.policy = DispatchPolicy {
            retries: 3,
            backoff_base: Duration::ZERO,
            ..DispatchPolicy::default()
        };
        let before = e.catalog.to_json().unwrap();
        let guard = exl_fault::install(FaultPlan::cancel_once(&site));
        let err = e.run_all().unwrap_err();
        assert!(
            matches!(err, EngineError::Cancelled { .. }),
            "{site}: {err}"
        );
        // non-retryable: the site fired exactly once — retries would have
        // re-executed it (the one-shot plan is spent) and committed
        assert_eq!(guard.fired_count(), 1, "{site}");
        assert_eq!(
            e.catalog.to_json().unwrap(),
            before,
            "{site}: cancelled run touched the catalog"
        );
    }
}

/// A cancel landing inside one of the evaluator's data-parallel workers
/// aborts the run typed and rolled-back, and — because the cancel is
/// attempt-scoped — the same engine recovers completely on a fault-free
/// rerun.
#[test]
fn eval_worker_cancel_rolls_back_and_recovers() {
    let guard = exl_fault::install(FaultPlan::cancel_once("eval.worker"));
    let mut e = ExlEngine::new();
    // pin this engine's evaluator to 4 workers so the partitioned path
    // engages even on a single-core box
    e.exec.eval_threads = Some(4);
    e.register_program("diamond", DIAMOND).unwrap();
    let big: Vec<(Vec<DimValue>, f64)> = (0..5000)
        .map(|i| (vec![DimValue::Int(i)], i as f64))
        .collect();
    e.load_elementary(&"A".into(), CubeData::from_tuples(big).unwrap())
        .unwrap();
    e.load_elementary(
        &"B".into(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 10.0)]).unwrap(),
    )
    .unwrap();
    let before = e.catalog.to_json().unwrap();
    let err = e.run_all().unwrap_err();
    assert!(matches!(err, EngineError::Cancelled { .. }), "{err}");
    assert_eq!(guard.fired_count(), 1, "worker cancel never engaged");
    assert_eq!(e.catalog.to_json().unwrap(), before);
    drop(guard);
    e.run_all().unwrap();
    assert_eq!(
        e.data(&"C".into()).unwrap().get(&[DimValue::Int(7)]),
        Some(14.0)
    );
}

/// A run-level cancel (SIGINT, external token) is fatal under *every*
/// policy: `keep_going` degrades around subgraph failures, but nothing
/// may commit once the run itself is cancelled.
#[test]
fn external_cancel_aborts_even_under_keep_going() {
    let mut e = diamond_engine();
    e.policy.keep_going = true;
    let before = e.catalog.to_json().unwrap();
    e.govern.cancel.cancel("operator requested stop");
    let err = e.run_all().unwrap_err();
    let EngineError::Cancelled { reason } = &err else {
        panic!("expected a typed cancel, got {err}");
    };
    assert!(reason.contains("operator requested stop"), "{reason}");
    assert_eq!(e.catalog.to_json().unwrap(), before);
    assert!(
        e.data(&"D".into()).is_none(),
        "keep_going committed past a run-level cancel"
    );
}

/// A *subgraph-local* cancel under `keep_going` degrades instead:
/// independent subgraphs commit, downstream ones are skipped, and the
/// report carries the typed `Cancelled` status.
#[test]
fn keep_going_reports_cancelled_subgraph_typed() {
    let mut e = diamond_engine();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Sql))
        .unwrap();
    e.catalog
        .set_affinity(&"E".into(), Some(TargetKind::Chase))
        .unwrap();
    e.policy.keep_going = true;
    let _guard = exl_fault::install(FaultPlan::cancel_once("exec.sql"));
    let report = e.run_all().unwrap();
    assert_eq!(report.failed, vec!["C".into()]);
    assert_eq!(report.skipped, vec!["E".into()]);
    assert_eq!(report.computed, vec!["D".into()]);
    let cancelled = report
        .subgraphs
        .iter()
        .find(|s| s.cubes.contains(&"C".into()))
        .unwrap();
    assert_eq!(cancelled.status, SubgraphStatus::Cancelled);
    assert!(
        cancelled.error.as_deref().unwrap_or("").contains("cancel"),
        "{:?}",
        cancelled.error
    );
    assert_eq!(
        e.data(&"D".into()).unwrap().get(&[DimValue::Int(1)]),
        Some(30.0)
    );
}

/// An already-expired run deadline trips the first checkpoint: typed
/// `BudgetExceeded`, nothing committed.
#[test]
fn run_deadline_budget_aborts_with_typed_error() {
    let mut e = gdp_engine(TargetKind::Native);
    e.govern.run_deadline = Some(Duration::ZERO);
    let before = e.catalog.to_json().unwrap();
    let err = e.run_all().unwrap_err();
    let EngineError::BudgetExceeded { what } = &err else {
        panic!("expected a typed budget error, got {err}");
    };
    assert!(what.contains("deadline"), "{what}");
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// A run deadline cuts a stalled backend short like a subgraph deadline
/// does: the injected stall ends once the budget is spent, and the next
/// checkpoint reports the typed `BudgetExceeded`, not a cancellation.
#[test]
fn run_deadline_cuts_off_stalled_backend() {
    let mut e = gdp_engine(TargetKind::Native);
    e.govern.run_deadline = Some(Duration::from_millis(50));
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::delay_once("exec.native", 3_000));
    let started = std::time::Instant::now();
    let err = e.run_all().unwrap_err();
    let elapsed = started.elapsed();
    let EngineError::BudgetExceeded { what } = &err else {
        panic!("expected a typed budget error, got {err}");
    };
    assert!(what.contains("deadline"), "{what}");
    assert!(
        elapsed < Duration::from_secs(1),
        "stall ran on: {elapsed:?}"
    );
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// A memory ceiling below the first materialized intermediate rolls the
/// run back by default...
#[test]
fn memory_budget_rolls_back_by_default() {
    let mut e = gdp_engine(TargetKind::Etl);
    e.govern.max_memory_bytes = Some(1);
    let before = e.catalog.to_json().unwrap();
    let err = e.run_all().unwrap_err();
    assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// ...and degrades under `keep_going`: the run returns a report whose
/// affected subgraphs carry the typed `BudgetExceeded` status instead of
/// aborting the process-level workflow.
#[test]
fn memory_budget_degrades_under_keep_going() {
    let mut e = gdp_engine(TargetKind::Etl);
    e.govern.max_memory_bytes = Some(1);
    e.policy.keep_going = true;
    let report = e.run_all().unwrap();
    assert!(!report.failed.is_empty(), "budget never tripped");
    assert!(
        report
            .subgraphs
            .iter()
            .any(|s| s.status == SubgraphStatus::BudgetExceeded),
        "no typed BudgetExceeded status: {:?}",
        report
            .subgraphs
            .iter()
            .map(|s| s.status)
            .collect::<Vec<_>>()
    );
}

/// The SQL backend charges every `INSERT … SELECT`'s output against the
/// run budget, like the native and ETL targets charge theirs: a one-row
/// or one-byte ceiling stops the run with a typed `BudgetExceeded` and
/// leaves the catalog byte-identical.
#[test]
fn sql_backend_honours_row_and_memory_budgets() {
    for (label, max_rows, max_memory_bytes) in [("rows", Some(1), None), ("memory", None, Some(1))]
    {
        let mut e = gdp_engine(TargetKind::Sql);
        e.govern.max_rows = max_rows;
        e.govern.max_memory_bytes = max_memory_bytes;
        let before = e.catalog.to_json().unwrap();
        let err = e.run_all().unwrap_err();
        let EngineError::BudgetExceeded { what } = &err else {
            panic!("{label}: expected a typed budget error, got {err}");
        };
        assert!(what.contains(label), "{label}: {what}");
        assert_eq!(e.catalog.to_json().unwrap(), before, "{label}");
    }
}

/// The R and Matlab backends charge every output they decode against the
/// run budget, like the SQL backend charges its `INSERT … SELECT`s: a
/// one-row or one-byte ceiling stops an R- or Matlab-target run with a
/// typed `BudgetExceeded` and leaves the catalog byte-identical.
#[test]
fn r_and_matlab_backends_honour_row_and_memory_budgets() {
    for target in [TargetKind::R, TargetKind::Matlab] {
        for (label, max_rows, max_memory_bytes) in
            [("rows", Some(1), None), ("memory", None, Some(1))]
        {
            let mut e = gdp_engine(target);
            e.govern.max_rows = max_rows;
            e.govern.max_memory_bytes = max_memory_bytes;
            let before = e.catalog.to_json().unwrap();
            let err = e.run_all().unwrap_err();
            let EngineError::BudgetExceeded { what } = &err else {
                panic!("{target:?} {label}: expected a typed budget error, got {err}");
            };
            assert!(what.contains(label), "{target:?} {label}: {what}");
            assert_eq!(e.catalog.to_json().unwrap(), before, "{target:?} {label}");
        }
    }
}

/// One seeded cancellation round (the `scripts/chaos.sh` storm): derive
/// a cancel plan from the seed, run until it fires, and require a typed
/// rollback followed by full recovery on a fault-free rerun.
fn cancellation_round(seed: u64) {
    let sites = cancellable_sites();
    let site_refs: Vec<&str> = sites.iter().map(|(s, _)| s.as_str()).collect();
    let plan = FaultPlan::cancel_from_seed(seed, &site_refs);
    let site = plan.specs[0].site.clone();
    let target = sites.iter().find(|(s, _)| *s == site).unwrap().1;

    let mut e = gdp_engine(target);
    e.policy = DispatchPolicy {
        retries: 1,
        backoff_base: Duration::ZERO,
        ..DispatchPolicy::default()
    };
    let guard = exl_fault::install(plan);
    // the cancel arms on the 1st..=3rd visit of its site: run repeatedly
    // until it fires; every armed run must abort typed and rolled-back
    let mut aborted = false;
    for round in 0..3 {
        let before = e.catalog.to_json().unwrap();
        match e.run_all() {
            Ok(_) => {}
            Err(err) => {
                assert!(
                    matches!(err, EngineError::Cancelled { .. }),
                    "seed {seed} ({site}) round {round}: {err}"
                );
                assert_eq!(
                    e.catalog.to_json().unwrap(),
                    before,
                    "seed {seed} ({site}) round {round}: not rolled back"
                );
                aborted = true;
                break;
            }
        }
    }
    assert_eq!(guard.fired_count(), 1, "seed {seed} ({site}): never fired");
    assert!(
        aborted,
        "seed {seed} ({site}): cancel fired but run committed"
    );
    drop(guard);
    e.run_all()
        .unwrap_or_else(|err| panic!("seed {seed}: recovery run failed: {err}"));
    // backends agree with the native reference to tolerance, not bits
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let reference = exl_eval::run_program(&analyzed, &data).unwrap();
    for id in analyzed.program.derived_ids() {
        let got = e
            .data(&id)
            .unwrap_or_else(|| panic!("seed {seed}: {id} never committed after recovery"));
        assert!(
            got.approx_eq(reference.data(&id).unwrap(), 1e-9),
            "seed {seed}: {id} diverged after post-cancel recovery"
        );
    }
}

/// Seed-driven cancellation (one round per `CHAOS_SEED`, mirroring the
/// failure-seeded test above).
#[test]
fn seeded_cancellation_is_atomic() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    cancellation_round(seed);
}

/// The cancellation storm: many seeded rounds back to back, each a
/// cancel → rollback → recovery cycle, with the kernel's own thread
/// accounting pinning that every worker a cancelled run started was
/// joined. `CHAOS_STORM` scales the round count
/// (`scripts/chaos.sh --storm N`).
#[test]
fn cancellation_storm_is_atomic_and_leaks_no_threads() {
    let rounds: u64 = std::env::var("CHAOS_STORM")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let before = live_threads();
    for seed in 0..rounds {
        cancellation_round(seed);
    }
    let after = live_threads();
    // small slack: sibling test threads of this binary come and go under
    // the parallel runner — what must not appear is one leaked worker
    // per cancelled round
    assert!(
        after <= before + 2,
        "thread leak across {rounds} storm rounds: {before} -> {after}"
    );
}

/// Satellite of the fsync'd cache store: a cancel that fires during a
/// disk-cache write aborts the run typed and rolled-back, and the store
/// left behind is fully readable — entries written before the cancel
/// replay as hits, everything else is a plain miss, never a corruption.
#[test]
fn cancel_during_cache_write_leaves_store_readable() {
    let dir = fresh_dir("chaos-cache-cancel-write");
    {
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&dir).unwrap();
        let before = e.catalog.to_json().unwrap();
        let guard = exl_fault::install(FaultPlan::cancel_once("cache.write"));
        let err = e.run_all().unwrap_err();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err}");
        assert_eq!(guard.fired_count(), 1);
        assert_eq!(e.catalog.to_json().unwrap(), before);
    }
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(
        report.cache.corrupt_entries, 0,
        "cancelled write poisoned the store: {:?}",
        report.cache
    );
    assert_eq!(
        report.cache.hits + report.cache.delta_hits + report.cache.misses,
        5,
        "{:?}",
        report.cache
    );
    assert_gdp_reference(&e, "replay over cancel-interrupted store");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Sharded dispatch under injected faults. A fault inside one shard worker
// must be attributed to that shard (`shard {i}/{n}: ...`), abort the
// whole subgraph transactionally under the default policy, and degrade
// to that subgraph alone under `keep_going` — sibling subgraphs on other
// targets still commit. See `crates/exl-engine/src/shard.rs`.
// ---------------------------------------------------------------------------

/// An injected execution failure in one shard aborts the run under the
/// default fail-fast policy, rolls the catalog back byte-identically,
/// and the error names the failing shard.
#[test]
fn sharded_failure_aborts_transactionally_and_names_the_shard() {
    let mut e = wide_sharded_engine(4);
    let before = e.catalog.to_json().unwrap();
    let guard = exl_fault::install(FaultPlan::fail_once("exec.native"));
    let err = e.run_all().unwrap_err();
    assert_eq!(guard.fired_count(), 1);
    let EngineError::Execution(msg) = &err else {
        panic!("expected an execution error, got {err}");
    };
    assert!(
        msg.contains("shard ") && msg.contains("/4: "),
        "error does not name the failing shard: {msg}"
    );
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// A panicking shard worker is contained exactly like a panicking
/// backend thread: the run returns `EngineError::Panic` (no propagation
/// into the test harness), the message names the shard, and the catalog
/// rolls back.
#[test]
fn sharded_panic_is_contained_and_names_the_shard() {
    let mut e = wide_sharded_engine(4);
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    let err = e.run_all().unwrap_err();
    let EngineError::Panic { target, message } = &err else {
        panic!("expected a contained panic, got {err}");
    };
    assert_eq!(target, "native");
    assert!(
        message.contains("shard ") && message.contains("/4: ") && message.contains("injected"),
        "panic message does not name the failing shard: {message}"
    );
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// A failing merge barrier keeps its attempt in the subgraph's report:
/// four successful shard attempts, then the barrier's failed one.
#[test]
fn failed_barrier_attempt_is_reported() {
    let mut e = wide_sharded_engine(4);
    e.policy.keep_going = true;
    let _guard = exl_fault::install(FaultPlan::one(
        "exec.native",
        5,
        exl_fault::FaultAction::Error,
    ));
    let report = e.run_all().unwrap();
    let failing = report
        .subgraphs
        .iter()
        .find(|s| s.status == SubgraphStatus::Failed)
        .expect("failed subgraph reported");
    let outcomes: Vec<_> = failing.attempts.iter().map(|a| &a.outcome).collect();
    assert_eq!(outcomes.len(), 5, "{outcomes:?}");
    assert!(outcomes[..4].iter().all(|o| **o == AttemptOutcome::Success));
    assert!(
        matches!(outcomes[4], AttemptOutcome::Error(_)),
        "{outcomes:?}"
    );
}

/// A stalled shard worker is cut off by the per-subgraph deadline. The
/// timeout keeps its typed variant (no shard prefix — wrapping it would
/// break the governance classification), and nothing commits.
#[test]
fn sharded_deadline_cuts_off_stalled_shard() {
    let mut e = wide_sharded_engine(4);
    e.policy.subgraph_timeout = Some(Duration::from_millis(30));
    let before = e.catalog.to_json().unwrap();
    let _guard = exl_fault::install(FaultPlan::delay_once("exec.native", 300));
    let err = e.run_all().unwrap_err();
    assert!(
        matches!(err, EngineError::Timeout { millis: 30, .. }),
        "{err}"
    );
    assert_eq!(e.catalog.to_json().unwrap(), before);
}

/// Under `keep_going`, a fault in one shard fails only the sharded
/// subgraph: an independent subgraph on another target still commits,
/// and the failed subgraph's report carries the shard-attributed error.
#[test]
fn keep_going_contains_shard_failure_to_its_subgraph() {
    let mut e = wide_sharded_engine(4);
    // an independent SQL subgraph that no native fault can touch
    e.register_program("extra", "cube V(k: int) -> v; D := 3 * V;")
        .unwrap();
    e.load_elementary(
        &"V".into(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 10.0)]).unwrap(),
    )
    .unwrap();
    e.catalog
        .set_affinity(&"D".into(), Some(TargetKind::Sql))
        .unwrap();
    e.policy.keep_going = true;
    let _guard = exl_fault::install(FaultPlan::fail_once("exec.native"));
    let report = e.run_all().unwrap();
    assert!(
        report.failed.contains(&"A".into()) && report.failed.contains(&"T".into()),
        "sharded subgraph not reported failed: {:?}",
        report.failed
    );
    assert_eq!(report.computed, vec!["D".into()]);
    assert_eq!(
        e.data(&"D".into()).unwrap().get(&[DimValue::Int(1)]),
        Some(30.0)
    );
    assert!(
        e.data(&"C".into()).is_none(),
        "failed shard output committed"
    );
    let failing = report
        .subgraphs
        .iter()
        .find(|s| s.status == SubgraphStatus::Failed)
        .expect("failed subgraph reported");
    let msg = failing.error.as_ref().expect("failure recorded");
    assert!(
        msg.contains("shard ") && msg.contains("/4: "),
        "report error does not name the failing shard: {msg}"
    );
}

/// A sharded subgraph stopped by a shard-local cancel or a tripped
/// budget degrades under `keep_going` with the typed status — and its
/// trace span names the same status as its report, not a bare `failed`.
#[test]
fn sharded_governance_stops_carry_typed_span_status() {
    for (label, want) in [
        ("cancel", SubgraphStatus::Cancelled),
        ("budget", SubgraphStatus::BudgetExceeded),
    ] {
        let mut e = wide_sharded_engine(4);
        e.policy.keep_going = true;
        let tracer = e.enable_tracing();
        let _guard = if label == "cancel" {
            Some(exl_fault::install(FaultPlan::cancel_once("exec.native")))
        } else {
            e.govern.max_memory_bytes = Some(1);
            None
        };
        let report = e.run_all().unwrap();
        assert_eq!(report.subgraphs.len(), 1, "{label}");
        assert_eq!(report.subgraphs[0].status, want, "{label}");
        assert!(
            !report.subgraphs[0].shards.is_empty(),
            "{label}: not sharded"
        );
        let snapshot = tracer.snapshot();
        let spans = snapshot.spans_named("subgraph");
        assert_eq!(spans.len(), 1, "{label}");
        assert_eq!(spans[0].attr_str("status"), Some(want.name()), "{label}");
        assert_eq!(
            spans[0].attr_u64("attempts"),
            Some(report.subgraphs[0].attempts.len() as u64),
            "{label}"
        );
    }
}
