//! Chaos coverage for crash bundles: every failure class — contained
//! panic, deadline, tripped budget, cancellation, cache corruption —
//! must leave one schema-valid bundle that names the failing subgraph
//! and any fired fault site, while successful runs write nothing.
//!
//! Each engine arming a bundle dir records into its own flight ring, and
//! a fault plan reaches only the thread that installs it, so these tests
//! run side by side under the parallel test runner — and so do two
//! engines running at once (`concurrent_engines_keep_their_faults_and_events_apart`).

use std::path::PathBuf;
use std::time::Duration;

use exl_engine::{CrashBundle, DispatchPolicy, ExlEngine, TargetKind, BUNDLE_VERSION};
use exl_fault::{FaultAction, FaultPlan};
use exl_integration_tests::{fresh_dir, gdp_engine, wide_sharded_engine};
use exl_model::value::DimValue;
use exl_model::CubeData;

/// Read the single bundle in `dir` back through the typed schema — the
/// round-trip *is* the schema validation.
fn read_single_bundle(dir: &PathBuf) -> CrashBundle {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one bundle: {files:?}");
    let path = files.pop().unwrap();
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    assert!(
        name.starts_with("bundle-") && name.ends_with(".json"),
        "{name}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let bundle: CrashBundle = serde_json::from_str(&text).unwrap();
    assert_eq!(bundle.version, BUNDLE_VERSION);
    bundle
}

fn bundle_count(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// Failure class 1 — contained panic: the bundle carries the `panic`
/// kind, names the failing subgraph, lists the fired fault site, and
/// its event tail ends with the run-failed event.
#[test]
fn panic_run_emits_a_bundle_naming_subgraph_and_site() {
    let dir = fresh_dir("bundle-panic");
    let mut e = gdp_engine(TargetKind::Native);
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let path = e.last_bundle().expect("bundle path recorded").to_owned();
    assert!(path.starts_with(&dir));
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "panic");
    assert!(bundle.error.message.contains("injected panic"));
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "failed");
    assert!(!failing.cubes.is_empty());
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "panic.caught" && ev.detail.contains("injected panic")),
        "no panic.caught event in the tail"
    );
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "fault.fired" && ev.site == "exec.native"),
        "no fault.fired event in the tail"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 2 — deadline: a stalled backend cut off by the
/// per-attempt deadline produces a `timeout` bundle whose failing
/// subgraph is named and whose fault site (the injected stall) fired.
#[test]
fn deadline_run_emits_a_timeout_bundle() {
    let dir = fresh_dir("bundle-deadline");
    let mut e = gdp_engine(TargetKind::Native);
    e.policy = DispatchPolicy {
        subgraph_timeout: Some(Duration::from_millis(40)),
        ..DispatchPolicy::default()
    };
    let _guard = exl_fault::install(FaultPlan::delay_once("exec.native", 10_000));
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "timeout");
    assert!(
        bundle.error.message.contains("deadline"),
        "{:?}",
        bundle.error
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert!(!failing.cubes.is_empty());
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    assert!(
        bundle.events.iter().any(|ev| ev.kind == "timeout"),
        "no timeout event in the tail"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 3 — tripped budget: a one-byte memory ceiling yields a
/// `budget-exceeded` bundle whose `govern` section records the
/// configured ceiling and the governor trip lands in the event tail.
#[test]
fn budget_run_emits_a_budget_bundle_with_govern_state() {
    let dir = fresh_dir("bundle-budget");
    let mut e = gdp_engine(TargetKind::Native);
    e.govern.max_memory_bytes = Some(1);
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "budget-exceeded");
    assert_eq!(bundle.govern.max_memory_bytes, Some(1));
    assert!(bundle.govern.mem_peak_bytes > 1);
    assert!(bundle.govern.cancelled, "budget trip cancels the run token");
    assert!(
        bundle.events.iter().any(|ev| ev.kind == "govern.trip"),
        "no govern.trip event in the tail"
    );
    assert!(bundle.fault_sites.is_empty(), "{:?}", bundle.fault_sites);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 4 — cancellation: an injected mid-run cancel produces a
/// `cancelled` bundle naming the cancelled subgraph, with the reason in
/// the `govern` section.
#[test]
fn cancelled_run_emits_a_cancel_bundle() {
    let dir = fresh_dir("bundle-cancel");
    let mut e = gdp_engine(TargetKind::Native);
    let _guard = exl_fault::install(FaultPlan::cancel_once("exec.native"));
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "cancelled");
    assert!(bundle.govern.cancelled);
    assert!(
        bundle.govern.cancel_reason.is_some(),
        "cancel reason recorded"
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "cancelled");
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Failure class 5 — cache corruption: unreadable cache entries degrade
/// to recomputation, so forcing the recompute to fail as well yields a
/// bundle whose event tail holds the `cache.corrupt` events alongside
/// the execution failure.
#[test]
fn cache_corruption_run_emits_a_bundle_with_corrupt_events() {
    let cache = fresh_dir("bundle-cache");
    let dir = fresh_dir("bundle-corrupt");
    {
        // warm run: populate the disk cache cleanly
        let mut e = gdp_engine(TargetKind::Native);
        e.enable_disk_cache(&cache).unwrap();
        e.run_all().unwrap();
    }
    // every cache read is corrupt AND every recompute fails: the run
    // cannot degrade its way out
    let plan = FaultPlan::one("cache.read", 0, FaultAction::Error).and(
        "exec.native",
        0,
        FaultAction::Error,
    );
    let _guard = exl_fault::install(plan);
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_disk_cache(&cache).unwrap();
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "execution");
    assert!(
        bundle
            .events
            .iter()
            .any(|ev| ev.kind == "cache.corrupt" && ev.site == "cache.read"),
        "no cache.corrupt event in the tail: {:?}",
        bundle
            .events
            .iter()
            .map(|e| e.kind.clone())
            .collect::<Vec<_>>()
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "failed");
    assert!(bundle.fault_sites.contains(&"cache.read".to_string()));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&cache).unwrap();
}

/// A degraded `keep_going` run that returns Ok with failed cubes still
/// writes a bundle, under the `subgraph-failures` kind.
#[test]
fn degraded_keep_going_run_writes_a_subgraph_failures_bundle() {
    let dir = fresh_dir("bundle-degraded");
    let mut e = ExlEngine::new();
    e.register_program(
        "diamond",
        "cube A(k: int) -> a; cube B(k: int) -> b; C := 2 * A; D := 3 * B;",
    )
    .unwrap();
    let cube = |v: f64| CubeData::from_tuples(vec![(vec![DimValue::Int(1)], v)]).unwrap();
    e.load_elementary(&"A".into(), cube(1.0)).unwrap();
    e.load_elementary(&"B".into(), cube(10.0)).unwrap();
    e.catalog
        .set_affinity(&"C".into(), Some(TargetKind::Sql))
        .unwrap();
    e.policy.keep_going = true;
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.sql"));
    e.set_bundle_dir(&dir).unwrap();
    let report = e.run_all().unwrap();
    assert_eq!(report.failed, vec!["C".into()]);
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "subgraph-failures");
    assert!(bundle.error.message.contains('C'));
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.cubes, vec!["C".to_string()]);
    // the healthy sibling is in the full subgraph list with its outcome
    assert!(bundle
        .subgraphs
        .iter()
        .any(|s| s.cubes == vec!["D".to_string()] && s.status == "computed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Successful runs write nothing: the directory stays empty and
/// `last_bundle` stays unset, across repeated runs.
#[test]
fn successful_runs_write_no_bundle() {
    let dir = fresh_dir("bundle-ok");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap();
    assert_eq!(bundle_count(&dir), 0);
    assert!(e.last_bundle().is_none());
    // a second (no-op incremental) run stays clean too
    e.run_all().unwrap();
    assert_eq!(bundle_count(&dir), 0);
    assert!(e.last_bundle().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The bundle's `env.eval_threads` is the worker count the engine ran
/// its evaluator with (`exec.eval_threads`), as the engine was set up.
#[test]
fn bundle_records_the_engines_eval_thread_count() {
    let dir = fresh_dir("bundle-threads");
    let mut e = gdp_engine(TargetKind::Native);
    e.exec.eval_threads = Some(4);
    let _guard = exl_fault::install(FaultPlan::fail_always("exec.native"));
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.env.eval_threads.as_deref(), Some("4"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed run with a ledger dir armed still appends its ledger record
/// (status = the error kind), so post-mortems and baselines see crashes.
#[test]
fn failed_run_still_appends_a_ledger_record() {
    let dir = fresh_dir("bundle-ledger");
    let mut e = gdp_engine(TargetKind::Native);
    e.set_ledger_dir(&dir).unwrap();
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    e.run_all().unwrap_err();
    let (records, skipped) = exl_engine::ledger::read_ledger(&dir).unwrap();
    assert_eq!(skipped, 0);
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].status, "panic");
    assert_eq!(records[0].program.len(), 32);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A panic inside one shard of a sharded native subgraph produces a
/// bundle whose error message names the failing shard (`shard {i}/{n}:`)
/// and whose failing subgraph lists the sharded cubes — the post-mortem
/// starts with the partition, not just the subgraph.
#[test]
fn sharded_panic_bundle_names_the_failing_shard() {
    let dir = fresh_dir("bundle-shard");
    let mut e = wide_sharded_engine(4);
    let _guard = exl_fault::install(FaultPlan::panic_once("exec.native"));
    e.set_bundle_dir(&dir).unwrap();
    e.run_all().unwrap_err();
    let bundle = read_single_bundle(&dir);
    assert_eq!(bundle.error.kind, "panic");
    assert!(
        bundle.error.message.contains("shard ") && bundle.error.message.contains("/4: "),
        "bundle error does not name the failing shard: {}",
        bundle.error.message
    );
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.status, "failed");
    assert!(
        failing.cubes.contains(&"C".to_string()),
        "{:?}",
        failing.cubes
    );
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two engines run at once on two threads, each with its own bundle dir.
/// One thread installs a plan that fails every native execution and
/// keeps it installed while the other thread runs clean rounds: the plan
/// stays on its own thread, the clean engine writes no bundle, and the
/// faulted engine's bundle holds only its own run's events.
#[test]
fn concurrent_engines_keep_their_faults_and_events_apart() {
    let engine = |program: &str, dir: &PathBuf| {
        let mut e = ExlEngine::new();
        e.register_program("p", program).unwrap();
        e.set_bundle_dir(dir).unwrap();
        e
    };
    let cube = |v: f64| CubeData::from_tuples(vec![(vec![DimValue::Int(1)], v)]).unwrap();
    let (faulted_dir, clean_dir) = (fresh_dir("bundle-two-f"), fresh_dir("bundle-two-c"));
    let (planned, faulted_done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
    let (faulted_result, clean_results) = std::thread::scope(|s| {
        let faulted = s.spawn(|| {
            let mut e = engine(
                "cube A(k: int) -> a; F1 := 2 * A; F2 := 3 * F1;",
                &faulted_dir,
            );
            e.load_elementary(&"A".into(), cube(1.0)).unwrap();
            let _guard = exl_fault::install(FaultPlan::fail_always("exec.native"));
            planned.wait();
            let result = e.run_all().map(|_| ());
            // the plan stays installed until the clean rounds are done
            faulted_done.wait();
            result
        });
        let clean = s.spawn(|| {
            let mut e = engine(
                "cube B(k: int) -> b; C1 := 2 * B; C2 := 3 * C1;",
                &clean_dir,
            );
            planned.wait();
            let results: Vec<_> = (0..20)
                .map(|round| {
                    e.load_elementary(&"B".into(), cube(round as f64)).unwrap();
                    e.run_all().map(|_| ())
                })
                .collect();
            faulted_done.wait();
            results
        });
        (faulted.join().unwrap(), clean.join().unwrap())
    });
    for (round, result) in clean_results.iter().enumerate() {
        assert!(result.is_ok(), "clean round {round} failed: {result:?}");
    }
    assert_eq!(
        bundle_count(&clean_dir),
        0,
        "the clean engine wrote a bundle"
    );
    assert!(faulted_result.is_err(), "the faulted run succeeded");
    let bundle = read_single_bundle(&faulted_dir);
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    let failing = bundle.failing_subgraph.expect("failing subgraph named");
    assert_eq!(failing.cubes, vec!["F1".to_string(), "F2".to_string()]);
    let runs = bundle.events.iter().filter(|ev| ev.kind == "run").count();
    assert_eq!(runs, 2, "one run's start and end, no other engine's");
    for ev in &bundle.events {
        let text = format!("{} {}", ev.site, ev.detail);
        assert!(
            !text.contains("C1") && !text.contains("C2"),
            "the clean engine's event leaked into the bundle: {ev:?}"
        );
    }
    std::fs::remove_dir_all(&faulted_dir).unwrap();
    let _ = std::fs::remove_dir_all(&clean_dir);
}
