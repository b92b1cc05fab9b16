//! Observability integration: the metrics the engine reports for a run
//! agree with what the subsystems measure directly, and every sink that
//! records a subgraph's fate names the same status.
//!
//! A fault plan reaches only the thread that installs it, and a flight
//! ring only the thread that enters it (and the runs it makes), so these
//! tests run side by side without guarding one another.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use exl_engine::{ExlEngine, ProgressSink, SubgraphStatus, TargetKind};
use exl_fault::FaultPlan;
use exl_integration_tests::gdp_engine;
use exl_model::value::DimValue;
use exl_model::{CubeData, CubeId};
use exl_obs::flight::{self, FlightKind, FlightRing};
use exl_workload::{gdp_scenario, wide_program, wide_scenario, DeltaGen, GdpConfig, WideConfig};

/// The chase counters in `RunReport::metrics` equal the `ChaseStats` a
/// direct chase of the same mapping over the same data reports.
#[test]
fn run_report_chase_counters_match_chase_stats() {
    let mut e = gdp_engine(TargetKind::Chase);
    e.enable_metrics();
    let report = e.run_all().unwrap();

    // the whole GDP program is one chase subgraph; chase it directly
    let (analyzed, data) = gdp_scenario(GdpConfig::default());
    let code = exl_engine::translate(&analyzed, TargetKind::Chase).unwrap();
    let exl_engine::TargetCode::Chase { mapping, schemas } = code else {
        panic!("chase translation expected");
    };
    let input = data.restrict(&analyzed.elementary_inputs());
    let result =
        exl_chase::chase(&mapping, &schemas, &input, exl_chase::ChaseMode::Stratified).unwrap();

    let m = &report.metrics;
    assert_eq!(
        m.counter("chase.applications"),
        result.stats.applications as u64
    );
    assert_eq!(
        m.counter("chase.homomorphisms"),
        result.stats.homomorphisms as u64
    );
    assert_eq!(
        m.counter("chase.facts_generated"),
        result.stats.facts_generated as u64
    );
    assert_eq!(m.counter("chase.passes"), result.stats.passes as u64);
    assert!(m.span_total_nanos("chase.run") > 0);
    assert!(m.span_total_nanos("engine.subgraph.chase") > 0);
    assert!(m.span_total_nanos("target.execute.chase") > 0);
    assert!(m.span_total_nanos("engine.recompute") >= m.span_total_nanos("engine.subgraph.chase"));
}

/// Without `enable_metrics`, runs record nothing and the report's
/// metrics section stays empty.
#[test]
fn metrics_default_off_and_report_empty() {
    let mut e = gdp_engine(TargetKind::Native);
    let report = e.run_all().unwrap();
    assert_eq!(report.metrics.counter("engine.subgraphs"), 0);
    assert_eq!(report.metrics.span_total_nanos("engine.recompute"), 0);
    assert!(e.metrics().is_none());
}

/// The registry accumulates across runs and serializes to JSON that
/// parses back.
#[test]
fn registry_accumulates_and_serializes() {
    let mut e = gdp_engine(TargetKind::Native);
    let registry = e.enable_metrics();
    e.run_all().unwrap();
    let after_one = registry.counter("engine.subgraphs");
    assert_eq!(after_one, 1);
    let (_, data) = gdp_scenario(GdpConfig {
        seed: 9,
        ..GdpConfig::default()
    });
    e.load_elementary(&"PDR".into(), data.data(&"PDR".into()).unwrap().clone())
        .unwrap();
    let report = e.recompute(&["PDR".into()]).unwrap();
    assert_eq!(report.metrics.counter("engine.subgraphs"), 2);

    let json = registry.to_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed["counters"]["engine.subgraphs"].as_u64(), Some(2));
}

/// `engine.subgraphs_cached` counts only subgraphs whose final status is
/// `Cached`. After a delta, the warm GDP subgraph still resolves from the
/// run cache, but its whole-series statement is evaluated inline, so it
/// reports `Computed` and must not count as cached.
#[test]
fn cached_counter_skips_partially_resolved_subgraphs() {
    let mut e = gdp_engine(TargetKind::Native);
    e.enable_cache();
    e.run_all().unwrap();
    let id: CubeId = "RGDPPC".into();
    let patched = DeltaGen::new(3).patch_cube(e.data(&id).unwrap(), 2);
    e.load_elementary(&id, patched).unwrap();
    let registry = e.enable_metrics();
    let report = e.run_all().unwrap();
    let sub = &report.subgraphs[0];
    // the precondition: served from the cache, one statement inline
    assert_eq!(report.subgraphs.len(), 1);
    assert!(sub.attempts.is_empty(), "dispatched, not cache-served");
    assert!(
        sub.cache.misses > 0 && sub.cache.hits + sub.cache.delta_hits > 0,
        "{:?}",
        sub.cache
    );
    assert_eq!(sub.status, SubgraphStatus::Computed);
    assert_eq!(registry.counter("engine.subgraphs_cached"), 0);
}

/// One engine of the sink-agreement matrix: the B5 wide program (a
/// native subgraph that shards on `r`, with `movavg` statements a warm
/// delta must evaluate inline), an independent R subgraph `D`, and a SQL
/// subgraph `X` downstream of the native one, which keep_going skips
/// when the native subgraph fails.
fn sinks_engine(shards: Option<usize>) -> ExlEngine {
    let cfg = WideConfig {
        regions: 12,
        quarters: 8,
        seed: 5,
        barrier: true,
    };
    let (_, data) = wide_scenario(cfg);
    let mut e = ExlEngine::new();
    e.shards = shards;
    e.policy.keep_going = true;
    e.register_program("wide", &wide_program(cfg.barrier))
        .unwrap();
    e.register_program("extra", "cube V(k: int) -> v; D := 3 * V; X := 2 * T;")
        .unwrap();
    e.catalog
        .set_affinity(&"D".into(), Some(TargetKind::R))
        .unwrap();
    e.catalog
        .set_affinity(&"X".into(), Some(TargetKind::Sql))
        .unwrap();
    let w: CubeId = "W".into();
    e.load_elementary(&w, data.data(&w).unwrap().clone())
        .unwrap();
    e.load_elementary(
        &"V".into(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 10.0)]).unwrap(),
    )
    .unwrap();
    e.enable_cache();
    e
}

/// Run one matrix cell and check that its sinks agree; returns the
/// statuses the cell's subgraphs ended with.
fn sink_agreement_cell(shards: Option<usize>, warm: &str, fault: &str) -> BTreeSet<String> {
    let cell = format!("shards={shards:?} {warm} {fault}");
    let mut e = sinks_engine(shards);
    if warm != "cold" {
        e.run_all().unwrap();
    }
    if warm == "delta" {
        let w: CubeId = "W".into();
        let patched = DeltaGen::new(11).patch_cube(e.data(&w).unwrap(), 3);
        e.load_elementary(&w, patched).unwrap();
    }
    let ledger_dir = std::env::temp_dir().join(format!(
        "exl-sinks-{}-{}",
        std::process::id(),
        cell.replace(' ', "-")
    ));
    let _ = std::fs::remove_dir_all(&ledger_dir);
    e.set_ledger_dir(&ledger_dir).unwrap();
    let registry = e.enable_metrics();
    let tracer = e.enable_tracing();
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    e.progress = Some(ProgressSink::new(move |ev| {
        sink.lock().unwrap().push(ev.clone())
    }));
    let plan = match fault {
        "fail_always" => Some(FaultPlan::fail_always("exec.native")),
        "cancel_once" => Some(FaultPlan::cancel_once("exec.native")),
        _ => None,
    };
    let ring = FlightRing::new(flight::DEFAULT_CAPACITY);
    let result = {
        let _entered = ring.enter();
        let _guard = plan.map(exl_fault::install);
        e.run_all()
    };
    let tail = ring.tail();

    let join = |cubes: &[CubeId]| {
        cubes
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(",")
    };
    let snapshot = tracer.snapshot();
    let spans: BTreeMap<String, String> = snapshot
        .spans_named("subgraph")
        .iter()
        .map(|s| {
            let cubes = s.attr_str("cubes").unwrap().to_string();
            (cubes, s.attr_str("status").unwrap_or("<none>").to_string())
        })
        .collect();
    let flights: BTreeMap<String, String> = tail
        .iter()
        .filter(|ev| ev.kind == FlightKind::Subgraph)
        .map(|ev| {
            let (cubes, rest) = ev.detail.split_once(": ").unwrap();
            (
                cubes.to_string(),
                rest.split(' ').next().unwrap().to_string(),
            )
        })
        .collect();
    assert_eq!(flights, spans, "{cell}: flight events vs spans");
    let (records, _) = exl_engine::ledger::read_ledger(&ledger_dir).unwrap();
    std::fs::remove_dir_all(&ledger_dir).unwrap();
    assert_eq!(records.len(), 1, "{cell}");
    let ledger_keys: BTreeSet<&str> = records[0]
        .statements
        .iter()
        .map(|s| s.key.split('#').next().unwrap())
        .collect();
    assert_eq!(
        ledger_keys,
        spans.keys().map(String::as_str).collect(),
        "{cell}: ledger vs spans"
    );
    for s in records[0]
        .statements
        .iter()
        .filter(|s| !s.key.contains('#'))
    {
        assert_eq!(
            spans.get(&s.key),
            Some(&s.status),
            "{cell}: ledger {}",
            s.key
        );
    }
    let progress: BTreeMap<String, String> = events
        .lock()
        .unwrap()
        .iter()
        .map(|ev| (join(&ev.cubes), ev.status.name().to_string()))
        .collect();
    match &result {
        Ok(report) => {
            let reported: BTreeMap<String, String> = report
                .subgraphs
                .iter()
                .map(|s| (join(&s.cubes), s.status.name().to_string()))
                .collect();
            assert_eq!(reported.len(), 3, "{cell}");
            assert_eq!(reported, spans, "{cell}: report vs spans");
            assert_eq!(progress, spans, "{cell}: progress vs spans");
            let count = |names: &[&str]| {
                report
                    .subgraphs
                    .iter()
                    .filter(|s| names.contains(&s.status.name()))
                    .count() as u64
            };
            for (counter, names) in [
                ("engine.subgraphs_cached", &["cached"][..]),
                (
                    "engine.subgraphs_failed",
                    &["failed", "cancelled", "budget-exceeded"],
                ),
                ("engine.subgraphs_skipped", &["skipped"]),
            ] {
                assert_eq!(registry.counter(counter), count(names), "{cell}: {counter}");
            }
        }
        // an aborted run reports nothing and the aborting subgraph emits
        // no progress event; everything that was emitted still agrees
        Err(_) => {
            for (cubes, status) in &progress {
                assert_eq!(spans.get(cubes), Some(status), "{cell}: progress {cubes}");
            }
        }
    }
    spans.into_values().collect()
}

/// Every record of a subgraph names the same status — its `subgraph`
/// span, its `SubgraphReport`, its progress event, its `subgraph` flight
/// event and (unsharded) its ledger entry — and the
/// `engine.subgraphs_{cached,failed,skipped}` counters equal the
/// per-status report counts, across {unsharded, 2 shards} × {cold, warm
/// exact hit, warm after a delta} × {clean, `fail_always`, `cancel_once`}
/// under keep_going.
#[test]
fn every_sink_agrees_on_every_subgraph_status() {
    let mut seen = BTreeSet::new();
    for shards in [None, Some(2)] {
        for warm in ["cold", "warm", "delta"] {
            for fault in ["clean", "fail_always", "cancel_once"] {
                seen.extend(sink_agreement_cell(shards, warm, fault));
            }
        }
    }
    for status in ["computed", "cached", "failed", "skipped", "cancelled"] {
        assert!(
            seen.contains(status),
            "the matrix never produced {status}: {seen:?}"
        );
    }
}
