//! F2 — the architecture of Fig. 2 as an executable scenario: multiple
//! programs forming one global DAG, determination on change, per-target
//! partitioning, offline translation, dispatch (sequential and parallel),
//! historicity, and catalog persistence.

use exl_engine::{ExlEngine, TargetKind};
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

/// A second "household accounts" program that consumes the GDP program's
/// outputs — the multi-program production environment of §6.
const HOUSEHOLD_PROGRAM: &str = r#"
cube HSPEND(q: time[quarter], r: text) -> s;
HSR := sum(HSPEND, group by q);
HSHARE := 100 * HSR / GDP;
HTREND := stl_trend(HSHARE);
"#;

fn household_data(e: &ExlEngine, quarters: usize) -> exl_model::CubeData {
    let schema = e.catalog.schema(&"HSPEND".into()).unwrap().clone();
    let mut data = exl_model::CubeData::new();
    for qi in 0..quarters {
        for r in ["r00", "r01"] {
            data.insert_overwrite(
                vec![
                    exl_model::DimValue::Time(exl_model::TimePoint::Quarter {
                        year: 2015 + (qi / 4) as i32,
                        quarter: (qi % 4 + 1) as u32,
                    }),
                    exl_model::DimValue::str(r),
                ],
                50.0 + qi as f64 + if r == "r00" { 3.0 } else { 0.0 },
            );
        }
    }
    let _ = schema;
    data
}

fn full_engine() -> ExlEngine {
    let cfg = GdpConfig::default();
    let (analyzed, data) = gdp_scenario(cfg);
    let mut e = ExlEngine::new();
    e.register_program("gdp", GDP_PROGRAM).unwrap();
    e.register_program("household", HOUSEHOLD_PROGRAM).unwrap();
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    let hs = household_data(&e, cfg.quarters);
    e.load_elementary(&"HSPEND".into(), hs).unwrap();
    e
}

#[test]
fn f2_multi_program_dag_runs_end_to_end() {
    let mut e = full_engine();
    let report = e.run_all().unwrap();
    // 5 GDP cubes + 3 household cubes
    assert_eq!(report.computed.len(), 8);
    let hshare = e.data(&"HSHARE".into()).unwrap();
    assert!(!hshare.is_empty());
    // HSHARE is a share percentage: positive and below 100 for this data
    for (_, v) in hshare.iter() {
        assert!(v > 0.0 && v < 100.0, "{v}");
    }
}

#[test]
fn f2_change_propagation_crosses_program_boundaries() {
    let mut e = full_engine();
    e.run_all().unwrap();
    // changing PDR re-runs the GDP chain AND the household cubes that
    // depend on GDP (HSHARE, HTREND), but not HSR
    let (_, data) = gdp_scenario(GdpConfig {
        seed: 77,
        ..GdpConfig::default()
    });
    e.load_elementary(&"PDR".into(), data.data(&"PDR".into()).unwrap().clone())
        .unwrap();
    let report = e.recompute(&["PDR".into()]).unwrap();
    let names: Vec<&str> = report.computed.iter().map(|c| c.as_str()).collect();
    assert_eq!(
        names,
        vec!["PQR", "RGDP", "GDP", "GDPT", "PCHNG", "HSHARE", "HTREND"]
    );
    assert!(!names.contains(&"HSR"));
}

#[test]
fn f2_translation_is_offline() {
    // plan_and_translate touches no data: it works before any load
    let mut e = ExlEngine::new();
    e.register_program("gdp", GDP_PROGRAM).unwrap();
    let translated = e
        .plan_and_translate(&["PDR".into(), "RGDPPC".into()])
        .unwrap();
    assert_eq!(translated.len(), 1); // one subgraph, default target
    assert!(!translated[0].fallback);
    assert!(!translated[0].code.listing().is_empty());
}

#[test]
fn f2_heterogeneous_dispatch_with_parallel_stages() {
    let mut e = full_engine();
    // route the GDP chain to SQL and the household chain to R — after GDP
    // exists, HSR is independent of the GDP subgraph
    for id in ["PQR", "RGDP", "GDP", "GDPT", "PCHNG"] {
        e.catalog
            .set_affinity(&id.into(), Some(TargetKind::Sql))
            .unwrap();
    }
    for id in ["HSR", "HSHARE", "HTREND"] {
        e.catalog
            .set_affinity(&id.into(), Some(TargetKind::R))
            .unwrap();
    }
    let report = e.run_all().unwrap();
    assert!(report.subgraphs.len() >= 2);
    assert!(report.subgraphs.iter().any(|s| s.target == TargetKind::Sql));
    assert!(report.subgraphs.iter().any(|s| s.target == TargetKind::R));

    // results equal a fully native engine
    let mut native = full_engine();
    native.run_all().unwrap();
    for id in ["PCHNG", "HSHARE", "HTREND"] {
        let a = e.data(&id.into()).unwrap();
        let b = native.data(&id.into()).unwrap();
        assert!(a.approx_eq(b, 1e-9), "{id}: {:?}", a.diff(b, 1e-9));
    }
}

#[test]
fn f2_historicity_keeps_every_version() {
    let mut e = full_engine();
    e.run_all().unwrap();
    let clock1 = e.catalog.clock();
    let gdp_v1 = e.data(&"GDP".into()).unwrap().clone();

    let (_, data) = gdp_scenario(GdpConfig {
        seed: 123,
        ..GdpConfig::default()
    });
    e.load_elementary(
        &"RGDPPC".into(),
        data.data(&"RGDPPC".into()).unwrap().clone(),
    )
    .unwrap();
    e.recompute(&["RGDPPC".into()]).unwrap();

    // current GDP differs from version 1, which is still retrievable
    let gdp_now = e.data(&"GDP".into()).unwrap();
    assert!(!gdp_now.approx_eq(&gdp_v1, 1e-12));
    let gdp_as_of = e.catalog.as_of(&"GDP".into(), clock1).unwrap();
    assert!(gdp_as_of.approx_eq(&gdp_v1, 0.0));
}

#[test]
fn f2_catalog_round_trips_through_json() {
    let mut e = full_engine();
    e.run_all().unwrap();
    let json = e.catalog.to_json().unwrap();
    let restored = exl_engine::Catalog::from_json(&json).unwrap();
    assert_eq!(e.catalog, restored);
    // the restored catalog answers data queries identically
    assert!(restored
        .current(&"GDP".into())
        .unwrap()
        .approx_eq(e.data(&"GDP".into()).unwrap(), 0.0));
}

#[test]
fn f2_catalog_probe() {
    let mut e = full_engine();
    e.run_all().unwrap();
    let json = e.catalog.to_json().unwrap();
    let restored = exl_engine::Catalog::from_json(&json).unwrap();
    for id in e.catalog.cube_ids() {
        let a = e.catalog.meta(&id).unwrap();
        let b = restored.meta(&id).unwrap();
        assert_eq!(a.schema, b.schema, "schema {id}");
        assert_eq!(a.affinity, b.affinity, "affinity {id}");
        assert_eq!(a.versions.len(), b.versions.len(), "versions {id}");
        for (va, vb) in a.versions.iter().zip(&b.versions) {
            assert_eq!(va.version, vb.version, "vnum {id}");
            if va.data != vb.data {
                if let Some(d) = va.data.diff(&vb.data, 0.0) {
                    panic!("{id}: {d}");
                }
                panic!("{id}: data differs with empty diff?!");
            }
        }
    }
    assert_eq!(e.catalog.programs(), restored.programs(), "programs");
    assert_eq!(e.catalog.clock(), restored.clock(), "clock");
}

/// With a subgraph deadline every attempt runs under its own child
/// governor; its `execute.<target>` span must still hang under the
/// `attempt` span that opened it.
#[test]
fn deadline_worker_spans_nest_under_their_attempt() {
    for target in TargetKind::ALL {
        let mut e = full_engine();
        e.default_target = target;
        e.policy.subgraph_timeout = Some(std::time::Duration::from_secs(60));
        let tracer = e.enable_tracing();
        e.run_all().unwrap();
        let snap = tracer.snapshot();
        let executes: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name.starts_with("execute."))
            .collect();
        assert!(!executes.is_empty(), "{target}: no execute spans");
        for exec in executes {
            let parent = snap
                .span(exec.parent.expect("execute span has a parent"))
                .unwrap();
            assert_eq!(parent.name, "attempt", "{target}: {}", exec.name);
        }
    }
}
