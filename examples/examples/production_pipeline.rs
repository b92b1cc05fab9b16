//! The production architecture of §6 (Fig. 2): a metadata-driven engine
//! running several programs over heterogeneous targets, reacting to data
//! changes with minimal recomputation, and keeping version history.
//!
//! Run with `cargo run -p exl-examples --example production_pipeline`.

use exl_engine::{ExlEngine, TargetKind};
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

const HOUSEHOLD_PROGRAM: &str = r#"
cube HSPEND(q: time[quarter], r: text) -> s;
HSR := sum(HSPEND, group by q);
HSHARE := 100 * HSR / GDP;
HTREND := stl_trend(HSHARE);
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GdpConfig::default();
    let (analyzed, data) = gdp_scenario(cfg);

    // --- register programs: they form one global dependency DAG
    let mut engine = ExlEngine::new();
    engine.register_program("gdp", GDP_PROGRAM)?;
    engine.register_program("household", HOUSEHOLD_PROGRAM)?;
    println!(
        "registered 2 programs, {} cubes in the catalog",
        engine.catalog.cube_ids().len()
    );

    // --- technical metadata: pin cubes to target systems
    for id in ["PQR", "RGDP"] {
        engine
            .catalog
            .set_affinity(&id.into(), Some(TargetKind::Sql))?;
    }
    engine
        .catalog
        .set_affinity(&"GDPT".into(), Some(TargetKind::R))?;
    engine
        .catalog
        .set_affinity(&"HSR".into(), Some(TargetKind::Etl))?;

    // --- load elementary data (collection phase)
    for id in analyzed.elementary_inputs() {
        engine.load_elementary(&id, data.data(&id).unwrap().clone())?;
    }
    let mut hspend = exl_model::CubeData::new();
    for qi in 0..cfg.quarters {
        for r in 0..cfg.regions {
            hspend.insert_overwrite(
                vec![
                    exl_model::DimValue::Time(exl_model::TimePoint::Quarter {
                        year: 2015 + (qi / 4) as i32,
                        quarter: (qi % 4 + 1) as u32,
                    }),
                    exl_model::DimValue::Str(format!("r{r:02}").into()),
                ],
                40.0 + qi as f64 + r as f64 * 5.0,
            );
        }
    }
    engine.load_elementary(&"HSPEND".into(), hspend)?;

    // --- full production run
    let report = engine.run_all()?;
    println!(
        "\nfull run: {} cubes over {} subgraphs in {} stages",
        report.computed.len(),
        report.subgraphs.len(),
        report.stages
    );
    for s in &report.subgraphs {
        println!(
            "  [{}]{} computed {}",
            s.target,
            if s.fallback { " (fallback)" } else { "" },
            s.cubes
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }

    // --- a data revision arrives: only the affected chain re-runs
    let (_, revised) = gdp_scenario(GdpConfig { seed: 99, ..cfg });
    engine.load_elementary(
        &"RGDPPC".into(),
        revised.data(&"RGDPPC".into()).unwrap().clone(),
    )?;
    let incr = engine.recompute(&["RGDPPC".into()])?;
    println!(
        "\nafter revising RGDPPC, recomputed only: {}",
        incr.computed
            .iter()
            .map(|c| c.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(!incr.computed.iter().any(|c| c.as_str() == "PQR"));
    assert!(!incr.computed.iter().any(|c| c.as_str() == "HSR"));

    // --- historicity: both GDP versions remain queryable
    let gdp_versions = engine.catalog.meta(&"GDP".into()).unwrap().versions.len();
    println!("GDP now has {gdp_versions} stored versions (historicity)");
    assert_eq!(gdp_versions, 2);

    // --- the catalog persists as JSON metadata
    let json = engine.catalog.to_json()?;
    let restored = exl_engine::Catalog::from_json(&json)?;
    assert_eq!(engine.catalog, restored);
    println!(
        "catalog persisted and restored: {} bytes of JSON",
        json.len()
    );

    Ok(())
}
