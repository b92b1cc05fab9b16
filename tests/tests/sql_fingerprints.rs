//! Bit-exact pins of the SQL backend's outputs.
//!
//! The SQL backend folds aggregates in its own row order, so its outputs
//! agree with the native evaluator only within `1e-9` (backends.rs). The
//! pins below hold the SQL backend to *itself*: the `Fingerprint` of every
//! cube a SQL-target subgraph produced on two seeded GDP scenarios. A
//! change to how inputs are loaded, how rows are joined or grouped, or in
//! which order aggregates fold, moves a pin.
//!
//! Re-pin only for an intended change of the SQL backend's arithmetic,
//! and say why in the commit message.

use exl_engine::{ExlEngine, TargetKind};
use exl_model::Fingerprint;
use exl_workload::{gdp_scenario, GdpConfig, GDP_PROGRAM};

/// How the derived cubes are spread over the targets.
#[derive(Clone, Copy)]
enum Affinity {
    /// `apply_suggested_affinities`, as the multi-target benchmark
    /// workload does: aggregations and joins on SQL, STL on R.
    Suggested,
    /// Every derived cube on SQL, STL included (tabular function).
    AllSql,
}

/// Run the GDP program with the given affinities and return
/// `(cube, fingerprint)` for every cube a SQL-target subgraph computed,
/// sorted by cube name.
fn sql_fingerprints(cfg: GdpConfig, affinity: Affinity) -> Vec<(String, String)> {
    let (analyzed, data) = gdp_scenario(cfg);
    let mut e = ExlEngine::new();
    e.register_program("gdp", GDP_PROGRAM).unwrap();
    for id in analyzed.elementary_inputs() {
        e.load_elementary(&id, data.data(&id).unwrap().clone())
            .unwrap();
    }
    match affinity {
        Affinity::Suggested => {
            e.apply_suggested_affinities().unwrap();
        }
        Affinity::AllSql => {
            for id in analyzed.program.derived_ids() {
                e.catalog.set_affinity(&id, Some(TargetKind::Sql)).unwrap();
            }
        }
    }
    let report = e.run_all().unwrap();
    let mut out: Vec<(String, String)> = report
        .subgraphs
        .iter()
        .filter(|s| s.target == TargetKind::Sql && !s.fallback)
        .flat_map(|s| s.cubes.iter())
        .map(|id| {
            let fp = Fingerprint::of_cube(e.data(id).unwrap());
            (id.to_string(), fp.to_hex())
        })
        .collect();
    out.sort();
    out
}

fn assert_pinned(label: &str, got: Vec<(String, String)>, want: &[(&str, &str)]) {
    let want: Vec<(String, String)> = want
        .iter()
        .map(|(c, f)| (c.to_string(), f.to_string()))
        .collect();
    assert_eq!(got, want, "{label}: SQL output fingerprints moved");
}

/// The multi-target shape: PQR, RGDP, GDP and PCHNG on SQL.
#[test]
fn multi_target_sql_outputs_are_pinned() {
    let cfg = GdpConfig {
        regions: 12,
        quarters: 40,
        days_per_quarter: 8,
        seed: 2026,
    };
    assert_pinned(
        "multi-target",
        sql_fingerprints(cfg, Affinity::Suggested),
        &MULTI_TARGET_PINS,
    );
}

/// Every statement on SQL, so the tabular-function path is pinned too.
#[test]
fn all_sql_outputs_are_pinned() {
    let cfg = GdpConfig {
        regions: 6,
        quarters: 24,
        days_per_quarter: 5,
        seed: 77,
    };
    assert_pinned(
        "all-sql",
        sql_fingerprints(cfg, Affinity::AllSql),
        &ALL_SQL_PINS,
    );
}

const MULTI_TARGET_PINS: [(&str, &str); 4] = [
    ("GDP", "59a29e9cde44fe816264a8a582f0a149"),
    ("PCHNG", "aa6b2ac1326a72f548e3e53eb266508c"),
    ("PQR", "a7e2932ebac9e6ea2b0c07a44224159d"),
    ("RGDP", "74609ab1953dfc6e5027425227f2f493"),
];

const ALL_SQL_PINS: [(&str, &str); 5] = [
    ("GDP", "fd84eab191259a2a50319327ea25e195"),
    ("GDPT", "69f90cf67d7905bdabc065cbd4014218"),
    ("PCHNG", "361b66a8ac669c615a65067de441148a"),
    ("PQR", "c6f65a7436db2c6eafd3466491ed557e"),
    ("RGDP", "f7aa5594239908ad26145b1c2bbad918"),
];
