//! C6 — backend equivalence: the same program produces the same cubes on
//! every target system (native interpreter, chase, SQL engine, mini-R,
//! mini-Matlab, ETL sequential and parallel), on the GDP scenario and on
//! random programs.

use exl_engine::{run_on_target, TargetKind};
use exl_workload::{gdp_scenario, random_scenario, GdpConfig, RandomConfig};
use proptest::prelude::*;

fn check_all_backends(
    analyzed: &exl_lang::AnalyzedProgram,
    input: &exl_model::Dataset,
    label: &str,
) {
    let reference = exl_eval::run_program(analyzed, input)
        .unwrap_or_else(|e| panic!("{label}: eval failed: {e}"));
    for target in TargetKind::ALL {
        let out = run_on_target(analyzed, input, target)
            .unwrap_or_else(|e| panic!("{label} on {target}: {e}"));
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out
                .data(&id)
                .unwrap_or_else(|| panic!("{label} on {target}: missing {id}"));
            assert!(
                got.approx_eq(want, 1e-9),
                "{label} on {target}, cube {id}:\n{}\n{:?}",
                exl_lang::program_to_string(&analyzed.program),
                got.diff(want, 1e-9)
            );
        }
    }
}

#[test]
fn all_backends_agree_on_gdp_default_scale() {
    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    check_all_backends(&analyzed, &input, "gdp-default");
}

#[test]
fn all_backends_agree_on_gdp_larger_scale() {
    let (analyzed, input) = gdp_scenario(GdpConfig {
        regions: 8,
        quarters: 20,
        days_per_quarter: 6,
        seed: 5,
    });
    check_all_backends(&analyzed, &input, "gdp-large");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random programs across all seven targets.
    #[test]
    fn all_backends_agree_on_random_programs(seed in 0u64..2000, statements in 3usize..8) {
        let (analyzed, input) = random_scenario(RandomConfig {
            seed,
            statements,
            ..RandomConfig::default()
        });
        check_all_backends(&analyzed, &input, &format!("random-{seed}"));
    }
}

/// A larger-scale stress run (~55k input tuples), excluded from the
/// default test pass; run with `cargo test -- --ignored`.
#[test]
#[ignore = "slow: large-scale stress run"]
fn all_backends_agree_at_stress_scale() {
    let (analyzed, input) = gdp_scenario(GdpConfig {
        regions: 32,
        quarters: 80,
        days_per_quarter: 20,
        seed: 9,
    });
    check_all_backends(&analyzed, &input, "gdp-stress");
}

/// Determinism: two runs of the same program on the same data produce
/// bit-identical cubes on every backend (the storage and iteration
/// orders are total by design).
#[test]
fn every_backend_is_bit_deterministic() {
    let (analyzed, input) = gdp_scenario(GdpConfig::default());
    for target in TargetKind::ALL {
        let a = run_on_target(&analyzed, &input, target).unwrap();
        let b = run_on_target(&analyzed, &input, target).unwrap();
        assert!(
            a.approx_eq_report(&b, 0.0).is_ok(),
            "{target}: {:?}",
            a.approx_eq_report(&b, 0.0)
        );
    }
}

/// Empty input data flows through every backend without errors.
#[test]
fn all_backends_handle_empty_inputs() {
    let (analyzed, input) = gdp_scenario(GdpConfig {
        regions: 1,
        quarters: 0,
        days_per_quarter: 0,
        seed: 0,
    });
    for target in TargetKind::ALL {
        let out =
            run_on_target(&analyzed, &input, target).unwrap_or_else(|e| panic!("{target}: {e}"));
        for id in analyzed.program.derived_ids() {
            assert!(
                out.data(&id).map(|d| d.is_empty()).unwrap_or(true),
                "{target}: {id} not empty"
            );
        }
    }
}

/// The feature matrix of §5: the outer (default-value) variant runs on
/// native, chase and ETL, and is refused at *translation* time by the
/// script targets — never silently miscomputed.
#[test]
fn outer_variant_feature_matrix() {
    use exl_model::value::DimValue;
    use exl_model::{Cube, CubeData, Dataset};

    let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut input = Dataset::new();
    input.put(Cube::new(
        analyzed.schemas[&"A".into()].clone(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
    ));
    input.put(Cube::new(
        analyzed.schemas[&"B".into()].clone(),
        CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 5.0)]).unwrap(),
    ));

    for target in [TargetKind::Native, TargetKind::Chase, TargetKind::Etl] {
        let out = run_on_target(&analyzed, &input, target).unwrap();
        assert_eq!(out.data(&"C".into()).unwrap().len(), 2, "{target}");
    }
    for target in [TargetKind::Sql, TargetKind::R, TargetKind::Matlab] {
        let err = run_on_target(&analyzed, &input, target).unwrap_err();
        assert!(
            matches!(err, exl_engine::EngineError::Unsupported { .. }),
            "{target}: {err}"
        );
    }
}
