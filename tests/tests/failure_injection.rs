//! Failure injection across the stack: every class of malformed input the
//! paper's discipline rules out must be rejected with a real diagnostic —
//! at the earliest possible stage — and never silently miscomputed.

use exl_engine::{ExlEngine, TargetKind};
use exl_model::value::DimValue;
use exl_model::CubeData;

fn analyze_err(src: &str) -> String {
    exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[])
        .unwrap_err()
        .to_string()
}

#[test]
fn static_discipline_violations_rejected_at_analysis() {
    // recursion
    assert!(analyze_err("cube A(k: int); B := B + A;").contains("not defined"));
    // forward reference
    assert!(analyze_err("cube A(k: int); B := C; C := A;").contains("not defined"));
    // double definition (the functional restriction of §3)
    assert!(analyze_err("cube A(k: int); B := A; B := 2 * A;").contains("more than once"));
    // dimension mismatch in a vectorial operator
    assert!(analyze_err("cube A(k: int); cube B(j: int); C := A + B;").contains("same dimensions"));
    // aggregation key that is not a dimension
    assert!(analyze_err("cube A(k: int); B := sum(A, group by zzz);").contains("not a dimension"));
    // frequency coarsening in the wrong direction
    assert!(
        analyze_err("cube A(y: year); B := sum(A, group by quarter(y) as q);")
            .contains("cannot coarsen")
    );
    // shift without a time dimension
    assert!(analyze_err("cube A(k: int); B := shift(A, 1);").contains("has none"));
}

#[test]
fn parse_errors_carry_positions() {
    let err = exl_lang::parse_program("X :=\n  1 +;").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("2:"), "{msg}"); // line 2
    assert!(msg.contains("expected expression"), "{msg}");
}

#[test]
fn type_mismatched_data_rejected_before_execution() {
    let mut e = ExlEngine::new();
    e.register_program("p", "cube A(q: quarter) -> y; B := 2 * A;")
        .unwrap();
    // integer where a quarter is expected
    let bad = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap();
    e.load_elementary(&"A".into(), bad).unwrap();
    let err = e.run_all().unwrap_err();
    assert!(err.to_string().contains("expects time[quarter]"), "{err}");
}

#[test]
fn arity_mismatched_data_rejected() {
    let mut e = ExlEngine::new();
    e.register_program("p", "cube A(q: quarter) -> y; B := 2 * A;")
        .unwrap();
    let bad = CubeData::from_tuples(vec![(
        vec![
            DimValue::Time(exl_model::TimePoint::Quarter {
                year: 2020,
                quarter: 1,
            }),
            DimValue::Int(9),
        ],
        1.0,
    )])
    .unwrap();
    e.load_elementary(&"A".into(), bad).unwrap();
    let err = e.run_all().unwrap_err();
    assert!(err.to_string().contains("arity"), "{err}");
}

#[test]
fn functional_violation_in_base_data_rejected_at_construction() {
    // CubeData enforces the egd by construction
    let err = CubeData::from_tuples(vec![
        (vec![DimValue::Int(1)], 1.0),
        (vec![DimValue::Int(1)], 2.0),
    ])
    .unwrap_err();
    assert!(err.to_string().contains("functional violation"), "{err}");
}

#[test]
fn missing_elementary_data_reported_per_target() {
    let src = "cube A(q: quarter) -> y; B := 2 * A;";
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    for target in TargetKind::ALL {
        let err =
            exl_engine::run_on_target(&analyzed, &exl_model::Dataset::new(), target).unwrap_err();
        assert!(err.to_string().contains("missing"), "{target}: {err}");
    }
}

#[test]
fn sql_engine_rejects_malformed_scripts() {
    let mut e = exl_sqlengine::Engine::new();
    for bad in [
        "SELEKT 1",
        "SELECT 1", // no FROM
        "CREATE TABLE T (X NOTATYPE)",
        "INSERT INTO missing (a) VALUES (1)",
        "SELECT x FROM missing",
    ] {
        assert!(
            e.execute(bad, &exl_obs::Span::disabled()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn r_interpreter_rejects_malformed_scripts() {
    let mut i = exl_rmini::RInterp::new();
    for bad in [
        "x <-",
        "x <- nosuch(1)",
        "x <- undefined.object",
        "x <- df[is.finite(",
    ] {
        assert!(
            i.run(bad, &exl_obs::Span::disabled()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn matlab_interpreter_rejects_malformed_scripts() {
    let mut i = exl_matmini::MatInterp::new();
    for bad in ["x =", "x = nosuch(1)", "x = undefinedvar", "x = [1 2"] {
        assert!(
            i.run(bad, &exl_obs::Span::disabled()).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn engine_rejects_program_conflicts() {
    let mut e = ExlEngine::new();
    e.register_program("one", "cube A(k: int); B := 2 * A;")
        .unwrap();
    // same derived cube defined by a second program: from the second
    // program's viewpoint B is an existing (externally defined) cube and
    // may not be redefined
    let err = e
        .register_program("two", "cube C(k: int); B := 3 * C;")
        .unwrap_err();
    assert!(
        err.to_string().contains("elementary") || err.to_string().contains("already"),
        "{err}"
    );
    // conflicting schema for an existing elementary cube
    let err = e
        .register_program("three", "cube A(k: int, z: text); D := 2 * A;")
        .unwrap_err();
    assert!(err.to_string().contains("different schema"), "{err}");
}

#[test]
fn partiality_never_leaks_non_finite_values() {
    // a program engineered to produce division by zero, ln of negatives
    // and sqrt of negatives: every backend must silently *drop* those
    // points, and no cube may ever contain a non-finite measure
    let src = r#"
        cube A(q: quarter) -> y;
        Z := A - A;
        D := A / Z;
        L := ln(0 - A);
        S := sqrt(0 - A);
    "#;
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut input = exl_model::Dataset::new();
    let tuples: Vec<(Vec<DimValue>, f64)> = (1..=4)
        .map(|i| {
            (
                vec![DimValue::Time(exl_model::TimePoint::Quarter {
                    year: 2020,
                    quarter: i,
                })],
                i as f64,
            )
        })
        .collect();
    input.put(exl_model::Cube::new(
        analyzed.schemas[&"A".into()].clone(),
        CubeData::from_tuples(tuples).unwrap(),
    ));
    for target in TargetKind::ALL {
        let out = exl_engine::run_on_target(&analyzed, &input, target)
            .unwrap_or_else(|e| panic!("{target}: {e}"));
        for id in ["D", "L", "S"] {
            let cube = out.data(&id.into()).unwrap();
            assert!(
                cube.is_empty(),
                "{target}: {id} should be empty, has {}",
                cube.len()
            );
        }
        for id in analyzed.program.derived_ids() {
            for (_, v) in out.data(&id).unwrap().iter() {
                assert!(v.is_finite(), "{target}: non-finite value in {id}");
            }
        }
    }
}
