//! The full operator menu (§3) exercised on every backend: each EXL
//! operator family gets a focused program, run on all seven targets and
//! compared against the reference interpreter. This is the fine-grained
//! complement of the random-program equivalence suite.

use exl_engine::{run_on_target, TargetKind};
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, TimePoint};

fn q(y: i32, n: u32) -> DimValue {
    DimValue::Time(TimePoint::Quarter {
        year: y,
        quarter: n,
    })
}

/// Build a panel cube (q, r) with the given number of quarters and
/// strictly positive, non-constant values.
fn panel_input(analyzed: &exl_lang::AnalyzedProgram, name: &str, quarters: u32) -> Cube {
    let mut data = CubeData::new();
    for qi in 0..quarters {
        for (ri, r) in ["north", "south", "west"].iter().enumerate() {
            data.insert_overwrite(
                vec![q(2018 + (qi / 4) as i32, qi % 4 + 1), DimValue::str(*r)],
                7.0 + qi as f64 * 1.25 + ri as f64 * 3.0 + ((qi * 3 + ri as u32) % 5) as f64,
            );
        }
    }
    Cube::new(analyzed.schemas[&name.into()].clone(), data)
}

fn check(src: &str, quarters: u32, targets: &[TargetKind]) {
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut input = Dataset::new();
    for id in analyzed.elementary_inputs() {
        input.put(panel_input(&analyzed, id.as_str(), quarters));
    }
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    for &target in targets {
        let out = run_on_target(&analyzed, &input, target)
            .unwrap_or_else(|e| panic!("{target} on:\n{src}\n{e}"));
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{target} {id} on:\n{src}\n{:?}",
                got.diff(want, 1e-9)
            );
            // the programs are built so that every derived cube is
            // non-empty — an accidentally-empty cube would make the
            // comparison vacuous
            assert!(
                !want.is_empty(),
                "reference produced empty {id} for:\n{src}"
            );
        }
    }
}

fn all(src: &str) {
    check(src, 16, &TargetKind::ALL);
}

#[test]
fn scalar_operators() {
    all("cube A(q: quarter, r: text) -> y; B := 3 * A; C := A + 10; D := A - 1; E := A / 4; F := A ^ 2;");
}

#[test]
fn unary_functions() {
    all("cube A(q: quarter, r: text) -> y; B := ln(A); C := exp(A / 50); D := sqrt(A); E := abs(A - 10); F := sin(A); G := cos(A);");
}

#[test]
fn log_with_base_and_power_function() {
    all("cube A(q: quarter, r: text) -> y; B := log(2, A); C := power(A, 2);");
}

#[test]
fn vectorial_operators() {
    all(
        "cube A(q: quarter, r: text) -> y; cube B(q: quarter, r: text) -> z;
         C := A + B; D := A - B; E := A * B; F := A / B;",
    );
}

#[test]
fn shift_both_directions() {
    all("cube A(q: quarter, r: text) -> y; B := shift(A, 1); C := shift(A, -2); D := shift(A, 1, q);");
}

#[test]
fn aggregations_full_menu() {
    all("cube A(q: quarter, r: text) -> y;
         S := sum(A, group by q); V := avg(A, group by q);
         MN := min(A, group by q); MX := max(A, group by q);
         CT := count(A, group by q); MD := median(A, group by q);
         SD := stddev(A, group by q); PR := product(A / 10, group by q);");
}

#[test]
fn aggregation_over_region_keeps_text_dim() {
    all("cube A(q: quarter, r: text) -> y; B := avg(A, group by r);");
}

#[test]
fn frequency_conversions() {
    all("cube A(q: quarter, r: text) -> y;
         Y := sum(A, group by year(q) as yr, r);
         YT := sum(A, group by year(q) as yr);");
}

#[test]
fn series_operators_on_series() {
    all("cube A(q: quarter, r: text) -> y;
         S := sum(A, group by q);
         T := stl_trend(S); SE := stl_seasonal(S); RE := stl_remainder(S);
         CS := cumsum(S); Z := zscore(S); LT := lin_trend(S); MA := movavg(S, 3);");
}

#[test]
fn series_operators_slice_panels() {
    all("cube A(q: quarter, r: text) -> y; T := stl_trend(A); C := cumsum(A);");
}

#[test]
fn composite_expression_fusion() {
    all(
        "cube A(q: quarter, r: text) -> y; cube B(q: quarter, r: text) -> z;
         C := 100 * (A - shift(A, 1)) / A + B / (A + 1);",
    );
}

#[test]
fn aggregate_over_expression() {
    all(
        "cube A(q: quarter, r: text) -> y; cube B(q: quarter, r: text) -> z;
         C := sum(2 * A + B, group by q);",
    );
}

#[test]
fn plain_copy_statement() {
    all("cube A(q: quarter, r: text) -> y; B := A; C := B;");
}

#[test]
fn outer_variants_on_supporting_targets() {
    check(
        "cube A(q: quarter, r: text) -> y; cube B(q: quarter, r: text) -> z;
         C := addz(A, B); D := subz(A, B); E := subz(A, B, 1);",
        12,
        &[TargetKind::Native, TargetKind::Chase, TargetKind::Etl],
    );
}

#[test]
fn monthly_and_daily_frequencies() {
    // exercise the Monthly path (the GDP scenario only uses Daily and
    // Quarterly): daily base data rolled up to months, then quarters
    let src = r#"
        cube D(d: day, r: text) -> y;
        M := sum(D, group by month(d) as m, r);
        Q := sum(M, group by quarter(m) as q, r);
        MS := avg(M, group by m);
        MT := movavg(MS, 2);
    "#;
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut data = CubeData::new();
    for m in 1..=12u32 {
        for dd in [3u32, 17] {
            for r in ["a", "b"] {
                data.insert_overwrite(
                    vec![
                        DimValue::Time(TimePoint::Day(
                            exl_model::Date::from_ymd(2021, m, dd).unwrap(),
                        )),
                        DimValue::str(r),
                    ],
                    m as f64 + dd as f64 / 10.0,
                );
            }
        }
    }
    let mut input = Dataset::new();
    input.put(Cube::new(analyzed.schemas[&"D".into()].clone(), data));
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    assert_eq!(reference.data(&"M".into()).unwrap().len(), 24);
    assert_eq!(reference.data(&"Q".into()).unwrap().len(), 8);
    for target in TargetKind::ALL {
        let out =
            run_on_target(&analyzed, &input, target).unwrap_or_else(|e| panic!("{target}: {e}"));
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{target} {id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }
}

#[test]
fn integer_dimension_shift() {
    // §3: shift is "essentially a sum on the values of a numeric
    // dimension or … a time dimension" — the numeric case, everywhere
    let src = r#"
        cube A(k: int, r: text) -> y;
        B := shift(A, 3, k);
        C := shift(B, -1, k);
        D := B - shift(B, 1, k);
    "#;
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut data = CubeData::new();
    for k in 0..10i64 {
        for r in ["a", "b"] {
            data.insert_overwrite(
                vec![DimValue::Int(k), DimValue::str(r)],
                (k * k) as f64 + if r == "a" { 0.5 } else { 0.0 },
            );
        }
    }
    let mut input = Dataset::new();
    input.put(Cube::new(analyzed.schemas[&"A".into()].clone(), data));
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    // spot-check the semantics: B(k) = A(k-3)
    let b = reference.data(&"B".into()).unwrap();
    assert_eq!(b.get(&[DimValue::Int(3), DimValue::str("a")]), Some(0.5));
    assert_eq!(b.get(&[DimValue::Int(12), DimValue::str("b")]), Some(81.0));
    for target in TargetKind::ALL {
        let out =
            run_on_target(&analyzed, &input, target).unwrap_or_else(|e| panic!("{target}: {e}"));
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{target} {id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }
}

#[test]
fn yearly_frequency_round_trip() {
    let src = r#"
        cube A(q: quarter, r: text) -> y;
        Y := max(A, group by year(q) as yr, r);
        YS := shift(Y, 1);
    "#;
    check(src, 16, &TargetKind::ALL);
}

#[test]
fn deep_chain_of_everything() {
    all("cube A(q: quarter, r: text) -> y;
         B := sum(A, group by q);
         C := movavg(B, 2);
         D := 100 * (C - shift(C, 1)) / C;
         E := abs(D);
         F := cumsum(E);");
}

// ---------------------------------------------------------------------
// Gap shapes surfaced by the incremental work: holes in the time axis,
// groups emptied by delete deltas, and cubes that shrink between
// vintages. The matrix above only ever grows data; these make sure the
// operators — and the delta kernels behind the run cache — agree with a
// cold engine when data disappears.
// ---------------------------------------------------------------------

use exl_engine::ExlEngine;
use exl_model::schema::CubeId;

/// Warm cached engine (base vintage, then `patch` replacing cube `A`)
/// against a cold engine that only ever saw the patch — bit for bit.
fn warm_delta_vs_cold(src: &str, base: CubeData, patch: CubeData) -> ExlEngine {
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let id: CubeId = "A".into();

    let mut warm = ExlEngine::new();
    warm.register_program("m", src).unwrap();
    warm.load_elementary(&id, base).unwrap();
    warm.enable_cache();
    warm.run_all().unwrap();
    warm.load_elementary(&id, patch.clone()).unwrap();
    warm.recompute(std::slice::from_ref(&id)).unwrap();

    let mut cold = ExlEngine::new();
    cold.register_program("m", src).unwrap();
    cold.load_elementary(&id, patch).unwrap();
    cold.run_all().unwrap();

    for did in analyzed.program.derived_ids() {
        let got = warm
            .data(&did)
            .unwrap_or_else(|| panic!("{did} missing in warm engine"));
        let want = cold
            .data(&did)
            .unwrap_or_else(|| panic!("{did} missing in cold engine"));
        assert!(
            got.approx_eq(want, 0.0),
            "{did} diverged after delete delta:\n{:?}",
            got.diff(want, 0.0)
        );
    }
    warm
}

/// Shift, cumsum and movavg over a time axis with holes: entire quarters
/// missing, plus one region absent from one period. Every backend must
/// agree with the reference on where values land and where they don't.
#[test]
fn shift_across_missing_periods() {
    let src = "cube A(q: quarter, r: text) -> y;
               B := shift(A, 1); C := shift(A, -2); D := cumsum(A); E := movavg(A, 2);";
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let mut data = CubeData::new();
    for qi in 0..12u32 {
        if matches!(qi, 3 | 4 | 7) {
            continue; // whole quarters missing from the vintage
        }
        for r in ["north", "south", "west"] {
            if qi == 9 && r == "south" {
                continue; // one region missing from one period
            }
            data.insert_overwrite(
                vec![q(2018 + (qi / 4) as i32, qi % 4 + 1), DimValue::str(r)],
                5.0 + qi as f64 * 1.5,
            );
        }
    }
    let mut input = Dataset::new();
    input.put(Cube::new(analyzed.schemas[&"A".into()].clone(), data));
    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    // shift relabels, it does not fill: B carries exactly A's support
    let b = reference.data(&"B".into()).unwrap();
    assert_eq!(b.len(), input.data(&"A".into()).unwrap().len());
    assert_eq!(
        b.get(&[q(2019, 1), DimValue::str("north")]),
        None,
        "q4 was missing"
    );
    for target in TargetKind::ALL {
        let out =
            run_on_target(&analyzed, &input, target).unwrap_or_else(|e| panic!("{target}: {e}"));
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{target} {id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }
}

/// A delete delta that empties an entire group: the aggregates must drop
/// the group's key, not keep a stale cached value for it.
#[test]
fn aggregation_over_group_emptied_by_delete_delta() {
    let src = "cube A(q: quarter, r: text) -> y;
               S := sum(A, group by q); V := avg(A, group by q); CT := count(A, group by q);";
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let base = panel_input(&analyzed, "A", 8).data;
    let mut patch = base.clone();
    for r in ["north", "south", "west"] {
        patch.remove(&[q(2018, 3), DimValue::str(r)]); // 2018q3 vanishes entirely
    }
    let warm = warm_delta_vs_cold(src, base, patch);
    for id in ["S", "V", "CT"] {
        let cube = warm.data(&id.into()).unwrap();
        assert_eq!(cube.get(&[q(2018, 3)]), None, "{id} kept the emptied group");
        assert_eq!(cube.len(), 7, "{id} lost more than the emptied group");
    }
}

/// Scalar and unary operators on a shrinking cube: a vintage that only
/// deletes rows must shrink every derived cube identically to a cold run.
#[test]
fn scalar_ops_on_shrinking_cubes() {
    let src = "cube A(q: quarter, r: text) -> y;
               B := 3 * A; C := A + 10; D := sqrt(A); E := A ^ 2;";
    let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
    let base = panel_input(&analyzed, "A", 8).data;
    let mut patch = base.clone();
    // drop a scattered third of the rows, across periods and regions
    let keys: Vec<_> = patch.iter().map(|(k, _)| k.clone()).collect();
    for key in keys.iter().step_by(3) {
        patch.remove(key);
    }
    assert!(patch.len() < base.len());
    let warm = warm_delta_vs_cold(src, base, patch.clone());
    for id in ["B", "C", "D", "E"] {
        let cube = warm.data(&id.into()).unwrap();
        assert_eq!(
            cube.len(),
            patch.len(),
            "{id} did not shrink with its input"
        );
        for key in keys.iter().step_by(3) {
            assert_eq!(cube.get(key), None, "{id} kept a deleted key");
        }
    }
}
