//! Step-level tests for the ETL engine: each step type in isolation,
//! driven through single-step flows.

use exl_etl::{DataSourceStep, EtlError, Flow, JoinKind, MergeJoinStep, OutputStep, TransformStep};
use exl_map::dep::ScalarExpr;
use exl_model::schema::{CubeKind, CubeSchema, Dimension};
use exl_model::value::{DimType, DimValue};
use exl_model::{Cube, CubeData, Dataset, Frequency, TimePoint};
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;

fn q(y: i32, n: u32) -> DimValue {
    DimValue::Time(TimePoint::Quarter {
        year: y,
        quarter: n,
    })
}

fn series_cube(name: &str, values: &[f64]) -> Cube {
    let schema = CubeSchema::new(
        name,
        vec![Dimension::new("q", DimType::Time(Frequency::Quarterly))],
        CubeKind::Elementary,
    )
    .with_measure("y");
    let mut data = CubeData::new();
    for (i, v) in values.iter().enumerate() {
        data.insert_overwrite(vec![q(2020 + i as i32 / 4, (i % 4 + 1) as u32)], *v);
    }
    Cube::new(schema, data)
}

fn source(name: &str) -> DataSourceStep {
    DataSourceStep {
        relation: name.into(),
        dim_fields: vec![("q".into(), 0)],
        measure_field: "y".into(),
    }
}

fn output(name: &str, measure: &str) -> OutputStep {
    OutputStep {
        relation: name.into(),
        dim_fields: vec!["q".into()],
        measure_field: measure.into(),
    }
}

fn run(flow: &Flow, cubes: Vec<Cube>) -> Result<CubeData, EtlError> {
    let mut ds = Dataset::new();
    for c in cubes {
        ds.put(c);
    }
    flow.run(&ds, &exl_obs::Span::disabled())
}

#[test]
fn calculator_step_evaluates_expression() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![TransformStep::Calculator {
            output: "out".into(),
            expr: ScalarExpr::Binary(
                exl_lang::BinOp::Mul,
                Box::new(ScalarExpr::Var("y".into())),
                Box::new(ScalarExpr::Const(3.0)),
            ),
        }],
        output: output("B", "out"),
    };
    let data = run(&flow, vec![series_cube("A", &[1.0, 2.0])]).unwrap();
    assert_eq!(data.get(&[q(2020, 1)]), Some(3.0));
    assert_eq!(data.get(&[q(2020, 2)]), Some(6.0));
}

#[test]
fn finite_filter_drops_rows() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![
            TransformStep::Calculator {
                output: "out".into(),
                expr: ScalarExpr::Binary(
                    exl_lang::BinOp::Div,
                    Box::new(ScalarExpr::Const(1.0)),
                    Box::new(ScalarExpr::Var("y".into())),
                ),
            },
            TransformStep::FiniteFilter {
                field: "out".into(),
            },
        ],
        output: output("B", "out"),
    };
    let data = run(&flow, vec![series_cube("A", &[0.0, 4.0])]).unwrap();
    assert_eq!(data.len(), 1);
    assert_eq!(data.get(&[q(2020, 2)]), Some(0.25));
}

#[test]
fn shift_and_rename_dim_steps() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![
            TransformStep::ShiftDim {
                output: "q2".into(),
                input: "q".into(),
                offset: 2,
            },
            TransformStep::RenameDim {
                output: "q".into(),
                input: "q2".into(),
            },
        ],
        output: output("B", "y"),
    };
    let data = run(&flow, vec![series_cube("A", &[5.0])]).unwrap();
    assert_eq!(data.get(&[q(2020, 3)]), Some(5.0));
}

#[test]
fn convert_dim_step_coarsens() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![
            TransformStep::ConvertDim {
                output: "yr".into(),
                input: "q".into(),
                target: Frequency::Yearly,
            },
            TransformStep::Aggregator {
                keys: vec!["yr".into()],
                agg: AggFn::Sum,
                input: "y".into(),
                output: "y".into(),
            },
        ],
        output: OutputStep {
            relation: "B".into(),
            dim_fields: vec!["yr".into()],
            measure_field: "y".into(),
        },
    };
    let data = run(&flow, vec![series_cube("A", &[1.0, 2.0, 3.0, 4.0, 10.0])]).unwrap();
    assert_eq!(
        data.get(&[DimValue::Time(TimePoint::Year(2020))]),
        Some(10.0)
    );
    assert_eq!(
        data.get(&[DimValue::Time(TimePoint::Year(2021))]),
        Some(10.0)
    );
}

#[test]
fn aggregator_applies_every_function() {
    for (agg, expected) in [
        (AggFn::Sum, 10.0),
        (AggFn::Avg, 2.5),
        (AggFn::Min, 1.0),
        (AggFn::Max, 4.0),
        (AggFn::Count, 4.0),
        (AggFn::Median, 2.5),
        (AggFn::Product, 24.0),
    ] {
        let flow = Flow {
            id: "t".into(),
            sources: vec![source("A")],
            merges: vec![],
            transforms: vec![
                TransformStep::ConvertDim {
                    output: "yr".into(),
                    input: "q".into(),
                    target: Frequency::Yearly,
                },
                TransformStep::Aggregator {
                    keys: vec!["yr".into()],
                    agg,
                    input: "y".into(),
                    output: "y".into(),
                },
            ],
            output: OutputStep {
                relation: "B".into(),
                dim_fields: vec!["yr".into()],
                measure_field: "y".into(),
            },
        };
        let data = run(&flow, vec![series_cube("A", &[1.0, 2.0, 3.0, 4.0])]).unwrap();
        assert_eq!(
            data.get(&[DimValue::Time(TimePoint::Year(2020))]),
            Some(expected),
            "{agg:?}"
        );
    }
}

#[test]
fn series_step_runs_black_box() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![TransformStep::Series {
            op: SeriesOp::CumSum,
            time_field: "q".into(),
            slice_fields: vec![],
            measure_field: "y".into(),
            period: 4,
        }],
        output: output("B", "y"),
    };
    let data = run(&flow, vec![series_cube("A", &[1.0, 2.0, 3.0])]).unwrap();
    assert_eq!(data.get(&[q(2020, 3)]), Some(6.0));
}

#[test]
fn merge_join_inner_and_outer() {
    let mk_flow = |kind: JoinKind| Flow {
        id: "t".into(),
        sources: vec![
            DataSourceStep {
                relation: "A".into(),
                dim_fields: vec![("q".into(), 0)],
                measure_field: "a".into(),
            },
            DataSourceStep {
                relation: "B".into(),
                dim_fields: vec![("q".into(), 0)],
                measure_field: "b".into(),
            },
        ],
        merges: vec![MergeJoinStep {
            keys: vec!["q".into()],
            kind,
        }],
        transforms: vec![TransformStep::Calculator {
            output: "out".into(),
            expr: ScalarExpr::Binary(
                exl_lang::BinOp::Add,
                Box::new(ScalarExpr::Var("a".into())),
                Box::new(ScalarExpr::Var("b".into())),
            ),
        }],
        output: output("C", "out"),
    };

    let a = series_cube("A", &[1.0, 2.0]);
    let mut b = series_cube("B", &[10.0]);
    b.schema.id = "B".into();
    // inner: only 2020-Q1 matches
    let inner = run(&mk_flow(JoinKind::Inner), vec![a.clone(), b.clone()]).unwrap();
    assert_eq!(inner.len(), 1);
    assert_eq!(inner.get(&[q(2020, 1)]), Some(11.0));
    // full outer with defaults: the lonely A row gets b = 0
    let mut defaults = std::collections::BTreeMap::new();
    defaults.insert("a".to_string(), 0.0);
    defaults.insert("b".to_string(), 0.0);
    let outer = run(&mk_flow(JoinKind::FullOuter { defaults }), vec![a, b]).unwrap();
    assert_eq!(outer.len(), 2);
    assert_eq!(outer.get(&[q(2020, 2)]), Some(2.0));
}

#[test]
fn output_step_detects_functionality_violations() {
    // collapsing the time dimension to a constant makes two rows collide
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![TransformStep::ConvertDim {
            output: "yr".into(),
            input: "q".into(),
            target: Frequency::Yearly,
        }],
        output: OutputStep {
            relation: "B".into(),
            dim_fields: vec!["yr".into()],
            measure_field: "y".into(),
        },
    };
    let err = run(&flow, vec![series_cube("A", &[1.0, 2.0])]).unwrap_err();
    assert!(err.to_string().contains("functionality"), "{err}");
}

#[test]
fn missing_fields_are_reported() {
    let flow = Flow {
        id: "t".into(),
        sources: vec![source("A")],
        merges: vec![],
        transforms: vec![TransformStep::Calculator {
            output: "out".into(),
            expr: ScalarExpr::Var("nope".into()),
        }],
        output: output("B", "out"),
    };
    let err = run(&flow, vec![series_cube("A", &[1.0])]).unwrap_err();
    assert!(err.to_string().contains("missing field"), "{err}");
}
