//! # exl-etl — a metadata-driven ETL engine (§5.3, Fig. 1)
//!
//! The paper's third target family: schema mappings become executable ETL
//! jobs, one flow per tgd, with the step vocabulary of Kettle-like tools —
//! *data source*, *merge join*, *calculator*, *aggregator*, user-defined
//! (series) steps, and *output*. Flows run one step after another; a
//! [`Job`] runs its flows in tgd total order.

#![warn(missing_docs)]

pub mod flow;
pub mod flowgen;
pub mod row;

pub use flow::{
    DataSourceStep, EtlError, Flow, Job, JoinKind, MergeJoinStep, OutputStep, TransformStep,
};
pub use flowgen::{mapping_to_job, tgd_to_flow};
pub use row::{Field, Row};

#[cfg(test)]
mod tests {
    use super::*;
    use exl_lang::{analyze, parse_program};
    use exl_map::generate::{generate_mapping, GenMode};
    use exl_model::value::DimValue;
    use exl_model::{Cube, CubeData, Dataset, TimePoint};
    use exl_obs::Span;

    const GDP_SRC: &str = r#"
        cube PDR(d: time[day], r: text) -> p;
        cube RGDPPC(q: time[quarter], r: text) -> g;
        PQR := avg(PDR, group by quarter(d) as q, r);
        RGDP := RGDPPC * PQR;
        GDP := sum(RGDP, group by q);
        GDPT := stl_trend(GDP);
        PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
    "#;

    fn gdp_setup() -> (
        exl_lang::AnalyzedProgram,
        exl_map::Mapping,
        exl_lang::AnalyzedProgram,
        Dataset,
    ) {
        let analyzed = analyze(&parse_program(GDP_SRC).unwrap(), &[]).unwrap();
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let mut input = Dataset::new();
        let mut pdr = Vec::new();
        let mut rgdppc = Vec::new();
        for yq in 0..8i64 {
            let (y, qu) = ((2019 + yq / 4) as i32, (yq % 4 + 1) as u32);
            let mth = (qu - 1) * 3 + 1;
            for r in ["north", "south"] {
                for (dd, bump) in [(1, 0.0), (15, 2.0)] {
                    let d = exl_model::Date::from_ymd(y, mth, dd).unwrap();
                    pdr.push((
                        vec![DimValue::Time(TimePoint::Day(d)), DimValue::str(r)],
                        100.0 + yq as f64 + bump,
                    ));
                }
                rgdppc.push((
                    vec![
                        DimValue::Time(TimePoint::Quarter {
                            year: y,
                            quarter: qu,
                        }),
                        DimValue::str(r),
                    ],
                    30.0 + yq as f64 + if r == "north" { 5.0 } else { 0.0 },
                ));
            }
        }
        input.put(Cube::new(
            re.schemas[&"PDR".into()].clone(),
            CubeData::from_tuples(pdr).unwrap(),
        ));
        input.put(Cube::new(
            re.schemas[&"RGDPPC".into()].clone(),
            CubeData::from_tuples(rgdppc).unwrap(),
        ));
        (analyzed.clone(), mapping, re, input)
    }

    /// Figure 1 of the paper: the flow generated for tgd (2) has two data
    /// source steps, a merge on the dimensions, a calculation step, and an
    /// output step writing RGDP.
    #[test]
    fn figure1_flow_structure_for_tgd2() {
        let (_, mapping, _, _) = gdp_setup();
        let job = mapping_to_job(&mapping).unwrap();
        let flow = &job.flows[1]; // tgd (2)
        assert_eq!(flow.sources.len(), 2);
        assert_eq!(flow.sources[0].relation, "RGDPPC".into());
        assert_eq!(flow.sources[1].relation, "PQR".into());
        assert_eq!(flow.merges.len(), 1);
        assert_eq!(flow.merges[0].keys, vec!["q".to_string(), "r".to_string()]);
        assert_eq!(flow.merges[0].kind, JoinKind::Inner);
        assert!(flow
            .transforms
            .iter()
            .any(|t| matches!(t, TransformStep::Calculator { .. })));
        assert_eq!(flow.output.relation, "RGDP".into());
    }

    #[test]
    fn aggregation_flow_has_aggregator_step() {
        let (_, mapping, _, _) = gdp_setup();
        let job = mapping_to_job(&mapping).unwrap();
        let flow = &job.flows[0]; // tgd (1)
        assert!(flow
            .transforms
            .iter()
            .any(|t| matches!(t, TransformStep::Aggregator { .. })));
        assert!(flow
            .transforms
            .iter()
            .any(|t| matches!(t, TransformStep::ConvertDim { .. })));
    }

    #[test]
    fn table_fn_flow_uses_series_step() {
        let (_, mapping, _, _) = gdp_setup();
        let job = mapping_to_job(&mapping).unwrap();
        let flow = &job.flows[3]; // tgd (4)
        assert!(matches!(flow.transforms[0], TransformStep::Series { .. }));
        assert!(flow.merges.is_empty());
    }

    /// End-to-end: the job reproduces the reference interpreter.
    #[test]
    fn job_matches_reference_sequential_and_parallel() {
        let (analyzed, mapping, _, input) = gdp_setup();
        let job = mapping_to_job(&mapping).unwrap();
        let reference = exl_eval::run_program(&analyzed, &input).unwrap();
        let out = job.run(&input, &Span::disabled()).unwrap();
        for id in analyzed.program.derived_ids() {
            let want = reference.data(&id).unwrap();
            let got = out.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }

    /// ETL is the target that supports the default-value variant (outer
    /// merge), unlike SQL/R/Matlab.
    #[test]
    fn outer_variant_supported_via_full_outer_merge() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let mut input = Dataset::new();
        input.put(Cube::new(
            re.schemas[&"A".into()].clone(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        ));
        input.put(Cube::new(
            re.schemas[&"B".into()].clone(),
            CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 5.0)]).unwrap(),
        ));
        let job = mapping_to_job(&mapping).unwrap();
        let out = job.run(&input, &Span::disabled()).unwrap();
        let c = out.data(&"C".into()).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&[DimValue::Int(1)]), Some(1.0));
        assert_eq!(c.get(&[DimValue::Int(2)]), Some(5.0));
    }

    #[test]
    fn missing_input_cube_reported() {
        let (_, mapping, _, _) = gdp_setup();
        let job = mapping_to_job(&mapping).unwrap();
        let err = job.run(&Dataset::new(), &Span::disabled()).unwrap_err();
        assert!(err.to_string().contains("missing input cube"), "{err}");
    }

    /// A flow without sources is rejected instead of panicking.
    #[test]
    fn zero_source_flow_rejected() {
        let flow = Flow {
            id: "empty".into(),
            sources: vec![],
            merges: vec![],
            transforms: vec![],
            output: OutputStep {
                relation: "X".into(),
                dim_fields: vec![],
                measure_field: "v".into(),
            },
        };
        let err = flow.run(&Dataset::new(), &Span::disabled()).unwrap_err();
        assert!(err.to_string().contains("no data sources"), "{err}");
    }

    #[test]
    fn division_by_zero_dropped_by_finite_filter() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := A / B;";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        let mut input = Dataset::new();
        input.put(Cube::new(
            re.schemas[&"A".into()].clone(),
            CubeData::from_tuples(vec![
                (vec![DimValue::Int(1)], 1.0),
                (vec![DimValue::Int(2)], 4.0),
            ])
            .unwrap(),
        ));
        input.put(Cube::new(
            re.schemas[&"B".into()].clone(),
            CubeData::from_tuples(vec![
                (vec![DimValue::Int(1)], 0.0),
                (vec![DimValue::Int(2)], 2.0),
            ])
            .unwrap(),
        ));
        let job = mapping_to_job(&mapping).unwrap();
        let out = job.run(&input, &Span::disabled()).unwrap();
        let c = out.data(&"C".into()).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&[DimValue::Int(2)]), Some(2.0));
    }
}
