//! Golden and end-to-end tests for the R generator.

use exl_lang::{analyze, parse_program};
use exl_map::generate::{generate_mapping, GenMode};
use exl_rmini::{frame_from_cube, frame_to_cube_data, RInterp};

use crate::{mapping_to_r, required_inputs, RGenError};

const GDP_SRC: &str = r#"
    cube PDR(d: time[day], r: text) -> p;
    cube RGDPPC(q: time[quarter], r: text) -> g;
    PQR := avg(PDR, group by quarter(d) as q, r);
    RGDP := RGDPPC * PQR;
    GDP := sum(RGDP, group by q);
    GDPT := stl_trend(GDP);
    PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
"#;

fn gdp_mapping() -> (exl_map::Mapping, exl_lang::AnalyzedProgram) {
    let analyzed = analyze(&parse_program(GDP_SRC).unwrap(), &[]).unwrap();
    generate_mapping(&analyzed, GenMode::Fused).unwrap()
}

#[test]
fn tgd2_script_follows_paper_shape() {
    let (m, _) = gdp_mapping();
    let script = mapping_to_r(&m).unwrap();
    // merge on the shared dimensions, as in the §5.2 listing
    assert!(
        script.contains("merge(t1, t2, by=c(\"q\",\"r\"))"),
        "{script}"
    );
    // elementwise product on measure columns (into the scratch column)
    assert!(script.contains("tmp$.v <- tmp$g * tmp$m"), "{script}");
}

#[test]
fn tgd4_script_uses_paper_stl_idiom() {
    let (m, _) = gdp_mapping();
    let script = mapping_to_r(&m).unwrap();
    assert!(
        script.contains("GDPTC <- stl(GDP, \"periodic\")"),
        "{script}"
    );
    assert!(
        script.contains("GDPT <- GDPTC$time.series[ , \"trend\"]"),
        "{script}"
    );
}

#[test]
fn aggregation_uses_aggregate_with_fun() {
    let (m, _) = gdp_mapping();
    let script = mapping_to_r(&m).unwrap();
    assert!(script.contains("FUN=\"avg\""), "{script}");
    assert!(script.contains("FUN=\"sum\""), "{script}");
    assert!(script.contains("tmp$.d0 <- quarter(tmp$d)"), "{script}");
}

#[test]
fn shifted_atom_unshifts_its_time_column() {
    let (m, _) = gdp_mapping();
    let script = mapping_to_r(&m).unwrap();
    // tgd (5): the second GDPT atom holds rows at q−1 and must be
    // re-aligned with shift.time(…, 1) before the merge
    assert!(script.contains("t2$q <- shift.time(t2$q, 1)"), "{script}");
}

#[test]
fn outer_variant_unsupported() {
    let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
    let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
    let (m, _) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
    assert!(matches!(
        mapping_to_r(&m).unwrap_err(),
        RGenError::Unsupported { .. }
    ));
}

#[test]
fn required_inputs_lists_sources() {
    let (m, _) = gdp_mapping();
    let inputs = required_inputs(&m);
    assert_eq!(inputs.len(), 2);
}

/// End-to-end: generated R runs in the mini interpreter and matches the
/// reference interpreter on the full GDP program.
#[test]
fn generated_r_matches_reference() {
    use exl_model::value::DimValue;
    use exl_model::{Cube, CubeData, Dataset, TimePoint};

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

    let mut interp = RInterp::new();
    for id in required_inputs(&mapping) {
        interp.bind_frame(id.as_str(), frame_from_cube(input.get(&id).unwrap()));
    }
    let script = mapping_to_r(&mapping).unwrap();
    interp
        .run(&script, &exl_obs::Span::disabled())
        .unwrap_or_else(|e| panic!("{e}\nscript:\n{script}"));

    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    for id in analyzed.program.derived_ids() {
        let schema = &re.schemas[&id];
        let frame = interp
            .frame(id.as_str())
            .unwrap_or_else(|| panic!("no frame {id} after running:\n{script}"));
        let got = frame_to_cube_data(frame, schema).unwrap();
        let want = reference.data(&id).unwrap();
        assert!(
            got.approx_eq(want, 1e-9),
            "{id}: {:?}",
            got.diff(want, 1e-9)
        );
    }
}

/// Normalized-mode scripts also execute correctly (one operator per tgd).
#[test]
fn normalized_mode_r_matches_reference() {
    use exl_model::value::DimValue;
    use exl_model::{Cube, CubeData, Dataset, TimePoint};

    let src = r#"
        cube A(q: quarter) -> y;
        B := 100 * (A - shift(A, 1)) / A;
    "#;
    let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
    let (mapping, re) = generate_mapping(&analyzed, GenMode::Normalized).unwrap();

    let mut input = Dataset::new();
    let tuples: Vec<(Vec<DimValue>, f64)> = (1..=4)
        .map(|i| {
            (
                vec![DimValue::Time(TimePoint::Quarter {
                    year: 2020,
                    quarter: i,
                })],
                10.0 * i as f64,
            )
        })
        .collect();
    input.put(Cube::new(
        re.schemas[&"A".into()].clone(),
        CubeData::from_tuples(tuples).unwrap(),
    ));

    let mut interp = RInterp::new();
    interp.bind_frame("A", frame_from_cube(input.get(&"A".into()).unwrap()));
    let script = mapping_to_r(&mapping).unwrap();
    interp
        .run(&script, &exl_obs::Span::disabled())
        .unwrap_or_else(|e| panic!("{e}\nscript:\n{script}"));

    let reference = exl_eval::run_program(&analyzed, &input).unwrap();
    let got = frame_to_cube_data(interp.frame("B").unwrap(), &re.schemas[&"B".into()]).unwrap();
    let want = reference.data(&"B".into()).unwrap();
    assert!(
        got.approx_eq(want, 1e-9),
        "{:?}\n{script}",
        got.diff(want, 1e-9)
    );
}
