//! # exl-matgen — translating tgds into Matlab (§5.2)
//!
//! Follows the paper's Matlab idiom for tgd (2): build a temporary matrix
//! with `join`, combine measures element-wise (`.*`), and assemble the
//! result by horizontal concatenation; black boxes use the assumed "trend
//! isolating library" (`isolateTrend`), here with explicit time-column and
//! seasonal-period arguments since matrices carry no metadata. Cubes are
//! numeric-encoded (`exl-matmini::MatSession`): time values are period
//! indices (so `shift` is plain `+ k`), text dimensions are dictionary
//! codes.
//!
//! The generated subset is exactly what `exl-matmini` executes; every
//! script is run and compared against the reference interpreter. The
//! default-value (outer) vectorial variant is unsupported on this target,
//! as on SQL and R.

#![warn(missing_docs)]

use std::fmt;

use exl_lang::ast::{BinOp, UnaryFn};
use exl_map::dep::{DimTerm, Mapping, MeasureTerm, ScalarExpr, Tgd};
use exl_model::schema::{CubeKind, CubeSchema};
use exl_model::TimePoint;
use exl_stats::seriesop::SeriesOp;

/// Matlab generation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum MatGenError {
    /// No translation on this target.
    Unsupported {
        /// Which tgd.
        tgd: String,
        /// Why.
        reason: String,
    },
    /// Internal inconsistency.
    Internal(String),
}

impl fmt::Display for MatGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatGenError::Unsupported { tgd, reason } => {
                write!(
                    f,
                    "tgd ({tgd}) not supported on the Matlab target: {reason}"
                )
            }
            MatGenError::Internal(m) => write!(f, "Matlab generation error: {m}"),
        }
    }
}

impl std::error::Error for MatGenError {}

/// Translate one tgd into a Matlab script fragment.
pub fn tgd_to_matlab(
    tgd: &Tgd,
    target_schema: &CubeSchema,
    schema_of: &dyn Fn(&exl_model::CubeId) -> Option<CubeSchema>,
) -> Result<String, MatGenError> {
    let mut out = String::new();
    out.push_str(&format!("% tgd ({}): {}\n", tgd.id(), tgd));
    match tgd {
        Tgd::TableFn {
            source, op, target, ..
        } => {
            let src = schema_of(source)
                .ok_or_else(|| MatGenError::Internal(format!("no schema for {source}")))?;
            let time_dims = src.time_dims();
            let [tdim] = time_dims.as_slice() else {
                return Err(MatGenError::Internal(format!(
                    "{source} must have exactly one time dimension"
                )));
            };
            let tcol = tdim + 1;
            let freq = src.dims[*tdim].ty.frequency().expect("time dim");
            let period = TimePoint::periods_per_year(freq);
            let call = match op {
                SeriesOp::StlTrend => format!("isolateTrend({source}, {tcol}, {period})"),
                SeriesOp::StlSeasonal => format!("seasonalComp({source}, {tcol}, {period})"),
                SeriesOp::StlRemainder => format!("remainderComp({source}, {tcol}, {period})"),
                SeriesOp::CumSum => format!("cumsumSeries({source}, {tcol})"),
                SeriesOp::ZScore => format!("zscoreSeries({source}, {tcol})"),
                SeriesOp::LinTrend => format!("linTrendSeries({source}, {tcol})"),
                SeriesOp::MovAvg { window } => {
                    format!("movavgSeries({source}, {tcol}, {window})")
                }
            };
            out.push_str(&format!("{target} = {call}\n"));
            Ok(out)
        }
        Tgd::Rule {
            id,
            lhs,
            rhs_relation,
            rhs_dims,
            rhs_measure,
            outer_default,
        } => {
            if outer_default.is_some() {
                return Err(MatGenError::Unsupported {
                    tgd: id.clone(),
                    reason: "default-value variants need an outer join".into(),
                });
            }
            let d = lhs[0].dim_terms.len();

            // per-atom matrices, un-shifting shifted time columns
            for (i, atom) in lhs.iter().enumerate() {
                out.push_str(&format!("t{} = {}\n", i + 1, atom.relation));
                for (j, term) in atom.dim_terms.iter().enumerate() {
                    if let DimTerm::Shifted { offset, .. } = term {
                        // column = var + offset  ⇒  var = column − offset
                        out.push_str(&format!(
                            "t{}(:,{}) = t{}(:,{}) {}\n",
                            i + 1,
                            j + 1,
                            i + 1,
                            j + 1,
                            signed(-offset)
                        ));
                    }
                }
            }

            // join chain on the first d columns
            if lhs.len() == 1 {
                out.push_str("tmp = t1\n");
            } else {
                out.push_str(&format!("tmp = join(t1, 1:{d}, t2, 1:{d})\n"));
                for i in 2..lhs.len() {
                    out.push_str(&format!("tmp = join(tmp, 1:{d}, t{}, 1:{d})\n", i + 1));
                }
            }

            // variable → column map (1-based)
            let var_col = |v: &str| -> Result<usize, MatGenError> {
                if let Some(j) = lhs[0].dim_terms.iter().position(|t| t.var_name() == v) {
                    return Ok(j + 1);
                }
                if let Some(i) = lhs.iter().position(|a| a.measure_var == v) {
                    return Ok(d + i + 1);
                }
                Err(MatGenError::Internal(format!("unbound variable {v}")))
            };

            // measure expression into a fresh column
            let mcol = d + lhs.len() + 1;
            let expr = match rhs_measure {
                MeasureTerm::Scalar(e) | MeasureTerm::Aggregate { expr: e, .. } => e,
            };
            out.push_str(&format!(
                "tmp(:,{mcol}) = {}\n",
                scalar_matlab(expr, &var_col)?
            ));
            out.push_str(&format!("tmp = tmp(isfinite(tmp(:,{mcol})),:)\n"));

            // result dimension expressions
            let mut dim_exprs = Vec::with_capacity(rhs_dims.len());
            for term in rhs_dims {
                let e = match term {
                    DimTerm::Var(v) => format!("tmp(:,{})", var_col(v)?),
                    DimTerm::Shifted { var, offset } => {
                        format!("tmp(:,{}) {}", var_col(var)?, signed(*offset))
                    }
                    DimTerm::Converted { var, target } => {
                        let j = var_col(var)?;
                        // source frequency from the first atom's schema
                        let src = schema_of(&lhs[0].relation).ok_or_else(|| {
                            MatGenError::Internal(format!("no schema for {}", lhs[0].relation))
                        })?;
                        let from = src.dims[j - 1].ty.frequency().ok_or_else(|| {
                            MatGenError::Internal("conversion of a non-time dimension".into())
                        })?;
                        format!(
                            "convertTime(tmp(:,{j}), '{}', '{}')",
                            from.name(),
                            target.name()
                        )
                    }
                };
                dim_exprs.push(e);
            }
            let concat = format!("[{} tmp(:,{mcol})]", dim_exprs.join(" "));

            match rhs_measure {
                MeasureTerm::Scalar(_) => {
                    out.push_str(&format!("{rhs_relation} = {concat}\n"));
                }
                MeasureTerm::Aggregate { agg, .. } => {
                    let nk = rhs_dims.len();
                    out.push_str(&format!("proj = {concat}\n"));
                    out.push_str(&format!(
                        "{rhs_relation} = aggregate(proj, 1:{nk}, {}, '{}')\n",
                        nk + 1,
                        agg.name()
                    ));
                }
            }
            let _ = target_schema;
            Ok(out)
        }
    }
}

/// Translate a whole mapping into one Matlab script, one fragment per
/// statement tgd in stratification order.
pub fn mapping_to_matlab(mapping: &Mapping) -> Result<String, MatGenError> {
    let mut out = String::new();
    for tgd in &mapping.statement_tgds {
        let schema = mapping.schema(tgd.target_relation()).ok_or_else(|| {
            MatGenError::Internal(format!("no schema for {}", tgd.target_relation()))
        })?;
        let lookup = |id: &exl_model::CubeId| mapping.schema(id).cloned();
        out.push_str(&tgd_to_matlab(tgd, schema, &lookup)?);
        out.push('\n');
    }
    Ok(out)
}

/// Relations whose matrices must be bound before running the script.
pub fn required_inputs(mapping: &Mapping) -> Vec<exl_model::CubeId> {
    mapping
        .source
        .iter()
        .filter(|s| s.kind == CubeKind::Elementary)
        .map(|s| s.id.clone())
        .collect()
}

fn signed(n: i64) -> String {
    if n >= 0 {
        format!("+ {n}")
    } else {
        format!("- {}", -n)
    }
}

fn scalar_matlab(
    e: &ScalarExpr,
    var_col: &dyn Fn(&str) -> Result<usize, MatGenError>,
) -> Result<String, MatGenError> {
    Ok(match e {
        ScalarExpr::Var(v) => format!("tmp(:,{})", var_col(v)?),
        ScalarExpr::Const(c) => {
            if *c < 0.0 {
                format!("({c})")
            } else {
                format!("{c}")
            }
        }
        ScalarExpr::Unary(op, a) => {
            let inner = scalar_matlab(a, var_col)?;
            match op {
                UnaryFn::Neg => format!("-({inner})"),
                UnaryFn::Ln => format!("log({inner})"),
                UnaryFn::Exp => format!("exp({inner})"),
                UnaryFn::Sqrt => format!("sqrt({inner})"),
                UnaryFn::Abs => format!("abs({inner})"),
                UnaryFn::Sin => format!("sin({inner})"),
                UnaryFn::Cos => format!("cos({inner})"),
            }
        }
        ScalarExpr::Binary(op, a, b) => {
            let l = wrap(a, var_col)?;
            let r = wrap(b, var_col)?;
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => ".*",
                BinOp::Div => "./",
                BinOp::Pow => ".^",
            };
            format!("{l} {sym} {r}")
        }
    })
}

fn wrap(
    e: &ScalarExpr,
    var_col: &dyn Fn(&str) -> Result<usize, MatGenError>,
) -> Result<String, MatGenError> {
    let s = scalar_matlab(e, var_col)?;
    Ok(if matches!(e, ScalarExpr::Binary(..)) {
        format!("({s})")
    } else {
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_lang::{analyze, parse_program};
    use exl_map::generate::{generate_mapping, GenMode};
    use exl_matmini::{MatInterp, MatSession};

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
    fn tgd2_script_uses_join_and_elementwise_product() {
        let (m, _) = gdp_mapping();
        let script = mapping_to_matlab(&m).unwrap();
        assert!(script.contains("tmp = join(t1, 1:2, t2, 1:2)"), "{script}");
        assert!(
            script.contains("tmp(:,5) = tmp(:,3) .* tmp(:,4)"),
            "{script}"
        );
    }

    #[test]
    fn tgd4_script_uses_isolate_trend() {
        let (m, _) = gdp_mapping();
        let script = mapping_to_matlab(&m).unwrap();
        assert!(
            script.contains("GDPT = isolateTrend(GDP, 1, 4)"),
            "{script}"
        );
    }

    #[test]
    fn tgd1_script_converts_and_aggregates() {
        let (m, _) = gdp_mapping();
        let script = mapping_to_matlab(&m).unwrap();
        assert!(
            script.contains("convertTime(tmp(:,1), 'day', 'quarter')"),
            "{script}"
        );
        assert!(
            script.contains("aggregate(proj, 1:2, 3, 'avg')"),
            "{script}"
        );
    }

    #[test]
    fn tgd5_unshifts_the_second_atom() {
        let (m, _) = gdp_mapping();
        let script = mapping_to_matlab(&m).unwrap();
        assert!(script.contains("t2(:,1) = t2(:,1) + 1"), "{script}");
    }

    #[test]
    fn outer_unsupported() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let (m, _) = generate_mapping(&analyzed, GenMode::Fused).unwrap();
        assert!(matches!(
            mapping_to_matlab(&m).unwrap_err(),
            MatGenError::Unsupported { .. }
        ));
    }

    /// End-to-end: generated Matlab runs in the mini interpreter and
    /// matches the reference interpreter.
    #[test]
    fn generated_matlab_matches_reference() {
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

        let mut session = MatSession::new();
        let mut interp = MatInterp::new();
        for id in required_inputs(&mapping) {
            interp.bind(id.as_str(), session.encode(input.get(&id).unwrap()));
        }
        let script = mapping_to_matlab(&mapping).unwrap();
        interp
            .run(&script, &exl_obs::Span::disabled())
            .unwrap_or_else(|e| panic!("{e}\nscript:\n{script}"));

        let reference = exl_eval::run_program(&analyzed, &input).unwrap();
        for id in analyzed.program.derived_ids() {
            let schema = &re.schemas[&id];
            let matrix = interp
                .matrix(id.as_str())
                .unwrap_or_else(|| panic!("no matrix {id} after running:\n{script}"));
            let got = session.decode(matrix, schema).unwrap();
            let want = reference.data(&id).unwrap();
            assert!(
                got.approx_eq(want, 1e-9),
                "{id}: {:?}",
                got.diff(want, 1e-9)
            );
        }
    }
}
