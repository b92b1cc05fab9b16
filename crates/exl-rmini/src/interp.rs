//! Evaluator for the mini-R subset.

use std::collections::BTreeMap;

use exl_model::time::Frequency;
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;

use crate::error::RError;
use crate::frame::{merge, Cell, Frame};
use crate::syntax::{parse, RExpr, RStmt};

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum RValue {
    /// Scalar number.
    Num(f64),
    /// Scalar string.
    Str(String),
    /// A column vector.
    Vector(Vec<Cell>),
    /// A negated character vector, from `-c("p","g")` — drop-columns
    /// selector (the form the paper's §5.2 listing uses).
    NegatedNames(Vec<String>),
    /// A data frame.
    Frame(Frame),
    /// Result of `stl(df, "periodic")`.
    Stl {
        /// Trend component frame.
        trend: Frame,
        /// Seasonal component frame.
        seasonal: Frame,
        /// Remainder component frame.
        remainder: Frame,
    },
    /// `obj$time.series` — awaiting `[, "component"]`.
    TimeSeries {
        /// Trend component frame.
        trend: Frame,
        /// Seasonal component frame.
        seasonal: Frame,
        /// Remainder component frame.
        remainder: Frame,
    },
}

/// The interpreter: an environment of named values.
#[derive(Debug, Clone, Default)]
pub struct RInterp {
    env: BTreeMap<String, RValue>,
}

impl RInterp {
    /// Fresh interpreter.
    pub fn new() -> RInterp {
        RInterp::default()
    }

    /// Bind a data frame (how cube data enters the R engine).
    pub fn bind_frame(&mut self, name: impl Into<String>, frame: Frame) {
        self.env.insert(name.into(), RValue::Frame(frame));
    }

    /// Fetch a frame by name (how results leave the R engine).
    pub fn frame(&self, name: &str) -> Option<&Frame> {
        match self.env.get(name) {
            Some(RValue::Frame(f)) => Some(f),
            _ => None,
        }
    }

    /// Run a script, with one `rmini.stmt` child span of `trace` per
    /// executed statement (attrs: `index`, `var` for assignments); pass
    /// [`Span::disabled`](exl_obs::Span::disabled) to trace nothing.
    pub fn run(&mut self, src: &str, trace: &exl_obs::Span) -> Result<(), RError> {
        exl_fault::check("rmini.run").map_err(|e| RError::eval(e.to_string()))?;
        for (i, stmt) in parse(src)?.iter().enumerate() {
            // governance checkpoint per statement: a cancelled or
            // over-budget run stops between statements
            exl_fault::govern::checkpoint()?;
            let span = trace.child("rmini.stmt");
            span.set_attr("index", i as u64);
            if let RStmt::Assign { var, .. } = stmt {
                span.set_attr("var", var.clone());
            }
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::Statement,
                "rmini.run",
                || match stmt {
                    RStmt::Assign { var, .. } => format!("stmt {i}: assign {var}"),
                    _ => format!("stmt {i}"),
                },
            );
            if let Err(e) = self.exec(stmt) {
                span.add_event(e.to_string());
                span.set_attr("status", "failed");
                return Err(e);
            }
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &RStmt) -> Result<(), RError> {
        match stmt {
            RStmt::Assign {
                var,
                col: None,
                expr,
            } => {
                let v = self.eval(expr)?;
                self.env.insert(var.clone(), v);
                Ok(())
            }
            RStmt::Assign {
                var,
                col: Some(col),
                expr,
            } => {
                let value = self.eval(expr)?;
                let cells = into_cells(value, None)?;
                let Some(RValue::Frame(f)) = self.env.get_mut(var) else {
                    return Err(RError::eval(format!("`{var}` is not a data frame")));
                };
                let cells = broadcast(cells, f.nrow())?;
                f.set_col(col, cells)
            }
            RStmt::Expr(e) => self.eval(e).map(|_| ()),
        }
    }

    fn eval(&self, expr: &RExpr) -> Result<RValue, RError> {
        match expr {
            RExpr::Num(n) => Ok(RValue::Num(*n)),
            RExpr::Str(s) => Ok(RValue::Str(s.clone())),
            RExpr::Ident(name) => self
                .env
                .get(name)
                .cloned()
                .ok_or_else(|| RError::eval(format!("object `{name}` not found"))),
            RExpr::Neg(inner) => match self.eval(inner)? {
                RValue::Num(n) => Ok(RValue::Num(-n)),
                RValue::Vector(cells) => {
                    // -c("p","g"): negated name selector
                    if cells.iter().all(|c| matches!(c, Cell::Str(_))) && !cells.is_empty() {
                        Ok(RValue::NegatedNames(
                            cells
                                .into_iter()
                                .map(|c| match c {
                                    Cell::Str(s) => s,
                                    _ => unreachable!(),
                                })
                                .collect(),
                        ))
                    } else {
                        Ok(RValue::Vector(map_num(&cells, |x| -x)?))
                    }
                }
                other => Err(RError::eval(format!("cannot negate {other:?}"))),
            },
            RExpr::Binary { op, l, r } => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                arith(*op, a, b)
            }
            RExpr::Dollar { obj, field } => match self.eval(obj)? {
                RValue::Frame(f) => {
                    let col = f
                        .col(field)
                        .ok_or_else(|| RError::eval(format!("unknown column `{field}`")))?;
                    Ok(RValue::Vector(col.clone()))
                }
                RValue::Stl {
                    trend,
                    seasonal,
                    remainder,
                } if field == "time.series" => Ok(RValue::TimeSeries {
                    trend,
                    seasonal,
                    remainder,
                }),
                other => Err(RError::eval(format!("`$ {field}` not valid on {other:?}"))),
            },
            RExpr::Index {
                obj,
                row,
                col,
                two_slot,
            } => {
                let target = self.eval(obj)?;
                self.index(target, row.as_deref(), col.as_deref(), *two_slot)
            }
            RExpr::Call { func, args } => self.call(func, args),
        }
    }

    fn index(
        &self,
        target: RValue,
        row: Option<&RExpr>,
        col: Option<&RExpr>,
        two_slot: bool,
    ) -> Result<RValue, RError> {
        match target {
            RValue::TimeSeries {
                trend,
                seasonal,
                remainder,
            } => {
                let Some(col) = col else {
                    return Err(RError::eval("time.series needs a component selector"));
                };
                let RValue::Str(name) = self.eval(col)? else {
                    return Err(RError::eval("component selector must be a string"));
                };
                let f = match name.as_str() {
                    "trend" => trend,
                    "seasonal" => seasonal,
                    "remainder" => remainder,
                    other => return Err(RError::eval(format!("unknown component `{other}`"))),
                };
                Ok(RValue::Frame(f))
            }
            RValue::Frame(f) => {
                // row mask first
                let f = if let Some(r) = row {
                    let mask = into_cells(self.eval(r)?, Some(f.nrow()))?;
                    f.filter_rows(&mask)?
                } else {
                    f
                };
                let Some(col) = col else {
                    return Ok(RValue::Frame(f));
                };
                match self.eval(col)? {
                    RValue::Str(name) => {
                        if two_slot {
                            // df[, "x"] yields the column vector
                            let c = f
                                .col(&name)
                                .ok_or_else(|| RError::eval(format!("unknown column `{name}`")))?;
                            Ok(RValue::Vector(c.clone()))
                        } else {
                            // df["x"] yields a one-column frame
                            Ok(RValue::Frame(f.select(&[name])?))
                        }
                    }
                    RValue::Vector(cells) => {
                        let names: Vec<String> = cells
                            .into_iter()
                            .map(|c| match c {
                                Cell::Str(s) => Ok(s),
                                other => Err(RError::eval(format!(
                                    "column selector must be character, got {other:?}"
                                ))),
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(RValue::Frame(f.select(&names)?))
                    }
                    RValue::NegatedNames(names) => Ok(RValue::Frame(f.drop(&names))),
                    other => Err(RError::eval(format!("bad column selector {other:?}"))),
                }
            }
            other => Err(RError::eval(format!("cannot index {other:?}"))),
        }
    }

    fn call(&self, func: &str, args: &[(Option<String>, RExpr)]) -> Result<RValue, RError> {
        let positional = |i: usize| -> Result<RValue, RError> {
            args.get(i)
                .filter(|(n, _)| n.is_none())
                .map(|(_, e)| self.eval(e))
                .transpose()?
                .ok_or_else(|| RError::eval(format!("{func}: missing argument {}", i + 1)))
        };
        let named = |name: &str| -> Result<Option<RValue>, RError> {
            args.iter()
                .find(|(n, _)| n.as_deref() == Some(name))
                .map(|(_, e)| self.eval(e))
                .transpose()
        };

        match func {
            "c" => {
                let mut cells = Vec::new();
                for (_, e) in args {
                    match self.eval(e)? {
                        RValue::Num(n) => cells.push(Cell::Num(n)),
                        RValue::Str(s) => cells.push(Cell::Str(s)),
                        RValue::Vector(v) => cells.extend(v),
                        other => return Err(RError::eval(format!("c(): bad element {other:?}"))),
                    }
                }
                Ok(RValue::Vector(cells))
            }
            "merge" => {
                let RValue::Frame(x) = positional(0)? else {
                    return Err(RError::eval("merge: first argument must be a frame"));
                };
                let RValue::Frame(y) = positional(1)? else {
                    return Err(RError::eval("merge: second argument must be a frame"));
                };
                let by = match named("by")? {
                    Some(RValue::Vector(cells)) => cells
                        .into_iter()
                        .map(|c| match c {
                            Cell::Str(s) => Ok(s),
                            other => Err(RError::eval(format!("merge: bad `by` entry {other:?}"))),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(RValue::Str(s)) => vec![s],
                    _ => return Err(RError::eval("merge: `by` is required")),
                };
                Ok(RValue::Frame(merge(&x, &y, &by)?))
            }
            "aggregate" => {
                let RValue::Frame(f) = positional(0)? else {
                    return Err(RError::eval("aggregate: first argument must be a frame"));
                };
                let by = match named("by")? {
                    Some(RValue::Vector(cells)) => cells
                        .into_iter()
                        .map(|c| match c {
                            Cell::Str(s) => Ok(s),
                            other => Err(RError::eval(format!("aggregate: bad `by` {other:?}"))),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(RValue::Str(s)) => vec![s],
                    _ => return Err(RError::eval("aggregate: `by` is required")),
                };
                let fun = match named("FUN")? {
                    Some(RValue::Str(s)) => s,
                    _ => return Err(RError::eval("aggregate: `FUN` is required")),
                };
                aggregate(&f, &by, &fun).map(RValue::Frame)
            }
            "quarter" | "month" | "year" => {
                let target = match func {
                    "quarter" => Frequency::Quarterly,
                    "month" => Frequency::Monthly,
                    _ => Frequency::Yearly,
                };
                let cells = into_cells(positional(0)?, None)?;
                let out: Vec<Cell> = cells
                    .into_iter()
                    .map(|c| match c {
                        Cell::Time(t) => t.convert(target).map(Cell::Time).ok_or_else(|| {
                            RError::eval(format!("cannot convert {t} to {}", target.name()))
                        }),
                        other => Err(RError::eval(format!("{func}: non-temporal cell {other:?}"))),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(RValue::Vector(out))
            }
            "shift.time" => {
                let cells = into_cells(positional(0)?, None)?;
                let RValue::Num(n) = positional(1)? else {
                    return Err(RError::eval("shift.time: offset must be numeric"));
                };
                if n.fract() != 0.0 {
                    return Err(RError::eval("shift.time: offset must be an integer"));
                }
                let out: Vec<Cell> = cells
                    .into_iter()
                    .map(|c| match c {
                        Cell::Time(t) => Ok(Cell::Time(t.shift(n as i64))),
                        // integer dimensions arrive as numeric cells;
                        // shifting them is plain addition, as on every
                        // other backend
                        Cell::Num(v) => Ok(Cell::Num(v + n)),
                        other => Err(RError::eval(format!(
                            "shift.time: non-temporal cell {other:?}"
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                Ok(RValue::Vector(out))
            }
            "is.finite" => {
                let cells = into_cells(positional(0)?, None)?;
                Ok(RValue::Vector(
                    cells
                        .into_iter()
                        .map(|c| Cell::Bool(c.as_num().map(|x| x.is_finite()).unwrap_or(false)))
                        .collect(),
                ))
            }
            "log" | "exp" | "sqrt" | "abs" | "sin" | "cos" => {
                let f: fn(f64) -> f64 = match func {
                    "log" => f64::ln,
                    "exp" => f64::exp,
                    "sqrt" => f64::sqrt,
                    "abs" => f64::abs,
                    "sin" => f64::sin,
                    _ => f64::cos,
                };
                match positional(0)? {
                    RValue::Num(n) => Ok(RValue::Num(f(n))),
                    v => Ok(RValue::Vector(map_num(&into_cells(v, None)?, f)?)),
                }
            }
            "stl" => {
                let RValue::Frame(f) = positional(0)? else {
                    return Err(RError::eval("stl: first argument must be a frame"));
                };
                // second argument is the R idiom's "periodic"; accepted and
                // ignored (our decomposition is always the periodic one)
                let _ = positional(1)?;
                let [trend, seasonal, remainder] = apply_series_set(&f)?;
                Ok(RValue::Stl {
                    trend,
                    seasonal,
                    remainder,
                })
            }
            "series" => {
                let RValue::Frame(f) = positional(0)? else {
                    return Err(RError::eval("series: first argument must be a frame"));
                };
                let RValue::Str(name) = positional(1)? else {
                    return Err(RError::eval("series: second argument must be a string"));
                };
                let op = match name.as_str() {
                    "cumsum" => SeriesOp::CumSum,
                    "zscore" => SeriesOp::ZScore,
                    "lin_trend" => SeriesOp::LinTrend,
                    "movavg" => {
                        let RValue::Num(w) = positional(2)? else {
                            return Err(RError::eval("series: movavg needs a window"));
                        };
                        SeriesOp::MovAvg { window: w as usize }
                    }
                    "stl_trend" => SeriesOp::StlTrend,
                    "stl_seasonal" => SeriesOp::StlSeasonal,
                    "stl_remainder" => SeriesOp::StlRemainder,
                    other => {
                        return Err(RError::eval(format!("series: unknown operator `{other}`")))
                    }
                };
                apply_series(&f, op).map(RValue::Frame)
            }
            "nrow" => {
                let RValue::Frame(f) = positional(0)? else {
                    return Err(RError::eval("nrow: argument must be a frame"));
                };
                Ok(RValue::Num(f.nrow() as f64))
            }
            other => Err(RError::eval(format!("could not find function \"{other}\""))),
        }
    }
}

/// Coerce a value to a cell vector, broadcasting scalars when a length is
/// supplied; one-column frames coerce to their column.
fn into_cells(v: RValue, broadcast_to: Option<usize>) -> Result<Vec<Cell>, RError> {
    let cells = match v {
        RValue::Vector(c) => c,
        RValue::Num(n) => vec![Cell::Num(n)],
        RValue::Str(s) => vec![Cell::Str(s)],
        RValue::Frame(f) if f.cols.len() == 1 => f.cols.into_iter().next().unwrap().1,
        other => return Err(RError::eval(format!("expected a vector, got {other:?}"))),
    };
    match broadcast_to {
        Some(n) => broadcast(cells, n),
        None => Ok(cells),
    }
}

fn broadcast(cells: Vec<Cell>, n: usize) -> Result<Vec<Cell>, RError> {
    if cells.len() == n {
        Ok(cells)
    } else if cells.len() == 1 {
        Ok(vec![cells[0].clone(); n])
    } else {
        Err(RError::eval(format!(
            "length mismatch: {} vs {n}",
            cells.len()
        )))
    }
}

fn map_num(cells: &[Cell], f: impl Fn(f64) -> f64) -> Result<Vec<Cell>, RError> {
    cells
        .iter()
        .map(|c| {
            c.as_num()
                .map(|x| Cell::Num(f(x)))
                .ok_or_else(|| RError::eval(format!("non-numeric cell {c:?}")))
        })
        .collect()
}

/// Elementwise arithmetic with scalar broadcasting (R recycling restricted
/// to scalars).
fn arith(op: char, a: RValue, b: RValue) -> Result<RValue, RError> {
    let apply = |x: f64, y: f64| -> f64 {
        match op {
            '+' => x + y,
            '-' => x - y,
            '*' => x * y,
            '/' => x / y,
            _ => x.powf(y),
        }
    };
    match (a, b) {
        (RValue::Num(x), RValue::Num(y)) => Ok(RValue::Num(apply(x, y))),
        // scalar broadcast against a (possibly empty) vector
        (RValue::Num(x), b) => {
            let cb = into_cells(b, None)?;
            Ok(RValue::Vector(map_num(&cb, |v| apply(x, v))?))
        }
        (a, RValue::Num(y)) => {
            let ca = into_cells(a, None)?;
            Ok(RValue::Vector(map_num(&ca, |v| apply(v, y))?))
        }
        (a, b) => {
            let ca = into_cells(a, None)?;
            let cb = into_cells(b, None)?;
            let n = ca.len().max(cb.len());
            let ca = broadcast(ca, n)?;
            let cb = broadcast(cb, n)?;
            let out: Vec<Cell> = ca
                .iter()
                .zip(cb.iter())
                .map(|(x, y)| match (x.as_num(), y.as_num()) {
                    (Some(x), Some(y)) => Ok(Cell::Num(apply(x, y))),
                    _ => Err(RError::eval(format!(
                        "non-numeric operands {x:?} {op} {y:?}"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            Ok(RValue::Vector(out))
        }
    }
}

/// `aggregate(df, by=c(...), FUN="...")`: group on the named columns,
/// aggregate every remaining numeric column, drop the rest.
fn aggregate(f: &Frame, by: &[String], fun: &str) -> Result<Frame, RError> {
    let agg = match fun {
        "mean" => AggFn::Avg,
        other => AggFn::parse(other)
            .ok_or_else(|| RError::eval(format!("aggregate: unknown FUN \"{other}\"")))?,
    };
    for b in by {
        if f.col(b).is_none() {
            return Err(RError::eval(format!(
                "aggregate: unknown `by` column `{b}`"
            )));
        }
    }
    let value_cols: Vec<&str> = f
        .names()
        .into_iter()
        .filter(|n| !by.contains(&n.to_string()))
        .filter(|n| f.col(n).unwrap().iter().all(|c| c.as_num().is_some()))
        .collect();
    let mut groups: BTreeMap<String, (Vec<Cell>, Vec<usize>)> = BTreeMap::new();
    for i in 0..f.nrow() {
        let key_cells: Vec<Cell> = by.iter().map(|b| f.col(b).unwrap()[i].clone()).collect();
        let key: String = key_cells
            .iter()
            .map(|c| c.key())
            .collect::<Vec<_>>()
            .join("\u{1}");
        groups
            .entry(key)
            .or_insert_with(|| (key_cells, Vec::new()))
            .1
            .push(i);
    }
    let mut out = Frame::default();
    for b in by {
        out.cols.push((b.clone(), Vec::new()));
    }
    for v in &value_cols {
        out.cols.push((v.to_string(), Vec::new()));
    }
    for (_, (key_cells, rows)) in groups {
        for (c, cell) in key_cells.into_iter().enumerate() {
            out.cols[c].1.push(cell);
        }
        for (vi, v) in value_cols.iter().enumerate() {
            let vals: Vec<f64> = rows
                .iter()
                .map(|&i| f.col(v).unwrap()[i].as_num().unwrap())
                .collect();
            let r = agg.apply(&vals).unwrap_or(f64::NAN);
            out.cols[by.len() + vi].1.push(Cell::Num(r));
        }
    }
    Ok(out)
}

/// Apply one series operator to a cube-shaped frame (one temporal column,
/// trailing numeric measure, other columns are slices).
pub fn apply_series(f: &Frame, op: SeriesOp) -> Result<Frame, RError> {
    if f.nrow() == 0 {
        // nothing to transform; the shape cannot even be inferred
        return Ok(f.clone());
    }
    let (time_idx, measure_idx, period) = cube_shape(f)?;
    let mut slices: BTreeMap<String, Vec<(i64, usize)>> = BTreeMap::new();
    for i in 0..f.nrow() {
        let Cell::Time(t) = &f.cols[time_idx].1[i] else {
            return Err(RError::eval("series: non-temporal time cell"));
        };
        let key: String = f
            .cols
            .iter()
            .enumerate()
            .filter(|(c, _)| *c != time_idx && *c != measure_idx)
            .map(|(_, (_, col))| col[i].key())
            .collect::<Vec<_>>()
            .join("\u{1}");
        slices.entry(key).or_default().push((t.index(), i));
    }
    let mut out = f.clone();
    for (_, mut rows) in slices {
        rows.sort_by_key(|(t, _)| *t);
        let indices: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
        let values: Vec<f64> = rows
            .iter()
            .map(|(_, i)| f.cols[measure_idx].1[*i].as_num().unwrap_or(f64::NAN))
            .collect();
        let result = op.apply(&indices, &values, period);
        for ((_, i), v) in rows.into_iter().zip(result) {
            out.cols[measure_idx].1[i] = Cell::Num(v);
        }
    }
    Ok(out)
}

/// All three decomposition components at once (for `stl`).
fn apply_series_set(f: &Frame) -> Result<[Frame; 3], RError> {
    Ok([
        apply_series(f, SeriesOp::StlTrend)?,
        apply_series(f, SeriesOp::StlSeasonal)?,
        apply_series(f, SeriesOp::StlRemainder)?,
    ])
}

/// Locate the cube structure of a frame: unique temporal column, last
/// numeric column as measure, seasonal period from the time frequency.
fn cube_shape(f: &Frame) -> Result<(usize, usize, usize), RError> {
    let time_cols: Vec<usize> = f
        .cols
        .iter()
        .enumerate()
        .filter(|(_, (_, col))| col.iter().any(|c| matches!(c, Cell::Time(_))))
        .map(|(i, _)| i)
        .collect();
    let [time_idx] = time_cols.as_slice() else {
        return Err(RError::eval(format!(
            "series operators need exactly one temporal column, found {}",
            time_cols.len()
        )));
    };
    let measure_idx = f
        .cols
        .iter()
        .rposition(|(_, col)| col.iter().all(|c| c.as_num().is_some()) && !col.is_empty())
        .ok_or_else(|| RError::eval("series operators need a numeric measure column"))?;
    let freq = match &f.cols[*time_idx].1[0] {
        Cell::Time(t) => t.frequency(),
        _ => unreachable!(),
    };
    Ok((
        *time_idx,
        measure_idx,
        exl_model::TimePoint::periods_per_year(freq),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::TimePoint;
    use exl_obs::Span;

    fn q(y: i32, n: u32) -> Cell {
        Cell::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    fn interp_with(frames: Vec<(&str, Frame)>) -> RInterp {
        let mut i = RInterp::new();
        for (n, f) in frames {
            i.bind_frame(n, f);
        }
        i
    }

    fn pqr() -> Frame {
        Frame {
            cols: vec![
                ("q".into(), vec![q(2020, 1), q(2020, 1), q(2020, 2)]),
                (
                    "r".into(),
                    vec![
                        Cell::Str("n".into()),
                        Cell::Str("s".into()),
                        Cell::Str("n".into()),
                    ],
                ),
                (
                    "p".into(),
                    vec![Cell::Num(100.0), Cell::Num(50.0), Cell::Num(110.0)],
                ),
            ],
        }
    }

    fn rgdppc() -> Frame {
        Frame {
            cols: vec![
                ("q".into(), vec![q(2020, 1), q(2020, 1), q(2020, 2)]),
                (
                    "r".into(),
                    vec![
                        Cell::Str("n".into()),
                        Cell::Str("s".into()),
                        Cell::Str("n".into()),
                    ],
                ),
                (
                    "g".into(),
                    vec![Cell::Num(30.0), Cell::Num(20.0), Cell::Num(31.0)],
                ),
            ],
        }
    }

    /// The §5.2 R listing for tgd (2), verbatim.
    #[test]
    fn paper_tgd2_script_runs() {
        let mut i = interp_with(vec![("PQR", pqr()), ("RGDPPC", rgdppc())]);
        i.run(
            r#"
tmp <- merge(PQR,RGDPPC,by=c("q","r"))
tmp$i <- tmp["p"] * tmp["g"]
TGDP <- tmp[-c("p","g")]
"#,
            &Span::disabled(),
        )
        .unwrap();
        let f = i.frame("TGDP").unwrap();
        assert_eq!(f.names(), vec!["q", "r", "i"]);
        assert_eq!(f.nrow(), 3);
        // 2020-Q1 north: 100 * 30
        let idx = (0..f.nrow())
            .find(|&r| {
                f.col("q").unwrap()[r] == q(2020, 1)
                    && f.col("r").unwrap()[r] == Cell::Str("n".into())
            })
            .unwrap();
        assert_eq!(f.col("i").unwrap()[idx], Cell::Num(3000.0));
    }

    /// The §5.2 R listing for tgd (4): stl + trend extraction.
    #[test]
    fn paper_tgd4_stl_script_runs() {
        let gdp = Frame {
            cols: vec![
                (
                    "q".into(),
                    (0..12)
                        .map(|i| q(2018 + i / 4, (i % 4 + 1) as u32))
                        .collect(),
                ),
                (
                    "g".into(),
                    (0..12).map(|i| Cell::Num(100.0 + 2.0 * i as f64)).collect(),
                ),
            ],
        };
        let mut i = interp_with(vec![("GDP", gdp)]);
        i.run(
            "GDPC=stl(GDP,\"periodic\")\nGDPT=GDPC$time.series[ ,\"trend\"]",
            &Span::disabled(),
        )
        .unwrap();
        let f = i.frame("GDPT").unwrap();
        assert_eq!(f.nrow(), 12);
        assert!(f
            .col("g")
            .unwrap()
            .iter()
            .all(|c| c.as_num().unwrap().is_finite()));
    }

    #[test]
    fn aggregate_with_frequency_conversion() {
        let mut i = interp_with(vec![("PQR", pqr())]);
        i.run(
            r#"
tmp <- PQR
tmp$y <- 2 * tmp$p
agg <- aggregate(tmp[c("q","y")], by=c("q"), FUN="sum")
"#,
            &Span::disabled(),
        )
        .unwrap();
        let f = i.frame("agg").unwrap();
        assert_eq!(f.nrow(), 2);
        assert_eq!(f.col("y").unwrap()[0], Cell::Num(300.0));
        assert_eq!(f.col("y").unwrap()[1], Cell::Num(220.0));
    }

    #[test]
    fn division_by_zero_then_finite_filter() {
        let f = Frame {
            cols: vec![
                ("k".into(), vec![Cell::Num(1.0), Cell::Num(2.0)]),
                ("a".into(), vec![Cell::Num(1.0), Cell::Num(4.0)]),
                ("b".into(), vec![Cell::Num(0.0), Cell::Num(2.0)]),
            ],
        };
        let mut i = interp_with(vec![("X", f)]);
        i.run(
            r#"
X$m <- X$a / X$b
OUT <- X[is.finite(X$m), ]
"#,
            &Span::disabled(),
        )
        .unwrap();
        let out = i.frame("OUT").unwrap();
        assert_eq!(out.nrow(), 1);
        assert_eq!(out.col("m").unwrap()[0], Cell::Num(2.0));
    }

    #[test]
    fn shift_time_builtin() {
        let f = Frame {
            cols: vec![
                ("q".into(), vec![q(2020, 4)]),
                ("m".into(), vec![Cell::Num(7.0)]),
            ],
        };
        let mut i = interp_with(vec![("A", f)]);
        i.run("A$q <- shift.time(A$q, 1)", &Span::disabled())
            .unwrap();
        assert_eq!(i.frame("A").unwrap().col("q").unwrap()[0], q(2021, 1));
    }

    #[test]
    fn quarter_conversion_builtin() {
        use exl_model::Date;
        let f = Frame {
            cols: vec![
                (
                    "d".into(),
                    vec![Cell::Time(TimePoint::Day(
                        Date::from_ymd(2020, 5, 3).unwrap(),
                    ))],
                ),
                ("m".into(), vec![Cell::Num(1.0)]),
            ],
        };
        let mut i = interp_with(vec![("A", f)]);
        i.run("A$d <- quarter(A$d)", &Span::disabled()).unwrap();
        assert_eq!(i.frame("A").unwrap().col("d").unwrap()[0], q(2020, 2));
    }

    #[test]
    fn series_builtin_cumsum_per_slice() {
        let f = Frame {
            cols: vec![
                (
                    "q".into(),
                    vec![q(2020, 1), q(2020, 2), q(2020, 1), q(2020, 2)],
                ),
                (
                    "r".into(),
                    vec![
                        Cell::Str("a".into()),
                        Cell::Str("a".into()),
                        Cell::Str("b".into()),
                        Cell::Str("b".into()),
                    ],
                ),
                (
                    "m".into(),
                    vec![
                        Cell::Num(1.0),
                        Cell::Num(2.0),
                        Cell::Num(10.0),
                        Cell::Num(20.0),
                    ],
                ),
            ],
        };
        let mut i = interp_with(vec![("A", f)]);
        i.run("B <- series(A, \"cumsum\")", &Span::disabled())
            .unwrap();
        let b = i.frame("B").unwrap();
        assert_eq!(b.col("m").unwrap()[1], Cell::Num(3.0));
        assert_eq!(b.col("m").unwrap()[3], Cell::Num(30.0));
    }

    #[test]
    fn month_and_year_conversion_builtins() {
        use exl_model::Date;
        let f = Frame {
            cols: vec![
                (
                    "d".into(),
                    vec![Cell::Time(TimePoint::Day(
                        Date::from_ymd(2021, 11, 9).unwrap(),
                    ))],
                ),
                ("m".into(), vec![Cell::Num(1.0)]),
            ],
        };
        let mut i = interp_with(vec![("A", f)]);
        i.run("A$mo <- month(A$d)\nA$yr <- year(A$d)", &Span::disabled())
            .unwrap();
        let a = i.frame("A").unwrap();
        assert_eq!(
            a.col("mo").unwrap()[0],
            Cell::Time(TimePoint::Month {
                year: 2021,
                month: 11
            })
        );
        assert_eq!(a.col("yr").unwrap()[0], Cell::Time(TimePoint::Year(2021)));
        // converting to a finer frequency fails
        let g = Frame {
            cols: vec![
                ("y".into(), vec![Cell::Time(TimePoint::Year(2021))]),
                ("m".into(), vec![Cell::Num(1.0)]),
            ],
        };
        let mut j = interp_with(vec![("B", g)]);
        assert!(j.run("B$q <- quarter(B$y)", &Span::disabled()).is_err());
    }

    #[test]
    fn shift_time_on_numeric_cells() {
        let f = Frame {
            cols: vec![
                ("k".into(), vec![Cell::Num(5.0)]),
                ("m".into(), vec![Cell::Num(1.0)]),
            ],
        };
        let mut i = interp_with(vec![("A", f)]);
        i.run("A$k <- shift.time(A$k, -2)", &Span::disabled())
            .unwrap();
        assert_eq!(i.frame("A").unwrap().col("k").unwrap()[0], Cell::Num(3.0));
    }

    #[test]
    fn error_cases() {
        let mut i = RInterp::new();
        assert!(i.run("x <- missing.object", &Span::disabled()).is_err());
        assert!(i.run("x <- unknown.fn(1)", &Span::disabled()).is_err());
        i.bind_frame("F", pqr());
        assert!(i.run("x <- F$nope", &Span::disabled()).is_err());
        assert!(i.run("x <- F[c(\"nope\")]", &Span::disabled()).is_err());
        assert!(i
            .run("x <- merge(F, 3, by=c(\"q\"))", &Span::disabled())
            .is_err());
        assert!(i
            .run(
                "x <- aggregate(F, by=c(\"zzz\"), FUN=\"sum\")",
                &Span::disabled()
            )
            .is_err());
        assert!(i
            .run(
                "x <- aggregate(F, by=c(\"q\"), FUN=\"zzz\")",
                &Span::disabled()
            )
            .is_err());
    }

    #[test]
    fn scalar_broadcast_in_arithmetic() {
        let mut i = interp_with(vec![("F", pqr())]);
        i.run("F$m <- 100 * F$p / 2", &Span::disabled()).unwrap();
        assert_eq!(
            i.frame("F").unwrap().col("m").unwrap()[0],
            Cell::Num(5000.0)
        );
    }

    #[test]
    fn math_functions_elementwise() {
        let mut i = interp_with(vec![("F", pqr())]);
        i.run("F$l <- log(F$p)\nF$e <- abs(F$p - 100)", &Span::disabled())
            .unwrap();
        let f = i.frame("F").unwrap();
        assert!((f.col("l").unwrap()[0].as_num().unwrap() - 100f64.ln()).abs() < 1e-12);
        assert_eq!(f.col("e").unwrap()[1], Cell::Num(50.0));
    }
}
