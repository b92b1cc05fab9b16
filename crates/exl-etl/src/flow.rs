//! ETL flows and their sequential execution.
//!
//! A [`Flow`] mirrors the structure of Fig. 1: *data source* steps feed
//! cube tuples into the stream, *merge* steps join streams on dimensions,
//! *calculation* (and user-defined) steps combine measures, and an
//! *output* step writes the result back into the system. One flow is
//! generated per tgd; a [`Job`] strings flows together in tgd total order.

use std::collections::BTreeMap;
use std::fmt;

use exl_map::dep::ScalarExpr;
use exl_model::hash::FxHashMap;
use exl_model::schema::{CubeId, CubeSchema};
use exl_model::time::Frequency;
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset};
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;
use exl_stats::state::{AggState, ExactState};

use crate::row::{Field, Row};

/// ETL execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EtlError {
    /// A step failed (missing cube, arity mismatch, bad transform, …).
    Message(String),
    /// The run governor stopped the flow — cooperative cancellation or
    /// budget exhaustion observed at a flow/step checkpoint. The engine
    /// maps this to its non-retryable `Cancelled`/`BudgetExceeded`
    /// variants instead of a generic execution failure.
    Governed(exl_fault::govern::GovernError),
}

impl EtlError {
    /// A plain message failure.
    pub fn msg(s: impl Into<String>) -> Self {
        EtlError::Message(s.into())
    }

    /// The governance stop behind this error, if that is what it is.
    pub fn govern_cause(&self) -> Option<&exl_fault::govern::GovernError> {
        match self {
            EtlError::Governed(g) => Some(g),
            _ => None,
        }
    }
}

impl From<exl_fault::govern::GovernError> for EtlError {
    fn from(e: exl_fault::govern::GovernError) -> Self {
        EtlError::Governed(e)
    }
}

impl fmt::Display for EtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtlError::Message(m) => write!(f, "ETL error: {m}"),
            EtlError::Governed(e) => write!(f, "ETL stopped: {e}"),
        }
    }
}

impl std::error::Error for EtlError {}

/// A data source step: reads a cube and emits one row per tuple, naming
/// fields after the tgd's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSourceStep {
    /// Cube to read.
    pub relation: CubeId,
    /// Per dimension: the field name to bind and the shift to *undo*
    /// (a `q−1` atom term binds `q = column + 1`).
    pub dim_fields: Vec<(String, i64)>,
    /// Field name for the measure.
    pub measure_field: String,
}

/// How a merge step matches its two input streams.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinKind {
    /// Keep matching rows only.
    Inner,
    /// Full outer join; missing measures assume the given per-field
    /// defaults (the paper's default-value vectorial variant — Kettle-like
    /// engines support outer merges natively, so ETL is the target that
    /// *can* run `addz`).
    FullOuter {
        /// Default value per measure field.
        defaults: BTreeMap<String, f64>,
    },
}

/// A merge-join step over dimension key fields.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeJoinStep {
    /// Key field names.
    pub keys: Vec<String>,
    /// Join kind.
    pub kind: JoinKind,
}

/// A transformation applied to the merged stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformStep {
    /// Compute a measure field from other fields ("calculation step").
    Calculator {
        /// Output field.
        output: String,
        /// Expression over measure fields.
        expr: ScalarExpr,
    },
    /// Drop rows whose field is non-finite (partial-operator semantics).
    FiniteFilter {
        /// Field to check.
        field: String,
    },
    /// Shift a time dimension field.
    ShiftDim {
        /// Output field.
        output: String,
        /// Input field.
        input: String,
        /// Periods to add.
        offset: i64,
    },
    /// Convert a time dimension field to a coarser frequency.
    ConvertDim {
        /// Output field.
        output: String,
        /// Input field.
        input: String,
        /// Target frequency.
        target: Frequency,
    },
    /// Copy a dimension field under a new name.
    RenameDim {
        /// Output field.
        output: String,
        /// Input field.
        input: String,
    },
    /// Aggregation step: group on key fields, fold a measure field.
    Aggregator {
        /// Grouping fields.
        keys: Vec<String>,
        /// Aggregation function.
        agg: AggFn,
        /// Aggregated field.
        input: String,
        /// Output field.
        output: String,
    },
    /// User-defined whole-stream step: a series operator over the stream
    /// viewed as a cube (time field + slice fields + measure field).
    Series {
        /// The operator.
        op: SeriesOp,
        /// Time field.
        time_field: String,
        /// Slice fields.
        slice_fields: Vec<String>,
        /// Measure field (updated in place).
        measure_field: String,
        /// Seasonal period.
        period: usize,
    },
}

/// The output step: writes fields back as a cube.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputStep {
    /// Target cube.
    pub relation: CubeId,
    /// Dimension fields, in target schema order.
    pub dim_fields: Vec<String>,
    /// Measure field.
    pub measure_field: String,
}

/// One ETL flow — the executable counterpart of one tgd (Fig. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Flow identifier (the tgd id).
    pub id: String,
    /// Data source steps.
    pub sources: Vec<DataSourceStep>,
    /// Merge steps combining consecutive sources (`sources.len() − 1`).
    pub merges: Vec<MergeJoinStep>,
    /// Transformations.
    pub transforms: Vec<TransformStep>,
    /// Output step.
    pub output: OutputStep,
}

/// A job: flows in tgd total order plus the schemas needed to build the
/// output cubes.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Flows, in stratification order.
    pub flows: Vec<Flow>,
    /// Schemas for output relations.
    pub schemas: BTreeMap<CubeId, CubeSchema>,
}

impl Flow {
    /// Execute the flow sequentially against a dataset, returning the
    /// produced cube data. The flow runs under an `etl.flow` child span
    /// of `trace`, with one child span per step (`etl.source`,
    /// `etl.merge`, `etl.transform`, `etl.output`) carrying the step's
    /// row counts; pass [`Span::disabled`](exl_obs::Span::disabled) to
    /// trace nothing.
    pub fn run(&self, data: &Dataset, trace: &exl_obs::Span) -> Result<CubeData, EtlError> {
        if self.sources.is_empty() {
            return Err(EtlError::msg(format!("flow {}: no data sources", self.id)));
        }
        exl_fault::check("etl.flow").map_err(|e| EtlError::msg(e.to_string()))?;
        // governance checkpoint per flow: cancellation and budget stops
        // land between flows, never mid-step
        exl_fault::govern::checkpoint()?;
        let flow_span = trace.child("etl.flow");
        flow_span.set_attr("flow", self.id.clone());
        flow_span.set_attr("cube", self.output.relation.to_string());
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Statement, "etl.flow", || {
            format!("flow {} -> {}", self.id, self.output.relation)
        });
        // sources
        let mut streams: Vec<Vec<Row>> = Vec::with_capacity(self.sources.len());
        for s in &self.sources {
            let span = flow_span.child("etl.source");
            span.set_attr("relation", s.relation.to_string());
            let rows = read_source(s, data)?;
            span.set_attr("rows_out", rows.len() as u64);
            streams.push(rows);
        }
        // merges
        let mut rows = streams.remove(0);
        for (merge, right) in self.merges.iter().zip(streams) {
            let span = flow_span.child("etl.merge");
            span.set_attr("rows_in", (rows.len() + right.len()) as u64);
            rows = merge_rows(rows, right, merge)?;
            span.set_attr("rows_out", rows.len() as u64);
        }
        // transforms
        for t in &self.transforms {
            exl_fault::govern::checkpoint()?;
            let span = flow_span.child("etl.transform");
            span.set_attr("kind", t.kind());
            span.set_attr("rows_in", rows.len() as u64);
            rows = apply_transform(t, rows)?;
            span.set_attr("rows_out", rows.len() as u64);
        }
        // output
        let span = flow_span.child("etl.output");
        span.set_attr("rows_in", rows.len() as u64);
        let out = write_output(&self.output, rows)?;
        flow_span.set_attr("rows_out", out.len() as u64);
        exl_fault::govern::charge(
            out.len() as u64,
            exl_fault::govern::approx_cube_bytes(
                out.len() as u64,
                self.output.dim_fields.len() as u64,
            ),
        );
        Ok(out)
    }
}

impl TransformStep {
    /// Short step-kind name for traces and listings.
    pub fn kind(&self) -> &'static str {
        match self {
            TransformStep::Calculator { .. } => "calculator",
            TransformStep::FiniteFilter { .. } => "finite-filter",
            TransformStep::ShiftDim { .. } => "shift-dim",
            TransformStep::ConvertDim { .. } => "convert-dim",
            TransformStep::RenameDim { .. } => "rename-dim",
            TransformStep::Aggregator { .. } => "aggregator",
            TransformStep::Series { .. } => "series",
        }
    }
}

impl Job {
    /// Run every flow in order, extending the dataset with each result,
    /// with per-flow and per-step trace spans under `trace`.
    pub fn run(&self, input: &Dataset, trace: &exl_obs::Span) -> Result<Dataset, EtlError> {
        let mut ds = input.clone();
        for flow in &self.flows {
            let data = flow.run(&ds, trace)?;
            let schema = self
                .schemas
                .get(&flow.output.relation)
                .ok_or_else(|| EtlError::msg(format!("no schema for {}", flow.output.relation)))?
                .clone();
            ds.put(Cube::new(schema, data));
        }
        Ok(ds)
    }
}

/// Read a source cube into rows.
fn read_source(s: &DataSourceStep, data: &Dataset) -> Result<Vec<Row>, EtlError> {
    let cube = data
        .get(&s.relation)
        .ok_or_else(|| EtlError::msg(format!("missing input cube {}", s.relation)))?;
    if s.dim_fields.len() != cube.schema.arity() {
        return Err(EtlError::msg(format!(
            "source {}: {} dimension fields for arity {}",
            s.relation,
            s.dim_fields.len(),
            cube.schema.arity()
        )));
    }
    let mut out = Vec::with_capacity(cube.data.len());
    for (k, v) in cube.data.iter_sorted() {
        let mut row = Row::new();
        for ((field, unshift), value) in s.dim_fields.iter().zip(k.iter()) {
            let value = if *unshift != 0 {
                match value {
                    DimValue::Time(t) => DimValue::Time(t.shift(*unshift)),
                    DimValue::Int(i) => DimValue::Int(i + unshift),
                    other => {
                        return Err(EtlError::msg(format!(
                            "source {}: shift on unshiftable value {other}",
                            s.relation
                        )))
                    }
                }
            } else {
                value.clone()
            };
            row.set(field.clone(), Field::Dim(value));
        }
        row.set(s.measure_field.clone(), Field::Num(v));
        out.push(row);
    }
    Ok(out)
}

/// Hash merge-join.
fn merge_rows(left: Vec<Row>, right: Vec<Row>, step: &MergeJoinStep) -> Result<Vec<Row>, EtlError> {
    let mut index: FxHashMap<String, Vec<usize>> = FxHashMap::default();
    for (i, r) in right.iter().enumerate() {
        let key = r
            .key_of(&step.keys)
            .ok_or_else(|| EtlError::msg("merge: key field missing on right stream"))?;
        index.entry(key).or_default().push(i);
    }
    let mut out = Vec::new();
    let mut matched_right = vec![false; right.len()];
    for l in &left {
        let key = l
            .key_of(&step.keys)
            .ok_or_else(|| EtlError::msg("merge: key field missing on left stream"))?;
        match index.get(&key) {
            Some(matches) => {
                for &i in matches {
                    matched_right[i] = true;
                    let mut row = l.clone();
                    row.absorb(&right[i]);
                    out.push(row);
                }
            }
            None => {
                if let JoinKind::FullOuter { defaults } = &step.kind {
                    let mut row = l.clone();
                    for (f, d) in defaults {
                        if row.get(f).is_none() {
                            row.set(f.clone(), Field::Num(*d));
                        }
                    }
                    out.push(row);
                }
            }
        }
    }
    if let JoinKind::FullOuter { defaults } = &step.kind {
        for (i, r) in right.iter().enumerate() {
            if !matched_right[i] {
                let mut row = r.clone();
                for (f, d) in defaults {
                    if row.get(f).is_none() {
                        row.set(f.clone(), Field::Num(*d));
                    }
                }
                out.push(row);
            }
        }
    }
    Ok(out)
}

/// Apply one transform step.
fn apply_transform(t: &TransformStep, rows: Vec<Row>) -> Result<Vec<Row>, EtlError> {
    match t {
        TransformStep::Calculator { output, expr } => rows
            .into_iter()
            .map(|mut row| {
                // validate field availability first (eval's lookup is Fn)
                for name in expr.vars() {
                    if row.get(name).and_then(|f| f.as_num()).is_none() {
                        return Err(EtlError::msg(format!("calculator: missing field {name}")));
                    }
                }
                // validated above; NaN (absorbed downstream by the finite
                // filter) beats a panic if a row ever slips through
                let v =
                    expr.eval(&|name| row.get(name).and_then(|f| f.as_num()).unwrap_or(f64::NAN));
                row.set(output.clone(), Field::Num(v));
                Ok(row)
            })
            .collect(),
        TransformStep::FiniteFilter { field } => Ok(rows
            .into_iter()
            .filter(|r| {
                r.get(field)
                    .and_then(|f| f.as_num())
                    .map(|v| v.is_finite())
                    .unwrap_or(false)
            })
            .collect()),
        TransformStep::ShiftDim {
            output,
            input,
            offset,
        } => rows
            .into_iter()
            .map(|mut row| {
                let t = row
                    .get(input)
                    .and_then(|f| f.as_dim())
                    .and_then(|d| d.as_time())
                    .ok_or_else(|| {
                        EtlError::msg(format!("shift: field {input} is not temporal"))
                    })?;
                row.set(output.clone(), Field::Dim(DimValue::Time(t.shift(*offset))));
                Ok(row)
            })
            .collect(),
        TransformStep::ConvertDim {
            output,
            input,
            target,
        } => rows
            .into_iter()
            .map(|mut row| {
                let t = row
                    .get(input)
                    .and_then(|f| f.as_dim())
                    .and_then(|d| d.as_time())
                    .ok_or_else(|| {
                        EtlError::msg(format!("convert: field {input} is not temporal"))
                    })?;
                let c = t.convert(*target).ok_or_else(|| {
                    EtlError::msg(format!("cannot convert {t} to {}", target.name()))
                })?;
                row.set(output.clone(), Field::Dim(DimValue::Time(c)));
                Ok(row)
            })
            .collect(),
        TransformStep::RenameDim { output, input } => rows
            .into_iter()
            .map(|mut row| {
                let v = row
                    .get(input)
                    .cloned()
                    .ok_or_else(|| EtlError::msg(format!("rename: missing field {input}")))?;
                row.set(output.clone(), v);
                Ok(row)
            })
            .collect(),
        TransformStep::Aggregator {
            keys,
            agg,
            input,
            output,
        } => {
            // hash-keyed groups, emitted in first-seen row order; each
            // group folds an [`ExactState`] machine in input row order
            // (= the canonical accumulation order), so `finish` matches
            // the old whole-bag `AggFn::apply` bit for bit while
            // count/min/max shrink to O(1) state
            let mut index: FxHashMap<String, usize> = FxHashMap::default();
            let mut groups: Vec<(Row, ExactState)> = Vec::new();
            for row in rows {
                let key = row
                    .key_of(keys)
                    .ok_or_else(|| EtlError::msg("aggregator: missing key field"))?;
                let v = row
                    .get(input)
                    .and_then(|f| f.as_num())
                    .ok_or_else(|| EtlError::msg(format!("aggregator: missing measure {input}")))?;
                match index.get(&key) {
                    Some(&gi) => groups[gi].1.accumulate(v),
                    None => {
                        index.insert(key, groups.len());
                        let mut state = ExactState::init(*agg);
                        state.accumulate(v);
                        groups.push((row, state));
                    }
                }
            }
            let mut out = Vec::with_capacity(groups.len());
            for (mut row, state) in groups {
                if let Some(v) = state.finish() {
                    row.set(output.clone(), Field::Num(v));
                    out.push(row);
                }
            }
            Ok(out)
        }
        TransformStep::Series {
            op,
            time_field,
            slice_fields,
            measure_field,
            period,
        } => {
            // slices touch disjoint row indices, so iteration order is
            // immaterial — hash-keyed slicing drops the sorted-map tax
            let mut slices: FxHashMap<String, Vec<(i64, usize)>> = FxHashMap::default();
            for (i, row) in rows.iter().enumerate() {
                let t = row
                    .get(time_field)
                    .and_then(|f| f.as_dim())
                    .and_then(|d| d.as_time())
                    .ok_or_else(|| {
                        EtlError::msg(format!("series: field {time_field} is not temporal"))
                    })?;
                let key = row
                    .key_of(slice_fields)
                    .ok_or_else(|| EtlError::msg("series: missing slice field"))?;
                slices.entry(key).or_default().push((t.index(), i));
            }
            let mut rows = rows;
            for (_, mut members) in slices {
                members.sort_by_key(|(t, _)| *t);
                let indices: Vec<i64> = members.iter().map(|(t, _)| *t).collect();
                let values: Vec<f64> = members
                    .iter()
                    .map(|(_, i)| {
                        rows[*i]
                            .get(measure_field)
                            .and_then(|f| f.as_num())
                            .ok_or_else(|| EtlError::msg("series: missing measure field"))
                    })
                    .collect::<Result<_, _>>()?;
                let result = op.apply(&indices, &values, *period);
                for ((_, i), v) in members.into_iter().zip(result) {
                    rows[i].set(measure_field.clone(), Field::Num(v));
                }
            }
            Ok(rows)
        }
    }
}

/// Write the stream into cube data.
fn write_output(output: &OutputStep, rows: Vec<Row>) -> Result<CubeData, EtlError> {
    let mut data = CubeData::new();
    for row in rows {
        let Some(m) = row.get(&output.measure_field).and_then(|f| f.as_num()) else {
            return Err(EtlError::msg(format!(
                "output: missing measure field {}",
                output.measure_field
            )));
        };
        if !m.is_finite() {
            continue;
        }
        let mut key = Vec::with_capacity(output.dim_fields.len());
        for f in &output.dim_fields {
            let d = row
                .get(f)
                .and_then(|x| x.as_dim())
                .ok_or_else(|| EtlError::msg(format!("output: missing dimension field {f}")))?;
            key.push(d.clone());
        }
        data.insert(key, m)
            .map_err(|e| EtlError::msg(format!("output violates functionality: {e}")))?;
    }
    Ok(data)
}
