//! Shard planning: which dimension a native subgraph can be partitioned
//! on, and which statements stay shard-local under that partitioning.
//!
//! The engine's sharded dispatcher hash-partitions every aligned input by
//! one dimension's value (`exl_model::shard`), runs one subgraph instance
//! per shard, and concatenates per-shard outputs. That is only sound for
//! statements whose result rows each depend on input rows *of the same
//! shard*:
//!
//! * tuple-level operators (scalar arithmetic, unary functions) map rows
//!   independently — always local;
//! * vectorial binaries (inner and default-value variants) match rows on
//!   the full key; analysis forces both operands onto identical dimension
//!   lists, so matching rows agree on the shard dimension and live on the
//!   same shard — local when both operands are aligned;
//! * `shift` moves values along a time or integer dimension — local as
//!   long as the shifted dimension is not the shard dimension;
//! * aggregations are local exactly when the `group by` retains the shard
//!   dimension as-is ([`GroupKey::Dim`]): every group is then wholly
//!   contained in one shard. A `group by` that drops or coarsens it
//!   crosses the shard key — a **merge barrier**, executed once over the
//!   concatenated (ascending shard order) inputs, where the aggregation
//!   kernel's canonical full-key fold order keeps floats bit-identical
//!   to the unsharded run;
//! * series operators act per slice (one slice per combination of
//!   non-time dimension values) — local whenever the shard dimension is
//!   not a time dimension, because it is then one of the slicing keys.
//!
//! [`plan_shards`] scores every candidate dimension of the subgraph's
//! external inputs by how many statements it keeps local, preferring
//! non-time dimensions (they never collide with `shift`/series time
//! semantics), and segments the statement list into alternating
//! [`ShardSegment::Local`] and [`ShardSegment::Global`] runs. The
//! dispatcher executes local segments once per shard and global segments
//! once over concatenated data.

use std::collections::BTreeSet;

use exl_lang::ast::{Expr, GroupKey, Statement};
use exl_model::schema::{CubeId, CubeSchema};
use exl_model::value::DimType;

/// A contiguous run of subgraph statements with one execution mode.
/// Indices point into the statement slice given to [`plan_shards`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSegment {
    /// Shard-local statements: one instance per shard, outputs
    /// concatenate.
    Local(Vec<usize>),
    /// Merge barrier: runs once over globally concatenated data.
    Global(Vec<usize>),
}

/// How to partition one native subgraph across shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The shard dimension's name.
    pub dim: String,
    /// The shard dimension's type (as declared by the aligned inputs).
    pub dim_type: DimType,
    /// External input cubes that carry the shard dimension and get
    /// hash-partitioned. Inputs outside this set feed only global
    /// segments.
    pub aligned_inputs: Vec<CubeId>,
    /// Alternating local/global statement runs, covering every statement
    /// exactly once, in order.
    pub segments: Vec<ShardSegment>,
    /// Number of shard-local statements (the plan's score).
    pub local_statements: usize,
}

impl ShardPlan {
    /// Short human-readable summary for progress lines and flight events.
    pub fn describe(&self) -> String {
        let locals = self.local_statements;
        let globals: usize = self
            .segments
            .iter()
            .map(|s| match s {
                ShardSegment::Global(v) => v.len(),
                ShardSegment::Local(_) => 0,
            })
            .sum();
        format!("dim {} ({} local, {} barrier)", self.dim, locals, globals)
    }
}

/// Candidate shard dimensions: every dimension of every external input,
/// deduplicated by name. A name declared with conflicting types across
/// inputs is dropped — alignment would be ambiguous.
fn candidates(
    external: &[CubeId],
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
) -> Vec<(String, DimType)> {
    let mut seen: Vec<(String, DimType)> = Vec::new();
    let mut conflicted: BTreeSet<String> = BTreeSet::new();
    for id in external {
        let Some(schema) = schema_of(id) else {
            continue;
        };
        for d in &schema.dims {
            match seen.iter().find(|(n, _)| n == &d.name) {
                Some((_, ty)) if *ty != d.ty => {
                    conflicted.insert(d.name.clone());
                }
                Some(_) => {}
                None => seen.push((d.name.clone(), d.ty)),
            }
        }
    }
    seen.retain(|(n, _)| !conflicted.contains(n));
    seen
}

/// Is `expr` shard-local given the aligned cube set?
fn expr_local(expr: &Expr, aligned: &BTreeSet<CubeId>, dim: &str, dim_is_time: bool) -> bool {
    match expr {
        Expr::Number(_) => true,
        Expr::Cube(id) => aligned.contains(id),
        Expr::Unary { arg, .. } => expr_local(arg, aligned, dim, dim_is_time),
        Expr::Binary { lhs, rhs, .. } => {
            expr_local(lhs, aligned, dim, dim_is_time) && expr_local(rhs, aligned, dim, dim_is_time)
        }
        Expr::Shift {
            arg, dim: shifted, ..
        } => {
            expr_local(arg, aligned, dim, dim_is_time)
                && match shifted {
                    // an explicitly named shift dimension is local unless
                    // it is the shard dimension itself
                    Some(name) => name != dim,
                    // an implicit shift targets the operand's unique time
                    // dimension — local whenever the shard dimension is
                    // not a time dimension
                    None => !dim_is_time,
                }
        }
        Expr::Aggregate { arg, group_by, .. } => {
            expr_local(arg, aligned, dim, dim_is_time)
                && group_by
                    .iter()
                    .any(|k| matches!(k, GroupKey::Dim(n) if n == dim))
        }
        Expr::SeriesFn { arg, .. } => {
            // series slices group by every non-time dimension; a non-time
            // shard dimension is one of the slicing keys
            expr_local(arg, aligned, dim, dim_is_time) && !dim_is_time
        }
    }
}

/// Rank for tie-breaking between equally scoring candidates: prefer
/// textual dimensions (region-style keys never interact with time
/// semantics), then integer, then time.
fn type_rank(ty: DimType) -> u8 {
    match ty {
        DimType::Str => 0,
        DimType::Int => 1,
        DimType::Time(_) => 2,
    }
}

/// Choose a shard dimension for a native subgraph and segment its
/// statements. Returns `None` when no dimension keeps at least one
/// statement shard-local — the dispatcher then runs the subgraph
/// unsharded.
///
/// `schema_of` resolves the schema of external inputs (elementary cubes
/// or cubes derived by earlier subgraphs).
pub fn plan_shards(
    statements: &[Statement],
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
) -> Option<ShardPlan> {
    let targets: BTreeSet<CubeId> = statements.iter().map(|s| s.target.clone()).collect();
    let mut external: Vec<CubeId> = Vec::new();
    for stmt in statements {
        for id in stmt.expr.cube_refs() {
            if !targets.contains(&id) && !external.contains(&id) {
                external.push(id);
            }
        }
    }
    external.sort();

    // (score, type rank, dim, type, per-statement locality, aligned inputs)
    type Candidate = (usize, u8, String, DimType, Vec<bool>, Vec<CubeId>);
    let mut best: Option<Candidate> = None;
    for (dim, ty) in candidates(&external, schema_of) {
        let mut aligned: BTreeSet<CubeId> = external
            .iter()
            .filter(|id| {
                schema_of(id).is_some_and(|s| s.dims.iter().any(|d| d.name == dim && d.ty == ty))
            })
            .cloned()
            .collect();
        if aligned.is_empty() {
            continue;
        }
        let aligned_inputs: Vec<CubeId> = aligned.iter().cloned().collect();
        let dim_is_time = ty.is_time();
        let mut locality = Vec::with_capacity(statements.len());
        for stmt in statements {
            // a statement without cube references (a pure constant)
            // produces a cube without the shard dimension: it cannot be
            // partitioned, so it must run globally
            let local = !stmt.expr.cube_refs().is_empty()
                && expr_local(&stmt.expr, &aligned, &dim, dim_is_time);
            if local {
                aligned.insert(stmt.target.clone());
            }
            locality.push(local);
        }
        let score = locality.iter().filter(|&&l| l).count();
        if score == 0 {
            continue;
        }
        let better = match &best {
            None => true,
            Some((s, r, n, ..)) => {
                (
                    score,
                    std::cmp::Reverse(type_rank(ty)),
                    std::cmp::Reverse(dim.as_str()),
                ) > (*s, std::cmp::Reverse(*r), std::cmp::Reverse(n.as_str()))
            }
        };
        if better {
            best = Some((score, type_rank(ty), dim, ty, locality, aligned_inputs));
        }
    }

    let (score, _, dim, ty, locality, aligned_inputs) = best?;
    let mut segments: Vec<ShardSegment> = Vec::new();
    for (i, &local) in locality.iter().enumerate() {
        match segments.last_mut() {
            Some(ShardSegment::Local(v)) if local => v.push(i),
            Some(ShardSegment::Global(v)) if !local => v.push(i),
            _ if local => segments.push(ShardSegment::Local(vec![i])),
            _ => segments.push(ShardSegment::Global(vec![i])),
        }
    }
    Some(ShardPlan {
        dim,
        dim_type: ty,
        aligned_inputs,
        segments,
        local_statements: score,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_lang::analyze::analyze;
    use exl_lang::parser::parse_program;

    fn plan(src: &str) -> Option<ShardPlan> {
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let schemas = analyzed.schemas.clone();
        plan_shards(&analyzed.program.statements, &move |id| {
            schemas.get(id).cloned()
        })
    }

    #[test]
    fn tuple_level_panel_program_is_fully_local() {
        let p = plan(
            "cube P(q: time[quarter], r: text) -> y;\n\
             cube Q(q: time[quarter], r: text) -> y;\n\
             A := P + Q;\n\
             B := ln(A + 1);\n\
             C := shift(B, 1);\n",
        )
        .expect("panel program shards");
        assert_eq!(p.dim, "r");
        assert_eq!(p.dim_type, DimType::Str);
        assert_eq!(p.local_statements, 3);
        assert_eq!(p.segments, vec![ShardSegment::Local(vec![0, 1, 2])]);
        assert_eq!(p.aligned_inputs.len(), 2);
    }

    #[test]
    fn aggregation_dropping_the_shard_dim_is_a_barrier() {
        let p = plan(
            "cube P(q: time[quarter], r: text) -> y;\n\
             A := 2 * P;\n\
             B := movavg(A, 3);\n\
             C := sum(B, group by q);\n\
             D := C / 2;\n",
        )
        .expect("shards on r");
        assert_eq!(p.dim, "r");
        assert_eq!(p.local_statements, 2);
        assert_eq!(
            p.segments,
            vec![
                ShardSegment::Local(vec![0, 1]),
                ShardSegment::Global(vec![2, 3])
            ]
        );
    }

    #[test]
    fn group_by_retaining_a_time_dim_can_shard_on_time() {
        // with no text dimension in play, hash-sharding the quarter is
        // sound as long as every operator keeps quarters independent
        let p = plan(
            "cube P(q: time[quarter], r: text) -> y;\n\
             A := 2 * P;\n\
             B := sum(A, group by q);\n\
             C := B + 1;\n",
        )
        .expect("shards on q");
        assert_eq!(p.dim, "q");
        assert_eq!(p.local_statements, 3);
        assert_eq!(p.segments, vec![ShardSegment::Local(vec![0, 1, 2])]);
    }

    #[test]
    fn aggregation_retaining_the_shard_dim_stays_local() {
        let p = plan(
            "cube M(mo: time[month], r: text) -> y;\n\
             A := sum(M, group by quarter(mo) as q, r);\n\
             B := avg(A, group by r);\n",
        )
        .expect("shards on r");
        assert_eq!(p.dim, "r");
        assert_eq!(p.local_statements, 2);
        assert_eq!(p.segments, vec![ShardSegment::Local(vec![0, 1])]);
    }

    #[test]
    fn series_only_program_has_no_shard_dim() {
        // a single-dimension series cube: the only candidate is the time
        // dimension, and every operator crosses it
        assert!(plan(
            "cube S(q: time[quarter]) -> y;\n\
             A := cumsum(S);\n\
             B := shift(A, 1);\n"
        )
        .is_none());
    }

    #[test]
    fn series_over_panels_stays_local_on_the_text_dim() {
        let p = plan(
            "cube P(q: time[quarter], r: text) -> y;\n\
             A := movavg(P, 3);\n\
             B := sum(A, group by r);\n",
        )
        .expect("shards on r");
        assert_eq!(p.dim, "r");
        assert_eq!(p.local_statements, 2);
    }

    #[test]
    fn unaligned_series_input_forces_global() {
        let p = plan(
            "cube P(q: time[quarter], r: text) -> y;\n\
             cube S(q: time[quarter]) -> y;\n\
             A := 2 * P;\n\
             B := 3 * S;\n\
             C := shift(A, 1);\n",
        )
        .expect("shards on r");
        assert_eq!(p.dim, "r");
        assert_eq!(p.local_statements, 2);
        assert_eq!(
            p.segments,
            vec![
                ShardSegment::Local(vec![0]),
                ShardSegment::Global(vec![1]),
                ShardSegment::Local(vec![2])
            ]
        );
    }
}
