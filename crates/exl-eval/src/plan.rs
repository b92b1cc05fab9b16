//! Plan compilation: operator fusion and cross-statement CSE.
//!
//! Every native evaluation runs a compiled plan: a whole subgraph
//! ([`run_program`](crate::run_program)) or one statement over an
//! [`EvalSession`](crate::EvalSession). The statements are
//! *concretized* into a flat DAG of `CNode`s (the
//! `concretize_expression` → `ConcreteExpr` move): every subtree is
//! structurally hashed through the PR 5 [`Fingerprint`] machinery and
//! interned, so a subexpression appearing twice — in one statement or
//! across statements — becomes one shared node (cross-statement CSE).
//! Scalar-only subtrees constant-fold at plan time through the
//! operators' own `op.apply`, and a statement that does not denote a
//! cube is a typed error here, before any data is read.
//!
//! The DAG is then partitioned into **regions**, each producing one
//! materialized [`CubeBatch`]. Fusion legality: a node is forced to
//! materialize when it is
//!
//! * a **source** (elementary input) or an externally-visible **statement
//!   root** (anything exported, explained, or cache-stored),
//! * a **barrier** — aggregation, series operator, or outer-policy join
//!   (their kernels need the whole operand), or one of a barrier's
//!   operands,
//! * **multi-consumer** (used by more than one parent edge), or
//! * the probe side of an inner join when it is not a pure
//!   map/shift chain over a materialized base.
//!
//! Everything else — scalar maps, shifts, inner joins — fuses into a
//! single streaming pass over the region's base batch: no intermediate
//! materialization, no point-index build for fused-away cubes, rows
//! dropped inline the moment a step turns them non-finite (so no
//! `retain_finite` sweep is needed at region exit). The probe side of an
//! inner join may itself be a fused chain: the probe key is adjusted by
//! the chain's inverse shifts and the chain's scalar maps are applied to
//! the probed value, so `T - shift(T, 1)` probes `T`'s index — built
//! once, shared — instead of materializing a shifted copy.
//!
//! The **unfused** mode ([`run_program_unfused`](crate::run_program_unfused))
//! compiles with both rewrites off: no node is shared and every node
//! materializes, so every operator is its own region and a stream region
//! holds one step. It runs the same kernels, so fused ≡ unfused bit for
//! bit pins exactly the two rewrites.
//!
//! Interaction with the engine's run cache is statement-grained: the
//! cache resolves **statements** (PR 5 fingerprints are still computed
//! per statement), and a warm delta run that resolves part of a subgraph
//! replays the cached prefix untouched and evaluates each dirty statement
//! as a one-statement plan over one shared session — fusion across
//! statements applies only to fully-dirty subgraphs handed to
//! [`run_program`](crate::run_program) as one job. See
//! `docs/PERFORMANCE.md` ("Plan compilation") for the full legality
//! argument.

use exl_lang::analyze::AnalyzedProgram;
use exl_lang::ast::{BinOp, Expr, GroupKey, JoinPolicy, Statement, UnaryFn};
use exl_model::batch::CubeBatch;
use exl_model::fingerprint::{Fingerprint, FingerprintBuilder};
use exl_model::hash::FxHashMap;
use exl_model::intern::{DimPool, IDim};
use exl_model::schema::{CubeId, Dimension};
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;

use crate::error::EvalError;
use crate::eval::{key_parts, resolve_time_index, KeyPart};

/// Index of a node in the plan's flat DAG.
pub(crate) type NodeId = usize;

/// One concretized node of the plan DAG. Children are node ids; equal
/// subtrees intern to equal ids, so the tree-shaped AST becomes a DAG.
#[derive(Debug, Clone)]
pub(crate) enum CNode {
    /// An elementary input cube (or an alias chain bottoming out in one).
    Source(CubeId),
    /// A plan-time constant (scalar subtrees fold during concretization).
    Scalar(f64),
    /// Unary scalar map over a cube-valued operand.
    Unary { op: UnaryFn, arg: NodeId },
    /// `scalar ⊛ cube` — a measure map (join policy is irrelevant).
    ScalarL { op: BinOp, scalar: f64, arg: NodeId },
    /// `cube ⊛ scalar` — a measure map.
    ScalarR { op: BinOp, arg: NodeId, scalar: f64 },
    /// Inner-policy vectorial join.
    Inner { op: BinOp, lhs: NodeId, rhs: NodeId },
    /// Outer-policy vectorial join (a fusion barrier: the anti side needs
    /// the whole left key set).
    Outer {
        op: BinOp,
        default: f64,
        lhs: NodeId,
        rhs: NodeId,
    },
    /// Time shift; the axis index is resolved at plan time.
    Shift {
        arg: NodeId,
        idx: usize,
        offset: i64,
    },
    /// Group-by aggregation (a fusion barrier).
    Aggregate {
        agg: AggFn,
        arg: NodeId,
        group_by: Vec<GroupKey>,
    },
    /// Whole-series operator (a fusion barrier).
    Series { op: SeriesOp, arg: NodeId },
}

/// A fused measure transform applied per row inside a stream region.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MapOp {
    Unary(UnaryFn),
    ScalarL(BinOp, f64),
    ScalarR(BinOp, f64),
}

impl MapOp {
    #[inline]
    fn apply(self, v: f64) -> f64 {
        match self {
            MapOp::Unary(op) => op.apply(v),
            MapOp::ScalarL(op, s) => op.apply(s, v),
            MapOp::ScalarR(op, s) => op.apply(v, s),
        }
    }
}

/// One step of a stream region, in execution (bottom-up) order.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// Transform the measure; drop the row if the result is non-finite.
    Map(MapOp),
    /// Rewrite the key's shift axis in place.
    ShiftKey { idx: usize, offset: i64 },
    /// Inner-join probe against a materialized node. `adjust` holds the
    /// probe side's accumulated *forward* shift offsets (the probe key is
    /// moved backwards by them) and `maps` its fused measure chain; a
    /// probe miss or a non-finite chain value drops the row.
    Probe {
        input: NodeId,
        op: BinOp,
        adjust: Vec<(usize, i64)>,
        maps: Vec<MapOp>,
    },
}

/// A fused streaming pass: one loop over `base`'s rows applying `steps`,
/// pushing survivors into the region's output batch.
#[derive(Debug, Clone)]
pub(crate) struct StreamRegion {
    pub(crate) out: NodeId,
    pub(crate) base: NodeId,
    pub(crate) steps: Vec<Step>,
    /// Operator nodes folded into this region beyond its root — the
    /// intermediates that never materialize.
    pub(crate) fused: u64,
}

/// One unit of plan execution, producing the batch of its `out` node.
#[derive(Debug, Clone)]
pub(crate) enum Region {
    Stream(StreamRegion),
    Aggregate {
        out: NodeId,
        arg: NodeId,
        agg: AggFn,
        group_by: Vec<GroupKey>,
    },
    Series {
        out: NodeId,
        arg: NodeId,
        op: SeriesOp,
    },
    Combine {
        out: NodeId,
        op: BinOp,
        default: f64,
        lhs: NodeId,
        rhs: NodeId,
    },
}

impl Region {
    pub(crate) fn out(&self) -> NodeId {
        match self {
            Region::Stream(s) => s.out,
            Region::Aggregate { out, .. }
            | Region::Series { out, .. }
            | Region::Combine { out, .. } => *out,
        }
    }

    fn inputs(&self) -> Vec<NodeId> {
        match self {
            Region::Stream(s) => {
                let mut ins = vec![s.base];
                for step in &s.steps {
                    if let Step::Probe { input, .. } = step {
                        ins.push(*input);
                    }
                }
                ins
            }
            Region::Aggregate { arg, .. } | Region::Series { arg, .. } => vec![*arg],
            Region::Combine { lhs, rhs, .. } => vec![*lhs, *rhs],
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            Region::Stream(_) => "stream",
            Region::Aggregate { .. } => "aggregate",
            Region::Series { .. } => "series",
            Region::Combine { .. } => "outer-combine",
        }
    }

    fn fused_ops(&self) -> u64 {
        match self {
            Region::Stream(s) => s.fused,
            _ => 0,
        }
    }
}

/// Counters describing what plan compilation achieved for one program,
/// plus the run's two `CubeData` boundary crossings.
/// `bytes_not_materialized` is an estimate (fused interior ops × the
/// governance byte model of the region's base), filled in at execution
/// time when row counts are known, as are the boundary counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Execution regions formed (one per materialization point).
    pub regions: u64,
    /// Statements whose expression fused at least one interior operator.
    pub fused_statements: u64,
    /// Operator nodes that never materialize (executed inside a stream).
    pub fused_ops: u64,
    /// Structural-hash intern hits on operator nodes — subtrees shared
    /// within or across statements instead of being recomputed.
    pub cse_reuses: u64,
    /// Estimated bytes of intermediate batches that were never built.
    pub bytes_not_materialized: u64,
    /// Elementary input rows checked and interned into the session.
    pub intern_rows: u64,
    /// Wall time of that interning, in nanoseconds.
    pub intern_ns: u64,
    /// Statement output rows resolved back to `CubeData`.
    pub to_data_rows: u64,
    /// Wall time of that resolution, in nanoseconds.
    pub to_data_ns: u64,
}

/// The compiled execution plan of one analyzed program.
#[derive(Debug)]
pub(crate) struct CompiledPlan {
    pub(crate) nodes: Vec<CNode>,
    pub(crate) dims: Vec<Vec<Dimension>>,
    /// Regions in ascending out-node order (== dependency order).
    pub(crate) regions: Vec<Region>,
    /// `(target, root node)` per statement, in statement order.
    pub(crate) roots: Vec<(CubeId, NodeId)>,
    /// Node count after each statement's concretization — the region
    /// cursor boundary for that statement's turn.
    pub(crate) stmt_node_end: Vec<usize>,
    /// Last statement turn that reads each node (region inputs and
    /// statement-root resolution); drives store eviction.
    pub(crate) last_use_stmt: Vec<usize>,
    /// Plan-time stats (regions/fusion/CSE; bytes filled at execution).
    pub(crate) stats: PlanStats,
}

// ---- concretization ----

/// Dimensions of a source cube, or the error reading it reports.
pub(crate) type SourceDims<'a> = &'a dyn Fn(&CubeId) -> Result<Vec<Dimension>, EvalError>;

struct Builder<'a> {
    sources: SourceDims<'a>,
    /// Share structurally equal operator nodes (off in the unfused mode).
    cse: bool,
    nodes: Vec<CNode>,
    fps: Vec<Fingerprint>,
    dims: Vec<Vec<Dimension>>,
    intern: FxHashMap<Fingerprint, NodeId>,
    defs: FxHashMap<CubeId, NodeId>,
    consumers: Vec<u32>,
    cse_reuses: u64,
}

impl<'a> Builder<'a> {
    fn new(sources: SourceDims<'a>, cse: bool) -> Builder<'a> {
        Builder {
            sources,
            cse,
            nodes: Vec::new(),
            fps: Vec::new(),
            dims: Vec::new(),
            intern: FxHashMap::default(),
            defs: FxHashMap::default(),
            consumers: Vec::new(),
            cse_reuses: 0,
        }
    }

    /// Structural fingerprint of a node: a domain-separated chain over the
    /// variant, its operator, and its children's node ids (equal subtrees
    /// intern to equal ids inductively, so child ids are structural).
    /// Floats chain by bit pattern.
    fn fp_of(&self, node: &CNode) -> Fingerprint {
        let mut b = FingerprintBuilder::new("exl.plan.node.v1");
        match node {
            CNode::Source(id) => {
                b.push_str("source").push_str(id.as_str());
            }
            CNode::Scalar(v) => {
                b.push_str("scalar").push_u64(v.to_bits());
            }
            CNode::Unary { op, arg } => {
                b.push_str("unary")
                    .push_str(op.name())
                    .push_u64(*arg as u64);
            }
            CNode::ScalarL { op, scalar, arg } => {
                b.push_str("scalarl")
                    .push_str(op.symbol())
                    .push_u64(scalar.to_bits())
                    .push_u64(*arg as u64);
            }
            CNode::ScalarR { op, arg, scalar } => {
                b.push_str("scalarr")
                    .push_str(op.symbol())
                    .push_u64(*arg as u64)
                    .push_u64(scalar.to_bits());
            }
            CNode::Inner { op, lhs, rhs } => {
                b.push_str("inner")
                    .push_str(op.symbol())
                    .push_u64(*lhs as u64)
                    .push_u64(*rhs as u64);
            }
            CNode::Outer {
                op,
                default,
                lhs,
                rhs,
            } => {
                b.push_str("outer")
                    .push_str(op.symbol())
                    .push_u64(default.to_bits())
                    .push_u64(*lhs as u64)
                    .push_u64(*rhs as u64);
            }
            CNode::Shift { arg, idx, offset } => {
                b.push_str("shift")
                    .push_u64(*arg as u64)
                    .push_u64(*idx as u64)
                    .push_u64(*offset as u64);
            }
            CNode::Aggregate { agg, arg, group_by } => {
                b.push_str("aggregate")
                    .push_str(&format!("{agg:?}"))
                    .push_u64(*arg as u64);
                for g in group_by {
                    match g {
                        GroupKey::Dim(name) => {
                            b.push_str("dim").push_str(name);
                        }
                        GroupKey::TimeMap { target, dim, alias } => {
                            b.push_str("timemap")
                                .push_str(&format!("{target:?}"))
                                .push_str(dim)
                                .push_str(alias);
                        }
                    }
                }
            }
            CNode::Series { op, arg } => {
                b.push_str("series")
                    .push_str(&format!("{op:?}"))
                    .push_u64(*arg as u64);
            }
        }
        b.finish()
    }

    /// Intern a node: an existing structurally-equal node is reused (a
    /// CSE hit when it is an operator node, which only the CSE mode
    /// shares); a new node counts one consumer edge per child.
    fn add(&mut self, node: CNode, dims: Vec<Dimension>) -> NodeId {
        let fp = self.fp_of(&node);
        let operator = !matches!(node, CNode::Source(_) | CNode::Scalar(_));
        if let Some(&id) = self.intern.get(&fp).filter(|_| self.cse || !operator) {
            if operator {
                self.cse_reuses += 1;
            }
            return id;
        }
        let id = self.nodes.len();
        for child in children_of(&node) {
            self.consumers[child] += 1;
        }
        self.nodes.push(node);
        self.fps.push(fp);
        self.dims.push(dims);
        self.consumers.push(0);
        self.intern.insert(fp, id);
        id
    }

    fn scalar_of(&self, n: NodeId) -> Option<f64> {
        match self.nodes[n] {
            CNode::Scalar(v) => Some(v),
            _ => None,
        }
    }

    fn build_expr(&mut self, expr: &Expr) -> Result<NodeId, EvalError> {
        match expr {
            Expr::Number(n) => Ok(self.add(CNode::Scalar(*n), Vec::new())),
            Expr::Cube(id) => {
                if let Some(&n) = self.defs.get(id) {
                    return Ok(n);
                }
                let dims = (self.sources)(id)?;
                let n = self.add(CNode::Source(id.clone()), dims);
                self.defs.insert(id.clone(), n);
                Ok(n)
            }
            Expr::Unary { op, arg } => {
                let a = self.build_expr(arg)?;
                // plan-time constant folding through the operator's own
                // `apply` — bit-identical to folding at run time
                if let Some(v) = self.scalar_of(a) {
                    return Ok(self.add(CNode::Scalar(op.apply(v)), Vec::new()));
                }
                let dims = self.dims[a].clone();
                Ok(self.add(CNode::Unary { op: *op, arg: a }, dims))
            }
            Expr::Binary {
                op,
                policy,
                lhs,
                rhs,
            } => {
                let l = self.build_expr(lhs)?;
                let r = self.build_expr(rhs)?;
                match (self.scalar_of(l), self.scalar_of(r)) {
                    (Some(a), Some(b)) => Ok(self.add(CNode::Scalar(op.apply(a, b)), Vec::new())),
                    // a scalar side makes the join policy irrelevant: the
                    // measures map in place either way
                    (Some(a), None) => {
                        let dims = self.dims[r].clone();
                        Ok(self.add(
                            CNode::ScalarL {
                                op: *op,
                                scalar: a,
                                arg: r,
                            },
                            dims,
                        ))
                    }
                    (None, Some(b)) => {
                        let dims = self.dims[l].clone();
                        Ok(self.add(
                            CNode::ScalarR {
                                op: *op,
                                arg: l,
                                scalar: b,
                            },
                            dims,
                        ))
                    }
                    (None, None) => {
                        let dims = self.dims[l].clone();
                        let node = match policy {
                            JoinPolicy::Inner => CNode::Inner {
                                op: *op,
                                lhs: l,
                                rhs: r,
                            },
                            JoinPolicy::Outer { default } => CNode::Outer {
                                op: *op,
                                default: *default,
                                lhs: l,
                                rhs: r,
                            },
                        };
                        Ok(self.add(node, dims))
                    }
                }
            }
            Expr::Shift { arg, offset, dim } => {
                let a = self.build_expr(arg)?;
                if self.scalar_of(a).is_some() {
                    return Err(EvalError::InvalidStatement {
                        detail: "shift of a scalar operand".into(),
                    });
                }
                let idx = resolve_time_index(&self.dims[a], dim.as_deref())?;
                let dims = self.dims[a].clone();
                Ok(self.add(
                    CNode::Shift {
                        arg: a,
                        idx,
                        offset: *offset,
                    },
                    dims,
                ))
            }
            Expr::Aggregate { agg, arg, group_by } => {
                let a = self.build_expr(arg)?;
                if self.scalar_of(a).is_some() {
                    return Err(EvalError::InvalidStatement {
                        detail: "aggregation of a scalar operand".into(),
                    });
                }
                let parts = key_parts(&self.dims[a], group_by)?;
                let out_dims: Vec<Dimension> = group_by
                    .iter()
                    .zip(&parts)
                    .map(|(g, p)| match g {
                        GroupKey::TimeMap { target, alias, .. } => {
                            Dimension::new(alias.clone(), exl_model::DimType::Time(*target))
                        }
                        GroupKey::Dim(_) => {
                            let (KeyPart::Dim(i) | KeyPart::TimeMap { idx: i, .. }) = p;
                            self.dims[a][*i].clone()
                        }
                    })
                    .collect();
                Ok(self.add(
                    CNode::Aggregate {
                        agg: *agg,
                        arg: a,
                        group_by: group_by.clone(),
                    },
                    out_dims,
                ))
            }
            Expr::SeriesFn { op, arg } => {
                let a = self.build_expr(arg)?;
                if self.scalar_of(a).is_some() {
                    return Err(EvalError::InvalidStatement {
                        detail: "series operator on a scalar operand".into(),
                    });
                }
                let dims = self.dims[a].clone();
                Ok(self.add(CNode::Series { op: *op, arg: a }, dims))
            }
        }
    }
}

fn children_of(node: &CNode) -> Vec<NodeId> {
    match node {
        CNode::Source(_) | CNode::Scalar(_) => Vec::new(),
        CNode::Unary { arg, .. }
        | CNode::ScalarL { arg, .. }
        | CNode::ScalarR { arg, .. }
        | CNode::Shift { arg, .. }
        | CNode::Aggregate { arg, .. }
        | CNode::Series { arg, .. } => vec![*arg],
        CNode::Inner { lhs, rhs, .. } | CNode::Outer { lhs, rhs, .. } => vec![*lhs, *rhs],
    }
}

/// Compile statements into an execution plan. Needs no data: shift axes
/// and group keys resolve against the dimensions `sources` gives for
/// each cube the statements read but do not define. A statement that
/// does not denote a cube (a constant, or a shift, aggregation or series
/// operator over one) is an [`EvalError::InvalidStatement`].
///
/// With `fuse` off (the unfused mode behind
/// [`run_program_unfused`](crate::run_program_unfused)) neither rewrite
/// applies: no operator node is shared, each is its own region, and a
/// stream region holds exactly one step.
pub(crate) fn compile(
    statements: &[Statement],
    sources: SourceDims<'_>,
    fuse: bool,
) -> Result<CompiledPlan, EvalError> {
    let mut b = Builder::new(sources, fuse);
    let mut roots: Vec<(CubeId, NodeId)> = Vec::with_capacity(statements.len());
    let mut stmt_node_end: Vec<usize> = Vec::with_capacity(statements.len());
    for stmt in statements {
        let root = b.build_expr(&stmt.expr)?;
        if b.scalar_of(root).is_some() {
            return Err(EvalError::InvalidStatement {
                detail: format!("statement {} evaluates to a constant", stmt.target),
            });
        }
        b.defs.insert(stmt.target.clone(), root);
        roots.push((stmt.target.clone(), root));
        stmt_node_end.push(b.nodes.len());
    }

    let Builder {
        nodes,
        dims,
        consumers,
        cse_reuses,
        ..
    } = b;

    // ---- fusion-legality marking: which nodes materialize ----
    let mut mat: Vec<bool> = (0..nodes.len())
        .map(|n| match &nodes[n] {
            CNode::Source(_) | CNode::Scalar(_) => true,
            CNode::Aggregate { .. } | CNode::Series { .. } | CNode::Outer { .. } => true,
            _ => !fuse || consumers[n] >= 2,
        })
        .collect();
    // externally-visible statement roots always materialize
    for (_, root) in &roots {
        mat[*root] = true;
    }
    // barrier operands: their kernels take whole batches
    for node in &nodes {
        match node {
            CNode::Aggregate { arg, .. } | CNode::Series { arg, .. } => mat[*arg] = true,
            CNode::Outer { lhs, rhs, .. } => {
                mat[*lhs] = true;
                mat[*rhs] = true;
            }
            _ => {}
        }
    }
    // the probe side of an inner join fuses only as a pure map/shift
    // chain over a materialized base; a nested join in probe position
    // becomes its own region (ascending order: its probe side was
    // already settled)
    for n in 0..nodes.len() {
        if let CNode::Inner { rhs, .. } = nodes[n] {
            let mut cur = rhs;
            while !mat[cur] {
                match &nodes[cur] {
                    CNode::Unary { arg, .. }
                    | CNode::ScalarL { arg, .. }
                    | CNode::ScalarR { arg, .. }
                    | CNode::Shift { arg, .. } => cur = *arg,
                    _ => {
                        mat[cur] = true;
                        break;
                    }
                }
            }
        }
    }

    // ---- region formation (ascending node order == dependency order) ----
    let mut regions: Vec<Region> = Vec::new();
    for n in 0..nodes.len() {
        if !mat[n] {
            continue;
        }
        match &nodes[n] {
            CNode::Source(_) | CNode::Scalar(_) => {}
            CNode::Aggregate { agg, arg, group_by } => regions.push(Region::Aggregate {
                out: n,
                arg: *arg,
                agg: *agg,
                group_by: group_by.clone(),
            }),
            CNode::Series { op, arg } => regions.push(Region::Series {
                out: n,
                arg: *arg,
                op: *op,
            }),
            CNode::Outer {
                op,
                default,
                lhs,
                rhs,
            } => regions.push(Region::Combine {
                out: n,
                op: *op,
                default: *default,
                lhs: *lhs,
                rhs: *rhs,
            }),
            _ => regions.push(Region::Stream(stream_region(&nodes, &mat, n))),
        }
    }

    // ---- stats and eviction schedule ----
    let fused_ops: u64 = (0..nodes.len())
        .filter(|&n| !mat[n] && !matches!(nodes[n], CNode::Source(_) | CNode::Scalar(_)))
        .count() as u64;
    // assign each region to the statement turn whose concretization
    // introduced its out node
    let turn_of = |out: NodeId| stmt_node_end.partition_point(|&end| end <= out);
    let mut last_use_stmt: Vec<usize> = vec![0; nodes.len()];
    for region in &regions {
        let turn = turn_of(region.out());
        for input in region.inputs() {
            last_use_stmt[input] = last_use_stmt[input].max(turn);
        }
    }
    let mut fused_root_turns: Vec<bool> = vec![false; roots.len()];
    for region in &regions {
        if region.fused_ops() > 0 {
            fused_root_turns[turn_of(region.out())] = true;
        }
    }
    for (i, (_, root)) in roots.iter().enumerate() {
        last_use_stmt[*root] = last_use_stmt[*root].max(i);
    }
    let stats = PlanStats {
        regions: regions.len() as u64,
        fused_statements: fused_root_turns.iter().filter(|&&f| f).count() as u64,
        fused_ops,
        cse_reuses,
        ..PlanStats::default()
    };

    Ok(CompiledPlan {
        nodes,
        dims,
        regions,
        roots,
        stmt_node_end,
        last_use_stmt,
        stats,
    })
}

/// Build the fused stream region rooted at `out`: descend the spine
/// (always the left operand of a join — output keys are the left side's)
/// until a materialized base, collecting steps top-down, then reverse
/// into execution order.
fn stream_region(nodes: &[CNode], mat: &[bool], out: NodeId) -> StreamRegion {
    let mut steps_rev: Vec<Step> = Vec::new();
    let mut folded: u64 = 0; // nodes executed by this region (root included)
    let mut cur = out;
    loop {
        let next = match &nodes[cur] {
            CNode::Unary { op, arg } => {
                steps_rev.push(Step::Map(MapOp::Unary(*op)));
                *arg
            }
            CNode::ScalarL { op, scalar, arg } => {
                steps_rev.push(Step::Map(MapOp::ScalarL(*op, *scalar)));
                *arg
            }
            CNode::ScalarR { op, arg, scalar } => {
                steps_rev.push(Step::Map(MapOp::ScalarR(*op, *scalar)));
                *arg
            }
            CNode::Shift { arg, idx, offset } => {
                steps_rev.push(Step::ShiftKey {
                    idx: *idx,
                    offset: *offset,
                });
                *arg
            }
            CNode::Inner { op, lhs, rhs } => {
                let (step, chain_nodes) = probe_step(nodes, mat, *rhs, *op);
                folded += chain_nodes;
                steps_rev.push(step);
                *lhs
            }
            // sources and barriers always materialize: the spine ends
            // before it reaches one
            _ => break,
        };
        folded += 1;
        cur = next;
        if mat[cur] {
            break;
        }
    }
    steps_rev.reverse();
    StreamRegion {
        out,
        base: cur,
        steps: steps_rev,
        fused: folded.saturating_sub(1),
    }
}

/// Fold an inner join's probe side into one [`Step::Probe`]: walk the
/// unmaterialized map/shift chain down to its base, accumulating shift
/// offsets per axis and measure maps bottom-up (shifts touch only keys
/// and maps only measures, so they commute in this form). Returns the
/// step and the number of chain nodes folded away.
fn probe_step(nodes: &[CNode], mat: &[bool], rhs: NodeId, op: BinOp) -> (Step, u64) {
    let mut maps_rev: Vec<MapOp> = Vec::new();
    let mut adjust: Vec<(usize, i64)> = Vec::new();
    let mut folded = 0u64;
    let mut cur = rhs;
    while !mat[cur] {
        cur = match &nodes[cur] {
            CNode::Unary { op, arg } => {
                maps_rev.push(MapOp::Unary(*op));
                *arg
            }
            CNode::ScalarL { op, scalar, arg } => {
                maps_rev.push(MapOp::ScalarL(*op, *scalar));
                *arg
            }
            CNode::ScalarR { op, arg, scalar } => {
                maps_rev.push(MapOp::ScalarR(*op, *scalar));
                *arg
            }
            CNode::Shift { arg, idx, offset } => {
                match adjust.iter_mut().find(|(i, _)| i == idx) {
                    Some((_, total)) => *total += offset,
                    None => adjust.push((*idx, *offset)),
                }
                *arg
            }
            // legality marking materialized every other probe-side node
            _ => break,
        };
        folded += 1;
    }
    maps_rev.reverse();
    (
        Step::Probe {
            input: cur,
            op,
            adjust,
            maps: maps_rev,
        },
        folded,
    )
}

// ---- execution ----

/// Rewrite one key component by a shift offset (`Int` dimensions shift
/// too, §3: "a sum on the values of a numeric dimension"); any other
/// value is a typed error.
#[inline]
fn shift_idim(d: IDim, offset: i64, pool: &DimPool) -> Result<IDim, EvalError> {
    match d {
        IDim::Time(t) => Ok(IDim::Time(t.shift(offset))),
        IDim::Int(i) => Ok(IDim::Int(i + offset)),
        other => Err(EvalError::BadTimeValue {
            cube: "<shift operand>".into(),
            detail: format!("value {} cannot be shifted", pool.resolve_value(other)),
        }),
    }
}

/// Run one fused stream region over base rows `rows`, writing the
/// surviving rows to the front of `out_keys` (the base's arity values
/// each) and `out_measures`, which have room for every row; returns how
/// many survived. Rows are dropped the moment any step turns the measure
/// non-finite or a probe misses — exactly the rows per-operator
/// `retain_finite` sweeps would have removed. `probes` maps
/// each probe step's input node to its batch.
fn stream_rows(
    region: &StreamRegion,
    base: &CubeBatch,
    probes: &[(NodeId, &CubeBatch)],
    pool: &DimPool,
    rows: std::ops::Range<usize>,
    out_keys: &mut [IDim],
    out_measures: &mut [f64],
) -> Result<usize, EvalError> {
    let keys = base.keys();
    let measures = base.measures();
    // resolve each probe step's batch once, outside the row loop
    let resolved: Vec<Option<&CubeBatch>> = region
        .steps
        .iter()
        .map(|s| match s {
            Step::Probe { input, .. } => Some(
                probes
                    .iter()
                    .find(|(n, _)| n == input)
                    .expect("probe inputs resolved before execution")
                    .1,
            ),
            _ => None,
        })
        .collect();
    let mut scratch: Vec<IDim> = Vec::new();
    let mut probe_scratch: Vec<IDim> = Vec::new();
    // Sequential probe cursors, one per step: region outputs keep their
    // base's row order, so when the probe input shares that order (the
    // overwhelmingly common chain shape) the row after the previous hit
    // is the next hit. A cursor hit is one slice compare — no hashing,
    // and the point index is never built unless a cursor actually
    // misses.
    let mut hints: Vec<usize> = vec![rows.start; region.steps.len()];
    let arity = base.arity();
    let mut written = 0;
    'rows: for ri in rows {
        let base_key: &[IDim] = keys.get(ri);
        let mut v = measures[ri];
        let mut shifted = false;
        for (si, step) in region.steps.iter().enumerate() {
            match step {
                Step::Map(m) => {
                    v = m.apply(v);
                    if !v.is_finite() {
                        continue 'rows;
                    }
                }
                Step::ShiftKey { idx, offset } => {
                    if !shifted {
                        scratch.clear();
                        scratch.extend_from_slice(base_key);
                        shifted = true;
                    }
                    scratch[*idx] = shift_idim(scratch[*idx], *offset, pool)?;
                }
                Step::Probe {
                    input,
                    op,
                    adjust,
                    maps,
                } => {
                    let probed: &CubeBatch = resolved[si].expect("probe step resolved");
                    // self-probe at the unadjusted key: the value is this
                    // very base row — no compare, no index
                    if *input == region.base && adjust.is_empty() && !shifted {
                        let mut bv = measures[ri];
                        for m in maps {
                            bv = m.apply(bv);
                            if !bv.is_finite() {
                                continue 'rows;
                            }
                        }
                        v = op.apply(v, bv);
                        if !v.is_finite() {
                            continue 'rows;
                        }
                        continue;
                    }
                    let cur: &[IDim] = if shifted { &scratch } else { base_key };
                    let pk: &[IDim] = if adjust.is_empty() {
                        cur
                    } else {
                        probe_scratch.clear();
                        probe_scratch.extend_from_slice(cur);
                        for (i, off) in adjust {
                            // the probe side was shifted *forward* by
                            // `off`, so its value at our key sits at the
                            // base key moved backwards
                            probe_scratch[*i] = shift_idim(probe_scratch[*i], -off, pool)?;
                        }
                        &probe_scratch
                    };
                    let hint = &mut hints[si];
                    let pkeys = probed.keys();
                    let found = if *hint < pkeys.len() && pkeys.get(*hint) == pk {
                        Some(*hint as u32)
                    } else {
                        probed.row_of(pk)
                    };
                    let Some(row) = found else {
                        continue 'rows;
                    };
                    *hint = row as usize + 1;
                    let mut bv = probed.measures()[row as usize];
                    for m in maps {
                        bv = m.apply(bv);
                        if !bv.is_finite() {
                            continue 'rows;
                        }
                    }
                    v = op.apply(v, bv);
                    if !v.is_finite() {
                        continue 'rows;
                    }
                }
            }
        }
        out_keys[written * arity..(written + 1) * arity].copy_from_slice(if shifted {
            &scratch
        } else {
            base_key
        });
        out_measures[written] = v;
        written += 1;
    }
    Ok(written)
}

/// Execute a stream region: serial for small bases, contiguous row
/// chunks across workers for large ones. The output columns are
/// allocated once, on the calling thread, at the base's size; each chunk
/// writes its survivors to the front of its own slice, and the slices are
/// then closed up in chunk order — so row order, and therefore every
/// downstream float, is identical for any worker count.
pub(crate) fn run_stream(
    region: &StreamRegion,
    base: &CubeBatch,
    probes: &[(NodeId, &CubeBatch)],
    pool: &DimPool,
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    let n = base.len();
    let arity = base.arity();
    // no up-front index build: sequential probe cursors keep ordered
    // probes index-free, and a cursor miss builds the point index once
    // behind a `OnceLock` (concurrent first misses serialize on it)
    let ranges = crate::eval::par_ranges(n, threads);
    let mut keys = vec![IDim::Int(0); n * arity];
    let mut measures = vec![0.0; n];
    let key_pieces = crate::eval::split_rows(&mut keys, &ranges, arity);
    let val_pieces = crate::eval::split_rows(&mut measures, &ranges, 1);
    let chunks: Vec<_> = ranges
        .into_iter()
        .zip(key_pieces.into_iter().zip(val_pieces))
        .map(|(rows, (kc, mc))| (rows, kc, mc))
        .collect();
    let survivors = crate::eval::fan_out(chunks, &|(rows, kc, mc)| {
        let start = rows.start;
        stream_rows(region, base, probes, pool, rows, kc, mc).map(|written| (start, written))
    })?;
    let mut len = 0;
    for (start, written) in survivors {
        if start != len {
            keys.copy_within(start * arity..(start + written) * arity, len * arity);
            measures.copy_within(start..start + written, len);
        }
        len += written;
    }
    keys.truncate(len * arity);
    measures.truncate(len);
    Ok(CubeBatch::from_columns(arity, keys, measures))
}

// ---- introspection ----

/// One region of a compiled plan, as reported by `exlc plan` and the
/// lineage annotations of `exlc explain`.
#[derive(Debug, Clone)]
pub struct RegionDesc {
    /// Region id (position in execution order).
    pub id: usize,
    /// Statement target this region materializes, when it is a root.
    pub target: Option<String>,
    /// Region kind: `stream`, `aggregate`, `series`, or `outer-combine`.
    pub kind: String,
    /// Operator nodes fused into this region beyond its root.
    pub fused_ops: u64,
    /// Materialized inputs the region reads (cube ids for sources,
    /// `#node` for interior materialization points).
    pub inputs: Vec<String>,
    /// Statement turn (0-based) the region executes in.
    pub statement: usize,
}

/// Human-readable description of one program's compiled plan.
#[derive(Debug, Clone, Default)]
pub struct PlanDescription {
    /// Regions in execution order.
    pub regions: Vec<RegionDesc>,
    /// Structural CSE reuses across the program.
    pub cse_reuses: u64,
    /// Operator nodes fused away (never materialized).
    pub fused_ops: u64,
    /// Interior materialization points that are not statement targets
    /// (CSE shares and barrier operands), as `#node` labels.
    pub interior_materializations: Vec<String>,
}

impl PlanDescription {
    /// The region materializing `target`, if any.
    pub fn region_for(&self, target: &str) -> Option<&RegionDesc> {
        self.regions
            .iter()
            .find(|r| r.target.as_deref() == Some(target))
    }

    /// Render as the indented text block `exlc plan` prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "regions: {}  fused ops: {}  cse reuses: {}",
            self.regions.len(),
            self.fused_ops,
            self.cse_reuses
        );
        for r in &self.regions {
            let target = r.target.as_deref().unwrap_or("(interior)");
            let _ = writeln!(
                s,
                "  region {} [{}] -> {}  fused={}  inputs: {}",
                r.id,
                r.kind,
                target,
                r.fused_ops,
                r.inputs.join(", ")
            );
        }
        if !self.interior_materializations.is_empty() {
            let _ = writeln!(
                s,
                "  materialization points beyond statement targets: {}",
                self.interior_materializations.join(", ")
            );
        }
        s
    }
}

impl CompiledPlan {
    /// Describe the plan for introspection (no data needed).
    pub(crate) fn describe(&self) -> PlanDescription {
        let label = |n: NodeId| match &self.nodes[n] {
            CNode::Source(id) => id.to_string(),
            _ => match self.roots.iter().find(|(_, root)| *root == n) {
                Some((target, _)) => target.to_string(),
                None => format!("#{n}"),
            },
        };
        let turn_of = |out: NodeId| self.stmt_node_end.partition_point(|&end| end <= out);
        let regions: Vec<RegionDesc> = self
            .regions
            .iter()
            .enumerate()
            .map(|(i, region)| {
                let out = region.out();
                RegionDesc {
                    id: i,
                    target: self
                        .roots
                        .iter()
                        .find(|(_, root)| *root == out)
                        .map(|(t, _)| t.to_string()),
                    kind: region.kind_name().to_string(),
                    fused_ops: region.fused_ops(),
                    inputs: region.inputs().into_iter().map(label).collect(),
                    statement: turn_of(out),
                }
            })
            .collect();
        let interior: Vec<String> = self
            .regions
            .iter()
            .map(|r| r.out())
            .filter(|out| !self.roots.iter().any(|(_, root)| root == out))
            .map(|out| format!("#{out}"))
            .collect();
        PlanDescription {
            regions,
            cse_reuses: self.stats.cse_reuses,
            fused_ops: self.stats.fused_ops,
            interior_materializations: interior,
        }
    }
}

/// Compile `analyzed` and describe the resulting plan — the data-free
/// introspection entry point behind `exlc plan` and `--dump-plan`.
pub fn plan_description(analyzed: &AnalyzedProgram) -> Result<PlanDescription, EvalError> {
    let plan = compile_program(analyzed, true)?;
    Ok(plan.describe())
}

/// Compile a whole analyzed program, its sources read from the analyzed
/// schemas.
pub(crate) fn compile_program(
    analyzed: &AnalyzedProgram,
    fuse: bool,
) -> Result<CompiledPlan, EvalError> {
    let sources = |id: &CubeId| {
        analyzed
            .schemas
            .get(id)
            .map(|s| s.dims.clone())
            .ok_or_else(|| EvalError::MissingInput {
                cube: id.to_string(),
            })
    };
    compile(&analyzed.program.statements, &sources, fuse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::PAR_MIN_ROWS;
    use exl_lang::{analyze, parse_program};

    #[test]
    fn unfused_plan_has_one_region_per_operator_node() {
        // `B` is a shift/probe/map chain; `C` repeats `ln(A)`
        let analyzed = analyze(
            &parse_program("cube A(q: quarter); B := 2 * (A - shift(A, 1)); C := ln(A) * ln(A);")
                .unwrap(),
            &[],
        )
        .unwrap();
        let unfused = compile_program(&analyzed, false).unwrap();
        let operators = unfused
            .nodes
            .iter()
            .filter(|n| !matches!(n, CNode::Source(_) | CNode::Scalar(_)))
            .count();
        assert_eq!(operators, 6);
        assert_eq!(unfused.regions.len(), operators);
        for region in &unfused.regions {
            if let Region::Stream(s) = region {
                assert_eq!((s.steps.len(), s.fused), (1, 0), "{s:?}");
            }
        }
        let stats = unfused.stats;
        assert_eq!((stats.fused_ops, stats.cse_reuses), (0, 0), "{stats:?}");

        // fused: `B` is one stream region with the shift and the probe
        // folded in, and `C` reads one shared `ln(A)` region
        let fused = compile_program(&analyzed, true).unwrap();
        assert!(fused.regions.len() < unfused.regions.len());
        assert_eq!(fused.regions.len(), 3);
        let stats = fused.stats;
        assert_eq!((stats.fused_ops, stats.cse_reuses), (2, 1), "{stats:?}");
    }

    #[test]
    fn run_stream_is_bit_identical_for_any_worker_count() {
        let n = PAR_MIN_ROWS + 100;
        let mut pool = DimPool::new();
        let mut base = CubeBatch::new();
        let mut probe = CubeBatch::new();
        for i in 0..n as i64 {
            let key = [
                IDim::Int(i),
                IDim::Sym(pool.intern(&format!("g{}", i / 700))),
            ];
            base.push(&key, (i as f64).sin() * 1e6 + 0.1);
            // every third key misses on the probe side (and so does a
            // shifted key crossing into the next group)
            if i % 3 != 0 {
                probe.push(&key, (i as f64).cos() + 2.0);
            }
        }
        let region = StreamRegion {
            out: 2,
            base: 0,
            steps: vec![
                Step::Map(MapOp::ScalarR(BinOp::Div, 3.0)),
                Step::ShiftKey { idx: 0, offset: 1 },
                Step::Probe {
                    input: 1,
                    op: BinOp::Mul,
                    adjust: Vec::new(),
                    maps: vec![MapOp::Unary(UnaryFn::Ln)],
                },
            ],
            fused: 2,
        };
        let rows = |threads: usize| -> Vec<(Vec<IDim>, u64)> {
            let out = run_stream(&region, &base, &[(1, &probe)], &pool, threads).unwrap();
            out.iter().map(|(k, v)| (k.to_vec(), v.to_bits())).collect()
        };
        let serial = rows(1);
        assert!(
            !serial.is_empty() && serial.len() < n,
            "hits and misses: {} of {n}",
            serial.len()
        );
        for threads in [3, 4] {
            assert_eq!(rows(threads), serial, "x{threads}");
        }
    }
}
