//! Expression and program evaluation.
//!
//! There is one evaluator. Every entry compiles what it evaluates into a
//! region plan ([`crate::plan`]) and runs it through one
//! region-execution loop (`run_plan`): a whole program
//! ([`run_program_with_threads`], and [`run_program_unfused`], the same
//! plan with fusion and CSE off) or one statement over a session
//! ([`EvalSession::eval`], [`eval_statement`], which the run cache and
//! the delta kernels use). The worker count is an argument of the loop:
//! every entry takes the caller's (`None` probes the machine), so an
//! engine pinned to one evaluator thread fans nothing out, its run
//! cache's inline and delta evaluations included.
//!
//! The evaluator executes on columnar batches ([`CubeBatch`]): each run
//! owns an [`EvalSession`] with a run-local [`DimPool`], every operand
//! cube is interned into a batch once, and derived batches cross
//! statement boundaries as-is — downstream statements probe and group on
//! flat `Copy` keys without re-hashing strings or materializing
//! intermediate hash maps of [`DimTuple`]s. Hash-stored [`CubeData`] is
//! produced only at the session boundary ([`EvalSession::resolve`]).
//!
//! Operands enter a session through one interning pass (`intern_batch`)
//! that checks every tuple's arity (or, for a program's elementary
//! inputs, its whole schema) and writes the keys into the batch's flat
//! key column. Large operands intern in contiguous row chunks on several
//! workers; the chunk pools merge in chunk order, so every symbol code
//! equals a one-worker pass.
//!
//! Aggregation is one partition-then-fold kernel for every worker count
//! (`aggregate_batch`), in four phases over contiguous row chunks.
//! Workers first take every column's kind and code range. A pure rule on
//! those ranges and the row count then picks how groups are numbered:
//! when the group key's code ranges multiply to a small domain, each
//! row's group is a mixed-radix index into dense arrays (a time map
//! reads a table holding one conversion per input code); otherwise
//! (mixed kinds, a large domain, a key that cannot be resolved) workers
//! resolve and hash each row's key. One serial pass numbers the
//! groups in first-seen order either way. The chunks then scatter, in
//! parallel, each row's measure with its sort code (the sort columns
//! packed into one `u64` when they fit, else copied rank-coded into a
//! side column) into the chunk's pieces of its group. Workers then fold
//! ranges of groups in parallel, each group's rows sorted by full input
//! key (a sort skipped when the rows are in order already) and folded
//! with `AggFn::apply`, the [`ExactState`] bag contract and the former
//! sorted-map evaluator's fold order, so every float is bit-identical
//! for any worker count and either path (pinned against a
//! `DimTuple`-sorted reference by the interned differential suite).
//!
//! Interning, stream regions, outer joins, group-by partitions, and
//! series slices fan out across [`std::thread::scope`] workers when the
//! run has more than one worker and the operand is large enough
//! (`PAR_MIN_ROWS`). A worker
//! that panics (or trips the `eval.worker` fault site) surfaces as
//! [`EvalError::WorkerPanicked`] — a typed, per-statement error the
//! supervisor can contain — never as a re-panic in the caller.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use exl_lang::analyze::AnalyzedProgram;
use exl_lang::ast::{GroupKey, Statement};
use exl_model::batch::{intern_rows, remap_syms, CubeBatch, KeyColumn, RowCheck};
use exl_model::hash::{FxHashMap, FxHasher};
use exl_model::intern::{DimPool, IDim, RankedDim, Sym};
use exl_model::schema::{CubeId, Dimension};
use exl_model::time::{Frequency, TimePoint};
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, DimTuple, ModelError};
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;
use exl_stats::state::ExactState;

use crate::error::EvalError;
use crate::plan::{self, CNode, CompiledPlan, NodeId, PlanStats, Region, Step};

/// Minimum operand rows before an operator fans out across threads.
pub(crate) const PAR_MIN_ROWS: usize = 4096;

/// The machine's worker count for data-parallel operators (1 on
/// single-core machines, capped so oversubscription never pays for thread
/// spawns it cannot use). The probe reads cgroup files on Linux, so it
/// runs once per process. Canonical fold order makes the count invisible
/// in the results: every float is bit-identical for any worker count.
pub(crate) fn workers() -> usize {
    static PROBE: OnceLock<usize> = OnceLock::new();
    *PROBE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// Seasonal period implied by a time frequency, shared by every backend so
/// that `stl_*` means the same thing everywhere.
pub fn series_period(freq: Frequency) -> usize {
    exl_model::TimePoint::periods_per_year(freq)
}

/// One evaluation run's working set: a run-local interning pool plus the
/// columnar batch of every cube loaded or derived so far.
///
/// The run cache keeps one session per subgraph it resolves and feeds
/// each statement's result to the next without leaving the interned
/// representation; [`run_program`] does the same internally. Loading is
/// idempotent per id (a reload replaces the batch), and
/// [`EvalSession::resolve`] converts a batch back to hash storage at the
/// boundary.
#[derive(Debug, Default)]
pub struct EvalSession {
    pub(crate) pool: DimPool,
    pub(crate) cubes: FxHashMap<CubeId, SessionCube>,
    /// Cubes whose load failed, with the error every statement reading
    /// them reports.
    failed: FxHashMap<CubeId, EvalError>,
    /// Workers for interning and the data-parallel operators; `None`
    /// probes the machine.
    threads: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct SessionCube {
    pub(crate) dims: Vec<Dimension>,
    pub(crate) batch: CubeBatch,
}

impl EvalSession {
    /// Fresh session with an empty pool.
    pub fn new() -> EvalSession {
        EvalSession::default()
    }

    /// Fresh session whose loads and evaluations run on `threads`
    /// workers (`None` probes the machine, as [`EvalSession::new`]).
    pub fn with_threads(threads: Option<usize>) -> EvalSession {
        EvalSession {
            threads,
            ..EvalSession::default()
        }
    }

    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(workers).max(1)
    }

    /// Intern a cube's data into the session, replacing any batch already
    /// stored under `id`. Every tuple must have one value per dimension
    /// in `dims`; a cube that breaks this is recorded as failed, and
    /// [`EvalSession::eval`] of any statement reading it returns the
    /// typed error.
    pub fn load(&mut self, id: CubeId, dims: Vec<Dimension>, data: &CubeData) {
        if let Err(e) = self.try_load(id.clone(), dims, data) {
            self.failed.insert(id, e);
        }
    }

    /// [`EvalSession::load`] that returns the interning error instead of
    /// recording it.
    fn try_load(
        &mut self,
        id: CubeId,
        dims: Vec<Dimension>,
        data: &CubeData,
    ) -> Result<(), EvalError> {
        self.cubes.remove(&id);
        self.failed.remove(&id);
        let check = RowCheck::Arity(dims.len());
        let threads = self.threads();
        let batch = intern_batch(data, check, &mut self.pool, threads)?;
        self.cubes.insert(id, SessionCube { dims, batch });
        Ok(())
    }

    /// True when `id` has been loaded (or derived) in this session,
    /// whether or not its load succeeded.
    pub fn is_loaded(&self, id: &CubeId) -> bool {
        self.cubes.contains_key(id) || self.failed.contains_key(id)
    }

    /// Evaluate one statement over the loaded batches and store the
    /// result batch under the statement's target. Every cube the
    /// expression references must have been loaded (or derived) first.
    /// The statement compiles into a one-statement plan and runs on the
    /// session's worker count; nothing loaded is evicted, so a caller can
    /// evaluate statement after statement over one session.
    pub fn eval(&mut self, stmt: &Statement) -> Result<(), EvalError> {
        let sources = |id: &CubeId| match self.cubes.get(id) {
            Some(c) => Ok(c.dims.clone()),
            None => Err(self
                .failed
                .get(id)
                .cloned()
                .unwrap_or_else(|| EvalError::MissingInput {
                    cube: id.to_string(),
                })),
        };
        let plan = plan::compile(std::slice::from_ref(stmt), &sources, true)?;
        let mut stats = PlanStats::default();
        let threads = self.threads();
        run_plan(&plan, self, threads, &mut stats, Roots::Keep)
    }

    /// Resolve a loaded or derived cube back to hash-stored data.
    pub fn resolve(&self, id: &CubeId) -> Option<CubeData> {
        self.cubes.get(id).map(|c| c.batch.to_data(&self.pool))
    }
}

/// Run an analyzed program over an input dataset.
///
/// Returns a dataset containing the input cubes plus every derived cube
/// (including normalization temporaries, when the program was normalized).
/// Fails when an elementary input is missing or base data is malformed.
///
/// The program is compiled into a fused region plan ([`crate::plan`])
/// before execution; [`run_program_unfused`] runs the same program with
/// fusion and CSE off, and must agree bit for bit.
pub fn run_program(analyzed: &AnalyzedProgram, input: &Dataset) -> Result<Dataset, EvalError> {
    run_program_with_stats(analyzed, input).map(|(env, _)| env)
}

/// [`run_program`] variant that also reports the compiled plan's
/// statistics (regions formed, statements fused, CSE reuses, bytes not
/// materialized) so dispatchers can surface them as metrics.
pub fn run_program_with_stats(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
) -> Result<(Dataset, PlanStats), EvalError> {
    run_program_with_threads(analyzed, input, None)
}

/// Check and intern every elementary input into `session` in one pass per
/// cube ([`intern_batch`] against the analyzed schema), and put it under
/// its analyzed schema into `env`. A malformed input fails with the error
/// [`Cube::validate`] would give.
fn load_inputs(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    threads: usize,
    session: &mut EvalSession,
    env: &mut Dataset,
    stats: &mut PlanStats,
) -> Result<(), EvalError> {
    let started = Instant::now();
    for id in analyzed.elementary_inputs() {
        let cube = input.get(&id).ok_or_else(|| EvalError::MissingInput {
            cube: id.to_string(),
        })?;
        let schema = analyzed.schemas[&id].clone();
        let check = RowCheck::Schema(&schema);
        let batch = intern_batch(&cube.data, check, &mut session.pool, threads)?;
        stats.intern_rows += batch.len() as u64;
        let dims = schema.dims.clone();
        session.cubes.insert(id, SessionCube { dims, batch });
        env.put(Cube::new(schema, cube.data.clone()));
    }
    stats.intern_ns += started.elapsed().as_nanos() as u64;
    Ok(())
}

/// Resolve a statement's output batch to `CubeData`, counting the rows
/// and time in `stats`.
fn to_data_counted(batch: &CubeBatch, pool: &DimPool, stats: &mut PlanStats) -> CubeData {
    let started = Instant::now();
    let data = batch.to_data(pool);
    stats.to_data_rows += data.len() as u64;
    stats.to_data_ns += started.elapsed().as_nanos() as u64;
    data
}

/// [`run_program`] with fusion and CSE off: every operator node of every
/// statement materializes as its own region, running the same kernels the
/// fused plan runs. The differential suites pin fused ≡ unfused bit for
/// bit, which pins both plan rewrites; the `B1/execute-native-unfused`
/// bench guards what they save.
pub fn run_program_unfused(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
) -> Result<Dataset, EvalError> {
    run_compiled(analyzed, input, workers(), false).map(|(env, _)| env)
}

/// [`run_program_with_stats`] on `threads` workers for the data-parallel
/// operators (`None` probes the machine). The engine's dispatcher calls
/// this with its per-engine count; the sharded dispatcher pins 1 per
/// shard worker.
pub fn run_program_with_threads(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    threads: Option<usize>,
) -> Result<(Dataset, PlanStats), EvalError> {
    let threads = threads.unwrap_or_else(workers).max(1);
    run_compiled(analyzed, input, threads, true)
}

/// Compile a whole program (fused or not), intern its elementary inputs
/// and run the plan, exporting every statement output to the returned
/// dataset.
fn run_compiled(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    threads: usize,
    fuse: bool,
) -> Result<(Dataset, PlanStats), EvalError> {
    let plan = plan::compile_program(analyzed, fuse)?;
    let mut env = Dataset::new();
    let mut session = EvalSession::new();
    let mut stats = plan.stats;
    load_inputs(analyzed, input, threads, &mut session, &mut env, &mut stats)?;
    let roots = Roots::Export {
        analyzed,
        env: &mut env,
    };
    run_plan(&plan, &mut session, threads, &mut stats, roots)?;
    Ok((env, stats))
}

/// Where [`run_plan`] puts each statement's result.
enum Roots<'a> {
    /// Resolve each result to `CubeData` into `env` under the statement's
    /// analyzed schema, and drop every batch, in the session or not, once
    /// its last reading statement has run: the footprint stays
    /// proportional to the program's live width, not its length.
    Export {
        analyzed: &'a AnalyzedProgram,
        env: &'a mut Dataset,
    },
    /// Keep each result batch in the session under the statement's
    /// target, and evict nothing from the session.
    Keep,
}

/// Run a compiled plan over the sources loaded in `session`: the
/// evaluator's one region-execution loop. Regions run in statement order
/// on `threads` workers. Single-consumer map/shift/probe chains execute
/// as one streaming pass with no intermediate materialization; barriers
/// (aggregation, series, outer joins) and statement targets still
/// materialize. Governance: one checkpoint per statement turn, plus one
/// per region so cancellation lands between regions of one statement,
/// and one `charge` per statement at the statement's output size.
fn run_plan(
    plan: &CompiledPlan,
    session: &mut EvalSession,
    threads: usize,
    stats: &mut PlanStats,
    mut roots: Roots<'_>,
) -> Result<(), EvalError> {
    // source lifetimes come from the plan, not the statement text: CSE
    // can alias a later statement's root to a source node (`B := A`), so
    // the textual last-reference underestimates how long the batch is
    // needed
    let mut source_last_use: FxHashMap<CubeId, usize> = FxHashMap::default();
    for (n, node) in plan.nodes.iter().enumerate() {
        if let CNode::Source(id) = node {
            source_last_use.insert(id.clone(), plan.last_use_stmt[n]);
        }
    }

    // interior node results live here until their last consuming
    // statement has run; sources resolve straight from the session
    let mut store: Vec<Option<CubeBatch>> = (0..plan.nodes.len()).map(|_| None).collect();
    let mut cursor = 0usize;
    for (i, (target, root)) in plan.roots.iter().enumerate() {
        let root = *root;
        exl_fault::govern::checkpoint()?;
        let node_end = plan.stmt_node_end[i];
        while cursor < plan.regions.len() && plan.regions[cursor].out() < node_end {
            // a region boundary is a cancellation point even when several
            // regions serve one statement
            exl_fault::govern::checkpoint()?;
            let region = &plan.regions[cursor];
            let out = run_region(plan, region, &store, session, threads, stats)?;
            store[region.out()] = Some(out);
            cursor += 1;
        }
        let batch = resolve_node(plan, &store, session, root)?;
        let rows = batch.len() as u64;
        exl_fault::govern::charge(
            rows,
            exl_fault::govern::approx_cube_bytes(rows, plan.dims[root].len() as u64),
        );
        match &mut roots {
            Roots::Export { analyzed, env } => {
                let data = to_data_counted(batch, &session.pool, stats);
                env.put(Cube::new(analyzed.schemas[target].clone(), data));
                session
                    .cubes
                    .retain(|id, _| source_last_use.get(id).is_some_and(|&l| l > i));
            }
            Roots::Keep => {
                // the root's batch moves into the session unless a later
                // statement of the plan still reads it, or it is a
                // source's (`B := A`)
                let batch = match store[root].take_if(|_| plan.last_use_stmt[root] <= i) {
                    Some(batch) => batch,
                    None => resolve_node(plan, &store, session, root)?.clone(),
                };
                let dims = plan.dims[root].clone();
                session
                    .cubes
                    .insert(target.clone(), SessionCube { dims, batch });
            }
        }
        for (n, slot) in store.iter_mut().enumerate() {
            if slot.is_some() && plan.last_use_stmt[n] <= i {
                *slot = None;
            }
        }
    }
    Ok(())
}

/// Execute one region of `plan` whose inputs are all resolvable.
fn run_region(
    plan: &CompiledPlan,
    region: &Region,
    store: &[Option<CubeBatch>],
    session: &EvalSession,
    threads: usize,
    stats: &mut PlanStats,
) -> Result<CubeBatch, EvalError> {
    let input = |n: NodeId| resolve_node(plan, store, session, n);
    match region {
        Region::Stream(sr) => {
            let base = input(sr.base)?;
            let mut probes: Vec<(NodeId, &CubeBatch)> = Vec::new();
            for step in &sr.steps {
                if let Step::Probe { input: n, .. } = step {
                    probes.push((*n, input(*n)?));
                }
            }
            let rows = base.len() as u64;
            let out = plan::run_stream(sr, base, &probes, &session.pool, threads)?;
            stats.bytes_not_materialized += sr.fused
                * exl_fault::govern::approx_cube_bytes(rows, plan.dims[sr.out].len() as u64);
            Ok(out)
        }
        Region::Combine {
            op,
            default,
            lhs,
            rhs,
            ..
        } => {
            let op = *op;
            let f = move |va, vb| op.apply(va, vb);
            probe_combine(input(*lhs)?, input(*rhs)?, &f, *default, threads)
        }
        Region::Aggregate {
            arg, agg, group_by, ..
        } => {
            let batch = input(*arg)?;
            let parts = key_parts(&plan.dims[*arg], group_by)?;
            let partitions = if batch.len() < PAR_MIN_ROWS {
                1
            } else {
                threads
            };
            aggregate_batch(batch, &session.pool, &parts, *agg, partitions)
        }
        Region::Series { arg, op, .. } => {
            series_batch(*op, &plan.dims[*arg], input(*arg)?, &session.pool, threads)
        }
    }
}

/// Borrow the batch a plan node resolved to: sources live in the
/// session, every other node in the region store.
fn resolve_node<'a>(
    plan: &CompiledPlan,
    store: &'a [Option<CubeBatch>],
    session: &'a EvalSession,
    n: NodeId,
) -> Result<&'a CubeBatch, EvalError> {
    match &plan.nodes[n] {
        CNode::Source(id) => {
            session
                .cubes
                .get(id)
                .map(|c| &c.batch)
                .ok_or_else(|| EvalError::MissingInput {
                    cube: id.to_string(),
                })
        }
        _ => Ok(store[n]
            .as_ref()
            .expect("dependency region evaluated before its consumers")),
    }
}

/// Evaluate one statement against an environment that already contains its
/// operands (the stratified evaluation order of §4.2).
pub fn eval_statement(stmt: &Statement, env: &Dataset) -> Result<CubeData, EvalError> {
    eval_statement_with_threads(stmt, env, None)
}

/// [`eval_statement`] on `threads` workers for the data-parallel
/// operators (`None` probes the machine), as
/// [`run_program_with_threads`].
pub(crate) fn eval_statement_with_threads(
    stmt: &Statement,
    env: &Dataset,
    threads: Option<usize>,
) -> Result<CubeData, EvalError> {
    let mut session = EvalSession::with_threads(threads);
    for id in stmt.expr.cube_refs() {
        let cube = env.get(&id).ok_or_else(|| EvalError::MissingInput {
            cube: id.to_string(),
        })?;
        session.try_load(id.clone(), cube.schema.dims.clone(), &cube.data)?;
    }
    session.eval(stmt)?;
    Ok(session.resolve(&stmt.target).expect("target just derived"))
}

/// Message of a worker's panic payload, for [`EvalError::WorkerPanicked`].
fn panic_detail(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// Join one scoped worker, converting a panic into the typed error the
/// supervisor contains per-statement (never a re-panic in the caller).
fn join_worker<T>(
    h: std::thread::ScopedJoinHandle<'_, Result<T, EvalError>>,
) -> Result<T, EvalError> {
    match h.join() {
        Ok(r) => r,
        Err(payload) => Err(EvalError::WorkerPanicked {
            detail: panic_detail(payload.as_ref()),
        }),
    }
}

/// An injected `eval.worker` fault surfaces exactly like a worker failure.
fn worker_fault(e: exl_fault::FaultError) -> EvalError {
    EvalError::WorkerPanicked {
        detail: e.to_string(),
    }
}

/// Worker-entry hook: the `eval.worker` fault site plus one governance
/// checkpoint against the dispatching thread's governor (thread-locals do
/// not cross `thread::scope`, so the governor is captured outside and
/// checked here). Checked once per partition — the partition body stays
/// checkpoint-free so the canonical fold order is untouched.
fn worker_entry(governor: &Option<exl_fault::govern::Governor>) -> Result<(), EvalError> {
    // the captured governor is ambient while the fault site runs, so an
    // injected `cancel` lands on the shared attempt token instead of
    // evaporating on the governor-less worker thread
    let _ambient = governor.clone().map(exl_fault::govern::set_governor);
    exl_fault::check("eval.worker").map_err(worker_fault)?;
    if let Some(g) = governor {
        g.checkpoint()?;
    }
    Ok(())
}

/// Outer-policy vectorial operator: stream the left side, probe the
/// right, and write each combined measure over a copy of the left
/// operand's columns (a miss combines with `default`). The anti side
/// (right keys the left never had) is collected while the batch still
/// holds every left key, and appended after; the final
/// [`CubeBatch::retain_finite`] sweep drops non-finite results (the §3
/// partiality rule).
pub(crate) fn probe_combine(
    a: &CubeBatch,
    b: &CubeBatch,
    f: &(dyn Fn(f64, f64) -> f64 + Sync),
    default: f64,
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    b.ensure_indexed();
    let mut out = a.clone();
    let (keys, measures) = out.columns_mut();
    let chunk = chunk_len(keys.len(), threads);
    fan_out(
        measures.chunks_mut(chunk).enumerate().collect(),
        &|(c, mc): (usize, &mut [f64])| {
            for (r, v) in (c * chunk..).zip(mc.iter_mut()) {
                *v = f(*v, b.get(keys.get(r)).unwrap_or(default));
            }
            Ok(())
        },
    )?;
    // anti side, probed against the still-complete left key set; buffered
    // so the appends don't invalidate the probe index mid-loop
    out.ensure_indexed();
    let mut extra: Vec<(usize, f64)> = Vec::new();
    for (row, (k, vb)) in b.iter().enumerate() {
        if !out.contains(k) {
            let r = f(default, vb);
            if r.is_finite() {
                extra.push((row, r));
            }
        }
    }
    for (row, r) in extra {
        out.push(b.key(row), r);
    }
    out.retain_finite();
    Ok(out)
}

fn fx_hash<T: Hash + ?Sized>(t: &T) -> u64 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// One component of an aggregation's output key, resolved per input row.
pub(crate) enum KeyPart {
    /// Pass dimension `idx` through.
    Dim(usize),
    /// Coarsen time dimension `idx` to `target`.
    TimeMap { idx: usize, target: Frequency },
}

/// Resolve group-by keys against the operand's dimensions. Statements can
/// reach the evaluator through paths that skip re-analysis (the delta
/// kernels, cached-statement replay), so an unresolvable name is a typed
/// error here, not a panic.
pub(crate) fn key_parts(
    dims: &[Dimension],
    group_by: &[GroupKey],
) -> Result<Vec<KeyPart>, EvalError> {
    let find = |name: &str| {
        dims.iter()
            .position(|d| d.name == name)
            .ok_or_else(|| EvalError::InvalidStatement {
                detail: format!("group-by key {name} is not a dimension of the operand"),
            })
    };
    group_by
        .iter()
        .map(|k| match k {
            GroupKey::Dim(name) => Ok(KeyPart::Dim(find(name)?)),
            GroupKey::TimeMap { target, dim, .. } => Ok(KeyPart::TimeMap {
                idx: find(dim)?,
                target: *target,
            }),
        })
        .collect()
}

fn bad_group_time(detail: String) -> EvalError {
    EvalError::BadTimeValue {
        cube: "<aggregation operand>".into(),
        detail,
    }
}

/// A group key component as a flat interned value — what the aggregation
/// kernels hash and compare. Data that skipped validation (delta paths)
/// can hold non-time values or non-coarsenable points where the schema
/// promised otherwise; both surface as typed errors.
fn part_idim(part: &KeyPart, key: &[IDim], pool: &DimPool) -> Result<IDim, EvalError> {
    let fetch = |i: usize| {
        key.get(i)
            .copied()
            .ok_or_else(|| EvalError::InvalidStatement {
                detail: format!(
                    "row has {} dimensions, group key needs index {i}",
                    key.len()
                ),
            })
    };
    match part {
        KeyPart::Dim(i) => fetch(*i),
        KeyPart::TimeMap { idx, target } => match fetch(*idx)? {
            IDim::Time(t) => t.convert(*target).map(IDim::Time).ok_or_else(|| {
                bad_group_time(format!("time point {t} cannot be coarsened to {target:?}"))
            }),
            other => Err(bad_group_time(format!(
                "value {} is not a time point",
                pool.resolve_value(other)
            ))),
        },
    }
}

/// [`part_idim`]'s [`DimValue`]-level twin, used by the delta kernels to
/// compute group keys of tuple-level forward images.
pub(crate) fn part_value<'r>(
    part: &KeyPart,
    t: &'r DimTuple,
) -> Result<Cow<'r, DimValue>, EvalError> {
    let fetch = |i: usize| {
        t.get(i).ok_or_else(|| EvalError::InvalidStatement {
            detail: format!("row has {} dimensions, group key needs index {i}", t.len()),
        })
    };
    match part {
        KeyPart::Dim(i) => Ok(Cow::Borrowed(fetch(*i)?)),
        KeyPart::TimeMap { idx, target } => {
            let v = fetch(*idx)?;
            let tp = v
                .as_time()
                .ok_or_else(|| bad_group_time(format!("value {v} is not a time point")))?;
            let c = tp.convert(*target).ok_or_else(|| {
                bad_group_time(format!("time point {v} cannot be coarsened to {target:?}"))
            })?;
            Ok(Cow::Owned(DimValue::Time(c)))
        }
    }
}

/// Run `f` over each item and return the results in item order. A single
/// item runs inline; several fan out to one scoped worker each, entering
/// through [`worker_entry`], so a panicking or faulted worker surfaces as
/// [`EvalError::WorkerPanicked`]. The evaluator's one fan-out path.
pub(crate) fn fan_out<I: Send, T: Send>(
    items: Vec<I>,
    f: &(dyn Fn(I) -> Result<T, EvalError> + Sync),
) -> Result<Vec<T>, EvalError> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let governor = exl_fault::govern::governor();
    let joined: Vec<Result<T, EvalError>> = std::thread::scope(|s| {
        let governor = &governor;
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| {
                s.spawn(move || {
                    worker_entry(governor)?;
                    f(item)
                })
            })
            .collect();
        handles.into_iter().map(join_worker).collect()
    });
    joined.into_iter().collect()
}

/// Contiguous ranges splitting `0..n` into at most `parts` pieces.
pub(crate) fn row_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let chunk = n.div_ceil(parts.max(1)).max(1);
    (0..n)
        .step_by(chunk)
        .map(|lo| lo..(lo + chunk).min(n))
        .collect()
}

/// [`row_ranges`] for `threads` workers, or one range when the operand is
/// too small to pay for threads.
pub(crate) fn par_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let parts = if n < PAR_MIN_ROWS { 1 } else { threads };
    row_ranges(n, parts)
}

/// Cut a column holding `stride` values per row into consecutive pieces,
/// one per range of `ranges` (which tile a prefix of the rows in order).
/// Parallel kernels hand each worker its piece of a column the calling
/// thread allocated, so the workers write in place and allocate nothing.
pub(crate) fn split_rows<'a, T>(
    mut column: &'a mut [T],
    ranges: &[Range<usize>],
    stride: usize,
) -> Vec<&'a mut [T]> {
    ranges
        .iter()
        .map(|rows| {
            let (piece, rest) = std::mem::take(&mut column).split_at_mut(rows.len() * stride);
            column = rest;
            piece
        })
        .collect()
}

/// Chunk length that fans `n` rows out across `threads` workers, or one
/// chunk for everything when the operand is too small to pay for threads.
fn chunk_len(n: usize, threads: usize) -> usize {
    if threads <= 1 || n < PAR_MIN_ROWS {
        n.max(1)
    } else {
        n.div_ceil(threads)
    }
}

/// Check and intern a cube into a batch: the evaluator's one interning
/// pass. An operand of at least `PAR_MIN_ROWS` rows fans out across
/// `threads` workers in contiguous chunks of storage order: chunk 0
/// interns straight into `pool`, every later chunk into a chunk-local
/// pool, and the chunk pools merge into `pool` in chunk order
/// ([`DimPool::merge`]). Every symbol code, and so the batch, equals a
/// one-worker pass. Chunks report in chunk order, so a bad tuple fails
/// with the error of the first one in storage order: the schema's error
/// for [`RowCheck::Schema`], [`EvalError::InvalidStatement`] for a
/// [`RowCheck::Arity`] mismatch (a flat key column cannot hold ragged
/// rows).
pub(crate) fn intern_batch(
    data: &CubeData,
    check: RowCheck<'_>,
    pool: &mut DimPool,
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    let n = data.len();
    let arity = check.arity();
    let ranges = par_ranges(n, threads);
    // the columns are allocated here, on the calling thread, and the
    // chunks write into disjoint pieces of them: workers allocate nothing
    // but their small pools
    let mut keys = vec![IDim::Int(0); n * arity];
    let mut measures = vec![0.0; n];
    let key_pieces = split_rows(&mut keys, &ranges, arity);
    let val_pieces = split_rows(&mut measures, &ranges, 1);
    let mut shared = Some(&mut *pool);
    let items: Vec<_> = ranges
        .into_iter()
        .zip(key_pieces.into_iter().zip(val_pieces))
        .map(|(rows, (kc, mc))| (rows, kc, mc, shared.take()))
        .collect();
    let locals = fan_out(items, &|(rows, kc, mc, shared)| {
        let chunk = data.iter().skip(rows.start).take(rows.len());
        let mut local = None;
        let pool = match shared {
            Some(pool) => pool,
            None => local.insert(DimPool::new()),
        };
        match intern_rows(chunk, check, pool, kc, mc) {
            Ok(()) => Ok((kc, local)),
            Err(ModelError::ArityMismatch { expected, got, .. })
                if matches!(check, RowCheck::Arity(_)) =>
            {
                Err(EvalError::InvalidStatement {
                    detail: format!("row has {got} dimensions, the operand has {expected}"),
                })
            }
            Err(e) => Err(e.into()),
        }
    })?;
    for (kc, local) in locals {
        if let Some(local) = local {
            remap_syms(kc, &pool.merge(&local));
        }
    }
    Ok(CubeBatch::from_columns(arity, keys, measures))
}

/// Dense group ids in first-seen order over strided group keys, with a
/// row count per group: an open-addressed table of `(key hash, group id)`
/// slots, probed linearly from the hash's high bits and kept at most half
/// full. A probe compares stored hashes before it reads a key.
struct GroupTable {
    stride: usize,
    keys: Vec<IDim>,
    counts: Vec<usize>,
    slots: Vec<(u64, u32)>,
    /// `64 - log2(slots.len())`: the shift that leaves a hash's top bits.
    shift: u32,
}

impl GroupTable {
    const NONE: u32 = u32::MAX;
    const MIN_SLOTS: usize = 16;

    fn new(stride: usize) -> GroupTable {
        GroupTable {
            stride,
            keys: Vec::new(),
            counts: Vec::new(),
            slots: vec![(0, GroupTable::NONE); GroupTable::MIN_SLOTS],
            shift: 64 - GroupTable::MIN_SLOTS.trailing_zeros(),
        }
    }

    fn key(&self, g: usize) -> &[IDim] {
        &self.keys[g * self.stride..(g + 1) * self.stride]
    }

    /// Count `rows` more rows in `key`'s group, opening the group on first
    /// sight; returns the group's id.
    fn add(&mut self, key: &[IDim], rows: usize) -> u32 {
        let hash = fx_hash(key);
        let mask = self.slots.len() - 1;
        let mut i = (hash >> self.shift) as usize;
        loop {
            match self.slots[i] {
                (_, GroupTable::NONE) => break,
                (h, g) if h == hash && self.key(g as usize) == key => {
                    self.counts[g as usize] += rows;
                    return g;
                }
                _ => i = (i + 1) & mask,
            }
        }
        let fresh = self.counts.len() as u32;
        self.keys.extend_from_slice(key);
        self.counts.push(rows);
        self.slots[i] = (hash, fresh);
        if self.counts.len() * 2 > self.slots.len() {
            self.grow();
        }
        fresh
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, GroupTable::NONE); cap]);
        self.shift = 64 - cap.trailing_zeros();
        for slot in old.into_iter().filter(|s| s.1 != GroupTable::NONE) {
            let mut i = (slot.0 >> self.shift) as usize;
            while self.slots[i].1 != GroupTable::NONE {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = slot;
        }
    }
}

/// The kind of value a column holds over a batch's rows.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// No row seen yet.
    Empty,
    Int,
    Sym,
    /// Time points of one frequency.
    Time(Frequency),
    /// Values of several kinds, or time points of several frequencies.
    Mixed,
}

/// A value's kind and its code: the integer, the symbol id, or the time
/// point's index on its own axis ([`TimePoint::index`]). Within one kind
/// (and one frequency), codes order as [`DimPool::cmp_vals`] does, except
/// symbols, which order by [`DimPool::rank`].
fn kind_code(v: IDim) -> (Kind, i64) {
    match v {
        IDim::Int(i) => (Kind::Int, i),
        IDim::Sym(s) => (Kind::Sym, s.0 as i64),
        IDim::Time(t) => (Kind::Time(t.frequency()), t.index()),
    }
}

/// One column's kind and code range over a set of rows: what the
/// aggregation kernel's path rule reads.
#[derive(Debug, Clone, Copy)]
struct ColRange {
    kind: Kind,
    lo: i64,
    hi: i64,
}

impl ColRange {
    const EMPTY: ColRange = ColRange {
        kind: Kind::Empty,
        lo: i64::MAX,
        hi: i64::MIN,
    };

    fn add(&mut self, v: IDim) {
        let (kind, code) = kind_code(v);
        self.merge(ColRange {
            kind,
            lo: code,
            hi: code,
        });
    }

    fn merge(&mut self, other: ColRange) {
        if other.kind == Kind::Empty {
            return;
        }
        if self.kind != other.kind {
            self.kind = match self.kind {
                Kind::Empty => other.kind,
                _ => Kind::Mixed,
            };
        }
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
    }

    /// Number of codes from `lo` to `hi`.
    fn span(&self) -> u128 {
        (self.hi as i128 - self.lo as i128 + 1).max(0) as u128
    }
}

/// Every column's [`ColRange`] over `rows`.
fn col_ranges(keys: KeyColumn<'_>, rows: Range<usize>) -> Vec<ColRange> {
    let mut cols = vec![ColRange::EMPTY; keys.arity()];
    for r in rows {
        for (col, &v) in cols.iter_mut().zip(keys.get(r)) {
            col.add(v);
        }
    }
    cols
}

/// Entries the dense path may allocate per array (the group-id array, a
/// time map's table): twice the rows, at least 4096, and no more than a
/// `u32` row id can address.
fn dense_budget(rows: usize) -> u128 {
    rows.saturating_mul(2).clamp(4096, u32::MAX as usize) as u128
}

/// One group-key part coded for the dense path: a value's code is its
/// [`kind_code`] minus `lo`, in `0..radix`. A time map first looks its
/// input's code up in `memo`, which holds the coarsened code of every
/// input code from `memo_lo` on.
struct DensePart {
    col: usize,
    /// Kind of the part's output values.
    kind: Kind,
    lo: i64,
    radix: usize,
    memo_lo: i64,
    memo: Vec<u32>,
}

impl DensePart {
    #[inline]
    fn code(&self, v: IDim) -> usize {
        let c = kind_code(v).1;
        if self.memo.is_empty() {
            (c - self.lo) as usize
        } else {
            self.memo[(c - self.memo_lo) as usize] as usize
        }
    }

    /// The output value of `code`.
    fn value(&self, code: usize) -> IDim {
        let c = self.lo + code as i64;
        match self.kind {
            Kind::Sym => IDim::Sym(Sym(c as u32)),
            Kind::Time(f) => IDim::Time(TimePoint::from_index(f, c)),
            _ => IDim::Int(c),
        }
    }
}

/// The path rule for group ids, a pure function of the operand's column
/// ranges and row count: the dense coding of `parts` and its cell count,
/// or `None` when the hash path must number the groups. That is when a
/// part's column is missing or mixes kinds, a code range (or the product
/// of them) exceeds [`dense_budget`], or a time map's input cannot be
/// coarsened; the hash path then also reports the first bad row. A time
/// map's table is built here, one conversion per code of its input
/// column's range.
fn dense_parts(
    parts: &[KeyPart],
    cols: &[ColRange],
    rows: usize,
) -> Option<(Vec<DensePart>, usize)> {
    let budget = dense_budget(rows);
    let mut dense = Vec::with_capacity(parts.len());
    let mut cells: u128 = 1;
    for part in parts {
        let (KeyPart::Dim(idx) | KeyPart::TimeMap { idx, .. }) = *part;
        let col = cols.get(idx)?;
        if col.span() > budget {
            return None;
        }
        let p = match *part {
            KeyPart::Dim(_) if matches!(col.kind, Kind::Mixed | Kind::Empty) => return None,
            KeyPart::Dim(_) => DensePart {
                col: idx,
                kind: col.kind,
                lo: col.lo,
                radix: col.span() as usize,
                memo_lo: 0,
                memo: Vec::new(),
            },
            KeyPart::TimeMap { target, .. } => {
                let Kind::Time(freq) = col.kind else {
                    return None;
                };
                let coarse = |c: i64| {
                    TimePoint::from_index(freq, c)
                        .convert(target)
                        .map(TimePoint::index)
                };
                // whether a point coarsens depends on its frequency only
                let (lo, hi) = (coarse(col.lo)?, coarse(col.hi)?);
                DensePart {
                    col: idx,
                    kind: Kind::Time(target),
                    lo,
                    radix: (hi - lo + 1) as usize,
                    memo_lo: col.lo,
                    memo: (col.lo..=col.hi)
                        .map(|c| coarse(c).map_or(0, |x| (x - lo) as u32))
                        .collect(),
                }
            }
        };
        cells *= p.radix as u128;
        if cells > budget {
            return None;
        }
        dense.push(p);
    }
    Some((dense, cells as usize))
}

/// The sort columns packed into one `u64` per row: each column's code
/// (its offset from the column's least code, or a symbol's
/// [`DimPool::rank`]) in a bit field of its own, the first column
/// highest. `u64` order then equals [`DimPool::cmp_keys`] on the columns.
struct SortPack {
    /// Column, least code, and the shift of its field.
    fields: Vec<(usize, i64, u32)>,
}

impl SortPack {
    /// The packing of `sort_cols`, or `None` when a column mixes kinds or
    /// the fields need more than 64 bits.
    fn new(sort_cols: &[usize], cols: &[ColRange], pool: &DimPool) -> Option<SortPack> {
        let mut widths = Vec::with_capacity(sort_cols.len());
        for &c in sort_cols {
            let col = cols.get(c)?;
            let span = match col.kind {
                Kind::Sym => pool.len() as u128,
                Kind::Int | Kind::Time(_) => col.span(),
                Kind::Empty | Kind::Mixed => return None,
            };
            widths.push(128 - (span.max(1) - 1).leading_zeros());
        }
        let mut shift: u32 = widths.iter().sum();
        if shift > 64 {
            return None;
        }
        let fields = sort_cols
            .iter()
            .zip(widths)
            .map(|(&c, w)| {
                shift -= w;
                (c, cols[c].lo, shift)
            })
            .collect();
        Some(SortPack { fields })
    }

    #[inline]
    fn pack(&self, key: &[IDim], pool: &DimPool) -> u64 {
        self.fields.iter().fold(0, |acc, &(c, lo, shift)| {
            let code = match key[c] {
                IDim::Sym(s) => pool.rank(s) as u64,
                v => kind_code(v).1.wrapping_sub(lo) as u64,
            };
            acc | code.wrapping_shl(shift)
        })
    }
}

/// One row chunk after numbering: each row's id local to the chunk and,
/// per local id, its global group and its rows in the chunk.
struct ChunkGroups<'a> {
    rows: Range<usize>,
    ids: &'a [u32],
    global: Vec<u32>,
    counts: Vec<usize>,
}

/// An operand's groups in first-seen order: their strided output keys,
/// their sizes, and every chunk's numbering.
struct Numbered<'a> {
    stride: usize,
    keys: Vec<IDim>,
    sizes: Vec<usize>,
    chunks: Vec<ChunkGroups<'a>>,
}

/// Dense numbering (phase 2): walk the chunks in order, their rows in
/// order, each holding its mixed-radix cell, and number every cell on
/// first sight, in the chunk and globally, through dense arrays. The
/// global ids are those of a serial pass. Each row's cell is rewritten
/// to its local id.
fn number_dense<'a>(
    dense: &[DensePart],
    cells: usize,
    chunks: Vec<(Range<usize>, &'a mut [u32])>,
) -> Numbered<'a> {
    const NONE: u32 = u32::MAX;
    let mut global_of: Vec<u32> = vec![NONE; cells];
    let mut local_of: Vec<u32> = vec![NONE; cells];
    let mut cell_of: Vec<u32> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut out = Vec::with_capacity(chunks.len());
    for (rows, ids) in chunks {
        let mut global: Vec<u32> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        for id in ids.iter_mut() {
            let cell = *id as usize;
            let mut l = local_of[cell];
            if l == NONE {
                l = global.len() as u32;
                local_of[cell] = l;
                if global_of[cell] == NONE {
                    global_of[cell] = cell_of.len() as u32;
                    cell_of.push(cell as u32);
                    sizes.push(0);
                }
                global.push(global_of[cell]);
                counts.push(0);
            }
            counts[l as usize] += 1;
            *id = l;
        }
        for (&g, &c) in global.iter().zip(&counts) {
            local_of[cell_of[g as usize] as usize] = NONE;
            sizes[g as usize] += c;
        }
        out.push(ChunkGroups {
            rows,
            ids: &*ids,
            global,
            counts,
        });
    }
    let mut keys = vec![IDim::Int(0); cell_of.len() * dense.len()];
    for (&cell, key) in cell_of
        .iter()
        .zip(keys.chunks_exact_mut(dense.len().max(1)))
    {
        let mut rest = cell as usize;
        for (p, v) in dense.iter().zip(key.iter_mut()).rev() {
            *v = p.value(rest % p.radix);
            rest /= p.radix;
        }
    }
    Numbered {
        stride: dense.len(),
        keys,
        sizes,
        chunks: out,
    }
}

/// Hash numbering (phases 1 and 2 of the hash path): chunks, in
/// parallel, resolve each row's group key ([`part_idim`]) and number it
/// in a chunk-local [`GroupTable`]; one serial pass merges the chunk
/// tables, in chunk order, into global ids in first-seen row order.
fn number_hashed<'a>(
    keys: KeyColumn<'_>,
    pool: &DimPool,
    parts: &[KeyPart],
    chunks: Vec<(Range<usize>, &'a mut [u32])>,
) -> Result<Numbered<'a>, EvalError> {
    let stride = parts.len();
    let tables = fan_out(chunks, &|(rows, ids): (Range<usize>, &'a mut [u32])| {
        let mut table = GroupTable::new(stride);
        let mut scratch: Vec<IDim> = Vec::with_capacity(stride);
        for (r, id) in rows.clone().zip(ids.iter_mut()) {
            let k = keys.get(r);
            scratch.clear();
            for p in parts {
                scratch.push(part_idim(p, k, pool)?);
            }
            *id = table.add(&scratch, 1);
        }
        Ok((rows, table, &*ids))
    })?;
    let mut groups = GroupTable::new(stride);
    let chunks = tables
        .into_iter()
        .map(|(rows, local, ids)| ChunkGroups {
            rows,
            ids,
            global: (0..local.counts.len())
                .map(|l| groups.add(local.key(l), local.counts[l]))
                .collect(),
            counts: local.counts,
        })
        .collect();
    Ok(Numbered {
        stride,
        keys: groups.keys,
        sizes: groups.counts,
        chunks,
    })
}

/// Group-by aggregation over a batch: one kernel for every worker count,
/// in four phases over contiguous row chunks.
///
/// 1. The chunks, in parallel, take each column's kind and code range
///    ([`ColRange`]). A pure rule on those ranges and the row count
///    ([`dense_parts`]) picks how groups are numbered. When every part's
///    column holds one kind of value and the product of the parts' code
///    ranges, like every time map's table, is within [`dense_budget`]
///    (twice the rows, at least 4096 entries), each row's group is a
///    mixed-radix cell over the parts' codes: a symbol id, an integer or
///    a time index minus the column's least one, and for a time map, the
///    coarsened code from a table holding one conversion per input code.
///    The chunks compute the cells in parallel. Otherwise (a column of
///    mixed kinds, a domain too large for the row count) the chunks
///    resolve each row's key ([`part_idim`]) into a chunk-local
///    [`GroupTable`] instead.
/// 2. One serial pass numbers the groups in first-seen row order, walking
///    the chunks in order: through dense arrays over the cells, or by
///    merging the chunk tables. Either way each row keeps an id local to
///    its chunk, and the global ids are those of a serial pass.
/// 3. The chunks, in parallel, write their rows into their own stretches
///    of one record column allocated on the calling thread, grouped by
///    local id, each row a record of its measure and sort code, in row
///    order. A group's bag is its pieces in chunk order: its rows in row
///    order, as a serial scatter would give. The sort columns are the
///    full input key minus the dimensions the group key passes through,
///    which are equal within a group. They are packed into one `u64`
///    ([`SortPack`]) when each holds one kind and their codes fit 64
///    bits; otherwise they are copied rank-coded
///    ([`DimPool::rank_coded`]) into a side column laid out like the
///    records. Both orders are [`DimPool::cmp_keys`]'s.
/// 4. Ranges of groups, in parallel, sort each bag by its sort codes
///    unless an O(n) check finds it in order already, and fold it with
///    [`AggFn::apply`] through one reused buffer: the [`ExactState`] bag
///    contract, without a bag per group.
///
/// Each group thus folds in full-input-key order — the former sorted-map
/// evaluator's order — so every float is bit-identical for any
/// `partitions` and either path, and output rows come in first-seen
/// group order. An operand holding a key that cannot be resolved takes
/// the hash path, which fails with the error of the first such row in
/// row order.
pub(crate) fn aggregate_batch(
    batch: &CubeBatch,
    pool: &DimPool,
    parts: &[KeyPart],
    agg: AggFn,
    partitions: usize,
) -> Result<CubeBatch, EvalError> {
    let keys = batch.keys();
    let n = batch.len();
    let width = batch.arity();
    if n == 0 {
        return Ok(CubeBatch::with_capacity(parts.len(), 0));
    }
    let partitions = partitions.max(1);
    let ranges = row_ranges(n, partitions);

    // phase 1: column ranges, then each row's cell or chunk-local id,
    // into one column allocated here
    let cols = fan_out(ranges.clone(), &|rows| Ok(col_ranges(keys, rows)))?
        .into_iter()
        .reduce(|mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                x.merge(y);
            }
            a
        })
        .unwrap_or_default();
    let mut row_ids: Vec<u32> = vec![0; n];
    let chunks: Vec<_> = ranges
        .iter()
        .cloned()
        .zip(split_rows(&mut row_ids, &ranges, 1))
        .collect();
    let groups = match dense_parts(parts, &cols, n) {
        Some((dense, cells)) => {
            let chunks = fan_out(chunks, &|(rows, ids): (Range<usize>, &mut [u32])| {
                for (r, id) in rows.clone().zip(ids.iter_mut()) {
                    let k = keys.get(r);
                    *id = dense
                        .iter()
                        .fold(0, |cell, p| cell * p.radix + p.code(k[p.col]))
                        as u32;
                }
                Ok((rows, ids))
            })?;
            number_dense(&dense, cells, chunks)
        }
        None => number_hashed(keys, pool, parts, chunks)?,
    };

    // only order-sensitive folds sort, so `count` copies no key columns
    let sort_cols: Vec<usize> = (0..width)
        .filter(|&c| {
            ExactState::order_sensitive(agg)
                && !parts
                    .iter()
                    .any(|p| matches!(p, KeyPart::Dim(i) if *i == c))
        })
        .collect();
    let codes = match SortPack::new(&sort_cols, &cols, pool) {
        Some(pack) => SortCodes::Packed(pack),
        None => SortCodes::Ranked(&sort_cols),
    };
    scatter_fold(batch, pool, groups, &codes, agg, partitions)
}

/// How a record of [`scatter_fold`] carries its row's sort columns.
enum SortCodes<'a> {
    /// Packed into the record's `u64`.
    Packed(SortPack),
    /// Rank-coded ([`DimPool::rank_coded`]) into a side column, these
    /// columns' values per record.
    Ranked(&'a [usize]),
}

/// A chunk's stretch of the record column and of the side column.
type Stretch<'a> = (&'a mut [(u64, f64)], &'a mut [RankedDim]);

/// Phases 3 and 4 of [`aggregate_batch`]. Each chunk's rows are laid out
/// in the chunk's own stretch of one record column, grouped by local id
/// in local-id order, each row a record of its sort code and measure
/// (and, for [`SortCodes::Ranked`], the same place in a side column),
/// written in row order. A group's bag is then its pieces in chunk order,
/// which is row order: the bag a serial scatter would give. Each bag is
/// sorted unless already in order, and folded.
fn scatter_fold(
    batch: &CubeBatch,
    pool: &DimPool,
    groups: Numbered<'_>,
    codes: &SortCodes<'_>,
    agg: AggFn,
    partitions: usize,
) -> Result<CubeBatch, EvalError> {
    let keys = batch.keys();
    let measures = batch.measures();
    let n = batch.len();
    let Numbered {
        stride,
        keys: group_keys,
        sizes,
        chunks,
    } = groups;
    let n_groups = sizes.len();

    // phase 3: every chunk scatters its rows into its own stretches, at
    // its local groups' cursors; the columns are allocated here
    let w = match codes {
        SortCodes::Packed(_) => 0,
        SortCodes::Ranked(cols) => cols.len(),
    };
    let mut records: Vec<(u64, f64)> = vec![(0, 0.0); n];
    let mut side: Vec<RankedDim> = vec![RankedDim::Int(0); n * w];
    let ranges: Vec<Range<usize>> = chunks.iter().map(|c| c.rows.clone()).collect();
    let items: Vec<_> = chunks
        .iter()
        .zip(
            split_rows(&mut records, &ranges, 1)
                .into_iter()
                .zip(split_rows(&mut side, &ranges, w)),
        )
        .collect();
    let starts = fan_out(items, &|(chunk, (out, side)): (
        &ChunkGroups<'_>,
        Stretch<'_>,
    )| {
        // a local group's piece starts where the ones before it end
        let starts: Vec<usize> = chunk
            .counts
            .iter()
            .scan(0, |end, &c| {
                *end += c;
                Some(*end - c)
            })
            .collect();
        let mut cursor = starts.clone();
        for (r, &l) in chunk.rows.clone().zip(chunk.ids) {
            let at = &mut cursor[l as usize];
            let key = keys.get(r);
            let code = match codes {
                SortCodes::Packed(pack) => pack.pack(key, pool),
                SortCodes::Ranked(cols) => {
                    for (d, &c) in side[*at * w..(*at + 1) * w].iter_mut().zip(*cols) {
                        *d = pool.rank_coded(key[c]);
                    }
                    0
                }
            };
            out[*at] = (code, measures[r]);
            *at += 1;
        }
        Ok(starts
            .into_iter()
            .map(|s| chunk.rows.start + s)
            .collect::<Vec<_>>())
    })?;

    // every group's pieces, in chunk order: `local_of[g * k + c]` is
    // chunk c's id for g
    let k = chunks.len();
    let mut local_of: Vec<u32> = vec![GroupTable::NONE; n_groups * k];
    for (c, chunk) in chunks.iter().enumerate() {
        for (l, &g) in chunk.global.iter().enumerate() {
            local_of[g as usize * k + c] = l as u32;
        }
    }
    let piece = |g: usize, c: usize| {
        let l = local_of[g * k + c];
        (l != GroupTable::NONE).then(|| {
            let (start, len) = (starts[c][l as usize], chunks[c].counts[l as usize]);
            start..start + len
        })
    };

    // phase 4: canonical fold per group, over ranges of about n /
    // partitions rows each
    let mut offsets: Vec<usize> = Vec::with_capacity(n_groups + 1);
    offsets.push(0);
    for &c in &sizes {
        offsets.push(offsets[offsets.len() - 1] + c);
    }
    let cuts: Vec<usize> = (0..=partitions)
        .map(|p| offsets.partition_point(|&o| o < n * p / partitions))
        .collect();
    let group_ranges = cuts
        .windows(2)
        .map(|c| c[0]..c[1])
        .filter(|r| !r.is_empty())
        .collect();
    let folded = fan_out(group_ranges, &|range: Range<usize>| {
        let mut out_keys: Vec<IDim> = Vec::with_capacity(range.len() * stride);
        let mut out_vals: Vec<f64> = Vec::with_capacity(range.len());
        let mut bag: Vec<(u64, f64)> = Vec::new();
        let mut ranked: Vec<RankedDim> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        for g in range {
            bag.clear();
            ranked.clear();
            for rows in (0..k).filter_map(|c| piece(g, c)) {
                bag.extend_from_slice(&records[rows.clone()]);
                ranked.extend_from_slice(&side[rows.start * w..rows.end * w]);
            }
            if w > 0 {
                // a ranked record's code is its place in the bag's copy
                // of the side column
                for (i, rec) in bag.iter_mut().enumerate() {
                    rec.0 = i as u64;
                }
                let row = |i: u64| &ranked[i as usize * w..(i as usize + 1) * w];
                if bag.windows(2).any(|p| row(p[0].0) > row(p[1].0)) {
                    bag.sort_unstable_by(|a, b| row(a.0).cmp(row(b.0)));
                }
            } else if bag.windows(2).any(|p| p[0].0 > p[1].0) {
                bag.sort_unstable_by_key(|r| r.0);
            }
            values.clear();
            values.extend(bag.iter().map(|r| r.1));
            if let Some(v) = agg.apply(&values).filter(|v| v.is_finite()) {
                out_keys.extend_from_slice(&group_keys[g * stride..(g + 1) * stride]);
                out_vals.push(v);
            }
        }
        Ok((out_keys, out_vals))
    })?;
    let mut out_keys: Vec<IDim> = Vec::with_capacity(n_groups * stride);
    let mut out_vals: Vec<f64> = Vec::with_capacity(n_groups);
    for (k, v) in folded {
        out_keys.extend(k);
        out_vals.extend(v);
    }
    Ok(CubeBatch::from_columns(stride, out_keys, out_vals))
}

/// Group-by aggregation over cube data with an explicit partition count —
/// the kernel behind `Expr::Aggregate`, exposed so the differential suite
/// can pin partition-count independence bit for bit. `partitions <= 1`
/// runs every phase inline; any larger count fans the parallel phases out
/// regardless of operand size.
pub fn aggregate_data(
    data: &CubeData,
    dims: &[Dimension],
    group_by: &[GroupKey],
    agg: AggFn,
    partitions: usize,
) -> Result<CubeData, EvalError> {
    let mut pool = DimPool::new();
    let batch = intern_batch(data, RowCheck::Arity(dims.len()), &mut pool, partitions)?;
    let parts = key_parts(dims, group_by)?;
    let out = aggregate_batch(&batch, &pool, &parts, agg, partitions)?;
    Ok(out.to_data(&pool))
}

/// Apply a black-box series operator to cube data: slice on the non-time
/// dimensions, run the operator positionally over each chronologically
/// sorted slice. Shared with the chase (which applies the same function for
/// table-function tgds).
pub fn apply_series_op(
    op: SeriesOp,
    dims: &[Dimension],
    data: &CubeData,
) -> Result<CubeData, EvalError> {
    let threads = workers();
    let mut pool = DimPool::new();
    let batch = intern_batch(data, RowCheck::Arity(dims.len()), &mut pool, threads)?;
    let out = series_batch(op, dims, &batch, &pool, threads)?;
    Ok(out.to_data(&pool))
}

/// Series-operator kernel over a batch: group row indices into slices by
/// non-time dimension values, sort each slice chronologically, apply the
/// operator positionally, and write each result back at its input row.
/// Output rows keep the operand's row order (minus rows whose result is
/// not finite), so the `to_data` boundary downstream inserts them in the
/// operand's hash order instead of at random. Slices are independent, so
/// large operands fan the per-slice computation out across threads.
pub(crate) fn series_batch(
    op: SeriesOp,
    dims: &[Dimension],
    batch: &CubeBatch,
    pool: &DimPool,
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    let time_idx = resolve_time_index(dims, None)?;
    let freq = dims[time_idx]
        .ty
        .frequency()
        .ok_or_else(|| EvalError::InvalidStatement {
            detail: format!(
                "series operator needs a time dimension, {} is not one",
                dims[time_idx].name
            ),
        })?;
    let period = series_period(freq);
    let keys = batch.keys();
    let measures = batch.measures();

    // group row indices by their non-time dimension values
    let mut slices: FxHashMap<Vec<IDim>, Vec<(i64, u32)>> = FxHashMap::default();
    let mut scratch: Vec<IDim> = Vec::new();
    for (ri, k) in keys.iter().enumerate() {
        let IDim::Time(t) = k[time_idx] else {
            return Err(EvalError::BadTimeValue {
                cube: "<series operand>".into(),
                detail: format!(
                    "value {} is not a time point",
                    pool.resolve_value(k[time_idx])
                ),
            });
        };
        scratch.clear();
        scratch.extend(
            k.iter()
                .enumerate()
                .filter(|(i, _)| *i != time_idx)
                .map(|(_, &d)| d),
        );
        match slices.get_mut(scratch.as_slice()) {
            Some(rows) => rows.push((t.index(), ri as u32)),
            None => {
                slices.insert(scratch.clone(), vec![(t.index(), ri as u32)]);
            }
        }
    }
    let mut slice_list: Vec<Vec<(i64, u32)>> = slices.into_values().collect();

    // each slice, time-sorted in place, yields `(input row, result)` pairs
    let run_slices = |c: &mut [Vec<(i64, u32)>]| {
        let mut results: Vec<(u32, f64)> = Vec::new();
        for rows in c.iter_mut() {
            rows.sort_by_key(|(t, _)| *t);
            let indices: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
            let values: Vec<f64> = rows.iter().map(|(_, ri)| measures[*ri as usize]).collect();
            let result = op.apply(&indices, &values, period);
            results.extend(rows.iter().map(|(_, ri)| *ri).zip(result));
        }
        Ok(results)
    };
    let chunk = if threads <= 1 || batch.len() < PAR_MIN_ROWS || slice_list.len() < 2 {
        slice_list.len().max(1)
    } else {
        slice_list.len().div_ceil(threads)
    };
    let results = fan_out(slice_list.chunks_mut(chunk).collect(), &run_slices)?;

    // scatter back to input rows; `NaN` marks "no tuple"
    let mut column = vec![f64::NAN; keys.len()];
    for (ri, v) in results.into_iter().flatten() {
        column[ri as usize] = v;
    }
    let mut out = CubeBatch::from_columns(keys.arity(), keys.flat().to_vec(), column);
    out.retain_finite();
    Ok(out)
}

/// Index of the time dimension an operator acts on. Statements arriving
/// without re-analysis (delta kernels, cached replay) can fail to
/// resolve; that is an error, not a panic.
pub fn resolve_time_index(dims: &[Dimension], named: Option<&str>) -> Result<usize, EvalError> {
    match named {
        Some(name) => {
            dims.iter()
                .position(|d| d.name == name)
                .ok_or_else(|| EvalError::InvalidStatement {
                    detail: format!("{name} is not a dimension of the operand"),
                })
        }
        None => {
            dims.iter()
                .position(|d| d.ty.is_time())
                .ok_or_else(|| EvalError::InvalidStatement {
                    detail: "operand has no time dimension".into(),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_fault::FaultPlan;
    use exl_lang::{analyze, parse_program};
    use exl_model::schema::CubeId;
    use exl_model::time::{Date, TimePoint};

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    fn day(y: i32, m: u32, d: u32) -> DimValue {
        DimValue::Time(TimePoint::Day(Date::from_ymd(y, m, d).unwrap()))
    }

    fn run(src: &str, cubes: Vec<(&str, Vec<(DimTuple, f64)>)>) -> Dataset {
        let analyzed = analyze(&parse_program(src).unwrap(), &[]).unwrap();
        let mut input = Dataset::new();
        for (name, tuples) in cubes {
            let schema = analyzed.schemas[&CubeId::new(name)].clone();
            let data = CubeData::from_tuples(tuples).unwrap();
            input.put(Cube::new(schema, data));
        }
        run_program(&analyzed, &input).unwrap()
    }

    fn get(out: &Dataset, cube: &str, key: &[DimValue]) -> Option<f64> {
        out.data(&CubeId::new(cube)).unwrap().get(key)
    }

    #[test]
    fn scalar_multiplication() {
        let out = run(
            "cube A(q: quarter); B := 3 * A;",
            vec![("A", vec![(vec![q(2020, 1)], 2.0), (vec![q(2020, 2)], -1.0)])],
        );
        assert_eq!(get(&out, "B", &[q(2020, 1)]), Some(6.0));
        assert_eq!(get(&out, "B", &[q(2020, 2)]), Some(-3.0));
    }

    #[test]
    fn vectorial_sum_intersects_domains() {
        let out = run(
            "cube A(q: quarter); cube B(q: quarter); C := A + B;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 1.0), (vec![q(2020, 2)], 2.0)]),
                (
                    "B",
                    vec![(vec![q(2020, 2)], 10.0), (vec![q(2020, 3)], 20.0)],
                ),
            ],
        );
        let c = out.data(&CubeId::new("C")).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&[q(2020, 2)]), Some(12.0));
    }

    #[test]
    fn outer_sum_uses_default() {
        let out = run(
            "cube A(q: quarter); cube B(q: quarter); C := addz(A, B);",
            vec![
                ("A", vec![(vec![q(2020, 1)], 1.0)]),
                ("B", vec![(vec![q(2020, 2)], 10.0)]),
            ],
        );
        let c = out.data(&CubeId::new("C")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&[q(2020, 1)]), Some(1.0));
        assert_eq!(c.get(&[q(2020, 2)]), Some(10.0));
    }

    #[test]
    fn division_by_zero_drops_tuple() {
        let out = run(
            "cube A(q: quarter); cube B(q: quarter); C := A / B;",
            vec![
                ("A", vec![(vec![q(2020, 1)], 1.0), (vec![q(2020, 2)], 4.0)]),
                ("B", vec![(vec![q(2020, 1)], 0.0), (vec![q(2020, 2)], 2.0)]),
            ],
        );
        let c = out.data(&CubeId::new("C")).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&[q(2020, 2)]), Some(2.0));
    }

    #[test]
    fn ln_of_nonpositive_drops_tuple() {
        let out = run(
            "cube A(q: quarter); B := ln(A);",
            vec![("A", vec![(vec![q(2020, 1)], -1.0), (vec![q(2020, 2)], 1.0)])],
        );
        let b = out.data(&CubeId::new("B")).unwrap();
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(&[q(2020, 2)]), Some(0.0));
    }

    #[test]
    fn shift_moves_time_dimension() {
        let out = run(
            "cube A(q: quarter); B := shift(A, 1);",
            vec![("A", vec![(vec![q(2020, 4)], 7.0)])],
        );
        let b = out.data(&CubeId::new("B")).unwrap();
        assert_eq!(b.get(&[q(2021, 1)]), Some(7.0));
        assert_eq!(b.get(&[q(2020, 4)]), None);
    }

    #[test]
    fn shift_on_named_dim_with_other_dims_fixed() {
        let out = run(
            "cube A(q: quarter, r: text); B := shift(A, -1, q);",
            vec![(
                "A",
                vec![
                    (vec![q(2020, 2), DimValue::str("n")], 5.0),
                    (vec![q(2020, 2), DimValue::str("s")], 6.0),
                ],
            )],
        );
        let b = out.data(&CubeId::new("B")).unwrap();
        assert_eq!(b.get(&[q(2020, 1), DimValue::str("n")]), Some(5.0));
        assert_eq!(b.get(&[q(2020, 1), DimValue::str("s")]), Some(6.0));
    }

    #[test]
    fn aggregation_with_frequency_conversion() {
        // statement (1) of the paper: daily population averaged by quarter
        let out = run(
            "cube PDR(d: day, r: text) -> p; PQR := avg(PDR, group by quarter(d) as q, r);",
            vec![(
                "PDR",
                vec![
                    (vec![day(2020, 1, 1), DimValue::str("n")], 10.0),
                    (vec![day(2020, 2, 1), DimValue::str("n")], 20.0),
                    (vec![day(2020, 4, 1), DimValue::str("n")], 99.0),
                    (vec![day(2020, 1, 1), DimValue::str("s")], 4.0),
                ],
            )],
        );
        let pqr = out.data(&CubeId::new("PQR")).unwrap();
        assert_eq!(pqr.len(), 3);
        assert_eq!(pqr.get(&[q(2020, 1), DimValue::str("n")]), Some(15.0));
        assert_eq!(pqr.get(&[q(2020, 2), DimValue::str("n")]), Some(99.0));
        assert_eq!(pqr.get(&[q(2020, 1), DimValue::str("s")]), Some(4.0));
    }

    #[test]
    fn aggregation_sum_over_regions() {
        let out = run(
            "cube RGDP(q: quarter, r: text); GDP := sum(RGDP, group by q);",
            vec![(
                "RGDP",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 1.0),
                    (vec![q(2020, 1), DimValue::str("s")], 2.0),
                    (vec![q(2020, 2), DimValue::str("n")], 5.0),
                ],
            )],
        );
        let gdp = out.data(&CubeId::new("GDP")).unwrap();
        assert_eq!(gdp.get(&[q(2020, 1)]), Some(3.0));
        assert_eq!(gdp.get(&[q(2020, 2)]), Some(5.0));
    }

    #[test]
    fn series_op_applied_per_slice() {
        // cumsum over a cube with a region dimension: each region
        // accumulates independently
        let out = run(
            "cube A(q: quarter, r: text); B := cumsum(A);",
            vec![(
                "A",
                vec![
                    (vec![q(2020, 1), DimValue::str("n")], 1.0),
                    (vec![q(2020, 2), DimValue::str("n")], 2.0),
                    (vec![q(2020, 1), DimValue::str("s")], 10.0),
                    (vec![q(2020, 2), DimValue::str("s")], 20.0),
                ],
            )],
        );
        let b = out.data(&CubeId::new("B")).unwrap();
        assert_eq!(b.get(&[q(2020, 2), DimValue::str("n")]), Some(3.0));
        assert_eq!(b.get(&[q(2020, 2), DimValue::str("s")]), Some(30.0));
    }

    #[test]
    fn stl_trend_on_time_series_preserves_domain() {
        let tuples: Vec<(DimTuple, f64)> = (0..16)
            .map(|i| {
                (
                    vec![q(2018 + i / 4, (i % 4 + 1) as u32)],
                    100.0 + i as f64 * 2.0 + [3.0, -1.0, -3.0, 1.0][(i % 4) as usize],
                )
            })
            .collect();
        let out = run(
            "cube GDP(q: quarter); GDPT := stl_trend(GDP);",
            vec![("GDP", tuples)],
        );
        let t = out.data(&CubeId::new("GDPT")).unwrap();
        assert_eq!(t.len(), 16);
        // interior trend should be close to the linear component
        let v = t.get(&[q(2019, 1)]).unwrap();
        assert!((v - 108.0).abs() < 1.5, "{v}");
    }

    #[test]
    fn full_gdp_program_end_to_end() {
        let src = r#"
            cube PDR(d: day, r: text) -> p;
            cube RGDPPC(q: quarter, r: text) -> g;
            PQR := avg(PDR, group by quarter(d) as q, r);
            RGDP := RGDPPC * PQR;
            GDP := sum(RGDP, group by q);
            GDPT := stl_trend(GDP);
            PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
        "#;
        let mut pdr = Vec::new();
        let mut rgdppc = Vec::new();
        for yq in 0..8 {
            let (y, qu) = (2019 + yq / 4, (yq % 4 + 1) as u32);
            for r in ["north", "south"] {
                // two sample days per quarter
                let m = (qu - 1) * 3 + 1;
                pdr.push((vec![day(y, m, 1), DimValue::str(r)], 100.0 + yq as f64));
                pdr.push((vec![day(y, m, 15), DimValue::str(r)], 102.0 + yq as f64));
                rgdppc.push((
                    vec![q(y, qu), DimValue::str(r)],
                    30.0 + yq as f64 + if r == "north" { 5.0 } else { 0.0 },
                ));
            }
        }
        let out = run(src, vec![("PDR", pdr), ("RGDPPC", rgdppc)]);
        let gdp = out.data(&CubeId::new("GDP")).unwrap();
        assert_eq!(gdp.len(), 8);
        // GDP(2019-Q1) = (101 * 35) + (101 * 30)
        assert_eq!(gdp.get(&[q(2019, 1)]), Some(101.0 * 65.0));
        let pchng = out.data(&CubeId::new("PCHNG")).unwrap();
        // PCHNG has no value for the first quarter (no predecessor)
        assert_eq!(pchng.len(), 7);
        assert!(pchng.get(&[q(2019, 1)]).is_none());
        for (_, v) in pchng.iter() {
            assert!(v.is_finite());
        }
    }

    #[test]
    fn missing_input_is_reported() {
        let analyzed =
            analyze(&parse_program("cube A(k: int); B := 2 * A;").unwrap(), &[]).unwrap();
        let err = run_program(&analyzed, &Dataset::new()).unwrap_err();
        assert!(matches!(err, EvalError::MissingInput { .. }));
    }

    #[test]
    fn plain_copy_statement() {
        let out = run(
            "cube A(k: int); B := A;",
            vec![("A", vec![(vec![DimValue::Int(1)], 5.0)])],
        );
        assert_eq!(get(&out, "B", &[DimValue::Int(1)]), Some(5.0));
    }

    #[test]
    fn normalized_program_matches_original() {
        let src = r#"
            cube A(q: quarter);
            B := 100 * (A - shift(A, 1)) / A;
        "#;
        let prog = parse_program(src).unwrap();
        let analyzed = analyze(&prog, &[]).unwrap();
        let norm = analyze(&exl_lang::normalize(&prog), &[]).unwrap();
        let mut input = Dataset::new();
        let tuples: Vec<(DimTuple, f64)> = (1..5)
            .map(|i| (vec![q(2020, i)], 10.0 * i as f64))
            .collect();
        input.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(tuples).unwrap(),
        ));
        let out1 = run_program(&analyzed, &input).unwrap();
        let out2 = run_program(&norm, &input).unwrap();
        let b1 = out1.data(&CubeId::new("B")).unwrap();
        let b2 = out2.data(&CubeId::new("B")).unwrap();
        assert!(b1.approx_eq(b2, 1e-12), "{:?}", b1.diff(b2, 1e-12));
    }

    // ---- typed errors on paths that skip re-analysis ----

    /// Build an environment for `eval_statement` whose cube carries
    /// `data` under the analyzed schema, *without* re-validating — the
    /// shape of data arriving through the delta kernels or cached replay.
    fn raw_env(analyzed: &AnalyzedProgram, cube: &str, data: CubeData) -> Dataset {
        let mut env = Dataset::new();
        env.put(Cube::new(
            analyzed.schemas[&CubeId::new(cube)].clone(),
            data,
        ));
        env
    }

    #[test]
    fn malformed_day_value_in_aggregation_is_a_typed_error() {
        // the schema promises days, the data smuggles in an integer where
        // the date should be: coarsening must fail, not panic
        let analyzed = analyze(
            &parse_program("cube P(d: day); Q := avg(P, group by quarter(d) as q);").unwrap(),
            &[],
        )
        .unwrap();
        let data = CubeData::from_tuples(vec![(vec![DimValue::Int(20200132)], 1.0)]).unwrap();
        let env = raw_env(&analyzed, "P", data);
        let err = eval_statement(&analyzed.program.statements[0], &env).unwrap_err();
        assert!(matches!(err, EvalError::BadTimeValue { .. }), "{err}");
        assert!(err.to_string().contains("not a time point"), "{err}");
    }

    #[test]
    fn non_coarsenable_time_point_is_a_typed_error() {
        // a yearly point cannot be coarsened to quarters: the conversion
        // is undefined and must surface as an error
        let analyzed = analyze(
            &parse_program("cube P(d: day); Q := sum(P, group by quarter(d) as q);").unwrap(),
            &[],
        )
        .unwrap();
        let data = CubeData::from_tuples(vec![(vec![DimValue::Time(TimePoint::Year(2020))], 1.0)])
            .unwrap();
        let env = raw_env(&analyzed, "P", data);
        let err = eval_statement(&analyzed.program.statements[0], &env).unwrap_err();
        assert!(matches!(err, EvalError::BadTimeValue { .. }), "{err}");
        assert!(err.to_string().contains("cannot be coarsened"), "{err}");
    }

    #[test]
    fn unresolvable_group_key_is_a_typed_error() {
        // the statement groups by a dimension the (stale) schema no
        // longer has — reachable when a cached statement is replayed
        // against a changed catalog without re-analysis
        let analyzed = analyze(
            &parse_program("cube R(q: quarter, r: text); G := sum(R, group by r);").unwrap(),
            &[],
        )
        .unwrap();
        let stale = analyze(
            &parse_program("cube R(q: quarter, z: text); G2 := 2 * R;").unwrap(),
            &[],
        )
        .unwrap();
        let data =
            CubeData::from_tuples(vec![(vec![q(2020, 1), DimValue::str("n")], 1.0)]).unwrap();
        let env = raw_env(&stale, "R", data);
        let err = eval_statement(&analyzed.program.statements[0], &env).unwrap_err();
        assert!(matches!(err, EvalError::InvalidStatement { .. }), "{err}");
    }

    #[test]
    fn statements_without_a_cube_operand_are_typed_errors() {
        // statements that never went through analysis: a constant, and
        // shift, aggregation and series operators over a scalar operand
        use exl_lang::ast::{BinOp, Expr};
        let two = || Box::new(Expr::Number(2.0));
        let exprs = [
            Expr::binary(BinOp::Add, Expr::Number(2.0), Expr::Number(3.0)),
            Expr::Shift {
                arg: two(),
                offset: 1,
                dim: None,
            },
            Expr::Aggregate {
                agg: AggFn::Sum,
                arg: two(),
                group_by: Vec::new(),
            },
            Expr::SeriesFn {
                op: SeriesOp::CumSum,
                arg: two(),
            },
        ];
        for expr in exprs {
            let stmt = Statement {
                target: CubeId::new("A"),
                expr,
                pos: Default::default(),
            };
            let err = eval_statement(&stmt, &Dataset::new()).unwrap_err();
            assert!(matches!(err, EvalError::InvalidStatement { .. }), "{err}");
            let mut session = EvalSession::new();
            let err = session.eval(&stmt).unwrap_err();
            assert!(matches!(err, EvalError::InvalidStatement { .. }), "{err}");
            assert!(!session.is_loaded(&stmt.target));
        }
    }

    // ---- worker containment ----

    #[test]
    fn panicking_worker_surfaces_as_typed_error() {
        let data = big_cube((PAR_MIN_ROWS + 100) as i64);
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let f = |va: f64, vb: f64| va * vb;
        let _guard = exl_fault::install(FaultPlan::panic_once("eval.worker"));
        let err = probe_combine(&batch, &batch, &f, 0.0, 4).unwrap_err();
        assert!(matches!(err, EvalError::WorkerPanicked { .. }), "{err}");
        // the panic was contained: later evaluations on this thread work
        assert!(probe_combine(&batch, &batch, &f, 0.0, 4).is_ok());
    }

    #[test]
    fn injected_worker_fault_surfaces_as_typed_error() {
        let data = big_cube((PAR_MIN_ROWS + 100) as i64);
        let dims = vec![
            Dimension::new("k", exl_model::DimType::Int),
            Dimension::new("g", exl_model::DimType::Str),
        ];
        let group_by = vec![GroupKey::Dim("g".into())];
        let _guard = exl_fault::install(FaultPlan::fail_once("eval.worker"));
        let err = aggregate_data(&data, &dims, &group_by, AggFn::Sum, 4).unwrap_err();
        assert!(matches!(err, EvalError::WorkerPanicked { .. }), "{err}");
    }

    // ---- parallel kernels must be byte-identical to serial ones ----

    fn big_cube(n: i64) -> CubeData {
        let mut data = CubeData::with_capacity(n as usize);
        for i in 0..n {
            // irrational-ish measures so fold order matters at the ulp level
            data.insert_overwrite(
                vec![DimValue::Int(i), DimValue::str(format!("g{}", i % 7))],
                (i as f64).sin() * 1e6 + 0.1,
            );
        }
        data
    }

    fn bits(data: &CubeData) -> Vec<(DimTuple, u64)> {
        let mut v: Vec<(DimTuple, u64)> =
            data.iter().map(|(k, m)| (k.clone(), m.to_bits())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn parallel_probe_combine_matches_serial_bitwise() {
        let data = big_cube((PAR_MIN_ROWS + 100) as i64);
        // a shifted partner so both the hit and the miss paths run
        let mut partner = CubeData::with_capacity(data.len());
        for (k, v) in data.iter() {
            let DimValue::Int(i) = k[0] else {
                unreachable!()
            };
            if i % 3 != 0 {
                partner.insert_overwrite(k.clone(), v.sqrt().abs() + 0.5);
            }
        }
        let mut pool = DimPool::new();
        let a = CubeBatch::from_data(&data, &mut pool);
        let b = CubeBatch::from_data(&partner, &mut pool);
        let f = |va: f64, vb: f64| va / vb;
        let serial = probe_combine(&a, &b, &f, 1.0, 1).unwrap();
        let parallel = probe_combine(&a, &b, &f, 1.0, 4).unwrap();
        assert_eq!(bits(&serial.to_data(&pool)), bits(&parallel.to_data(&pool)));
    }

    #[test]
    fn partitioned_aggregate_matches_serial_bitwise() {
        // bags of ~740 floats per group: any fold-order difference between
        // inline and fanned-out phases would show in the low bits (with 17
        // partitions there are more workers than groups)
        let data = big_cube((PAR_MIN_ROWS + 1073) as i64);
        let dims = vec![
            Dimension::new("k", exl_model::DimType::Int),
            Dimension::new("g", exl_model::DimType::Str),
        ];
        let group_by = vec![GroupKey::Dim("g".into())];
        let serial = aggregate_data(&data, &dims, &group_by, AggFn::Sum, 1).unwrap();
        assert_eq!(serial.len(), 7);
        for agg in AggFn::ALL {
            let one = aggregate_data(&data, &dims, &group_by, agg, 1).unwrap();
            for partitions in [2, 4, 17] {
                let many = aggregate_data(&data, &dims, &group_by, agg, partitions).unwrap();
                assert_eq!(bits(&one), bits(&many), "{agg} x{partitions}");
            }
        }

        // rows in a fixed order, so chunk boundaries are known: one group
        // has rows in every chunk, one is first seen in the last chunk
        // (the last 300 rows sit in the last chunk for 1..=8 partitions);
        // the parallel scatter must fill each segment as the serial one
        let n = PAR_MIN_ROWS + 1073;
        let parts = [KeyPart::Dim(1)];
        for late in [false, true] {
            let mut pool = DimPool::new();
            let mut batch = CubeBatch::new();
            for i in 0..n {
                let g = match i {
                    _ if late && i >= n - 300 => "late".to_string(),
                    _ if i % 5 == 0 => "every".to_string(),
                    _ => format!("g{}", i % 7),
                };
                let key = [IDim::Int(i as i64), IDim::Sym(pool.intern(&g))];
                batch.push(&key, (i as f64).sin() * 1e6 + 0.1);
            }
            for agg in AggFn::ALL {
                let one = aggregate_batch(&batch, &pool, &parts, agg, 1).unwrap();
                let row_bits = |b: &CubeBatch| -> Vec<(Vec<IDim>, u64)> {
                    b.iter().map(|(k, v)| (k.to_vec(), v.to_bits())).collect()
                };
                for partitions in 2..=8 {
                    let many = aggregate_batch(&batch, &pool, &parts, agg, partitions).unwrap();
                    assert_eq!(
                        row_bits(&many),
                        row_bits(&one),
                        "{agg} x{partitions} late={late}"
                    );
                }
            }
        }
    }

    // ---- the dense and hash paths of the aggregation kernel agree ----

    /// Output rows with their measure bits, in output order.
    fn row_bits(b: &CubeBatch) -> Vec<(Vec<IDim>, u64)> {
        b.iter().map(|(k, v)| (k.to_vec(), v.to_bits())).collect()
    }

    fn epoch_day(days: i32) -> IDim {
        IDim::Time(TimePoint::Day(Date::from_epoch_days(days)))
    }

    /// The path rule's verdicts on a batch: whether its group ids are
    /// dense, and whether its sort codes pack.
    fn verdicts(batch: &CubeBatch, pool: &DimPool, parts: &[KeyPart]) -> (bool, bool) {
        let cols = col_ranges(batch.keys(), 0..batch.len());
        let sort_cols: Vec<usize> = (0..batch.arity())
            .filter(|&c| {
                !parts
                    .iter()
                    .any(|p| matches!(p, KeyPart::Dim(i) if *i == c))
            })
            .collect();
        (
            dense_parts(parts, &cols, batch.len()).is_some(),
            SortPack::new(&sort_cols, &cols, pool).is_some(),
        )
    }

    /// `rows` pushed in a scrambled order, then `extra` last.
    fn scrambled(rows: &[(Vec<IDim>, f64)], extra: Option<&[IDim]>) -> CubeBatch {
        let mut batch = CubeBatch::new();
        for i in 0..rows.len() {
            let (k, v) = &rows[i * 337 % rows.len()];
            batch.push(k, *v);
        }
        if let Some(k) = extra {
            batch.push(k, f64::NAN);
        }
        batch
    }

    #[test]
    fn dense_and_hashed_group_ids_give_the_same_rows() {
        // (k: int, r: text, d: day); 600 rows, scrambled so segments
        // arrive out of key order
        let mut pool = DimPool::new();
        let syms: Vec<IDim> = ["e", "b", "d", "a", "c"]
            .iter()
            .map(|s| IDim::Sym(pool.intern(s)))
            .collect();
        let mut rows = Vec::new();
        for k in 0..6 {
            for (r, &sym) in syms.iter().enumerate() {
                for j in 0..20 {
                    let d = epoch_day(18_262 + (j * 13 + k * 3) % 150);
                    let i = rows.len() as f64;
                    rows.push((
                        vec![IDim::Int(k as i64), sym, d],
                        i.sin() * 1e6 + 0.1 * r as f64,
                    ));
                }
            }
        }
        assert_eq!(rows.len(), 600);
        // the same rows plus one that widens every column's domain: `k`
        // far out, an integer in the text column, a day centuries later;
        // its group is its own, first seen last, and its NaN measure
        // leaves no row unless the fold ignores it (count, stddev)
        let far = [IDim::Int(i64::MIN), IDim::Int(7), epoch_day(230_000)];
        let dense = scrambled(&rows, None);
        let wide = scrambled(&rows, Some(&far));
        let month = KeyPart::TimeMap {
            idx: 2,
            target: Frequency::Monthly,
        };
        // (group key, whether the widened sort codes still pack)
        let cases = [
            (vec![KeyPart::Dim(1)], false),
            (vec![month, KeyPart::Dim(0)], false),
            (vec![KeyPart::Dim(0), KeyPart::Dim(1)], true),
        ];
        for (parts, wide_packs) in &cases {
            assert_eq!(verdicts(&dense, &pool, parts), (true, true));
            assert_eq!(verdicts(&wide, &pool, parts), (false, *wide_packs));
            let far_group: Vec<IDim> = parts
                .iter()
                .map(|p| part_idim(p, &far, &pool).unwrap())
                .collect();
            for agg in AggFn::ALL {
                for partitions in 1..=4 {
                    let want = aggregate_batch(&dense, &pool, parts, agg, partitions).unwrap();
                    let got = aggregate_batch(&wide, &pool, parts, agg, partitions).unwrap();
                    let mut got = row_bits(&got);
                    got.retain(|(k, _)| *k != far_group);
                    assert_eq!(got, row_bits(&want), "{agg} x{partitions}");
                }
            }
        }
    }

    #[test]
    fn dense_and_hashed_group_ids_fail_alike() {
        let far = |width: usize| {
            let mut k = vec![IDim::Int(i64::MIN)];
            k.extend((1..width).map(|_| epoch_day(0)));
            k
        };
        // a quarter cannot be coarsened to a month: every row fails, and
        // the error names the first row's quarter
        let quarters: Vec<(Vec<IDim>, f64)> = (0..40)
            .map(|i| {
                let q = TimePoint::Quarter {
                    year: 2000 + i / 4,
                    quarter: (i % 4) as u32 + 1,
                };
                (vec![IDim::Int(i as i64 % 3), IDim::Time(q)], i as f64)
            })
            .collect();
        // a day column holding one integer: the error names that row
        let mut mixed: Vec<(Vec<IDim>, f64)> = (0..40)
            .map(|i| (vec![IDim::Int(i % 3), epoch_day(i as i32 * 5)], i as f64))
            .collect();
        mixed[23].0[1] = IDim::Int(99);
        let pool = DimPool::new();
        for (rows, target, want) in [
            (&quarters, Frequency::Monthly, "cannot be coarsened"),
            (&mixed, Frequency::Quarterly, "99 is not a time point"),
        ] {
            let parts = [KeyPart::Dim(0), KeyPart::TimeMap { idx: 1, target }];
            let dense = scrambled(rows, None);
            let wide = scrambled(rows, Some(&far(2)));
            // a key that cannot be resolved sends both to the hash path
            assert!(!verdicts(&dense, &pool, &parts).0);
            assert!(!verdicts(&wide, &pool, &parts).0);
            for partitions in 1..=4 {
                let a = aggregate_batch(&dense, &pool, &parts, AggFn::Sum, partitions);
                let b = aggregate_batch(&wide, &pool, &parts, AggFn::Sum, partitions);
                let a = a.unwrap_err();
                assert!(matches!(a, EvalError::BadTimeValue { .. }), "{a}");
                assert!(a.to_string().contains(want), "{a}");
                assert_eq!(Err(a), b, "x{partitions}");
            }
        }
    }

    // ---- parallel interning must equal a one-worker pass ----

    fn intern_dims() -> Vec<Dimension> {
        vec![
            Dimension::new("k", exl_model::DimType::Int),
            Dimension::new("r", exl_model::DimType::Str),
            Dimension::new("q", exl_model::DimType::Time(Frequency::Quarterly)),
            Dimension::new("s", exl_model::DimType::Str),
        ]
    }

    /// `n` random rows over [`intern_dims`]: strings drawn from a pool
    /// with an empty string, prefixes of one another and non-ASCII text,
    /// so chunk pools disagree about first-seen order.
    fn random_intern_cube(rng: &mut rand::rngs::StdRng, n: usize, salt: &str) -> CubeData {
        use rand::Rng;
        let words = ["", "r1", "r10", "r1 ", "é", "日本", "Ωmega", "r100", "x"];
        let mut data = CubeData::with_capacity(n);
        while data.len() < n {
            let word = |rng: &mut rand::rngs::StdRng| {
                let w = words[rng.gen_range(0..words.len())];
                match rng.gen_range(0..4) {
                    0 => format!("{w}{salt}{}", rng.gen_range(0..500)),
                    _ => w.to_string(),
                }
            };
            let tuple = vec![
                DimValue::Int(rng.gen_range(-1000..1000)),
                DimValue::str(word(rng)),
                q(rng.gen_range(1990..2030), rng.gen_range(1..=4)),
                DimValue::str(word(rng)),
            ];
            data.insert_overwrite(tuple, rng.gen_range(-1e6..1e6));
        }
        data
    }

    fn pool_strings(pool: &DimPool) -> Vec<String> {
        (0..pool.len() as u32)
            .map(|s| pool.resolve(exl_model::Sym(s)).to_string())
            .collect()
    }

    #[test]
    fn parallel_interning_matches_serial() {
        use rand::{Rng, SeedableRng};
        let schema =
            exl_model::CubeSchema::new("C", intern_dims(), exl_model::schema::CubeKind::Elementary);
        let checks = [RowCheck::Schema(&schema), RowCheck::Arity(4)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1a7e);
        for n in [
            PAR_MIN_ROWS - 1,
            PAR_MIN_ROWS,
            PAR_MIN_ROWS + 37,
            3 * PAR_MIN_ROWS + 5,
        ] {
            let first = random_intern_cube(&mut rng, n, "a");
            let second = random_intern_cube(&mut rng, n / 2 + 1, "b");
            for check in checks {
                // the second input goes into the pool the first seeded
                let run = |threads: usize| {
                    let mut pool = DimPool::new();
                    let a = intern_batch(&first, check, &mut pool, threads).unwrap();
                    let b = intern_batch(&second, check, &mut pool, threads).unwrap();
                    (pool_strings(&pool), a, b)
                };
                let (strings, a, b) = run(1);
                assert_eq!((a.len(), a.arity()), (n, 4));
                for threads in [2, 3, 8] {
                    let (s, pa, pb) = run(threads);
                    assert_eq!(s, strings, "n={n} x{threads}: pool order");
                    assert_eq!(pa, a, "n={n} x{threads}: first batch");
                    assert_eq!(pb, b, "n={n} x{threads}: second batch");
                }
            }

            // malformed tuples at random places (one of a wrong arity at
            // least, so both checks fail): the first in storage order
            // decides, for every worker count
            let mut bad = first.clone();
            for i in 0..rng.gen_range(1..4) {
                let kind = if i == 0 { 0 } else { rng.gen_range(0..3) };
                let tuple = match kind {
                    0 => vec![DimValue::Int(rng.gen_range(5000..6000))],
                    1 => vec![
                        DimValue::Int(rng.gen_range(5000..6000)),
                        DimValue::str("r1"),
                        DimValue::Int(7),
                        DimValue::str("x"),
                    ],
                    _ => vec![
                        DimValue::str("é"),
                        DimValue::Int(rng.gen_range(5000..6000)),
                        q(2000, 1),
                        DimValue::str("x"),
                    ],
                };
                bad.insert_overwrite(tuple, 1.0);
            }
            for check in checks {
                let expected = intern_batch(&bad, check, &mut DimPool::new(), 1).unwrap_err();
                for threads in [2, 3, 8] {
                    let got = intern_batch(&bad, check, &mut DimPool::new(), threads).unwrap_err();
                    assert_eq!(got, expected, "n={n} x{threads}");
                }
            }
        }
    }

    // ---- row order through the series kernel ----

    const SERIES_OPS: [SeriesOp; 7] = [
        SeriesOp::StlTrend,
        SeriesOp::StlSeasonal,
        SeriesOp::StlRemainder,
        SeriesOp::MovAvg { window: 3 },
        SeriesOp::CumSum,
        SeriesOp::ZScore,
        SeriesOp::LinTrend,
    ];

    /// `regions` quarterly series of `quarters` points, interned in hash
    /// order (so row order is scrambled with respect to time and region).
    /// Region 0 holds values near `f64::MAX`, so accumulating operators
    /// overflow there and the non-finite rule drops rows mid-operand.
    fn series_operand(regions: usize, quarters: usize) -> (Vec<Dimension>, CubeBatch, DimPool) {
        let mut data = CubeData::with_capacity(regions * quarters);
        for r in 0..regions {
            for i in 0..quarters {
                let v = if r == 0 {
                    f64::MAX / 2.0
                } else {
                    (i as f64 * 0.7 + r as f64).sin() * 100.0 + 500.0
                };
                let t = q(2000 + (i / 4) as i32, (i % 4 + 1) as u32);
                data.insert_overwrite(vec![t, DimValue::str(format!("r{r}"))], v);
            }
        }
        let dims = vec![
            Dimension::new(
                "q",
                exl_model::DimType::Time(exl_model::Frequency::Quarterly),
            ),
            Dimension::new("r", exl_model::DimType::Str),
        ];
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        (dims, batch, pool)
    }

    /// Per-row results computed slice by slice, independently of the
    /// kernel's slicing: `NaN` where the row yields no tuple.
    fn series_reference(op: SeriesOp, batch: &CubeBatch) -> Vec<f64> {
        let mut slices: FxHashMap<IDim, Vec<(TimePoint, usize)>> = FxHashMap::default();
        for (ri, k) in batch.keys().iter().enumerate() {
            let IDim::Time(t) = k[0] else { unreachable!() };
            slices.entry(k[1]).or_default().push((t, ri));
        }
        let mut out = vec![f64::NAN; batch.len()];
        for rows in slices.values_mut() {
            rows.sort();
            let idx: Vec<i64> = rows.iter().map(|(t, _)| t.index()).collect();
            let vals: Vec<f64> = rows.iter().map(|&(_, ri)| batch.measures()[ri]).collect();
            for (&(_, ri), v) in rows.iter().zip(op.apply(&idx, &vals, 4)) {
                out[ri] = if v.is_finite() { v } else { f64::NAN };
            }
        }
        out
    }

    #[test]
    fn series_output_keeps_operand_row_order() {
        // above PAR_MIN_ROWS, so four workers really fan out
        let (dims, batch, pool) = series_operand(41, 120);
        assert!(batch.len() >= PAR_MIN_ROWS);
        for op in SERIES_OPS {
            let expected = series_reference(op, &batch);
            let want_keys: Vec<&[IDim]> = batch
                .keys()
                .iter()
                .zip(&expected)
                .filter(|(_, v)| !v.is_nan())
                .map(|(k, _)| k)
                .collect();
            let want_bits: Vec<u64> = expected
                .iter()
                .filter(|v| !v.is_nan())
                .map(|v| v.to_bits())
                .collect();
            assert!(want_keys.len() < batch.len(), "{op:?}: no row dropped");
            for threads in [1, 4] {
                let out = series_batch(op, &dims, &batch, &pool, threads).unwrap();
                let got_keys: Vec<&[IDim]> = out.keys().iter().collect();
                assert_eq!(got_keys, want_keys, "{op:?} x{threads}: row order");
                let got_bits: Vec<u64> = out.measures().iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "{op:?} x{threads}: values");
            }
        }
    }

    // ---- one checked interning pass ----

    #[test]
    fn malformed_inputs_fail_like_validate_fused_and_unfused() {
        let analyzed = analyze(
            &parse_program("cube A(q: quarter, r: text); B := 2 * A;").unwrap(),
            &[],
        )
        .unwrap();
        let schema = analyzed.schemas[&CubeId::new("A")].clone();
        let good = |i: u32| {
            (
                vec![q(2020, i % 4 + 1), DimValue::str(format!("r{i}"))],
                1.0,
            )
        };
        let bad_arity = (vec![q(2021, 1)], 2.0);
        let bad_type = (vec![DimValue::Int(7), DimValue::str("x")], 3.0);
        let bad_both = (vec![DimValue::Int(8)], 4.0);
        let cases: Vec<Vec<(DimTuple, f64)>> = vec![
            vec![good(0), bad_arity.clone(), good(1)],
            vec![good(0), bad_type.clone(), good(2)],
            // several bad tuples: the first in storage order decides
            (0..64)
                .map(good)
                .chain([bad_arity, bad_type, bad_both])
                .collect(),
        ];
        for tuples in cases {
            let data = CubeData::from_tuples(tuples).unwrap();
            let expected = Cube::new(schema.clone(), data.clone())
                .validate()
                .unwrap_err();
            let mut input = Dataset::new();
            input.put(Cube::new(schema.clone(), data));
            let fused = run_program(&analyzed, &input).unwrap_err();
            let unfused = run_program_unfused(&analyzed, &input).unwrap_err();
            assert_eq!(fused, EvalError::Model(expected.clone()));
            assert_eq!(unfused, EvalError::Model(expected));
        }
    }

    #[test]
    fn boundary_counters_count_input_and_output_rows() {
        let analyzed = analyze(
            &parse_program("cube A(q: quarter); B := 2 * A; C := B + A;").unwrap(),
            &[],
        )
        .unwrap();
        let tuples: Vec<(DimTuple, f64)> = (1..5).map(|i| (vec![q(2020, i)], i as f64)).collect();
        let mut input = Dataset::new();
        input.put(Cube::new(
            analyzed.schemas[&CubeId::new("A")].clone(),
            CubeData::from_tuples(tuples).unwrap(),
        ));
        let (_, fused) = run_program_with_stats(&analyzed, &input).unwrap();
        let (_, unfused) = run_compiled(&analyzed, &input, 1, false).unwrap();
        for (stats, label) in [(fused, "fused"), (unfused, "unfused")] {
            assert_eq!(stats.intern_rows, 4, "{label}");
            assert_eq!(stats.to_data_rows, 8, "{label}");
        }
    }

    #[test]
    fn mixed_arity_aggregation_operand_is_a_typed_error() {
        // unvalidated data (delta paths) can break the one-arity contract;
        // a flat key column cannot hold ragged rows, so interning refuses
        let data = CubeData::from_tuples(vec![
            (vec![DimValue::Int(1), DimValue::str("a")], 1.0),
            (vec![DimValue::Int(2)], 2.0),
        ])
        .unwrap();
        let dims = vec![
            Dimension::new("k", exl_model::DimType::Int),
            Dimension::new("g", exl_model::DimType::Str),
        ];
        let group_by = vec![GroupKey::Dim("k".into())];
        for partitions in [1, 2] {
            let err = aggregate_data(&data, &dims, &group_by, AggFn::Sum, partitions).unwrap_err();
            assert!(matches!(err, EvalError::InvalidStatement { .. }), "{err}");
        }

        // statement evaluation fails the same way whatever operator reads
        // the cube, instead of mapping the row through (scalar maps) or
        // misreporting it as a bad time value (shift, series)
        let analyzed = analyze(
            &parse_program(
                "cube W(q: quarter, r: text); A := 2 * W; S := shift(W, 1); \
                 M := movavg(W, 2); G := sum(W, group by r);",
            )
            .unwrap(),
            &[],
        )
        .unwrap();
        let data = CubeData::from_tuples(vec![
            (vec![q(2020, 1), DimValue::str("n")], 1.0),
            (vec![q(2020, 2), DimValue::str("n")], 2.0),
            (vec![q(2020, 3)], 3.0),
        ])
        .unwrap();
        let env = raw_env(&analyzed, "W", data);
        for stmt in &analyzed.program.statements {
            let err = eval_statement(stmt, &env).unwrap_err();
            assert!(
                matches!(err, EvalError::InvalidStatement { .. }),
                "{}: {err}",
                stmt.target
            );
            assert!(err.to_string().contains("row has 1 dimensions"), "{err}");
        }
    }

    #[test]
    fn failed_session_load_surfaces_at_eval() {
        // `EvalSession::load` records a ragged cube instead of failing;
        // every statement reading it then returns the typed error
        let analyzed = analyze(
            &parse_program("cube W(k: int, r: text); A := 2 * W;").unwrap(),
            &[],
        )
        .unwrap();
        let data = CubeData::from_tuples(vec![
            (vec![DimValue::Int(1), DimValue::str("n")], 1.0),
            (vec![DimValue::Int(2)], 2.0),
        ])
        .unwrap();
        let dims = analyzed.schemas[&CubeId::new("W")].dims.clone();
        let mut session = EvalSession::new();
        session.load(CubeId::new("W"), dims.clone(), &data);
        assert!(session.is_loaded(&CubeId::new("W")));
        let err = session.eval(&analyzed.program.statements[0]).unwrap_err();
        assert!(matches!(err, EvalError::InvalidStatement { .. }), "{err}");
        assert!(session.resolve(&CubeId::new("A")).is_none());
        // a good reload replaces the failure
        let good =
            CubeData::from_tuples(vec![(vec![DimValue::Int(1), DimValue::str("n")], 1.0)]).unwrap();
        session.load(CubeId::new("W"), dims, &good);
        session.eval(&analyzed.program.statements[0]).unwrap();
        assert_eq!(
            session
                .resolve(&CubeId::new("A"))
                .unwrap()
                .get(&[DimValue::Int(1), DimValue::str("n")]),
            Some(2.0)
        );
    }
}
