//! Expression and program evaluation.
//!
//! The evaluator executes on columnar batches ([`CubeBatch`]): each run
//! owns an [`EvalSession`] with a run-local [`DimPool`], every operand
//! cube is interned into a batch once, and derived batches cross
//! statement boundaries as-is — downstream statements probe and group on
//! flat `Copy` keys without re-hashing strings or materializing
//! intermediate hash maps of [`DimTuple`]s. Hash-stored [`CubeData`] is
//! produced only at the session boundary ([`EvalSession::resolve`]).
//!
//! Aggregation is one partition-then-fold kernel for every worker count
//! (`aggregate_batch`). Workers resolve group keys over contiguous row
//! chunks in parallel; one serial pass numbers the groups in first-seen
//! order and scatters each row's sort-key columns and measure into its
//! group's contiguous segment; workers then fold ranges of groups in
//! parallel, each segment sorted by full input key and replayed through
//! [`ExactState`] — the former sorted-map evaluator's fold order — so
//! every float is bit-identical for any worker count (pinned against a
//! `DimTuple`-sorted reference by the interned differential suite).
//!
//! Tuple-level operators, group-by partitions, and series slices fan out
//! across [`std::thread::scope`] workers when the machine has more than
//! one core and the operand is large enough (`PAR_MIN_ROWS`). A worker
//! that panics (or trips the `eval.worker` fault site) surfaces as
//! [`EvalError::WorkerPanicked`] — a typed, per-statement error the
//! supervisor can contain — never as a re-panic in the caller.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

use exl_lang::analyze::AnalyzedProgram;
use exl_lang::ast::{Expr, GroupKey, JoinPolicy, Statement};
use exl_model::batch::CubeBatch;
use exl_model::hash::{FxHashMap, FxHasher};
use exl_model::intern::{DimPool, IDim, IKey};
use exl_model::schema::{CubeId, Dimension};
use exl_model::time::Frequency;
use exl_model::value::DimValue;
use exl_model::{Cube, CubeData, Dataset, DimTuple};
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;
use exl_stats::state::{AggState, ExactState};

use crate::error::EvalError;

/// Minimum operand rows before an operator fans out across threads.
pub(crate) const PAR_MIN_ROWS: usize = 4096;

/// Worker count for data-parallel operators (1 on single-core machines,
/// capped so oversubscription never pays for thread spawns it cannot use).
/// `EXL_EVAL_THREADS` overrides the probe — pinning worker counts for
/// reproducing parallel-path behavior on any machine. Canonical fold
/// order makes the setting invisible in the results: every float is
/// bit-identical for any worker count.
pub(crate) fn workers() -> usize {
    if let Some(n) = THREAD_OVERRIDE.get() {
        return n.max(1);
    }
    if let Some(n) = std::env::var("EXL_EVAL_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

thread_local! {
    /// Per-run worker-count override installed by [`run_program_opts`]
    /// for the duration of the run. Thread-local rather than process
    /// global: the sharded dispatcher runs several evaluations
    /// concurrently with different counts, and a process-global setting
    /// (like the old `EXL_NO_FUSION` env toggle) would race under the
    /// parallel test harness.
    static THREAD_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// RAII restore of the thread-local worker override.
struct ThreadsGuard(Option<usize>);

impl ThreadsGuard {
    fn install(n: Option<usize>) -> ThreadsGuard {
        let prev = THREAD_OVERRIDE.get();
        if n.is_some() {
            THREAD_OVERRIDE.set(n);
        }
        ThreadsGuard(prev)
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.set(self.0);
    }
}

/// Per-run evaluation options.
///
/// Both switches default to the fast path and exist so that callers — the
/// engine dispatcher, differential tests, `exlc` — can pin behavior *per
/// run* instead of through process-global environment variables, which
/// race under a parallel test harness. `exlc` still reads `EXL_NO_FUSION`
/// and `EXL_EVAL_THREADS` as CLI-level defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Skip plan compilation and run the statement-at-a-time reference
    /// evaluator. Bit-identical results either way.
    pub no_fusion: bool,
    /// Fixed worker count for data-parallel operators; `None` probes the
    /// machine (capped at 8). Canonical fold order makes the setting
    /// invisible in results.
    pub threads: Option<usize>,
}

/// Seasonal period implied by a time frequency, shared by every backend so
/// that `stl_*` means the same thing everywhere.
pub fn series_period(freq: Frequency) -> usize {
    exl_model::TimePoint::periods_per_year(freq)
}

/// One evaluation run's working set: a run-local interning pool plus the
/// columnar batch of every cube loaded or derived so far.
///
/// The engine's dispatcher keeps one session per recomputation and feeds
/// each statement's result to the next without leaving the interned
/// representation; [`run_program`] does the same internally. Loading is
/// idempotent per id (a reload replaces the batch), and
/// [`EvalSession::resolve`] converts a batch back to hash storage at the
/// boundary.
#[derive(Debug, Default)]
pub struct EvalSession {
    pub(crate) pool: DimPool,
    pub(crate) cubes: FxHashMap<CubeId, SessionCube>,
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

    /// Intern a cube's data into the session, replacing any batch already
    /// stored under `id`.
    pub fn load(&mut self, id: CubeId, dims: Vec<Dimension>, data: &CubeData) {
        let batch = CubeBatch::from_data(data, &mut self.pool);
        self.cubes.insert(id, SessionCube { dims, batch });
    }

    /// True when `id` already has a batch in this session.
    pub fn is_loaded(&self, id: &CubeId) -> bool {
        self.cubes.contains_key(id)
    }

    /// Evaluate one statement over the loaded batches and store the
    /// result batch under the statement's target. Every cube the
    /// expression references must have been loaded (or derived) first.
    pub fn eval(&mut self, stmt: &Statement) -> Result<(), EvalError> {
        // governance checkpoint at the statement boundary: a cancelled or
        // over-budget run stops before the next batch is materialized
        exl_fault::govern::checkpoint()?;
        let (dims, batch) = match eval_expr(&stmt.expr, self)? {
            BVal::Batch { dims, batch } => (dims, batch.into_owned()),
            BVal::Scalar(_) => unreachable!("analysis rejects constant statements"),
        };
        exl_fault::govern::charge(
            batch.len() as u64,
            exl_fault::govern::approx_cube_bytes(batch.len() as u64, dims.len() as u64),
        );
        self.cubes
            .insert(stmt.target.clone(), SessionCube { dims, batch });
        Ok(())
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
/// before execution; [`run_program_opts`] with
/// [`EvalOptions::no_fusion`] falls back to the statement-at-a-time
/// evaluator. Both paths produce bit-identical results — the escape
/// hatch exists for differential testing and for isolating fusion when
/// debugging.
pub fn run_program(analyzed: &AnalyzedProgram, input: &Dataset) -> Result<Dataset, EvalError> {
    run_program_opts(analyzed, input, EvalOptions::default())
}

/// [`run_program`] with explicit per-run [`EvalOptions`].
pub fn run_program_opts(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    opts: EvalOptions,
) -> Result<Dataset, EvalError> {
    run_program_with_stats_opts(analyzed, input, opts).map(|(env, _)| env)
}

/// [`run_program`] variant that also reports the compiled plan's
/// statistics (regions formed, statements fused, CSE reuses, bytes not
/// materialized) so dispatchers can surface them as metrics.
pub fn run_program_with_stats(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
) -> Result<(Dataset, crate::plan::PlanStats), EvalError> {
    run_program_with_stats_opts(analyzed, input, EvalOptions::default())
}

/// [`run_program_with_stats`] with explicit per-run [`EvalOptions`].
/// Unfused runs return zeroed stats.
pub fn run_program_with_stats_opts(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    opts: EvalOptions,
) -> Result<(Dataset, crate::plan::PlanStats), EvalError> {
    let _threads = ThreadsGuard::install(opts.threads);
    if opts.no_fusion {
        let env = run_program_unfused(analyzed, input)?;
        return Ok((env, crate::plan::PlanStats::default()));
    }
    run_program_fused(analyzed, input)
}

/// Statement-at-a-time evaluation: every intermediate cube is
/// materialized as its own batch. This is the reference semantics the
/// fused plan must reproduce bit for bit, kept public for differential
/// tests and the `B1/execute-native-unfused` bench guard.
pub fn run_program_unfused(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
) -> Result<Dataset, EvalError> {
    let mut env = Dataset::new();
    let mut session = EvalSession::new();
    // load and validate elementary inputs
    for id in analyzed.elementary_inputs() {
        let cube = input.get(&id).ok_or_else(|| EvalError::MissingInput {
            cube: id.to_string(),
        })?;
        let mut checked = cube.clone();
        checked.schema = analyzed.schemas[&id].clone();
        checked.validate()?;
        session.load(id.clone(), checked.schema.dims.clone(), &checked.data);
        env.put(checked);
    }
    // last statement index referencing each cube: a batch whose last
    // reader has run is dead weight (its hash storage already lives in
    // `env`), and evicting it keeps the session's footprint proportional
    // to the program's live width instead of its length
    let mut last_use: FxHashMap<CubeId, usize> = FxHashMap::default();
    for (i, stmt) in analyzed.program.statements.iter().enumerate() {
        for id in stmt.expr.cube_refs() {
            last_use.insert(id, i);
        }
    }
    for (i, stmt) in analyzed.program.statements.iter().enumerate() {
        session.eval(stmt)?;
        let data = session.resolve(&stmt.target).expect("target just derived");
        let schema = analyzed.schemas[&stmt.target].clone();
        env.put(Cube::new(schema, data));
        session
            .cubes
            .retain(|id, _| last_use.get(id).is_some_and(|&l| l > i));
    }
    Ok(env)
}

/// Fused execution: compile the program into a region plan, then run
/// regions in statement order. Single-consumer map/shift/probe chains
/// execute as one streaming pass with no intermediate materialization;
/// barriers (aggregation, series, outer joins) and statement targets
/// still materialize. Governance parity with the unfused path: one
/// checkpoint per statement turn (plus one per region, so cancellation
/// lands between fused regions too) and one `charge` per statement at
/// the statement's output size.
fn run_program_fused(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
) -> Result<(Dataset, crate::plan::PlanStats), EvalError> {
    use crate::plan::{self, CNode, Region, Step};

    let plan = plan::compile(analyzed, &analyzed.program.statements)?;
    let mut env = Dataset::new();
    let mut session = EvalSession::new();
    for id in analyzed.elementary_inputs() {
        let cube = input.get(&id).ok_or_else(|| EvalError::MissingInput {
            cube: id.to_string(),
        })?;
        let mut checked = cube.clone();
        checked.schema = analyzed.schemas[&id].clone();
        checked.validate()?;
        session.load(id.clone(), checked.schema.dims.clone(), &checked.data);
        env.put(checked);
    }
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
    let mut stats = plan.stats;
    let threads = workers();
    let mut cursor = 0usize;
    for (i, stmt) in analyzed.program.statements.iter().enumerate() {
        exl_fault::govern::checkpoint()?;
        let node_end = plan.stmt_node_end[i];
        while cursor < plan.regions.len() && plan.regions[cursor].out() < node_end {
            // a region boundary is a cancellation point even when several
            // regions serve one statement
            exl_fault::govern::checkpoint()?;
            let region = &plan.regions[cursor];
            let out = match region {
                Region::Stream(sr) => {
                    let base = resolve_node(&plan, &store, &session, sr.base)?;
                    let mut probes: Vec<(plan::NodeId, &CubeBatch)> = Vec::new();
                    for step in &sr.steps {
                        if let Step::Probe { input, .. } = step {
                            probes.push((*input, resolve_node(&plan, &store, &session, *input)?));
                        }
                    }
                    let rows = base.len() as u64;
                    let out = plan::run_stream(sr, base, &probes, &session.pool, threads)?;
                    stats.bytes_not_materialized += sr.fused
                        * exl_fault::govern::approx_cube_bytes(
                            rows,
                            plan.dims[sr.out].len() as u64,
                        );
                    out
                }
                Region::Combine {
                    out: _,
                    op,
                    default,
                    lhs,
                    rhs,
                } => {
                    let a = resolve_node(&plan, &store, &session, *lhs)?;
                    let b = resolve_node(&plan, &store, &session, *rhs)?;
                    let op = *op;
                    probe_combine(
                        Cow::Borrowed(a),
                        b,
                        &move |va, vb| op.apply(va, vb),
                        &JoinPolicy::Outer { default: *default },
                        threads,
                    )?
                }
                Region::Aggregate {
                    out: _,
                    arg,
                    agg,
                    group_by,
                } => {
                    let batch = resolve_node(&plan, &store, &session, *arg)?;
                    let parts = key_parts(&plan.dims[*arg], group_by)?;
                    let partitions = if batch.len() < PAR_MIN_ROWS {
                        1
                    } else {
                        threads
                    };
                    aggregate_batch(batch, &session.pool, &parts, *agg, partitions)?
                }
                Region::Series { out: _, arg, op } => {
                    let batch = resolve_node(&plan, &store, &session, *arg)?;
                    series_batch(*op, &plan.dims[*arg], batch, &session.pool, threads)?
                }
            };
            store[region.out()] = Some(out);
            cursor += 1;
        }
        let (_, root) = plan.roots[i];
        let batch = resolve_node(&plan, &store, &session, root)?;
        exl_fault::govern::charge(
            batch.len() as u64,
            exl_fault::govern::approx_cube_bytes(batch.len() as u64, plan.dims[root].len() as u64),
        );
        let data = batch.to_data(&session.pool);
        let schema = analyzed.schemas[&stmt.target].clone();
        env.put(Cube::new(schema, data));
        session
            .cubes
            .retain(|id, _| source_last_use.get(id).is_some_and(|&l| l > i));
        for (n, slot) in store.iter_mut().enumerate() {
            if slot.is_some() && plan.last_use_stmt[n] <= i {
                *slot = None;
            }
        }
    }
    Ok((env, stats))
}

/// Borrow the batch a plan node resolved to: sources live in the
/// session, every other node in the region store.
fn resolve_node<'a>(
    plan: &crate::plan::CompiledPlan,
    store: &'a [Option<CubeBatch>],
    session: &'a EvalSession,
    n: crate::plan::NodeId,
) -> Result<&'a CubeBatch, EvalError> {
    match &plan.nodes[n] {
        crate::plan::CNode::Source(id) => {
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
    let mut session = EvalSession::new();
    for id in stmt.expr.cube_refs() {
        let cube = env.get(&id).ok_or_else(|| EvalError::MissingInput {
            cube: id.to_string(),
        })?;
        session.load(id.clone(), cube.schema.dims.clone(), &cube.data);
    }
    session.eval(stmt)?;
    Ok(session.resolve(&stmt.target).expect("target just derived"))
}

/// Evaluation result of an expression: a bare scalar or a batch with its
/// dimensions. Cube operands borrow straight from the session.
enum BVal<'a> {
    Scalar(f64),
    Batch {
        dims: Vec<Dimension>,
        batch: Cow<'a, CubeBatch>,
    },
}

fn eval_expr<'a>(expr: &Expr, s: &'a EvalSession) -> Result<BVal<'a>, EvalError> {
    match expr {
        Expr::Number(n) => Ok(BVal::Scalar(*n)),
        Expr::Cube(id) => {
            let cube = s.cubes.get(id).ok_or_else(|| EvalError::MissingInput {
                cube: id.to_string(),
            })?;
            Ok(BVal::Batch {
                dims: cube.dims.clone(),
                batch: Cow::Borrowed(&cube.batch),
            })
        }
        Expr::Unary { op, arg } => match eval_expr(arg, s)? {
            BVal::Scalar(v) => Ok(BVal::Scalar(op.apply(v))),
            BVal::Batch { dims, batch } => {
                let out = map_measures(batch, &|v| op.apply(v), workers())?;
                Ok(BVal::Batch {
                    dims,
                    batch: Cow::Owned(out),
                })
            }
        },
        Expr::Binary {
            op,
            policy,
            lhs,
            rhs,
        } => {
            let l = eval_expr(lhs, s)?;
            let r = eval_expr(rhs, s)?;
            match (l, r) {
                (BVal::Scalar(a), BVal::Scalar(b)) => Ok(BVal::Scalar(op.apply(a, b))),
                (BVal::Scalar(a), BVal::Batch { dims, batch }) => {
                    let out = map_measures(batch, &|v| op.apply(a, v), workers())?;
                    Ok(BVal::Batch {
                        dims,
                        batch: Cow::Owned(out),
                    })
                }
                (BVal::Batch { dims, batch }, BVal::Scalar(b)) => {
                    let out = map_measures(batch, &|v| op.apply(v, b), workers())?;
                    Ok(BVal::Batch {
                        dims,
                        batch: Cow::Owned(out),
                    })
                }
                (BVal::Batch { dims, batch: a }, BVal::Batch { batch: b, .. }) => {
                    let out = probe_combine(a, &b, &|va, vb| op.apply(va, vb), policy, workers())?;
                    Ok(BVal::Batch {
                        dims,
                        batch: Cow::Owned(out),
                    })
                }
            }
        }
        Expr::Shift { arg, offset, dim } => {
            let BVal::Batch { dims, batch } = eval_expr(arg, s)? else {
                unreachable!("analysis rejects shift on scalars")
            };
            let idx = resolve_time_index(&dims, dim.as_deref())?;
            let offset = *offset;
            // shift is injective on its axis, so keys cannot collide;
            // uniquely-owned keys rewrite in place, shared ones (the key
            // `Arc` is aliased by another batch) reallocate once
            let mut out = batch.into_owned();
            for k in out.keys_mut() {
                let shifted = match k[idx] {
                    IDim::Time(t) => IDim::Time(t.shift(offset)),
                    // §3: shift is "a sum on the values of a numeric dimension"
                    IDim::Int(i) => IDim::Int(i + offset),
                    other => {
                        return Err(EvalError::BadTimeValue {
                            cube: "<shift operand>".into(),
                            detail: format!(
                                "value {} cannot be shifted",
                                s.pool.resolve_value(other)
                            ),
                        })
                    }
                };
                match std::sync::Arc::get_mut(k) {
                    Some(slice) => slice[idx] = shifted,
                    None => {
                        let mut fresh: Vec<IDim> = k.iter().copied().collect();
                        fresh[idx] = shifted;
                        *k = fresh.into();
                    }
                }
            }
            Ok(BVal::Batch {
                dims,
                batch: Cow::Owned(out),
            })
        }
        Expr::Aggregate { agg, arg, group_by } => {
            let BVal::Batch { dims, batch } = eval_expr(arg, s)? else {
                unreachable!("analysis rejects aggregation of scalars")
            };
            let parts = key_parts(&dims, group_by)?;
            // output dimensions, derived from the resolved key parts so a
            // statement that reaches us without re-analysis fails above,
            // in key_parts, instead of panicking here
            let out_dims: Vec<Dimension> = group_by
                .iter()
                .zip(&parts)
                .map(|(g, p)| match (g, p) {
                    (GroupKey::TimeMap { target, alias, .. }, _) => {
                        Dimension::new(alias.clone(), exl_model::DimType::Time(*target))
                    }
                    (_, KeyPart::Dim(i)) => dims[*i].clone(),
                    _ => unreachable!("key parts mirror group keys"),
                })
                .collect();
            let partitions = if batch.len() < PAR_MIN_ROWS {
                1
            } else {
                workers()
            };
            let out = aggregate_batch(&batch, &s.pool, &parts, *agg, partitions)?;
            Ok(BVal::Batch {
                dims: out_dims,
                batch: Cow::Owned(out),
            })
        }
        Expr::SeriesFn { op, arg } => {
            let BVal::Batch { dims, batch } = eval_expr(arg, s)? else {
                unreachable!("analysis rejects series operators on scalars")
            };
            let out = series_batch(*op, &dims, &batch, &s.pool, workers())?;
            Ok(BVal::Batch {
                dims,
                batch: Cow::Owned(out),
            })
        }
    }
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

/// Apply a pure measure transform to a batch **in place**: keys are
/// untouched, measures are rewritten (fanning out across `threads`
/// workers for large operands), and rows whose result is non-finite are
/// dropped afterwards (the §3 partiality rule). Borrowed operands pay
/// one column clone; owned intermediates pay nothing but the arithmetic —
/// no key clones, no index build.
fn map_measures(
    batch: Cow<'_, CubeBatch>,
    f: &(dyn Fn(f64) -> f64 + Sync),
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    let mut out = batch.into_owned();
    let chunk = chunk_len(out.len(), threads);
    fan_out(
        out.measures_mut().chunks_mut(chunk).collect(),
        &|mc: &mut [f64]| {
            for v in mc.iter_mut() {
                *v = f(*v);
            }
            Ok(())
        },
    )?;
    out.retain_finite();
    Ok(out)
}

/// Vectorial binary operator: stream the left side, probe the right, and
/// write each combined measure back **in place** over the left operand's
/// columns. An inner-join miss marks the row `NaN`, which the final
/// [`CubeBatch::retain_finite`] sweep removes together with non-finite
/// results (the §3 partiality rule — both are "no tuple"). For an outer
/// join the anti side (right keys the left never had) is collected
/// *before* the sweep, while the batch still holds every left key, and
/// appended after.
pub(crate) fn probe_combine(
    a: Cow<'_, CubeBatch>,
    b: &CubeBatch,
    f: &(dyn Fn(f64, f64) -> f64 + Sync),
    policy: &JoinPolicy,
    threads: usize,
) -> Result<CubeBatch, EvalError> {
    b.ensure_indexed();
    let miss = match policy {
        JoinPolicy::Inner => f64::NAN,
        JoinPolicy::Outer { default } => *default,
    };
    let mut out = a.into_owned();
    let (keys, measures) = out.columns_mut();
    let combine = |k: &IKey, va: f64| match b.get(k) {
        Some(vb) => f(va, vb),
        None if miss.is_nan() => f64::NAN,
        None => f(va, miss),
    };
    let chunk = chunk_len(keys.len(), threads);
    fan_out(
        keys.chunks(chunk).zip(measures.chunks_mut(chunk)).collect(),
        &|(kc, mc): (&[IKey], &mut [f64])| {
            for (k, v) in kc.iter().zip(mc.iter_mut()) {
                *v = combine(k, *v);
            }
            Ok(())
        },
    )?;
    if let JoinPolicy::Outer { default } = policy {
        // anti side, probed against the still-complete left key set;
        // buffered so the appends don't invalidate the probe index mid-loop
        out.ensure_indexed();
        let mut extra = Vec::new();
        for (k, vb) in b.iter() {
            if !out.contains(k) {
                let r = f(*default, vb);
                if r.is_finite() {
                    extra.push((k.clone(), r));
                }
            }
        }
        for (k, r) in extra {
            out.push(k, r);
        }
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

/// Chunk length that fans `n` rows out across `threads` workers, or one
/// chunk for everything when the operand is too small to pay for threads.
fn chunk_len(n: usize, threads: usize) -> usize {
    if threads <= 1 || n < PAR_MIN_ROWS {
        n.max(1)
    } else {
        n.div_ceil(threads)
    }
}

/// Dense group ids in first-seen order over strided group keys, with a
/// row count per group: a hash index to the first group of each hash,
/// collisions chained through `next`.
struct GroupTable {
    stride: usize,
    keys: Vec<IDim>,
    counts: Vec<usize>,
    next: Vec<u32>,
    index: FxHashMap<u64, u32>,
}

impl GroupTable {
    const NONE: u32 = u32::MAX;

    fn new(stride: usize) -> GroupTable {
        GroupTable {
            stride,
            keys: Vec::new(),
            counts: Vec::new(),
            next: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    fn key(&self, g: usize) -> &[IDim] {
        &self.keys[g * self.stride..(g + 1) * self.stride]
    }

    /// Count `rows` more rows in `key`'s group, opening the group on first
    /// sight; returns the group's id.
    fn add(&mut self, key: &[IDim], rows: usize) -> u32 {
        let fresh = self.counts.len() as u32;
        let mut g = *self.index.entry(fx_hash(key)).or_insert(fresh);
        if g != fresh {
            loop {
                if self.key(g as usize) == key {
                    self.counts[g as usize] += rows;
                    return g;
                }
                match self.next[g as usize] {
                    GroupTable::NONE => {
                        self.next[g as usize] = fresh;
                        break;
                    }
                    n => g = n,
                }
            }
        }
        self.keys.extend_from_slice(key);
        self.counts.push(rows);
        self.next.push(GroupTable::NONE);
        fresh
    }
}

/// Group-by aggregation over a batch: one kernel for every worker count,
/// in four phases.
///
/// 1. Contiguous row chunks, in parallel, resolve each row's group key
///    ([`part_idim`]) and number it in a chunk-local [`GroupTable`]; each
///    row keeps only its local id.
/// 2. One serial pass merges the chunk tables, in chunk order, into dense
///    global ids — so groups are numbered in first-seen row order.
/// 3. A counting-sort scatter copies each row's sort columns and measure
///    into its group's contiguous segment, freeing each chunk's ids as it
///    goes. The sort columns are the full input key minus the dimensions
///    the group key passes through, which are equal within a group.
/// 4. Ranges of groups, in parallel, sort each segment by those local
///    copies ([`DimPool::cmp_keys`]) and replay [`ExactState`] in that
///    order.
///
/// Each group thus folds in full-input-key order — the former sorted-map
/// evaluator's order — so every float is bit-identical for any
/// `partitions`, and output rows come in first-seen group order.
pub(crate) fn aggregate_batch(
    batch: &CubeBatch,
    pool: &DimPool,
    parts: &[KeyPart],
    agg: AggFn,
    partitions: usize,
) -> Result<CubeBatch, EvalError> {
    let keys = batch.keys();
    let measures = batch.measures();
    let n = keys.len();
    let Some(width) = keys.first().map(|k| k.len()) else {
        return Ok(CubeBatch::new());
    };
    let stride = parts.len();
    let partitions = partitions.max(1);

    // phase 1: chunk-local group ids
    let chunks = fan_out(row_ranges(n, partitions), &|rows: Range<usize>| {
        let mut table = GroupTable::new(stride);
        let mut ids: Vec<u32> = Vec::with_capacity(rows.len());
        let mut scratch: Vec<IDim> = Vec::with_capacity(stride);
        for k in &keys[rows] {
            if k.len() != width {
                return Err(EvalError::InvalidStatement {
                    detail: format!(
                        "row has {} dimensions, the operand's first row has {width}",
                        k.len()
                    ),
                });
            }
            scratch.clear();
            for p in parts {
                scratch.push(part_idim(p, k, pool)?);
            }
            ids.push(table.add(&scratch, 1));
        }
        Ok((table, ids))
    })?;

    // phase 2: global ids, merged in chunk order
    let mut groups = GroupTable::new(stride);
    let remaps: Vec<Vec<u32>> = chunks
        .iter()
        .map(|(local, _)| {
            (0..local.counts.len())
                .map(|l| groups.add(local.key(l), local.counts[l]))
                .collect()
        })
        .collect();

    // phase 3: counting-sort scatter into contiguous group segments; only
    // order-sensitive folds sort, so `count` copies no key columns
    let sort_rows = ExactState::order_sensitive(agg);
    let sort_cols: Vec<usize> = (0..width)
        .filter(|&c| {
            sort_rows
                && !parts
                    .iter()
                    .any(|p| matches!(p, KeyPart::Dim(i) if *i == c))
        })
        .collect();
    let w = sort_cols.len();
    let n_groups = groups.counts.len();
    let mut offsets: Vec<usize> = Vec::with_capacity(n_groups + 1);
    offsets.push(0);
    for &c in &groups.counts {
        offsets.push(offsets[offsets.len() - 1] + c);
    }
    let mut cursor: Vec<usize> = offsets[..n_groups].to_vec();
    let mut seg_keys: Vec<IDim> = vec![IDim::Int(0); n * w];
    let mut seg_vals: Vec<f64> = vec![0.0; n];
    let mut ri = 0;
    for ((_, ids), remap) in chunks.into_iter().zip(&remaps) {
        for l in ids {
            let g = remap[l as usize] as usize;
            let at = cursor[g];
            cursor[g] += 1;
            for (dst, &c) in seg_keys[at * w..(at + 1) * w].iter_mut().zip(&sort_cols) {
                *dst = keys[ri][c];
            }
            seg_vals[at] = measures[ri];
            ri += 1;
        }
    }
    drop(remaps);
    drop(cursor);

    // phase 4: canonical fold per segment, over ranges of about n /
    // partitions rows each
    let cuts: Vec<usize> = (0..=partitions)
        .map(|p| offsets.partition_point(|&o| o < n * p / partitions))
        .collect();
    let group_ranges = cuts
        .windows(2)
        .map(|c| c[0]..c[1])
        .filter(|r| !r.is_empty())
        .collect();
    let folded = fan_out(group_ranges, &|range: Range<usize>| {
        let mut out_keys: Vec<IKey> = Vec::with_capacity(range.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(range.len());
        let mut order: Vec<usize> = Vec::new();
        for g in range {
            order.clear();
            order.extend(offsets[g]..offsets[g + 1]);
            if w > 0 {
                let row = |i: usize| &seg_keys[i * w..(i + 1) * w];
                order.sort_unstable_by(|&a, &b| pool.cmp_keys(row(a), row(b)));
            }
            let mut st = ExactState::init(agg);
            for &i in &order {
                st.accumulate(seg_vals[i]);
            }
            if let Some(v) = st.finish().filter(|v| v.is_finite()) {
                out_keys.push(groups.key(g).into());
                out_vals.push(v);
            }
        }
        Ok((out_keys, out_vals))
    })?;
    let mut out_keys: Vec<IKey> = Vec::with_capacity(n_groups);
    let mut out_vals: Vec<f64> = Vec::with_capacity(n_groups);
    for (k, v) in folded {
        out_keys.extend(k);
        out_vals.extend(v);
    }
    Ok(CubeBatch::from_columns(out_keys, out_vals))
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
    let batch = CubeBatch::from_data(data, &mut pool);
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
    let mut pool = DimPool::new();
    let batch = CubeBatch::from_data(data, &mut pool);
    let out = series_batch(op, dims, &batch, &pool, workers())?;
    Ok(out.to_data(&pool))
}

/// Series-operator kernel over a batch: group row indices into slices by
/// non-time dimension values, sort each slice chronologically, apply the
/// operator positionally. Slices are independent, so large operands fan
/// the per-slice computation out across threads.
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
    let mut slices: FxHashMap<IKey, Vec<(i64, u32)>> = FxHashMap::default();
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
                slices.insert(scratch.as_slice().into(), vec![(t.index(), ri as u32)]);
            }
        }
    }
    let slice_list: Vec<Vec<(i64, u32)>> = slices.into_values().collect();

    let run_slice = |rows: &[(i64, u32)]| -> Vec<(IKey, f64)> {
        let mut rows: Vec<(i64, u32)> = rows.to_vec();
        rows.sort_by_key(|(t, _)| *t);
        let indices: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
        let values: Vec<f64> = rows.iter().map(|(_, ri)| measures[*ri as usize]).collect();
        let result = op.apply(&indices, &values, period);
        rows.into_iter()
            .zip(result)
            .filter(|(_, v)| v.is_finite())
            .map(|((_, ri), v)| (keys[ri as usize].clone(), v))
            .collect()
    };

    let mut out = CubeBatch::with_capacity(batch.len());
    if threads <= 1 || batch.len() < PAR_MIN_ROWS || slice_list.len() < 2 {
        for rows in &slice_list {
            for (k, v) in run_slice(rows) {
                out.push(k, v);
            }
        }
        return Ok(out);
    }
    let chunk = slice_list.len().div_ceil(threads);
    let parts = fan_out(slice_list.chunks(chunk).collect(), &|c: &[Vec<(
        i64,
        u32,
    )>]| {
        Ok(c.iter()
            .flat_map(|rows| run_slice(rows))
            .collect::<Vec<_>>())
    })?;
    for (k, v) in parts.into_iter().flatten() {
        out.push(k, v);
    }
    Ok(out)
}

/// Output dimensions of an aggregation (also used by mapping generation).
pub fn aggregate_out_dims(dims: &[Dimension], group_by: &[GroupKey]) -> Vec<Dimension> {
    group_by
        .iter()
        .map(|k| match k {
            GroupKey::Dim(name) => dims
                .iter()
                .find(|d| &d.name == name)
                .expect("analysis validated keys")
                .clone(),
            GroupKey::TimeMap { target, alias, .. } => {
                Dimension::new(alias.clone(), exl_model::DimType::Time(*target))
            }
        })
        .collect()
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

    // ---- worker containment ----

    #[test]
    fn panicking_worker_surfaces_as_typed_error() {
        let data = big_cube((PAR_MIN_ROWS + 100) as i64);
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let _guard = exl_fault::install(FaultPlan::panic_once("eval.worker"));
        let err = map_measures(Cow::Borrowed(&batch), &|v| v * 2.0, 4).unwrap_err();
        assert!(matches!(err, EvalError::WorkerPanicked { .. }), "{err}");
        // the panic was contained: later evaluations on this thread work
        assert!(map_measures(Cow::Borrowed(&batch), &|v| v * 2.0, 4).is_ok());
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

    /// A no-op fault plan. Every fanned-out worker passes the process-wide
    /// `eval.worker` site, so a test that fans out without holding the
    /// install lock could consume the one-shot fault of a test above;
    /// holding this guard serializes it with them instead.
    fn no_faults() -> exl_fault::FaultGuard {
        exl_fault::install(FaultPlan::fail_once("eval.unused"))
    }

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
    fn parallel_map_measures_matches_serial_bitwise() {
        let _guard = no_faults();
        let data = big_cube((PAR_MIN_ROWS + 100) as i64);
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let f = |v: f64| (v * 1.0000001).ln();
        let serial = map_measures(Cow::Borrowed(&batch), &f, 1).unwrap();
        let parallel = map_measures(Cow::Borrowed(&batch), &f, 4).unwrap();
        assert_eq!(bits(&serial.to_data(&pool)), bits(&parallel.to_data(&pool)));
    }

    #[test]
    fn parallel_probe_combine_matches_serial_bitwise() {
        let _guard = no_faults();
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
        for policy in [JoinPolicy::Inner, JoinPolicy::Outer { default: 1.0 }] {
            let serial = probe_combine(Cow::Borrowed(&a), &b, &f, &policy, 1).unwrap();
            let parallel = probe_combine(Cow::Borrowed(&a), &b, &f, &policy, 4).unwrap();
            assert_eq!(bits(&serial.to_data(&pool)), bits(&parallel.to_data(&pool)));
        }
    }

    #[test]
    fn partitioned_aggregate_matches_serial_bitwise() {
        let _guard = no_faults();
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
    }

    #[test]
    fn mixed_arity_aggregation_operand_is_a_typed_error() {
        let _guard = no_faults();
        // unvalidated data (delta paths) can break the one-arity contract;
        // the kernel copies fixed-width keys, so it refuses instead
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
    }
}
