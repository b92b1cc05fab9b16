//! The sharded dispatcher: data-parallel execution of native subgraphs.
//!
//! Large vintage loads are dominated by a few wide native subgraphs; one
//! evaluator instance per subgraph leaves most of the machine idle. This
//! module partitions a subgraph's *data* instead: every aligned input is
//! hash-split on one dimension's value (`exl_model::shard`, the key
//! chosen by [`exl_eval::plan_shards`]), each shard runs its own instance
//! of the subgraph's shard-local statements under the full dispatch
//! supervisor (panic containment, deadline, retry, per-shard flight and
//! ledger attribution), and per-shard outputs are concatenated in
//! ascending shard order.
//!
//! **Bit-identity.** Shard-local statements are exactly those whose
//! result rows depend only on input rows of the same shard (see
//! `exl_eval::shard` for the operator-by-operator argument), so their
//! per-shard outputs are disjoint and concatenation reproduces the
//! unsharded result set for set semantics. Statements that cross the
//! shard key — aggregations dropping the shard dimension, series over a
//! time shard — form *merge barriers* ([`ShardSegment::Global`]) and run
//! once over the concatenated data, where the order-insensitive
//! aggregation kernels keep floats bit-identical for any shard count.
//! The shard-invariance differential suite pins shards ∈ {1, 2, 4, 8}
//! byte-for-byte equal, cold and warm, fused and unfused.
//!
//! **Caching.** The [`RunCache`] sees a sharded subgraph exactly as an
//! unsharded one: [`dispatch_sharded`] consults it once over the whole
//! statement list before any split, and stores the merged outputs once
//! after. Segments and shards never touch it, so no entry depends on the
//! shard count: a cache filled by an unsharded run serves a sharded one,
//! and a one-region vintage patches through the delta kernels in
//! O(changed rows) without running any shard.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use exl_eval::{ShardPlan, ShardSegment};
use exl_lang::ast::Statement;
use exl_model::schema::{CubeId, CubeSchema};
use exl_model::shard::{concat_data, split_data};
use exl_model::{Cube, CubeData, Dataset};
use exl_obs::{MetricsRegistry, NoopRecorder, Recorder};

use crate::cache::{RunCache, StmtCacheCounts};
use crate::error::EngineError;
use crate::supervise::{run_supervised, Attempt, DispatchPolicy, Supervised};
use crate::target::{input_schemas, subprogram, translate, ExecCtx, ExecOpts, TargetKind};

/// What happened to one shard of a sharded subgraph dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (0-based, ascending merge order).
    pub index: usize,
    /// Total shard count of the dispatch.
    pub count: usize,
    /// Shard-local statements this shard executed, across its segments.
    pub statements: u64,
    /// Wall-clock nanoseconds this shard spent executing.
    pub wall_nanos: u64,
    /// Rows this shard contributed across its local-statement outputs.
    pub rows_out: u64,
}

/// Everything a sharded dispatch reports besides the outputs themselves.
/// Populated even when the dispatch fails, so the failing run's report
/// and crash bundle still carry the per-shard picture.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// Per-shard outcomes, index order; empty when the run cache served
    /// the subgraph or no local segment ran.
    pub reports: Vec<ShardReport>,
    /// The subgraph's statement resolution counts, as an unsharded
    /// dispatch reports them: those of the cache consult when it served
    /// the subgraph, otherwise one miss per statement with a cache armed
    /// and none without.
    pub counts: StmtCacheCounts,
    /// Supervisor attempt history across every shard and barrier
    /// execution, in completion order.
    pub attempts: Vec<Attempt>,
}

/// Attribute a shard-local failure to its shard, so run reports and
/// crash bundles name the failing shard. Governance stops (cancellation,
/// budgets) and timeouts keep their typed variants — wrapping them would
/// break the engine's retry/abort classification.
fn shard_error(index: usize, count: usize, e: EngineError) -> EngineError {
    match e {
        EngineError::Execution(m) => EngineError::Execution(format!("shard {index}/{count}: {m}")),
        EngineError::Panic { target, message } => EngineError::Panic {
            target,
            message: format!("shard {index}/{count}: {message}"),
        },
        other => other,
    }
}

/// Execute one native subgraph sharded `shards` ways according to `plan`.
///
/// The run cache is consulted over the whole statement list first; when
/// it serves the subgraph no shard runs. Otherwise the outputs of the
/// executed segments are stored in it once, merged.
///
/// Returns the per-statement outputs in statement order together with the
/// dispatch's [`ShardOutcome`]; on failure the outcome still carries the
/// attempts and per-shard reports accumulated so far. The caller (the
/// engine's dispatcher) stages outputs transactionally exactly like an
/// unsharded subgraph result.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_sharded(
    stmts: &[Statement],
    plan: &ShardPlan,
    shards: usize,
    input: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    policy: &DispatchPolicy,
    metrics: Option<&Arc<MetricsRegistry>>,
    trace: &exl_obs::Span,
    cache: &mut Option<RunCache>,
    exec: ExecOpts,
) -> (Result<Vec<(CubeId, CubeData)>, EngineError>, ShardOutcome) {
    let recorder: &dyn Recorder = match metrics {
        Some(m) => m.as_ref(),
        None => &NoopRecorder,
    };
    let ctx = ExecCtx {
        recorder,
        trace,
        opts: exec,
        policy,
    };
    dispatch_sharded_in(stmts, plan, shards, input, schema_of, cache, &ctx)
}

/// [`dispatch_sharded`] in the dispatcher's context.
pub(crate) fn dispatch_sharded_in(
    stmts: &[Statement],
    plan: &ShardPlan,
    shards: usize,
    input: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    cache: &mut Option<RunCache>,
    ctx: &ExecCtx,
) -> (Result<Vec<(CubeId, CubeData)>, EngineError>, ShardOutcome) {
    let mut outcome = ShardOutcome::default();
    if let Some((out, counts)) = cache.as_mut().and_then(|c| {
        c.resolve_statements_with_threads(
            stmts,
            TargetKind::Native,
            input,
            schema_of,
            ctx.opts.eval_threads,
        )
    }) {
        outcome.counts = counts;
        return (Ok(out), outcome);
    }
    let result = run_segments(stmts, plan, shards, input, schema_of, ctx, &mut outcome);
    if let (Ok(out), Some(c)) = (&result, cache.as_mut()) {
        c.store_statements(stmts, TargetKind::Native, input, out, schema_of);
        outcome.counts.misses = stmts.len() as u64;
    }
    (result, outcome)
}

/// Run the plan's segments in order, each over the outputs of the ones
/// before it.
fn run_segments(
    stmts: &[Statement],
    plan: &ShardPlan,
    shards: usize,
    input: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    ctx: &ExecCtx,
    outcome: &mut ShardOutcome,
) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    let mut env = input.clone();
    let mut outputs: Vec<(CubeId, CubeData)> = Vec::with_capacity(stmts.len());
    for segment in &plan.segments {
        let seg_out = match segment {
            ShardSegment::Global(idxs) => {
                let seg: Vec<Statement> = idxs.iter().map(|&i| stmts[i].clone()).collect();
                run_segment_global(&seg, &env, schema_of, ctx, outcome)?
            }
            ShardSegment::Local(idxs) => {
                let seg: Vec<Statement> = idxs.iter().map(|&i| stmts[i].clone()).collect();
                run_segment_local(&seg, plan, shards, &env, schema_of, ctx, outcome)?
            }
        };
        for (id, data) in seg_out {
            let schema = schema_of(&id)
                .ok_or_else(|| EngineError::Catalog(format!("no schema for shard output {id}")))?;
            env.put(Cube::new(schema, data.clone()));
            outputs.push((id, data));
        }
    }
    Ok(outputs)
}

/// Run a merge-barrier segment once over the global (concatenated)
/// environment under the supervisor. Its attempts join `outcome`'s,
/// failed ones included.
fn run_segment_global(
    seg: &[Statement],
    env: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    ctx: &ExecCtx,
    outcome: &mut ShardOutcome,
) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    let schemas = input_schemas(seg, schema_of)?;
    let analyzed = subprogram(seg, &schemas)?;
    let code = translate(&analyzed, TargetKind::Native)?;
    let wanted: Vec<CubeId> = seg.iter().map(|s| s.target.clone()).collect();
    let inputs: Vec<CubeId> = schemas.iter().map(|s| s.id.clone()).collect();
    let restricted = env.restrict(&inputs);
    let span = ctx.trace.child("shard-barrier");
    span.set_attr("statements", seg.len() as u64);
    let (result, attempts) = run_supervised(&code, None, &restricted, &wanted, &ctx.under(&span));
    outcome.attempts.extend(attempts);
    result
}

/// Run a shard-local segment: split the segment's inputs on the shard
/// dimension, execute every shard under the supervisor (in parallel),
/// and concatenate the per-shard outputs in ascending shard order.
fn run_segment_local(
    seg: &[Statement],
    plan: &ShardPlan,
    shards: usize,
    env: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    ctx: &ExecCtx,
    outcome: &mut ShardOutcome,
) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    // the segment's external inputs: everything read but not defined
    // within the segment. The plan guarantees each carries the shard
    // dimension (external aligned inputs or earlier local targets).
    let targets: BTreeSet<CubeId> = seg.iter().map(|s| s.target.clone()).collect();
    let mut ext: Vec<CubeId> = Vec::new();
    for s in seg {
        for r in s.expr.cube_refs() {
            if !targets.contains(&r) && !ext.contains(&r) {
                ext.push(r);
            }
        }
    }
    let mut shard_inputs: Vec<Dataset> = (0..shards).map(|_| Dataset::new()).collect();
    for id in &ext {
        let cube = env
            .get(id)
            .ok_or_else(|| EngineError::Execution(format!("shard input {id} has no data")))?;
        let pos = cube
            .schema
            .dims
            .iter()
            .position(|d| d.name == plan.dim)
            .ok_or_else(|| {
                EngineError::Execution(format!(
                    "shard input {id} lacks the shard dimension {}",
                    plan.dim
                ))
            })?;
        for (i, part) in split_data(&cube.data, pos, shards).into_iter().enumerate() {
            shard_inputs[i].put(Cube::new(cube.schema.clone(), part));
        }
    }
    ctx.recorder.incr_counter("shard.dispatched", shards as u64);
    exl_obs::flight::record_with(exl_obs::flight::FlightKind::ShardDispatch, "native", || {
        format!(
            "dim {} across {shards} shard(s), {} statement(s)",
            plan.dim,
            seg.len()
        )
    });

    // translate once; every shard runs the same code
    let schemas = input_schemas(seg, schema_of)?;
    let analyzed = subprogram(seg, &schemas)?;
    let code = translate(&analyzed, TargetKind::Native)?;
    let wanted: Vec<CubeId> = seg.iter().map(|s| s.target.clone()).collect();
    if outcome.reports.is_empty() {
        outcome.reports = (0..shards)
            .map(|index| ShardReport {
                index,
                count: shards,
                statements: 0,
                wall_nanos: 0,
                rows_out: 0,
            })
            .collect();
    }

    // execute the shards in parallel, each under the full supervisor
    // fault boundary with its own child governor. Shard workers run the
    // evaluator single-threaded: shard parallelism must not multiply with
    // intra-evaluator parallelism
    let shard_ctx = ExecCtx {
        opts: ExecOpts {
            eval_threads: if shards > 1 {
                Some(1)
            } else {
                ctx.opts.eval_threads
            },
        },
        ..*ctx
    };
    let ambient = crate::govern::governor();
    let (ambient, code, wanted_ref) = (&ambient, &code, &wanted);
    type RunResult = (usize, Supervised, u64);
    let runs: Vec<RunResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = shard_inputs
            .iter()
            .enumerate()
            .map(|(i, shard_input)| {
                let span = ctx.trace.child("shard");
                span.set_attr("shard", i as u64);
                span.set_attr("shards", shards as u64);
                scope.spawn(move || {
                    let _governor = ambient
                        .as_ref()
                        .map(|g| crate::govern::set_governor(g.child()));
                    let started = Instant::now();
                    let supervised = run_supervised(
                        code,
                        None,
                        shard_input,
                        wanted_ref,
                        &shard_ctx.under(&span),
                    );
                    let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    (i, supervised, wall)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    let message = crate::supervise::panic_message(payload);
                    let target = "shard-dispatcher".to_string();
                    (
                        usize::MAX,
                        (Err(EngineError::Panic { target, message }), Vec::new()),
                        0,
                    )
                })
            })
            .collect()
    });
    let mut per_shard: Vec<Vec<(CubeId, CubeData)>> = Vec::with_capacity(shards);
    let mut first_err: Option<EngineError> = None;
    for (i, (r, attempts), wall) in runs {
        outcome.attempts.extend(attempts);
        if i == usize::MAX {
            return Err(r.expect_err("sentinel index only carries errors"));
        }
        let report = &mut outcome.reports[i];
        report.wall_nanos += wall;
        match r {
            Ok(out) => {
                report.statements += seg.len() as u64;
                per_shard.push(out);
            }
            Err(e) => {
                first_err.get_or_insert_with(|| shard_error(i, shards, e));
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    // merge: concatenate each statement's per-shard outputs in ascending
    // shard order (disjoint by construction); the per-shard outputs are
    // moved into the merge, not cloned
    let mut merged = Vec::with_capacity(wanted.len());
    let mut total_rows = 0u64;
    for (k, id) in wanted.iter().enumerate() {
        for (i, outs) in per_shard.iter().enumerate() {
            let rows = outs[k].1.len() as u64;
            outcome.reports[i].rows_out += rows;
            total_rows += rows;
        }
        let data = concat_data(
            per_shard
                .iter_mut()
                .map(|outs| std::mem::take(&mut outs[k].1)),
        );
        merged.push((id.clone(), data));
    }
    ctx.recorder.incr_counter("shard.merges", 1);
    exl_obs::flight::record_with(exl_obs::flight::FlightKind::ShardMerge, "native", || {
        format!(
            "dim {}: {} statement(s), {total_rows} row(s) across {shards} shard(s)",
            plan.dim,
            wanted.len()
        )
    });
    Ok(merged)
}
