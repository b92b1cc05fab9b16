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
//! **Per-shard caching.** With a [`RunCache`] armed, every shard gets its
//! own key space (tag `s<i>/<n>` folded into the statement fingerprint):
//! a vintage delta that dirties one shard replays only that shard —
//! every other shard resolves on exact content hits. The `shard.replayed`
//! counter (and [`ShardReport::replayed`]) counts shards that did real
//! work, which is what the warm-delta tests assert on.

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
use crate::supervise::{run_supervised, Attempt, DispatchPolicy, SubgraphStatus};
use crate::target::{input_schemas, subprogram, translate, ExecOpts, TargetKind};

/// Shared no-op recorder for metric-less dispatch.
static NOOP: NoopRecorder = NoopRecorder;

/// What happened to one shard of a sharded subgraph dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index (0-based, ascending merge order).
    pub index: usize,
    /// Total shard count of the dispatch.
    pub count: usize,
    /// `Cached` when every local statement of every segment resolved on
    /// exact content hits; `Computed` otherwise.
    pub status: SubgraphStatus,
    /// True when this shard did real work — executed under the
    /// supervisor, or resolved with delta patches / inline evaluation —
    /// rather than replaying entirely from its per-shard cache entries.
    pub replayed: bool,
    /// Statement-level cache resolution counts for this shard.
    pub cache: StmtCacheCounts,
    /// Wall-clock nanoseconds this shard spent (cache resolution and
    /// execution).
    pub wall_nanos: u64,
    /// Rows this shard contributed across its local-statement outputs.
    pub rows_out: u64,
}

/// Everything a sharded dispatch reports besides the outputs themselves.
/// Populated even when the dispatch fails, so the failing run's report
/// and crash bundle still carry the per-shard picture.
#[derive(Debug, Clone, Default)]
pub struct ShardOutcome {
    /// Per-shard outcomes, index order (empty if the plan had no local
    /// segment — the caller should then not have sharded at all).
    pub reports: Vec<ShardReport>,
    /// Aggregate statement resolution counts across all shards and
    /// barrier segments. With `n` shards a local statement contributes
    /// `n` entries, so totals can exceed the statement count.
    pub counts: StmtCacheCounts,
    /// Supervisor attempt history across every shard and barrier
    /// execution, in completion order.
    pub attempts: Vec<Attempt>,
}

impl ShardOutcome {
    fn add_counts(&mut self, c: &StmtCacheCounts) {
        self.counts.hits += c.hits;
        self.counts.delta_hits += c.delta_hits;
        self.counts.misses += c.misses;
    }
}

fn recorder_of(metrics: Option<&Arc<MetricsRegistry>>) -> &dyn Recorder {
    match metrics {
        Some(m) => m.as_ref(),
        None => &NOOP,
    }
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
    let mut outcome = ShardOutcome {
        reports: (0..shards)
            .map(|i| ShardReport {
                index: i,
                count: shards,
                status: SubgraphStatus::Cached,
                replayed: false,
                cache: StmtCacheCounts::default(),
                wall_nanos: 0,
                rows_out: 0,
            })
            .collect(),
        ..ShardOutcome::default()
    };
    let result = dispatch_inner(
        stmts,
        plan,
        shards,
        input,
        schema_of,
        policy,
        metrics,
        trace,
        cache,
        exec,
        &mut outcome,
    );
    (result, outcome)
}

#[allow(clippy::too_many_arguments)]
fn dispatch_inner(
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
    outcome: &mut ShardOutcome,
) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    let recorder = recorder_of(metrics);
    // shard workers run the evaluator single-threaded: shard parallelism
    // must not multiply with intra-evaluator parallelism
    let shard_exec = ExecOpts {
        eval_threads: if shards > 1 {
            Some(1)
        } else {
            exec.eval_threads
        },
    };
    let mut env = input.clone();
    let mut outputs: Vec<(CubeId, CubeData)> = Vec::with_capacity(stmts.len());
    for segment in &plan.segments {
        match segment {
            ShardSegment::Global(idxs) => {
                let seg: Vec<Statement> = idxs.iter().map(|&i| stmts[i].clone()).collect();
                let (seg_out, counts, attempts) =
                    run_segment_global(&seg, &env, schema_of, policy, metrics, trace, cache, exec)?;
                outcome.add_counts(&counts);
                outcome.attempts.extend(attempts);
                for (id, data) in seg_out {
                    let schema = schema_of(&id).ok_or_else(|| {
                        EngineError::Catalog(format!("no schema for shard output {id}"))
                    })?;
                    env.put(Cube::new(schema, data.clone()));
                    outputs.push((id, data));
                }
            }
            ShardSegment::Local(idxs) => {
                let seg: Vec<Statement> = idxs.iter().map(|&i| stmts[i].clone()).collect();
                let seg_out = run_segment_local(
                    &seg, plan, shards, &env, schema_of, policy, metrics, trace, cache, shard_exec,
                    recorder, outcome,
                )?;
                for (id, data) in seg_out {
                    let schema = schema_of(&id).ok_or_else(|| {
                        EngineError::Catalog(format!("no schema for shard output {id}"))
                    })?;
                    env.put(Cube::new(schema, data.clone()));
                    outputs.push((id, data));
                }
            }
        }
    }
    Ok(outputs)
}

/// One segment's outputs in statement order, with its cache counts and
/// the supervisor attempts it took.
type SegmentResult = Result<(Vec<(CubeId, CubeData)>, StmtCacheCounts, Vec<Attempt>), EngineError>;

/// Run a merge-barrier segment once over the global (concatenated)
/// environment: consult the untagged cache, else execute under the
/// supervisor and record the results untagged.
#[allow(clippy::too_many_arguments)]
fn run_segment_global(
    seg: &[Statement],
    env: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    policy: &DispatchPolicy,
    metrics: Option<&Arc<MetricsRegistry>>,
    trace: &exl_obs::Span,
    cache: &mut Option<RunCache>,
    exec: ExecOpts,
) -> SegmentResult {
    if let Some(c) = cache.as_mut() {
        if let Some((out, counts)) = c.resolve_statements(seg, TargetKind::Native, env, schema_of) {
            return Ok((out, counts, Vec::new()));
        }
    }
    let schemas = input_schemas(seg, schema_of)?;
    let analyzed = subprogram(seg, &schemas)?;
    let code = translate(&analyzed, TargetKind::Native)?;
    let wanted: Vec<CubeId> = seg.iter().map(|s| s.target.clone()).collect();
    let inputs: Vec<CubeId> = schemas.iter().map(|s| s.id.clone()).collect();
    let restricted = env.restrict(&inputs);
    let span = trace.child("shard-barrier");
    span.set_attr("statements", seg.len() as u64);
    let (result, attempts) = run_supervised(
        &code,
        None,
        &restricted,
        &wanted,
        policy,
        metrics,
        &span,
        exec,
    );
    let ds = result?;
    let mut out = Vec::with_capacity(wanted.len());
    for id in &wanted {
        let data = ds.data(id).cloned().ok_or_else(|| {
            EngineError::Execution(format!("barrier segment produced no data for {id}"))
        })?;
        out.push((id.clone(), data));
    }
    if let Some(c) = cache.as_mut() {
        c.store_statements(seg, TargetKind::Native, env, &out, schema_of);
    }
    let counts = StmtCacheCounts {
        misses: seg.len() as u64,
        ..StmtCacheCounts::default()
    };
    Ok((out, counts, attempts))
}

/// Run a shard-local segment: split the segment's inputs on the shard
/// dimension, resolve each shard from its tagged cache entries or
/// execute it under the supervisor (in parallel), and concatenate the
/// per-shard outputs in ascending shard order.
#[allow(clippy::too_many_arguments)]
fn run_segment_local(
    seg: &[Statement],
    plan: &ShardPlan,
    shards: usize,
    env: &Dataset,
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
    policy: &DispatchPolicy,
    metrics: Option<&Arc<MetricsRegistry>>,
    trace: &exl_obs::Span,
    cache: &mut Option<RunCache>,
    shard_exec: ExecOpts,
    recorder: &dyn Recorder,
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
    recorder.incr_counter("shard.dispatched", shards as u64);
    exl_obs::flight::record_with(exl_obs::flight::FlightKind::ShardDispatch, "native", || {
        format!(
            "dim {} across {shards} shard(s), {} statement(s)",
            plan.dim,
            seg.len()
        )
    });

    // translate once; every executing shard reuses the same code
    let schemas = input_schemas(seg, schema_of)?;
    let analyzed = subprogram(seg, &schemas)?;
    let code = translate(&analyzed, TargetKind::Native)?;
    let wanted: Vec<CubeId> = seg.iter().map(|s| s.target.clone()).collect();

    // phase A — per-shard cache consult, sequential (the cache is a
    // single-threaded structure owned by the dispatcher)
    type ShardResult = (Vec<(CubeId, CubeData)>, StmtCacheCounts);
    let mut resolved: Vec<Option<ShardResult>> = (0..shards).map(|_| None).collect();
    let mut to_run: Vec<usize> = Vec::new();
    for i in 0..shards {
        let started = Instant::now();
        let hit = cache.as_mut().and_then(|c| {
            c.resolve_statements_tagged(
                seg,
                TargetKind::Native,
                &shard_inputs[i],
                schema_of,
                &format!("s{i}/{shards}"),
            )
        });
        match hit {
            Some((out, counts)) => {
                outcome.reports[i].wall_nanos +=
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                resolved[i] = Some((out, counts));
            }
            None => to_run.push(i),
        }
    }

    // phase B — execute the unresolved shards in parallel, each under
    // the full supervisor fault boundary with its own child governor
    if !to_run.is_empty() {
        let ambient = crate::govern::governor();
        let ambient = &ambient;
        let code = &code;
        let wanted_ref = &wanted;
        let shard_inputs_ref = &shard_inputs;
        type RunResult = (usize, Result<Dataset, EngineError>, Vec<Attempt>, u64);
        let runs: Vec<RunResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = to_run
                .iter()
                .map(|&i| {
                    let span = trace.child("shard");
                    span.set_attr("shard", i as u64);
                    span.set_attr("shards", shards as u64);
                    scope.spawn(move || {
                        let _governor = ambient
                            .as_ref()
                            .map(|g| crate::govern::set_governor(g.child()));
                        let started = Instant::now();
                        let (r, attempts) = run_supervised(
                            code,
                            None,
                            &shard_inputs_ref[i],
                            wanted_ref,
                            policy,
                            metrics,
                            &span,
                            shard_exec,
                        );
                        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        (i, r, attempts, wall)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        (
                            usize::MAX,
                            Err(EngineError::Panic {
                                target: "shard-dispatcher".to_string(),
                                message: crate::supervise::panic_message(payload),
                            }),
                            Vec::new(),
                            0,
                        )
                    })
                })
                .collect()
        });
        let mut first_err: Option<EngineError> = None;
        for (i, r, attempts, wall) in runs {
            outcome.attempts.extend(attempts);
            if i == usize::MAX {
                return Err(r.expect_err("sentinel index only carries errors"));
            }
            outcome.reports[i].wall_nanos += wall;
            match r {
                Ok(ds) => {
                    let mut out = Vec::with_capacity(wanted.len());
                    for id in &wanted {
                        match ds.data(id).cloned() {
                            Some(data) => out.push((id.clone(), data)),
                            None => {
                                first_err.get_or_insert_with(|| {
                                    shard_error(
                                        i,
                                        shards,
                                        EngineError::Execution(format!(
                                            "shard produced no data for {id}"
                                        )),
                                    )
                                });
                                continue;
                            }
                        }
                    }
                    if out.len() != wanted.len() {
                        continue;
                    }
                    if let Some(c) = cache.as_mut() {
                        c.store_statements_tagged(
                            seg,
                            TargetKind::Native,
                            &shard_inputs[i],
                            &out,
                            schema_of,
                            &format!("s{i}/{shards}"),
                        );
                    }
                    let counts = StmtCacheCounts {
                        misses: seg.len() as u64,
                        ..StmtCacheCounts::default()
                    };
                    resolved[i] = Some((out, counts));
                }
                Err(e) => {
                    first_err.get_or_insert_with(|| shard_error(i, shards, e));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
    }

    // per-shard accounting: replayed = did real work (executed, delta
    // patched, or inline-evaluated); a pure exact-hit replay is not
    for (i, slot) in resolved.iter().enumerate() {
        let counts = slot.as_ref().expect("every shard resolved").1;
        outcome.add_counts(&counts);
        let report = &mut outcome.reports[i];
        report.cache.hits += counts.hits;
        report.cache.delta_hits += counts.delta_hits;
        report.cache.misses += counts.misses;
        if counts.misses + counts.delta_hits > 0 {
            report.status = SubgraphStatus::Computed;
            if !report.replayed {
                report.replayed = true;
                recorder.incr_counter("shard.replayed", 1);
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::ShardReplay,
                    "native",
                    || format!("shard {i}/{shards} re-executed"),
                );
            }
        } else {
            recorder.incr_counter("shard.cached", 1);
        }
    }

    // phase C — merge: concatenate each statement's per-shard outputs in
    // ascending shard order (disjoint by construction); the per-shard
    // outputs are moved into the merge, not cloned
    let mut per_shard: Vec<Vec<(CubeId, CubeData)>> = resolved
        .into_iter()
        .map(|slot| slot.expect("resolved").0)
        .collect();
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
    recorder.incr_counter("shard.merges", 1);
    exl_obs::flight::record_with(exl_obs::flight::FlightKind::ShardMerge, "native", || {
        format!(
            "dim {}: {} statement(s), {total_rows} row(s) across {shards} shard(s)",
            plan.dim,
            wanted.len()
        )
    });
    Ok(merged)
}
