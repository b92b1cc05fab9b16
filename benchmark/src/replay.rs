//! The traced run. One op is decomposed into calls to the public function
//! behind each layer, made in the engine's order on the engine's inputs
//! (a replay of `ExlEngine::recompute`), each wrapped in a bench-side
//! `exl_obs::Tracer` span: root `op`, one child per layer call. Beside each
//! replay, the same op runs through `run_all` with the engine's own tracing
//! and metrics armed; its wall time is what the replayed layers must add
//! up to, and its `subgraph` / `execute.<target>` spans cross-check the
//! replay's totals.
//!
//! Work the replay repeats only to time it (interning the evaluator's
//! inputs, compiling its plan, converting its outputs back to hash
//! storage) is subtracted again from the evaluator's wall time, so each
//! derived layer (`eval.execute_ms`, `shard.dispatch_ms`) is labelled as
//! such and the layers still add up to one op. Spans named `bench.*` are
//! the replay's own bookkeeping and belong to no layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use exl_engine::target::{execute, input_schemas, subprogram, translate, TargetCode, TargetKind};
use exl_engine::{dispatch_sharded, Catalog, EngineError, ExlEngine, RunCache};
use exl_eval::{plan_description, plan_shards, run_program_with_stats, EvalSession};
use exl_lang::analyze::AnalyzedProgram;
use exl_model::schema::CubeId;
use exl_model::shard::split_data;
use exl_model::{Cube, CubeBatch, CubeData, Dataset, DimPool};
use exl_obs::{Span, TraceSnapshot, Tracer};
use exl_workload::DeltaGen;

use crate::measure;
use crate::report::median;
use crate::workload::{Inputs, DELTA_OPS, REVISED};

/// Traced ops per run; per-layer values are medians over them.
const TRACED_OPS: usize = 3;

/// Work counts of one replayed op, exact rather than timed.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    intern_rows: u64,
    to_data_rows: u64,
    regions: u64,
    fused_ops: u64,
    cse_reuses: u64,
}

/// A replay-owned engine (catalog, graph and dispatch settings) plus, on
/// gdp-vintage, a replay-owned run cache.
struct Replay {
    engine: ExlEngine,
    cache: Option<RunCache>,
    source: String,
}

fn lang_err(e: impl std::fmt::Display) -> EngineError {
    EngineError::Lang(e.to_string())
}

fn exec_err(e: impl std::fmt::Display) -> EngineError {
    EngineError::Execution(e.to_string())
}

impl Replay {
    fn new(inputs: &Inputs) -> Result<Replay, EngineError> {
        let mut engine = inputs.engine()?;
        let cache = engine.cache_enabled().then(RunCache::in_memory);
        engine.disable_cache();
        Ok(Replay {
            engine,
            cache,
            source: inputs.source.clone(),
        })
    }

    /// Replay one `run_all` under a root `op` span of `tracer`.
    fn op(&mut self, tracer: &Tracer) -> Result<Counts, EngineError> {
        let Replay {
            engine,
            cache,
            source,
        } = self;
        let mut counts = Counts::default();
        let op = tracer.root("op");
        {
            let _span = op.child("lang");
            let program = exl_lang::parse_program(source).map_err(lang_err)?;
            black_box(exl_lang::analyze(&program, &[]).map_err(lang_err)?);
        }
        let items = {
            let catalog = &engine.catalog;
            let schema_of = |id: &CubeId| catalog.schema(id).cloned();
            let changed: Vec<CubeId> = catalog
                .elementary_ids()
                .into_iter()
                .filter(|id| catalog.current(id).is_some())
                .collect();
            let graph = engine.graph();
            let (subgraphs, stages) = {
                let _span = op.child("determination");
                let plan = graph.determine(&changed);
                let default = engine.default_target;
                let affinity =
                    |id: &CubeId| catalog.meta(id).and_then(|m| m.affinity).unwrap_or(default);
                let subgraphs = graph.partition(&plan, &affinity);
                let stages = graph.stages(&subgraphs);
                (subgraphs, stages)
            };
            let translated = {
                let _span = op.child("target.translate");
                let mut translated = Vec::with_capacity(subgraphs.len());
                for sub in &subgraphs {
                    let stmts: Vec<_> = sub
                        .statements
                        .iter()
                        .map(|&i| graph.statements()[i].clone())
                        .collect();
                    let analyzed = subprogram(&stmts, &input_schemas(&stmts, &schema_of)?)?;
                    // unsupported operators fall back to the native engine,
                    // as in the engine's plan_and_translate
                    let (code, effective) = match translate(&analyzed, sub.target) {
                        Ok(code) => (code, sub.target),
                        Err(EngineError::Unsupported { .. }) => (
                            translate(&analyzed, TargetKind::Native)?,
                            TargetKind::Native,
                        ),
                        Err(e) => return Err(e),
                    };
                    translated.push((stmts, code, effective));
                }
                translated
            };
            let shards = engine.effective_shards();
            let mut staged: BTreeMap<CubeId, CubeData> = BTreeMap::new();
            let mut commit_order: Vec<CubeId> = Vec::new();
            for &si in stages.iter().flatten() {
                let (stmts, code, effective) = &translated[si];
                let wanted: Vec<CubeId> = stmts.iter().map(|s| s.target.clone()).collect();
                let input = {
                    let _span = op.child("catalog.stage");
                    stage_inputs(catalog, &staged, &input_schemas(stmts, &schema_of)?)?
                };
                let native = *effective == TargetKind::Native;
                let sharded = (shards >= 2 && native)
                    .then(|| plan_shards(stmts, &schema_of))
                    .flatten();
                let outputs = if let Some(plan) = sharded {
                    {
                        let _span = op.child("shard.split");
                        for id in &plan.aligned_inputs {
                            let cube = input
                                .get(id)
                                .ok_or_else(|| exec_err(format!("no input {id}")))?;
                            if let Some(pos) =
                                cube.schema.dims.iter().position(|d| d.name == plan.dim)
                            {
                                black_box(split_data(&cube.data, pos, shards));
                            }
                        }
                    }
                    let _span = op.child("shard.dispatch");
                    let (result, _) = dispatch_sharded(
                        stmts,
                        &plan,
                        shards,
                        &input,
                        &schema_of,
                        &engine.policy,
                        None,
                        &Span::disabled(),
                        cache,
                        engine.exec,
                    );
                    result?
                } else if let Some(outputs) = cache.as_mut().and_then(|c| {
                    {
                        let _span = op.child("cache.fingerprint");
                        for (_, cube) in input.iter() {
                            c.fingerprint(&cube.data);
                        }
                    }
                    let _span = op.child("cache.resolve");
                    c.resolve_statements(stmts, *effective, &input, &schema_of)
                }) {
                    outputs.0
                } else {
                    let outputs = match code {
                        TargetCode::Native { analyzed } => {
                            replay_native(&op, analyzed, &input, &wanted, &mut counts)?
                        }
                        other => {
                            let _span = op.child(format!("backend.{}", other.target_name()));
                            let out = execute(other, &input, &wanted)?;
                            restrict(&out, &wanted)?
                        }
                    };
                    if let Some(c) = cache.as_mut() {
                        let _span = op.child("cache.store");
                        c.store_statements(stmts, *effective, &input, &outputs, &schema_of);
                    }
                    outputs
                };
                for (id, data) in outputs {
                    commit_order.push(id.clone());
                    staged.insert(id, data);
                }
            }
            commit_order
                .into_iter()
                .map(|id| {
                    let data = staged.remove(&id).expect("staged every commit");
                    (id, data)
                })
                .collect::<Vec<_>>()
        };
        let _span = op.child("catalog.commit");
        engine.catalog.commit_versions(items)?;
        Ok(counts)
    }
}

/// A subgraph's inputs as the dispatcher stages them: results of earlier
/// subgraphs of this run from the staging area, everything else from the
/// catalog's current versions (copy-on-write clones).
fn stage_inputs(
    catalog: &Catalog,
    staged: &BTreeMap<CubeId, CubeData>,
    schemas: &[exl_model::CubeSchema],
) -> Result<Dataset, EngineError> {
    let mut ds = Dataset::new();
    for schema in schemas {
        let data = staged
            .get(&schema.id)
            .or_else(|| catalog.current(&schema.id))
            .ok_or_else(|| EngineError::Catalog(format!("cube {} has no data yet", schema.id)))?;
        ds.put(Cube::new(schema.clone(), data.clone()));
    }
    Ok(ds)
}

fn restrict(out: &Dataset, wanted: &[CubeId]) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    wanted
        .iter()
        .map(|id| {
            let data = out
                .data(id)
                .ok_or_else(|| exec_err(format!("target produced no data for {id}")))?;
            Ok((id.clone(), data.clone()))
        })
        .collect()
}

/// The native backend, layer by layer: intern the inputs, compile the
/// plan, run the evaluator, convert its outputs back to hash storage.
fn replay_native(
    op: &Span,
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    wanted: &[CubeId],
    counts: &mut Counts,
) -> Result<Vec<(CubeId, CubeData)>, EngineError> {
    let session = {
        let _span = op.child("eval.intern");
        let mut session = EvalSession::new();
        for id in analyzed.elementary_inputs() {
            let cube = input
                .get(&id)
                .ok_or_else(|| exec_err(format!("missing input {id}")))?;
            session.load(id.clone(), analyzed.schemas[&id].dims.clone(), &cube.data);
            counts.intern_rows += cube.data.len() as u64;
        }
        session
    };
    {
        let _span = op.child("bench.discard");
        drop(session);
    }
    {
        let _span = op.child("eval.plan_compile");
        black_box(plan_description(analyzed).map_err(exec_err)?);
    }
    let (full, stats) = {
        let _span = op.child("eval.run");
        run_program_with_stats(analyzed, input).map_err(exec_err)?
    };
    counts.regions += stats.regions;
    counts.fused_ops += stats.fused_ops;
    counts.cse_reuses += stats.cse_reuses;
    let (pool, batches) = {
        let _span = op.child("bench.prepare");
        let mut pool = DimPool::new();
        let batches: Vec<CubeBatch> = analyzed
            .program
            .derived_ids()
            .iter()
            .filter_map(|id| full.data(id))
            .map(|data| CubeBatch::from_data(data, &mut pool))
            .collect();
        (pool, batches)
    };
    let converted: Vec<CubeData> = {
        let _span = op.child("batch.to_data");
        batches.iter().map(|b| b.to_data(&pool)).collect()
    };
    counts.to_data_rows += converted.iter().map(|d| d.len() as u64).sum::<u64>();
    let outputs = restrict(&full, wanted)?;
    {
        let _span = op.child("bench.discard");
        drop((converted, batches, pool, full));
    }
    Ok(outputs)
}

/// Self time of every layer span directly under `root`, summed by name,
/// in milliseconds.
fn self_ms(snapshot: &TraceSnapshot, root: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for span in snapshot.children_of(root) {
        let children: u64 = snapshot
            .children_of(span.id)
            .iter()
            .map(|c| c.duration_nanos())
            .sum();
        let own = span.duration_nanos().saturating_sub(children);
        *out.entry(span.name.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Layer metrics of one replayed op (milliseconds). Every layer is
/// present, zero where the workload never reaches it.
fn layer_metrics(spans: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let at = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let mut m = BTreeMap::new();
    m.insert("lang.ms".into(), at("lang"));
    m.insert("determination.ms".into(), at("determination"));
    m.insert("target.translate_ms".into(), at("target.translate"));
    m.insert("catalog.stage_ms".into(), at("catalog.stage"));
    m.insert("eval.intern_ms".into(), at("eval.intern"));
    m.insert("eval.plan_compile_ms".into(), at("eval.plan_compile"));
    // derived: the evaluator's wall minus the parts replayed separately
    m.insert(
        "eval.execute_ms".into(),
        if spans.contains_key("eval.run") {
            at("eval.run") - at("eval.intern") - at("eval.plan_compile") - at("batch.to_data")
        } else {
            0.0
        },
    );
    m.insert("batch.to_data_ms".into(), at("batch.to_data"));
    m.insert("cache.fingerprint_ms".into(), at("cache.fingerprint"));
    m.insert("cache.resolve_ms".into(), at("cache.resolve"));
    m.insert("cache.store_ms".into(), at("cache.store"));
    m.insert("shard.split_ms".into(), at("shard.split"));
    // derived: the dispatcher splits its inputs again itself
    m.insert(
        "shard.dispatch_ms".into(),
        if spans.contains_key("shard.dispatch") {
            at("shard.dispatch") - at("shard.split")
        } else {
            0.0
        },
    );
    for backend in ["sql", "r"] {
        m.insert(format!("backend.{backend}.ms"), 0.0);
    }
    for (name, ms) in spans {
        if let Some(backend) = name.strip_prefix("backend.") {
            m.insert(format!("backend.{backend}.ms"), *ms);
        }
    }
    m.insert("catalog.commit_ms".into(), at("catalog.commit"));
    m
}

/// Sum of the layers a `run_all` executes: every layer metric but
/// `lang.ms` (parsing happens at registration, not in the op).
fn replayed_sum(layers: &BTreeMap<String, f64>) -> f64 {
    layers
        .iter()
        .filter(|(name, _)| name.as_str() != "lang.ms")
        .map(|(_, ms)| ms)
        .sum()
}

/// What the engine itself reported for one traced op.
struct EngineRun {
    wall_ms: f64,
    subgraph_ms: f64,
    execute_ms: f64,
    subgraphs: usize,
    stages: usize,
    versions: usize,
    hit_ratio: f64,
}

/// One traced op: the engine's own run and the replay of the same op.
struct TracedOp {
    engine: EngineRun,
    layers: BTreeMap<String, f64>,
    counts: Counts,
}

/// Run `run_all` on an engine wired to `tracer` (with its metrics armed)
/// and return what the engine itself reports.
fn engine_op(engine: &mut ExlEngine, tracer: &Tracer) -> Result<EngineRun, EngineError> {
    engine.set_tracer(tracer.clone());
    engine.enable_metrics();
    let first_new = tracer.snapshot().spans.len() as u64;
    let started = Instant::now();
    let report = engine.run_all()?;
    let wall = started.elapsed();
    let snapshot = tracer.snapshot();
    let new = || snapshot.spans.iter().filter(|s| s.id > first_new);
    let total_ms = |pred: &dyn Fn(&str) -> bool| -> f64 {
        new()
            .filter(|s| pred(&s.name))
            .map(|s| s.duration_nanos())
            .sum::<u64>() as f64
            / 1e6
    };
    let resolved = report.cache.hits + report.cache.delta_hits;
    let statements = resolved + report.cache.misses;
    Ok(EngineRun {
        wall_ms: wall.as_secs_f64() * 1e3,
        subgraph_ms: total_ms(&|n| n == "subgraph"),
        execute_ms: total_ms(&|n| n.starts_with("execute.")),
        subgraphs: report.subgraphs.len(),
        stages: report.stages,
        versions: engine
            .catalog
            .cube_ids()
            .iter()
            .filter_map(|id| engine.catalog.meta(id))
            .map(|m| m.versions.len())
            .sum(),
        hit_ratio: if statements == 0 {
            0.0
        } else {
            resolved as f64 / statements as f64
        },
    })
}

/// Replay one op under `tracer` and pair it with the engine's own run.
fn replay_op(
    replay: &mut Replay,
    tracer: &Tracer,
    engine: EngineRun,
) -> Result<TracedOp, EngineError> {
    let root = tracer.snapshot().spans.len() as u64 + 1;
    let counts = replay.op(tracer)?;
    Ok(TracedOp {
        engine,
        layers: layer_metrics(&self_ms(&tracer.snapshot(), root)),
        counts,
    })
}

/// The traced run's results: per-layer values (medians over
/// [`TRACED_OPS`]) and the Chrome trace of all traced ops.
pub struct Traced {
    /// Per-layer metric → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Engine-reported totals beside the replay's, for the cross-check.
    pub crosscheck: BTreeMap<String, f64>,
    pub chrome: String,
}

/// Run [`TRACED_OPS`] traced ops. `run_ms_p50` is the untraced median the
/// tracing overhead is measured against.
pub fn run(inputs: &Inputs, seed: u64, run_ms_p50: f64) -> Result<Traced, EngineError> {
    let tracer = Tracer::new();
    let mut ops: Vec<TracedOp> = Vec::new();
    if inputs.workload.resident() {
        // one resident engine and one replay, each warmed by the cold run;
        // every traced op applies the same vintage patch to both
        let (mut engine, _) = measure::setup(inputs)?;
        let mut replay = Replay::new(inputs)?;
        replay.op(&Tracer::disabled())?;
        let revised = CubeId::from(REVISED);
        let base = inputs
            .data
            .data(&revised)
            .expect("gdp inputs carry the revised cube");
        // two generators in lockstep: each side gets the same patch freshly
        // generated right before its op (a patch the other side has just
        // read would favour whichever runs second)
        let (mut engine_deltas, mut replay_deltas) = (DeltaGen::new(seed), DeltaGen::new(seed));
        for _ in 0..TRACED_OPS {
            engine.load_elementary(&revised, engine_deltas.patch_cube(base, DELTA_OPS))?;
            let run = engine_op(&mut engine, &tracer)?;
            let patch = replay_deltas.patch_cube(base, DELTA_OPS);
            replay.engine.load_elementary(&revised, patch)?;
            ops.push(replay_op(&mut replay, &tracer, run)?);
        }
    } else {
        for _ in 0..TRACED_OPS {
            let run = engine_op(&mut inputs.engine()?, &tracer)?;
            ops.push(replay_op(&mut Replay::new(inputs)?, &tracer, run)?);
        }
    }

    let med = |f: &dyn Fn(&TracedOp) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    for name in ops[0].layers.keys() {
        let value = med(&|o| o.layers.get(name).copied().unwrap_or(0.0));
        metrics.insert(name.clone(), (value, "ms"));
    }
    let count = |v: f64| (v, "count");
    metrics.insert(
        "eval.intern_rows".into(),
        count(med(&|o| o.counts.intern_rows as f64)),
    );
    metrics.insert(
        "batch.to_data_rows".into(),
        count(med(&|o| o.counts.to_data_rows as f64)),
    );
    metrics.insert(
        "plan.regions".into(),
        count(med(&|o| o.counts.regions as f64)),
    );
    metrics.insert(
        "plan.fused_ops".into(),
        count(med(&|o| o.counts.fused_ops as f64)),
    );
    metrics.insert(
        "plan.cse_reuses".into(),
        count(med(&|o| o.counts.cse_reuses as f64)),
    );
    metrics.insert(
        "engine.subgraphs".into(),
        count(med(&|o| o.engine.subgraphs as f64)),
    );
    metrics.insert(
        "engine.stages".into(),
        count(med(&|o| o.engine.stages as f64)),
    );
    let last = ops.last().expect("traced ops ran");
    metrics.insert(
        "catalog.versions".into(),
        count(last.engine.versions as f64),
    );
    metrics.insert(
        "cache.hit_ratio".into(),
        (med(&|o| o.engine.hit_ratio), "ratio"),
    );
    metrics.insert(
        "engine.unattributed_ms".into(),
        (med(&|o| o.engine.wall_ms - replayed_sum(&o.layers)), "ms"),
    );
    metrics.insert(
        "engine.layer_coverage".into(),
        (
            med(&|o| replayed_sum(&o.layers) / o.engine.wall_ms),
            "ratio",
        ),
    );
    let traced_wall = med(&|o| o.engine.wall_ms);
    metrics.insert(
        "trace.overhead_pct".into(),
        ((traced_wall / run_ms_p50 - 1.0) * 100.0, "%"),
    );

    let replay_subgraph = |o: &TracedOp| {
        let l = |n: &str| o.layers.get(n).copied().unwrap_or(0.0);
        replayed_sum(&o.layers)
            - l("determination.ms")
            - l("target.translate_ms")
            - l("catalog.commit_ms")
            - l("cache.store_ms")
    };
    let replay_execute = |o: &TracedOp| {
        let l = |n: &str| o.layers.get(n).copied().unwrap_or(0.0);
        let backends: f64 = o
            .layers
            .iter()
            .filter(|(n, _)| n.starts_with("backend."))
            .map(|(_, v)| v)
            .sum();
        l("eval.intern_ms")
            + l("eval.plan_compile_ms")
            + l("eval.execute_ms")
            + l("batch.to_data_ms")
            + backends
    };
    let crosscheck = BTreeMap::from([
        ("engine_wall_ms".to_string(), traced_wall),
        (
            "engine_subgraph_ms".to_string(),
            med(&|o| o.engine.subgraph_ms),
        ),
        ("replay_subgraph_ms".to_string(), med(&replay_subgraph)),
        (
            "engine_execute_ms".to_string(),
            med(&|o| o.engine.execute_ms),
        ),
        ("replay_execute_ms".to_string(), med(&replay_execute)),
    ]);
    Ok(Traced {
        metrics,
        crosscheck,
        chrome: tracer.snapshot().to_chrome_json(),
    })
}
