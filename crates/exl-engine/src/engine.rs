//! EXLEngine proper: the orchestration of Fig. 2.
//!
//! Programs are registered against the catalog; data loads create new
//! cube versions; on change, the determination engine builds the plan,
//! the translation engine produces per-subgraph executables (offline, in
//! the sense that it touches no data), and the dispatcher assigns each
//! subgraph to its target engine — sequentially or with stage-level
//! parallelism — moving cube data between engines as needed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use exl_lang::ast::Statement;
use exl_model::schema::{CubeId, CubeKind, CubeSchema};
use exl_model::{CubeData, Dataset};
use exl_obs::flight::{self, FlightKind};
use exl_obs::{MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder};

use crate::cache::{CacheStats, RunCache, StmtCacheCounts};
use crate::catalog::Catalog;
use crate::determination::{GlobalGraph, Subgraph};
use crate::error::EngineError;
use crate::govern::GovernConfig;
use crate::shard::{dispatch_sharded_in, ShardReport};
use crate::supervise::{run_supervised, Attempt, DispatchPolicy, SubgraphStatus};
use crate::target::{
    dataset_rows, input_schemas, subprogram, translate, ExecCtx, ExecOpts, TargetCode, TargetKind,
};

/// A callback invoked as each subgraph finishes during a run — the
/// engine-side hook behind the CLI's `--progress` live status line.
/// Subgraph results are staged in dispatch order on the dispatching
/// thread, so the callback never races with itself.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(&ProgressEvent) + Send + Sync>);

impl ProgressSink {
    /// Wrap a callback.
    pub fn new(f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> ProgressSink {
        ProgressSink(Arc::new(f))
    }

    fn emit(&self, event: &ProgressEvent) {
        (self.0)(event)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// One subgraph finished (computed, cached, failed, or skipped).
#[derive(Debug, Clone)]
pub struct ProgressEvent {
    /// Subgraphs finished so far in this run, this one included.
    pub done: usize,
    /// Total subgraphs in this run.
    pub total: usize,
    /// Cubes the subgraph computes.
    pub cubes: Vec<CubeId>,
    /// Target that executed (or would have executed) the subgraph.
    pub target: TargetKind,
    /// How the subgraph ended.
    pub status: SubgraphStatus,
}

/// The engine.
#[derive(Debug, Clone)]
pub struct ExlEngine {
    /// The metadata catalog (schemas, affinities, versions, programs).
    pub catalog: Catalog,
    graph: GlobalGraph,
    /// Target used when a cube has no affinity.
    pub default_target: TargetKind,
    /// Shard native subgraphs across data partitions: `None` disables
    /// sharding, `Some(0)` uses the host's available parallelism, and
    /// `Some(n)` forces `n` shards. Subgraphs whose statements admit a
    /// shard plan (see [`exl_eval::plan_shards`]) are partitioned on the
    /// plan's dimension and executed one evaluator instance per shard;
    /// everything else dispatches unsharded. Results are bit-identical
    /// for every shard count.
    pub shards: Option<usize>,
    /// Per-run execution options (the evaluator worker count) threaded
    /// down to every backend invocation of this engine.
    pub exec: ExecOpts,
    /// Fault-handling policy for dispatch (retries, deadlines, fallback,
    /// degradation mode).
    pub policy: DispatchPolicy,
    /// Run governance: the external cancellation token and per-run
    /// resource budgets. Every [`ExlEngine::recompute`] derives a run
    /// governor from this config and installs it for the duration of the
    /// run; see [`crate::govern`] for the token topology.
    pub govern: GovernConfig,
    /// Metrics registry, populated when observability is enabled via
    /// [`ExlEngine::enable_metrics`]. When `None` every instrumented path
    /// uses the no-op recorder, adding no overhead.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Hierarchical tracer, armed via [`ExlEngine::enable_tracing`].
    /// Disabled by default: every traced path takes the inert no-op route.
    tracer: exl_obs::Tracer,
    /// Per-subgraph completion callback (see [`ProgressSink`]).
    pub progress: Option<ProgressSink>,
    /// The run cache, armed via [`ExlEngine::enable_cache`] or
    /// [`ExlEngine::enable_disk_cache`]. When `None` every statement is
    /// recomputed from scratch (cold semantics).
    cache: Option<RunCache>,
    /// Crash-bundle directory and this engine's flight ring, armed via
    /// [`ExlEngine::set_bundle_dir`]. When set, every run records into
    /// the ring and every failed run dumps a bundle into the directory.
    bundle: Option<crate::bundle::BundleSink>,
    /// Run-ledger directory, armed via [`ExlEngine::set_ledger_dir`].
    /// When set, every run appends one JSONL record there.
    ledger_dir: Option<std::path::PathBuf>,
    /// Path of the most recently written crash bundle, if any.
    last_bundle: Option<std::path::PathBuf>,
}

/// What happened to one subgraph during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphReport {
    /// Target that executed the subgraph.
    pub target: TargetKind,
    /// True when the requested target declined (unsupported operator) and
    /// the dispatcher fell back to the native engine.
    pub fallback: bool,
    /// Cubes the subgraph computed.
    pub cubes: Vec<CubeId>,
    /// Final status under the dispatch supervisor.
    pub status: SubgraphStatus,
    /// Execution attempts, in order (empty for skipped and cached
    /// subgraphs).
    pub attempts: Vec<Attempt>,
    /// The error that failed the subgraph, when it failed.
    pub error: Option<String>,
    /// Statement-level cache resolution counts (all zero when the run
    /// cache is disabled).
    pub cache: StmtCacheCounts,
    /// Wall-clock time this subgraph spent executing (cache resolution
    /// included; 0 for skipped subgraphs).
    pub wall_nanos: u64,
    /// Total rows across the cubes this subgraph produced (0 when it
    /// produced none).
    pub rows_out: u64,
    /// Per-shard outcomes when this subgraph ran under the sharded
    /// dispatcher (empty for unsharded dispatch).
    pub shards: Vec<ShardReport>,
}

/// Report of one recomputation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Per-subgraph outcomes, in dispatch order.
    pub subgraphs: Vec<SubgraphReport>,
    /// Number of dispatch stages (1 = fully sequential dependencies).
    pub stages: usize,
    /// All cubes recomputed, in plan order.
    pub computed: Vec<CubeId>,
    /// Cubes not computed because an upstream subgraph failed (only
    /// populated under [`DispatchPolicy::keep_going`]).
    pub skipped: Vec<CubeId>,
    /// Cubes whose subgraph failed every attempt (only populated under
    /// [`DispatchPolicy::keep_going`]; without it the run aborts).
    pub failed: Vec<CubeId>,
    /// Metrics gathered during the run (empty unless the engine has
    /// observability enabled via [`ExlEngine::enable_metrics`]).
    pub metrics: MetricsSnapshot,
    /// Run-cache activity during this run (all zero when the cache is
    /// disabled): statements skipped on exact hits, statements patched
    /// incrementally, statements executed in full, plus the disk store's
    /// I/O health counters.
    pub cache: CacheStats,
    /// Rows of the cube versions the run cache diffed in full, because no
    /// change set was carried to the statement that needed one (the
    /// `cache.diff_rows` counter; 0 when the cache is disabled).
    pub diff_rows: u64,
}

/// What the observability sinks need from a run, collected even when the
/// run aborts. Unlike [`RunReport`], which an aborted run never returns,
/// this survives the error path — crash bundles and ledger records are
/// built from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunObservation {
    /// Per-subgraph reports seen so far, the aborting subgraph's failing
    /// report included.
    pub(crate) subgraphs: Vec<SubgraphReport>,
    /// Dispatch stages of the run's plan.
    pub(crate) stages: usize,
}

impl Default for ExlEngine {
    fn default() -> Self {
        ExlEngine {
            catalog: Catalog::new(),
            graph: GlobalGraph::new(),
            default_target: TargetKind::Native,
            shards: None,
            exec: ExecOpts::default(),
            policy: DispatchPolicy::default(),
            govern: GovernConfig::default(),
            metrics: None,
            tracer: exl_obs::Tracer::disabled(),
            progress: None,
            cache: None,
            bundle: None,
            ledger_dir: None,
            last_bundle: None,
        }
    }
}

/// Comma-joined cube list for the `cubes` span attribute.
fn join_ids(ids: &[CubeId]) -> String {
    ids.iter()
        .map(|id| id.as_str())
        .collect::<Vec<_>>()
        .join(",")
}

/// Nanoseconds elapsed since `started`, saturating.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A run-level cancel (SIGINT, external token) outside any subgraph is
/// fatal under every policy: count the rollback and abort, so the staged
/// results never commit.
fn run_checkpoint(recorder: &dyn Recorder) -> Result<(), EngineError> {
    match crate::govern::governor().and_then(|g| g.token().cancellation()) {
        Some(err) => {
            recorder.incr_counter("engine.rollbacks", 1);
            Err(err.into())
        }
        None => Ok(()),
    }
}

/// One subgraph of a run with every fact dispatch needs, computed once
/// at planning time (offline: no data is touched).
#[derive(Debug, Clone)]
pub struct PlannedSubgraph {
    /// The determination subgraph: statement indices and the requested
    /// target.
    pub sub: Subgraph,
    /// The subgraph's statements, in execution order.
    pub statements: Vec<Statement>,
    /// Cubes the subgraph computes (its statement targets).
    pub cubes: Vec<CubeId>,
    /// Schemas of the external cubes it reads, as base data.
    pub inputs: Vec<CubeSchema>,
    /// Executable code for [`PlannedSubgraph::target`].
    pub code: TargetCode,
    /// Native code for the runtime fallback chain (`None` unless the
    /// policy enables it and `code` is not native already).
    pub native: Option<TargetCode>,
    /// The target that executes: the requested one, or the native engine
    /// when translation declined it.
    pub target: TargetKind,
    /// True when translation declined the requested target (unsupported
    /// operator) and the subgraph falls back to the native engine.
    pub fallback: bool,
}

/// How one subgraph of a run ended. Every path produces one — skipped on
/// a poisoned input, input staging failed, sharded, served from the run
/// cache, or dispatched — and [`RunState::finish_subgraph`] consumes it.
struct SubgraphOutcome {
    /// Index of the subgraph in the run's plan.
    si: usize,
    /// The produced cubes or the error; `None` when the subgraph was
    /// skipped because an input is poisoned.
    result: Option<Result<Vec<(CubeId, CubeData)>, EngineError>>,
    cache: StmtCacheCounts,
    attempts: Vec<Attempt>,
    shards: Vec<ShardReport>,
    wall_nanos: u64,
    /// The subgraph's span, closed once the outcome is finished.
    span: exl_obs::Span,
}

impl SubgraphOutcome {
    fn new(
        si: usize,
        span: exl_obs::Span,
        result: Option<Result<Vec<(CubeId, CubeData)>, EngineError>>,
    ) -> SubgraphOutcome {
        SubgraphOutcome {
            si,
            result,
            cache: StmtCacheCounts::default(),
            attempts: Vec::new(),
            shards: Vec::new(),
            wall_nanos: 0,
            span,
        }
    }
}

/// The dispatch state of one run: the transaction's staging area plus
/// what the observability sinks collect per subgraph.
struct RunState<'a> {
    planned: &'a [PlannedSubgraph],
    recorder: &'a dyn Recorder,
    progress: Option<&'a ProgressSink>,
    keep_going: bool,
    obs: &'a mut RunObservation,
    report: RunReport,
    /// Per-subgraph reports, indexed by dispatch order.
    reports: Vec<Option<SubgraphReport>>,
    /// The run's transaction: results live here, not in the catalog,
    /// until the end-of-run atomic commit.
    staged: BTreeMap<CubeId, CubeData>,
    /// Cubes of failed or skipped subgraphs: anything reading them is
    /// skipped in turn (keep_going degradation).
    poisoned: BTreeSet<CubeId>,
    done: usize,
}

impl RunState<'_> {
    /// The one handler of a subgraph outcome: derive its status, stamp
    /// the span, bump the counters, record the flight events, stage its
    /// cubes (or poison them), report it to the observation and the
    /// progress sink, and decide between keep-going and rollback. An
    /// `Err` return means the run must roll back.
    fn finish_subgraph(&mut self, outcome: SubgraphOutcome) -> Result<(), EngineError> {
        let SubgraphOutcome {
            si,
            result,
            cache,
            attempts,
            shards,
            wall_nanos,
            span,
        } = outcome;
        let p = &self.planned[si];
        // a subgraph that commits nothing resolved nothing from the cache
        let nothing = StmtCacheCounts::default();
        let (status, items, error, cache) = match result {
            None => (SubgraphStatus::Skipped, Vec::new(), None, nothing),
            Some(Err(e)) => {
                let status = match e {
                    EngineError::Cancelled { .. } => SubgraphStatus::Cancelled,
                    EngineError::BudgetExceeded { .. } => SubgraphStatus::BudgetExceeded,
                    _ => SubgraphStatus::Failed,
                };
                (status, Vec::new(), Some(e), nothing)
            }
            // a subgraph with inline-evaluated dirty statements still
            // computed something: only a fully cache-served one is Cached
            Some(Ok(items)) if cache.misses == 0 && cache.hits + cache.delta_hits > 0 => {
                (SubgraphStatus::Cached, items, None, cache)
            }
            Some(Ok(items)) => (SubgraphStatus::Computed, items, None, cache),
        };
        let rows_out: u64 = items.iter().map(|(_, d)| d.len() as u64).sum();
        let cubes = join_ids(&p.cubes);

        span.set_attr("status", status.name());
        span.set_attr("attempts", attempts.len() as u64);
        span.set_attr("cache_hit", status == SubgraphStatus::Cached);
        if matches!(status, SubgraphStatus::Computed | SubgraphStatus::Cached) {
            span.set_attr("rows_out", rows_out);
            for (id, data) in &items {
                span.set_attr(&format!("rows_out.{id}"), data.len() as u64);
            }
        }
        if let Some(e) = &error {
            span.add_event(e.to_string());
        }
        for (counter, kind, n) in [
            ("cache.hits", FlightKind::CacheHit, cache.hits),
            ("cache.delta_hits", FlightKind::CacheDelta, cache.delta_hits),
            ("cache.misses", FlightKind::CacheMiss, cache.misses),
        ] {
            if n > 0 {
                self.recorder.incr_counter(counter, n);
                flight::record_with(kind, &cubes, || format!("{n} statement(s)"));
            }
        }
        self.report.cache.hits += cache.hits;
        self.report.cache.delta_hits += cache.delta_hits;
        self.report.cache.misses += cache.misses;
        flight::record_with(FlightKind::Subgraph, p.target.name(), || match &error {
            Some(e) => format!("{cubes}: {} ({e})", status.name()),
            None => format!("{cubes}: {}", status.name()),
        });
        let report = SubgraphReport {
            target: p.target,
            fallback: p.fallback,
            cubes: p.cubes.clone(),
            status,
            attempts,
            error: error.as_ref().map(|e| e.to_string()),
            cache,
            wall_nanos,
            rows_out,
            shards,
        };
        // the failing subgraph's report reaches the crash bundle even
        // when the run aborts right here
        self.obs.subgraphs.push(report.clone());

        match (status, error) {
            (SubgraphStatus::Skipped, _) => {
                self.recorder.incr_counter("engine.subgraphs_skipped", 1);
                self.poisoned.extend(p.cubes.iter().cloned());
                self.report.skipped.extend(p.cubes.iter().cloned());
            }
            (_, Some(e)) => {
                // a cancelled *run* token (SIGINT, external cancel)
                // aborts even under keep_going: no later subgraph could
                // execute anyway. A subgraph-local cancel or a tripped
                // run budget degrades like any failure — the report then
                // shows the typed status.
                let run_cancelled =
                    crate::govern::governor().is_some_and(|g| g.token().is_cancelled());
                if !self.keep_going || (e.is_governance() && run_cancelled) {
                    self.recorder.incr_counter("engine.rollbacks", 1);
                    return Err(e);
                }
                self.recorder.incr_counter("engine.subgraphs_failed", 1);
                self.poisoned.extend(p.cubes.iter().cloned());
                self.report.failed.extend(p.cubes.iter().cloned());
            }
            (status, None) => {
                if status == SubgraphStatus::Cached {
                    self.recorder.incr_counter("engine.subgraphs_cached", 1);
                }
                for (id, data) in items {
                    self.staged.insert(id.clone(), data);
                    self.report.computed.push(id);
                }
            }
        }
        self.reports[si] = Some(report);
        self.done += 1;
        if let Some(sink) = self.progress {
            sink.emit(&ProgressEvent {
                done: self.done,
                total: self.planned.len(),
                cubes: p.cubes.clone(),
                target: p.target,
                status,
            });
        }
        Ok(())
    }
}

impl ExlEngine {
    /// Fresh engine with an empty catalog.
    pub fn new() -> ExlEngine {
        ExlEngine::default()
    }

    /// Turn on observability: every subsequent run records spans and
    /// counters into the returned registry, and [`RunReport::metrics`]
    /// carries a snapshot of it. The registry accumulates across runs.
    pub fn enable_metrics(&mut self) -> Arc<MetricsRegistry> {
        let registry = self
            .metrics
            .get_or_insert_with(|| Arc::new(MetricsRegistry::new()));
        Arc::clone(registry)
    }

    /// The engine's metrics registry, if observability is enabled.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Turn on the in-memory run cache: subsequent runs skip every
    /// statement whose statement text, target, schemas, and input cube
    /// contents are unchanged, and patch incrementally where the delta
    /// kernels apply. No-op if a cache (of either kind) is already armed.
    pub fn enable_cache(&mut self) {
        if self.cache.is_none() {
            self.cache = Some(RunCache::in_memory());
        }
    }

    /// Turn on the run cache with a disk mirror rooted at `dir`, so
    /// cached results survive the process (and entries written by earlier
    /// processes are reused). Replaces any previously armed cache.
    pub fn enable_disk_cache(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        self.cache = Some(RunCache::with_dir(dir)?);
        Ok(())
    }

    /// Drop the run cache; subsequent runs are cold.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Whether a run cache is armed.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Turn on hierarchical tracing: every subsequent run records a span
    /// tree (run → plan/stage → subgraph → attempt → execute.\<target\> →
    /// backend steps) into the returned tracer. The tracer accumulates
    /// across runs; export a snapshot with
    /// [`Tracer::snapshot`](exl_obs::Tracer::snapshot).
    pub fn enable_tracing(&mut self) -> exl_obs::Tracer {
        if !self.tracer.is_enabled() {
            self.tracer = exl_obs::Tracer::new();
        }
        self.tracer.clone()
    }

    /// The engine's tracer (disabled unless [`ExlEngine::enable_tracing`]
    /// was called).
    pub fn tracer(&self) -> &exl_obs::Tracer {
        &self.tracer
    }

    /// Use an externally owned tracer (e.g. the CLI's, so several engine
    /// runs and the command's own spans land in one tree).
    pub fn set_tracer(&mut self, tracer: exl_obs::Tracer) {
        self.tracer = tracer;
    }

    /// Use an externally owned metrics registry instead of creating one
    /// via [`ExlEngine::enable_metrics`].
    pub fn set_metrics_registry(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(registry);
    }

    /// Arm crash-bundle dumping: any subsequent run that fails (aborts
    /// with an error, or degrades under
    /// [`DispatchPolicy::keep_going`](crate::DispatchPolicy)) writes one
    /// self-describing JSON bundle — the flight recorder's event tail, a
    /// metrics snapshot, governance state, and per-subgraph statuses —
    /// into `dir`. Arming the bundle dir also gives the engine its own
    /// [`exl_obs::flight`] ring, entered for every run, which the bundle's
    /// event tail is read from. Re-arming starts a fresh ring.
    pub fn set_bundle_dir(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            EngineError::Persistence(format!("cannot create bundle dir {}: {e}", dir.display()))
        })?;
        self.bundle = Some(crate::bundle::BundleSink {
            dir,
            ring: flight::FlightRing::new(flight::DEFAULT_CAPACITY),
        });
        Ok(())
    }

    /// The crash bundle written by the most recent failed run, if any.
    pub fn last_bundle(&self) -> Option<&std::path::Path> {
        self.last_bundle.as_deref()
    }

    /// Arm the run ledger: every subsequent run — successful or not —
    /// appends one JSONL record (program/input fingerprints, per-statement
    /// wall times, cache counts, throughput, status) to
    /// `<dir>/ledger.jsonl`. `exlc perf` mines these records for
    /// per-statement performance baselines.
    pub fn set_ledger_dir(
        &mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(), EngineError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            EngineError::Persistence(format!("cannot create ledger dir {}: {e}", dir.display()))
        })?;
        self.ledger_dir = Some(dir);
        Ok(())
    }

    /// Content fingerprint of the registered program set: the canonical
    /// text of every statement in the global graph, in graph order. Two
    /// engines running the same programs share it regardless of data, so
    /// ledger baselines survive process restarts.
    pub fn program_fingerprint(&self) -> exl_model::fingerprint::Fingerprint {
        let mut b = exl_model::fingerprint::FingerprintBuilder::new("exl.program.v1");
        for stmt in self.graph.statements() {
            b.push_str(&exl_lang::pretty::statement_to_string(stmt));
        }
        b.finish()
    }

    /// Content fingerprint of one run's inputs: the changed cube ids and
    /// the current contents of each.
    pub fn inputs_fingerprint(&self, changed: &[CubeId]) -> exl_model::fingerprint::Fingerprint {
        let mut b = exl_model::fingerprint::FingerprintBuilder::new("exl.inputs.v1");
        for id in changed {
            b.push_str(id.as_str());
            if let Some(data) = self.catalog.current(id) {
                b.push(exl_model::fingerprint::Fingerprint::of_cube(data));
            }
        }
        b.finish()
    }

    /// Register an EXL program: parse, analyze against the catalog's
    /// schemas, record every schema (declared elementary and inferred
    /// derived), and extend the global dependency graph. Returns the
    /// derived cube ids the program defines.
    pub fn register_program(
        &mut self,
        name: &str,
        source: &str,
    ) -> Result<Vec<CubeId>, EngineError> {
        let program =
            exl_lang::parse_program(source).map_err(|e| EngineError::Lang(e.to_string()))?;
        // catalog cubes are visible to the program, except those it
        // (re-)declares itself — re-declaration is checked against the
        // catalog below, so two programs may declare the same elementary
        // cube as long as the schemas agree
        let external: Vec<_> = self
            .catalog
            .cube_ids()
            .iter()
            .filter(|id| !program.decls.iter().any(|d| &&d.id == id))
            .map(|id| self.catalog.schema(id).expect("listed").clone())
            .collect();
        let analyzed =
            exl_lang::analyze(&program, &external).map_err(|e| EngineError::Lang(e.to_string()))?;
        // record schemas: declared elementary cubes and derived cubes
        for decl in &program.decls {
            self.catalog
                .register_schema(exl_lang::analyze::decl_to_schema(decl))?;
        }
        for id in analyzed.program.derived_ids() {
            self.catalog
                .register_schema(analyzed.schemas[&id].clone())?;
        }
        self.graph.add_program(&analyzed)?;
        self.catalog.register_program_source(name, source)?;
        Ok(analyzed.program.derived_ids())
    }

    /// Load (a new version of) an elementary cube's data.
    pub fn load_elementary(&mut self, id: &CubeId, data: CubeData) -> Result<u64, EngineError> {
        match self.catalog.schema(id) {
            Some(s) if s.kind == CubeKind::Elementary => {}
            Some(_) => {
                return Err(EngineError::Catalog(format!(
                    "cube {id} is derived; its data is computed, not loaded"
                )))
            }
            None => return Err(EngineError::Catalog(format!("unknown cube {id}"))),
        }
        self.catalog.store(id, data)
    }

    /// Current data of a cube.
    pub fn data(&self, id: &CubeId) -> Option<&CubeData> {
        self.catalog.current(id)
    }

    /// Historicity: a consistent snapshot of the given cubes as of a
    /// logical time (each cube's latest version ≤ `at`). Cubes with no
    /// version at that time are absent from the snapshot.
    pub fn snapshot_as_of(&self, ids: &[CubeId], at: u64) -> exl_model::Dataset {
        let mut ds = exl_model::Dataset::new();
        for id in ids {
            if let (Some(meta), Some(data)) = (self.catalog.meta(id), self.catalog.as_of(id, at)) {
                ds.put(exl_model::Cube::new(meta.schema.clone(), data.clone()));
            }
        }
        ds
    }

    /// The global dependency graph (read-only).
    pub fn graph(&self) -> &GlobalGraph {
        &self.graph
    }

    /// §6's operator-specificity heuristic: suggest the most suitable
    /// target for one statement. Whole-series statistical operators favor
    /// the vector-oriented engines; joins and aggregations favor the
    /// relational engine; the default-value variant needs the ETL engine's
    /// outer merge; plain scalar work stays native.
    pub fn suggest_affinity(stmt: &exl_lang::Statement) -> TargetKind {
        fn scan(expr: &exl_lang::Expr) -> (bool, bool, bool, usize) {
            // (has_series, has_outer, has_aggregate, cube_refs)
            match expr {
                exl_lang::Expr::SeriesFn { arg, .. } => {
                    let (_, o, a, n) = scan(arg);
                    (true, o, a, n)
                }
                exl_lang::Expr::Binary {
                    policy, lhs, rhs, ..
                } => {
                    let (s1, o1, a1, n1) = scan(lhs);
                    let (s2, o2, a2, n2) = scan(rhs);
                    let outer = matches!(policy, exl_lang::JoinPolicy::Outer { .. });
                    (s1 || s2, o1 || o2 || outer, a1 || a2, n1 + n2)
                }
                exl_lang::Expr::Aggregate { arg, .. } => {
                    let (se, o, _, n) = scan(arg);
                    (se, o, true, n)
                }
                exl_lang::Expr::Unary { arg, .. } | exl_lang::Expr::Shift { arg, .. } => scan(arg),
                exl_lang::Expr::Cube(_) => (false, false, false, 1),
                exl_lang::Expr::Number(_) => (false, false, false, 0),
            }
        }
        let (series, outer, aggregate, refs) = scan(&stmt.expr);
        if outer {
            TargetKind::Etl
        } else if series {
            TargetKind::R
        } else if aggregate || refs > 1 {
            TargetKind::Sql
        } else {
            TargetKind::Native
        }
    }

    /// Apply [`ExlEngine::suggest_affinity`] to every derived cube that
    /// has no explicit affinity yet. Returns the assignments made.
    pub fn apply_suggested_affinities(&mut self) -> Result<Vec<(CubeId, TargetKind)>, EngineError> {
        let suggestions: Vec<(CubeId, TargetKind)> = self
            .graph
            .statements()
            .iter()
            .filter(|s| {
                self.catalog
                    .meta(&s.target)
                    .map(|m| m.affinity.is_none())
                    .unwrap_or(false)
            })
            .map(|s| (s.target.clone(), Self::suggest_affinity(s)))
            .collect();
        for (id, target) in &suggestions {
            self.catalog.set_affinity(id, Some(*target))?;
        }
        Ok(suggestions)
    }

    fn affinity_of(&self, id: &CubeId) -> TargetKind {
        self.catalog
            .meta(id)
            .and_then(|m| m.affinity)
            .unwrap_or(self.default_target)
    }

    /// The offline half of a run: determine and translate, touching no
    /// data. Returns each subgraph with its executable code and the other
    /// facts dispatch needs (B1 measures exactly this step).
    pub fn plan_and_translate(
        &self,
        changed: &[CubeId],
    ) -> Result<Vec<PlannedSubgraph>, EngineError> {
        let plan = self.graph.determine(changed);
        let schema_of = |id: &CubeId| self.catalog.schema(id).cloned();
        let mut out = Vec::new();
        for sub in self.graph.partition(&plan, &|id| self.affinity_of(id)) {
            let statements: Vec<Statement> = sub
                .statements
                .iter()
                .map(|&i| self.graph.statements()[i].clone())
                .collect();
            let inputs = input_schemas(&statements, &schema_of)?;
            let analyzed = subprogram(&statements, &inputs)?;
            let (code, fallback) = match translate(&analyzed, sub.target) {
                Ok(code) => (code, false),
                // §5: not every operator is supported on every target —
                // the dispatcher reroutes the subgraph to the native
                // engine and reports the fallback
                Err(EngineError::Unsupported { .. }) => {
                    (translate(&analyzed, TargetKind::Native)?, true)
                }
                Err(other) => return Err(other),
            };
            let target = code.target_kind();
            // the runtime fallback chain re-runs a failing subgraph on
            // the native engine: translate that variant up front too
            let native = if self.policy.runtime_fallback && target != TargetKind::Native {
                Some(translate(&analyzed, TargetKind::Native)?)
            } else {
                None
            };
            out.push(PlannedSubgraph {
                cubes: statements.iter().map(|s| s.target.clone()).collect(),
                sub,
                statements,
                inputs,
                code,
                native,
                target,
                fallback,
            });
        }
        Ok(out)
    }

    /// Recompute everything downstream of the changed cubes.
    ///
    /// The run is **transactional**: every subgraph's results are staged
    /// outside the catalog and committed atomically (new versions) only
    /// when the run's [`DispatchPolicy`] is satisfied. Under the default
    /// policy any failure rolls the whole run back — the catalog is left
    /// byte-identical — and the error is returned; under
    /// [`DispatchPolicy::keep_going`] every subgraph not downstream of a
    /// failure still commits, and the report lists the failed and skipped
    /// cubes.
    pub fn recompute(&mut self, changed: &[CubeId]) -> Result<RunReport, EngineError> {
        // hold the registry in a local so the recorder borrow does not
        // pin `self` while the catalog is mutated below
        let registry = self.metrics.clone();
        let recorder: &dyn Recorder = match &registry {
            Some(r) => r.as_ref(),
            None => &NoopRecorder,
        };
        // the run's context borrows a copy of the policy: the run mutates
        // `self` (cache, catalog) while the context is alive
        let policy = self.policy.clone();
        let tracer = self.tracer.clone();
        // every run gets its own governor (a child of the external token
        // over a fresh budget), installed as the dispatching thread's
        // ambient governor for the duration of the run
        let run_governor = self.govern.run_governor();
        let started = std::time::Instant::now();
        // observability collected alongside the report, surviving aborts
        let mut obs = RunObservation::default();
        // this engine's own ring (armed with a bundle dir) takes the run's
        // events; the run governor carries it to every worker thread
        let _ring = self.bundle.as_ref().map(|b| b.ring.enter());
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Run, "engine.run", || {
            format!("start: {} changed cube(s)", changed.len())
        });
        let mut result = {
            let _run_span = exl_obs::span(recorder, "engine.recompute");
            let run_span = tracer.root("run");
            run_span.set_attr("changed", changed.len() as u64);
            let result = {
                let _governor = crate::govern::set_governor(run_governor.clone());
                // move the cache out of `self` for the duration of the run
                // so the dispatcher can consult it mutably while borrowing
                // the catalog
                let mut cache = self.cache.take();
                let ctx = ExecCtx {
                    recorder,
                    trace: &run_span,
                    opts: self.exec,
                    policy: &policy,
                };
                let result = self.recompute_inner(changed, &ctx, &mut cache, &mut obs);
                self.cache = cache;
                result
            };
            // governance observability: peak accounted memory, whether
            // the run was cancelled, and why
            if run_governor.budget().mem_peak_bytes() > 0 {
                recorder.set_gauge(
                    "govern.mem_peak_bytes",
                    run_governor.budget().mem_peak_bytes() as i64,
                );
            }
            let cancelled = run_governor.token().is_cancelled()
                || matches!(&result, Err(e) if e.is_governance());
            run_span.set_attr("cancelled", cancelled);
            match &result {
                Ok(_) => run_span.set_attr("status", "ok"),
                Err(e) => {
                    if e.is_governance() {
                        recorder.incr_counter("run.cancelled", 1);
                        if matches!(
                            run_governor.budget().verdict(),
                            Err(crate::govern::GovernError::DeadlineExceeded { .. })
                        ) {
                            recorder.incr_counter("govern.deadline_exceeded", 1);
                        }
                    }
                    run_span.set_attr("status", "failed");
                    run_span.add_event(e.to_string());
                }
            }
            result
        };
        let wall = started.elapsed();
        if let (Some(registry), Ok(report)) = (&registry, result.as_mut()) {
            report.metrics = registry.snapshot();
        }
        exl_obs::flight::record_with(exl_obs::flight::FlightKind::Run, "engine.run", || {
            match &result {
                Ok(r) if r.failed.is_empty() => "end: ok".to_string(),
                Ok(r) => format!("end: degraded, {} failed cube(s)", r.failed.len()),
                Err(e) => format!("end: {e}"),
            }
        });
        self.finish_run_observability(changed, &result, &obs, &run_governor, wall);
        result
    }

    /// After a run: dump a crash bundle when it failed (and a bundle dir
    /// is armed) and append the run's ledger record (when a ledger dir is
    /// armed). Sink failures are reported on stderr, never as run errors
    /// — observability must not fail an otherwise sound run.
    fn finish_run_observability(
        &mut self,
        changed: &[CubeId],
        result: &Result<RunReport, EngineError>,
        obs: &RunObservation,
        governor: &crate::govern::Governor,
        wall: std::time::Duration,
    ) {
        let failed = match result {
            Err(_) => true,
            Ok(r) => !r.failed.is_empty(),
        };
        if failed {
            if let Some(sink) = &self.bundle {
                match crate::bundle::write_crash_bundle(
                    sink,
                    result,
                    obs,
                    governor,
                    &self.govern,
                    self.metrics.as_deref(),
                    self.exec.eval_threads,
                ) {
                    Ok(path) => self.last_bundle = Some(path),
                    Err(e) => eprintln!("exl-engine: crash bundle not written: {e}"),
                }
            }
        }
        if let Some(dir) = self.ledger_dir.clone() {
            let record = crate::ledger::LedgerRecord::of_run(
                self.program_fingerprint(),
                self.inputs_fingerprint(changed),
                result,
                obs,
                governor,
                wall,
            );
            if let Err(e) = crate::ledger::append(&dir, &record) {
                eprintln!("exl-engine: ledger record not written: {e}");
            }
        }
    }

    /// Plan the run, then dispatch it stage by stage, one subgraph after
    /// another on this thread: each is skipped, fails to stage its
    /// inputs, runs sharded, is served from the run cache, or runs under
    /// the dispatch supervisor, and each outcome goes through
    /// [`RunState::finish_subgraph`]. Commits the staged cubes
    /// when no outcome asked for a rollback. `ctx.trace` is the run span.
    fn recompute_inner(
        &mut self,
        changed: &[CubeId],
        ctx: &ExecCtx,
        cache: &mut Option<RunCache>,
        obs: &mut RunObservation,
    ) -> Result<RunReport, EngineError> {
        let recorder = ctx.recorder;
        let cache_io_start = cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let diff_rows_start = cache.as_ref().map_or(0, RunCache::diff_rows);
        let planned = {
            let _span = exl_obs::span(recorder, "engine.plan_and_translate");
            let plan_span = ctx.trace.child("plan");
            let planned = self.plan_and_translate(changed)?;
            plan_span.set_attr("subgraphs", planned.len() as u64);
            planned
        };
        if planned.is_empty() {
            return Ok(RunReport::default());
        }
        recorder.incr_counter("engine.subgraphs", planned.len() as u64);
        recorder.incr_counter(
            "engine.fallbacks",
            planned.iter().filter(|p| p.fallback).count() as u64,
        );
        let subgraphs: Vec<Subgraph> = planned.iter().map(|p| p.sub.clone()).collect();
        let stages = self.graph.stages(&subgraphs);
        recorder.incr_counter("engine.stages", stages.len() as u64);
        obs.stages = stages.len();
        let shards = self.effective_shards();

        let mut run = RunState {
            planned: &planned,
            recorder,
            progress: self.progress.as_ref(),
            keep_going: ctx.policy.keep_going,
            obs,
            report: RunReport {
                stages: stages.len(),
                ..RunReport::default()
            },
            reports: vec![None; planned.len()],
            staged: BTreeMap::new(),
            poisoned: BTreeSet::new(),
            done: 0,
        };
        for (stage_no, stage) in stages.iter().enumerate() {
            // a run-level cancel between stages aborts before any more
            // work is dispatched. Budget verdicts are deliberately not
            // checked here: they surface per subgraph, where keep_going
            // can degrade around them.
            run_checkpoint(recorder)?;
            let stage_span = ctx.trace.child("stage");
            stage_span.set_attr("index", stage_no as u64);
            stage_span.set_attr("subgraphs", stage.len() as u64);
            let stage_ctx = ctx.under(&stage_span);
            // each subgraph's inputs are satisfied by earlier stages
            for &si in stage {
                let outcome = self.run_subgraph(si, &stage_ctx, &run, cache, shards);
                run.finish_subgraph(outcome)?;
            }
        }
        let RunState {
            mut report,
            reports,
            mut staged,
            ..
        } = run;
        // fold the cache store's I/O activity of this run into the report
        if let Some(c) = cache.as_ref() {
            let io = c.stats().since(&cache_io_start);
            report.cache.stores = io.stores;
            report.cache.corrupt_entries = io.corrupt_entries;
            report.cache.write_failures = io.write_failures;
            recorder.incr_counter("cache.stores", io.stores);
            recorder.incr_counter("cache.corrupt", io.corrupt_entries);
            recorder.incr_counter("cache.write_failures", io.write_failures);
            report.diff_rows = c.diff_rows() - diff_rows_start;
            recorder.incr_counter("cache.diff_rows", report.diff_rows);
        }
        // last checkpoint before the point of no return: a run-level
        // cancel that raced the final stage (a SIGINT during the cache
        // flush, say) must roll back, not commit
        run_checkpoint(recorder)?;
        // the transactional commit: all-or-nothing, in dispatch order
        let items: Vec<(CubeId, CubeData)> = report
            .computed
            .iter()
            .map(|id| (id.clone(), staged.remove(id).expect("staged every commit")))
            .collect();
        self.catalog.commit_versions(items)?;
        report.subgraphs = reports.into_iter().flatten().collect();
        Ok(report)
    }

    /// Run one subgraph to its outcome. It ends early when an input is
    /// poisoned, its inputs cannot be staged, it runs sharded, or the run
    /// cache serves it; otherwise it runs under the dispatch supervisor
    /// and its fresh results are recorded in the run cache. `ctx.trace`
    /// is the stage span.
    fn run_subgraph(
        &self,
        si: usize,
        ctx: &ExecCtx,
        run: &RunState,
        cache: &mut Option<RunCache>,
        shards: usize,
    ) -> SubgraphOutcome {
        let p = &run.planned[si];
        let span = ctx.trace.child("subgraph");
        span.set_attr("cubes", join_ids(&p.cubes));
        span.set_attr("target", p.code.target_name());
        span.set_attr("fallback", p.fallback);
        if p.inputs.iter().any(|s| run.poisoned.contains(&s.id)) {
            return SubgraphOutcome::new(si, span, None);
        }
        let input = match self.prepare_inputs_staged(&p.inputs, &run.staged) {
            Ok(input) => input,
            // a missing input is a deterministic failure of this
            // subgraph, not of the whole run
            Err(e) => return SubgraphOutcome::new(si, span, Some(Err(e))),
        };
        span.set_attr("rows_in", dataset_rows(&input));
        let schema_of = |id: &CubeId| self.catalog.schema(id).cloned();
        let started = Instant::now();
        // sharded dispatch: a native subgraph whose statements admit a
        // shard plan runs data-parallel right here — it consults the run
        // cache itself, as below
        let shard_plan = (shards >= 2 && p.target == TargetKind::Native)
            .then(|| exl_eval::plan_shards(&p.statements, &schema_of))
            .flatten();
        if let Some(plan) = shard_plan {
            span.set_attr("shards", shards as u64);
            span.set_attr("shard_dim", plan.dim.as_str());
            let (result, shard) = dispatch_sharded_in(
                &p.statements,
                &plan,
                shards,
                &input,
                &schema_of,
                cache,
                &ctx.under(&span),
            );
            return SubgraphOutcome {
                cache: shard.counts,
                attempts: shard.attempts,
                shards: shard.reports,
                wall_nanos: nanos_since(started),
                ..SubgraphOutcome::new(si, span, Some(result))
            };
        }
        // consult the run cache: if every statement of the subgraph
        // resolves (exact content hit, delta patch, or inline evaluation
        // of a dirty remainder), stage the cached outputs and never
        // dispatch
        let resolved = cache.as_mut().and_then(|c| {
            c.resolve_statements_with_threads(
                &p.statements,
                p.target,
                &input,
                &schema_of,
                ctx.opts.eval_threads,
            )
        });
        if let Some((items, counts)) = resolved {
            return SubgraphOutcome {
                cache: counts,
                wall_nanos: nanos_since(started),
                ..SubgraphOutcome::new(si, span, Some(Ok(items)))
            };
        }
        let (result, attempts) = {
            // the supervised run governs under a child of the run's
            // governor, which scopes injected cancels to this subgraph
            let _governor =
                crate::govern::governor().map(|g| crate::govern::set_governor(g.child()));
            run_supervised(
                &p.code,
                p.native.as_ref(),
                &input,
                &p.cubes,
                &ctx.under(&span),
            )
        };
        let wall_nanos = nanos_since(started);
        let mut counts = StmtCacheCounts::default();
        if let (Ok(items), Some(c)) = (&result, cache.as_mut()) {
            counts.misses = items.len() as u64;
            // record the results for future runs — but only when the
            // effective target actually produced them (a runtime-fallback
            // result under another target's key would replay the wrong
            // engine)
            if attempts.last().is_some_and(|a| a.target == p.target) {
                c.store_statements(&p.statements, p.target, &input, items, &schema_of);
            }
        }
        SubgraphOutcome {
            cache: counts,
            attempts,
            wall_nanos,
            ..SubgraphOutcome::new(si, span, Some(result))
        }
    }

    /// The shard count a run of this engine would use: 1 when sharding
    /// is disabled, the host's available parallelism for `Some(0)`
    /// (`--shards auto`), the configured count otherwise.
    pub fn effective_shards(&self) -> usize {
        match self.shards {
            None => 1,
            Some(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(n) => n,
        }
    }

    /// Compiled-plan introspection for every native subgraph a full run
    /// would dispatch: the subgraph's derived cubes paired with the plan
    /// description (fusion regions, CSE reuses, materialization points).
    /// Subgraphs assigned to external backends are skipped — they have
    /// no fused plan. Touches no data; like
    /// [`plan_and_translate`](ExlEngine::plan_and_translate) this is
    /// purely offline.
    pub fn plan_overview(
        &self,
    ) -> Result<Vec<(Vec<CubeId>, exl_eval::PlanDescription)>, EngineError> {
        let changed: Vec<CubeId> = self.catalog.elementary_ids();
        let mut out = Vec::new();
        for p in self.plan_and_translate(&changed)? {
            if let TargetCode::Native { analyzed } = &p.code {
                let desc = exl_eval::plan_description(analyzed)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                out.push((p.cubes, desc));
            }
        }
        Ok(out)
    }

    /// Recompute every derived cube from all loaded elementary cubes.
    pub fn run_all(&mut self) -> Result<RunReport, EngineError> {
        let changed: Vec<CubeId> = self
            .catalog
            .elementary_ids()
            .into_iter()
            .filter(|id| self.catalog.current(id).is_some())
            .collect();
        self.recompute(&changed)
    }

    /// Snapshot the inputs a subgraph reads (cross-engine data movement:
    /// the dispatcher "can provide them with the data they have to operate
    /// on", §6). Results of earlier subgraphs in the same run come from
    /// the run's staging area — they are not in the catalog until the
    /// end-of-run commit.
    fn prepare_inputs_staged(
        &self,
        inputs: &[CubeSchema],
        staged: &BTreeMap<CubeId, CubeData>,
    ) -> Result<Dataset, EngineError> {
        // the executors treat subgraph inputs as base data
        let mut fixed = Dataset::new();
        for schema in inputs {
            let data = staged
                .get(&schema.id)
                .or_else(|| self.catalog.current(&schema.id))
                .ok_or_else(|| EngineError::Catalog(format!("cube {} has no data yet", schema.id)))?
                .clone();
            fixed.put(exl_model::Cube::new(schema.clone(), data));
        }
        Ok(fixed)
    }
}
