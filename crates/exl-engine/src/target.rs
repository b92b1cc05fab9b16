//! Target engines and the translation layer.
//!
//! The translation engine (§6) turns a set of EXL statements — one
//! determination subgraph — into an intermediate schema mapping and then
//! into the executable form of a specific target system. The dispatcher
//! later feeds each target engine its input cubes, runs the translated
//! code, and extracts the produced cubes. All six targets implement the
//! same contract, which is what makes the cross-backend equivalence
//! experiments (C6) possible.

use std::collections::BTreeMap;

use exl_chase::ChaseMode;
use exl_lang::analyze::{analyze, AnalyzedProgram};
use exl_lang::ast::{Program, Statement};
use exl_map::dep::Mapping;
use exl_map::generate::{generate_mapping, GenMode};
use exl_model::schema::{CubeId, CubeKind, CubeSchema};
use exl_model::{CubeData, Dataset};

use crate::error::EngineError;

/// The available target systems.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum TargetKind {
    /// The reference interpreter (in-process evaluation).
    Native,
    /// Data exchange via the stratified chase.
    Chase,
    /// Generated SQL on the in-memory relational engine.
    Sql,
    /// Generated R on the mini-R interpreter.
    R,
    /// Generated Matlab on the mini-Matlab interpreter.
    Matlab,
    /// Generated ETL job (sequential runner).
    Etl,
    /// Generated ETL job on the pipeline-parallel runner.
    EtlParallel,
}

impl TargetKind {
    /// All targets.
    pub const ALL: [TargetKind; 7] = [
        TargetKind::Native,
        TargetKind::Chase,
        TargetKind::Sql,
        TargetKind::R,
        TargetKind::Matlab,
        TargetKind::Etl,
        TargetKind::EtlParallel,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Native => "native",
            TargetKind::Chase => "chase",
            TargetKind::Sql => "sql",
            TargetKind::R => "r",
            TargetKind::Matlab => "matlab",
            TargetKind::Etl => "etl",
            TargetKind::EtlParallel => "etl-parallel",
        }
    }
}

impl std::fmt::Display for TargetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Translated, executable code for one subgraph — the artifact the paper's
/// translation engine produces offline.
#[derive(Debug, Clone)]
pub enum TargetCode {
    /// Native/chase execution keeps the analyzed program (+ mapping for
    /// the chase).
    Native {
        /// The analyzed subprogram.
        analyzed: AnalyzedProgram,
    },
    /// Chase execution: mapping plus schema table.
    Chase {
        /// The mapping.
        mapping: Box<Mapping>,
        /// Schemas (including rewrite auxiliaries).
        schemas: BTreeMap<CubeId, CubeSchema>,
    },
    /// SQL script (CREATEs for derived tables + one INSERT per tgd).
    Sql {
        /// Statements, in order.
        statements: Vec<String>,
        /// Schemas for loading inputs and extracting outputs.
        schemas: BTreeMap<CubeId, CubeSchema>,
    },
    /// R script.
    R {
        /// The script.
        script: String,
        /// Schemas.
        schemas: BTreeMap<CubeId, CubeSchema>,
    },
    /// Matlab script.
    Matlab {
        /// The script.
        script: String,
        /// Schemas.
        schemas: BTreeMap<CubeId, CubeSchema>,
    },
    /// ETL job.
    Etl {
        /// The job.
        job: Box<exl_etl::Job>,
        /// Run with the pipeline-parallel runner.
        parallel: bool,
    },
}

impl TargetCode {
    /// Name of the target system this code runs on (matches
    /// [`TargetKind::name`]).
    pub fn target_name(&self) -> &'static str {
        match self {
            TargetCode::Native { .. } => "native",
            TargetCode::Chase { .. } => "chase",
            TargetCode::Sql { .. } => "sql",
            TargetCode::R { .. } => "r",
            TargetCode::Matlab { .. } => "matlab",
            TargetCode::Etl {
                parallel: false, ..
            } => "etl",
            TargetCode::Etl { parallel: true, .. } => "etl-parallel",
        }
    }

    /// The [`TargetKind`] this code runs on.
    pub fn target_kind(&self) -> TargetKind {
        match self {
            TargetCode::Native { .. } => TargetKind::Native,
            TargetCode::Chase { .. } => TargetKind::Chase,
            TargetCode::Sql { .. } => TargetKind::Sql,
            TargetCode::R { .. } => TargetKind::R,
            TargetCode::Matlab { .. } => TargetKind::Matlab,
            TargetCode::Etl {
                parallel: false, ..
            } => TargetKind::Etl,
            TargetCode::Etl { parallel: true, .. } => TargetKind::EtlParallel,
        }
    }

    /// A printable form of the generated artifact (for the examples and
    /// EXPERIMENTS documentation).
    pub fn listing(&self) -> String {
        match self {
            TargetCode::Native { analyzed } => exl_lang::program_to_string(&analyzed.program),
            TargetCode::Chase { mapping, .. } => mapping.display_tgds(),
            TargetCode::Sql { statements, .. } => statements.join(";\n\n"),
            TargetCode::R { script, .. } => script.clone(),
            TargetCode::Matlab { script, .. } => script.clone(),
            TargetCode::Etl { job, .. } => job
                .flows
                .iter()
                .map(|f| {
                    format!(
                        "flow ({}): {} source(s), {} merge(s), {} transform(s) -> {}",
                        f.id,
                        f.sources.len(),
                        f.merges.len(),
                        f.transforms.len(),
                        f.output.relation
                    )
                })
                .collect::<Vec<_>>()
                .join("\n"),
        }
    }
}

/// Build a self-contained analyzed program from a statement subset.
/// `input_schemas` must cover every cube the statements read that they do
/// not define themselves.
pub fn subprogram(
    statements: &[Statement],
    input_schemas: &[CubeSchema],
) -> Result<AnalyzedProgram, EngineError> {
    let program = Program {
        decls: Vec::new(),
        statements: statements.to_vec(),
    };
    analyze(&program, input_schemas).map_err(|e| EngineError::Lang(e.to_string()))
}

/// Translate an analyzed subprogram for a target. This is the offline step
/// of §6: no data is touched.
pub fn translate(
    analyzed: &AnalyzedProgram,
    target: TargetKind,
) -> Result<TargetCode, EngineError> {
    match target {
        TargetKind::Native => Ok(TargetCode::Native {
            analyzed: analyzed.clone(),
        }),
        TargetKind::Chase => {
            let (mapping, re) = generate_mapping(analyzed, GenMode::Fused)
                .map_err(|e| EngineError::Mapping(e.to_string()))?;
            Ok(TargetCode::Chase {
                mapping: Box::new(mapping),
                schemas: re.schemas,
            })
        }
        TargetKind::Sql => {
            let (mapping, re) = generate_mapping(analyzed, GenMode::Fused)
                .map_err(|e| EngineError::Mapping(e.to_string()))?;
            let statements = exl_sqlgen::mapping_to_sql(&mapping).map_err(|e| match e {
                exl_sqlgen::SqlGenError::Unsupported { reason, .. } => EngineError::Unsupported {
                    target: "sql".into(),
                    reason,
                },
                other => EngineError::Translation(other.to_string()),
            })?;
            Ok(TargetCode::Sql {
                statements,
                schemas: re.schemas,
            })
        }
        TargetKind::R => {
            let (mapping, re) = generate_mapping(analyzed, GenMode::Fused)
                .map_err(|e| EngineError::Mapping(e.to_string()))?;
            let script = exl_rgen::mapping_to_r(&mapping).map_err(|e| match e {
                exl_rgen::RGenError::Unsupported { reason, .. } => EngineError::Unsupported {
                    target: "r".into(),
                    reason,
                },
                other => EngineError::Translation(other.to_string()),
            })?;
            Ok(TargetCode::R {
                script,
                schemas: re.schemas,
            })
        }
        TargetKind::Matlab => {
            let (mapping, re) = generate_mapping(analyzed, GenMode::Fused)
                .map_err(|e| EngineError::Mapping(e.to_string()))?;
            let script = exl_matgen::mapping_to_matlab(&mapping).map_err(|e| match e {
                exl_matgen::MatGenError::Unsupported { reason, .. } => EngineError::Unsupported {
                    target: "matlab".into(),
                    reason,
                },
                other => EngineError::Translation(other.to_string()),
            })?;
            Ok(TargetCode::Matlab {
                script,
                schemas: re.schemas,
            })
        }
        TargetKind::Etl | TargetKind::EtlParallel => {
            let (mapping, _) = generate_mapping(analyzed, GenMode::Fused)
                .map_err(|e| EngineError::Mapping(e.to_string()))?;
            let job = exl_etl::mapping_to_job(&mapping)
                .map_err(|e| EngineError::Translation(e.to_string()))?;
            Ok(TargetCode::Etl {
                job: Box::new(job),
                parallel: target == TargetKind::EtlParallel,
            })
        }
    }
}

/// Per-dispatch execution options, threaded from the engine (or `exlc`)
/// down to the native evaluator. These replace the process-global
/// `EXL_NO_FUSION` / `EXL_EVAL_THREADS` environment toggles inside the
/// engine: the env vars remain CLI-level defaults only, so parallel test
/// harnesses (and parallel shard workers) can pick different settings
/// per run without racing on `set_var`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// Run native subgraphs on the statement-at-a-time evaluator instead
    /// of the fused streaming plans.
    pub no_fusion: bool,
    /// Fixed native-evaluator worker count (`None` probes the machine).
    /// The sharded dispatcher pins this to 1 per shard worker so shard
    /// parallelism does not multiply with intra-evaluator parallelism.
    pub eval_threads: Option<usize>,
}

/// Execute translated code against input data, returning the cubes named
/// in `wanted` (normally the subgraph's statement targets — rewrite
/// auxiliaries are filtered out here).
pub fn execute(
    code: &TargetCode,
    input: &Dataset,
    wanted: &[CubeId],
) -> Result<Dataset, EngineError> {
    execute_in_context(
        code,
        input,
        wanted,
        &exl_obs::NoopRecorder,
        &exl_obs::Span::disabled().context(),
        ExecOpts::default(),
    )
}

/// [`execute`] instrumented and parameterized: the whole call runs under
/// the `target.execute.<name>` metrics span and an `execute.<target>`
/// child span of `ctx` (a [`SpanContext`](exl_obs::SpanContext), so the
/// supervisor keeps the span tree connected across its worker threads);
/// each backend records its internal steps as grandchildren
/// (`chase.tgd`, `sql.stmt`, `rmini.stmt`, `matmini.stmt`, `etl.flow`, …)
/// and the chase / parallel-ETL backends emit their own counters to
/// `recorder`. `opts` controls fusion and evaluator parallelism per run
/// instead of via process-global environment state.
pub fn execute_in_context(
    code: &TargetCode,
    input: &Dataset,
    wanted: &[CubeId],
    recorder: &dyn exl_obs::Recorder,
    ctx: &exl_obs::SpanContext,
    opts: ExecOpts,
) -> Result<Dataset, EngineError> {
    let _span = exl_obs::span(recorder, format!("target.execute.{}", code.target_name()));
    let exec = ctx.child(format!("execute.{}", code.target_name()));
    exec.set_attr("target", code.target_name());
    exec.set_attr("rows_in", dataset_rows(input));
    let out = execute_traced_inner(code, input, wanted, recorder, &exec, opts);
    match &out {
        Ok(ds) => {
            exec.set_attr("rows_out", dataset_rows(ds));
            exec.set_attr("status", "ok");
        }
        Err(e) => {
            exec.add_event(e.to_string());
            exec.set_attr("status", "failed");
        }
    }
    out
}

/// Total fact count across a dataset's cubes (the `rows_in`/`rows_out`
/// trace attributes).
pub(crate) fn dataset_rows(ds: &Dataset) -> u64 {
    ds.iter().map(|(_, cube)| cube.data.len() as u64).sum()
}

/// Map a backend failure onto the engine's typed error surface: a
/// governance stop (cancellation, budget exhaustion) becomes the
/// non-retryable `Cancelled`/`BudgetExceeded` variant; anything else
/// stays a generic `Execution` failure, optionally with extra context.
fn governed_or<E: std::fmt::Display>(
    cause: Option<&exl_fault::govern::GovernError>,
    e: &E,
    detail: Option<&str>,
) -> EngineError {
    if let Some(g) = cause {
        return EngineError::from(g.clone());
    }
    match detail {
        Some(d) => EngineError::Execution(format!("{e}\n{d}")),
        None => EngineError::Execution(e.to_string()),
    }
}

fn execute_traced_inner(
    code: &TargetCode,
    input: &Dataset,
    wanted: &[CubeId],
    recorder: &dyn exl_obs::Recorder,
    trace: &exl_obs::Span,
    opts: ExecOpts,
) -> Result<Dataset, EngineError> {
    // chaos hook: `exec.<target>` covers the whole backend execution
    exl_fault::check(&format!("exec.{}", code.target_name()))
        .map_err(|e| EngineError::Execution(e.to_string()))?;
    // governance checkpoint before dispatch: a run cancelled while this
    // subgraph was queued never starts its backend at all
    exl_fault::govern::checkpoint()?;
    let full = match code {
        TargetCode::Native { analyzed } => {
            let eval_opts = exl_eval::EvalOptions {
                no_fusion: opts.no_fusion,
                threads: opts.eval_threads,
            };
            let (full, plan) = exl_eval::run_program_with_stats_opts(analyzed, input, eval_opts)
                .map_err(|e| governed_or(e.govern_cause(), &e, None))?;
            // plan-compilation telemetry: counters accumulate per run,
            // flight events mark which subgraphs actually fused or CSE'd
            recorder.incr_counter("plan.regions", plan.regions);
            recorder.incr_counter("plan.fused_statements", plan.fused_statements);
            recorder.incr_counter("plan.fused_ops", plan.fused_ops);
            recorder.incr_counter("plan.cse_reuses", plan.cse_reuses);
            recorder.incr_counter("plan.bytes_not_materialized", plan.bytes_not_materialized);
            // the evaluator's own `CubeData` boundary: inputs in, outputs out
            recorder.incr_counter("eval.intern.rows", plan.intern_rows);
            recorder.incr_counter("eval.intern.ns", plan.intern_ns);
            recorder.incr_counter("eval.to_data.rows", plan.to_data_rows);
            recorder.incr_counter("eval.to_data.ns", plan.to_data_ns);
            if plan.fused_ops > 0 {
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::PlanFuse,
                    "native",
                    || {
                        format!(
                            "regions={} fused_statements={} fused_ops={} bytes_not_materialized={}",
                            plan.regions,
                            plan.fused_statements,
                            plan.fused_ops,
                            plan.bytes_not_materialized
                        )
                    },
                );
            }
            if plan.cse_reuses > 0 {
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::PlanCse,
                    "native",
                    || format!("cse_reuses={}", plan.cse_reuses),
                );
            }
            full
        }
        TargetCode::Chase { mapping, schemas } => {
            let result = exl_chase::chase_traced(
                mapping,
                schemas,
                input,
                ChaseMode::Stratified,
                recorder,
                trace,
            )
            .map_err(|e| governed_or(e.govern_cause(), &e, None))?;
            let mut solution = result.solution;
            // relations the chase never derived a fact for are still part
            // of the target schema: surface them as empty cubes
            for id in wanted {
                if !solution.contains(id) {
                    if let Some(schema) = schemas.get(id) {
                        solution.put(exl_model::Cube::new(
                            schema.clone(),
                            exl_model::CubeData::new(),
                        ));
                    }
                }
            }
            solution
        }
        TargetCode::Sql {
            statements,
            schemas,
        } => {
            // staged inputs go in as typed rows, in storage order
            let mut engine = exl_sqlengine::Engine::new();
            for (_, cube) in input.iter() {
                engine
                    .db
                    .create_table(exl_sqlengine::Table::from_cube(cube))
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
            }
            for stmt in statements {
                engine.execute_traced(stmt, trace).map_err(|e| {
                    governed_or(e.govern_cause(), &e, Some(&format!("statement:\n{stmt}")))
                })?;
            }
            let mut out = Dataset::new();
            for id in wanted {
                let schema = schemas
                    .get(id)
                    .ok_or_else(|| EngineError::Execution(format!("no schema for {id}")))?;
                let table = engine
                    .db
                    .table(id.as_str())
                    .ok_or_else(|| EngineError::Execution(format!("no table for {id}")))?;
                let data = table
                    .to_cube_data(schema)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                out.put(exl_model::Cube::new(schema.clone(), data));
            }
            return Ok(out);
        }
        TargetCode::R { script, schemas } => {
            let mut interp = exl_rmini::RInterp::new();
            for (id, cube) in input.iter() {
                interp.bind_frame(id.as_str(), exl_rmini::frame_from_cube(cube));
            }
            interp.run_traced(script, trace).map_err(|e| {
                governed_or(e.govern_cause(), &e, Some(&format!("script:\n{script}")))
            })?;
            let mut out = Dataset::new();
            for id in wanted {
                let schema = schemas
                    .get(id)
                    .ok_or_else(|| EngineError::Execution(format!("no schema for {id}")))?;
                let frame = interp
                    .frame(id.as_str())
                    .ok_or_else(|| EngineError::Execution(format!("no frame for {id}")))?;
                let data = exl_rmini::frame_to_cube_data(frame, schema)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                charge_output(&data, schema);
                out.put(exl_model::Cube::new(schema.clone(), data));
            }
            exl_fault::govern::checkpoint()?;
            return Ok(out);
        }
        TargetCode::Matlab { script, schemas } => {
            let mut session = exl_matmini::MatSession::new();
            let mut interp = exl_matmini::MatInterp::new();
            for (id, cube) in input.iter() {
                interp.bind(id.as_str(), session.encode(cube));
            }
            interp.run_traced(script, trace).map_err(|e| {
                governed_or(e.govern_cause(), &e, Some(&format!("script:\n{script}")))
            })?;
            let mut out = Dataset::new();
            for id in wanted {
                let schema = schemas
                    .get(id)
                    .ok_or_else(|| EngineError::Execution(format!("no schema for {id}")))?;
                let matrix = interp
                    .matrix(id.as_str())
                    .ok_or_else(|| EngineError::Execution(format!("no matrix for {id}")))?;
                let data = session
                    .decode(matrix, schema)
                    .map_err(|e| EngineError::Execution(e.to_string()))?;
                charge_output(&data, schema);
                out.put(exl_model::Cube::new(schema.clone(), data));
            }
            exl_fault::govern::checkpoint()?;
            return Ok(out);
        }
        TargetCode::Etl { job, parallel } => {
            let run = if *parallel {
                exl_etl::run_job_parallel_traced(job, input, recorder, trace)
            } else {
                job.run_traced(input, trace)
            };
            run.map_err(|e| governed_or(e.govern_cause(), &e, None))?
        }
    };
    Ok(full.restrict(wanted))
}

/// Charge one decoded backend output against the run budget, as the
/// native, ETL and SQL backends charge what they materialize; the
/// checkpoint after the last output surfaces the verdict.
fn charge_output(data: &CubeData, schema: &CubeSchema) {
    let rows = data.len() as u64;
    exl_fault::govern::charge(
        rows,
        exl_fault::govern::approx_cube_bytes(rows, schema.dims.len() as u64),
    );
}

/// Convenience used by tests, examples and benchmarks: run a whole
/// analyzed program on one target, returning its derived cubes.
pub fn run_on_target(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    target: TargetKind,
) -> Result<Dataset, EngineError> {
    run_on_target_opts(
        analyzed,
        input,
        target,
        &exl_obs::NoopRecorder,
        ExecOpts::default(),
    )
}

/// [`run_on_target`] with translation timed under `engine.translate`,
/// execution instrumented via [`execute_in_context`], and explicit
/// [`ExecOpts`] — used by `exlc` to apply its CLI-level fusion/thread
/// defaults without mutating process-global environment state.
pub fn run_on_target_opts(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    target: TargetKind,
    recorder: &dyn exl_obs::Recorder,
    opts: ExecOpts,
) -> Result<Dataset, EngineError> {
    let (code, wanted, restricted) = prepare_program(analyzed, input, target, recorder)?;
    execute_in_context(
        &code,
        &restricted,
        &wanted,
        recorder,
        &exl_obs::Span::disabled().context(),
        opts,
    )
}

/// The shared prologue of a whole-program run: translate for `target`
/// (timed under `engine.translate`) and narrow `input` to the elementary
/// cubes the program reads, failing when one is missing. Returns the
/// code, the derived cubes to extract, and the narrowed input.
pub(crate) fn prepare_program(
    analyzed: &AnalyzedProgram,
    input: &Dataset,
    target: TargetKind,
    recorder: &dyn exl_obs::Recorder,
) -> Result<(TargetCode, Vec<CubeId>, Dataset), EngineError> {
    let code = {
        let _span = exl_obs::span(recorder, "engine.translate");
        translate(analyzed, target)?
    };
    // the executors read only the cubes the program needs
    let inputs: Vec<CubeId> = analyzed.elementary_inputs();
    let restricted = input.restrict(&inputs);
    if let Some(id) = inputs.iter().find(|id| !restricted.contains(id)) {
        return Err(EngineError::Execution(format!(
            "elementary cube {id} is missing from the input dataset"
        )));
    }
    Ok((code, analyzed.program.derived_ids(), restricted))
}

/// Schemas for a statement subset's *external inputs*: every cube the
/// statements read but do not define.
pub fn input_schemas(
    statements: &[Statement],
    schema_of: &dyn Fn(&CubeId) -> Option<CubeSchema>,
) -> Result<Vec<CubeSchema>, EngineError> {
    let defined: Vec<&CubeId> = statements.iter().map(|s| &s.target).collect();
    let mut out: Vec<CubeSchema> = Vec::new();
    for s in statements {
        for r in s.expr.cube_refs() {
            if defined.contains(&&r) || out.iter().any(|o| o.id == r) {
                continue;
            }
            let mut schema = schema_of(&r)
                .ok_or_else(|| EngineError::Catalog(format!("no schema for input cube {r}")))?;
            schema.kind = CubeKind::Elementary; // it is base data *for this subgraph*
            out.push(schema);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_workload::{gdp_scenario, GdpConfig};

    /// C6: every target reproduces the reference interpreter on the GDP
    /// scenario.
    #[test]
    fn all_targets_agree_on_gdp() {
        let (analyzed, input) = gdp_scenario(GdpConfig::default());
        let reference = exl_eval::run_program(&analyzed, &input).unwrap();
        for target in TargetKind::ALL {
            let out = run_on_target(&analyzed, &input, target)
                .unwrap_or_else(|e| panic!("{target}: {e}"));
            for id in analyzed.program.derived_ids() {
                let want = reference.data(&id).unwrap();
                let got = out
                    .data(&id)
                    .unwrap_or_else(|| panic!("{target}: missing {id}"));
                assert!(
                    got.approx_eq(want, 1e-9),
                    "{target} {id}: {:?}",
                    got.diff(want, 1e-9)
                );
            }
        }
    }

    #[test]
    fn listings_are_available_for_every_target() {
        let (analyzed, _) = gdp_scenario(GdpConfig::default());
        for target in TargetKind::ALL {
            let code = translate(&analyzed, target).unwrap();
            let listing = code.listing();
            assert!(!listing.is_empty(), "{target}");
        }
    }

    #[test]
    fn unsupported_operator_reported_by_script_targets() {
        let src = "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);";
        let analyzed = exl_lang::analyze(&exl_lang::parse_program(src).unwrap(), &[]).unwrap();
        for target in [TargetKind::Sql, TargetKind::R, TargetKind::Matlab] {
            let err = translate(&analyzed, target).unwrap_err();
            assert!(
                matches!(err, EngineError::Unsupported { .. }),
                "{target}: {err}"
            );
        }
        // ... while native, chase, and ETL support it
        for target in [TargetKind::Native, TargetKind::Chase, TargetKind::Etl] {
            translate(&analyzed, target).unwrap();
        }
    }

    #[test]
    fn missing_input_reported() {
        let (analyzed, _) = gdp_scenario(GdpConfig::default());
        let err = run_on_target(&analyzed, &Dataset::new(), TargetKind::Native).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
