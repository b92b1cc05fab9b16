//! The untraced run: set-ups, then timed ops in one closed loop (each op
//! starts when the previous one has returned and been recorded). Nothing
//! runs concurrently with a timed op; the only parallelism is what the
//! engine spawns itself.

use std::time::{Duration, Instant};

use exl_engine::{EngineError, ExlEngine};
use exl_model::schema::CubeId;
use exl_model::CubeData;
use exl_workload::DeltaGen;

use crate::check::{self, Checker};
use crate::workload::{Inputs, DELTA_OPS, REVISED, SESSION_VINTAGES};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Time-bounded runs take at least this many ops, however long they take.
pub const MIN_OPS: usize = 5;

/// How many ops a run takes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Ops until the window, which opens with the set-ups, has elapsed
    /// (at least [`MIN_OPS`]).
    Seconds(Duration),
    /// Exactly this many ops.
    Ops(usize),
}

/// What the untraced run measured.
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each timed op that returned `Ok`.
    pub op_ms: Vec<f64>,
    pub attempted: usize,
    /// Ops that returned `Err`.
    pub errors: usize,
    pub checker: Checker,
}

/// One set-up: `register_program` + `load_elementary` (+ affinities on
/// multi-target, + arming the run cache on gdp-vintage) + the warm-up op,
/// which on gdp-vintage is the cold, cache-filling run.
pub fn setup(inputs: &Inputs) -> Result<(ExlEngine, f64), EngineError> {
    let started = Instant::now();
    let mut engine = inputs.engine()?;
    engine.run_all()?;
    Ok((engine, started.elapsed().as_secs_f64()))
}

/// The vintages one gdp-vintage session applies, in order: each is the
/// base `REVISED` cube with [`DELTA_OPS`] seeded revisions.
pub fn vintages(inputs: &Inputs, seed: u64) -> Vec<CubeData> {
    let base = inputs
        .data
        .data(&CubeId::from(REVISED))
        .expect("gdp inputs carry the revised cube");
    let mut deltas = DeltaGen::new(seed);
    (0..SESSION_VINTAGES)
        .map(|_| deltas.patch_cube(base, DELTA_OPS))
        .collect()
}

/// Run the untraced part of a workload. `corrupt_op` (1-based) flips a bit
/// in a copy of that op's outputs before they are recorded: the negative
/// control of the output checks.
///
/// On gdp-vintage, ops run in sessions of [`SESSION_VINTAGES`] vintages.
/// Each session starts from a copy of the warmed engine and applies the
/// same vintages, generated before the window opens, so every session
/// does the same work and the window is spent on ops rather than on
/// set-ups and patch generation. The last vintage of each session and the
/// run's last op are checked.
pub fn run(
    inputs: &Inputs,
    seed: u64,
    budget: Budget,
    corrupt_op: Option<usize>,
) -> Result<Measured, EngineError> {
    let mut m = Measured {
        setup_s: Vec::new(),
        op_ms: Vec::new(),
        attempted: 0,
        errors: 0,
        checker: Checker::new(inputs.workload),
    };
    let vintages = if inputs.workload.resident() {
        vintages(inputs, seed)
    } else {
        Vec::new()
    };
    // the window holds the set-ups too, so a run's length is set by its
    // budget, not by how long its set-ups take
    let window = Instant::now();
    let mut engine = None;
    for _ in 0..SETUPS {
        let (fresh, secs) = setup(inputs)?;
        m.setup_s.push(secs);
        engine = Some(fresh);
    }
    let mut engine = engine.expect("at least one set-up");
    // gdp-vintage sessions start from copies of the warmed engine
    let warmed = (!vintages.is_empty()).then(|| engine.clone());
    let revised = CubeId::from(REVISED);
    let base_case = m.checker.case(inputs.data.clone());
    // the checker's case of each vintage, registered when first checked
    let mut vintage_cases: Vec<Option<usize>> = vec![None; vintages.len()];
    // the latest vintage while it is still unchecked: the last one is
    // always checked, once the loop knows it was the last
    let mut unchecked: Option<(usize, usize)> = None;
    let record = |m: &mut Measured,
                  cases: &mut [Option<usize>],
                  engine: &ExlEngine,
                  v: Option<usize>,
                  op: usize| {
        let case = match v {
            None => base_case,
            Some(v) => {
                *cases[v].get_or_insert_with(|| m.checker.case(inputs.revised(&vintages[v])))
            }
        };
        let outputs = inputs.committed(engine);
        let outputs = if corrupt_op == Some(op) {
            check::corrupt(&outputs)
        } else {
            outputs
        };
        m.checker.record(case, outputs);
    };

    while match budget {
        Budget::Ops(n) => m.attempted < n,
        Budget::Seconds(s) => m.attempted < MIN_OPS || window.elapsed() < s,
    } {
        m.attempted += 1;
        let op = m.attempted;
        let vintage = (!vintages.is_empty()).then(|| (op - 1) % vintages.len());
        let (outcome, elapsed) = match vintage {
            Some(v) => {
                if v == 0 && op > 1 {
                    engine = warmed
                        .as_ref()
                        .expect("a resident run keeps its warmed engine")
                        .clone();
                }
                let started = Instant::now();
                let outcome = engine
                    .load_elementary(&revised, vintages[v].clone())
                    .and_then(|_| engine.run_all());
                (outcome, started.elapsed())
            }
            None => {
                engine = inputs.engine()?;
                let started = Instant::now();
                let outcome = engine.run_all();
                (outcome, started.elapsed())
            }
        };
        unchecked = None;
        match outcome {
            Ok(_) => {
                m.op_ms.push(elapsed.as_secs_f64() * 1e3);
                match vintage {
                    Some(v) if v + 1 < vintages.len() => unchecked = Some((v, op)),
                    _ => record(&mut m, &mut vintage_cases, &engine, vintage, op),
                }
            }
            Err(e) => {
                eprintln!("exl-benchmark: op {op} failed: {e}");
                m.errors += 1;
            }
        }
    }
    if let Some((v, op)) = unchecked {
        record(&mut m, &mut vintage_cases, &engine, Some(v), op);
    }
    Ok(m)
}
