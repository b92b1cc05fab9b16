//! Output checks. Every checked op's committed outputs are compared with a
//! reference computed by the statement-at-a-time evaluator
//! (`exl_eval::run_program_unfused`) over the same inputs: bit for bit
//! through content fingerprints, which the fused≡unfused, sharded≡unsharded
//! and warm≡cold contracts guarantee, or within `1e-9` on multi-target.
//! References are computed after the measuring loop so that the peak RSS
//! the run reports is the engine's alone. A chase cross-check keeps the
//! reference honest, since the unfused evaluator shares kernels with the
//! code under test and the chase does not.

use std::collections::BTreeMap;

use exl_chase::{chase, ChaseMode};
use exl_map::generate::{generate_mapping, GenMode};
use exl_model::schema::CubeId;
use exl_model::{Cube, Dataset, Fingerprint};

use crate::workload::{Inputs, Scale, Workload};

/// The relative tolerance of approximate checks, as in the repository's
/// chase ≡ evaluator differential tests.
pub const TOLERANCE: f64 = 1e-9;

type Fingerprints = BTreeMap<CubeId, Fingerprint>;

fn fingerprints(ds: &Dataset) -> Fingerprints {
    ds.iter()
        .map(|(id, cube)| (id.clone(), Fingerprint::of_cube(&cube.data)))
        .collect()
}

/// Collects what checked ops committed and verifies it once the measuring
/// loop is over.
pub struct Checker {
    approx: bool,
    /// The elementary inputs of each distinct case ops ran on.
    cases: Vec<Dataset>,
    /// Distinct (case, outputs) pairs. Approximate checks need the data
    /// itself, kept once per distinct output.
    seen: Vec<(usize, Fingerprints, Option<Dataset>)>,
    /// Per recorded op, its index into `seen`.
    ops: Vec<usize>,
}

impl Checker {
    pub fn new(workload: Workload) -> Checker {
        Checker {
            approx: workload.approx(),
            cases: Vec::new(),
            seen: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Register the inputs of a case; returns its index.
    pub fn case(&mut self, inputs: Dataset) -> usize {
        self.cases.push(inputs);
        self.cases.len() - 1
    }

    /// Record one op's committed outputs for `case`.
    pub fn record(&mut self, case: usize, outputs: Dataset) {
        let fps = fingerprints(&outputs);
        let at = match self
            .seen
            .iter()
            .position(|(c, f, _)| *c == case && *f == fps)
        {
            Some(at) => at,
            None => {
                let data = self.approx.then_some(outputs);
                self.seen.push((case, fps, data));
                self.seen.len() - 1
            }
        };
        self.ops.push(at);
    }

    /// Compute each case's reference and count the recorded ops whose
    /// outputs do not match it. The first mismatch is described on stderr.
    pub fn verify(&self, inputs: &Inputs) -> Result<usize, String> {
        let derived = inputs.derived();
        let mut verdicts = vec![false; self.seen.len()];
        for (case, case_inputs) in self.cases.iter().enumerate() {
            if !self.seen.iter().any(|(c, _, _)| *c == case) {
                continue;
            }
            let full = exl_eval::run_program_unfused(&inputs.analyzed, case_inputs)
                .map_err(|e| format!("reference evaluation failed: {e}"))?;
            let reference = full.restrict(&derived);
            let expected = fingerprints(&reference);
            for (at, (c, fps, data)) in self.seen.iter().enumerate() {
                if *c != case {
                    continue;
                }
                let verdict = if *fps == expected {
                    Ok(())
                } else if let Some(data) = data {
                    data.approx_eq_report(&reference, TOLERANCE)
                } else {
                    Err(mismatch(fps, &expected))
                };
                if let Err(e) = &verdict {
                    eprintln!("exl-benchmark: output check failed (case {case}): {e}");
                }
                verdicts[at] = verdict.is_ok();
            }
        }
        Ok(self.ops.iter().filter(|&&at| !verdicts[at]).count())
    }
}

fn mismatch(got: &Fingerprints, expected: &Fingerprints) -> String {
    let differing: Vec<String> = expected
        .iter()
        .filter(|(id, fp)| got.get(*id) != Some(*fp))
        .map(|(id, _)| id.to_string())
        .collect();
    format!(
        "cubes differ bit-wise from the reference: {}",
        differing.join(", ")
    )
}

/// Flip one measure bit in a copy of `outputs` (the negative control of
/// the smoke test: such an op must count as failed).
pub fn corrupt(outputs: &Dataset) -> Dataset {
    let mut out = outputs.clone();
    let Some(id) = out
        .ids()
        .into_iter()
        .find(|id| out.data(id).is_some_and(|d| !d.is_empty()))
    else {
        return out;
    };
    let cube = out.get(&id).expect("listed").clone();
    let mut data = cube.data.clone();
    let (key, value) = {
        let (k, v) = data.iter_sorted().next().expect("non-empty");
        (k.clone(), v)
    };
    data.insert_overwrite(key, f64::from_bits(value.to_bits() ^ (1 << 51)));
    out.put(Cube::new(cube.schema, data));
    out
}

/// Check the workload's generator at 1/100 scale against the stratified
/// chase: the derived cubes of the unfused evaluator and of the chase must
/// agree within [`TOLERANCE`].
pub fn chase_cross_check(workload: Workload, scale: Scale, seed: u64) -> Result<(), String> {
    let scale = if scale == Scale::Full {
        Scale::Chase
    } else {
        scale
    };
    let inputs = Inputs::generate(workload, scale, seed);
    let derived = inputs.derived();
    let reference = exl_eval::run_program_unfused(&inputs.analyzed, &inputs.data)
        .map_err(|e| format!("reference evaluation failed: {e}"))?
        .restrict(&derived);
    let (mapping, re) = generate_mapping(&inputs.analyzed, GenMode::Fused)
        .map_err(|e| format!("mapping generation failed: {e}"))?;
    let chased = chase(&mapping, &re.schemas, &inputs.data, ChaseMode::Stratified)
        .map_err(|e| format!("chase failed: {e}"))?;
    chased
        .solution
        .restrict(&derived)
        .approx_eq_report(&reference, TOLERANCE)
        .map_err(|e| format!("chase and evaluator disagree: {e}"))
}
