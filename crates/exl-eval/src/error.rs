//! Runtime errors of the reference evaluator.

use std::fmt;

use exl_model::ModelError;

/// Error raised while evaluating an EXL program.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// An elementary cube referenced by the program is absent from the
    /// input dataset.
    MissingInput {
        /// The missing cube.
        cube: String,
    },
    /// Input data violates the data model (non-functional base data,
    /// arity/type mismatches).
    Model(ModelError),
    /// A time operation was applied to a value it is undefined on (e.g.
    /// an internal inconsistency between schema and data).
    BadTimeValue {
        /// Offending cube.
        cube: String,
        /// Explanation.
        detail: String,
    },
    /// A statement references dimensions its operands do not have. The
    /// analyzer rejects such programs, but statements can reach the
    /// evaluator through paths that skip re-analysis (delta kernels,
    /// cached-statement replay), so the mismatch must surface as an
    /// error rather than a panic.
    InvalidStatement {
        /// Explanation.
        detail: String,
    },
    /// A data-parallel evaluator worker failed: it panicked, or an
    /// injected fault tripped its `eval.worker` site. Reported as a
    /// typed error so the supervisor degrades per-subgraph instead of
    /// re-panicking in the caller.
    WorkerPanicked {
        /// The worker's panic message (or injected-fault description).
        detail: String,
    },
    /// Evaluation was stopped by the run governor — cooperative
    /// cancellation or budget exhaustion observed at a batch-boundary
    /// checkpoint. The engine maps this to its non-retryable
    /// `Cancelled`/`BudgetExceeded` variants.
    Governed(exl_fault::govern::GovernError),
}

impl EvalError {
    /// The governance stop behind this error, if that is what it is.
    pub fn govern_cause(&self) -> Option<&exl_fault::govern::GovernError> {
        match self {
            EvalError::Governed(g) => Some(g),
            _ => None,
        }
    }
}

impl From<exl_fault::govern::GovernError> for EvalError {
    fn from(e: exl_fault::govern::GovernError) -> Self {
        EvalError::Governed(e)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingInput { cube } => {
                write!(
                    f,
                    "elementary cube {cube} is missing from the input dataset"
                )
            }
            EvalError::Model(e) => write!(f, "data model error: {e}"),
            EvalError::BadTimeValue { cube, detail } => {
                write!(f, "bad time value in cube {cube}: {detail}")
            }
            EvalError::InvalidStatement { detail } => {
                write!(f, "statement does not fit its operands: {detail}")
            }
            EvalError::WorkerPanicked { detail } => {
                write!(f, "evaluator worker panicked: {detail}")
            }
            EvalError::Governed(e) => write!(f, "evaluation stopped: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ModelError> for EvalError {
    fn from(e: ModelError) -> Self {
        EvalError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = EvalError::MissingInput { cube: "PDR".into() };
        assert!(e.to_string().contains("PDR"));
        let e = EvalError::BadTimeValue {
            cube: "X".into(),
            detail: "not a time point".into(),
        };
        assert!(e.to_string().contains("not a time point"));
        let e = EvalError::InvalidStatement {
            detail: "group-by key z is not a dimension of the operand".into(),
        };
        assert!(e.to_string().contains("group-by key z"));
        let e = EvalError::WorkerPanicked {
            detail: "boom".into(),
        };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("boom"));
    }
}
