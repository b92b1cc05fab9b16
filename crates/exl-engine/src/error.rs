//! Engine-level errors, aggregating every subsystem's failures.

use std::fmt;

/// Error raised by EXLEngine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// EXL frontend failure.
    Lang(String),
    /// Mapping generation failure.
    Mapping(String),
    /// Translation failure that is *not* an unsupported-operator case.
    Translation(String),
    /// A target cannot run an operator ("not all operators are natively
    /// supported by all systems", §5) — the dispatcher may reroute.
    Unsupported {
        /// The target that declined.
        target: String,
        /// Why.
        reason: String,
    },
    /// Execution failure on a target engine.
    Execution(String),
    /// A subgraph execution attempt returned after its deadline (the
    /// backend stopped at its first checkpoint past the deadline; its
    /// result is discarded).
    Timeout {
        /// The target that stalled.
        target: String,
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// A backend panicked; the panic was contained by the dispatch
    /// supervisor's fault boundary.
    Panic {
        /// The target that panicked.
        target: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Catalog inconsistency (unknown cube, duplicate definition, …).
    Catalog(String),
    /// Persistence (serde) failure.
    Persistence(String),
    /// The run (or one subgraph) was cancelled cooperatively — an
    /// external cancel, SIGINT, or an injected cancel. Never retried: the
    /// cancellation is sticky.
    Cancelled {
        /// Why the work was cancelled.
        reason: String,
    },
    /// A [`RunBudget`](crate::govern::RunBudget) limit — wall-clock
    /// deadline, memory ceiling, or row limit — was exhausted. Never
    /// retried: re-running cannot un-spend the budget.
    BudgetExceeded {
        /// Which budget, and by how much.
        what: String,
    },
}

impl EngineError {
    /// Whether the dispatch supervisor may retry after this error.
    /// Execution failures, timeouts, and contained panics are presumed
    /// transient (a backend hiccup); language, mapping, translation, and
    /// catalog errors are deterministic and retrying cannot help.
    /// Cancellation and budget exhaustion are *never* retryable: the
    /// token stays cancelled and the budget stays spent.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Execution(_) | EngineError::Timeout { .. } | EngineError::Panic { .. }
        )
    }

    /// Stable lowercase kind name, the `error.kind` field of crash
    /// bundles and the `status` field of failed ledger records.
    pub fn kind(&self) -> &'static str {
        match self {
            EngineError::Lang(_) => "lang",
            EngineError::Mapping(_) => "mapping",
            EngineError::Translation(_) => "translation",
            EngineError::Unsupported { .. } => "unsupported",
            EngineError::Execution(_) => "execution",
            EngineError::Timeout { .. } => "timeout",
            EngineError::Panic { .. } => "panic",
            EngineError::Catalog(_) => "catalog",
            EngineError::Persistence(_) => "persistence",
            EngineError::Cancelled { .. } => "cancelled",
            EngineError::BudgetExceeded { .. } => "budget-exceeded",
        }
    }

    /// Whether this error is a governance stop (cancellation or budget
    /// exhaustion) rather than a backend failure.
    pub fn is_governance(&self) -> bool {
        matches!(
            self,
            EngineError::Cancelled { .. } | EngineError::BudgetExceeded { .. }
        )
    }
}

impl From<exl_fault::govern::GovernError> for EngineError {
    fn from(e: exl_fault::govern::GovernError) -> EngineError {
        use exl_fault::govern::GovernError;
        match e {
            GovernError::Cancelled { reason } => EngineError::Cancelled { reason },
            budget => EngineError::BudgetExceeded {
                what: budget.to_string(),
            },
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Lang(m) => write!(f, "language error: {m}"),
            EngineError::Mapping(m) => write!(f, "mapping error: {m}"),
            EngineError::Translation(m) => write!(f, "translation error: {m}"),
            EngineError::Unsupported { target, reason } => {
                write!(f, "unsupported on target {target}: {reason}")
            }
            EngineError::Execution(m) => write!(f, "execution error: {m}"),
            EngineError::Timeout { target, millis } => {
                write!(f, "target {target} exceeded the {millis} ms deadline")
            }
            EngineError::Panic { target, message } => {
                write!(f, "target {target} panicked: {message}")
            }
            EngineError::Catalog(m) => write!(f, "catalog error: {m}"),
            EngineError::Persistence(m) => write!(f, "persistence error: {m}"),
            EngineError::Cancelled { reason } => write!(f, "run cancelled: {reason}"),
            EngineError::BudgetExceeded { what } => write!(f, "budget exceeded: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = EngineError::Unsupported {
            target: "sql".into(),
            reason: "outer join".into(),
        };
        assert!(e.to_string().contains("sql"));
        assert!(EngineError::Catalog("x".into())
            .to_string()
            .contains("catalog"));
    }

    #[test]
    fn governance_errors_are_typed_and_never_retryable() {
        use exl_fault::govern::GovernError;
        let c: EngineError = GovernError::Cancelled {
            reason: "SIGINT".into(),
        }
        .into();
        assert_eq!(
            c,
            EngineError::Cancelled {
                reason: "SIGINT".into()
            }
        );
        assert!(c.is_governance() && !c.is_retryable());
        for g in [
            GovernError::DeadlineExceeded { millis: 5 },
            GovernError::MemoryExceeded {
                limit_bytes: 1,
                used_bytes: 2,
            },
            GovernError::RowLimitExceeded { limit: 1, rows: 2 },
        ] {
            let e: EngineError = g.into();
            assert!(matches!(e, EngineError::BudgetExceeded { .. }), "{e}");
            assert!(e.is_governance() && !e.is_retryable());
        }
    }
}
