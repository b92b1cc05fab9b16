//! Run-level governance: cooperative cancellation and resource budgets.
//!
//! The primitives — [`CancelToken`], [`RunBudget`], [`Governor`], the
//! ambient-governor helpers and the [`checkpoint`] every backend loop
//! calls — live in [`exl_fault::govern`] (the lowest shared layer, so
//! the chase, evaluator, ETL runner, and mini interpreters can observe
//! them without depending on the engine). This module re-exports them
//! and adds the engine-side configuration surface.
//!
//! Token topology in a governed run:
//!
//! ```text
//! external token (SIGINT / exld admission control)
//!   └─ run token            one per ExlEngine::recompute
//!        └─ subgraph token  one per dispatched subgraph
//!             └─ attempt token   one per supervised execution attempt
//! ```
//!
//! Cancelling a parent reaches every descendant; cancelling a child (an
//! injected cancel, a subgraph deadline) stays local, which is what lets
//! `keep_going` degrade around a cancelled subgraph while a run-level
//! cancel aborts — and rolls back — the whole run. The budget is shared
//! across the tree: deadlines, the memory ceiling, and the row limit
//! are per run, not per subgraph. See docs/GOVERNANCE.md.

use std::time::Duration;

pub use exl_fault::govern::{
    charge, checkpoint, governor, release, set_governor, CancelToken, GovernError, Governor,
    GovernorGuard, RunBudget,
};

/// Engine-side governance configuration: the external token plus the
/// run-budget limits `ExlEngine::recompute` arms for each run.
#[derive(Debug, Clone, Default)]
pub struct GovernConfig {
    /// The external cancellation token (SIGINT, a daemon's admission
    /// control). Each run derives a child from it, so cancelling it
    /// stops the current run *and* every later one on the same engine.
    pub cancel: CancelToken,
    /// Wall-clock deadline for each run.
    pub run_deadline: Option<Duration>,
    /// Byte-accounted memory ceiling for each run.
    pub max_memory_bytes: Option<u64>,
    /// Row/derivation limit for each run.
    pub max_rows: Option<u64>,
}

impl GovernConfig {
    /// Build the per-run governor: a child of the external token over a
    /// fresh budget with this config's limits.
    pub fn run_governor(&self) -> Governor {
        let mut budget = RunBudget::unlimited();
        if let Some(d) = self.run_deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(b) = self.max_memory_bytes {
            budget = budget.with_memory_limit(b);
        }
        if let Some(r) = self.max_rows {
            budget = budget.with_row_limit(r);
        }
        Governor::new(self.cancel.child(), budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_config_builds_detached_runs() {
        let cfg = GovernConfig::default();
        assert!(cfg.run_governor().checkpoint().is_ok());
    }

    #[test]
    fn external_cancel_reaches_every_run_governor() {
        let cfg = GovernConfig::default();
        cfg.cancel.cancel("shutdown");
        let g1 = cfg.run_governor();
        let g2 = cfg.run_governor();
        assert!(g1.checkpoint().is_err());
        assert!(g2.checkpoint().is_err());
    }

    #[test]
    fn run_cancel_does_not_poison_the_next_run() {
        let cfg = GovernConfig::default();
        let g1 = cfg.run_governor();
        g1.token().cancel("injected");
        assert!(g1.checkpoint().is_err());
        assert!(cfg.run_governor().checkpoint().is_ok());
    }

    #[test]
    fn limits_arm_the_budget() {
        let cfg = GovernConfig {
            max_memory_bytes: Some(100),
            ..GovernConfig::default()
        };
        let g = cfg.run_governor();
        g.budget().charge_bytes(200);
        assert!(matches!(
            g.checkpoint(),
            Err(GovernError::MemoryExceeded { .. })
        ));
    }
}
