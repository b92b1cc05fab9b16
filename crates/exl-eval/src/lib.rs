//! # exl-eval — the reference EXL evaluator
//!
//! Direct operational semantics of EXL over [`exl_model`] datasets: the
//! "algorithmic application of program expressions" the paper's §4.2
//! equivalence theorem compares the chase against. Every other backend
//! (chase, SQL, R, Matlab, ETL) is tested for equivalence with this
//! evaluator, which compiles every evaluation into a region plan
//! ([`plan`]) and runs it through one execution loop ([`eval`]).
//!
//! Semantics notes (all shared with the backends):
//!
//! * **Partiality** (§3): a result tuple exists only where the operator is
//!   meaningful — non-finite measures (division by zero, `ln` of a
//!   non-positive value, …) are dropped, never stored.
//! * **Vectorial operators** use intersection semantics by default; the
//!   `addz`/`subz` variants implement the paper's default-value option.
//! * **Black-box series operators** act positionally on the chronologically
//!   sorted defined points of each slice (one slice per combination of
//!   non-time dimension values), with the seasonal period implied by the
//!   time dimension's frequency.

#![warn(missing_docs)]

pub mod delta;
pub mod error;
pub mod eval;
pub mod plan;
pub mod shard;

pub use delta::{changed_keys, delta_shape, diff_rows, eval_statement_delta, DeltaShape};
pub use error::EvalError;
pub use eval::{
    aggregate_data, eval_statement, run_program, run_program_unfused, run_program_with_stats,
    run_program_with_threads, series_period, EvalSession,
};
pub use plan::{plan_description, PlanDescription, PlanStats, RegionDesc};
pub use shard::{plan_shards, ShardPlan, ShardSegment};
