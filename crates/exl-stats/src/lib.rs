//! # exl-stats — statistical operator substrate
//!
//! From-scratch implementations of the statistical machinery the paper's
//! operators rely on: descriptive statistics and the shared aggregation
//! semantics ([`descriptive::AggFn`]), simple OLS regression
//! ([`regression`]), moving-window transforms ([`moving`]), classical
//! additive seasonal decomposition ([`mod@decompose`]) — the stand-in for R's
//! `stl` — and the whole-series black-box operators ([`seriesop::SeriesOp`])
//! that every execution backend shares. The mergeable aggregation state
//! machines behind the partitioned group-by kernels live in [`state`].

#![warn(missing_docs)]

pub mod decompose;
pub mod descriptive;
pub mod moving;
pub mod regression;
pub mod seriesop;
pub mod state;

pub use decompose::{decompose, Decomposition};
pub use descriptive::AggFn;
pub use regression::LinearFit;
pub use seriesop::SeriesOp;
pub use state::{AggState, ExactState};
