//! # exl-chase — data exchange by chasing extended dependencies
//!
//! §4.2 of the paper: the data exchange problem derived from an EXL program
//! "always has a solution, which can be found by means of (a suitable
//! variation of) the chase". This crate implements that variation — a
//! **stratified chase** that applies each statement tgd completely, in
//! program order, before the next — plus the classical **fair** chase for
//! comparison (which terminates on full tuple-level tgds but can fail on
//! egds when aggregations fire over incomplete operands, exactly the
//! pitfall the paper's stratification avoids).
//!
//! The [`instance::Instance`] type stores raw fact sets, so functionality
//! (the egds) is *checked*, not assumed, and the "chase never fails on
//! well-formed programs" claim is validated rather than baked in.

#![warn(missing_docs)]

pub mod apply;
pub mod chase;
pub mod error;
pub mod instance;

pub use chase::{
    chase, chase_traced, is_fixpoint, restrict_solution, ChaseMode, ChaseResult, ChaseStats,
};
pub use error::ChaseError;
pub use instance::{Fact, Instance, Relation};
