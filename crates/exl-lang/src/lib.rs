//! # exl-lang — the EXL specification language
//!
//! Frontend for EXL (EXpression Language), the Bank of Italy's declarative
//! language for statistical programs over cubes (paper §3): lexer
//! ([`token`]), recursive-descent parser ([`parser`]), abstract syntax
//! ([`ast`]), semantic analysis with schema inference ([`mod@analyze`]), the
//! one-operator-per-statement normalizer of §4.1 ([`mod@normalize`]), and a
//! round-tripping pretty printer ([`pretty`]).
//!
//! ```
//! use exl_lang::{parse_program, analyze::analyze};
//!
//! let program = parse_program(r#"
//!     cube PDR(d: time[day], r: text) -> p;
//!     PQR := avg(PDR, group by quarter(d) as q, r);
//! "#).unwrap();
//! let analyzed = analyze(&program, &[]).unwrap();
//! assert_eq!(analyzed.schema(&"PQR".into()).unwrap().dims.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod error;
pub mod normalize;
pub mod parser;
pub mod pretty;
pub mod token;

pub use analyze::{analyze, AnalyzedProgram};
pub use ast::{BinOp, CubeDecl, Expr, GroupKey, JoinPolicy, Program, Statement, UnaryFn};
pub use error::LangError;
pub use normalize::normalize;
pub use parser::{parse_expr, parse_program};
pub use pretty::{expr_to_string, program_to_string, statement_to_string};
