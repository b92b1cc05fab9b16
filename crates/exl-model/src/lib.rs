//! # exl-model — the Matrix data model substrate
//!
//! Data model for the EXLEngine reproduction: statistical *cubes* in the
//! style of the Bank of Italy's Matrix model (paper §3). A cube is a finite
//! partial function from tuples of typed dimension values to a numeric
//! measure; a *time series* is a cube with exactly one (time) dimension.
//!
//! The crate provides:
//!
//! * [`time`] — calendar dates, time points at four frequencies, frequency
//!   conversion and period shifting;
//! * [`value`] — dimension values ([`DimValue`]) and hashable measures;
//! * [`schema`] — cube schemas with named, typed dimensions and the
//!   elementary/derived split;
//! * [`hash`] — zero-dependency deterministic Fx-style hashing;
//! * [`intern`] — the dimension-string interner and flat `Copy` keys the
//!   keyed join/aggregation kernels run on;
//! * [`cube`] — functional cube instances with hashed storage and sorted
//!   boundary iteration;
//! * [`batch`] — the columnar batch view over cube data (parallel
//!   key/measure vectors over interned keys) the evaluator executes on;
//! * [`fingerprint`] — order-independent 128-bit content hashes of cubes
//!   and ordered fingerprint chains for derivation steps, the identities
//!   the incremental run cache keys on;
//! * [`shard`] — deterministic hash partitioning of cube data by one
//!   dimension, and the disjoint concatenation the sharded dispatcher
//!   merges per-shard results with;
//! * [`dataset`] — named cube collections, the instances programs run over;
//! * [`csv`] — flat-file import/export for cube data.
//!
//! Everything downstream (the EXL language, the schema-mapping generator,
//! the chase, and all five execution backends) is defined over these types.

#![warn(missing_docs)]

pub mod batch;
pub mod csv;
pub mod cube;
pub mod dataset;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod intern;
pub mod schema;
pub mod shard;
pub mod time;
pub mod value;

pub use batch::{intern_rows, remap_syms, CubeBatch, KeyColumn, RowCheck};
pub use cube::{format_tuple, Cube, CubeData, DimTuple};
pub use dataset::Dataset;
pub use error::ModelError;
pub use fingerprint::{CubeDelta, CubeDigest, Fingerprint, FingerprintBuilder, Upsert};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{DimPool, IDim, IKey, RankedDim, Sym};
pub use schema::{CubeId, CubeKind, CubeSchema, Dimension};
pub use time::{Date, Frequency, TimePoint};
pub use value::{approx_eq, DimType, DimValue, Measure};
