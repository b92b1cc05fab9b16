//! Cube schemas: names, dimensions, and the elementary/derived split.

use std::fmt;

use crate::error::ModelError;
use crate::value::{DimType, DimValue};

/// Identifier of a cube (uppercase by convention in EXL source, but any
/// identifier is accepted).
#[derive(
    Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct CubeId(pub String);

impl CubeId {
    /// Construct from anything string-like.
    pub fn new(s: impl Into<String>) -> CubeId {
        CubeId(s.into())
    }

    /// The raw identifier.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CubeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for CubeId {
    fn from(s: &str) -> Self {
        CubeId::new(s)
    }
}

impl From<String> for CubeId {
    fn from(s: String) -> Self {
        CubeId(s)
    }
}

/// A named, typed dimension of a cube.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Dimension {
    /// Dimension name, unique within its cube.
    pub name: String,
    /// Dimension type.
    pub ty: DimType,
}

impl Dimension {
    /// Construct a dimension.
    pub fn new(name: impl Into<String>, ty: DimType) -> Dimension {
        Dimension {
            name: name.into(),
            ty,
        }
    }
}

impl fmt::Display for Dimension {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.ty)
    }
}

/// Whether a cube's tuples are provided as base data or computed.
///
/// Mirrors the paper's partition of cube identifiers into *elementary*
/// (base tables / extensional predicates) and *derived* (views /
/// intensional predicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CubeKind {
    /// Base data fed into the system.
    Elementary,
    /// Defined by exactly one EXL statement.
    Derived,
}

/// Schema of a cube: `F(D_1, …, D_n) → measure`.
///
/// The measure is single and numeric (paper, §3 footnote 5); only its name
/// is recorded, for codegen readability.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CubeSchema {
    /// Cube identifier.
    pub id: CubeId,
    /// Ordered dimensions.
    pub dims: Vec<Dimension>,
    /// Name of the measure column (defaults to `"m"`).
    pub measure: String,
    /// Elementary or derived.
    pub kind: CubeKind,
}

impl CubeSchema {
    /// Construct a schema with the default measure name.
    pub fn new(id: impl Into<CubeId>, dims: Vec<Dimension>, kind: CubeKind) -> CubeSchema {
        CubeSchema {
            id: id.into(),
            dims,
            measure: "m".to_string(),
            kind,
        }
    }

    /// Override the measure column name (builder style).
    pub fn with_measure(mut self, name: impl Into<String>) -> CubeSchema {
        self.measure = name.into();
        self
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Check one tuple against the schema: arity first, then each
    /// dimension's type in order. The error of the first mismatch is the
    /// one [`crate::Cube::validate`] reports.
    pub(crate) fn check_tuple(&self, key: &[DimValue]) -> Result<(), ModelError> {
        if key.len() != self.arity() {
            return Err(ModelError::ArityMismatch {
                cube: self.id.to_string(),
                expected: self.arity(),
                got: key.len(),
            });
        }
        for (dim, val) in self.dims.iter().zip(key) {
            if val.dim_type() != dim.ty {
                return Err(ModelError::TypeMismatch {
                    cube: self.id.to_string(),
                    dim: dim.name.clone(),
                    expected: dim.ty.to_string(),
                    got: val.dim_type().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Index of the dimension with the given name.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// The dimension with the given name.
    pub fn dim(&self, name: &str) -> Option<&Dimension> {
        self.dims.iter().find(|d| d.name == name)
    }

    /// Indices of all time dimensions.
    pub fn time_dims(&self) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| d.ty.is_time())
            .map(|(i, _)| i)
            .collect()
    }

    /// True when this cube is a *time series*: exactly one dimension,
    /// which is a time dimension (paper, §3).
    pub fn is_time_series(&self) -> bool {
        self.dims.len() == 1 && self.dims[0].ty.is_time()
    }

    /// True when both schemas have the same dimension list (names and
    /// types, in order) — the compatibility requirement of vectorial
    /// operators.
    pub fn same_dims(&self, other: &CubeSchema) -> bool {
        self.dims == other.dims
    }

    /// Dimension names in order.
    pub fn dim_names(&self) -> Vec<&str> {
        self.dims.iter().map(|d| d.name.as_str()).collect()
    }
}

impl fmt::Display for CubeSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.id)?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ") -> {}", self.measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Frequency;

    fn sample() -> CubeSchema {
        CubeSchema::new(
            "RGDP",
            vec![
                Dimension::new("q", DimType::Time(Frequency::Quarterly)),
                Dimension::new("r", DimType::Str),
            ],
            CubeKind::Derived,
        )
    }

    #[test]
    fn dim_lookup() {
        let s = sample();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.dim_index("q"), Some(0));
        assert_eq!(s.dim_index("r"), Some(1));
        assert_eq!(s.dim_index("z"), None);
        assert_eq!(s.dim("r").unwrap().ty, DimType::Str);
    }

    #[test]
    fn time_dims_and_series() {
        let s = sample();
        assert_eq!(s.time_dims(), vec![0]);
        assert!(!s.is_time_series());
        let ts = CubeSchema::new(
            "GDP",
            vec![Dimension::new("q", DimType::Time(Frequency::Quarterly))],
            CubeKind::Derived,
        );
        assert!(ts.is_time_series());
        let no_time = CubeSchema::new(
            "X",
            vec![Dimension::new("r", DimType::Str)],
            CubeKind::Elementary,
        );
        assert!(!no_time.is_time_series());
        assert!(no_time.time_dims().is_empty());
    }

    #[test]
    fn same_dims_requires_names_and_types_in_order() {
        let a = sample();
        let mut b = sample();
        b.id = CubeId::new("OTHER");
        assert!(a.same_dims(&b));
        b.dims.swap(0, 1);
        assert!(!a.same_dims(&b));
    }

    #[test]
    fn display_shows_signature() {
        let s = sample().with_measure("g");
        assert_eq!(s.to_string(), "RGDP(q: time[quarter], r: text) -> g");
    }
}
