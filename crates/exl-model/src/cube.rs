//! Cube instances: finite, functional sets of cube tuples.
//!
//! A [`CubeData`] stores the graph of the partial function the cube denotes
//! as a hash map from dimension tuples to the measure. The map
//! representation makes the functional egd of §4 hold *by construction* —
//! the chase crate deliberately does not use this type for its running
//! instance, so that egd checking is real work there.
//!
//! Storage is hashed (fast point lookups and inserts on the hot paths);
//! every boundary where ordering is observable — serialization, display,
//! diffs, [`CubeData::to_tuples`], [`CubeData::iter_sorted`] — sorts by the
//! dimension tuple's total order, so exported artifacts are byte-identical
//! to what the previous `BTreeMap` representation produced. Use
//! [`CubeData::iter`] only where order genuinely does not matter.

use std::fmt;

use crate::error::ModelError;
use crate::hash::FxHashMap;
use crate::schema::CubeSchema;
use crate::value::DimValue;

/// A dimension tuple — the point of the cube's domain.
pub type DimTuple = Vec<DimValue>;

/// The data of one cube: a finite partial function from dimension tuples to
/// an `f64` measure.
///
/// The entry map is shared (`Arc`) with copy-on-write mutation: cloning a
/// cube — which evaluation does for every input it returns — bumps a
/// refcount, and writers pay for a deep copy only when the map is actually
/// shared (never on freshly built cubes).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CubeData {
    entries: std::sync::Arc<FxHashMap<DimTuple, f64>>,
}

impl CubeData {
    /// Empty cube.
    pub fn new() -> CubeData {
        CubeData::default()
    }

    /// Empty cube with room for `n` tuples.
    pub fn with_capacity(n: usize) -> CubeData {
        CubeData {
            entries: std::sync::Arc::new(FxHashMap::with_capacity_and_hasher(
                n,
                Default::default(),
            )),
        }
    }

    /// Build from an iterator of `(dimension tuple, measure)` pairs.
    ///
    /// Later pairs with a duplicate dimension tuple are rejected — a cube is
    /// a function, so base data containing two measures for one point is a
    /// functional (egd) violation.
    pub fn from_tuples<I>(tuples: I) -> Result<CubeData, ModelError>
    where
        I: IntoIterator<Item = (DimTuple, f64)>,
    {
        let mut data = CubeData::new();
        for (k, v) in tuples {
            data.insert(k, v)?;
        }
        Ok(data)
    }

    /// Insert one tuple. Fails with [`ModelError::FunctionalViolation`] when
    /// the point is already defined with a *different* measure; re-inserting
    /// the identical measure is a no-op (set semantics).
    pub fn insert(&mut self, key: DimTuple, value: f64) -> Result<(), ModelError> {
        match self.entries.get(&key) {
            Some(&old) if old.to_bits() != value.to_bits() => {
                Err(ModelError::FunctionalViolation {
                    key: format_tuple(&key),
                    old,
                    new: value,
                })
            }
            Some(_) => Ok(()),
            None => {
                std::sync::Arc::make_mut(&mut self.entries).insert(key, value);
                Ok(())
            }
        }
    }

    /// Insert, silently overwriting any previous value. Used by data
    /// loading paths that model "latest observation wins" revisions.
    pub fn insert_overwrite(&mut self, key: DimTuple, value: f64) {
        std::sync::Arc::make_mut(&mut self.entries).insert(key, value);
    }

    /// Remove a point, returning its measure if it was defined. Used by
    /// vintage-update deltas that retract observations. A miss does not
    /// trigger the copy-on-write clone.
    pub fn remove(&mut self, key: &[DimValue]) -> Option<f64> {
        if !self.entries.contains_key(key) {
            return None;
        }
        std::sync::Arc::make_mut(&mut self.entries).remove(key)
    }

    /// Move every entry of `other` into this cube, overwriting on a
    /// duplicate point. The entries are moved out when `other` is the only
    /// handle on its storage and cloned otherwise, so a cube still shared
    /// elsewhere is left untouched.
    pub fn absorb(&mut self, other: CubeData) {
        let entries = std::sync::Arc::make_mut(&mut self.entries);
        match std::sync::Arc::try_unwrap(other.entries) {
            Ok(owned) => entries.extend(owned),
            Err(shared) => entries.extend(shared.iter().map(|(k, &v)| (k.clone(), v))),
        }
    }

    /// Address of the shared entry storage. Two cubes with equal
    /// `storage_ptr` hold the *same* `Arc`'d map and are therefore equal;
    /// the engine uses this for per-run fingerprint memoization (the memo
    /// retains a clone of the cube, keeping the address alive and unique
    /// for as long as the memo entry exists).
    pub fn storage_ptr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.entries) as usize
    }

    /// Measure at a point, if defined.
    pub fn get(&self, key: &[DimValue]) -> Option<f64> {
        self.entries.get(key).copied()
    }

    /// Number of points on which the cube is defined.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cube is defined nowhere.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate in storage (hash) order — deterministic for a given
    /// insertion sequence, but *not* sorted. Use only where order does
    /// not matter; anything user-visible goes through
    /// [`CubeData::iter_sorted`].
    pub fn iter(&self) -> impl Iterator<Item = (&DimTuple, f64)> {
        self.entries.iter().map(|(k, &v)| (k, v))
    }

    /// Iterate in the dimension tuple's total order. This is the sorted
    /// boundary: serialization, export, display, and backend loading all
    /// observe this order, byte-identical to the former `BTreeMap`
    /// storage.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&DimTuple, f64)> {
        let mut pairs: Vec<(&DimTuple, f64)> = self.entries.iter().map(|(k, &v)| (k, v)).collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }

    /// Sorted list of `(tuple, measure)` pairs, cloning keys.
    pub fn to_tuples(&self) -> Vec<(DimTuple, f64)> {
        self.iter_sorted().map(|(k, v)| (k.clone(), v)).collect()
    }

    /// Project keys on the given dimension indices, deduplicating.
    pub fn project_keys(&self, indices: &[usize]) -> Vec<DimTuple> {
        let mut out: Vec<DimTuple> = self
            .entries
            .keys()
            .map(|k| indices.iter().map(|&i| k[i].clone()).collect())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Compare to another cube with relative tolerance on measures: same
    /// domain, approximately equal values. Used for cross-backend checks.
    pub fn approx_eq(&self, other: &CubeData, rel_tol: f64) -> bool {
        if self.entries.len() != other.entries.len() {
            return false;
        }
        self.entries
            .iter()
            .all(|(k, &v)| match other.entries.get(k) {
                Some(&w) => crate::value::approx_eq(v, w, rel_tol),
                None => false,
            })
    }

    /// A human-readable diff against another cube, for test failure
    /// messages. Returns `None` when `approx_eq` holds.
    pub fn diff(&self, other: &CubeData, rel_tol: f64) -> Option<String> {
        if self.approx_eq(other, rel_tol) {
            return None;
        }
        let mut lines = Vec::new();
        for (k, v) in self.iter_sorted() {
            match other.entries.get(k) {
                None => lines.push(format!("  only left : {} -> {v}", format_tuple(k))),
                Some(&w) if !crate::value::approx_eq(v, w, rel_tol) => {
                    lines.push(format!("  differs   : {} -> {v} vs {w}", format_tuple(k)))
                }
                _ => {}
            }
        }
        for (k, v) in other.iter_sorted() {
            if !self.entries.contains_key(k) {
                lines.push(format!("  only right: {} -> {v}", format_tuple(k)));
            }
        }
        Some(lines.join("\n"))
    }
}

impl serde::Serialize for CubeData {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // JSON objects cannot key on tuples; serialize as a sorted pair
        // list so snapshots stay byte-stable
        serializer.collect_seq(self.iter_sorted())
    }
}

impl<'de> serde::Deserialize<'de> for CubeData {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let pairs: Vec<(DimTuple, f64)> = Vec::deserialize(deserializer)?;
        CubeData::from_tuples(pairs).map_err(serde::de::Error::custom)
    }
}

impl fmt::Display for CubeData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter_sorted() {
            writeln!(f, "({}) -> {v}", format_tuple(k))?;
        }
        Ok(())
    }
}

/// Format a dimension tuple for diagnostics.
pub fn format_tuple(t: &[DimValue]) -> String {
    t.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// A schema together with its data — the unit that moves between engines.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cube {
    /// The cube's schema.
    pub schema: CubeSchema,
    /// The cube's tuples.
    pub data: CubeData,
}

impl Cube {
    /// Pair a schema with (already validated) data.
    pub fn new(schema: CubeSchema, data: CubeData) -> Cube {
        Cube { schema, data }
    }

    /// Validate that every tuple's arity and dimension types match the
    /// schema. Data created through typed constructors is valid by
    /// construction; this guards cross-engine imports.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.data
            .iter()
            .try_for_each(|(k, _)| self.schema.check_tuple(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CubeKind, Dimension};
    use crate::time::{Frequency, TimePoint};
    use crate::value::DimType;

    fn q(y: i32, n: u32) -> DimValue {
        DimValue::Time(TimePoint::Quarter {
            year: y,
            quarter: n,
        })
    }

    #[test]
    fn insert_and_get() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("north")], 10.0)
            .unwrap();
        assert_eq!(c.get(&[q(2020, 1), DimValue::str("north")]), Some(10.0));
        assert_eq!(c.get(&[q(2020, 2), DimValue::str("north")]), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_same_value_is_noop() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn functional_violation_detected() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(1)], 2.0).unwrap();
        let err = c.insert(vec![DimValue::Int(1)], 3.0).unwrap_err();
        assert!(matches!(err, ModelError::FunctionalViolation { .. }));
    }

    #[test]
    fn overwrite_bypasses_functionality() {
        let mut c = CubeData::new();
        c.insert_overwrite(vec![DimValue::Int(1)], 2.0);
        c.insert_overwrite(vec![DimValue::Int(1)], 3.0);
        assert_eq!(c.get(&[DimValue::Int(1)]), Some(3.0));
    }

    #[test]
    fn sorted_iteration_is_sorted() {
        let mut c = CubeData::new();
        c.insert(vec![DimValue::Int(3)], 1.0).unwrap();
        c.insert(vec![DimValue::Int(1)], 1.0).unwrap();
        c.insert(vec![DimValue::Int(2)], 1.0).unwrap();
        let keys: Vec<i64> = c
            .iter_sorted()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3]);
        // unsorted iteration still visits every tuple exactly once
        let mut all: Vec<i64> = c.iter().map(|(k, _)| k[0].as_int().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3]);
    }

    #[test]
    fn to_tuples_is_sorted() {
        let mut c = CubeData::new();
        for i in [9i64, 4, 7, 1, 8] {
            c.insert(vec![DimValue::Int(i)], i as f64).unwrap();
        }
        let keys: Vec<i64> = c
            .to_tuples()
            .into_iter()
            .map(|(k, _)| k[0].as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 4, 7, 8, 9]);
    }

    #[test]
    fn project_keys_dedups() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("a")], 1.0).unwrap();
        c.insert(vec![q(2020, 1), DimValue::str("b")], 2.0).unwrap();
        c.insert(vec![q(2020, 2), DimValue::str("a")], 3.0).unwrap();
        let quarters = c.project_keys(&[0]);
        assert_eq!(quarters.len(), 2);
        let regions = c.project_keys(&[1]);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap();
        let b = CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0 + 1e-13)]).unwrap();
        assert!(a.approx_eq(&b, 1e-9));
        assert!(a.diff(&b, 1e-9).is_none());
        let c = CubeData::from_tuples(vec![(vec![DimValue::Int(2)], 1.0)]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9));
        let d = a.diff(&c, 1e-9).unwrap();
        assert!(d.contains("only left"), "{d}");
        assert!(d.contains("only right"), "{d}");
    }

    #[test]
    fn serde_round_trip() {
        let mut c = CubeData::new();
        c.insert(vec![q(2020, 1), DimValue::str("n")], 1.5).unwrap();
        c.insert(vec![q(2020, 2), DimValue::str("s")], -2.0)
            .unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: CubeData = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn serialization_order_is_insertion_independent() {
        let mut fwd = CubeData::new();
        let mut rev = CubeData::new();
        let tuples: Vec<(DimTuple, f64)> = (0..50)
            .map(|i| (vec![DimValue::Int(i), DimValue::str("r")], i as f64))
            .collect();
        for (k, v) in &tuples {
            fwd.insert(k.clone(), *v).unwrap();
        }
        for (k, v) in tuples.iter().rev() {
            rev.insert(k.clone(), *v).unwrap();
        }
        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap()
        );
        assert_eq!(fwd.to_string(), rev.to_string());
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let schema = CubeSchema::new(
            "C",
            vec![Dimension::new("q", DimType::Time(Frequency::Quarterly))],
            CubeKind::Elementary,
        );
        let good = Cube::new(
            schema.clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1)], 1.0)]).unwrap(),
        );
        good.validate().unwrap();

        let bad_arity = Cube::new(
            schema.clone(),
            CubeData::from_tuples(vec![(vec![q(2020, 1), DimValue::Int(1)], 1.0)]).unwrap(),
        );
        assert!(matches!(
            bad_arity.validate(),
            Err(ModelError::ArityMismatch { .. })
        ));

        let bad_type = Cube::new(
            schema,
            CubeData::from_tuples(vec![(vec![DimValue::Int(1)], 1.0)]).unwrap(),
        );
        assert!(matches!(
            bad_type.validate(),
            Err(ModelError::TypeMismatch { .. })
        ));
    }
}
