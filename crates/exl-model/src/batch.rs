//! Columnar batch view over cube data.
//!
//! [`CubeBatch`] is the representation the hot evaluator path runs on:
//! parallel `keys`/`measures` vectors over [`DimPool`]-interned keys —
//! the same layout the chase's `Relation` uses — plus a *lazy* point
//! index for O(1) probes. A batch is built once per cube per run
//! (interning every key through the run's pool) and then crosses
//! statement boundaries as-is: downstream statements operate on flat
//! `Copy` keys without re-interning, re-hashing strings, or
//! materializing intermediate hash maps of [`DimTuple`]s.
//!
//! The index is built on the **first probe** ([`CubeBatch::get`] /
//! [`CubeBatch::contains`]) and cached. Map-shaped operators — scalar
//! arithmetic, shift, the streaming side of a join — only ever append
//! rows, so their outputs never pay for a hash-map build at all; only a
//! batch that is actually probed (the build side of a join) indexes
//! itself, once, and keeps the index for every later probe in the run.
//!
//! A batch, like [`CubeData`], is *functional*: one row per key.
//! [`CubeBatch::push`] appends without checking, so **callers must push
//! each key at most once** (every evaluator operator does: scalar maps
//! preserve keys, shift is injective, join sides are disjoint, group
//! keys are bucketed uniquely). If the contract is broken anyway, probes
//! and [`CubeBatch::to_data`] agree on last-pushed-wins. Row order is
//! the insertion order — deterministic for a given build and input, not
//! sorted; sorting happens at the [`CubeBatch::to_data`] boundary's
//! consumers, exactly as for hash-stored cubes.

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::cube::{CubeData, DimTuple};
use crate::error::ModelError;
use crate::hash::FxHasher;
use crate::intern::{DimPool, IDim, IKey};
use crate::schema::CubeSchema;

/// Open-addressed point index over a batch's key column: power-of-two
/// slot table of row numbers with linear probing, comparing candidate
/// rows against the key column itself. Building it is one pass with zero
/// per-key allocations (no key clones, unlike a `HashMap<IKey, u32>`).
#[derive(Debug)]
struct PointIndex {
    mask: usize,
    slots: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

fn key_hash(key: &[IDim]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

impl PointIndex {
    fn build(keys: &[IKey]) -> PointIndex {
        let cap = (keys.len() * 2).next_power_of_two().max(4);
        let mask = cap - 1;
        let mut slots = vec![NO_SLOT; cap];
        for (row, k) in keys.iter().enumerate() {
            let mut i = key_hash(k) as usize & mask;
            loop {
                match slots[i] {
                    NO_SLOT => {
                        slots[i] = row as u32;
                        break;
                    }
                    r if keys[r as usize] == *k => {
                        // duplicate key (contract violation): last wins,
                        // matching `to_data`'s insert_overwrite order
                        slots[i] = row as u32;
                        break;
                    }
                    _ => i = (i + 1) & mask,
                }
            }
        }
        PointIndex { mask, slots }
    }

    fn lookup(&self, key: &[IDim], keys: &[IKey]) -> Option<u32> {
        let mut i = key_hash(key) as usize & self.mask;
        loop {
            match self.slots[i] {
                NO_SLOT => return None,
                r if *keys[r as usize] == *key => return Some(r),
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

/// A cube's payload in columnar form: parallel key/measure vectors over
/// interned keys, with a lazily built key → row point index.
#[derive(Debug, Default)]
pub struct CubeBatch {
    keys: Vec<IKey>,
    measures: Vec<f64>,
    index: OnceLock<PointIndex>,
}

impl Clone for CubeBatch {
    /// Clones the columns only; the clone re-indexes on its first probe
    /// (cloning a hash map of boxed keys costs more than rebuilding it).
    fn clone(&self) -> CubeBatch {
        CubeBatch {
            keys: self.keys.clone(),
            measures: self.measures.clone(),
            index: OnceLock::new(),
        }
    }
}

impl PartialEq for CubeBatch {
    /// Row-for-row column equality; the index is derived state.
    fn eq(&self, other: &CubeBatch) -> bool {
        self.keys == other.keys && self.measures == other.measures
    }
}

impl CubeBatch {
    /// Empty batch.
    pub fn new() -> CubeBatch {
        CubeBatch::default()
    }

    /// Empty batch with room for `n` rows.
    pub fn with_capacity(n: usize) -> CubeBatch {
        CubeBatch {
            keys: Vec::with_capacity(n),
            measures: Vec::with_capacity(n),
            index: OnceLock::new(),
        }
    }

    /// Batch view of a cube: interns every key through `pool` in the
    /// cube's storage order.
    pub fn from_data(data: &CubeData, pool: &mut DimPool) -> CubeBatch {
        let mut batch = CubeBatch::with_capacity(data.len());
        for (k, v) in data.iter() {
            batch.push(pool.intern_tuple(k), v);
        }
        batch
    }

    /// [`CubeBatch::from_data`] that checks every tuple against `schema`
    /// while interning it, in one pass. Fails with the error
    /// [`crate::Cube::validate`] gives, for the same first bad tuple in
    /// storage order; strings interned before the failure stay in `pool`.
    pub fn from_data_checked(
        data: &CubeData,
        schema: &CubeSchema,
        pool: &mut DimPool,
    ) -> Result<CubeBatch, ModelError> {
        let mut batch = CubeBatch::with_capacity(data.len());
        for (k, v) in data.iter() {
            schema.check_tuple(k)?;
            batch.push(pool.intern_tuple(k), v);
        }
        Ok(batch)
    }

    /// Resolve the batch back to hash-stored cube data.
    pub fn to_data(&self, pool: &DimPool) -> CubeData {
        let mut out = CubeData::with_capacity(self.len());
        for (k, v) in self.iter() {
            out.insert_overwrite(pool.resolve_tuple(k), v);
        }
        out
    }

    /// Number of rows (= defined points; the batch is functional).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no row is present.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The point index, built on first use. Concurrent first probes from
    /// parallel workers serialize on the build; every later probe is a
    /// plain hash lookup.
    fn index(&self) -> &PointIndex {
        self.index.get_or_init(|| PointIndex::build(&self.keys))
    }

    /// Force the point index to exist. Callers about to probe from
    /// several threads use this to pay the build once, up front, instead
    /// of serializing the workers on the first probe.
    pub fn ensure_indexed(&self) {
        let _ = self.index();
    }

    /// Measure at a key, if defined. Builds the index on first use.
    pub fn get(&self, key: &[IDim]) -> Option<f64> {
        self.index()
            .lookup(key, &self.keys)
            .map(|row| self.measures[row as usize])
    }

    /// True when the key is defined. Builds the index on first use.
    pub fn contains(&self, key: &[IDim]) -> bool {
        self.index().lookup(key, &self.keys).is_some()
    }

    /// Row position of a key, if defined. Builds the index on first use.
    /// Probe loops that walk a batch in key order use this to re-seat a
    /// sequential cursor after a miss, then read neighbouring rows
    /// index-free.
    pub fn row_of(&self, key: &[IDim]) -> Option<u32> {
        self.index().lookup(key, &self.keys)
    }

    /// Append a row. The batch stays functional only if the caller never
    /// pushes the same key twice (see the module doc); a previously built
    /// index is discarded and rebuilt on the next probe.
    pub fn push(&mut self, key: IKey, value: f64) {
        u32::try_from(self.keys.len()).expect("batch row overflow");
        self.keys.push(key);
        self.measures.push(value);
        self.index.take();
    }

    /// Adopt fully built key/measure columns in one move — the bulk
    /// variant of [`CubeBatch::push`] for kernels that stream rows into
    /// plain vectors first. Same functional contract: the caller must
    /// not have produced a duplicate key.
    ///
    /// # Panics
    /// Panics when the columns disagree in length or exceed `u32` rows.
    pub fn from_columns(keys: Vec<IKey>, measures: Vec<f64>) -> CubeBatch {
        assert_eq!(keys.len(), measures.len(), "column length mismatch");
        u32::try_from(keys.len()).expect("batch row overflow");
        CubeBatch {
            keys,
            measures,
            index: OnceLock::new(),
        }
    }

    /// The key column.
    pub fn keys(&self) -> &[IKey] {
        &self.keys
    }

    /// The measure column.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Mutable measure column, for operators that transform measures in
    /// place without touching keys (row positions are unchanged, so a
    /// built index stays valid).
    pub fn measures_mut(&mut self) -> &mut [f64] {
        &mut self.measures
    }

    /// The key column and the mutable measure column together, for
    /// operators that rewrite each measure as a function of its own key
    /// (the streaming side of a join probes another batch per key).
    pub fn columns_mut(&mut self) -> (&[IKey], &mut [f64]) {
        (&self.keys, &mut self.measures)
    }

    /// Mutable key column, for key-rewriting operators (shift) that are
    /// injective on keys. The caller must keep keys unique; any built
    /// index is discarded.
    pub fn keys_mut(&mut self) -> &mut [IKey] {
        self.index.take();
        &mut self.keys
    }

    /// Drop every row whose measure is non-finite (the §3 partiality
    /// rule), preserving row order. Discards a built index when rows are
    /// actually removed.
    pub fn retain_finite(&mut self) {
        if self.measures.iter().all(|v| v.is_finite()) {
            return;
        }
        let mut w = 0;
        for r in 0..self.measures.len() {
            if self.measures[r].is_finite() {
                self.keys.swap(w, r);
                self.measures[w] = self.measures[r];
                w += 1;
            }
        }
        self.keys.truncate(w);
        self.measures.truncate(w);
        self.index.take();
    }

    /// Iterate rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&IKey, f64)> {
        self.keys.iter().zip(self.measures.iter().copied())
    }

    /// Resolve one row's key to an owned [`DimTuple`].
    pub fn resolve_row(&self, row: usize, pool: &DimPool) -> DimTuple {
        pool.resolve_tuple(&self.keys[row])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;
    use crate::value::DimValue;

    fn sample() -> CubeData {
        let mut data = CubeData::new();
        for (i, r) in [(1i64, "north"), (2, "south"), (3, "north")] {
            data.insert_overwrite(
                vec![
                    DimValue::Int(i),
                    DimValue::str(r),
                    DimValue::Time(TimePoint::Year(2020)),
                ],
                i as f64 * 1.5,
            );
        }
        data
    }

    #[test]
    fn round_trips_through_the_pool() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        assert_eq!(batch.len(), data.len());
        assert!(!batch.is_empty());
        assert_eq!(batch.to_data(&pool), data);
    }

    #[test]
    fn checked_build_fails_like_validate() {
        use crate::cube::Cube;
        use crate::schema::{CubeKind, Dimension};
        use crate::time::Frequency;
        use crate::value::DimType;
        let dims = vec![
            Dimension::new("k", DimType::Int),
            Dimension::new("r", DimType::Str),
            Dimension::new("t", DimType::Time(Frequency::Yearly)),
        ];
        let schema = CubeSchema::new("C", dims.clone(), CubeKind::Elementary);
        let mut pool = DimPool::new();
        let good = CubeBatch::from_data_checked(&sample(), &schema, &mut pool).unwrap();
        assert_eq!(good.to_data(&pool), sample());

        let swapped = CubeSchema::new(
            "C",
            vec![dims[1].clone(), dims[0].clone(), dims[2].clone()],
            CubeKind::Elementary,
        );
        let short = CubeSchema::new("C", dims[..2].to_vec(), CubeKind::Elementary);
        for bad in [swapped, short] {
            let expected = Cube::new(bad.clone(), sample()).validate().unwrap_err();
            let got = CubeBatch::from_data_checked(&sample(), &bad, &mut pool).unwrap_err();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn probes_by_interned_key() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let key = pool.intern_tuple(&[
            DimValue::Int(2),
            DimValue::str("south"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&key), Some(3.0));
        assert!(batch.contains(&key));
        let missing = pool.intern_tuple(&[
            DimValue::Int(9),
            DimValue::str("south"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&missing), None);
    }

    #[test]
    fn pushes_after_a_probe_invalidate_the_index() {
        let mut batch = CubeBatch::new();
        let k1: IKey = vec![IDim::Int(1)].into();
        let k2: IKey = vec![IDim::Int(2)].into();
        batch.push(k1.clone(), 1.0);
        assert_eq!(batch.get(&k1), Some(1.0)); // forces the index
        batch.push(k2.clone(), 2.0);
        assert_eq!(batch.get(&k2), Some(2.0)); // rebuilt, sees the append
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn in_place_mutation_and_partiality() {
        let mut batch = CubeBatch::new();
        for i in 0..4 {
            batch.push(vec![IDim::Int(i)].into(), i as f64);
        }
        for v in batch.measures_mut() {
            *v = 1.0 / *v; // 1/0 = inf at row 0
        }
        batch.retain_finite();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.get(&[IDim::Int(0)]), None);
        assert_eq!(batch.get(&[IDim::Int(2)]), Some(0.5));
        // key rewrite through keys_mut stays probe-consistent (uniquely
        // owned keys mutate in place; aliased ones get a fresh `Arc`)
        for k in batch.keys_mut() {
            let IDim::Int(i) = k[0] else { unreachable!() };
            match std::sync::Arc::get_mut(k) {
                Some(slice) => slice[0] = IDim::Int(i + 10),
                None => *k = vec![IDim::Int(i + 10)].into(),
            }
        }
        assert_eq!(batch.get(&[IDim::Int(12)]), Some(0.5));
        assert_eq!(batch.get(&[IDim::Int(2)]), None);
    }

    #[test]
    fn clone_is_column_deep_index_lazy() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        let probe = pool.intern_tuple(&[
            DimValue::Int(1),
            DimValue::str("north"),
            DimValue::Time(TimePoint::Year(2020)),
        ]);
        assert_eq!(batch.get(&probe), Some(1.5));
        let cloned = batch.clone();
        assert_eq!(cloned, batch);
        assert_eq!(cloned.get(&probe), Some(1.5));
    }

    #[test]
    fn iter_and_resolve_row() {
        let data = sample();
        let mut pool = DimPool::new();
        let batch = CubeBatch::from_data(&data, &mut pool);
        for (row, (k, v)) in batch.iter().enumerate() {
            let tuple = batch.resolve_row(row, &pool);
            assert_eq!(&pool.intern_tuple(&tuple), k);
            assert_eq!(data.get(&tuple), Some(v));
        }
    }
}
