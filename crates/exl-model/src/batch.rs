//! Columnar batch view over cube data.
//!
//! [`CubeBatch`] is the representation the hot evaluator path runs on:
//! one strided key column of [`DimPool`]-interned values (row `r`'s key
//! is the `arity`-long slice starting at `r * arity`) beside a measure
//! column, plus a *lazy* point index for O(1) probes. A 2-dimension row
//! takes 32 bytes of key column and no allocation of its own; building a
//! batch grows two vectors and dropping one frees them, whatever the
//! row count. A batch is built once per cube per run (interning every key
//! through the run's pool) and then crosses statement boundaries as-is:
//! downstream statements read and append key slices without re-interning,
//! re-hashing strings, or materializing intermediate hash maps of
//! [`DimTuple`]s.
//!
//! Every row of a batch has the batch's arity, so a cube with rows of
//! different lengths cannot be interned: the interning pass rejects it
//! (see [`RowCheck`]). An empty batch takes the arity of its first row.
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
use crate::intern::{str_hash, DimPool, IDim, Sym};
use crate::schema::CubeSchema;
use crate::value::DimValue;

/// Open-addressed point index over a batch's key column: power-of-two
/// slot table of row numbers with linear probing from the key hash's high
/// bits (the multiply-xor hash mixes upwards, so its low bits see little
/// of the leading key values), comparing candidate rows against the key
/// column itself. Building it is one pass with zero per-key allocations.
#[derive(Debug)]
struct PointIndex {
    mask: usize,
    /// `64 - log2(slots.len())`: the shift that leaves a hash's top bits.
    shift: u32,
    slots: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

fn key_hash(key: &[IDim]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

impl PointIndex {
    fn build(keys: KeyColumn<'_>) -> PointIndex {
        let cap = (keys.len() * 2).next_power_of_two().max(4);
        let mask = cap - 1;
        let shift = 64 - cap.trailing_zeros();
        let mut slots = vec![NO_SLOT; cap];
        for (row, k) in keys.iter().enumerate() {
            let mut i = (key_hash(k) >> shift) as usize;
            loop {
                match slots[i] {
                    NO_SLOT => {
                        slots[i] = row as u32;
                        break;
                    }
                    r if keys.get(r as usize) == k => {
                        // duplicate key (contract violation): last wins,
                        // matching `to_data`'s insert_overwrite order
                        slots[i] = row as u32;
                        break;
                    }
                    _ => i = (i + 1) & mask,
                }
            }
        }
        PointIndex { mask, shift, slots }
    }

    fn lookup(&self, key: &[IDim], keys: KeyColumn<'_>) -> Option<u32> {
        let mut i = (key_hash(key) >> self.shift) as usize;
        loop {
            match self.slots[i] {
                NO_SLOT => return None,
                r if keys.get(r as usize) == key => return Some(r),
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

/// A read-only view of a batch's strided key column: `len` rows of
/// `arity` values each.
#[derive(Debug, Clone, Copy)]
pub struct KeyColumn<'a> {
    arity: usize,
    rows: usize,
    flat: &'a [IDim],
}

impl<'a> KeyColumn<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the column holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Values per row.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `row`'s key.
    ///
    /// # Panics
    /// Panics when `row` is out of range.
    #[inline]
    pub fn get(&self, row: usize) -> &'a [IDim] {
        debug_assert!(row < self.rows, "row {row} out of range");
        &self.flat[row * self.arity..(row + 1) * self.arity]
    }

    /// Every row's key, in row order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [IDim]> + 'a {
        let KeyColumn { arity, rows, flat } = *self;
        (0..rows).map(move |r| &flat[r * arity..(r + 1) * arity])
    }

    /// The whole column, row after row.
    pub fn flat(&self) -> &'a [IDim] {
        self.flat
    }
}

/// What an interning pass checks each tuple against before interning it.
#[derive(Debug, Clone, Copy)]
pub enum RowCheck<'a> {
    /// Only the arity. A tuple of another length fails with
    /// [`ModelError::ArityMismatch`] naming the cube `<operand>`.
    Arity(usize),
    /// Arity and dimension types, failing with the error
    /// [`crate::Cube::validate`] gives.
    Schema(&'a CubeSchema),
}

impl RowCheck<'_> {
    /// The arity every interned row must have.
    pub fn arity(&self) -> usize {
        match self {
            RowCheck::Arity(a) => *a,
            RowCheck::Schema(s) => s.arity(),
        }
    }

    fn check(&self, tuple: &[DimValue]) -> Result<(), ModelError> {
        match self {
            RowCheck::Arity(a) if tuple.len() != *a => Err(ModelError::ArityMismatch {
                cube: "<operand>".into(),
                expected: *a,
                got: tuple.len(),
            }),
            RowCheck::Arity(_) => Ok(()),
            RowCheck::Schema(s) => s.check_tuple(tuple),
        }
    }
}

/// Check and intern `rows` into column slices, in iteration order: row
/// `r`'s key goes to `keys[r * arity..(r + 1) * arity]` (`arity` being
/// `check.arity()`) and its measure to `measures[r]`, for as many rows as
/// `measures` holds. Fails on the first tuple `check` rejects; `pool` may
/// then hold strings of the rows before it. The one interning loop: whole
/// cubes and the row chunks of a parallel pass go through it alike.
///
/// Rows go in blocks of three passes: check the block's tuples and
/// collect their strings, hash the strings, intern. A cube's tuples and
/// their strings are scattered over the heap; the first two passes do
/// little besides the loads, so the loads of a whole block are in flight
/// at once (tuples in the first, string bytes in the second), and the
/// table probes of the third find everything cached.
///
/// # Panics
/// Panics when `keys` holds fewer than `arity` values per measure slot.
pub fn intern_rows<'a>(
    rows: impl IntoIterator<Item = (&'a DimTuple, f64)>,
    check: RowCheck<'_>,
    pool: &mut DimPool,
    keys: &mut [IDim],
    measures: &mut [f64],
) -> Result<(), ModelError> {
    const BLOCK: usize = 32;
    let arity = check.arity();
    let mut rows = rows.into_iter();
    let mut block: Vec<(&DimTuple, f64)> = Vec::with_capacity(BLOCK);
    let mut strs: Vec<&str> = Vec::with_capacity(BLOCK * arity);
    let mut hashes: Vec<u64> = Vec::with_capacity(BLOCK * arity);
    for (b, block_measures) in measures.chunks_mut(BLOCK).enumerate() {
        block.clear();
        block.extend(rows.by_ref().take(block_measures.len()));
        strs.clear();
        for (tuple, _) in &block {
            check.check(tuple)?;
            strs.extend(tuple.iter().filter_map(|d| match d {
                DimValue::Str(s) => Some(&**s),
                _ => None,
            }));
        }
        hashes.clear();
        hashes.extend(strs.iter().map(|s| str_hash(s)));
        let mut hashes = hashes.iter();
        let first = b * BLOCK * arity;
        let block_keys = &mut keys[first..first + block.len() * arity];
        for (r, ((tuple, v), m)) in block.iter().zip(block_measures).enumerate() {
            for (dst, d) in block_keys[r * arity..(r + 1) * arity]
                .iter_mut()
                .zip(*tuple)
            {
                *dst = match d {
                    DimValue::Int(i) => IDim::Int(*i),
                    DimValue::Str(s) => {
                        let hash = hashes.next().expect("one hash per string");
                        IDim::Sym(pool.intern_hashed(s, *hash))
                    }
                    DimValue::Time(t) => IDim::Time(*t),
                };
            }
            *m = *v;
        }
    }
    Ok(())
}

/// Translate every symbol of a key column slice through `syms` (indexed
/// by the old symbol code; see [`DimPool::merge`]). This is how a row
/// chunk interned into a chunk-local pool joins the run's pool.
pub fn remap_syms(keys: &mut [IDim], syms: &[Sym]) {
    for d in keys {
        if let IDim::Sym(s) = *d {
            *d = IDim::Sym(syms[s.0 as usize]);
        }
    }
}

/// A cube's payload in columnar form: a strided key column of interned
/// values beside the measure column, with a lazily built key → row point
/// index.
#[derive(Debug, Default)]
pub struct CubeBatch {
    arity: usize,
    keys: Vec<IDim>,
    measures: Vec<f64>,
    index: OnceLock<PointIndex>,
}

impl Clone for CubeBatch {
    /// Clones the columns only; the clone re-indexes on its first probe.
    fn clone(&self) -> CubeBatch {
        CubeBatch {
            arity: self.arity,
            keys: self.keys.clone(),
            measures: self.measures.clone(),
            index: OnceLock::new(),
        }
    }
}

impl PartialEq for CubeBatch {
    /// Row-for-row column equality; the index is derived state. (Equal
    /// non-empty columns imply equal arity: the key column holds
    /// `rows × arity` values.)
    fn eq(&self, other: &CubeBatch) -> bool {
        self.keys == other.keys && self.measures == other.measures
    }
}

impl CubeBatch {
    /// Empty batch.
    pub fn new() -> CubeBatch {
        CubeBatch::default()
    }

    /// Empty batch of `arity`-long keys with room for `n` rows.
    pub fn with_capacity(arity: usize, n: usize) -> CubeBatch {
        CubeBatch {
            arity,
            keys: Vec::with_capacity(n * arity),
            measures: Vec::with_capacity(n),
            index: OnceLock::new(),
        }
    }

    /// Batch view of a cube: interns every key through `pool` in the
    /// cube's storage order. The arity is that of the first row.
    ///
    /// # Panics
    /// Panics when the cube's rows differ in arity; callers holding data
    /// that skipped validation check it with [`intern_rows`] instead.
    pub fn from_data(data: &CubeData, pool: &mut DimPool) -> CubeBatch {
        let arity = data.iter().next().map_or(0, |(k, _)| k.len());
        let mut keys = vec![IDim::Int(0); data.len() * arity];
        let mut measures = vec![0.0; data.len()];
        intern_rows(
            data.iter(),
            RowCheck::Arity(arity),
            pool,
            &mut keys,
            &mut measures,
        )
        .expect("cube rows differ in arity");
        CubeBatch::from_columns(arity, keys, measures)
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
        self.measures.len()
    }

    /// True when no row is present.
    pub fn is_empty(&self) -> bool {
        self.measures.is_empty()
    }

    /// Values per key.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The point index, built on first use. Concurrent first probes from
    /// parallel workers serialize on the build; every later probe is a
    /// plain hash lookup.
    fn index(&self) -> &PointIndex {
        self.index.get_or_init(|| PointIndex::build(self.keys()))
    }

    /// Force the point index to exist. Callers about to probe from
    /// several threads use this to pay the build once, up front, instead
    /// of serializing the workers on the first probe.
    pub fn ensure_indexed(&self) {
        let _ = self.index();
    }

    /// Measure at a key, if defined. Builds the index on first use.
    pub fn get(&self, key: &[IDim]) -> Option<f64> {
        self.row_of(key).map(|row| self.measures[row as usize])
    }

    /// True when the key is defined. Builds the index on first use.
    pub fn contains(&self, key: &[IDim]) -> bool {
        self.row_of(key).is_some()
    }

    /// Row position of a key, if defined. Builds the index on first use.
    /// Probe loops that walk a batch in key order use this to re-seat a
    /// sequential cursor after a miss, then read neighbouring rows
    /// index-free.
    pub fn row_of(&self, key: &[IDim]) -> Option<u32> {
        self.index().lookup(key, self.keys())
    }

    /// Append a row. The batch stays functional only if the caller never
    /// pushes the same key twice (see the module doc); a previously built
    /// index is discarded and rebuilt on the next probe.
    ///
    /// # Panics
    /// Panics when the key's length differs from the arity of a
    /// non-empty batch.
    pub fn push(&mut self, key: &[IDim], value: f64) {
        if self.is_empty() {
            self.arity = key.len();
        }
        assert_eq!(key.len(), self.arity, "key arity differs from the batch's");
        u32::try_from(self.measures.len()).expect("batch row overflow");
        self.keys.extend_from_slice(key);
        self.measures.push(value);
        self.index.take();
    }

    /// Adopt fully built key/measure columns in one move — the bulk
    /// variant of [`CubeBatch::push`] for kernels that stream rows into
    /// plain vectors first. `keys` holds `arity` values per row. Same
    /// functional contract: the caller must not have produced a
    /// duplicate key.
    ///
    /// # Panics
    /// Panics when the columns disagree in length or exceed `u32` rows.
    pub fn from_columns(arity: usize, keys: Vec<IDim>, measures: Vec<f64>) -> CubeBatch {
        assert_eq!(keys.len(), measures.len() * arity, "column length mismatch");
        u32::try_from(measures.len()).expect("batch row overflow");
        CubeBatch {
            arity,
            keys,
            measures,
            index: OnceLock::new(),
        }
    }

    /// The key column.
    pub fn keys(&self) -> KeyColumn<'_> {
        KeyColumn {
            arity: self.arity,
            rows: self.measures.len(),
            flat: &self.keys,
        }
    }

    /// Row `row`'s key.
    ///
    /// # Panics
    /// Panics when `row` is out of range.
    pub fn key(&self, row: usize) -> &[IDim] {
        self.keys().get(row)
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
    pub fn columns_mut(&mut self) -> (KeyColumn<'_>, &mut [f64]) {
        let keys = KeyColumn {
            arity: self.arity,
            rows: self.measures.len(),
            flat: &self.keys,
        };
        (keys, &mut self.measures)
    }

    /// The mutable key column, row after row (`arity` values each), for
    /// key-rewriting operators (shift) that are injective on keys. The
    /// caller must keep keys unique; any built index is discarded.
    pub fn keys_mut(&mut self) -> &mut [IDim] {
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
        let a = self.arity;
        let mut w = 0;
        for r in 0..self.measures.len() {
            if self.measures[r].is_finite() {
                if w != r {
                    self.keys.copy_within(r * a..(r + 1) * a, w * a);
                    self.measures[w] = self.measures[r];
                }
                w += 1;
            }
        }
        self.keys.truncate(w * a);
        self.measures.truncate(w);
        self.index.take();
    }

    /// Iterate rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&[IDim], f64)> {
        self.keys().iter().zip(self.measures.iter().copied())
    }

    /// Resolve one row's key to an owned [`DimTuple`].
    pub fn resolve_row(&self, row: usize, pool: &DimPool) -> DimTuple {
        pool.resolve_tuple(self.key(row))
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
        assert_eq!(batch.arity(), 3);
        assert_eq!(batch.keys().flat().len(), 9);
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
        let checked = |schema: &CubeSchema, pool: &mut DimPool| {
            let (mut keys, mut measures) = (vec![IDim::Int(0); 9], vec![0.0; 3]);
            let check = RowCheck::Schema(schema);
            intern_rows(sample().iter(), check, pool, &mut keys, &mut measures)?;
            Ok::<_, ModelError>(CubeBatch::from_columns(3, keys, measures))
        };
        let schema = CubeSchema::new("C", dims.clone(), CubeKind::Elementary);
        let mut pool = DimPool::new();
        let good = checked(&schema, &mut pool).unwrap();
        assert_eq!(good.to_data(&pool), sample());

        let swapped = CubeSchema::new(
            "C",
            vec![dims[1].clone(), dims[0].clone(), dims[2].clone()],
            CubeKind::Elementary,
        );
        let short = CubeSchema::new("C", dims[..2].to_vec(), CubeKind::Elementary);
        for bad in [swapped, short] {
            let expected = Cube::new(bad.clone(), sample()).validate().unwrap_err();
            let got = checked(&bad, &mut pool).unwrap_err();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn ragged_rows_fail_the_arity_check() {
        let mut data = sample();
        data.insert_overwrite(vec![DimValue::Int(9)], 1.0);
        let mut pool = DimPool::new();
        let (mut keys, mut measures) = (vec![IDim::Int(0); 12], vec![0.0; 4]);
        let err = intern_rows(
            data.iter(),
            RowCheck::Arity(3),
            &mut pool,
            &mut keys,
            &mut measures,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ModelError::ArityMismatch {
                cube: "<operand>".into(),
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn chunks_merged_in_order_equal_one_pass() {
        let mut data = CubeData::new();
        for i in 0..40i64 {
            data.insert_overwrite(
                vec![DimValue::str(format!("s{}", i % 13)), DimValue::Int(i)],
                i as f64,
            );
        }
        let mut serial_pool = DimPool::new();
        serial_pool.intern("s7");
        let mut merged_pool = serial_pool.clone();
        let serial = CubeBatch::from_data(&data, &mut serial_pool);

        let check = RowCheck::Arity(2);
        let (mut keys, mut measures) = (vec![IDim::Int(0); 80], vec![0.0; 40]);
        for cut in [0, 15, 31, 40].windows(2) {
            let (lo, hi) = (cut[0], cut[1]);
            let rows = data.iter().skip(lo).take(hi - lo);
            let (kc, mc) = (&mut keys[2 * lo..2 * hi], &mut measures[lo..hi]);
            if lo == 0 {
                intern_rows(rows, check, &mut merged_pool, kc, mc).unwrap();
            } else {
                let mut local = DimPool::new();
                intern_rows(rows, check, &mut local, kc, mc).unwrap();
                remap_syms(kc, &merged_pool.merge(&local));
            }
        }
        let merged = CubeBatch::from_columns(2, keys, measures);
        assert_eq!(merged, serial);
        let strings = |p: &DimPool| -> Vec<String> {
            (0..p.len() as u32)
                .map(|s| p.resolve(crate::intern::Sym(s)).to_string())
                .collect()
        };
        assert_eq!(strings(&merged_pool), strings(&serial_pool));
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
        batch.push(&[IDim::Int(1)], 1.0);
        assert_eq!(batch.get(&[IDim::Int(1)]), Some(1.0)); // forces the index
        batch.push(&[IDim::Int(2)], 2.0);
        assert_eq!(batch.get(&[IDim::Int(2)]), Some(2.0)); // rebuilt, sees the append
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn zero_arity_rows_are_counted_by_the_measure_column() {
        let mut batch = CubeBatch::new();
        batch.push(&[], 4.0);
        assert_eq!((batch.len(), batch.arity()), (1, 0));
        assert_eq!(batch.get(&[]), Some(4.0));
        assert_eq!(batch.iter().collect::<Vec<_>>(), vec![(&[][..], 4.0)]);
    }

    #[test]
    fn in_place_mutation_and_partiality() {
        let mut batch = CubeBatch::new();
        for i in 0..4 {
            batch.push(&[IDim::Int(i), IDim::Int(-i)], i as f64);
        }
        for v in batch.measures_mut() {
            *v = 1.0 / *v; // 1/0 = inf at row 0
        }
        batch.retain_finite();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.key(0), &[IDim::Int(1), IDim::Int(-1)]);
        assert_eq!(batch.get(&[IDim::Int(0), IDim::Int(0)]), None);
        assert_eq!(batch.get(&[IDim::Int(2), IDim::Int(-2)]), Some(0.5));
        // key rewrite through keys_mut stays probe-consistent
        for d in batch.keys_mut().iter_mut().step_by(2) {
            let IDim::Int(i) = *d else { unreachable!() };
            *d = IDim::Int(i + 10);
        }
        assert_eq!(batch.get(&[IDim::Int(12), IDim::Int(-2)]), Some(0.5));
        assert_eq!(batch.get(&[IDim::Int(2), IDim::Int(-2)]), None);
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
            assert_eq!(&pool.intern_tuple(&tuple)[..], k);
            assert_eq!(data.get(&tuple), Some(v));
        }
    }
}
