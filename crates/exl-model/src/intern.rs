//! Interned dimension values and flat tuple keys.
//!
//! The hot paths of the chase and the native evaluator are joins and
//! group-bys keyed on [`DimTuple`]s. A `DimTuple` is a `Vec<DimValue>`
//! whose `Str` members each own a heap allocation, so every key clone,
//! hash, and comparison walks pointers and copies strings. This module
//! provides the flat alternative the kernels run on:
//!
//! * [`DimPool`] — an append-only symbol table interning each distinct
//!   string once and handing out stable [`Sym`] (`u32`) codes;
//! * [`IDim`] — a `Copy` dimension value: `Int`/`Time` are packed
//!   inline, `Str` becomes its `Sym`;
//! * [`IKey`] — a boxed slice of `IDim`, the flat join/group key.
//!
//! Interning is order-erasing for strings (`Sym` codes reflect first-seen
//! order, not lexicographic order), so sorted boundaries must compare
//! through the pool: [`DimPool::cmp_vals`]/[`DimPool::cmp_keys`]
//! reproduce exactly the derived `Ord` of [`DimValue`]
//! (`Int < Str < Time`, strings by contents). Kernels that sort many
//! rows code their sort columns once with [`DimPool::rank_coded`]
//! instead: a [`RankedDim`] carries a string's lexicographic rank, so its
//! derived `Ord` gives the same order with integer compares only.

use std::cmp::Ordering;
use std::fmt;
use std::sync::OnceLock;

use crate::cube::DimTuple;
use crate::hash::FxHashMap;
use crate::time::TimePoint;
use crate::value::DimValue;

/// Interned string symbol: an index into a [`DimPool`]'s table.
/// Symbols are stable for the lifetime of the pool (append-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// A dimension value with strings interned: `Copy`, cheap to hash and
/// compare, and exactly as discriminating as [`DimValue`] *within one
/// pool*. Comparing `IDim`s from different pools is meaningless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IDim {
    /// Integer-coded dimension, packed inline.
    Int(i64),
    /// Interned textual dimension.
    Sym(Sym),
    /// Time dimension value, packed inline (`TimePoint` is `Copy`).
    Time(TimePoint),
}

/// A dimension value coded for ordering by [`DimPool::rank_coded`]: a
/// string becomes its lexicographic rank within the pool. The derived
/// `Ord` (`Int < Str < Time`, then by payload) is therefore exactly
/// [`DimPool::cmp_vals`] on the original values, with no string compare.
/// Ranks are meaningful only against values coded by the same pool with
/// no [`DimPool::intern`] of a new string in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RankedDim {
    /// Integer-coded dimension.
    Int(i64),
    /// Lexicographic rank of an interned string.
    Str(u32),
    /// Time dimension value.
    Time(TimePoint),
}

/// A flat, interned dimension tuple: the key type of the keyed kernels.
///
/// Shared (`Arc`), not boxed: batch kernels clone keys on every
/// surviving row (stream regions, join outputs, group extraction), and
/// a reference-count bump beats a heap allocation plus copy on each of
/// those clones. Equality, ordering, and hashing all deref to the
/// slice, so the change is invisible to the keyed kernels.
pub type IKey = std::sync::Arc<[IDim]>;

/// Append-only interning pool for dimension strings.
///
/// Deliberately not thread-shared: each chase/eval run owns its pool,
/// interns on ingest, and resolves on export. Parallel sections receive
/// `&DimPool` (resolve-only) which is `Sync`.
#[derive(Debug, Default, Clone)]
pub struct DimPool {
    strings: Vec<std::sync::Arc<str>>,
    lookup: FxHashMap<std::sync::Arc<str>, Sym>,
    /// Lexicographic rank per symbol, built on first use and dropped when
    /// a new string is interned.
    ranks: OnceLock<Vec<u32>>,
}

impl DimPool {
    /// Create an empty pool.
    pub fn new() -> DimPool {
        DimPool::default()
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no string has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Intern a string, returning its stable symbol. Idempotent: the
    /// same contents always map to the same [`Sym`].
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.lookup.get(s) {
            return sym;
        }
        let sym = Sym(u32::try_from(self.strings.len()).expect("dim pool overflow"));
        let shared: std::sync::Arc<str> = s.into();
        self.strings.push(shared.clone());
        self.lookup.insert(shared, sym);
        self.ranks.take();
        sym
    }

    /// The string behind a symbol.
    ///
    /// # Panics
    /// Panics when `sym` was not produced by this pool.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Intern one dimension value.
    pub fn intern_value(&mut self, v: &DimValue) -> IDim {
        match v {
            DimValue::Int(i) => IDim::Int(*i),
            DimValue::Str(s) => IDim::Sym(self.intern(s)),
            DimValue::Time(t) => IDim::Time(*t),
        }
    }

    /// Intern a whole dimension tuple into a flat key.
    pub fn intern_tuple(&mut self, tuple: &[DimValue]) -> IKey {
        tuple.iter().map(|v| self.intern_value(v)).collect()
    }

    /// Resolve one interned value back to its [`DimValue`].
    pub fn resolve_value(&self, v: IDim) -> DimValue {
        match v {
            IDim::Int(i) => DimValue::Int(i),
            // resolve shares the pooled allocation — no copy per value
            IDim::Sym(s) => DimValue::Str(self.strings[s.0 as usize].clone()),
            IDim::Time(t) => DimValue::Time(t),
        }
    }

    /// Resolve a flat key back to an owned [`DimTuple`].
    pub fn resolve_tuple(&self, key: &[IDim]) -> DimTuple {
        key.iter().map(|&v| self.resolve_value(v)).collect()
    }

    /// Compare two interned values in exactly the order of
    /// `DimValue`'s derived `Ord`: `Int < Str < Time`, integers
    /// numerically, strings by contents (not by symbol), time points by
    /// their own `Ord`.
    pub fn cmp_vals(&self, a: IDim, b: IDim) -> Ordering {
        match (a, b) {
            (IDim::Int(x), IDim::Int(y)) => x.cmp(&y),
            (IDim::Sym(x), IDim::Sym(y)) => {
                if x == y {
                    Ordering::Equal
                } else {
                    self.resolve(x).cmp(self.resolve(y))
                }
            }
            (IDim::Time(x), IDim::Time(y)) => x.cmp(&y),
            (IDim::Int(_), _) => Ordering::Less,
            (_, IDim::Int(_)) => Ordering::Greater,
            (IDim::Sym(_), IDim::Time(_)) => Ordering::Less,
            (IDim::Time(_), IDim::Sym(_)) => Ordering::Greater,
        }
    }

    /// One value coded for ordering: a symbol becomes its string's
    /// lexicographic rank among every string in the pool (see
    /// [`RankedDim`]). The ranks are built once, on the first call after
    /// the pool last grew.
    pub fn rank_coded(&self, v: IDim) -> RankedDim {
        match v {
            IDim::Int(i) => RankedDim::Int(i),
            IDim::Sym(s) => RankedDim::Str(self.ranks()[s.0 as usize]),
            IDim::Time(t) => RankedDim::Time(t),
        }
    }

    fn ranks(&self) -> &[u32] {
        self.ranks.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.strings.len() as u32).collect();
            order
                .sort_unstable_by(|&a, &b| self.strings[a as usize].cmp(&self.strings[b as usize]));
            let mut ranks = vec![0u32; order.len()];
            for (rank, &sym) in order.iter().enumerate() {
                ranks[sym as usize] = rank as u32;
            }
            ranks
        })
    }

    /// Lexicographic comparison of two flat keys under
    /// [`DimPool::cmp_vals`] — the order `BTreeMap<DimTuple, _>` used to
    /// give, required at every sorted boundary.
    pub fn cmp_keys(&self, a: &[IDim], b: &[IDim]) -> Ordering {
        for (x, y) in a.iter().zip(b.iter()) {
            match self.cmp_vals(*x, *y) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Date;

    #[test]
    fn intern_is_idempotent_and_stable() {
        let mut pool = DimPool::new();
        let a = pool.intern("north");
        let b = pool.intern("south");
        let a2 = pool.intern("north");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(a), "north");
        assert_eq!(pool.resolve(b), "south");
    }

    #[test]
    fn value_round_trip() {
        let mut pool = DimPool::new();
        let vals = [
            DimValue::Int(-7),
            DimValue::str("emea"),
            DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 3,
            }),
            DimValue::Time(TimePoint::Day(Date::from_ymd(1999, 12, 31).unwrap())),
        ];
        for v in &vals {
            let i = pool.intern_value(v);
            assert_eq!(&pool.resolve_value(i), v);
        }
    }

    #[test]
    fn tuple_round_trip() {
        let mut pool = DimPool::new();
        let tuple = vec![
            DimValue::str("it"),
            DimValue::Int(3),
            DimValue::Time(TimePoint::Year(2021)),
        ];
        let key = pool.intern_tuple(&tuple);
        assert_eq!(key.len(), 3);
        assert_eq!(pool.resolve_tuple(&key), tuple);
    }

    #[test]
    fn interned_equality_matches_value_equality() {
        let mut pool = DimPool::new();
        let x = pool.intern_value(&DimValue::str("x"));
        let x2 = pool.intern_value(&DimValue::str("x"));
        let y = pool.intern_value(&DimValue::str("y"));
        assert_eq!(x, x2);
        assert_ne!(x, y);
        // Int and Sym never collide even with matching raw bits
        let i0 = pool.intern_value(&DimValue::Int(0));
        let s0 = IDim::Sym(Sym(0));
        assert_ne!(i0, s0);
    }

    #[test]
    fn comparator_replicates_dim_value_ord() {
        // intern deliberately out of lexicographic order, so symbol
        // codes disagree with string order
        let mut pool = DimPool::new();
        let sample = [
            DimValue::str("zebra"),
            DimValue::str("alpha"),
            DimValue::Int(10),
            DimValue::Int(-3),
            DimValue::Time(TimePoint::Year(1990)),
            DimValue::Time(TimePoint::Month {
                year: 2020,
                month: 2,
            }),
            DimValue::str("middle"),
            DimValue::Time(TimePoint::Day(Date::from_ymd(2001, 6, 1).unwrap())),
        ];
        let interned: Vec<IDim> = sample.iter().map(|v| pool.intern_value(v)).collect();
        for (i, a) in sample.iter().enumerate() {
            for (j, b) in sample.iter().enumerate() {
                assert_eq!(
                    pool.cmp_vals(interned[i], interned[j]),
                    a.cmp(b),
                    "cmp_vals({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn key_comparator_is_lexicographic_with_length_tiebreak() {
        let mut pool = DimPool::new();
        let t1 = pool.intern_tuple(&[DimValue::str("a"), DimValue::Int(1)]);
        let t2 = pool.intern_tuple(&[DimValue::str("a"), DimValue::Int(2)]);
        let t3 = pool.intern_tuple(&[DimValue::str("a")]);
        assert_eq!(pool.cmp_keys(&t1, &t2), Ordering::Less);
        assert_eq!(pool.cmp_keys(&t2, &t1), Ordering::Greater);
        assert_eq!(pool.cmp_keys(&t1, &t1), Ordering::Equal);
        assert_eq!(pool.cmp_keys(&t3, &t1), Ordering::Less);
    }

    #[test]
    fn sorting_interned_keys_matches_btree_order_of_tuples() {
        let mut pool = DimPool::new();
        let tuples: Vec<DimTuple> = vec![
            vec![DimValue::str("w"), DimValue::Int(2)],
            vec![DimValue::str("a"), DimValue::Int(9)],
            vec![DimValue::Int(5), DimValue::str("k")],
            vec![DimValue::str("a"), DimValue::Int(1)],
            vec![DimValue::Time(TimePoint::Year(2000)), DimValue::str("q")],
        ];
        let mut keys: Vec<IKey> = tuples.iter().map(|t| pool.intern_tuple(t)).collect();
        keys.sort_by(|a, b| pool.cmp_keys(a, b));
        let resolved: Vec<DimTuple> = keys.iter().map(|k| pool.resolve_tuple(k)).collect();
        let mut sorted = tuples.clone();
        sorted.sort();
        assert_eq!(resolved, sorted);
    }
}
