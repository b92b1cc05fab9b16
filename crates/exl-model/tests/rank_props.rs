//! Property tests for rank-coded ordering.
//!
//! The aggregation kernel sorts each group's rows by [`RankedDim`] copies
//! of their keys instead of comparing strings through the pool. Its fold
//! order — and so every float it produces — is unchanged only if the
//! rank-coded order is exactly [`DimPool::cmp_keys`], which is itself
//! `DimValue`'s derived `Ord`. These properties pin both equalities over
//! random pools whose symbols are interned out of lexicographic order.

use std::cmp::Ordering;

use exl_model::intern::{DimPool, IKey, RankedDim};
use exl_model::value::DimValue;
use exl_model::{Date, TimePoint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strings chosen to trip a comparator that is not plain byte order:
/// the empty string, numeric-looking prefixes (`r1` < `r10` < `r2`),
/// case, embedded NULs, and multi-byte UTF-8 that sorts above ASCII.
const AWKWARD: [&str; 14] = [
    "", "r1", "r10", "r2", "r", "R1", "a", "ab", "a\u{0}", "é", "e\u{301}", "Ω", "日本", "zz",
];

fn random_value(rng: &mut StdRng) -> DimValue {
    match rng.gen_range(0..6) {
        0 => DimValue::Int(rng.gen_range(-3i64..4)),
        1 => DimValue::Time(TimePoint::Quarter {
            year: rng.gen_range(1999..2002),
            quarter: rng.gen_range(1u32..5),
        }),
        2 => DimValue::Time(TimePoint::Day(
            Date::from_ymd(2020, rng.gen_range(1u32..3), rng.gen_range(1u32..29)).unwrap(),
        )),
        3 => {
            // random short strings over a small alphabet, so prefixes and
            // repeats are common
            let len = rng.gen_range(0..4);
            let s: String = (0..len)
                .map(|_| ['a', 'b', 'Z', '0', 'ß'][rng.gen_range(0..5)])
                .collect();
            DimValue::Str(s.into())
        }
        _ => DimValue::str(AWKWARD[rng.gen_range(0..AWKWARD.len())]),
    }
}

/// Random keys of one width with mixed Int/Str/Time members per
/// position, interned in a random order.
fn random_keys(seed: u64) -> (DimPool, Vec<(Vec<DimValue>, IKey)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = rng.gen_range(1..4usize);
    let n = rng.gen_range(1..40usize);
    let tuples: Vec<Vec<DimValue>> = (0..n)
        .map(|_| (0..width).map(|_| random_value(&mut rng)).collect())
        .collect();
    let mut pool = DimPool::new();
    let keys = tuples
        .into_iter()
        .map(|t| {
            let k = pool.intern_tuple(&t);
            (t, k)
        })
        .collect();
    (pool, keys)
}

fn coded(pool: &DimPool, key: &IKey) -> Vec<RankedDim> {
    key.iter().map(|&v| pool.rank_coded(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rank-coded keys compare exactly like `cmp_keys` on the interned
    /// keys and like `Ord` on the original tuples, for every pair.
    #[test]
    fn rank_order_equals_cmp_keys(seed in 0u64..1_000_000) {
        let (pool, keys) = random_keys(seed);
        let codes: Vec<Vec<RankedDim>> = keys.iter().map(|(_, k)| coded(&pool, k)).collect();
        for (i, (ti, ki)) in keys.iter().enumerate() {
            for (j, (tj, kj)) in keys.iter().enumerate() {
                let by_pool = pool.cmp_keys(ki, kj);
                prop_assert_eq!(codes[i].cmp(&codes[j]), by_pool);
                prop_assert_eq!(ti.cmp(tj), by_pool);
            }
        }
    }

    /// Interning a new string invalidates the ranks: codes taken after
    /// the pool grows still order every key, old and new, correctly.
    #[test]
    fn ranks_are_rebuilt_after_the_pool_grows(seed in 0u64..1_000_000) {
        let (mut pool, mut keys) = random_keys(seed);
        // build the ranks once, then grow the pool
        for (_, k) in &keys {
            let _ = coded(&pool, k);
        }
        let (_, more) = random_keys(seed ^ 0x5eed);
        for (t, _) in more {
            let k = pool.intern_tuple(&t);
            keys.push((t, k));
        }
        let mut sorted: Vec<&(Vec<DimValue>, IKey)> = keys.iter().collect();
        sorted.sort_by_key(|a| coded(&pool, &a.1));
        for w in sorted.windows(2) {
            prop_assert!(w[0].0.cmp(&w[1].0) != Ordering::Greater);
        }
    }
}
