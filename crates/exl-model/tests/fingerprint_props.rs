//! Property tests for cube content fingerprints.
//!
//! The run cache keys statement executions on [`Fingerprint::of_cube`],
//! so these invariants are load-bearing for correctness of incremental
//! recomputation: the hash must depend on *content only* — not on
//! insertion order, sharing structure (CoW clone vs deep copy), or which
//! string allocations happen to back the dimension values — while any
//! single-entry change must move it. The digest behind it must follow any
//! change set exactly, so the cache can fingerprint a revised cube from
//! its predecessor in O(changed rows).

use exl_model::fingerprint::{CubeDelta, CubeDigest, Fingerprint, Upsert};
use exl_model::value::DimValue;
use exl_model::{CubeData, TimePoint};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random entry set: mixed Time/Str/Int keys, values that
/// include negatives and exact zeros.
fn random_entries(seed: u64) -> Vec<(Vec<DimValue>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..40usize);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let key = vec![
            DimValue::Time(TimePoint::Quarter {
                year: 2000 + (i / 4) as i32,
                quarter: (i % 4 + 1) as u32,
            }),
            DimValue::Str(format!("r{:02}", rng.gen_range(0..6)).into()),
            DimValue::Int(rng.gen_range(-5..5)),
        ];
        let value = match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -rng.gen_range(0.0..100.0),
            _ => rng.gen_range(0.0..100.0),
        };
        out.push((key, value));
    }
    // keys must be unique for order-permutation comparisons to be fair
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out.dedup_by(|a, b| a.0 == b.0);
    out
}

fn cube_of(entries: &[(Vec<DimValue>, f64)]) -> CubeData {
    let mut data = CubeData::new();
    for (k, v) in entries {
        data.insert_overwrite(k.clone(), *v);
    }
    data
}

/// Fisher–Yates over a copy of the entries.
fn shuffled(entries: &[(Vec<DimValue>, f64)], seed: u64) -> Vec<(Vec<DimValue>, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = entries.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Measures a delta writes: ordinary values, both zeros, and NaNs with
/// distinct payloads and signs, so bit-level changes that compare equal
/// (or unequal to themselves) as floats are covered.
const PAYLOADS: [u64; 7] = [
    0x0000_0000_0000_0000, // +0.0
    0x8000_0000_0000_0000, // -0.0
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff8_0000_0000_0001, // NaN with a payload
    0xfff8_0000_0000_0042, // negative NaN with a payload
    0x3ff0_0000_0000_0000, // 1.0
    0xc059_0000_0000_0000, // -100.0
];

/// A seeded change set over `cube`: updates, removals and inserted keys,
/// each kind drawn per entry, with measures drawn from [`PAYLOADS`] or at
/// random. Upserts never rewrite a key with its own bits.
fn random_delta(cube: &CubeData, seed: u64) -> CubeDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = CubeDelta::new(Fingerprint::of_cube(cube));
    let bits = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            PAYLOADS[rng.gen_range(0..PAYLOADS.len())]
        } else {
            rng.gen_range(-50.0..50.0f64).to_bits()
        }
    };
    for (k, v) in cube.iter_sorted() {
        match rng.gen_range(0..4) {
            0 => {
                let new = bits(&mut rng);
                if new != v.to_bits() {
                    delta.upserts.push(Upsert {
                        key: k.clone(),
                        old: Some(v.to_bits()),
                        new,
                    });
                }
            }
            1 => delta.removed.push((k.clone(), v.to_bits())),
            _ => {}
        }
    }
    for j in 0..rng.gen_range(0..6) {
        // a fourth dimension no generated key has: always a new point
        let mut key = cube
            .iter_sorted()
            .next()
            .map(|(k, _)| k.clone())
            .unwrap_or_default();
        key.push(DimValue::Int(1_000 + j));
        delta.upserts.push(Upsert {
            key,
            old: None,
            new: bits(&mut rng),
        });
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A digest moved by a change set finishes to exactly the fingerprint
    /// of the patched cube: updates (to `-0.0` and NaN payloads
    /// included), removals and inserted keys, in any mix.
    #[test]
    fn digest_follows_random_deltas(seed in 0u64..10_000) {
        let cube = cube_of(&random_entries(seed));
        let delta = random_delta(&cube, seed ^ 0xd17a);
        let mut digest = CubeDigest::of_cube(&cube);
        prop_assert_eq!(digest.fingerprint(), Fingerprint::of_cube(&cube));
        digest.apply(&delta);
        let mut patched = cube.clone();
        delta.patch(&mut patched);
        prop_assert_eq!(digest.fingerprint(), Fingerprint::of_cube(&patched));
        prop_assert_eq!(digest.len(), patched.len() as u64);
        // a non-empty change set always moves the fingerprint
        prop_assert_eq!(delta.is_empty(), digest.fingerprint() == delta.base);
        // and the patched cube holds the written bits, NaN payloads too
        for u in &delta.upserts {
            prop_assert_eq!(patched.get(&u.key).map(f64::to_bits), Some(u.new));
        }
    }

    /// Insertion order never shows in the fingerprint: sorted, reversed,
    /// and randomly shuffled insertions all agree.
    #[test]
    fn fingerprint_is_insertion_order_independent(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let sorted = Fingerprint::of_cube(&cube_of(&entries));
        let mut rev = entries.clone();
        rev.reverse();
        prop_assert_eq!(sorted, Fingerprint::of_cube(&cube_of(&rev)));
        let shuf = shuffled(&entries, seed ^ 0xfeed);
        prop_assert_eq!(sorted, Fingerprint::of_cube(&cube_of(&shuf)));
    }

    /// Sharing structure never shows: a copy-on-write clone (shared Arc)
    /// and an entry-by-entry deep rebuild fingerprint identically.
    #[test]
    fn fingerprint_is_clone_invariant(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let original = cube_of(&entries);
        let cow = original.clone(); // shares the underlying map
        let deep = cube_of(&entries); // fresh allocations throughout
        let fp = Fingerprint::of_cube(&original);
        prop_assert_eq!(fp, Fingerprint::of_cube(&cow));
        prop_assert_eq!(fp, Fingerprint::of_cube(&deep));
        // and hashing the clone did not disturb the original
        prop_assert_eq!(fp, Fingerprint::of_cube(&original));
    }

    /// Which allocations back the strings is irrelevant: rebuilding every
    /// key with independently allocated `Arc<str>` values (a different
    /// "interner pool") leaves the fingerprint unchanged.
    #[test]
    fn fingerprint_is_interner_pool_stable(seed in 0u64..10_000) {
        let entries = random_entries(seed);
        let realloc: Vec<(Vec<DimValue>, f64)> = entries
            .iter()
            .map(|(k, v)| {
                let k = k
                    .iter()
                    .map(|d| match d {
                        DimValue::Str(s) => DimValue::Str(String::from(&**s).into()),
                        other => other.clone(),
                    })
                    .collect();
                (k, *v)
            })
            .collect();
        prop_assert_eq!(
            Fingerprint::of_cube(&cube_of(&entries)),
            Fingerprint::of_cube(&cube_of(&realloc))
        );
    }

    /// Any single-entry change moves the fingerprint: a measure nudge, a
    /// sign flip on zero, a dropped row, or a moved key.
    #[test]
    fn fingerprint_sees_single_entry_changes(seed in 0u64..10_000, idx in 0usize..64) {
        let entries = random_entries(seed);
        let base = Fingerprint::of_cube(&cube_of(&entries));
        let i = idx % entries.len();

        let mut nudged = entries.clone();
        nudged[i].1 += 1.0;
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&nudged)), "value nudge unseen");

        let mut signed = entries.clone();
        signed[i].1 = if signed[i].1 == 0.0 { -0.0 } else { -signed[i].1 };
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&signed)), "sign flip unseen");

        let mut dropped = entries.clone();
        dropped.remove(i);
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&dropped)), "dropped row unseen");

        let mut moved = entries.clone();
        moved[i].0.push(DimValue::Int(999));
        prop_assert!(base != Fingerprint::of_cube(&cube_of(&moved)), "moved key unseen");
    }
}
