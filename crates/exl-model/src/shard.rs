//! Shard-aware cube partitioning: split a cube's data by one dimension's
//! hash, and concatenate disjoint shard results back together.
//!
//! The sharded dispatcher (exl-engine) partitions every aligned input of a
//! native subgraph into `n` shards by hashing a single dimension value, runs
//! one subgraph instance per shard, and concatenates the per-shard outputs.
//! Two properties make that safe:
//!
//! * **Determinism** — [`shard_of`] hashes the [`DimValue`] with the
//!   workspace's deterministic Fx hasher, so a given value lands on the same
//!   shard in every process on every platform. Cache entries keyed per shard
//!   stay valid across runs.
//! * **Disjointness** — a row belongs to exactly one shard, so
//!   [`concat_data`] never merges two measures for one point; shard outputs
//!   concatenate without any float arithmetic, and the hash-stored
//!   [`CubeData`] makes the result independent of concatenation order.

use std::hash::{Hash, Hasher};

use crate::cube::CubeData;
use crate::hash::FxHasher;
use crate::value::DimValue;

/// The shard a dimension value belongs to, out of `shards`. Deterministic
/// across processes and platforms (Fx hash of the value's content); `shards`
/// of zero or one always maps to shard 0.
pub fn shard_of(value: &DimValue, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h = FxHasher::default();
    value.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Split a cube's data into `shards` disjoint parts by hashing the
/// dimension at `dim_idx` of every key. Rows keep their exact measures;
/// the union of the parts is the input.
pub fn split_data(data: &CubeData, dim_idx: usize, shards: usize) -> Vec<CubeData> {
    let n = shards.max(1);
    // one allocation per part: cloning a template would share one map
    // and make every part's first insert a copy-on-write copy
    let mut parts: Vec<CubeData> = (0..n)
        .map(|_| CubeData::with_capacity(data.len() / n + 1))
        .collect();
    for (key, value) in data.iter() {
        let s = shard_of(&key[dim_idx], n);
        parts[s].insert_overwrite(key.clone(), value);
    }
    parts
}

/// Concatenate disjoint shard outputs back into one cube. The parts come
/// from [`split_data`]-partitioned inputs, so their domains never overlap;
/// a duplicate point (a sharding bug) would silently keep the last value,
/// which the shard-invariance differential suite would surface as a row
/// count mismatch against the unsharded run.
///
/// The result is one map sized once for every part. A part nobody else
/// holds gives up its entries; a part still shared (the run cache keeps
/// per-shard outputs) is read and left unchanged.
pub fn concat_data<I>(parts: I) -> CubeData
where
    I: IntoIterator<Item = CubeData>,
{
    let parts: Vec<CubeData> = parts.into_iter().collect();
    let mut out = CubeData::with_capacity(parts.iter().map(CubeData::len).sum());
    for part in parts {
        out.absorb(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimePoint;

    fn key(q: u32, r: &str) -> Vec<DimValue> {
        vec![
            DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: q,
            }),
            DimValue::str(r),
        ]
    }

    fn sample() -> CubeData {
        let mut d = CubeData::new();
        for q in 1..=4 {
            for r in ["north", "south", "east", "west", "centre"] {
                d.insert_overwrite(key(q, r), (q as f64) + r.len() as f64);
            }
        }
        d
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 4, 8] {
            for r in ["north", "south", "zz0001"] {
                let v = DimValue::str(r);
                let s = shard_of(&v, n);
                assert!(s < n.max(1));
                assert_eq!(s, shard_of(&v, n));
            }
        }
        assert_eq!(shard_of(&DimValue::Int(7), 1), 0);
        assert_eq!(shard_of(&DimValue::Int(7), 0), 0);
    }

    #[test]
    fn split_partitions_and_concat_round_trips() {
        let data = sample();
        for n in [1usize, 2, 4, 8] {
            let parts = split_data(&data, 1, n);
            assert_eq!(parts.len(), n);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, data.len(), "split dropped or duplicated rows");
            // every row landed on the shard its region hashes to
            for (s, part) in parts.iter().enumerate() {
                for (k, _) in part.iter() {
                    assert_eq!(shard_of(&k[1], n), s);
                }
            }
            let back = concat_data(parts);
            assert_eq!(back, data);
        }
    }

    #[test]
    fn concat_of_shared_parts_leaves_them_unchanged() {
        let data = sample();
        let parts = split_data(&data, 1, 4);
        let snapshot: Vec<Vec<(Vec<DimValue>, f64)>> =
            parts.iter().map(CubeData::to_tuples).collect();
        let ptrs: Vec<usize> = parts.iter().map(CubeData::storage_ptr).collect();
        // the parts stay shared with `parts` while they are merged
        let merged = concat_data(parts.iter().cloned());
        assert_eq!(merged, data, "merge is not the union of its parts");
        for (i, part) in parts.iter().enumerate() {
            assert_eq!(part.to_tuples(), snapshot[i], "part {i} changed");
            assert_eq!(part.storage_ptr(), ptrs[i], "part {i} was reallocated");
            assert_ne!(part.storage_ptr(), merged.storage_ptr());
        }
        // owned parts merge to the same union
        assert_eq!(concat_data(parts), data);
    }

    #[test]
    fn split_gives_every_part_its_own_allocation() {
        // five regions over eight shards: some parts stay empty, and an
        // empty part would still share a cloned template's storage
        let parts = split_data(&sample(), 1, 8);
        assert!(parts.iter().any(CubeData::is_empty));
        let mut ptrs: Vec<usize> = parts.iter().map(CubeData::storage_ptr).collect();
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(ptrs.len(), parts.len(), "split parts share storage");
    }

    #[test]
    fn concat_of_nothing_is_empty() {
        assert!(concat_data(std::iter::empty::<CubeData>()).is_empty());
    }
}
