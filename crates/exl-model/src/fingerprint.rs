//! Content fingerprints for cubes and derivation steps.
//!
//! The incremental recomputation layer keys its cache on *what a cube
//! contains*, not on where it lives: two cubes with the same tuples must
//! produce the same [`Fingerprint`] whether they were built in different
//! insertion orders, deep-copied, or shared through the copy-on-write
//! `Arc` of [`CubeData`]. Likewise a fingerprint must not depend on any
//! interner pool's symbol assignment, so hashing goes through the
//! resolved [`DimValue`]s (strings hash by contents).
//!
//! Two combination modes cover the two kinds of identity the cache needs:
//!
//! * [`Fingerprint::of_cube`] folds one 128-bit lane pair per entry with a
//!   *commutative* combine (wrapping addition of avalanche-mixed per-entry
//!   hashes), so hash-map iteration order — which varies with insertion
//!   history — cannot leak into the digest;
//! * [`FingerprintBuilder`] chains parts *in order* (a derivation step is
//!   `lhs := expr` over a specific input list — swapping inputs must change
//!   the key), producing the statement and cache-key fingerprints.
//!
//! Because the cube fold is a wrapping sum, it is also *invertible per
//! entry*: [`CubeDigest`] exposes the two lane sums and the entry count
//! behind [`Fingerprint::of_cube`], and a [`CubeDelta`] (the entries one
//! version of a cube changed against another) moves a digest exactly —
//! subtract each removed or overwritten entry, add each new one. The run
//! cache uses this to fingerprint a revised cube from its predecessor's
//! digest in O(changed rows) instead of rehashing every row.
//!
//! Fingerprints are 128 bits (two independently mixed 64-bit lanes) so
//! that accidental collisions are out of reach for any realistic cache
//! population, while staying cheap to compare, copy, and render as a
//! 32-character hex file name for the on-disk store.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::cube::{CubeData, DimTuple};
use crate::hash::FxHasher;
use crate::value::DimValue;

/// Lane-separation constants: arbitrary odd 64-bit values XORed into the
/// raw entry hash before mixing, so the two lanes of a [`Fingerprint`]
/// are decorrelated functions of the same input.
const LANE_HI: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_LO: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// splitmix64 finalizer: a full-avalanche bijection on `u64`. Applied to
/// every per-entry hash before the commutative fold so that low-entropy
/// inputs (small ints, short strings) cannot cancel under addition.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic 64-bit content hash of any `Hash` value.
#[inline]
fn fx64<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// A 128-bit content fingerprint (two independently mixed lanes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// High lane.
    pub hi: u64,
    /// Low lane.
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint of "nothing": empty cube, empty byte string.
    pub const EMPTY: Fingerprint = Fingerprint { hi: 0, lo: 0 };

    /// Fingerprint of a byte string (statement text, version headers).
    pub fn of_bytes(bytes: &[u8]) -> Fingerprint {
        let raw = fx64(bytes);
        Fingerprint {
            hi: mix(raw ^ LANE_HI),
            lo: mix(raw ^ LANE_LO),
        }
    }

    /// Fingerprint of a string's UTF-8 bytes.
    pub fn of_str(s: &str) -> Fingerprint {
        Fingerprint::of_bytes(s.as_bytes())
    }

    /// Content fingerprint of one cube entry, given the measure's bit
    /// pattern: the cache promises *bit-identical* replay, so `-0.0` and
    /// `+0.0` are distinct here even though the egd check collapses them.
    fn of_entry(key: &[DimValue], bits: u64) -> (u64, u64) {
        let raw = fx64(&(key, bits));
        (mix(raw ^ LANE_HI), mix(raw ^ LANE_LO))
    }

    /// Order-independent content fingerprint of a cube: per-entry mixed
    /// hashes combined with wrapping addition (commutative and
    /// associative, so any iteration order of the underlying hash map
    /// yields the same digest), with the entry count folded in at the
    /// end. Clones — CoW `Arc` shares and deep copies alike — fingerprint
    /// identically because only `(tuple, bits)` content is hashed.
    pub fn of_cube(cube: &CubeData) -> Fingerprint {
        CubeDigest::of_cube(cube).fingerprint()
    }

    /// Render as 32 lowercase hex characters (`hi` then `lo`) — the
    /// on-disk cache file name format.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Fingerprint, String> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("invalid fingerprint {s:?}: want 32 hex chars"));
        }
        let hi = u64::from_str_radix(&s[..16], 16).map_err(|e| e.to_string())?;
        let lo = u64::from_str_radix(&s[16..], 16).map_err(|e| e.to_string())?;
        Ok(Fingerprint { hi, lo })
    }
}

impl serde::Serialize for Fingerprint {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.to_hex().serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for Fingerprint {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

/// The accumulators behind [`Fingerprint::of_cube`]: the wrapping sum of
/// every entry's two mixed lanes, and the entry count. A digest can be
/// moved entry by entry ([`CubeDigest::add`], [`CubeDigest::remove`],
/// [`CubeDigest::apply`]) and always finishes to the fingerprint that
/// `of_cube` computes over the cube it now describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CubeDigest {
    hi: u64,
    lo: u64,
    len: u64,
}

impl CubeDigest {
    /// Digest of a whole cube: one pass over its entries.
    pub fn of_cube(cube: &CubeData) -> CubeDigest {
        let mut d = CubeDigest::default();
        for (k, v) in cube.iter() {
            d.add(k, v.to_bits());
        }
        d
    }

    /// Fold in one entry (a key the cube did not hold).
    pub fn add(&mut self, key: &[DimValue], bits: u64) {
        let (eh, el) = Fingerprint::of_entry(key, bits);
        self.hi = self.hi.wrapping_add(eh);
        self.lo = self.lo.wrapping_add(el);
        self.len = self.len.wrapping_add(1);
    }

    /// Take out one entry the cube held with exactly these bits.
    pub fn remove(&mut self, key: &[DimValue], bits: u64) {
        let (eh, el) = Fingerprint::of_entry(key, bits);
        self.hi = self.hi.wrapping_sub(eh);
        self.lo = self.lo.wrapping_sub(el);
        self.len = self.len.wrapping_sub(1);
    }

    /// Move the digest of `delta`'s base version to the digest of the
    /// version `delta` leads to.
    pub fn apply(&mut self, delta: &CubeDelta) {
        for u in &delta.upserts {
            if let Some(old) = u.old {
                self.remove(&u.key, old);
            }
            self.add(&u.key, u.new);
        }
        for (k, old) in &delta.removed {
            self.remove(k, *old);
        }
    }

    /// Entries in the digested cube.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the digested cube is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cube fingerprint: the entry count folded into each lane sum.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            hi: mix(self.hi.wrapping_add(self.len) ^ LANE_HI),
            lo: mix(self.lo.wrapping_add(self.len) ^ LANE_LO),
        }
    }
}

/// One key a [`CubeDelta`] writes: inserted (`old` is `None`) or
/// overwritten with different bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Upsert {
    /// The dimension tuple.
    pub key: DimTuple,
    /// Measure bits in the base version, `None` when the key is new.
    pub old: Option<u64>,
    /// Measure bits in the new version (never equal to `old`).
    pub new: u64,
}

/// The change set between two versions of a cube: what turns the *base*
/// version (fingerprint [`CubeDelta::base`]) into the new one. Measures
/// are compared and carried by bit pattern, so `-0.0` against `+0.0` and
/// distinct NaN payloads are changes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CubeDelta {
    /// Fingerprint of the version this delta starts from.
    pub base: Fingerprint,
    /// Keys inserted or overwritten, with their old and new bits.
    pub upserts: Vec<Upsert>,
    /// Keys the new version no longer holds, with their old bits.
    pub removed: Vec<(DimTuple, u64)>,
}

impl CubeDelta {
    /// An empty change set over `base`.
    pub fn new(base: Fingerprint) -> CubeDelta {
        CubeDelta {
            base,
            ..CubeDelta::default()
        }
    }

    /// True when the two versions hold the same entries.
    pub fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removed.is_empty()
    }

    /// Number of changed keys.
    pub fn len(&self) -> usize {
        self.upserts.len() + self.removed.len()
    }

    /// Every changed key: upserted, then removed.
    pub fn keys(&self) -> impl Iterator<Item = &DimTuple> {
        self.upserts
            .iter()
            .map(|u| &u.key)
            .chain(self.removed.iter().map(|(k, _)| k))
    }

    /// Turn the base version into the new one.
    pub fn patch(&self, cube: &mut CubeData) {
        for (k, _) in &self.removed {
            cube.remove(k);
        }
        for u in &self.upserts {
            cube.insert_overwrite(u.key.clone(), f64::from_bits(u.new));
        }
    }
}

/// Order-*dependent* fingerprint accumulator for composite identities:
/// a canonicalized statement plus its target kind, or a cache key of
/// `(statement fp, input cube fps...)`. Each pushed part is chained into
/// both lanes through rotation + remix, so permuting parts changes the
/// result (unlike the commutative cube fold).
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hi: u64,
    lo: u64,
}

impl FingerprintBuilder {
    /// Start a chain seeded with a domain-separation label, so e.g.
    /// statement fingerprints and cache keys built from the same parts
    /// cannot collide.
    pub fn new(label: &str) -> FingerprintBuilder {
        let seed = Fingerprint::of_str(label);
        FingerprintBuilder {
            hi: seed.hi,
            lo: seed.lo,
        }
    }

    /// Chain one fingerprint part, in order.
    pub fn push(&mut self, fp: Fingerprint) -> &mut Self {
        self.hi = mix(self.hi.rotate_left(17) ^ fp.hi ^ LANE_HI);
        self.lo = mix(self.lo.rotate_left(19) ^ fp.lo ^ LANE_LO);
        self
    }

    /// Chain a string part (hashed by contents).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push(Fingerprint::of_str(s))
    }

    /// Chain a raw integer part (counts, versions).
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push(Fingerprint {
            hi: mix(v ^ LANE_HI),
            lo: mix(v ^ LANE_LO),
        })
    }

    /// Finish the chain.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint {
            hi: mix(self.hi ^ LANE_LO),
            lo: mix(self.lo ^ LANE_HI),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::DimTuple;
    use crate::time::TimePoint;

    fn entry(i: i64, r: &str, v: f64) -> (DimTuple, f64) {
        (vec![DimValue::Int(i), DimValue::str(r)], v)
    }

    #[test]
    fn cube_fingerprint_ignores_insertion_order() {
        let rows = vec![
            entry(1, "n", 1.5),
            entry(2, "n", -2.0),
            entry(3, "s", 0.25),
            entry(4, "w", 1e9),
        ];
        let fwd = CubeData::from_tuples(rows.clone()).unwrap();
        let rev = CubeData::from_tuples(rows.into_iter().rev()).unwrap();
        assert_eq!(Fingerprint::of_cube(&fwd), Fingerprint::of_cube(&rev));
    }

    #[test]
    fn cube_fingerprint_sees_any_change() {
        let base = CubeData::from_tuples(vec![entry(1, "n", 1.0), entry(2, "s", 2.0)]).unwrap();
        let fp = Fingerprint::of_cube(&base);

        let mut other_measure = base.clone();
        other_measure.insert_overwrite(vec![DimValue::Int(1), DimValue::str("n")], 1.0000001);
        assert_ne!(fp, Fingerprint::of_cube(&other_measure));

        let mut extra = base.clone();
        extra
            .insert(vec![DimValue::Int(9), DimValue::str("n")], 0.0)
            .unwrap();
        assert_ne!(fp, Fingerprint::of_cube(&extra));

        let other_key =
            CubeData::from_tuples(vec![entry(1, "m", 1.0), entry(2, "s", 2.0)]).unwrap();
        assert_ne!(fp, Fingerprint::of_cube(&other_key));
    }

    #[test]
    fn negative_zero_is_distinct() {
        let pos = CubeData::from_tuples(vec![entry(1, "n", 0.0)]).unwrap();
        let neg = CubeData::from_tuples(vec![entry(1, "n", -0.0)]).unwrap();
        assert_ne!(Fingerprint::of_cube(&pos), Fingerprint::of_cube(&neg));
    }

    #[test]
    fn empty_cube_is_stable_and_distinct_from_singleton() {
        assert_eq!(
            Fingerprint::of_cube(&CubeData::new()),
            Fingerprint::of_cube(&CubeData::new())
        );
        let one = CubeData::from_tuples(vec![(vec![DimValue::Int(0)], 0.0)]).unwrap();
        assert_ne!(
            Fingerprint::of_cube(&CubeData::new()),
            Fingerprint::of_cube(&one)
        );
    }

    #[test]
    fn time_values_discriminate() {
        let q1 = CubeData::from_tuples(vec![(
            vec![DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 1,
            })],
            1.0,
        )])
        .unwrap();
        let q2 = CubeData::from_tuples(vec![(
            vec![DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 2,
            })],
            1.0,
        )])
        .unwrap();
        assert_ne!(Fingerprint::of_cube(&q1), Fingerprint::of_cube(&q2));
    }

    #[test]
    fn hex_round_trip() {
        let fp = Fingerprint::of_str("GDP := RGDP * PQR;");
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex.parse::<Fingerprint>().unwrap(), fp);
        assert!("xyz".parse::<Fingerprint>().is_err());
        assert!("g".repeat(32).parse::<Fingerprint>().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let fp = Fingerprint::of_str("cache-key");
        let json = serde_json::to_string(&fp).unwrap();
        let back: Fingerprint = serde_json::from_str(&json).unwrap();
        assert_eq!(fp, back);
    }

    #[test]
    fn builder_is_order_sensitive() {
        let a = Fingerprint::of_str("a");
        let b = Fingerprint::of_str("b");
        let ab = {
            let mut h = FingerprintBuilder::new("k");
            h.push(a).push(b);
            h.finish()
        };
        let ba = {
            let mut h = FingerprintBuilder::new("k");
            h.push(b).push(a);
            h.finish()
        };
        assert_ne!(ab, ba);
        // and label-separated
        let ab2 = {
            let mut h = FingerprintBuilder::new("other");
            h.push(a).push(b);
            h.finish()
        };
        assert_ne!(ab, ab2);
    }

    #[test]
    fn builder_push_variants_discriminate() {
        let mut h1 = FingerprintBuilder::new("k");
        h1.push_str("x").push_u64(1);
        let mut h2 = FingerprintBuilder::new("k");
        h2.push_str("x").push_u64(2);
        assert_ne!(h1.finish(), h2.finish());
    }
}
