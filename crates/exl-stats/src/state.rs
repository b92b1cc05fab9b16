//! Mergeable aggregation state machines.
//!
//! Gray et al.'s data-cube paper classifies aggregates by how they
//! distribute over partitions: *distributive* aggregates (count, min,
//! max, sum) can be computed per-partition and combined, *algebraic*
//! ones (average, variance) combine through a fixed-size intermediate
//! state. This module casts every [`AggFn`] as such a state machine —
//! [`AggState`]: `init`/`accumulate`/`merge`/`finish` — so partitioned
//! workers fold local states over their rows and a single merge pass, in
//! a fixed canonical order, produces the group's result.
//!
//! The engine's contract is stronger than Gray et al.'s: results must be
//! **bit-identical** to the sequential fold [`AggFn::apply`] performs on
//! the group's bag in canonical order, because goldens, `exlc` output,
//! and the incremental run cache all compare floats by their bits.
//! Floating-point addition is not associative, so a sum recombined from
//! partial sums moves low bits whenever the partition count changes.
//! [`ExactState`] therefore splits the menu:
//!
//! * `count` keeps a single integer — exactly mergeable in any order;
//! * `min`/`max` keep one running extremum — mergeable, with the one
//!   caveat that IEEE `min`/`max` may pick either operand of a
//!   `-0.0`/`+0.0` tie, so callers that must be bit-stable across
//!   *reorderings* treat them as order-sensitive (see
//!   [`ExactState::order_sensitive`]);
//! * everything else retains its value bag in accumulation order, merge
//!   concatenates (canonical order: ascending partition index), and
//!   `finish` replays `AggFn::apply` on the concatenated sequence — so
//!   `finish(merge(s₀, s₁, …))` is bit-identical to the single-threaded
//!   fold for *every* partitioning of the same canonical sequence.

use crate::descriptive::AggFn;

/// A mergeable aggregation state machine: fold values in with
/// [`AggState::accumulate`], combine partitioned states with
/// [`AggState::merge`] (in the caller's canonical partition order), and
/// read the aggregate off with [`AggState::finish`].
pub trait AggState: Sized {
    /// Fold one value into the state.
    fn accumulate(&mut self, v: f64);
    /// Absorb the state of the *next* partition in canonical order.
    fn merge(&mut self, next: Self);
    /// The aggregate of everything accumulated, `None` for the empty bag
    /// (the paper's §3 semantics: no tuple for an empty `V`).
    fn finish(&self) -> Option<f64>;
}

/// The bit-exact state machine behind [`AggFn`]: for any sequence of
/// `accumulate` calls distributed over partitions and merged back in
/// partition order, `finish` returns exactly what [`AggFn::apply`] would
/// on the whole sequence — bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub enum ExactState {
    /// Bag size only — O(1), mergeable in any order.
    Count(u64),
    /// Running minimum (`f64::min` fold) and bag size — O(1).
    Min {
        /// Values folded so far.
        n: u64,
        /// `f64::min` of the values folded so far.
        acc: f64,
    },
    /// Running maximum (`f64::max` fold) and bag size — O(1).
    Max {
        /// Values folded so far.
        n: u64,
        /// `f64::max` of the values folded so far.
        acc: f64,
    },
    /// Order-sensitive aggregations retain the bag in accumulation
    /// order; `finish` replays the canonical sequential fold.
    Bag {
        /// Which fold to replay.
        agg: AggFn,
        /// The bag, in accumulation (= canonical) order.
        values: Vec<f64>,
    },
}

impl ExactState {
    /// Fresh state for one aggregation function.
    pub fn init(agg: AggFn) -> ExactState {
        match agg {
            AggFn::Count => ExactState::Count(0),
            AggFn::Min => ExactState::Min {
                n: 0,
                acc: f64::INFINITY,
            },
            AggFn::Max => ExactState::Max {
                n: 0,
                acc: f64::NEG_INFINITY,
            },
            agg => ExactState::Bag {
                agg,
                values: Vec::new(),
            },
        }
    }

    /// True when `AggFn::apply` on a *reordered* bag can differ at the
    /// bits level, i.e. the caller must accumulate in canonical order.
    /// `count` is the only aggregation that is order-free outright;
    /// `min`/`max` are excluded because IEEE `min`/`max` may return
    /// either operand of a `-0.0`/`+0.0` tie, which reorderings can flip.
    pub fn order_sensitive(agg: AggFn) -> bool {
        !matches!(agg, AggFn::Count)
    }

    /// True when the state is O(1) regardless of bag size (Gray et al.'s
    /// distributive aggregates minus the order-sensitive `sum`).
    pub fn constant_size(agg: AggFn) -> bool {
        matches!(agg, AggFn::Count | AggFn::Min | AggFn::Max)
    }
}

impl AggState for ExactState {
    fn accumulate(&mut self, v: f64) {
        match self {
            ExactState::Count(n) => *n += 1,
            ExactState::Min { n, acc } => {
                *n += 1;
                *acc = acc.min(v);
            }
            ExactState::Max { n, acc } => {
                *n += 1;
                *acc = acc.max(v);
            }
            ExactState::Bag { values, .. } => values.push(v),
        }
    }

    fn merge(&mut self, next: Self) {
        match (self, next) {
            (ExactState::Count(a), ExactState::Count(b)) => *a += b,
            (ExactState::Min { n, acc }, ExactState::Min { n: m, acc: b }) => {
                *n += m;
                *acc = acc.min(b);
            }
            (ExactState::Max { n, acc }, ExactState::Max { n: m, acc: b }) => {
                *n += m;
                *acc = acc.max(b);
            }
            (
                ExactState::Bag { agg, values },
                ExactState::Bag {
                    agg: b,
                    values: mut tail,
                },
            ) => {
                debug_assert_eq!(*agg, b, "merging states of different aggregations");
                values.append(&mut tail);
            }
            _ => unreachable!("merging states of different aggregations"),
        }
    }

    fn finish(&self) -> Option<f64> {
        match self {
            ExactState::Count(0) => None,
            ExactState::Count(n) => Some(*n as f64),
            ExactState::Min { n: 0, .. } | ExactState::Max { n: 0, .. } => None,
            ExactState::Min { acc, .. } | ExactState::Max { acc, .. } => Some(*acc),
            ExactState::Bag { agg, values } => agg.apply(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: [f64; 9] = [3.25, 1.5, 4.125, 1.0, 5.75, 9.5, 2.625, 6.0, 5.375];

    fn fold(agg: AggFn, values: &[f64]) -> ExactState {
        let mut st = ExactState::init(agg);
        for &v in values {
            st.accumulate(v);
        }
        st
    }

    #[test]
    fn finish_matches_apply_bitwise() {
        for agg in AggFn::ALL {
            let a = fold(agg, &V).finish();
            let b = agg.apply(&V);
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits), "{agg}");
        }
    }

    #[test]
    fn empty_state_finishes_to_none() {
        for agg in AggFn::ALL {
            assert_eq!(ExactState::init(agg).finish(), None, "{agg}");
        }
    }

    #[test]
    fn any_partitioning_merges_to_the_sequential_fold() {
        // every way to cut V into 1..4 ordered runs must reproduce the
        // single-threaded fold bit for bit
        let cuts: &[&[usize]] = &[
            &[9],
            &[1, 8],
            &[4, 5],
            &[8, 1],
            &[3, 3, 3],
            &[1, 1, 7],
            &[2, 3, 2, 2],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1],
        ];
        for agg in AggFn::ALL {
            let reference = fold(agg, &V).finish().map(f64::to_bits);
            for cut in cuts {
                let mut at = 0usize;
                let mut merged: Option<ExactState> = None;
                for &len in *cut {
                    let part = fold(agg, &V[at..at + len]);
                    at += len;
                    match merged.as_mut() {
                        Some(m) => m.merge(part),
                        None => merged = Some(part),
                    }
                }
                assert_eq!(at, V.len());
                let got = merged.unwrap().finish().map(f64::to_bits);
                assert_eq!(got, reference, "{agg} under cut {cut:?}");
            }
        }
    }

    #[test]
    fn distributive_states_are_constant_size() {
        for agg in [AggFn::Count, AggFn::Min, AggFn::Max] {
            assert!(ExactState::constant_size(agg));
            assert!(!matches!(ExactState::init(agg), ExactState::Bag { .. }));
        }
        for agg in [
            AggFn::Sum,
            AggFn::Avg,
            AggFn::Median,
            AggFn::StdDev,
            AggFn::Product,
        ] {
            assert!(!ExactState::constant_size(agg));
            assert!(ExactState::order_sensitive(agg));
        }
        assert!(!ExactState::order_sensitive(AggFn::Count));
    }

    #[test]
    fn singleton_states() {
        for agg in AggFn::ALL {
            let mut st = ExactState::init(agg);
            st.accumulate(7.5);
            assert_eq!(
                st.finish().map(f64::to_bits),
                agg.apply(&[7.5]).map(f64::to_bits),
                "{agg}"
            );
        }
    }
}
