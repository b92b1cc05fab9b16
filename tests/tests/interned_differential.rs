//! Differential coverage of the interned fast path: random `exl-workload`
//! programs are executed through the compiled, interned chase and through
//! the native evaluator's keyed kernels, and the two derived datasets
//! must agree. This is the safety net for the data-layer rewrite — the
//! chase runs on `DimPool`-interned columnar relations and the evaluator
//! on hash-grouped kernels, so any divergence in interning, hashing, or
//! fold order between the two shows up here as a reported diff.

use std::collections::BTreeMap;

use exl_chase::{chase, ChaseMode};
use exl_lang::analyze::AnalyzedProgram;
use exl_lang::ast::GroupKey;
use exl_map::generate::{generate_mapping, GenMode};
use exl_model::schema::Dimension;
use exl_model::time::{Date, Frequency, TimePoint};
use exl_model::value::{DimType, DimValue};
use exl_model::{CubeData, Dataset, DimTuple};
use exl_stats::descriptive::AggFn;
use exl_workload::{random_scenario, RandomConfig};
use proptest::prelude::*;

/// The derived cubes of a run, as their own dataset (inputs excluded, so
/// the comparison is exactly over what the program computed).
fn derived_only(analyzed: &AnalyzedProgram, full: &Dataset) -> Dataset {
    let mut out = Dataset::new();
    for id in analyzed.program.derived_ids() {
        if let Some(cube) = full.get(&id) {
            out.put(cube.clone());
        }
    }
    out
}

fn differential(cfg: RandomConfig) -> Result<(), String> {
    let (analyzed, input) = random_scenario(cfg);
    let reference = exl_eval::run_program(&analyzed, &input)
        .unwrap_or_else(|e| panic!("seed {}: eval failed: {e}", cfg.seed));
    let (mapping, re) = generate_mapping(&analyzed, GenMode::Fused)
        .unwrap_or_else(|e| panic!("seed {}: {e}", cfg.seed));
    let chased = chase(&mapping, &re.schemas, &input, ChaseMode::Stratified)
        .unwrap_or_else(|e| panic!("seed {}: chase failed: {e}", cfg.seed));

    let eval_side = derived_only(&analyzed, &reference);
    let chase_side = derived_only(&analyzed, &chased.solution);
    prop_assert!(
        chase_side.approx_eq_report(&eval_side, 1e-9).is_ok(),
        "seed {}: chase and evaluator disagree\nprogram:\n{}\n{}",
        cfg.seed,
        exl_lang::program_to_string(&analyzed.program),
        chase_side.approx_eq_report(&eval_side, 1e-9).unwrap_err()
    );

    // both backends are individually deterministic, bit for bit: a second
    // run over the same inputs reproduces the exact same floats
    let again = exl_eval::run_program(&analyzed, &input).unwrap();
    prop_assert!(derived_only(&analyzed, &again)
        .approx_eq_report(&eval_side, 0.0)
        .is_ok());
    Ok(())
}

/// Bit-level equality of two cube payloads: same keys, and every measure
/// identical down to its bit pattern (`PartialEq` on `f64` would let
/// `-0.0` and `+0.0` slip through).
fn assert_bit_identical(a: &CubeData, b: &CubeData, label: &str) -> Result<(), String> {
    prop_assert_eq!(a.len(), b.len(), "{}: cardinality differs", label);
    for (k, v) in a.iter_sorted() {
        let w = b.get(k);
        prop_assert!(
            w.map(f64::to_bits) == Some(v.to_bits()),
            "{}: {:?} -> {:?} vs {:?}",
            label,
            k,
            v,
            w
        );
    }
    Ok(())
}

/// The oracle the aggregation kernel must reproduce, sharing nothing with
/// it but `AggFn::apply`: each group's bag of `CubeData` rows, sorted by
/// `DimTuple`'s `Ord` (the sorted-map evaluator's fold order), folded in
/// that order; empty and non-finite results leave no tuple.
fn reference_aggregate(
    data: &CubeData,
    dims: &[Dimension],
    group_by: &[GroupKey],
    agg: AggFn,
) -> CubeData {
    let pos = |name: &str| dims.iter().position(|d| d.name == name).unwrap();
    let mut bags: BTreeMap<DimTuple, Vec<(DimTuple, f64)>> = BTreeMap::new();
    for (k, v) in data.iter() {
        let group: DimTuple = group_by
            .iter()
            .map(|g| match g {
                GroupKey::Dim(name) => k[pos(name)].clone(),
                GroupKey::TimeMap { target, dim, .. } => {
                    let t = k[pos(dim)].as_time().unwrap();
                    DimValue::Time(t.convert(*target).unwrap())
                }
            })
            .collect();
        bags.entry(group).or_default().push((k.clone(), v));
    }
    let mut out = CubeData::new();
    for (group, mut bag) in bags {
        bag.sort_by(|a, b| a.0.cmp(&b.0));
        let values: Vec<f64> = bag.iter().map(|(_, v)| *v).collect();
        if let Some(v) = agg.apply(&values).filter(|v| v.is_finite()) {
            out.insert_overwrite(group, v);
        }
    }
    out
}

/// Aggregation determinism: the kernel must be bit-identical to the
/// sorted-bag reference for every aggregation function and any partition
/// count (1, 2, the machine's core count, and an awkward 17), for plain,
/// coarsening, and collapsed group-bys alike, on both sides of its path
/// rule. Three operand shapes: a quarterly (text, time) cube grouped to
/// years; the paper's GDP shape, a daily (time, text) cube grouped by
/// `quarter(d)` and by `month(d)`; and a sparse (int, int, int) cube whose
/// codes spread over ±2^40. The first two have small code ranges, so
/// their group ids are dense; the sparse one's ranges dwarf any row count
/// as soon as two rows differ in a key column, so its groups are numbered
/// by hashing, and its sort codes take more than 64 bits unless the
/// group key passes two of its dimensions through.
fn merge_determinism(rows: Vec<(usize, usize, f64)>) -> Result<(), String> {
    let quarterly_dims = vec![
        Dimension::new("r", DimType::Str),
        Dimension::new("d", DimType::Time(Frequency::Quarterly)),
    ];
    let daily_dims = vec![
        Dimension::new("d", DimType::Time(Frequency::Daily)),
        Dimension::new("r", DimType::Str),
    ];
    let sparse_dims = vec![
        Dimension::new("k", DimType::Int),
        Dimension::new("t", DimType::Int),
        Dimension::new("u", DimType::Int),
    ];
    let mut quarterly = CubeData::new();
    let mut daily = CubeData::new();
    let mut sparse = CubeData::new();
    for (r, t, v) in rows {
        // k over ±2^40, t and u over ±2^39 and ±2^41
        let k = (r as i64 - 3) * 366_503_875_925;
        let t_int = (t as i64 - 12) * 45_812_984_491;
        let u = (t as i64 * 7 - 80) * 27_487_790_694;
        sparse.insert_overwrite(
            vec![DimValue::Int(k), DimValue::Int(t_int), DimValue::Int(u)],
            v,
        );
        let region = DimValue::Str(format!("r{r}").into());
        let quarter = TimePoint::Quarter {
            year: 2000 + (t / 4) as i32,
            quarter: (t % 4) as u32 + 1,
        };
        quarterly.insert_overwrite(vec![region.clone(), DimValue::Time(quarter)], v);
        // 17-day steps from 2000-01-01 spread 24 steps over five quarters
        let day = TimePoint::Day(Date::from_epoch_days(10_957 + 17 * t as i32));
        daily.insert_overwrite(vec![DimValue::Time(day), region], v);
    }
    let to = |target: Frequency, alias: &str| GroupKey::TimeMap {
        target,
        dim: "d".into(),
        alias: alias.into(),
    };
    let r = || GroupKey::Dim("r".into());
    let dim = |name: &str| GroupKey::Dim(name.into());
    let cases: [(&CubeData, &[Dimension], Vec<GroupKey>); 8] = [
        (&quarterly, &quarterly_dims, vec![r()]),
        (
            &quarterly,
            &quarterly_dims,
            vec![to(Frequency::Yearly, "year")],
        ),
        (
            &quarterly,
            &quarterly_dims,
            vec![r(), to(Frequency::Yearly, "year")],
        ),
        (
            &daily,
            &daily_dims,
            vec![to(Frequency::Quarterly, "q"), r()],
        ),
        (&daily, &daily_dims, vec![to(Frequency::Monthly, "m")]),
        (&sparse, &sparse_dims, vec![dim("k")]),
        (&sparse, &sparse_dims, vec![dim("t")]),
        (&sparse, &sparse_dims, vec![dim("k"), dim("t")]),
    ];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (data, dims, group_by) in &cases {
        for agg in AggFn::ALL {
            let reference = reference_aggregate(data, dims, group_by, agg);
            for partitions in [1, 2, nproc, 17] {
                let got = exl_eval::aggregate_data(data, dims, group_by, agg, partitions)
                    .map_err(|e| format!("{agg:?}/{partitions}: {e}"))?;
                assert_bit_identical(
                    &reference,
                    &got,
                    &format!("{agg:?} x {partitions} partitions, group by {group_by:?}"),
                )?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-menu random programs (aggregations, frequency maps, series
    /// operators) at the default panel scale.
    #[test]
    fn interned_chase_matches_native_eval(seed in 0u64..10_000, statements in 3usize..10) {
        differential(RandomConfig {
            seed,
            statements,
            multituple: true,
            ..RandomConfig::default()
        })?;
    }

    /// Wider panels: more regions and quarters push group-bys and joins
    /// across larger key spaces (more interned symbols, deeper buckets).
    #[test]
    fn interned_chase_matches_native_eval_wide(seed in 0u64..10_000) {
        differential(RandomConfig {
            seed,
            statements: 6,
            regions: 9,
            quarters: 28,
            multituple: true,
        })?;
    }

    /// The aggregation kernel is bit-identical to the sorted-bag reference
    /// for every aggregation function and any partition count.
    #[test]
    fn fold_then_merge_is_bit_identical_for_any_partition_count(
        rows in proptest::collection::vec(
            (0usize..7, 0usize..24, -1e6f64..1e6),
            1..200,
        )
    ) {
        merge_determinism(rows)?;
    }
}
