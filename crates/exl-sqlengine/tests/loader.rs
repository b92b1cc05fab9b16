//! Typed bulk load ≡ text load: `Table::from_cube` gives, row for row
//! and bit for bit, the table that running `exl_sqlgen::create_table_sql`
//! plus `exl_sqlgen::insert_data_sql` through the engine gives.
//!
//! Cubes are generated from a seed over every dimension type (BIGINT,
//! text, and time at all four frequencies) with awkward values: the
//! `i64` extremes and the integers next to 2^53, quotes and UTF-8 in
//! text, negative years, and measures that are `-0.0`, subnormal, near
//! `±f64::MAX` or long decimals.

use exl_model::schema::{CubeKind, CubeSchema, Dimension};
use exl_model::time::{Date, Frequency, TimePoint};
use exl_model::value::{DimType, DimValue};
use exl_model::{Cube, CubeData};
use exl_sqlengine::{Engine, SqlValue, Table};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const DIM_TYPES: [DimType; 6] = [
    DimType::Int,
    DimType::Str,
    DimType::Time(Frequency::Daily),
    DimType::Time(Frequency::Monthly),
    DimType::Time(Frequency::Quarterly),
    DimType::Time(Frequency::Yearly),
];

fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

fn dim_value(rng: &mut StdRng, ty: DimType) -> DimValue {
    let year = |rng: &mut StdRng| rng.gen_range(-9999i32..=9999);
    match ty {
        DimType::Int => {
            let edge = [
                i64::MIN,
                i64::MIN + 1,
                -(1 << 53) - 1,
                -1,
                0,
                1,
                (1 << 53) - 1,
                1 << 53,
                (1 << 53) + 1,
                i64::MAX,
            ];
            if rng.gen_bool(0.5) {
                DimValue::Int(pick(rng, &edge))
            } else {
                DimValue::Int(rng.next_u64() as i64)
            }
        }
        DimType::Str => DimValue::str(pick(
            rng,
            &[
                "",
                "north",
                "o'brien",
                "''",
                "Zürich",
                "東京",
                "tab\there",
                "line\nbreak",
                "-- not a comment",
                "a;b",
            ],
        )),
        DimType::Time(Frequency::Daily) => loop {
            let (y, m, d) = (
                year(rng),
                rng.gen_range(1u32..=12),
                rng.gen_range(1u32..=31),
            );
            if let Some(date) = Date::from_ymd(y, m, d) {
                break DimValue::Time(TimePoint::Day(date));
            }
        },
        DimType::Time(Frequency::Monthly) => {
            DimValue::Time(TimePoint::month(year(rng), rng.gen_range(1u32..=12)).unwrap())
        }
        DimType::Time(Frequency::Quarterly) => {
            DimValue::Time(TimePoint::quarter(year(rng), rng.gen_range(1u32..=4)).unwrap())
        }
        DimType::Time(Frequency::Yearly) => DimValue::Time(TimePoint::Year(year(rng))),
    }
}

fn measure(rng: &mut StdRng) -> f64 {
    let awkward = [
        -0.0,
        0.0,
        f64::from_bits(1),                      // smallest subnormal
        -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal, negated
        f64::MIN_POSITIVE,
        1e308,
        -1e308,
        f64::MAX,
        f64::MIN,
        0.1 + 0.2,
        1.0 / 3.0,
        -2.0 / 7.0,
        9007199254740993.0,
        1e16,
        -4.0,
    ];
    if rng.gen_bool(0.5) {
        pick(rng, &awkward)
    } else {
        loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        }
    }
}

fn random_cube(seed: u64) -> Cube {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<Dimension> = (0..rng.gen_range(1usize..=3))
        .map(|i| Dimension::new(format!("d{i}"), pick(&mut rng, &DIM_TYPES)))
        .collect();
    let types: Vec<DimType> = dims.iter().map(|d| d.ty).collect();
    let schema = CubeSchema::new("C", dims, CubeKind::Elementary).with_measure("m");
    let mut data = CubeData::new();
    for _ in 0..rng.gen_range(0usize..80) {
        let key: Vec<DimValue> = types.iter().map(|t| dim_value(&mut rng, *t)).collect();
        // a repeated key keeps its first measure
        if data.get(&key).is_none() {
            data.insert(key, measure(&mut rng)).unwrap();
        }
    }
    Cube::new(schema, data)
}

/// The table the SQL text load builds.
fn text_load(cube: &Cube, rows_per_stmt: usize) -> Table {
    let mut e = Engine::new();
    e.execute_script(&exl_sqlgen::create_table_sql(&cube.schema))
        .unwrap();
    for stmt in exl_sqlgen::insert_data_sql(cube, rows_per_stmt) {
        e.execute_script(&stmt).unwrap();
    }
    e.db.table(cube.schema.id.as_str()).unwrap().clone()
}

/// Value equality that tells `-0.0` from `0.0`.
fn same_bits(a: &SqlValue, b: &SqlValue) -> bool {
    match (a, b) {
        (SqlValue::Double(x), SqlValue::Double(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn typed_load_equals_text_load(seed in 0u64..1_000_000_000, rows_per_stmt in 1usize..300) {
        let cube = random_cube(seed);
        let typed = Table::from_cube(&cube);
        let text = text_load(&cube, rows_per_stmt);
        prop_assert_eq!(&typed.name, &text.name);
        prop_assert_eq!(&typed.columns, &text.columns);
        prop_assert_eq!(typed.len(), cube.data.len());
        prop_assert_eq!(typed.len(), text.len());
        for (i, (a, b)) in typed.rows.iter().zip(&text.rows).enumerate() {
            prop_assert!(
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_bits(x, y)),
                "seed {seed}, row {i}: typed {a:?} vs text {b:?}"
            );
        }
    }
}

/// The generator reaches every dimension type and the measures the text
/// path used to get wrong, so the property above is not vacuous.
#[test]
fn generator_covers_the_awkward_cases() {
    let (mut types, mut neg_zero, mut subnormal, mut big_int) = (Vec::new(), false, false, false);
    for seed in 0..200 {
        let cube = random_cube(seed);
        for d in &cube.schema.dims {
            if !types.contains(&d.ty) {
                types.push(d.ty);
            }
        }
        for (k, v) in cube.data.iter() {
            neg_zero |= v == 0.0 && v.is_sign_negative();
            subnormal |= v != 0.0 && v.abs() < f64::MIN_POSITIVE;
            big_int |= k
                .iter()
                .any(|d| matches!(d, DimValue::Int(i) if i.unsigned_abs() > 1 << 53));
        }
    }
    assert_eq!(types.len(), DIM_TYPES.len(), "{types:?}");
    assert!(neg_zero && subnormal && big_int);
}
