//! Property tests for the SQL executor: the hash-join and grouping paths
//! must agree with brute-force reference computations on random data.

use exl_obs::Span;
use exl_sqlengine::{Engine, SqlValue};
use proptest::prelude::*;

fn load(engine: &mut Engine, table: &str, rows: &[(i64, f64)]) {
    engine
        .execute_script(&format!("CREATE TABLE {table} (K BIGINT, V DOUBLE)"))
        .unwrap();
    if rows.is_empty() {
        return;
    }
    let values: Vec<String> = rows.iter().map(|(k, v)| format!("({k}, {v})")).collect();
    engine
        .execute_script(&format!(
            "INSERT INTO {table} (K, V) VALUES {}",
            values.join(", ")
        ))
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equi-join equals the brute-force nested-loop product.
    #[test]
    fn hash_join_equals_nested_loop(
        left in proptest::collection::vec((0i64..20, -100.0f64..100.0), 0..40),
        right in proptest::collection::vec((0i64..20, -100.0f64..100.0), 0..40),
    ) {
        let mut e = Engine::new();
        load(&mut e, "L", &left);
        load(&mut e, "R", &right);
        let t = e
            .execute("SELECT L.K, L.V + R.V AS S FROM L, R WHERE L.K = R.K ORDER BY K, S", &Span::disabled())
            .unwrap()
            .unwrap();

        // brute force
        let mut expected: Vec<(i64, f64)> = Vec::new();
        for (lk, lv) in &left {
            for (rk, rv) in &right {
                if lk == rk {
                    expected.push((*lk, lv + rv));
                }
            }
        }
        expected.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));

        prop_assert_eq!(t.len(), expected.len());
        for (row, (k, s)) in t.rows.iter().zip(&expected) {
            prop_assert_eq!(row[0].as_f64(), Some(*k as f64));
            let got = row[1].as_f64().unwrap();
            prop_assert!((got - s).abs() <= 1e-9 * (1.0 + s.abs()));
        }
    }

    /// GROUP BY SUM equals a hand-rolled fold; COUNT counts.
    #[test]
    fn group_by_equals_fold(rows in proptest::collection::vec((0i64..10, -100.0f64..100.0), 0..60)) {
        let mut e = Engine::new();
        load(&mut e, "T", &rows);
        let t = e
            .execute("SELECT K, SUM(V) AS S, COUNT(V) AS C FROM T GROUP BY K ORDER BY K", &Span::disabled())
            .unwrap()
            .unwrap();
        let mut sums: std::collections::BTreeMap<i64, (f64, usize)> = Default::default();
        for (k, v) in &rows {
            let e = sums.entry(*k).or_insert((0.0, 0));
            e.0 += v;
            e.1 += 1;
        }
        prop_assert_eq!(t.len(), sums.len());
        for (row, (k, (s, c))) in t.rows.iter().zip(&sums) {
            prop_assert_eq!(row[0].clone(), SqlValue::Int(*k));
            let got = row[1].as_f64().unwrap();
            prop_assert!((got - s).abs() <= 1e-9 * (1.0 + s.abs()));
            prop_assert_eq!(row[2].as_f64(), Some(*c as f64));
        }
    }

    /// WHERE with a residual (non-equi) predicate filters exactly.
    #[test]
    fn residual_predicates_filter_exactly(rows in proptest::collection::vec((0i64..50, -100.0f64..100.0), 0..60), cut in -100.0f64..100.0) {
        let mut e = Engine::new();
        load(&mut e, "T", &rows);
        let t = e
            .execute(&format!("SELECT K, V FROM T WHERE V > {cut}"), &Span::disabled())
            .unwrap()
            .unwrap();
        let expected = rows.iter().filter(|(_, v)| *v > cut).count();
        prop_assert_eq!(t.len(), expected);
    }

    /// A view is indistinguishable from the equivalent inline query.
    #[test]
    fn view_equals_inline_query(rows in proptest::collection::vec((0i64..20, -100.0f64..100.0), 0..40)) {
        let mut e = Engine::new();
        load(&mut e, "T", &rows);
        e.execute_script("CREATE VIEW W AS SELECT K, V * 2 AS V FROM T").unwrap();
        let via_view = e.execute("SELECT K, V FROM W ORDER BY K, V", &Span::disabled()).unwrap().unwrap();
        let inline = e
            .execute("SELECT K, V * 2 AS V FROM T ORDER BY K, V", &Span::disabled())
            .unwrap()
            .unwrap();
        prop_assert_eq!(via_view.rows, inline.rows);
    }
}
