//! # exl-sqlengine — an in-memory relational engine
//!
//! The DBMS substrate for the SQL target of §5.1. The paper delegates the
//! execution of generated SQL to an external DBMS; since the reproduction
//! must actually *run* that SQL, this crate implements the required subset
//! from scratch: a catalog of typed tables (with first-class temporal
//! columns at the four Matrix frequencies), a SQL parser, and an executor
//! with hash equi-joins, grouping/aggregation, scalar and temporal
//! functions, ORDER BY, and the *tabular functions* extension §5.1 uses for
//! black-box statistical operators (`SELECT Q, G FROM STL_TREND(GDP)`).
//!
//! NULL encodes "operator undefined here": arithmetic producing non-finite
//! values yields NULL, aggregates skip NULLs, and `INSERT … SELECT` drops
//! rows containing NULL — giving the same partiality semantics as the
//! reference interpreter.

#![warn(missing_docs)]

pub mod catalog;
pub mod error;
pub mod exec;
pub mod parser;
pub mod tablefn;
pub mod value;

pub use catalog::{Column, Database, Table};
pub use error::SqlError;
pub use exec::Engine;
pub use parser::{parse_script, parse_statement, parse_time_literal, SqlStmt};
pub use value::{SqlType, SqlValue};

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_with_rgdp_inputs() -> Engine {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE PQR (Q TIME_QUARTER, R VARCHAR, P DOUBLE);
            CREATE TABLE RGDPPC (Q TIME_QUARTER, R VARCHAR, G DOUBLE);
            CREATE TABLE RGDP (Q TIME_QUARTER, R VARCHAR, P DOUBLE);
            INSERT INTO PQR (Q, R, P) VALUES
                ('2020-Q1', 'north', 100), ('2020-Q1', 'south', 50),
                ('2020-Q2', 'north', 110);
            INSERT INTO RGDPPC (Q, R, G) VALUES
                ('2020-Q1', 'north', 30), ('2020-Q1', 'south', 20),
                ('2020-Q2', 'north', 31), ('2020-Q2', 'south', 21);
            "#,
        )
        .unwrap();
        e
    }

    /// The exact INSERT the paper shows for tgd (2) in §5.1.
    #[test]
    fn paper_tgd2_insert_select_join() {
        let mut e = engine_with_rgdp_inputs();
        e.execute_script(
            r#"
            INSERT INTO RGDP(Q,R,P)
            SELECT C2.Q AS Q, C2.R AS R, C1.P*C2.G AS P
            FROM PQR C1, RGDPPC C2
            WHERE C1.Q = C2.Q AND C1.R = C2.R
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT Q, R, P FROM RGDP ORDER BY Q, R")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 3); // 2020-Q2/south has no PQR row: inner join
        let rows = t.sorted_rows();
        assert_eq!(rows[0][2].as_f64(), Some(3000.0)); // north Q1: 100*30
        assert_eq!(rows[1][2].as_f64(), Some(1000.0)); // south Q1: 50*20
        assert_eq!(rows[2][2].as_f64(), Some(3410.0)); // north Q2: 110*31
    }

    /// The paper's GROUP BY translation for tgd (3).
    #[test]
    fn paper_tgd3_group_by_sum() {
        let mut e = engine_with_rgdp_inputs();
        e.execute_script(
            r#"
            INSERT INTO RGDP(Q,R,P)
            SELECT C2.Q AS Q, C2.R AS R, C1.P*C2.G AS P
            FROM PQR C1, RGDPPC C2
            WHERE C1.Q = C2.Q AND C1.R = C2.R;
            CREATE TABLE GDP (Q TIME_QUARTER, G DOUBLE);
            INSERT INTO GDP(Q, G)
            SELECT Q, SUM(P) AS G
            FROM RGDP
            GROUP BY Q;
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT Q, G FROM GDP ORDER BY Q")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows[0][1].as_f64(), Some(4000.0));
        assert_eq!(t.rows[1][1].as_f64(), Some(3410.0));
    }

    /// The paper's tabular-function translation for tgd (4).
    #[test]
    fn paper_tgd4_tabular_function() {
        let mut e = Engine::new();
        e.execute_script("CREATE TABLE GDP (Q TIME_QUARTER, G DOUBLE); CREATE TABLE GDPT (Q TIME_QUARTER, G DOUBLE);")
            .unwrap();
        for i in 0..12 {
            let (y, q) = (2018 + i / 4, i % 4 + 1);
            e.execute_script(&format!(
                "INSERT INTO GDP (Q, G) VALUES ('{y}-Q{q}', {})",
                100.0 + i as f64 * 2.0
            ))
            .unwrap();
        }
        e.execute_script("INSERT INTO GDPT(Q,G) SELECT Q, G FROM STL_TREND(GDP)")
            .unwrap();
        let t = e
            .execute("SELECT Q, G FROM GDPT ORDER BY Q")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 12);
        assert!(t.rows.iter().all(|r| r[1].as_f64().unwrap().is_finite()));
    }

    /// The paper's self-join-with-shift translation for tgd (5).
    #[test]
    fn paper_tgd5_self_join_with_time_arithmetic() {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE GDPT (Q TIME_QUARTER, G DOUBLE);
            CREATE TABLE PCHNG (Q TIME_QUARTER, P DOUBLE);
            INSERT INTO GDPT (Q, G) VALUES
                ('2020-Q1', 100), ('2020-Q2', 110), ('2020-Q3', 121);
            INSERT INTO PCHNG(Q,P)
            SELECT G1.Q AS Q, (G1.G - G2.G) * 100 / G1.G AS P
            FROM GDPT G1, GDPT G2
            WHERE G2.Q = G1.Q - 1
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT Q, P FROM PCHNG ORDER BY Q")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 2);
        let v1 = t.rows[0][1].as_f64().unwrap();
        let v2 = t.rows[1][1].as_f64().unwrap();
        assert!((v1 - 10.0 / 1.1).abs() < 1e-9, "{v1}");
        assert!((v2 - 11.0 / 1.21).abs() < 1e-9, "{v2}");
    }

    #[test]
    fn division_by_zero_row_dropped_on_insert() {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE A (K BIGINT, V DOUBLE);
            CREATE TABLE B (K BIGINT, V DOUBLE);
            CREATE TABLE C (K BIGINT, V DOUBLE);
            INSERT INTO A (K, V) VALUES (1, 1.0), (2, 4.0);
            INSERT INTO B (K, V) VALUES (1, 0.0), (2, 2.0);
            INSERT INTO C (K, V)
            SELECT A.K AS K, A.V / B.V AS V FROM A, B WHERE A.K = B.K
            "#,
        )
        .unwrap();
        let t = e.execute("SELECT K, V FROM C").unwrap().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][1].as_f64(), Some(2.0));
    }

    #[test]
    fn quarter_function_in_group_by() {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE PDR (D TIME_DAY, R VARCHAR, P DOUBLE);
            CREATE TABLE PQR (Q TIME_QUARTER, R VARCHAR, P DOUBLE);
            INSERT INTO PDR (D, R, P) VALUES
                ('2020-01-01', 'n', 10), ('2020-02-01', 'n', 20),
                ('2020-04-01', 'n', 99), ('2020-01-01', 's', 4);
            INSERT INTO PQR(Q, R, P)
            SELECT QUARTER(D) AS Q, R, AVG(P) AS P
            FROM PDR
            GROUP BY QUARTER(D), R
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT Q, R, P FROM PQR ORDER BY Q, R")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.rows[0][2].as_f64(), Some(15.0)); // n Q1
        assert_eq!(t.rows[1][2].as_f64(), Some(4.0)); // s Q1
        assert_eq!(t.rows[2][2].as_f64(), Some(99.0)); // n Q2
    }

    #[test]
    fn aggregate_functions_beyond_sql_basics() {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE T (K BIGINT, V DOUBLE);
            INSERT INTO T (K, V) VALUES (1, 1), (1, 2), (1, 3), (1, 4);
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT K, MEDIAN(V) AS M, STDDEV(V) AS S, COUNT(V) AS C, PRODUCT(V) AS P FROM T GROUP BY K")
            .unwrap()
            .unwrap();
        assert_eq!(t.rows[0][1].as_f64(), Some(2.5));
        let sd = t.rows[0][2].as_f64().unwrap();
        assert!((sd - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(t.rows[0][3].as_f64(), Some(4.0));
        assert_eq!(t.rows[0][4].as_f64(), Some(24.0));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let mut e = Engine::new();
        e.execute_script("CREATE TABLE T (V DOUBLE); INSERT INTO T (V) VALUES (1), (2), (3);")
            .unwrap();
        let t = e.execute("SELECT SUM(V) AS S FROM T").unwrap().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][0].as_f64(), Some(6.0));
        // ... and over an empty table: no rows at all (EXL bag semantics)
        let mut e2 = Engine::new();
        e2.execute_script("CREATE TABLE T (V DOUBLE);").unwrap();
        let t2 = e2.execute("SELECT SUM(V) AS S FROM T").unwrap().unwrap();
        assert_eq!(t2.len(), 0);
    }

    #[test]
    fn execution_errors() {
        let mut e = Engine::new();
        assert!(e.execute("SELECT X FROM NOPE").is_err());
        e.execute_script("CREATE TABLE T (A DOUBLE)").unwrap();
        assert!(e.execute("SELECT B FROM T").is_err());
        assert!(e.execute("CREATE TABLE T (A DOUBLE)").is_err());
        assert!(e.execute("DROP TABLE Z").is_err());
        assert!(e.execute("INSERT INTO T (Z) VALUES (1)").is_err());
        // aggregate mixed with a non-grouped column
        e.execute_script("INSERT INTO T (A) VALUES (1), (2)")
            .unwrap();
        assert!(e.execute("SELECT A, SUM(A) FROM T").is_err());
    }

    #[test]
    fn cross_join_without_predicate() {
        let mut e = Engine::new();
        e.execute_script(
            "CREATE TABLE A (X BIGINT); CREATE TABLE B (Y BIGINT);
             INSERT INTO A (X) VALUES (1), (2); INSERT INTO B (Y) VALUES (10), (20);",
        )
        .unwrap();
        let t = e
            .execute("SELECT X, Y FROM A, B ORDER BY X, Y")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn three_way_join() {
        let mut e = Engine::new();
        e.execute_script(
            r#"
            CREATE TABLE A (K BIGINT, V DOUBLE);
            CREATE TABLE B (K BIGINT, W DOUBLE);
            CREATE TABLE C (K BIGINT, U DOUBLE);
            INSERT INTO A (K, V) VALUES (1, 1), (2, 2);
            INSERT INTO B (K, W) VALUES (1, 10), (2, 20);
            INSERT INTO C (K, U) VALUES (1, 100), (3, 300);
            "#,
        )
        .unwrap();
        let t = e
            .execute("SELECT A.K, V + W + U AS S FROM A, B, C WHERE A.K = B.K AND B.K = C.K")
            .unwrap()
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows[0][1].as_f64(), Some(111.0));
    }

    #[test]
    fn views_expand_on_read() {
        let mut e = Engine::new();
        e.execute_script(
            "CREATE TABLE T (K BIGINT, V DOUBLE);
             INSERT INTO T (K, V) VALUES (1, 2.0), (2, 4.0);
             CREATE VIEW W AS SELECT K, V * 10 AS V FROM T;",
        )
        .unwrap();
        let t = e.execute("SELECT K, V FROM W ORDER BY K").unwrap().unwrap();
        assert_eq!(t.rows[0][1].as_f64(), Some(20.0));
        assert_eq!(t.rows[1][1].as_f64(), Some(40.0));
        // views see later inserts into their base table
        e.execute_script("INSERT INTO T (K, V) VALUES (3, 8.0)")
            .unwrap();
        let t = e.execute("SELECT K, V FROM W").unwrap().unwrap();
        assert_eq!(t.len(), 3);
        // name clash rejected
        assert!(e.execute("CREATE VIEW T AS SELECT K FROM T").is_err());
        assert!(e.execute("CREATE VIEW W AS SELECT K FROM T").is_err());
    }

    #[test]
    fn views_over_views_and_in_table_functions() {
        let mut e = Engine::new();
        e.execute_script("CREATE TABLE S (Q TIME_QUARTER, V DOUBLE);")
            .unwrap();
        for i in 0..8 {
            e.execute_script(&format!(
                "INSERT INTO S (Q, V) VALUES ('{}-Q{}', {})",
                2020 + i / 4,
                i % 4 + 1,
                10.0 + i as f64
            ))
            .unwrap();
        }
        e.execute_script(
            "CREATE VIEW D AS SELECT Q, V * 2 AS V FROM S;
             CREATE VIEW C AS SELECT Q, V FROM CUMSUM(D);",
        )
        .unwrap();
        let t = e.execute("SELECT Q, V FROM C ORDER BY Q").unwrap().unwrap();
        assert_eq!(t.len(), 8);
        assert_eq!(t.rows[0][1].as_f64(), Some(20.0));
        assert_eq!(t.rows[1][1].as_f64(), Some(42.0));
    }

    /// Two BIGINTs compare as `i64`: 2^53 + 1 is not 2^53, although both
    /// round to the same double.
    #[test]
    fn bigint_comparison_is_exact() {
        let mut e = Engine::new();
        e.execute_script(
            "CREATE TABLE A (K BIGINT, V DOUBLE); CREATE TABLE B (K BIGINT, W DOUBLE);
             INSERT INTO A (K, V) VALUES (9007199254740993, 1.0);
             INSERT INTO B (K, W) VALUES (9007199254740992, 2.0);",
        )
        .unwrap();
        assert_eq!(
            e.db.table("A").unwrap().rows[0][0],
            SqlValue::Int(9007199254740993)
        );
        // hash join, residual filter, and the comparison operators
        let joined = e
            .execute("SELECT A.K, V, W FROM A, B WHERE A.K = B.K")
            .unwrap()
            .unwrap();
        assert_eq!(joined.len(), 0);
        let filtered = e
            .execute("SELECT A.K, V, W FROM A, B WHERE A.K + 0 = B.K + 0 AND V < W")
            .unwrap()
            .unwrap();
        assert_eq!(filtered.len(), 0);
        for (op, want) in [("<>", 1), (">", 1), (">=", 1), ("<", 0), ("<=", 0)] {
            let t = e
                .execute(&format!("SELECT A.K FROM A, B WHERE A.K {op} B.K"))
                .unwrap()
                .unwrap();
            assert_eq!(t.len(), want, "A.K {op} B.K");
        }
        // grouping keeps the two keys apart too
        e.execute_script("INSERT INTO A (K, V) VALUES (9007199254740992, 3.0)")
            .unwrap();
        let g = e
            .execute("SELECT K, SUM(V) AS S FROM A GROUP BY K")
            .unwrap()
            .unwrap();
        assert_eq!(g.len(), 2);
        // an int against a double compares exact values as well
        assert!(!SqlValue::Int(9007199254740993).sql_eq(&SqlValue::Double(9007199254740992.0)));
        assert!(SqlValue::Int(-4).sql_eq(&SqlValue::Double(-4.0)));
        assert_eq!(
            SqlValue::Int(i64::MAX).total_cmp(&SqlValue::Double(9223372036854775808.0)),
            std::cmp::Ordering::Less
        );
    }

    /// A hash join keeps every pair `=` keeps: `-0.0 = 0.0`, so the hash
    /// join and the same predicate as a filter agree.
    #[test]
    fn hash_join_keys_agree_with_equality() {
        let mut e = Engine::new();
        e.execute_script(
            "CREATE TABLE A (K DOUBLE, V DOUBLE); CREATE TABLE B (K DOUBLE, W DOUBLE);
             INSERT INTO A (K, V) VALUES (0.0, 1.0), (2.0, 2.0);
             INSERT INTO B (K, W) VALUES (1.0, 10.0), (-1.0, 20.0), (3.0, 30.0);",
        )
        .unwrap();
        // A.K * -1 is -0.0 for K = 0.0; B.K - 1 is 0.0 for K = 1.0
        let hashed = e
            .execute("SELECT V, W FROM A, B WHERE A.K * -1 = B.K - 1 ORDER BY V, W")
            .unwrap()
            .unwrap();
        // the same predicate, kept out of the join by a second source-side term
        let filtered = e
            .execute("SELECT V, W FROM A, B WHERE A.K * -1 + 0 * B.K = B.K - 1 ORDER BY V, W")
            .unwrap()
            .unwrap();
        assert_eq!(hashed.rows, filtered.rows);
        let pairs: Vec<(f64, f64)> = hashed
            .rows
            .iter()
            .map(|r| (r[0].as_f64().unwrap(), r[1].as_f64().unwrap()))
            .collect();
        assert_eq!(pairs, vec![(1.0, 10.0), (2.0, 20.0)]);
        // an integral double and an int share a group, as `=` says
        e.execute_script(
            "CREATE TABLE M (K DOUBLE, V DOUBLE); INSERT INTO M (K, V) VALUES (-0.0, 1.0), (0.0, 2.0);",
        )
        .unwrap();
        let g = e
            .execute("SELECT K, SUM(V) AS S FROM M GROUP BY K")
            .unwrap()
            .unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.rows[0][1].as_f64(), Some(3.0));
    }

    #[test]
    fn drop_and_recreate() {
        let mut e = Engine::new();
        e.execute_script("CREATE TABLE T (A DOUBLE); DROP TABLE T; CREATE TABLE T (B DOUBLE);")
            .unwrap();
        assert!(e.db.table("T").unwrap().column_index("B").is_some());
    }
}
