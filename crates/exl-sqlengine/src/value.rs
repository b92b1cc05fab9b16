//! SQL values and column types.
//!
//! The engine supports the types statistical cubes need: integers, double
//! precision floats, text, and *temporal* values at the four Matrix
//! frequencies (most DBMSs used for statistical warehouses expose similar
//! domain-specific temporal types via extensions; we make them first-class
//! so the generated SQL stays readable).

use std::cmp::Ordering;
use std::fmt;

use exl_model::time::{Frequency, TimePoint};
use exl_model::value::{DimType, DimValue};

/// A column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlType {
    /// 64-bit integer.
    Int,
    /// Double-precision float.
    Double,
    /// Text.
    Text,
    /// Temporal value at a frequency.
    Time(Frequency),
}

impl SqlType {
    /// SQL spelling used by `CREATE TABLE` (and accepted by the parser).
    pub fn sql_name(self) -> String {
        match self {
            SqlType::Int => "BIGINT".to_string(),
            SqlType::Double => "DOUBLE".to_string(),
            SqlType::Text => "VARCHAR".to_string(),
            SqlType::Time(f) => format!("TIME_{}", f.name().to_uppercase()),
        }
    }

    /// Parse a type name.
    pub fn parse(s: &str) -> Option<SqlType> {
        match s.to_uppercase().as_str() {
            "BIGINT" | "INT" | "INTEGER" => Some(SqlType::Int),
            "DOUBLE" | "FLOAT" | "REAL" => Some(SqlType::Double),
            "VARCHAR" | "TEXT" => Some(SqlType::Text),
            "TIME_DAY" => Some(SqlType::Time(Frequency::Daily)),
            "TIME_MONTH" => Some(SqlType::Time(Frequency::Monthly)),
            "TIME_QUARTER" => Some(SqlType::Time(Frequency::Quarterly)),
            "TIME_YEAR" => Some(SqlType::Time(Frequency::Yearly)),
            _ => None,
        }
    }

    /// The SQL type matching a cube dimension type.
    pub fn from_dim_type(t: DimType) -> SqlType {
        match t {
            DimType::Int => SqlType::Int,
            DimType::Str => SqlType::Text,
            DimType::Time(f) => SqlType::Time(f),
        }
    }
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.sql_name())
    }
}

/// A SQL value. `Null` arises from undefined arithmetic (division by zero
/// and friends), matching EXL's partial-operator semantics: inserts skip
/// rows whose measure is NULL.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    /// SQL NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float (always finite; non-finite results collapse to `Null`).
    Double(f64),
    /// Text.
    Text(String),
    /// Temporal value.
    Time(TimePoint),
}

impl SqlValue {
    /// Build a float value, mapping non-finite to `Null`.
    pub fn double(v: f64) -> SqlValue {
        if v.is_finite() {
            SqlValue::Double(v)
        } else {
            SqlValue::Null
        }
    }

    /// Numeric view (ints widen to floats); `None` for non-numeric/NULL.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            SqlValue::Int(i) => Some(*i as f64),
            SqlValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Time view.
    pub fn as_time(&self) -> Option<TimePoint> {
        match self {
            SqlValue::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, SqlValue::Null)
    }

    /// Convert a cube dimension value.
    pub fn from_dim(v: &DimValue) -> SqlValue {
        match v {
            DimValue::Int(i) => SqlValue::Int(*i),
            DimValue::Str(s) => SqlValue::Text(s.to_string()),
            DimValue::Time(t) => SqlValue::Time(*t),
        }
    }

    /// Convert back to a cube dimension value (measures use `as_f64`).
    pub fn to_dim(&self) -> Option<DimValue> {
        match self {
            SqlValue::Int(i) => Some(DimValue::Int(*i)),
            SqlValue::Text(s) => Some(DimValue::Str(s.as_str().into())),
            SqlValue::Time(t) => Some(DimValue::Time(*t)),
            _ => None,
        }
    }

    /// SQL literal syntax for this value (used by INSERT generation).
    pub fn to_literal(&self) -> String {
        match self {
            SqlValue::Null => "NULL".to_string(),
            SqlValue::Int(i) => i.to_string(),
            SqlValue::Double(d) => format!("{d:?}"),
            SqlValue::Text(s) => format!("'{}'", s.replace('\'', "''")),
            SqlValue::Time(t) => format!("'{t}'"),
        }
    }

    /// Total ordering for ORDER BY / GROUP BY keys: NULL first, then by
    /// variant, then by value.
    pub fn total_cmp(&self, other: &SqlValue) -> Ordering {
        fn rank(v: &SqlValue) -> u8 {
            match v {
                SqlValue::Null => 0,
                SqlValue::Int(_) => 1,
                SqlValue::Double(_) => 2,
                SqlValue::Text(_) => 3,
                SqlValue::Time(_) => 4,
            }
        }
        if let Some(ord) = self.num_cmp(other) {
            return ord;
        }
        match (self, other) {
            (SqlValue::Int(_) | SqlValue::Double(_), SqlValue::Int(_) | SqlValue::Double(_)) => {
                Ordering::Equal // a NaN operand
            }
            (SqlValue::Text(a), SqlValue::Text(b)) => a.cmp(b),
            (SqlValue::Time(a), SqlValue::Time(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// SQL equality (`=`): NULL never equals anything; ints and doubles
    /// compare by exact numeric value (see [`num_cmp`](SqlValue::num_cmp)).
    pub fn sql_eq(&self, other: &SqlValue) -> bool {
        if self.is_null() || other.is_null() {
            return false;
        }
        match self.num_cmp(other) {
            Some(ord) => ord == Ordering::Equal,
            None => self == other,
        }
    }

    /// Exact numeric comparison; `None` unless both values are numeric
    /// (and neither is NaN). Two ints compare as `i64` and two doubles as
    /// `f64`. A mixed pair compares the int's exact value against the
    /// double's, without rounding the int to the nearest double first:
    /// `9007199254740993` is greater than `9007199254740992.0`. So `=` is
    /// an equivalence on numbers, and the executor's hash keys can agree
    /// with it.
    pub fn num_cmp(&self, other: &SqlValue) -> Option<Ordering> {
        match (self, other) {
            (SqlValue::Int(a), SqlValue::Int(b)) => Some(a.cmp(b)),
            (SqlValue::Double(a), SqlValue::Double(b)) => a.partial_cmp(b),
            (SqlValue::Int(a), SqlValue::Double(b)) => int_cmp_f64(*a, *b),
            (SqlValue::Double(a), SqlValue::Int(b)) => int_cmp_f64(*b, *a).map(Ordering::reverse),
            _ => None,
        }
    }
}

/// `i` against `d` by exact value. Rounding `i` to a double is monotone,
/// so the rounded comparison is exact whenever it is not `Equal`; on a
/// tie `d` is an integer in `[-2^63, 2^63]` and the comparison finishes
/// in `i64` (`2^63` itself exceeds every `i64`).
fn int_cmp_f64(i: i64, d: f64) -> Option<Ordering> {
    match (i as f64).partial_cmp(&d)? {
        Ordering::Equal if d >= 9_223_372_036_854_775_808.0 => Some(Ordering::Less),
        Ordering::Equal => Some(i.cmp(&(d as i64))),
        ord => Some(ord),
    }
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => f.write_str("NULL"),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Double(d) => write!(f, "{d}"),
            SqlValue::Text(s) => f.write_str(s),
            SqlValue::Time(t) => write!(f, "{t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_collapses_non_finite_to_null() {
        assert_eq!(SqlValue::double(1.5), SqlValue::Double(1.5));
        assert!(SqlValue::double(f64::NAN).is_null());
        assert!(SqlValue::double(f64::INFINITY).is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(SqlValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(SqlValue::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(SqlValue::Text("x".into()).as_f64(), None);
        assert_eq!(SqlValue::Null.as_f64(), None);
    }

    #[test]
    fn dim_round_trip() {
        let vals = [
            DimValue::Int(4),
            DimValue::str("north"),
            DimValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 2,
            }),
        ];
        for v in vals {
            assert_eq!(SqlValue::from_dim(&v).to_dim(), Some(v));
        }
        assert_eq!(SqlValue::Null.to_dim(), None);
    }

    #[test]
    fn sql_equality_null_and_numeric_widening() {
        assert!(!SqlValue::Null.sql_eq(&SqlValue::Null));
        assert!(SqlValue::Int(2).sql_eq(&SqlValue::Double(2.0)));
        assert!(!SqlValue::Int(2).sql_eq(&SqlValue::Double(2.5)));
        assert!(SqlValue::Text("a".into()).sql_eq(&SqlValue::Text("a".into())));
    }

    #[test]
    fn type_names_round_trip() {
        for t in [
            SqlType::Int,
            SqlType::Double,
            SqlType::Text,
            SqlType::Time(Frequency::Quarterly),
        ] {
            assert_eq!(SqlType::parse(&t.sql_name()), Some(t));
        }
        assert_eq!(SqlType::parse("BLOB"), None);
    }

    #[test]
    fn literals() {
        assert_eq!(SqlValue::Int(5).to_literal(), "5");
        assert_eq!(SqlValue::Text("o'brien".into()).to_literal(), "'o''brien'");
        assert_eq!(SqlValue::Null.to_literal(), "NULL");
        assert_eq!(
            SqlValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 1
            })
            .to_literal(),
            "'2020-Q1'"
        );
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            SqlValue::Text("b".into()),
            SqlValue::Null,
            SqlValue::Int(2),
            SqlValue::Double(1.5),
            SqlValue::Time(TimePoint::Year(2000)),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert!(vals[0].is_null());
    }
}
