//! Tables and the database catalog.

use std::collections::BTreeMap;

use exl_model::schema::CubeSchema;
use exl_model::{Cube, CubeData};

use crate::error::SqlError;
use crate::value::{SqlType, SqlValue};

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-preserving, compared case-insensitively).
    pub name: String,
    /// Column type.
    pub ty: SqlType,
}

/// An in-memory table: a schema plus a row store.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Columns in order.
    pub columns: Vec<Column>,
    /// Rows; each row has one value per column.
    pub rows: Vec<Vec<SqlValue>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            name: name.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Append a row, checking arity (types are checked loosely: NULL fits
    /// anywhere, ints widen into double columns).
    pub fn push_row(&mut self, row: Vec<SqlValue>) -> Result<(), SqlError> {
        if row.len() != self.columns.len() {
            return Err(SqlError::Execution(format!(
                "table {}: expected {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (col, v) in self.columns.iter().zip(row) {
            coerced.push(coerce(v, col.ty).map_err(|v| {
                SqlError::Execution(format!(
                    "table {}: value {v} does not fit column {} of type {}",
                    self.name, col.name, col.ty
                ))
            })?);
        }
        self.rows.push(coerced);
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Build a table holding a cube: one column per dimension plus the
    /// measure (DOUBLE) last — the paper's `(n+1)-tuple` representation.
    ///
    /// Rows follow the cube's storage order ([`CubeData::iter`]), the
    /// order `exl_sqlgen::insert_data_sql` writes them in. So the table is
    /// row for row what loading that SQL text gives, and aggregates over
    /// it fold in the same order.
    pub fn from_cube(cube: &Cube) -> Table {
        let mut columns: Vec<Column> = cube
            .schema
            .dims
            .iter()
            .map(|d| Column {
                name: d.name.clone(),
                ty: SqlType::from_dim_type(d.ty),
            })
            .collect();
        columns.push(Column {
            name: cube.schema.measure.clone(),
            ty: SqlType::Double,
        });
        let mut t = Table::new(cube.schema.id.to_string(), columns);
        t.rows.reserve(cube.data.len());
        for (k, v) in cube.data.iter() {
            let mut row: Vec<SqlValue> = k.iter().map(SqlValue::from_dim).collect();
            row.push(SqlValue::Double(v));
            t.rows.push(row);
        }
        t
    }

    /// Read the table back as cube data for `schema` (dimension columns by
    /// name; the measure is the schema's measure column). Rows with NULLs
    /// are skipped — they encode dropped tuples.
    pub fn to_cube_data(&self, schema: &CubeSchema) -> Result<CubeData, SqlError> {
        let dim_idx: Vec<usize> = schema
            .dims
            .iter()
            .map(|d| {
                self.column_index(&d.name).ok_or_else(|| {
                    SqlError::Execution(format!(
                        "table {} lacks dimension column {}",
                        self.name, d.name
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let m_idx = self.column_index(&schema.measure).ok_or_else(|| {
            SqlError::Execution(format!(
                "table {} lacks measure column {}",
                self.name, schema.measure
            ))
        })?;
        let mut data = CubeData::new();
        for row in &self.rows {
            let Some(m) = row[m_idx].as_f64() else {
                continue;
            };
            let mut key = Vec::with_capacity(dim_idx.len());
            let mut ok = true;
            for &i in &dim_idx {
                match row[i].to_dim() {
                    Some(d) => key.push(d),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                data.insert(key, m)
                    .map_err(|e| SqlError::Execution(e.to_string()))?;
            }
        }
        Ok(data)
    }

    /// Deterministically sorted copy of the rows (for display and tests).
    pub fn sorted_rows(&self) -> Vec<Vec<SqlValue>> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rows
    }
}

fn coerce(v: SqlValue, ty: SqlType) -> Result<SqlValue, SqlValue> {
    match (&v, ty) {
        (SqlValue::Null, _) => Ok(v),
        (SqlValue::Int(_), SqlType::Int) => Ok(v),
        (SqlValue::Int(i), SqlType::Double) => Ok(SqlValue::Double(*i as f64)),
        (SqlValue::Double(_), SqlType::Double) => Ok(v),
        (SqlValue::Double(d), SqlType::Int) if d.fract() == 0.0 => Ok(SqlValue::Int(*d as i64)),
        (SqlValue::Text(_), SqlType::Text) => Ok(v),
        (SqlValue::Time(t), SqlType::Time(f)) if t.frequency() == f => Ok(v),
        // time literals arrive as strings from INSERT … VALUES
        (SqlValue::Text(s), SqlType::Time(f)) => match crate::parser::parse_time_literal(s, f) {
            Some(t) => Ok(SqlValue::Time(t)),
            None => Err(v),
        },
        _ => Err(v),
    }
}

/// The database: named tables, named views, plus the table-function
/// registry hook.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    views: BTreeMap<String, crate::parser::Select>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register (or replace) a table.
    pub fn put_table(&mut self, table: Table) {
        self.tables.insert(table.name.to_uppercase(), table);
    }

    /// Create a table; errors if it already exists or has duplicate
    /// column names.
    pub fn create_table(&mut self, table: Table) -> Result<(), SqlError> {
        let key = table.name.to_uppercase();
        if self.tables.contains_key(&key) {
            return Err(SqlError::Execution(format!(
                "table {} already exists",
                table.name
            )));
        }
        for (i, c) in table.columns.iter().enumerate() {
            if table.columns[..i]
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(&c.name))
            {
                return Err(SqlError::Execution(format!(
                    "table {}: duplicate column name {}",
                    table.name, c.name
                )));
            }
        }
        self.tables.insert(key, table);
        Ok(())
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_uppercase())
    }

    /// Mutable lookup.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_uppercase())
    }

    /// Drop a table, returning whether it existed.
    pub fn drop_table(&mut self, name: &str) -> bool {
        self.tables.remove(&name.to_uppercase()).is_some()
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.values().map(|t| t.name.as_str()).collect()
    }

    /// Register a view; errors when a table or view of that name exists.
    pub fn create_view(
        &mut self,
        name: &str,
        select: crate::parser::Select,
    ) -> Result<(), SqlError> {
        let key = name.to_uppercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(SqlError::Execution(format!(
                "table or view {name} already exists"
            )));
        }
        self.views.insert(key, select);
        Ok(())
    }

    /// Look up a view definition (case-insensitive).
    pub fn view(&self, name: &str) -> Option<&crate::parser::Select> {
        self.views.get(&name.to_uppercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_model::schema::{CubeKind, Dimension};
    use exl_model::time::{Frequency, TimePoint};
    use exl_model::value::{DimType, DimValue};

    fn sample_cube() -> Cube {
        let schema = CubeSchema::new(
            "RGDP",
            vec![
                Dimension::new("q", DimType::Time(Frequency::Quarterly)),
                Dimension::new("r", DimType::Str),
            ],
            CubeKind::Derived,
        )
        .with_measure("g");
        let data = CubeData::from_tuples(vec![(
            vec![
                DimValue::Time(TimePoint::Quarter {
                    year: 2020,
                    quarter: 1,
                }),
                DimValue::str("n"),
            ],
            7.5,
        )])
        .unwrap();
        Cube::new(schema, data)
    }

    #[test]
    fn cube_table_round_trip() {
        let cube = sample_cube();
        let t = Table::from_cube(&cube);
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.columns[2].name, "g");
        assert_eq!(t.len(), 1);
        let back = t.to_cube_data(&cube.schema).unwrap();
        assert!(back.approx_eq(&cube.data, 0.0));
    }

    #[test]
    fn null_measure_rows_skipped_on_export() {
        let cube = sample_cube();
        let mut t = Table::from_cube(&cube);
        t.rows.push(vec![
            SqlValue::Time(TimePoint::Quarter {
                year: 2020,
                quarter: 2,
            }),
            SqlValue::Text("n".into()),
            SqlValue::Null,
        ]);
        let back = t.to_cube_data(&cube.schema).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn push_row_checks_arity_and_coerces() {
        let mut t = Table::new(
            "T",
            vec![
                Column {
                    name: "k".into(),
                    ty: SqlType::Int,
                },
                Column {
                    name: "v".into(),
                    ty: SqlType::Double,
                },
            ],
        );
        t.push_row(vec![SqlValue::Int(1), SqlValue::Int(2)])
            .unwrap();
        assert_eq!(t.rows[0][1], SqlValue::Double(2.0));
        assert!(t.push_row(vec![SqlValue::Int(1)]).is_err());
        assert!(t
            .push_row(vec![SqlValue::Text("x".into()), SqlValue::Double(0.0)])
            .is_err());
        // time frequency mismatch rejected
        let mut t2 = Table::new(
            "T2",
            vec![Column {
                name: "q".into(),
                ty: SqlType::Time(Frequency::Quarterly),
            }],
        );
        assert!(t2
            .push_row(vec![SqlValue::Time(TimePoint::Year(2020))])
            .is_err());
    }

    #[test]
    fn database_create_and_drop() {
        let mut db = Database::new();
        db.create_table(Table::new("A", vec![])).unwrap();
        assert!(db.create_table(Table::new("a", vec![])).is_err()); // case-insensitive
        assert!(db.table("A").is_some());
        assert!(db.table("a").is_some());
        assert!(db.drop_table("A"));
        assert!(!db.drop_table("A"));
    }
}
