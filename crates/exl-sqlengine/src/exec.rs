//! Query execution: joins, filters, grouping, projection, ordering.
//!
//! [`Engine::run_select`] compiles a SELECT once, then runs it:
//!
//! 1. **Compile.** Base tables in FROM are borrowed; views and tabular
//!    functions are materialized. Their columns, concatenated, form the
//!    joined schema. The WHERE conjunction is split into equi-join keys
//!    for each join step and residual filters. Every column reference in
//!    keys, filters, select items and GROUP BY resolves to a
//!    `(source, column)` slot. Unknown or ambiguous columns fail here,
//!    before any row is read.
//! 2. **Run.** A row of the joined relation is a tuple of base-row ids,
//!    one per source. Expressions read values from the tables in place;
//!    only the result rows are copied out. Hash joins and GROUP BY hash
//!    typed `Key`s whose equality is exactly SQL `=`.
//!
//! Output order is fixed, so results are bit-identical run to run when
//! the inputs are loaded in the same order:
//! - a join emits left rows in order, each followed by its matches in
//!   right-row order;
//! - groups come out in first-seen order;
//! - aggregates fold their values in row order.
//!
//! Still row at a time: each compiled expression is a tree walked once
//! per row, and every result row is an owned `Vec<SqlValue>`.
//!
//! Long row loops pass a governance checkpoint every
//! `CHECKPOINT_ROWS` rows, and `INSERT … SELECT` charges the rows it
//! inserts against the run budget.

use std::borrow::Cow;
use std::cmp::Ordering;

use exl_model::time::{Frequency, TimePoint};
use exl_model::FxHashMap;
use exl_stats::descriptive::AggFn;

use crate::catalog::{Column, Database, Table};
use crate::error::SqlError;
use crate::parser::{parse_script, FromItem, Select, SqlExpr, SqlStmt, TableFnArg};
use crate::tablefn;
use crate::value::{SqlType, SqlValue};

/// Rows between two governance checkpoints inside one statement's row
/// loops: a cancel or an exhausted budget stops a long join or GROUP BY
/// without waiting for the next statement.
const CHECKPOINT_ROWS: usize = 4096;

/// The SQL engine: a database plus the statement dispatcher.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    /// The catalog and row stores.
    pub db: Database,
}

impl Engine {
    /// Fresh engine with an empty database.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Execute SQL, with one `sql.stmt` child span of `trace` per
    /// executed statement (attrs: `index`, `kind`, `table`); pass
    /// [`Span::disabled`](exl_obs::Span::disabled) to trace nothing.
    /// `Some(table)` is returned for a final SELECT.
    pub fn execute(&mut self, sql: &str, trace: &exl_obs::Span) -> Result<Option<Table>, SqlError> {
        exl_fault::check("sqlengine.execute").map_err(|e| SqlError::Execution(e.to_string()))?;
        let mut last = None;
        for (i, stmt) in parse_script(sql)?.into_iter().enumerate() {
            // governance checkpoint per statement: a cancelled or
            // over-budget run stops between statements
            exl_fault::govern::checkpoint()?;
            let span = trace.child("sql.stmt");
            span.set_attr("index", i as u64);
            span.set_attr("kind", stmt_kind(&stmt));
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::Statement,
                "sqlengine.execute",
                || format!("stmt {i}: {}", stmt_kind(&stmt)),
            );
            if let Some(table) = stmt_table(&stmt) {
                span.set_attr("table", table.to_string());
            }
            match self.execute_stmt(stmt) {
                Ok(out) => last = out,
                Err(e) => {
                    span.add_event(e.to_string());
                    span.set_attr("status", "failed");
                    return Err(e);
                }
            }
        }
        Ok(last)
    }

    /// Execute a multi-statement script, discarding SELECT results.
    pub fn execute_script(&mut self, sql: &str) -> Result<(), SqlError> {
        self.execute(sql, &exl_obs::Span::disabled()).map(|_| ())
    }

    fn execute_stmt(&mut self, stmt: SqlStmt) -> Result<Option<Table>, SqlError> {
        match stmt {
            SqlStmt::CreateTable { name, columns } => {
                let cols = columns
                    .into_iter()
                    .map(|(name, ty)| Column { name, ty })
                    .collect();
                self.db.create_table(Table::new(name, cols))?;
                Ok(None)
            }
            SqlStmt::CreateView { name, select } => {
                self.db.create_view(&name, select)?;
                Ok(None)
            }
            SqlStmt::DropTable { name } => {
                if !self.db.drop_table(&name) {
                    return Err(SqlError::Execution(format!("unknown table {name}")));
                }
                Ok(None)
            }
            SqlStmt::InsertValues {
                table,
                columns,
                rows,
            } => {
                let reorder = self.insert_column_map(&table, &columns)?;
                let target = self.db.table_mut(&table).expect("checked above");
                for row in rows {
                    if row.len() != columns.len() {
                        return Err(SqlError::Execution(format!(
                            "INSERT into {table}: {} columns but {} values",
                            columns.len(),
                            row.len()
                        )));
                    }
                    target.push_row(apply_column_map(&reorder, row))?;
                }
                Ok(None)
            }
            SqlStmt::InsertSelect {
                table,
                columns,
                select,
            } => {
                let result = self.run_select(&select)?;
                let reorder = self.insert_column_map(&table, &columns)?;
                if result.columns.len() != columns.len() {
                    return Err(SqlError::Execution(format!(
                        "INSERT into {table}: {} target columns but SELECT yields {}",
                        columns.len(),
                        result.columns.len()
                    )));
                }
                let target = self.db.table_mut(&table).expect("checked above");
                let mut inserted = 0u64;
                for row in result.rows {
                    // dropped-tuple semantics: a NULL anywhere means the
                    // operator was undefined on this point
                    if row.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    target.push_row(apply_column_map(&reorder, row))?;
                    inserted += 1;
                }
                // the inserted rows are this statement's materialized
                // output: the next checkpoint sees them against the budget
                let dims = target.columns.len().saturating_sub(1) as u64;
                exl_fault::govern::charge(
                    inserted,
                    exl_fault::govern::approx_cube_bytes(inserted, dims),
                );
                Ok(None)
            }
            SqlStmt::Select(select) => Ok(Some(self.run_select(&select)?)),
        }
    }

    /// Map INSERT column list onto the table's column order; unlisted
    /// columns are filled with NULL.
    fn insert_column_map(
        &self,
        table: &str,
        columns: &[String],
    ) -> Result<Vec<Option<usize>>, SqlError> {
        let t = self
            .db
            .table(table)
            .ok_or_else(|| SqlError::Execution(format!("unknown table {table}")))?;
        let mut map: Vec<Option<usize>> = vec![None; t.columns.len()];
        for (vi, c) in columns.iter().enumerate() {
            let ci = t
                .column_index(c)
                .ok_or_else(|| SqlError::Execution(format!("table {table} has no column {c}")))?;
            map[ci] = Some(vi);
        }
        Ok(map)
    }

    /// Run a SELECT, producing a result table.
    pub fn run_select(&self, select: &Select) -> Result<Table, SqlError> {
        // 1. sources and the joined schema
        let mut tables = Vec::with_capacity(select.from.len());
        let mut schema = Vec::new();
        let mut starts = Vec::with_capacity(select.from.len() + 1);
        for item in &select.from {
            let (table, qualifier) = self.source(item)?;
            let src = tables.len();
            starts.push(schema.len());
            schema.extend(table.columns.iter().enumerate().map(|(col, c)| QualCol {
                qualifier: qualifier.to_string(),
                name: c.name.clone(),
                src,
                col,
            }));
            tables.push(table);
        }
        if tables.is_empty() {
            return Err(SqlError::Execution("SELECT needs a FROM clause".into()));
        }
        starts.push(schema.len());

        // 2. compile: equi-join keys per join step (left to right), then
        // the residual filters, select items and GROUP BY against the
        // joined schema
        let mut conjuncts = Vec::new();
        if let Some(w) = &select.where_ {
            flatten_and(w, &mut conjuncts);
        }
        let joins = (1..tables.len())
            .map(|k| {
                JoinKeys::plan(
                    &schema[..starts[k]],
                    &schema[starts[k]..starts[k + 1]],
                    &mut conjuncts,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let filters = conjuncts
            .iter()
            .map(|c| compile(c, &schema))
            .collect::<Result<Vec<_>, _>>()?;
        let output = Output::compile(select, &schema)?;

        // 3. run
        let mut rows = Rows::scan(tables[0].len());
        for (k, keys) in joins.iter().enumerate() {
            rows = keys.join(&tables, &rows, k + 1)?;
        }
        filter(&tables, &mut rows, &filters)?;
        let mut out = Table::new("result", result_columns(select));
        out.rows = output.run(&tables, &rows)?;
        if !select.order_by.is_empty() {
            order_rows(&mut out, &select.order_by)?;
        }
        Ok(out)
    }

    /// One FROM item and the qualifier its columns answer to.
    fn source<'e, 's>(&'e self, item: &'s FromItem) -> Result<(Cow<'e, Table>, &'s str), SqlError> {
        match item {
            FromItem::Table { name, alias } => {
                Ok((self.resolve_table(name)?, alias.as_deref().unwrap_or(name)))
            }
            FromItem::TableFn { func, args, alias } => {
                // table arguments may themselves be views: resolve them
                // into a scratch database first
                let mut scratch = Database::new();
                for a in args {
                    if let TableFnArg::Table(t) = a {
                        scratch.put_table(self.resolve_table(t)?.into_owned());
                    }
                }
                let t = tablefn::apply(&scratch, func, args)?;
                Ok((Cow::Owned(t), alias.as_deref().unwrap_or(func)))
            }
        }
    }

    /// A named table (borrowed), or a view materialized by running its
    /// defining query (recursively, for views over views). Column types
    /// of materialized views are inferred from their values so downstream
    /// consumers (tabular functions, cube extraction) see temporal
    /// columns.
    pub fn resolve_table(&self, name: &str) -> Result<Cow<'_, Table>, SqlError> {
        if let Some(t) = self.db.table(name) {
            return Ok(Cow::Borrowed(t));
        }
        if let Some(view) = self.db.view(name) {
            let mut t = self.run_select(view)?;
            t.name = name.to_string();
            infer_column_types(&mut t);
            return Ok(Cow::Owned(t));
        }
        Err(SqlError::Execution(format!("unknown table or view {name}")))
    }
}

/// Replace a materialized view's default DOUBLE column types with types
/// inferred from the values.
fn infer_column_types(t: &mut Table) {
    for (c, col) in t.columns.iter_mut().enumerate() {
        let mut inferred: Option<SqlType> = None;
        for row in &t.rows {
            match &row[c] {
                SqlValue::Time(tp) => {
                    inferred = Some(SqlType::Time(tp.frequency()));
                    break;
                }
                SqlValue::Text(_) => {
                    inferred = Some(SqlType::Text);
                    break;
                }
                SqlValue::Double(_) => {
                    inferred = Some(SqlType::Double);
                    break;
                }
                SqlValue::Int(_) => {
                    inferred.get_or_insert(SqlType::Int);
                }
                SqlValue::Null => {}
            }
        }
        if let Some(ty) = inferred {
            col.ty = ty;
        }
    }
}

/// Short statement label for trace spans.
fn stmt_kind(stmt: &SqlStmt) -> &'static str {
    match stmt {
        SqlStmt::CreateTable { .. } => "create-table",
        SqlStmt::CreateView { .. } => "create-view",
        SqlStmt::DropTable { .. } => "drop-table",
        SqlStmt::InsertValues { .. } => "insert-values",
        SqlStmt::InsertSelect { .. } => "insert-select",
        SqlStmt::Select(_) => "select",
    }
}

/// The table (or view) a statement targets, if any.
fn stmt_table(stmt: &SqlStmt) -> Option<&str> {
    match stmt {
        SqlStmt::CreateTable { name, .. }
        | SqlStmt::CreateView { name, .. }
        | SqlStmt::DropTable { name } => Some(name),
        SqlStmt::InsertValues { table, .. } | SqlStmt::InsertSelect { table, .. } => Some(table),
        SqlStmt::Select(_) => None,
    }
}

/// Reorder a value row into table column order (each value is used at
/// most once, so it is moved, not cloned).
fn apply_column_map(map: &[Option<usize>], mut row: Vec<SqlValue>) -> Vec<SqlValue> {
    map.iter()
        .map(|slot| match slot {
            Some(vi) => std::mem::replace(&mut row[*vi], SqlValue::Null),
            None => SqlValue::Null,
        })
        .collect()
}

/// Pass a governance checkpoint on every [`CHECKPOINT_ROWS`]-th row.
fn checkpoint_every(i: usize) -> Result<(), SqlError> {
    if i.is_multiple_of(CHECKPOINT_ROWS) {
        exl_fault::govern::checkpoint()?;
    }
    Ok(())
}

/// A column of the joined schema: the names a reference resolves by and
/// the slot its values live in.
#[derive(Debug, Clone)]
struct QualCol {
    qualifier: String,
    name: String,
    /// Index of the FROM source.
    src: usize,
    /// Column index within that source's table.
    col: usize,
}

/// Resolve a column reference against a qualified schema.
fn resolve<'s>(
    schema: &'s [QualCol],
    qualifier: Option<&str>,
    name: &str,
) -> Result<&'s QualCol, SqlError> {
    let mut hits = schema.iter().filter(|c| {
        c.name.eq_ignore_ascii_case(name)
            && qualifier.is_none_or(|q| c.qualifier.eq_ignore_ascii_case(q))
    });
    match (hits.next(), hits.next()) {
        (Some(c), None) => Ok(c),
        (None, _) => Err(SqlError::Execution(format!(
            "unknown column {}{name}",
            qualifier.map(|q| format!("{q}.")).unwrap_or_default()
        ))),
        _ => Err(SqlError::Execution(format!("ambiguous column {name}"))),
    }
}

/// True when every column reference in the expression resolves against the
/// schema.
fn expr_resolves(expr: &SqlExpr, schema: &[QualCol]) -> bool {
    match expr {
        SqlExpr::Column { qualifier, name } => resolve(schema, qualifier.as_deref(), name).is_ok(),
        SqlExpr::Literal(_) => true,
        SqlExpr::Binary { l, r, .. } => expr_resolves(l, schema) && expr_resolves(r, schema),
        SqlExpr::Func { args, .. } => args.iter().all(|a| expr_resolves(a, schema)),
        SqlExpr::Agg { arg, .. } => expr_resolves(arg, schema),
    }
}

/// A scalar expression compiled against a schema: column references are
/// `(source, column)` slots.
#[derive(Debug)]
enum Expr {
    Col { src: usize, col: usize },
    Lit(SqlValue),
    Binary(&'static str, Box<Expr>, Box<Expr>),
    Func(String, Vec<Expr>),
    Agg(AggFn, Box<Expr>),
}

/// Compile an expression, resolving every column reference.
fn compile(expr: &SqlExpr, schema: &[QualCol]) -> Result<Expr, SqlError> {
    Ok(match expr {
        SqlExpr::Column { qualifier, name } => {
            let c = resolve(schema, qualifier.as_deref(), name)?;
            Expr::Col {
                src: c.src,
                col: c.col,
            }
        }
        SqlExpr::Literal(v) => Expr::Lit(v.clone()),
        SqlExpr::Binary { op, l, r } => Expr::Binary(
            op,
            Box::new(compile(l, schema)?),
            Box::new(compile(r, schema)?),
        ),
        SqlExpr::Func { name, args } => Expr::Func(
            name.clone(),
            args.iter()
                .map(|a| compile(a, schema))
                .collect::<Result<_, _>>()?,
        ),
        SqlExpr::Agg { func, arg } => Expr::Agg(*func, Box::new(compile(arg, schema)?)),
    })
}

/// One row of a (joined) relation: the tables plus one base-row id per
/// source. Values borrow from the tables (`'t`), not from the ids.
#[derive(Clone, Copy)]
struct Row<'t, 'i> {
    tables: &'t [Cow<'t, Table>],
    ids: &'i [usize],
}

impl<'t> Row<'t, '_> {
    fn get(self, src: usize, col: usize) -> &'t SqlValue {
        &self.tables[src].rows[self.ids[src]][col]
    }
}

impl Expr {
    /// Evaluate on one row. Column and literal values are borrowed.
    fn eval<'t>(&'t self, row: Row<'t, '_>) -> Result<Cow<'t, SqlValue>, SqlError> {
        Ok(match self {
            Expr::Col { src, col } => Cow::Borrowed(row.get(*src, *col)),
            Expr::Lit(v) => Cow::Borrowed(v),
            Expr::Binary(op, l, r) => {
                let a = l.eval(row)?;
                let b = r.eval(row)?;
                Cow::Owned(eval_binary(op, &a, &b)?)
            }
            Expr::Func(f, args) => Cow::Owned(match args.as_slice() {
                // one argument, the common case, needs no buffer
                [a] => eval_func(f, &[&*a.eval(row)?])?,
                _ => {
                    let vals = args
                        .iter()
                        .map(|a| a.eval(row))
                        .collect::<Result<Vec<_>, _>>()?;
                    eval_func(f, &vals.iter().map(|v| &**v).collect::<Vec<_>>())?
                }
            }),
            Expr::Agg(..) => {
                return Err(SqlError::Execution(
                    "aggregate used outside GROUP BY context".into(),
                ))
            }
        })
    }

    /// Evaluate an expression containing aggregates over one group
    /// (`members` are row indices of `rows`, ascending). `scratch` is the
    /// reused value buffer of the aggregates.
    fn eval_group(
        &self,
        tables: &[Cow<'_, Table>],
        rows: &Rows,
        members: &[usize],
        scratch: &mut Vec<f64>,
    ) -> Result<SqlValue, SqlError> {
        match self {
            Expr::Agg(func, arg) => {
                scratch.clear();
                for &r in members {
                    let row = Row {
                        tables,
                        ids: rows.get(r),
                    };
                    if let Some(x) = arg.eval(row)?.as_f64() {
                        scratch.push(x); // NULLs skipped, standard SQL semantics
                    }
                }
                Ok(func.apply(scratch).map_or(SqlValue::Null, SqlValue::double))
            }
            Expr::Binary(op, l, r) => {
                let a = l.eval_group(tables, rows, members, scratch)?;
                let b = r.eval_group(tables, rows, members, scratch)?;
                eval_binary(op, &a, &b)
            }
            Expr::Func(f, args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval_group(tables, rows, members, scratch))
                    .collect::<Result<Vec<_>, _>>()?;
                eval_func(f, &vals.iter().collect::<Vec<_>>())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Col { .. } => Err(SqlError::Execution(
                "bare column mixed with aggregates must be in GROUP BY".into(),
            )),
        }
    }
}

fn eval_binary(op: &str, a: &SqlValue, b: &SqlValue) -> Result<SqlValue, SqlError> {
    match op {
        "AND" => Ok(SqlValue::Int((truthy(a) && truthy(b)) as i64)),
        "=" | "<>" | "<" | "<=" | ">" | ">=" => {
            if a.is_null() || b.is_null() {
                return Ok(SqlValue::Null);
            }
            let ord = match (a, b) {
                (SqlValue::Time(x), SqlValue::Time(y)) => x.cmp(y),
                (SqlValue::Text(x), SqlValue::Text(y)) => x.cmp(y),
                _ => match a.num_cmp(b) {
                    Some(ord) => ord,
                    // a NaN operand
                    None if a.as_f64().is_some() && b.as_f64().is_some() => Ordering::Equal,
                    None => return Ok(SqlValue::Int((op == "<>") as i64)),
                },
            };
            let result = match op {
                "=" => ord == Ordering::Equal,
                "<>" => ord != Ordering::Equal,
                "<" => ord == Ordering::Less,
                "<=" => ord != Ordering::Greater,
                ">" => ord == Ordering::Greater,
                _ => ord != Ordering::Less,
            };
            Ok(SqlValue::Int(result as i64))
        }
        "+" | "-" | "*" | "/" => {
            if a.is_null() || b.is_null() {
                return Ok(SqlValue::Null);
            }
            // temporal shift: time ± int (the SQL face of the EXL shift)
            if let (SqlValue::Time(t), SqlValue::Int(n)) = (a, b) {
                return match op {
                    "+" => Ok(SqlValue::Time(t.shift(*n))),
                    "-" => Ok(SqlValue::Time(t.shift(-*n))),
                    _ => Err(SqlError::Execution(format!("cannot {op} a temporal value"))),
                };
            }
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(SqlError::Execution(format!(
                    "arithmetic on non-numeric values {a} {op} {b}"
                )));
            };
            if let (SqlValue::Int(xi), SqlValue::Int(yi), "+" | "-" | "*") = (a, b, op) {
                let r = match op {
                    "+" => xi.checked_add(*yi),
                    "-" => xi.checked_sub(*yi),
                    _ => xi.checked_mul(*yi),
                };
                if let Some(r) = r {
                    return Ok(SqlValue::Int(r));
                }
            }
            Ok(SqlValue::double(match op {
                "+" => x + y,
                "-" => x - y,
                "*" => x * y,
                _ => x / y,
            }))
        }
        other => Err(SqlError::Execution(format!("unknown operator {other}"))),
    }
}

fn eval_func(name: &str, args: &[&SqlValue]) -> Result<SqlValue, SqlError> {
    let arity = |n: usize| -> Result<(), SqlError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(SqlError::Execution(format!(
                "{name} takes {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    let time_conv = |target: Frequency| -> Result<SqlValue, SqlError> {
        arity(1)?;
        if args[0].is_null() {
            return Ok(SqlValue::Null);
        }
        let t = args[0].as_time().ok_or_else(|| {
            SqlError::Execution(format!("{name} needs a temporal argument, got {}", args[0]))
        })?;
        match t.convert(target) {
            Some(c) => Ok(SqlValue::Time(c)),
            None => Err(SqlError::Execution(format!(
                "cannot convert {t} to {}",
                target.name()
            ))),
        }
    };
    let unary_math = |f: fn(f64) -> f64| -> Result<SqlValue, SqlError> {
        arity(1)?;
        if args[0].is_null() {
            return Ok(SqlValue::Null);
        }
        let x = args[0]
            .as_f64()
            .ok_or_else(|| SqlError::Execution(format!("{name} needs a numeric argument")))?;
        Ok(SqlValue::double(f(x)))
    };
    match name {
        "QUARTER" => time_conv(Frequency::Quarterly),
        "MONTH" => time_conv(Frequency::Monthly),
        "YEAR" => time_conv(Frequency::Yearly),
        "SHIFT_TIME" => {
            arity(2)?;
            if args[0].is_null() {
                return Ok(SqlValue::Null);
            }
            let t = args[0]
                .as_time()
                .ok_or_else(|| SqlError::Execution("SHIFT_TIME needs a temporal value".into()))?;
            let SqlValue::Int(n) = args[1] else {
                return Err(SqlError::Execution(
                    "SHIFT_TIME offset must be an integer".into(),
                ));
            };
            Ok(SqlValue::Time(t.shift(*n)))
        }
        "LN" => unary_math(f64::ln),
        "EXP" => unary_math(f64::exp),
        "SQRT" => unary_math(f64::sqrt),
        "ABS" => unary_math(f64::abs),
        "SIN" => unary_math(f64::sin),
        "COS" => unary_math(f64::cos),
        "POWER" => {
            arity(2)?;
            if args[0].is_null() || args[1].is_null() {
                return Ok(SqlValue::Null);
            }
            let (Some(a), Some(b)) = (args[0].as_f64(), args[1].as_f64()) else {
                return Err(SqlError::Execution("POWER needs numeric arguments".into()));
            };
            Ok(SqlValue::double(a.powf(b)))
        }
        other => Err(SqlError::Execution(format!("unknown function {other}"))),
    }
}

fn truthy(v: &SqlValue) -> bool {
    match v {
        SqlValue::Int(i) => *i != 0,
        SqlValue::Double(d) => *d != 0.0,
        _ => false,
    }
}

fn flatten_and<'s>(expr: &'s SqlExpr, out: &mut Vec<&'s SqlExpr>) {
    match expr {
        SqlExpr::Binary { op: "AND", l, r } => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

/// A hash key for one value. Two keys are equal exactly when SQL `=`
/// holds between their values, so a hash join matches what the same
/// predicate would keep as a filter. Numbers equal as reals share a key:
/// an integral double keys as its `i64`, and `-0.0` as `0`. NULL has a
/// key of its own: GROUP BY groups NULLs together, joins skip them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key<'t> {
    Null,
    Int(i64),
    Float(u64),
    Text(Cow<'t, str>),
    Time(TimePoint),
}

impl<'t> Key<'t> {
    fn of(v: &Cow<'t, SqlValue>) -> Key<'t> {
        // text read from a table is borrowed for the table's lifetime,
        // not copied
        if let Cow::Borrowed(borrowed) = v {
            let borrowed: &'t SqlValue = borrowed;
            if let SqlValue::Text(s) = borrowed {
                return Key::Text(Cow::Borrowed(s));
            }
        }
        match v.as_ref() {
            SqlValue::Null => Key::Null,
            SqlValue::Int(i) => Key::Int(*i),
            SqlValue::Double(d) => Key::double(*d),
            SqlValue::Text(s) => Key::Text(Cow::Owned(s.clone())),
            SqlValue::Time(t) => Key::Time(*t),
        }
    }

    fn double(d: f64) -> Key<'t> {
        // [-2^63, 2^63): the doubles an i64 holds exactly when integral
        if d.fract() == 0.0
            && (-9_223_372_036_854_775_808.0..9_223_372_036_854_775_808.0).contains(&d)
        {
            Key::Int(d as i64) // -0.0 lands on 0
        } else {
            Key::Float(d.to_bits())
        }
    }
}

/// Evaluate `exprs` into `key`; false when a value is NULL (the row has
/// no join partner).
fn join_key<'t>(
    exprs: &'t [Expr],
    row: Row<'t, '_>,
    key: &mut Vec<Key<'t>>,
) -> Result<bool, SqlError> {
    key.clear();
    for e in exprs {
        let v = e.eval(row)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(Key::of(&v));
    }
    Ok(true)
}

/// Row-id tuples over the FROM sources: row `r` is base row
/// `ids[r * width + s]` of source `s`. Nothing is copied out of the
/// tables until projection.
struct Rows {
    width: usize,
    ids: Vec<usize>,
}

impl Rows {
    /// Every row of one table.
    fn scan(n: usize) -> Rows {
        Rows {
            width: 1,
            ids: (0..n).collect(),
        }
    }

    fn len(&self) -> usize {
        self.ids.len() / self.width
    }

    fn get(&self, r: usize) -> &[usize] {
        &self.ids[r * self.width..(r + 1) * self.width]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, usize> {
        self.ids.chunks_exact(self.width)
    }
}

/// The equi-join keys of one join step: `left[i] = right[i]` for every
/// `i`, the left side compiled against the sources joined so far, the
/// right side against the joining source alone (as source 0).
struct JoinKeys {
    left: Vec<Expr>,
    right: Vec<Expr>,
}

impl JoinKeys {
    /// Take from `conjuncts` every `=` whose sides split across `left` and
    /// `right` (a column on one side, any expression over the other; or
    /// expression against expression). With none, the step is a cross
    /// product that later filters may cut down.
    fn plan(
        left: &[QualCol],
        right: &[QualCol],
        conjuncts: &mut Vec<&SqlExpr>,
    ) -> Result<JoinKeys, SqlError> {
        let on_left = |e: &SqlExpr| expr_resolves(e, left);
        let on_right = |e: &SqlExpr| expr_resolves(e, right);
        let mut pairs = Vec::new();
        conjuncts.retain(|&c| {
            let SqlExpr::Binary { op: "=", l, r } = c else {
                return true;
            };
            let (l, r) = (l.as_ref(), r.as_ref());
            // a column of the left relation against an expression that
            // only the right one evaluates (e.g. G1.Q = G2.Q - 1)
            let col_pair = [(l, r), (r, l)].into_iter().find(|(a, b)| {
                matches!(a, SqlExpr::Column { .. }) && on_left(a) && on_right(b) && !on_left(b)
            });
            // general case: expression against expression
            let split =
                |a: &SqlExpr, b: &SqlExpr| on_left(a) && !on_right(a) && on_right(b) && !on_left(b);
            let pair = col_pair.or_else(|| [(l, r), (r, l)].into_iter().find(|(a, b)| split(a, b)));
            match pair {
                Some(p) => {
                    pairs.push(p);
                    false
                }
                None => true,
            }
        });
        let right_alone: Vec<QualCol> = right
            .iter()
            .map(|c| QualCol {
                src: 0,
                ..c.clone()
            })
            .collect();
        let mut keys = JoinKeys {
            left: Vec::with_capacity(pairs.len()),
            right: Vec::with_capacity(pairs.len()),
        };
        for (a, b) in pairs {
            keys.left.push(compile(a, left)?);
            keys.right.push(compile(b, &right_alone)?);
        }
        Ok(keys)
    }

    /// Join `left` (rows over sources `0..k`) with every row of source
    /// `k`: a hash join on the keys, or a cross product without any.
    fn join(&self, tables: &[Cow<'_, Table>], left: &Rows, k: usize) -> Result<Rows, SqlError> {
        let right_len = tables[k].len();
        let mut out = Rows {
            width: k + 1,
            ids: Vec::new(),
        };
        let mut emit = |l: &[usize], ri: usize| {
            out.ids.extend_from_slice(l);
            out.ids.push(ri);
        };
        if self.left.is_empty() {
            for (i, l) in left.iter().enumerate() {
                checkpoint_every(i)?;
                (0..right_len).for_each(|ri| emit(l, ri));
            }
            return Ok(out);
        }
        let (left_tables, right_table) = (&tables[..k], &tables[k..=k]);
        let mut key = Vec::with_capacity(self.left.len());
        let mut index: FxHashMap<Vec<Key<'_>>, Vec<usize>> = FxHashMap::default();
        for ri in 0..right_len {
            checkpoint_every(ri)?;
            let row = Row {
                tables: right_table,
                ids: &[ri],
            };
            if !join_key(&self.right, row, &mut key)? {
                continue;
            }
            match index.get_mut(key.as_slice()) {
                Some(matches) => matches.push(ri),
                None => {
                    index.insert(key.clone(), vec![ri]);
                }
            }
        }
        for (i, l) in left.iter().enumerate() {
            checkpoint_every(i)?;
            let row = Row {
                tables: left_tables,
                ids: l,
            };
            if !join_key(&self.left, row, &mut key)? {
                continue;
            }
            if let Some(matches) = index.get(key.as_slice()) {
                matches.iter().for_each(|&ri| emit(l, ri));
            }
        }
        Ok(out)
    }
}

/// Keep the rows on which every residual conjunct is true.
fn filter(tables: &[Cow<'_, Table>], rows: &mut Rows, filters: &[Expr]) -> Result<(), SqlError> {
    if filters.is_empty() {
        return Ok(());
    }
    let width = rows.width;
    let mut kept = 0;
    for r in 0..rows.len() {
        checkpoint_every(r)?;
        let row = Row {
            tables,
            ids: rows.get(r),
        };
        let mut keep = true;
        for f in filters {
            if !truthy(&*f.eval(row)?) {
                keep = false;
                break;
            }
        }
        if keep {
            rows.ids
                .copy_within(r * width..(r + 1) * width, kept * width);
            kept += 1;
        }
    }
    rows.ids.truncate(kept * width);
    Ok(())
}

/// The compiled SELECT list.
enum Output {
    /// One result row per input row.
    Project(Vec<Expr>),
    /// One result row per group of equal GROUP BY keys (a single group
    /// without GROUP BY, none over an empty input).
    Group {
        keys: Vec<Expr>,
        items: Vec<GroupItem>,
    },
}

enum GroupItem {
    /// The value of the i-th GROUP BY expression.
    Key(usize),
    /// An expression over aggregates.
    Agg(Expr),
}

impl Output {
    fn compile(select: &Select, schema: &[QualCol]) -> Result<Output, SqlError> {
        let items = select
            .items
            .iter()
            .map(|i| compile(&i.expr, schema))
            .collect::<Result<Vec<_>, _>>()?;
        let keys = select
            .group_by
            .iter()
            .map(|g| compile(g, schema))
            .collect::<Result<Vec<_>, _>>()?;
        let needs_group =
            !select.group_by.is_empty() || select.items.iter().any(|i| i.expr.has_aggregate());
        if !needs_group {
            return Ok(Output::Project(items));
        }
        // non-aggregate items must appear in GROUP BY (structurally)
        let items = select
            .items
            .iter()
            .zip(items)
            .map(|(item, expr)| {
                if item.expr.has_aggregate() {
                    return Ok(GroupItem::Agg(expr));
                }
                select
                    .group_by
                    .iter()
                    .position(|g| *g == item.expr)
                    .map(GroupItem::Key)
                    .ok_or_else(|| {
                        SqlError::Execution(format!(
                            "non-aggregated select item must appear in GROUP BY: {:?}",
                            item.expr
                        ))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Output::Group { keys, items })
    }

    fn run(&self, tables: &[Cow<'_, Table>], rows: &Rows) -> Result<Vec<Vec<SqlValue>>, SqlError> {
        match self {
            Output::Project(items) => {
                let mut out = Vec::with_capacity(rows.len());
                for (r, ids) in rows.iter().enumerate() {
                    checkpoint_every(r)?;
                    let row = Row { tables, ids };
                    out.push(
                        items
                            .iter()
                            .map(|e| e.eval(row).map(Cow::into_owned))
                            .collect::<Result<_, _>>()?,
                    );
                }
                Ok(out)
            }
            Output::Group { keys, items } => group(tables, rows, keys, items),
        }
    }
}

/// GROUP BY: number the groups in first-seen order, lay each group's rows
/// out contiguously in row order (a counting sort), then evaluate the
/// items once per group.
fn group(
    tables: &[Cow<'_, Table>],
    rows: &Rows,
    keys: &[Expr],
    items: &[GroupItem],
) -> Result<Vec<Vec<SqlValue>>, SqlError> {
    let mut lookup: FxHashMap<Vec<Key<'_>>, usize> = FxHashMap::default();
    let mut group_of = Vec::with_capacity(rows.len());
    let mut key = Vec::with_capacity(keys.len());
    for (r, ids) in rows.iter().enumerate() {
        checkpoint_every(r)?;
        key.clear();
        for e in keys {
            key.push(Key::of(&e.eval(Row { tables, ids })?));
        }
        let g = match lookup.get(key.as_slice()) {
            Some(&g) => g,
            None => {
                let g = lookup.len();
                lookup.insert(key.clone(), g);
                g
            }
        };
        group_of.push(g);
    }
    let groups = lookup.len();
    drop(lookup);

    let mut start = vec![0usize; groups + 1];
    for &g in &group_of {
        start[g + 1] += 1;
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    let mut next = start.clone();
    let mut members = vec![0usize; group_of.len()];
    for (r, &g) in group_of.iter().enumerate() {
        members[next[g]] = r;
        next[g] += 1;
    }

    let mut scratch = Vec::new();
    let mut out = Vec::with_capacity(groups);
    for g in 0..groups {
        checkpoint_every(g)?;
        let group = &members[start[g]..start[g + 1]];
        // the group's first row, whose key values the group reports
        let first = Row {
            tables,
            ids: rows.get(group[0]),
        };
        let mut new_row = Vec::with_capacity(items.len());
        for item in items {
            new_row.push(match item {
                GroupItem::Key(i) => keys[*i].eval(first)?.into_owned(),
                GroupItem::Agg(e) => e.eval_group(tables, rows, group, &mut scratch)?,
            });
        }
        out.push(new_row);
    }
    Ok(out)
}

fn result_columns(select: &Select) -> Vec<Column> {
    select
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| Column {
            name: item.alias.clone().unwrap_or_else(|| match &item.expr {
                SqlExpr::Column { name, .. } => name.clone(),
                _ => format!("col{}", i + 1),
            }),
            // result types are inferred loosely; DOUBLE is the safe default
            ty: SqlType::Double,
        })
        .collect()
}

/// ORDER BY: a stable sort on keys evaluated against the result columns.
fn order_rows(out: &mut Table, order_by: &[SqlExpr]) -> Result<(), SqlError> {
    let schema: Vec<QualCol> = out
        .columns
        .iter()
        .enumerate()
        .map(|(col, c)| QualCol {
            qualifier: out.name.clone(),
            name: c.name.clone(),
            src: 0,
            col,
        })
        .collect();
    let exprs = order_by
        .iter()
        .map(|e| compile(e, &schema))
        .collect::<Result<Vec<_>, _>>()?;
    // keys first, so errors surface before sorting
    let mut keys: Vec<Vec<SqlValue>> = Vec::with_capacity(out.rows.len());
    {
        let tables = [Cow::Borrowed(&*out)];
        for r in 0..out.rows.len() {
            let row = Row {
                tables: &tables,
                ids: &[r],
            };
            keys.push(
                exprs
                    .iter()
                    .map(|e| e.eval(row).map(Cow::into_owned))
                    .collect::<Result<_, _>>()?,
            );
        }
    }
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| {
        keys[a]
            .iter()
            .zip(&keys[b])
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| !o.is_eq())
            .unwrap_or(Ordering::Equal)
    });
    let mut rows = std::mem::take(&mut out.rows);
    out.rows = order
        .into_iter()
        .map(|r| std::mem::take(&mut rows[r]))
        .collect();
    Ok(())
}
