//! Lexer and parser for the SQL subset the code generator emits.
//!
//! Supported statements:
//!
//! ```sql
//! CREATE TABLE t (c BIGINT, d TIME_QUARTER, m DOUBLE);
//! DROP TABLE t;
//! INSERT INTO t (c, d, m) VALUES (1, '2020-Q1', 2.5), (2, '2020-Q2', 3.5);
//! INSERT INTO t (c, m) SELECT ...;
//! SELECT e [AS a], ... FROM src [alias], src [alias]
//!   [WHERE conj] [GROUP BY e, ...] [ORDER BY e, ...];
//! ```
//!
//! `src` is a table name or a tabular function application
//! (`STL_TREND(GDP)`), the extended-SQL dialect §5.1 relies on. Scalar
//! expressions cover arithmetic, the time functions `QUARTER`/`MONTH`/
//! `YEAR`/`SHIFT_TIME`, math functions, and the aggregate functions of
//! `exl-stats`.

use exl_model::time::{Date, Frequency, TimePoint};
use exl_stats::descriptive::AggFn;

use crate::error::SqlError;
use crate::value::{SqlType, SqlValue};

/// One SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlTok {
    /// Identifier or keyword (uppercased for comparison, original kept).
    Ident(String),
    /// Integer literal (digits only, within `i64`).
    Int(i64),
    /// Other numeric literal.
    Number(f64),
    /// String literal.
    Str(String),
    /// Punctuation / operator.
    Sym(&'static str),
    /// End of input.
    Eof,
}

/// Tokenize SQL text. Comments: `--` to end of line.
pub fn lex_sql(src: &str) -> Result<Vec<SqlTok>, SqlError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '-' if i + 1 < b.len() && b[i + 1] == b'-' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '(' | ')' | ',' | ';' | '+' | '*' | '/' | '.' | '-' => {
                out.push(SqlTok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ';' => ";",
                    '+' => "+",
                    '*' => "*",
                    '/' => "/",
                    '.' => ".",
                    _ => "-",
                }));
                i += 1;
            }
            '=' => {
                out.push(SqlTok::Sym("="));
                i += 1;
            }
            '<' => {
                if i + 1 < b.len() && b[i + 1] == b'>' {
                    out.push(SqlTok::Sym("<>"));
                    i += 2;
                } else if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(SqlTok::Sym("<="));
                    i += 2;
                } else {
                    out.push(SqlTok::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    out.push(SqlTok::Sym(">="));
                    i += 2;
                } else {
                    out.push(SqlTok::Sym(">"));
                    i += 1;
                }
            }
            '\'' => {
                // copy whole segments between quotes, so multi-byte UTF-8
                // text survives; `''` is an escaped quote
                let mut j = i + 1;
                let mut s = String::new();
                loop {
                    let Some(k) = src[j..].find('\'') else {
                        return Err(SqlError::Parse("unterminated string literal".into()));
                    };
                    s.push_str(&src[j..j + k]);
                    j += k + 1;
                    if b.get(j) == Some(&b'\'') {
                        s.push('\'');
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(SqlTok::Str(s));
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                // exponent
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let mut k = i + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && (b[k] as char).is_ascii_digit() {
                        i = k;
                        while i < b.len() && (b[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &src[start..i];
                // digits only (no `.` or exponent): an exact integer,
                // unless it overflows i64
                if let Ok(n) = text.parse::<i64>() {
                    out.push(SqlTok::Int(n));
                    continue;
                }
                let n: f64 = text
                    .parse()
                    .map_err(|_| SqlError::Parse(format!("bad number `{text}`")))?;
                out.push(SqlTok::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(SqlTok::Ident(src[start..i].to_string()));
            }
            other => return Err(SqlError::Parse(format!("unexpected character `{other}`"))),
        }
    }
    out.push(SqlTok::Eof);
    Ok(out)
}

/// A select item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: SqlExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A FROM-clause source.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A base table with an optional alias.
    Table {
        /// Table name.
        name: String,
        /// Alias, if any.
        alias: Option<String>,
    },
    /// A tabular function over table arguments (extended dialect, §5.1).
    TableFn {
        /// Function name (e.g. `STL_TREND`).
        func: String,
        /// Table-name arguments followed by optional numeric arguments.
        args: Vec<TableFnArg>,
        /// Alias, if any.
        alias: Option<String>,
    },
}

/// An argument to a tabular function.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFnArg {
    /// A table name.
    Table(String),
    /// A numeric parameter (e.g. the MOVAVG window).
    Number(f64),
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projections.
    pub items: Vec<SelectItem>,
    /// Sources.
    pub from: Vec<FromItem>,
    /// WHERE conjunction (ANDs flattened by the executor).
    pub where_: Option<SqlExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SqlExpr>,
    /// ORDER BY expressions.
    pub order_by: Vec<SqlExpr>,
}

/// A SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlStmt {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, SqlType)>,
    },
    /// CREATE VIEW — the §6 optimization that avoids materializing
    /// intermediate cubes ("the whole approach can be easily reformulated
    /// in terms of creation of relational views … for temporary cubes").
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        select: Select,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// INSERT … VALUES.
    InsertValues {
        /// Target table.
        table: String,
        /// Target columns.
        columns: Vec<String>,
        /// Literal rows.
        rows: Vec<Vec<SqlValue>>,
    },
    /// INSERT … SELECT.
    InsertSelect {
        /// Target table.
        table: String,
        /// Target columns.
        columns: Vec<String>,
        /// The query.
        select: Select,
    },
    /// Bare SELECT.
    Select(Select),
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified (`G1.Q`).
    Column {
        /// Table alias or name qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Literal value.
    Literal(SqlValue),
    /// Binary operation; `op` is one of `+ - * / = <> < <= > >= AND`.
    Binary {
        /// Operator symbol.
        op: &'static str,
        /// Left operand.
        l: Box<SqlExpr>,
        /// Right operand.
        r: Box<SqlExpr>,
    },
    /// Scalar function call.
    Func {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
    },
    /// Aggregate function call.
    Agg {
        /// The aggregation.
        func: AggFn,
        /// Aggregated expression.
        arg: Box<SqlExpr>,
    },
}

impl SqlExpr {
    /// True when the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            SqlExpr::Agg { .. } => true,
            SqlExpr::Binary { l, r, .. } => l.has_aggregate() || r.has_aggregate(),
            SqlExpr::Func { args, .. } => args.iter().any(|a| a.has_aggregate()),
            _ => false,
        }
    }
}

/// Parse a semicolon-separated SQL script.
pub fn parse_script(src: &str) -> Result<Vec<SqlStmt>, SqlError> {
    let toks = lex_sql(src)?;
    let mut p = P { toks, at: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_sym(";") {}
        if p.peek() == &SqlTok::Eof {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parse a single SQL statement.
pub fn parse_statement(src: &str) -> Result<SqlStmt, SqlError> {
    let stmts = parse_script(src)?;
    match stmts.len() {
        1 => Ok(stmts.into_iter().next().unwrap()),
        n => Err(SqlError::Parse(format!(
            "expected one statement, found {n}"
        ))),
    }
}

struct P {
    toks: Vec<SqlTok>,
    at: usize,
}

impl P {
    fn peek(&self) -> &SqlTok {
        &self.toks[self.at]
    }

    fn bump(&mut self) -> SqlTok {
        let t = self.toks[self.at].clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), SqlTok::Sym(x) if *x == s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<(), SqlError> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected `{s}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), SqlTok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            SqlTok::Ident(s) => Ok(s),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> Result<SqlStmt, SqlError> {
        if self.eat_kw("CREATE") {
            if self.eat_kw("VIEW") {
                let name = self.ident()?;
                self.expect_kw("AS")?;
                let select = self.select()?;
                return Ok(SqlStmt::CreateView { name, select });
            }
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                let col = self.ident()?;
                let ty_name = self.ident()?;
                let ty = SqlType::parse(&ty_name)
                    .ok_or_else(|| SqlError::Parse(format!("unknown type `{ty_name}`")))?;
                columns.push((col, ty));
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(SqlStmt::CreateTable { name, columns });
        }
        if self.eat_kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(SqlStmt::DropTable { name });
        }
        if self.eat_kw("INSERT") {
            self.expect_kw("INTO")?;
            let table = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            if self.eat_kw("VALUES") {
                let mut rows = Vec::new();
                loop {
                    self.expect_sym("(")?;
                    let mut row = Vec::new();
                    loop {
                        row.push(self.literal()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                    self.expect_sym(")")?;
                    rows.push(row);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                return Ok(SqlStmt::InsertValues {
                    table,
                    columns,
                    rows,
                });
            }
            let select = self.select()?;
            return Ok(SqlStmt::InsertSelect {
                table,
                columns,
                select,
            });
        }
        if self.peek_kw("SELECT") {
            return Ok(SqlStmt::Select(self.select()?));
        }
        Err(SqlError::Parse(format!(
            "expected statement, found {:?}",
            self.peek()
        )))
    }

    fn literal(&mut self) -> Result<SqlValue, SqlError> {
        let neg = self.eat_sym("-");
        match self.bump() {
            SqlTok::Int(i) => Ok(SqlValue::Int(if neg { -i } else { i })),
            SqlTok::Number(n) => {
                let v = if neg { -n } else { n };
                // integral decimals read as ints, except -0.0: an int
                // would drop its sign
                Ok(
                    if v.fract() == 0.0 && v.abs() < 9e15 && !(v == 0.0 && neg) {
                        SqlValue::Int(v as i64)
                    } else {
                        SqlValue::Double(v)
                    },
                )
            }
            SqlTok::Str(s) => Ok(SqlValue::Text(s)),
            SqlTok::Ident(s) if s.eq_ignore_ascii_case("NULL") => Ok(SqlValue::Null),
            other => Err(SqlError::Parse(format!(
                "expected literal, found {other:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("SELECT")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("AS") {
                Some(self.ident()?)
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        loop {
            from.push(self.source_item()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_ = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        Ok(Select {
            items,
            from,
            where_,
            group_by,
            order_by,
        })
    }

    fn source_item(&mut self) -> Result<FromItem, SqlError> {
        let name = self.ident()?;
        if self.eat_sym("(") {
            // tabular function
            let mut args = Vec::new();
            if !self.eat_sym(")") {
                loop {
                    match self.bump() {
                        SqlTok::Ident(t) => args.push(TableFnArg::Table(t)),
                        SqlTok::Int(n) => args.push(TableFnArg::Number(n as f64)),
                        SqlTok::Number(n) => args.push(TableFnArg::Number(n)),
                        other => {
                            return Err(SqlError::Parse(format!(
                                "expected table name or number in tabular function, found {other:?}"
                            )))
                        }
                    }
                    if !self.eat_sym(",") {
                        break;
                    }
                }
                self.expect_sym(")")?;
            }
            let alias = self.opt_alias()?;
            return Ok(FromItem::TableFn {
                func: name.to_uppercase(),
                args,
                alias,
            });
        }
        let alias = self.opt_alias()?;
        Ok(FromItem::Table { name, alias })
    }

    fn opt_alias(&mut self) -> Result<Option<String>, SqlError> {
        // bare identifier that is not a clause keyword
        if let SqlTok::Ident(s) = self.peek() {
            let up = s.to_uppercase();
            if !["WHERE", "GROUP", "ORDER", "FROM", "AS"].contains(&up.as_str()) {
                return Ok(Some(self.ident()?));
            }
            if up == "AS" {
                self.bump();
                return Ok(Some(self.ident()?));
            }
        }
        Ok(None)
    }

    // expression precedence: AND < comparisons < additive < multiplicative < unary/primary
    fn expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.comparison()?;
        while self.eat_kw("AND") {
            let rhs = self.comparison()?;
            lhs = SqlExpr::Binary {
                op: "AND",
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<SqlExpr, SqlError> {
        let lhs = self.additive()?;
        for op in ["=", "<>", "<=", ">=", "<", ">"] {
            if self.eat_sym(op) {
                let rhs = self.additive()?;
                return Ok(SqlExpr::Binary {
                    op: match op {
                        "=" => "=",
                        "<>" => "<>",
                        "<=" => "<=",
                        ">=" => ">=",
                        "<" => "<",
                        _ => ">",
                    },
                    l: Box::new(lhs),
                    r: Box::new(rhs),
                });
            }
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = if self.eat_sym("+") {
                "+"
            } else if self.eat_sym("-") {
                "-"
            } else {
                break;
            };
            let rhs = self.multiplicative()?;
            lhs = SqlExpr::Binary {
                op,
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr, SqlError> {
        let mut lhs = self.unary()?;
        loop {
            let op = if self.eat_sym("*") {
                "*"
            } else if self.eat_sym("/") {
                "/"
            } else {
                break;
            };
            let rhs = self.unary()?;
            lhs = SqlExpr::Binary {
                op,
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<SqlExpr, SqlError> {
        if self.eat_sym("-") {
            let e = self.unary()?;
            if let SqlExpr::Literal(SqlValue::Int(i)) = e {
                return Ok(SqlExpr::Literal(SqlValue::Int(-i)));
            }
            if let SqlExpr::Literal(SqlValue::Double(d)) = e {
                return Ok(SqlExpr::Literal(SqlValue::Double(-d)));
            }
            return Ok(SqlExpr::Binary {
                op: "*",
                l: Box::new(SqlExpr::Literal(SqlValue::Int(-1))),
                r: Box::new(e),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, SqlError> {
        match self.bump() {
            SqlTok::Int(i) => Ok(SqlExpr::Literal(SqlValue::Int(i))),
            SqlTok::Number(n) => Ok(SqlExpr::Literal(if n.fract() == 0.0 && n.abs() < 9e15 {
                SqlValue::Int(n as i64)
            } else {
                SqlValue::Double(n)
            })),
            SqlTok::Str(s) => Ok(SqlExpr::Literal(SqlValue::Text(s))),
            SqlTok::Sym("(") => {
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            SqlTok::Ident(name) => {
                if name.eq_ignore_ascii_case("NULL") {
                    return Ok(SqlExpr::Literal(SqlValue::Null));
                }
                if self.eat_sym("(") {
                    let mut args = Vec::new();
                    if !self.eat_sym(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_sym(",") {
                                break;
                            }
                        }
                        self.expect_sym(")")?;
                    }
                    let upper = name.to_uppercase();
                    if let Some(agg) = parse_agg(&upper) {
                        if args.len() != 1 {
                            return Err(SqlError::Parse(format!(
                                "{upper} takes exactly one argument"
                            )));
                        }
                        return Ok(SqlExpr::Agg {
                            func: agg,
                            arg: Box::new(args.into_iter().next().unwrap()),
                        });
                    }
                    return Ok(SqlExpr::Func { name: upper, args });
                }
                if self.eat_sym(".") {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(SqlExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(SqlError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

fn parse_agg(name: &str) -> Option<AggFn> {
    match name {
        "SUM" => Some(AggFn::Sum),
        "AVG" => Some(AggFn::Avg),
        "MIN" => Some(AggFn::Min),
        "MAX" => Some(AggFn::Max),
        "COUNT" => Some(AggFn::Count),
        "MEDIAN" => Some(AggFn::Median),
        "STDDEV" => Some(AggFn::StdDev),
        "PRODUCT" => Some(AggFn::Product),
        _ => None,
    }
}

/// Parse a time literal string at a given frequency: `YYYY-MM-DD`,
/// `YYYY-Mmm`, `YYYY-Qq`, or `YYYY`.
pub fn parse_time_literal(s: &str, freq: Frequency) -> Option<TimePoint> {
    match freq {
        Frequency::Daily => {
            // a leading `-` is the year's sign, not a separator
            let (sign, ymd) = match s.strip_prefix('-') {
                Some(rest) => (-1, rest),
                None => (1, s),
            };
            let mut it = ymd.split('-');
            let y: i32 = sign * it.next()?.parse::<i32>().ok()?;
            let m: u32 = it.next()?.parse().ok()?;
            let d: u32 = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            Date::from_ymd(y, m, d).map(TimePoint::Day)
        }
        Frequency::Monthly => {
            let (y, rest) = s.split_once("-M")?;
            let year: i32 = y.parse().ok()?;
            let month: u32 = rest.parse().ok()?;
            TimePoint::month(year, month)
        }
        Frequency::Quarterly => {
            let (y, rest) = s.split_once("-Q")?;
            let year: i32 = y.parse().ok()?;
            let quarter: u32 = rest.parse().ok()?;
            TimePoint::quarter(year, quarter)
        }
        Frequency::Yearly => s.parse().ok().map(TimePoint::Year),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_create_table() {
        let s = parse_statement("CREATE TABLE RGDP (Q TIME_QUARTER, R VARCHAR, P DOUBLE)").unwrap();
        match s {
            SqlStmt::CreateTable { name, columns } => {
                assert_eq!(name, "RGDP");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0].1, SqlType::Time(Frequency::Quarterly));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_paper_tgd2_sql() {
        // the statement the paper's §5.1 shows for tgd (2)
        let sql = r#"
            INSERT INTO RGDP(Q,R,P)
            SELECT C2.Q AS Q, C2.R AS R, C1.P*C2.G AS P
            FROM PQR C1, RGDPPC C2
            WHERE C1.Q = C2.Q AND C1.R = C2.R
        "#;
        let s = parse_statement(sql).unwrap();
        match s {
            SqlStmt::InsertSelect {
                table,
                columns,
                select,
            } => {
                assert_eq!(table, "RGDP");
                assert_eq!(columns, vec!["Q", "R", "P"]);
                assert_eq!(select.items.len(), 3);
                assert_eq!(select.from.len(), 2);
                assert!(select.where_.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_group_by_aggregate() {
        let sql = "INSERT INTO GDP(Q, G) SELECT Q, SUM(G) AS G FROM RGDP GROUP BY Q";
        let s = parse_statement(sql).unwrap();
        match s {
            SqlStmt::InsertSelect { select, .. } => {
                assert_eq!(select.group_by.len(), 1);
                assert!(select.items[1].expr.has_aggregate());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_tabular_function_from() {
        let sql = "INSERT INTO GDPT(Q,G) SELECT Q, G FROM STL_TREND(GDP)";
        let s = parse_statement(sql).unwrap();
        match s {
            SqlStmt::InsertSelect { select, .. } => match &select.from[0] {
                FromItem::TableFn { func, args, .. } => {
                    assert_eq!(func, "STL_TREND");
                    assert_eq!(args, &vec![TableFnArg::Table("GDP".into())]);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_values_with_time_strings_and_negatives() {
        let sql = "INSERT INTO T (Q, V) VALUES ('2020-Q1', 1.5), ('2020-Q2', -2)";
        match parse_statement(sql).unwrap() {
            SqlStmt::InsertValues { rows, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0][0], SqlValue::Text("2020-Q1".into()));
                assert_eq!(rows[1][1], SqlValue::Int(-2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let sql = "SELECT (A - B) * 100 / A FROM T";
        match parse_statement(sql).unwrap() {
            SqlStmt::Select(sel) => {
                // ((A-B)*100)/A
                match &sel.items[0].expr {
                    SqlExpr::Binary { op: "/", l, .. } => match l.as_ref() {
                        SqlExpr::Binary { op: "*", .. } => {}
                        other => panic!("{other:?}"),
                    },
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    /// Literals read back exactly what `SqlValue::to_literal` and `{:?}`
    /// write: all of `i64`, the sign of `-0.0`, and UTF-8 text.
    #[test]
    fn literals_round_trip_exactly() {
        let sql = "INSERT INTO T (A, B, C, D, E) VALUES \
                   (9007199254740993, -9223372036854775808, -0.0, 'Zürich ''Ost''', 1.0)";
        match parse_statement(sql).unwrap() {
            SqlStmt::InsertValues { rows, .. } => {
                assert_eq!(rows[0][0], SqlValue::Int(9007199254740993));
                // i64::MIN overflows as a positive literal: it reads as a
                // double that a BIGINT column converts back exactly
                assert_eq!(rows[0][1], SqlValue::Double(-9223372036854775808.0));
                match rows[0][2] {
                    SqlValue::Double(z) => assert_eq!(z.to_bits(), (-0.0f64).to_bits()),
                    ref other => panic!("{other:?}"),
                }
                assert_eq!(rows[0][3], SqlValue::Text("Zürich 'Ost'".into()));
                assert_eq!(rows[0][4], SqlValue::Int(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_time_literals() {
        assert_eq!(
            parse_time_literal("2020-03-05", Frequency::Daily),
            Some(TimePoint::Day(Date::from_ymd(2020, 3, 5).unwrap()))
        );
        assert_eq!(
            parse_time_literal("2020-M07", Frequency::Monthly),
            TimePoint::month(2020, 7)
        );
        assert_eq!(
            parse_time_literal("2020-Q4", Frequency::Quarterly),
            TimePoint::quarter(2020, 4)
        );
        assert_eq!(
            parse_time_literal("1999", Frequency::Yearly),
            Some(TimePoint::Year(1999))
        );
        let bc = TimePoint::Day(Date::from_ymd(-44, 3, 15).unwrap());
        assert_eq!(bc.to_string(), "-044-03-15");
        assert_eq!(parse_time_literal("-044-03-15", Frequency::Daily), Some(bc));
        assert_eq!(parse_time_literal("2020-Q5", Frequency::Quarterly), None);
        assert_eq!(parse_time_literal("garbage", Frequency::Daily), None);
    }

    #[test]
    fn script_parses_multiple_statements() {
        let script = "CREATE TABLE A (K BIGINT, V DOUBLE); INSERT INTO A (K, V) VALUES (1, 2.0);";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_statement("SELEKT 1").is_err());
        assert!(parse_statement("SELECT FROM T").is_err());
        assert!(parse_statement("CREATE TABLE T (X BLOB)").is_err());
        assert!(parse_statement("INSERT INTO T (A) VALUES (1), (2,3)").is_ok()); // arity checked at exec
        assert!(lex_sql("SELECT 'oops").is_err());
    }

    #[test]
    fn order_by_and_quoted_quotes() {
        let s = parse_statement("SELECT A FROM T ORDER BY A, B").unwrap();
        match s {
            SqlStmt::Select(sel) => assert_eq!(sel.order_by.len(), 2),
            other => panic!("{other:?}"),
        }
        match parse_statement("SELECT 'it''s' FROM T").unwrap() {
            SqlStmt::Select(sel) => {
                assert_eq!(
                    sel.items[0].expr,
                    SqlExpr::Literal(SqlValue::Text("it's".into()))
                )
            }
            other => panic!("{other:?}"),
        }
    }
}
