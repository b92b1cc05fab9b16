//! Lexer, parser and evaluator for the generated Matlab subset.
//!
//! Statements are `x = expr` or indexed assignments `x(:, k) = expr`,
//! separated by newlines or `;`; `%` starts a comment. Expressions cover
//! numeric literals, `'strings'`, ranges (`1:2`), horizontal concatenation
//! (`[a b c]`), logical/colon indexing (`m(:,3)`, `m(mask,:)`),
//! element-wise arithmetic (`+ - .* ./ .^`), scalar `*` and `/`, and the
//! statistical builtins the generator relies on (`join`, `aggregate`,
//! `isolateTrend`, `convertTime`, `isfinite`, …).

use std::collections::BTreeMap;

use exl_model::time::Frequency;
use exl_model::TimePoint;
use exl_stats::descriptive::AggFn;
use exl_stats::seriesop::SeriesOp;

use crate::error::MatError;
use crate::matrix::Matrix;

// ---------------------------------------------------------------- lexing

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Sym(&'static str),
    Sep,
    Eof,
}

fn lex(src: &str) -> Result<Vec<Tok>, MatError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out: Vec<Tok> = Vec::new();
    let mut bracket_depth = 0usize;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            '\n' | ';' => {
                if !matches!(out.last(), Some(Tok::Sep) | None) {
                    out.push(Tok::Sep);
                }
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '%' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            '.' if i + 1 < b.len() && matches!(b[i + 1], b'*' | b'/' | b'^') => {
                out.push(Tok::Sym(match b[i + 1] {
                    b'*' => ".*",
                    b'/' => "./",
                    _ => ".^",
                }));
                i += 2;
            }
            '(' | ')' | ',' | ':' | '+' | '-' | '*' | '/' | '^' | '=' => {
                out.push(Tok::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    ':' => ":",
                    '+' => "+",
                    '-' => "-",
                    '*' => "*",
                    '/' => "/",
                    '^' => "^",
                    _ => "=",
                }));
                i += 1;
            }
            '[' => {
                bracket_depth += 1;
                out.push(Tok::Sym("["));
                i += 1;
            }
            ']' => {
                bracket_depth = bracket_depth.saturating_sub(1);
                out.push(Tok::Sym("]"));
                i += 1;
            }
            '\'' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(MatError::parse("unterminated string"));
                }
                out.push(Tok::Str(src[i + 1..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < b.len() && (b[i] as char).is_ascii_digit() {
                    i += 1;
                }
                // decimal part — but not the start of an elementwise op
                if i + 1 < b.len() && b[i] == b'.' && (b[i + 1] as char).is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                out.push(Tok::Num(
                    text.parse()
                        .map_err(|_| MatError::parse(format!("bad number `{text}`")))?,
                ));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && ((b[i] as char).is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            other => return Err(MatError::parse(format!("unexpected character `{other}`"))),
        }
    }
    let _ = bracket_depth;
    out.push(Tok::Eof);
    Ok(out)
}

// ---------------------------------------------------------------- parsing

/// A Matlab expression.
#[derive(Debug, Clone, PartialEq)]
enum MExpr {
    Num(f64),
    Str(String),
    Ident(String),
    /// `name(arg, …)` — indexing when `name` is a variable, a builtin
    /// call otherwise (Matlab's ambiguity, resolved at evaluation).
    Apply {
        name: String,
        args: Vec<MExpr>,
    },
    /// A bare `:` argument.
    Colon,
    /// `a:b` range.
    Range(Box<MExpr>, Box<MExpr>),
    /// `[e1 e2 …]` horizontal concatenation.
    HCat(Vec<MExpr>),
    Binary {
        op: &'static str,
        l: Box<MExpr>,
        r: Box<MExpr>,
    },
    Neg(Box<MExpr>),
}

#[derive(Debug, Clone, PartialEq)]
enum MStmt {
    Assign {
        var: String,
        expr: MExpr,
    },
    IndexAssign {
        var: String,
        col: MExpr,
        expr: MExpr,
    },
}

fn parse(src: &str) -> Result<Vec<MStmt>, MatError> {
    let toks = lex(src)?;
    let mut p = P { toks, at: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&Tok::Sep) {}
        if p.peek() == &Tok::Eof {
            break;
        }
        out.push(p.statement()?);
        if !matches!(p.peek(), Tok::Sep | Tok::Eof) {
            return Err(MatError::parse(format!(
                "expected end of statement, found {:?}",
                p.peek()
            )));
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    at: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.at]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.at].clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &'static str) -> Result<(), MatError> {
        if self.eat(&Tok::Sym(s)) {
            Ok(())
        } else {
            Err(MatError::parse(format!(
                "expected `{s}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn statement(&mut self) -> Result<MStmt, MatError> {
        let Tok::Ident(var) = self.bump() else {
            return Err(MatError::parse("expected identifier at statement start"));
        };
        if self.eat(&Tok::Sym("(")) {
            // x(:, col) = expr
            self.expect(":")?;
            self.expect(",")?;
            let col = self.expr()?;
            self.expect(")")?;
            self.expect("=")?;
            let expr = self.expr()?;
            return Ok(MStmt::IndexAssign { var, col, expr });
        }
        self.expect("=")?;
        let expr = self.expr()?;
        Ok(MStmt::Assign { var, expr })
    }

    fn expr(&mut self) -> Result<MExpr, MatError> {
        let mut lhs = self.term()?;
        loop {
            let op = if self.eat(&Tok::Sym("+")) {
                "+"
            } else if self.eat(&Tok::Sym("-")) {
                "-"
            } else {
                break;
            };
            let rhs = self.term()?;
            lhs = MExpr::Binary {
                op,
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<MExpr, MatError> {
        let mut lhs = self.power()?;
        loop {
            let op = if self.eat(&Tok::Sym(".*")) {
                ".*"
            } else if self.eat(&Tok::Sym("./")) {
                "./"
            } else if self.eat(&Tok::Sym("*")) {
                "*"
            } else if self.eat(&Tok::Sym("/")) {
                "/"
            } else {
                break;
            };
            let rhs = self.power()?;
            lhs = MExpr::Binary {
                op,
                l: Box::new(lhs),
                r: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<MExpr, MatError> {
        let base = self.range()?;
        if self.eat(&Tok::Sym(".^")) || self.eat(&Tok::Sym("^")) {
            let e = self.range()?;
            return Ok(MExpr::Binary {
                op: ".^",
                l: Box::new(base),
                r: Box::new(e),
            });
        }
        Ok(base)
    }

    fn range(&mut self) -> Result<MExpr, MatError> {
        let lo = self.unary()?;
        if self.eat(&Tok::Sym(":")) {
            let hi = self.unary()?;
            return Ok(MExpr::Range(Box::new(lo), Box::new(hi)));
        }
        Ok(lo)
    }

    fn unary(&mut self) -> Result<MExpr, MatError> {
        if self.eat(&Tok::Sym("-")) {
            let e = self.unary()?;
            if let MExpr::Num(n) = e {
                return Ok(MExpr::Num(-n));
            }
            return Ok(MExpr::Neg(Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<MExpr, MatError> {
        match self.bump() {
            Tok::Num(n) => Ok(MExpr::Num(n)),
            Tok::Str(s) => Ok(MExpr::Str(s)),
            Tok::Sym("(") => {
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Tok::Sym("[") => {
                let mut items = Vec::new();
                while !self.eat(&Tok::Sym("]")) {
                    items.push(self.expr()?);
                }
                Ok(MExpr::HCat(items))
            }
            Tok::Ident(name) => {
                if self.eat(&Tok::Sym("(")) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::Sym(")")) {
                        loop {
                            if self.peek() == &Tok::Sym(":")
                                && matches!(
                                    self.toks.get(self.at + 1),
                                    Some(Tok::Sym(",")) | Some(Tok::Sym(")"))
                                )
                            {
                                self.bump();
                                args.push(MExpr::Colon);
                            } else {
                                args.push(self.expr()?);
                            }
                            if !self.eat(&Tok::Sym(",")) {
                                break;
                            }
                        }
                        self.expect(")")?;
                    }
                    Ok(MExpr::Apply { name, args })
                } else {
                    Ok(MExpr::Ident(name))
                }
            }
            other => Err(MatError::parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

// --------------------------------------------------------------- values

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
enum MVal {
    Scalar(f64),
    Str(String),
    Matrix(Matrix),
    /// A 1-based column index list (from ranges or `[1 2]` literals used
    /// as join/aggregate keys).
    Cols(Vec<usize>),
}

impl MVal {
    fn as_scalar(&self) -> Option<f64> {
        match self {
            MVal::Scalar(s) => Some(*s),
            MVal::Matrix(m) if m.nrows() == 1 && m.ncols == 1 => Some(m.rows[0][0]),
            _ => None,
        }
    }

    fn into_matrix(self) -> Result<Matrix, MatError> {
        match self {
            MVal::Matrix(m) => Ok(m),
            MVal::Scalar(s) => Ok(Matrix::scalar(s)),
            other => Err(MatError::eval(format!("expected a matrix, got {other:?}"))),
        }
    }

    fn into_cols(self) -> Result<Vec<usize>, MatError> {
        match self {
            MVal::Cols(c) => Ok(c),
            MVal::Scalar(s) if s.fract() == 0.0 && s >= 1.0 => Ok(vec![s as usize]),
            MVal::Matrix(m) if m.nrows() == 1 => m.rows[0]
                .iter()
                .map(|&v| {
                    if v.fract() == 0.0 && v >= 1.0 {
                        Ok(v as usize)
                    } else {
                        Err(MatError::eval(format!("bad column index {v}")))
                    }
                })
                .collect(),
            other => Err(MatError::eval(format!(
                "expected column indices, got {other:?}"
            ))),
        }
    }
}

// ------------------------------------------------------------ interpreter

/// The mini-Matlab interpreter: a variable environment of matrices.
#[derive(Debug, Clone, Default)]
pub struct MatInterp {
    env: BTreeMap<String, Matrix>,
}

impl MatInterp {
    /// Fresh interpreter.
    pub fn new() -> MatInterp {
        MatInterp::default()
    }

    /// Bind a matrix (how encoded cube data enters the engine).
    pub fn bind(&mut self, name: impl Into<String>, m: Matrix) {
        self.env.insert(name.into(), m);
    }

    /// Fetch a matrix by name.
    pub fn matrix(&self, name: &str) -> Option<&Matrix> {
        self.env.get(name)
    }

    /// Run a script, with one `matmini.stmt` child span of `trace` per
    /// executed statement (attrs: `index`, `var`); pass
    /// [`Span::disabled`](exl_obs::Span::disabled) to trace nothing.
    pub fn run(&mut self, src: &str, trace: &exl_obs::Span) -> Result<(), MatError> {
        exl_fault::check("matmini.run").map_err(|e| MatError::eval(e.to_string()))?;
        for (i, stmt) in parse(src)?.iter().enumerate() {
            // governance checkpoint per statement: a cancelled or
            // over-budget run stops between statements
            exl_fault::govern::checkpoint()?;
            let span = trace.child("matmini.stmt");
            span.set_attr("index", i as u64);
            let (MStmt::Assign { var, .. } | MStmt::IndexAssign { var, .. }) = stmt;
            span.set_attr("var", var.clone());
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::Statement,
                "matmini.run",
                || format!("stmt {i}: assign {var}"),
            );
            if let Err(e) = self.exec(stmt) {
                span.add_event(e.to_string());
                span.set_attr("status", "failed");
                return Err(e);
            }
        }
        Ok(())
    }

    fn exec(&mut self, stmt: &MStmt) -> Result<(), MatError> {
        match stmt {
            MStmt::Assign { var, expr } => {
                let v = self.eval(expr)?.into_matrix()?;
                self.env.insert(var.clone(), v);
                Ok(())
            }
            MStmt::IndexAssign { var, col, expr } => {
                let col_val = self.eval(col)?;
                let c = col_val
                    .as_scalar()
                    .filter(|c| c.fract() == 0.0 && *c >= 1.0)
                    .ok_or_else(|| MatError::eval("column index must be a positive integer"))?
                    as usize;
                let value = self.eval(expr)?.into_matrix()?;
                let m = self
                    .env
                    .get_mut(var)
                    .ok_or_else(|| MatError::eval(format!("undefined variable `{var}`")))?;
                if value.ncols != 1 {
                    return Err(MatError::eval("column assignment needs a column vector"));
                }
                let col_vals: Vec<f64> = if value.nrows() == 1 {
                    vec![value.rows[0][0]; m.nrows()]
                } else {
                    if value.nrows() != m.nrows() {
                        return Err(MatError::eval(format!(
                            "column assignment: {} rows vs {}",
                            value.nrows(),
                            m.nrows()
                        )));
                    }
                    value.rows.iter().map(|r| r[0]).collect()
                };
                if c == m.ncols + 1 {
                    // appending a new column
                    m.ncols += 1;
                    for (row, v) in m.rows.iter_mut().zip(col_vals) {
                        row.push(v);
                    }
                } else if c <= m.ncols {
                    for (row, v) in m.rows.iter_mut().zip(col_vals) {
                        row[c - 1] = v;
                    }
                } else {
                    return Err(MatError::eval(format!(
                        "column index {c} out of bounds (matrix has {} columns)",
                        m.ncols
                    )));
                }
                Ok(())
            }
        }
    }

    fn eval(&self, expr: &MExpr) -> Result<MVal, MatError> {
        match expr {
            MExpr::Num(n) => Ok(MVal::Scalar(*n)),
            MExpr::Str(s) => Ok(MVal::Str(s.clone())),
            MExpr::Colon => Err(MatError::eval("`:` outside an indexing context")),
            MExpr::Ident(name) => self
                .env
                .get(name)
                .cloned()
                .map(MVal::Matrix)
                .ok_or_else(|| MatError::eval(format!("undefined variable `{name}`"))),
            MExpr::Range(lo, hi) => {
                let l = self
                    .eval(lo)?
                    .as_scalar()
                    .ok_or_else(|| MatError::eval("range bounds must be scalars"))?;
                let h = self
                    .eval(hi)?
                    .as_scalar()
                    .ok_or_else(|| MatError::eval("range bounds must be scalars"))?;
                if l.fract() != 0.0 || h.fract() != 0.0 || l < 1.0 || h < l {
                    return Err(MatError::eval(format!("bad range {l}:{h}")));
                }
                Ok(MVal::Cols((l as usize..=h as usize).collect()))
            }
            MExpr::HCat(items) => {
                let parts: Vec<Matrix> = items
                    .iter()
                    .map(|e| self.eval(e)?.into_matrix())
                    .collect::<Result<_, _>>()?;
                Ok(MVal::Matrix(Matrix::hcat(&parts)?))
            }
            MExpr::Neg(inner) => match self.eval(inner)? {
                MVal::Scalar(s) => Ok(MVal::Scalar(-s)),
                MVal::Matrix(m) => Ok(MVal::Matrix(map_matrix(&m, |x| -x))),
                other => Err(MatError::eval(format!("cannot negate {other:?}"))),
            },
            MExpr::Binary { op, l, r } => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                arith(op, a, b)
            }
            MExpr::Apply { name, args } => {
                if self.env.contains_key(name) {
                    self.index(name, args)
                } else {
                    self.call(name, args)
                }
            }
        }
    }

    /// `m(:,k)` column extraction / `m(mask,:)` row filtering.
    fn index(&self, name: &str, args: &[MExpr]) -> Result<MVal, MatError> {
        let m = &self.env[name];
        match args {
            [MExpr::Colon, col] => {
                let c = self
                    .eval(col)?
                    .as_scalar()
                    .filter(|c| c.fract() == 0.0 && *c >= 1.0)
                    .ok_or_else(|| MatError::eval("column index must be a positive integer"))?
                    as usize;
                Ok(MVal::Matrix(Matrix::column(m.col(c - 1)?)))
            }
            [mask, MExpr::Colon] => {
                let mv = self.eval(mask)?.into_matrix()?;
                if mv.ncols != 1 {
                    return Err(MatError::eval("row mask must be a column vector"));
                }
                let mask: Vec<f64> = mv.rows.iter().map(|r| r[0]).collect();
                Ok(MVal::Matrix(m.filter_rows(&mask)?))
            }
            _ => Err(MatError::eval(format!(
                "unsupported indexing of `{name}` with {} arguments",
                args.len()
            ))),
        }
    }

    fn call(&self, name: &str, args: &[MExpr]) -> Result<MVal, MatError> {
        let eval_all = |this: &Self| -> Result<Vec<MVal>, MatError> {
            args.iter().map(|a| this.eval(a)).collect()
        };
        match name {
            "join" => {
                let vals = eval_all(self)?;
                let [a, ka, b, kb] = vals.as_slice() else {
                    return Err(MatError::eval("join takes (A, keysA, B, keysB)"));
                };
                let a = a.clone().into_matrix()?;
                let b = b.clone().into_matrix()?;
                let ka = ka.clone().into_cols()?;
                let kb = kb.clone().into_cols()?;
                join(&a, &ka, &b, &kb)
            }
            "aggregate" => {
                let vals = eval_all(self)?;
                let [m, keys, vcol, fun] = vals.as_slice() else {
                    return Err(MatError::eval(
                        "aggregate takes (M, keyCols, valCol, 'fun')",
                    ));
                };
                let m = m.clone().into_matrix()?;
                let keys = keys.clone().into_cols()?;
                let vcol = vcol
                    .as_scalar()
                    .filter(|c| c.fract() == 0.0 && *c >= 1.0)
                    .ok_or_else(|| MatError::eval("aggregate: bad value column"))?
                    as usize;
                let MVal::Str(fun) = fun else {
                    return Err(MatError::eval("aggregate: function name must be a string"));
                };
                let agg = match fun.as_str() {
                    "mean" => AggFn::Avg,
                    other => AggFn::parse(other).ok_or_else(|| {
                        MatError::eval(format!("aggregate: unknown function '{other}'"))
                    })?,
                };
                aggregate(&m, &keys, vcol, agg)
            }
            "isfinite" => {
                let vals = eval_all(self)?;
                let [v] = vals.as_slice() else {
                    return Err(MatError::eval("isfinite takes one argument"));
                };
                let m = v.clone().into_matrix()?;
                Ok(MVal::Matrix(map_matrix(&m, |x| {
                    x.is_finite() as i64 as f64
                })))
            }
            "log" | "exp" | "sqrt" | "abs" | "sin" | "cos" => {
                let f: fn(f64) -> f64 = match name {
                    "log" => f64::ln,
                    "exp" => f64::exp,
                    "sqrt" => f64::sqrt,
                    "abs" => f64::abs,
                    "sin" => f64::sin,
                    _ => f64::cos,
                };
                let vals = eval_all(self)?;
                let [v] = vals.as_slice() else {
                    return Err(MatError::eval(format!("{name} takes one argument")));
                };
                match v {
                    MVal::Scalar(s) => Ok(MVal::Scalar(f(*s))),
                    other => Ok(MVal::Matrix(map_matrix(&other.clone().into_matrix()?, f))),
                }
            }
            "convertTime" => {
                let vals = eval_all(self)?;
                let [v, from, to] = vals.as_slice() else {
                    return Err(MatError::eval("convertTime takes (v, 'from', 'to')"));
                };
                let (MVal::Str(from), MVal::Str(to)) = (from, to) else {
                    return Err(MatError::eval("convertTime: frequencies must be strings"));
                };
                let from = Frequency::parse(from)
                    .ok_or_else(|| MatError::eval(format!("unknown frequency '{from}'")))?;
                let to = Frequency::parse(to)
                    .ok_or_else(|| MatError::eval(format!("unknown frequency '{to}'")))?;
                let m = v.clone().into_matrix()?;
                let mut out = Matrix::new(m.ncols);
                for row in &m.rows {
                    let converted: Vec<f64> = row
                        .iter()
                        .map(|&x| {
                            if x.fract() != 0.0 {
                                return Err(MatError::eval(format!("non-integral time index {x}")));
                            }
                            let t = TimePoint::from_index(from, x as i64);
                            let c = t.convert(to).ok_or_else(|| {
                                MatError::eval(format!("cannot convert {t} to {}", to.name()))
                            })?;
                            Ok(c.index() as f64)
                        })
                        .collect::<Result<_, _>>()?;
                    out.rows.push(converted);
                }
                Ok(MVal::Matrix(out))
            }
            "isolateTrend" | "seasonalComp" | "remainderComp" | "cumsumSeries" | "zscoreSeries"
            | "linTrendSeries" | "movavgSeries" => {
                let vals = eval_all(self)?;
                let (m, tcol, extra): (Matrix, usize, Option<f64>) =
                    match vals.as_slice() {
                        [m, t] => (
                            m.clone().into_matrix()?,
                            scalar_index(t, "time column")?,
                            None,
                        ),
                        [m, t, x] => (
                            m.clone().into_matrix()?,
                            scalar_index(t, "time column")?,
                            Some(x.as_scalar().ok_or_else(|| {
                                MatError::eval("series parameter must be a scalar")
                            })?),
                        ),
                        _ => {
                            return Err(MatError::eval(format!(
                                "{name} takes (M, timeCol[, param])"
                            )))
                        }
                    };
                let op = match name {
                    "isolateTrend" => SeriesOp::StlTrend,
                    "seasonalComp" => SeriesOp::StlSeasonal,
                    "remainderComp" => SeriesOp::StlRemainder,
                    "cumsumSeries" => SeriesOp::CumSum,
                    "zscoreSeries" => SeriesOp::ZScore,
                    "linTrendSeries" => SeriesOp::LinTrend,
                    _ => SeriesOp::MovAvg {
                        window: extra
                            .filter(|w| w.fract() == 0.0 && *w >= 1.0)
                            .ok_or_else(|| MatError::eval("movavgSeries needs an integer window"))?
                            as usize,
                    },
                };
                // for the decomposition family, the extra argument is the
                // seasonal period (e.g. 4 for quarterly data)
                let period = match name {
                    "isolateTrend" | "seasonalComp" | "remainderComp" => extra
                        .filter(|p| p.fract() == 0.0 && *p >= 1.0)
                        .ok_or_else(|| MatError::eval(format!("{name} needs a seasonal period")))?
                        as usize,
                    _ => 1,
                };
                series(&m, tcol, op, period)
            }
            "rows" => {
                let vals = eval_all(self)?;
                let [m] = vals.as_slice() else {
                    return Err(MatError::eval("rows takes one argument"));
                };
                Ok(MVal::Scalar(m.clone().into_matrix()?.nrows() as f64))
            }
            other => Err(MatError::eval(format!("undefined function `{other}`"))),
        }
    }
}

fn scalar_index(v: &MVal, what: &str) -> Result<usize, MatError> {
    v.as_scalar()
        .filter(|c| c.fract() == 0.0 && *c >= 1.0)
        .map(|c| c as usize)
        .ok_or_else(|| MatError::eval(format!("{what} must be a positive integer")))
}

fn map_matrix(m: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    Matrix {
        rows: m
            .rows
            .iter()
            .map(|r| r.iter().map(|&x| f(x)).collect())
            .collect(),
        ncols: m.ncols,
    }
}

fn arith(op: &str, a: MVal, b: MVal) -> Result<MVal, MatError> {
    let f = |x: f64, y: f64| -> f64 {
        match op {
            "+" => x + y,
            "-" => x - y,
            ".*" | "*" => x * y,
            "./" | "/" => x / y,
            _ => x.powf(y),
        }
    };
    match (a, b) {
        (MVal::Scalar(x), MVal::Scalar(y)) => Ok(MVal::Scalar(f(x, y))),
        (MVal::Scalar(x), MVal::Matrix(m)) => Ok(MVal::Matrix(map_matrix(&m, |v| f(x, v)))),
        (MVal::Matrix(m), MVal::Scalar(y)) => Ok(MVal::Matrix(map_matrix(&m, |v| f(v, y)))),
        (MVal::Matrix(x), MVal::Matrix(y)) => {
            if matches!(op, "*" | "/")
                && !(y.nrows() == 1 && y.ncols == 1)
                && !(x.nrows() == 1 && x.ncols == 1)
            {
                return Err(MatError::eval(format!(
                    "`{op}` between matrices is not supported; use `.{op}` for element-wise"
                )));
            }
            if x.nrows() == 1 && x.ncols == 1 {
                let s = x.rows[0][0];
                return Ok(MVal::Matrix(map_matrix(&y, |v| f(s, v))));
            }
            if y.nrows() == 1 && y.ncols == 1 {
                let s = y.rows[0][0];
                return Ok(MVal::Matrix(map_matrix(&x, |v| f(v, s))));
            }
            if x.nrows() != y.nrows() || x.ncols != y.ncols {
                return Err(MatError::eval(format!(
                    "shape mismatch: {}x{} vs {}x{}",
                    x.nrows(),
                    x.ncols,
                    y.nrows(),
                    y.ncols
                )));
            }
            let rows = x
                .rows
                .iter()
                .zip(&y.rows)
                .map(|(rx, ry)| rx.iter().zip(ry).map(|(&a, &b)| f(a, b)).collect())
                .collect();
            Ok(MVal::Matrix(Matrix {
                rows,
                ncols: x.ncols,
            }))
        }
        (a, b) => Err(MatError::eval(format!(
            "bad arithmetic operands {a:?} {op} {b:?}"
        ))),
    }
}

/// Hash join of `a` and `b` on the given 1-based key columns; result is
/// `a`'s columns followed by `b`'s non-key columns (the paper's
/// `join(PQR, 1:2, RGDPPC, 1:2)` yields q, r, p, g).
fn join(a: &Matrix, ka: &[usize], b: &Matrix, kb: &[usize]) -> Result<MVal, MatError> {
    if ka.len() != kb.len() {
        return Err(MatError::eval("join: key lists must have equal length"));
    }
    for &k in ka {
        if k > a.ncols {
            return Err(MatError::eval(format!(
                "join: key column {k} out of bounds"
            )));
        }
    }
    for &k in kb {
        if k > b.ncols {
            return Err(MatError::eval(format!(
                "join: key column {k} out of bounds"
            )));
        }
    }
    let mut index: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, row) in b.rows.iter().enumerate() {
        let key: String = kb.iter().map(|&k| format!("{};", row[k - 1])).collect();
        index.entry(key).or_default().push(i);
    }
    let b_rest: Vec<usize> = (1..=b.ncols).filter(|c| !kb.contains(c)).collect();
    let mut out = Matrix::new(a.ncols + b_rest.len());
    for row in &a.rows {
        let key: String = ka.iter().map(|&k| format!("{};", row[k - 1])).collect();
        if let Some(matches) = index.get(&key) {
            for &j in matches {
                let mut r = row.clone();
                for &c in &b_rest {
                    r.push(b.rows[j][c - 1]);
                }
                out.rows.push(r);
            }
        }
    }
    Ok(MVal::Matrix(out))
}

/// Group rows on `keys` and aggregate column `vcol`; result has the key
/// columns plus the aggregate.
fn aggregate(m: &Matrix, keys: &[usize], vcol: usize, agg: AggFn) -> Result<MVal, MatError> {
    if vcol > m.ncols {
        return Err(MatError::eval("aggregate: value column out of bounds"));
    }
    for &k in keys {
        if k > m.ncols {
            return Err(MatError::eval("aggregate: key column out of bounds"));
        }
    }
    let mut groups: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for row in &m.rows {
        let key_vals: Vec<f64> = keys.iter().map(|&k| row[k - 1]).collect();
        let key: String = key_vals.iter().map(|v| format!("{v};")).collect();
        groups
            .entry(key)
            .or_insert_with(|| (key_vals, Vec::new()))
            .1
            .push(row[vcol - 1]);
    }
    let mut out = Matrix::new(keys.len() + 1);
    for (_, (key_vals, bag)) in groups {
        if let Some(v) = agg.apply(&bag) {
            let mut row = key_vals;
            row.push(v);
            out.rows.push(row);
        }
    }
    Ok(MVal::Matrix(out))
}

/// Apply a series operator: `tcol` (1-based) is the time-index column,
/// the last column is the measure, everything else is a slice key.
fn series(m: &Matrix, tcol: usize, op: SeriesOp, period: usize) -> Result<MVal, MatError> {
    if tcol > m.ncols || m.ncols < 2 {
        return Err(MatError::eval("series: bad time column or too few columns"));
    }
    let measure = m.ncols; // 1-based last column
    let mut slices: BTreeMap<String, Vec<(i64, usize)>> = BTreeMap::new();
    for (i, row) in m.rows.iter().enumerate() {
        let t = row[tcol - 1];
        if t.fract() != 0.0 {
            return Err(MatError::eval(format!(
                "series: non-integral time index {t}"
            )));
        }
        let key: String = (1..=m.ncols)
            .filter(|&c| c != tcol && c != measure)
            .map(|c| format!("{};", row[c - 1]))
            .collect();
        slices.entry(key).or_default().push((t as i64, i));
    }
    let mut out = m.clone();
    for (_, mut rows) in slices {
        rows.sort_by_key(|(t, _)| *t);
        let indices: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
        let values: Vec<f64> = rows.iter().map(|(_, i)| m.rows[*i][measure - 1]).collect();
        let result = op.apply(&indices, &values, period);
        for ((_, i), v) in rows.into_iter().zip(result) {
            out.rows[i][measure - 1] = v;
        }
    }
    Ok(MVal::Matrix(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use exl_obs::Span;

    fn interp_with(ms: Vec<(&str, Matrix)>) -> MatInterp {
        let mut i = MatInterp::new();
        for (n, m) in ms {
            i.bind(n, m);
        }
        i
    }

    fn mat(rows: &[&[f64]]) -> Matrix {
        Matrix {
            rows: rows.iter().map(|r| r.to_vec()).collect(),
            ncols: rows.first().map(|r| r.len()).unwrap_or(0),
        }
    }

    /// The paper's §5.2 Matlab listing for tgd (2), in executable syntax:
    /// join, element-wise product into a new column, concatenation.
    #[test]
    fn paper_tgd2_matlab_script() {
        // PQR: q, r, p ; RGDPPC: q, r, g   (numeric-encoded)
        let pqr = mat(&[&[1.0, 0.0, 100.0], &[1.0, 1.0, 50.0], &[2.0, 0.0, 110.0]]);
        let rgdppc = mat(&[&[1.0, 0.0, 30.0], &[1.0, 1.0, 20.0], &[2.0, 0.0, 31.0]]);
        let mut i = interp_with(vec![("PQR", pqr), ("RGDPPC", rgdppc)]);
        i.run(
            "tmp = join(PQR, 1:2, RGDPPC, 1:2)\n\
             tmp(:,5) = tmp(:,3) .* tmp(:,4)\n\
             TGDP = [tmp(:,1) tmp(:,2) tmp(:,5)]",
            &Span::disabled(),
        )
        .unwrap();
        let t = i.matrix("TGDP").unwrap();
        assert_eq!(t.ncols, 3);
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.rows[0], vec![1.0, 0.0, 3000.0]);
        assert_eq!(t.rows[1], vec![1.0, 1.0, 1000.0]);
        assert_eq!(t.rows[2], vec![2.0, 0.0, 3410.0]);
    }

    /// The paper's tgd (4): `GDPC=isolateTrend(GDP)` — with our explicit
    /// time-column and period arguments.
    #[test]
    fn paper_tgd4_isolate_trend() {
        let gdp = Matrix {
            rows: (0..12)
                .map(|i| vec![200.0 + i as f64, 100.0 + 2.0 * i as f64])
                .collect(),
            ncols: 2,
        };
        let mut i = interp_with(vec![("GDP", gdp)]);
        i.run("GDPC = isolateTrend(GDP, 1, 4)", &Span::disabled())
            .unwrap();
        let t = i.matrix("GDPC").unwrap();
        assert_eq!(t.nrows(), 12);
        assert!(t.rows.iter().all(|r| r[1].is_finite()));
    }

    #[test]
    fn aggregate_groups_and_applies() {
        let m = mat(&[&[1.0, 10.0], &[1.0, 20.0], &[2.0, 5.0]]);
        let mut i = interp_with(vec![("M", m)]);
        i.run("A = aggregate(M, 1:1, 2, 'sum')", &Span::disabled())
            .unwrap();
        let a = i.matrix("A").unwrap();
        assert_eq!(a.rows, vec![vec![1.0, 30.0], vec![2.0, 5.0]]);
        i.run("B = aggregate(M, 1:1, 2, 'avg')", &Span::disabled())
            .unwrap();
        assert_eq!(i.matrix("B").unwrap().rows[0][1], 15.0);
    }

    #[test]
    fn isfinite_filter_drops_rows() {
        let m = mat(&[&[1.0, 1.0], &[2.0, 4.0]]);
        let z = mat(&[&[1.0, 0.0], &[2.0, 2.0]]);
        let mut i = interp_with(vec![("A", m), ("B", z)]);
        i.run(
            "tmp = join(A, 1:1, B, 1:1)\n\
             tmp(:,4) = tmp(:,2) ./ tmp(:,3)\n\
             tmp = tmp(isfinite(tmp(:,4)),:)\n\
             C = [tmp(:,1) tmp(:,4)]",
            &Span::disabled(),
        )
        .unwrap();
        let c = i.matrix("C").unwrap();
        assert_eq!(c.nrows(), 1);
        assert_eq!(c.rows[0], vec![2.0, 2.0]);
    }

    #[test]
    fn convert_time_day_to_quarter() {
        use exl_model::Date;
        let d = exl_model::TimePoint::Day(Date::from_ymd(2020, 5, 3).unwrap());
        let m = Matrix::column(vec![d.index() as f64]);
        let mut i = interp_with(vec![("D", m)]);
        i.run("Q = convertTime(D, 'day', 'quarter')", &Span::disabled())
            .unwrap();
        let q = i.matrix("Q").unwrap().rows[0][0];
        let expect = exl_model::TimePoint::Quarter {
            year: 2020,
            quarter: 2,
        }
        .index() as f64;
        assert_eq!(q, expect);
    }

    #[test]
    fn time_shift_is_plain_addition() {
        // quarter index arithmetic: +1 moves one quarter forward
        let q4 = exl_model::TimePoint::Quarter {
            year: 2020,
            quarter: 4,
        };
        let m = Matrix::column(vec![q4.index() as f64]);
        let mut i = interp_with(vec![("Q", m)]);
        i.run("Q2 = Q + 1", &Span::disabled()).unwrap();
        let got = i.matrix("Q2").unwrap().rows[0][0] as i64;
        assert_eq!(
            exl_model::TimePoint::from_index(exl_model::Frequency::Quarterly, got),
            exl_model::TimePoint::Quarter {
                year: 2021,
                quarter: 1
            }
        );
    }

    #[test]
    fn series_slices_on_other_columns() {
        // cols: time, slice, measure
        let m = mat(&[
            &[0.0, 7.0, 1.0],
            &[1.0, 7.0, 2.0],
            &[0.0, 8.0, 10.0],
            &[1.0, 8.0, 20.0],
        ]);
        let mut i = interp_with(vec![("M", m)]);
        i.run("C = cumsumSeries(M, 1)", &Span::disabled()).unwrap();
        let c = i.matrix("C").unwrap();
        assert_eq!(c.rows[1][2], 3.0);
        assert_eq!(c.rows[3][2], 30.0);
    }

    #[test]
    fn remaining_series_builtins() {
        let m = mat(&[&[0.0, 2.0], &[1.0, 4.0], &[2.0, 6.0], &[3.0, 8.0]]);
        let mut i = interp_with(vec![("M", m)]);
        i.run(
            "Z = zscoreSeries(M, 1)\nL = linTrendSeries(M, 1)\nA = movavgSeries(M, 1, 2)",
            &Span::disabled(),
        )
        .unwrap();
        let z = i.matrix("Z").unwrap();
        let mean: f64 = z.rows.iter().map(|r| r[1]).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-12);
        let l = i.matrix("L").unwrap();
        // the input is exactly linear: the fit reproduces it
        for (r, want) in l.rows.iter().zip([2.0, 4.0, 6.0, 8.0]) {
            assert!((r[1] - want).abs() < 1e-9);
        }
        let a = i.matrix("A").unwrap();
        assert_eq!(a.rows[1][1], 3.0); // (2+4)/2
    }

    #[test]
    fn math_functions_and_scalars() {
        let mut i = interp_with(vec![("M", mat(&[&[1.0, 4.0]]))]);
        i.run(
            "S = sqrt(M(:,2))\nE = exp(0)\nA = abs(0 - 3)",
            &Span::disabled(),
        )
        .unwrap();
        assert_eq!(i.matrix("S").unwrap().rows[0][0], 2.0);
        assert_eq!(i.matrix("E").unwrap().rows[0][0], 1.0);
        assert_eq!(i.matrix("A").unwrap().rows[0][0], 3.0);
    }

    #[test]
    fn errors() {
        let mut i = MatInterp::new();
        assert!(i.run("x = missing", &Span::disabled()).is_err());
        assert!(i.run("x = nosuchfn(1)", &Span::disabled()).is_err());
        i.bind("M", mat(&[&[1.0, 2.0]]));
        assert!(i.run("x = M(:,9)", &Span::disabled()).is_err());
        assert!(i.run("M(:,9) = 1", &Span::disabled()).is_err());
        assert!(i.run("x = M .* [1 2 3]", &Span::disabled()).is_err());
        assert!(i
            .run("x = join(M, 1:1, M, 1:2)", &Span::disabled())
            .is_err());
        assert!(i
            .run("x = aggregate(M, 1:1, 9, 'sum')", &Span::disabled())
            .is_err());
        assert!(i
            .run("x = aggregate(M, 1:1, 2, 'zzz')", &Span::disabled())
            .is_err());
        assert!(i.run("x = 'unterminated", &Span::disabled()).is_err());
    }

    #[test]
    fn column_append_and_overwrite() {
        let mut i = interp_with(vec![("M", mat(&[&[1.0], &[2.0]]))]);
        i.run("M(:,2) = M(:,1) * 10", &Span::disabled()).unwrap();
        assert_eq!(i.matrix("M").unwrap().rows[1], vec![2.0, 20.0]);
        i.run("M(:,1) = M(:,2) + 1", &Span::disabled()).unwrap();
        assert_eq!(i.matrix("M").unwrap().rows[0], vec![11.0, 10.0]);
    }
}
