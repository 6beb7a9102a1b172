//! Vectorized expressions.
//!
//! Expressions are evaluated column-at-a-time over [`Chunk`]s. The
//! feature set is exactly what the 22 TPC-H queries need: comparisons,
//! boolean algebra, arithmetic, `LIKE` patterns, `IN` lists, `BETWEEN`,
//! `CASE WHEN`, `SUBSTRING` and `EXTRACT(YEAR)`. [`Expr::prune_checks`]
//! extracts zone-map-prunable conjuncts so scans can skip row groups.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use iq_common::{IqError, IqResult};

use crate::chunk::{Chunk, Col};
use crate::mask::Mask;
use crate::value::{date_to_days, year_of, DataType, Value};
use crate::zonemap::{PruneCheck, PruneOp};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (integers only)
    Mod,
}

/// A vectorized expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by index.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// SQL LIKE with `%` and `_` wildcards.
    Like(Box<Expr>, String),
    /// Membership in a literal list.
    InList(Box<Expr>, Vec<Value>),
    /// `CASE WHEN cond THEN a ELSE b END`.
    Case(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `SUBSTRING(expr, start, len)` (1-based start, as in SQL).
    Substr(Box<Expr>, usize, usize),
    /// `EXTRACT(YEAR FROM expr)` on dates.
    Year(Box<Expr>),
}

// The builder names (`add`, `not`, …) intentionally mirror SQL operators;
// they are associated constructors, not operator-trait methods.
#[allow(clippy::should_implement_trait)]
impl Expr {
    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn lit_i64(v: i64) -> Expr {
        Expr::Lit(Value::I64(v))
    }

    /// Float literal.
    pub fn lit_f64(v: f64) -> Expr {
        Expr::Lit(Value::F64(v))
    }

    /// String literal.
    pub fn lit_str(s: &str) -> Expr {
        Expr::Lit(Value::Str(Arc::from(s)))
    }

    /// Date literal (days since epoch).
    pub fn lit_date(days: i32) -> Expr {
        Expr::Lit(Value::Date(days))
    }

    /// `a = b`
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, a.into(), b.into())
    }

    /// `a <> b`
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, a.into(), b.into())
    }

    /// `a < b`
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, a.into(), b.into())
    }

    /// `a <= b`
    pub fn le(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, a.into(), b.into())
    }

    /// `a > b`
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, a.into(), b.into())
    }

    /// `a >= b`
    pub fn ge(a: Expr, b: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, a.into(), b.into())
    }

    /// `a AND b`
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(a.into(), b.into())
    }

    /// Conjunction of several terms.
    pub fn and_all(terms: Vec<Expr>) -> Expr {
        terms
            .into_iter()
            .reduce(Expr::and)
            .expect("and_all needs at least one term")
    }

    /// `a OR b`
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(a.into(), b.into())
    }

    /// `NOT a`
    pub fn not(a: Expr) -> Expr {
        Expr::Not(a.into())
    }

    /// `a + b`
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, a.into(), b.into())
    }

    /// `a - b`
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, a.into(), b.into())
    }

    /// `a * b`
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, a.into(), b.into())
    }

    /// `a / b`
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, a.into(), b.into())
    }

    /// `a % b`
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::Arith(ArithOp::Mod, a.into(), b.into())
    }

    /// `a LIKE pattern`
    pub fn like(a: Expr, pattern: &str) -> Expr {
        Expr::Like(a.into(), pattern.to_string())
    }

    /// `a IN (values...)`
    pub fn in_list(a: Expr, values: Vec<Value>) -> Expr {
        Expr::InList(a.into(), values)
    }

    /// `a BETWEEN lo AND hi` (inclusive).
    pub fn between(a: Expr, lo: Expr, hi: Expr) -> Expr {
        Expr::and(Expr::ge(a.clone(), lo), Expr::le(a, hi))
    }

    /// `CASE WHEN cond THEN t ELSE e END`
    pub fn case(cond: Expr, t: Expr, e: Expr) -> Expr {
        Expr::Case(cond.into(), t.into(), e.into())
    }

    /// `SUBSTRING(a, start, len)` — 1-based.
    pub fn substr(a: Expr, start: usize, len: usize) -> Expr {
        Expr::Substr(a.into(), start, len)
    }

    /// `EXTRACT(YEAR FROM a)`
    pub fn year(a: Expr) -> Expr {
        Expr::Year(a.into())
    }

    // ------------------------------------------------------------------
    // Analysis
    // ------------------------------------------------------------------

    /// All column indexes referenced.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(_, a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::Like(a, _) | Expr::Substr(a, _, _) | Expr::Year(a) => {
                a.collect_columns(out)
            }
            Expr::InList(a, _) => a.collect_columns(out),
            Expr::Case(c, t, e) => {
                c.collect_columns(out);
                t.collect_columns(out);
                e.collect_columns(out);
            }
        }
    }

    /// Zone-prunable checks extracted from top-level AND conjuncts:
    /// `col op literal` (either side, `<>` included), `col IN (list)`,
    /// prefix `LIKE` folded to a lexical range, and
    /// `EXTRACT(YEAR FROM col) op literal` folded against date zones.
    /// `BETWEEN` desugars to two comparisons and needs no special case.
    pub fn prune_checks(&self) -> Vec<PruneCheck> {
        let mut out = Vec::new();
        self.collect_prunes(&mut out);
        out
    }

    fn collect_prunes(&self, out: &mut Vec<PruneCheck>) {
        match self {
            Expr::And(a, b) => {
                a.collect_prunes(out);
                b.collect_prunes(out);
            }
            Expr::Cmp(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(v)) => push_cmp_check(out, *i, *op, v),
                (Expr::Lit(v), Expr::Col(i)) => push_cmp_check(out, *i, flip(*op), v),
                (Expr::Year(d), Expr::Lit(Value::I64(y))) => {
                    if let Expr::Col(i) = d.as_ref() {
                        push_year_check(out, *i, *op, *y);
                    }
                }
                (Expr::Lit(Value::I64(y)), Expr::Year(d)) => {
                    if let Expr::Col(i) = d.as_ref() {
                        push_year_check(out, *i, flip(*op), *y);
                    }
                }
                _ => {}
            },
            Expr::InList(a, values) => {
                if let Expr::Col(i) = a.as_ref() {
                    out.push(PruneCheck::In(*i, values.clone()));
                }
            }
            Expr::Like(a, pattern) => {
                if let Expr::Col(i) = a.as_ref() {
                    push_like_check(out, *i, pattern);
                }
            }
            _ => {}
        }
    }

    /// String columns safe to evaluate in the dictionary code domain:
    /// every occurrence is `col =/<> string-literal` (either side) or
    /// `col IN (string-literals)`. Equality is preserved by the
    /// dictionary's injective string↔code mapping; order is not, so any
    /// other use (range, `LIKE`, `SUBSTRING`, …) disqualifies the column.
    /// `is_dict_str` restricts candidates to dictionary-backed string
    /// columns of the scanned schema.
    pub fn dict_eval_columns(&self, is_dict_str: &dyn Fn(usize) -> bool) -> Vec<usize> {
        let mut safe: BTreeMap<usize, bool> = BTreeMap::new();
        self.dict_walk(&mut safe);
        safe.into_iter()
            .filter(|&(c, ok)| ok && is_dict_str(c))
            .map(|(c, _)| c)
            .collect()
    }

    fn dict_walk(&self, safe: &mut BTreeMap<usize, bool>) {
        match self {
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.dict_walk(safe);
                b.dict_walk(safe);
            }
            Expr::Not(a) => a.dict_walk(safe),
            Expr::Cmp(CmpOp::Eq | CmpOp::Ne, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(Value::Str(_)))
                | (Expr::Lit(Value::Str(_)), Expr::Col(i)) => {
                    safe.entry(*i).or_insert(true);
                }
                _ => {
                    a.mark_dict_unsafe(safe);
                    b.mark_dict_unsafe(safe);
                }
            },
            Expr::InList(a, values) => match a.as_ref() {
                Expr::Col(i) if values.iter().all(|v| matches!(v, Value::Str(_))) => {
                    safe.entry(*i).or_insert(true);
                }
                _ => a.mark_dict_unsafe(safe),
            },
            other => other.mark_dict_unsafe(safe),
        }
    }

    fn mark_dict_unsafe(&self, safe: &mut BTreeMap<usize, bool>) {
        for c in self.columns() {
            safe.insert(c, false);
        }
    }

    /// Rewrite occurrences of `cols` (which must satisfy
    /// [`dict_eval_columns`](Expr::dict_eval_columns)) into i64 code
    /// comparisons. `lookup` resolves a literal to its dictionary code;
    /// literals absent from a dictionary become the sentinel `-1`, which
    /// no stored code equals — equality stays false, inequality true,
    /// exactly matching string-domain semantics.
    pub fn rewrite_for_dict(
        &self,
        cols: &[usize],
        lookup: &dyn Fn(usize, &str) -> Option<u32>,
    ) -> Expr {
        let code = |i: usize, s: &str| -> i64 { lookup(i, s).map(|c| c as i64).unwrap_or(-1) };
        match self {
            Expr::And(a, b) => Expr::And(
                a.rewrite_for_dict(cols, lookup).into(),
                b.rewrite_for_dict(cols, lookup).into(),
            ),
            Expr::Or(a, b) => Expr::Or(
                a.rewrite_for_dict(cols, lookup).into(),
                b.rewrite_for_dict(cols, lookup).into(),
            ),
            Expr::Not(a) => Expr::Not(a.rewrite_for_dict(cols, lookup).into()),
            Expr::Cmp(op @ (CmpOp::Eq | CmpOp::Ne), a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(Value::Str(s))) if cols.contains(i) => Expr::Cmp(
                    *op,
                    Expr::Col(*i).into(),
                    Expr::Lit(Value::I64(code(*i, s))).into(),
                ),
                (Expr::Lit(Value::Str(s)), Expr::Col(i)) if cols.contains(i) => Expr::Cmp(
                    *op,
                    Expr::Lit(Value::I64(code(*i, s))).into(),
                    Expr::Col(*i).into(),
                ),
                _ => self.clone(),
            },
            Expr::InList(a, values) => match a.as_ref() {
                Expr::Col(i) if cols.contains(i) => {
                    // Misses drop out of the list; an all-miss list keeps
                    // its always-false shape via the sentinel.
                    let codes: Vec<Value> = values
                        .iter()
                        .filter_map(Value::as_str)
                        .filter_map(|s| lookup(*i, s))
                        .map(|c| Value::I64(c as i64))
                        .collect();
                    if codes.is_empty() {
                        Expr::Cmp(
                            CmpOp::Eq,
                            Expr::Col(*i).into(),
                            Expr::Lit(Value::I64(-1)).into(),
                        )
                    } else {
                        Expr::InList(Expr::Col(*i).into(), codes)
                    }
                }
                _ => self.clone(),
            },
            other => other.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Evaluation
    // ------------------------------------------------------------------

    /// Evaluate to a row selection. `remap[c]` is the chunk position of
    /// schema column `c` (`usize::MAX`, or past the end, when absent).
    pub fn eval_mask(&self, chunk: &Chunk, remap: &[usize]) -> IqResult<Mask> {
        self.eval_val(chunk, Some(remap))?.into_mask()
    }

    /// [`eval_mask`](Expr::eval_mask) with column `c` at chunk position `c`.
    pub fn mask_on(&self, chunk: &Chunk) -> IqResult<Mask> {
        self.eval_val(chunk, None)?.into_mask()
    }

    /// Evaluate to a column (a predicate yields a `Col::Bool`).
    pub fn eval(&self, chunk: &Chunk, remap: &[usize]) -> IqResult<Col> {
        Ok(self.eval_val(chunk, Some(remap))?.into_col(chunk.len()))
    }

    /// [`eval`](Expr::eval) with column `c` at chunk position `c`.
    pub fn eval_on(&self, chunk: &Chunk) -> IqResult<Col> {
        Ok(self.eval_val(chunk, None)?.into_col(chunk.len()))
    }

    /// `remap` of `None` is the identity: no table of positions to build.
    fn eval_val<'a>(&'a self, chunk: &'a Chunk, remap: Option<&[usize]>) -> IqResult<Val<'a>> {
        let n = chunk.len();
        let sub = |e: &'a Expr| e.eval_val(chunk, remap);
        Ok(match self {
            Expr::Col(i) => {
                let pos = remap.map_or(Some(*i), |r| r.get(*i).copied());
                let col = pos.and_then(|pos| chunk.cols.get(pos));
                Val::Col(Cow::Borrowed(col.ok_or_else(|| {
                    IqError::Invalid(format!("column {i} not in chunk"))
                })?))
            }
            Expr::Lit(v) => Val::Scalar(v),
            Expr::Cmp(op, a, b) => Val::Mask(eval_cmp(*op, n, sub(a)?.view()?, sub(b)?.view()?)?),
            Expr::And(a, b) => Val::Mask(sub(a)?.into_mask()?.and(&sub(b)?.into_mask()?)),
            Expr::Or(a, b) => Val::Mask(sub(a)?.into_mask()?.or(&sub(b)?.into_mask()?)),
            Expr::Not(a) => Val::Mask(sub(a)?.into_mask()?.not()),
            Expr::Arith(op, a, b) => Val::Col(Cow::Owned(eval_arith(
                *op,
                n,
                sub(a)?.view()?,
                sub(b)?.view()?,
            )?)),
            Expr::Like(a, pattern) => {
                let a = sub(a)?;
                let (s, m) = a.view()?.strs("LIKE")?;
                Val::Mask(Mask::from_fn(n, |i| like_match(&s[i & m], pattern)))
            }
            Expr::InList(a, values) => Val::Mask(match sub(a)?.view()? {
                View::Str(s, m) => {
                    let set: Vec<&str> = values.iter().filter_map(Value::as_str).collect();
                    Mask::from_fn(n, |i| set.contains(&&*s[i & m]))
                }
                View::I64(x, m) => {
                    let set: Vec<i64> = values.iter().filter_map(Value::as_i64).collect();
                    Mask::from_fn(n, |i| set.contains(&x[i & m]))
                }
                other => return Err(other.unsupported("IN list")),
            }),
            Expr::Case(c, t, e) => {
                let mask = sub(c)?.into_mask()?;
                Val::Col(Cow::Owned(match (sub(t)?.view()?, sub(e)?.view()?) {
                    (View::F64(t, tm), View::F64(e, em)) => Col::F64(
                        (0..n)
                            .map(|i| if mask.get(i) { t[i & tm] } else { e[i & em] })
                            .collect(),
                    ),
                    (View::I64(t, tm), View::I64(e, em)) => Col::I64(
                        (0..n)
                            .map(|i| if mask.get(i) { t[i & tm] } else { e[i & em] })
                            .collect(),
                    ),
                    (View::Str(t, tm), View::Str(e, em)) => Col::Str(
                        (0..n)
                            .map(|i| Arc::clone(if mask.get(i) { &t[i & tm] } else { &e[i & em] }))
                            .collect(),
                    ),
                    _ => return Err(IqError::Invalid("CASE branches must match types".into())),
                }))
            }
            Expr::Substr(a, start, len) => {
                let a = sub(a)?;
                let (s, m) = a.view()?.strs("SUBSTRING")?;
                let s0 = start.saturating_sub(1);
                Val::Col(Cow::Owned(Col::Str(
                    (0..n)
                        .map(|i| Arc::from(substr_chars(&s[i & m], s0, *len)))
                        .collect(),
                )))
            }
            Expr::Year(a) => match sub(a)?.view()? {
                View::Date(d, m) => Val::Col(Cow::Owned(Col::I64(
                    (0..n).map(|i| year_of(d[i & m]) as i64).collect(),
                ))),
                other => return Err(other.unsupported("EXTRACT(YEAR)")),
            },
        })
    }
}

/// What a subexpression evaluates to. A column reference is a borrow of
/// the chunk's column and a literal stays one scalar — neither is copied
/// or widened to `n` rows on the way to the operator that consumes it.
enum Val<'a> {
    Col(Cow<'a, Col>),
    Scalar(&'a Value),
    Mask(Mask),
}

impl Val<'_> {
    /// As a column of `n` rows (a predicate yields a `Col::Bool`).
    fn into_col(self, n: usize) -> Col {
        match self {
            Val::Col(c) => c.into_owned(),
            Val::Mask(m) => Col::Bool(m.to_bools()),
            Val::Scalar(Value::I64(x)) => Col::I64(vec![*x; n]),
            Val::Scalar(Value::F64(x)) => Col::F64(vec![*x; n]),
            Val::Scalar(Value::Str(s)) => Col::Str(vec![Arc::clone(s); n]),
            Val::Scalar(Value::Date(d)) => Col::Date(vec![*d; n]),
        }
    }

    /// As a predicate result; a `Col::Bool` value column converts.
    fn into_mask(self) -> IqResult<Mask> {
        let dtype = match self {
            Val::Mask(m) => return Ok(m),
            Val::Col(c) => match &*c {
                Col::Bool(v) => return Ok(Mask::from_bools(v)),
                other => other.data_type(),
            },
            Val::Scalar(v) => Some(v.data_type()),
        };
        Err(IqError::Invalid(format!(
            "predicate evaluated to {dtype:?}, expected booleans"
        )))
    }

    /// As a typed operand of a comparison, arithmetic or string operator.
    fn view(&self) -> IqResult<View<'_>> {
        use std::slice::from_ref;
        Ok(match self {
            Val::Col(c) => match &**c {
                Col::I64(v) => View::I64(v, usize::MAX),
                Col::F64(v) => View::F64(v, usize::MAX),
                Col::Str(v) => View::Str(v, usize::MAX),
                Col::Date(v) => View::Date(v, usize::MAX),
                Col::Bool(_) => return Err(IqError::Invalid("booleans used as a value".into())),
            },
            Val::Scalar(Value::I64(x)) => View::I64(from_ref(x), 0),
            Val::Scalar(Value::F64(x)) => View::F64(from_ref(x), 0),
            Val::Scalar(Value::Str(s)) => View::Str(from_ref(s), 0),
            Val::Scalar(Value::Date(d)) => View::Date(from_ref(d), 0),
            Val::Mask(_) => return Err(IqError::Invalid("booleans used as a value".into())),
        })
    }
}

/// A typed operand: a slice and an index mask — all ones for a column,
/// zero for a scalar — so `v[i & m]` reads row `i` of either and one
/// loop serves column ∘ column, column ∘ scalar and scalar ∘ column.
#[derive(Clone, Copy)]
enum View<'a> {
    I64(&'a [i64], usize),
    F64(&'a [f64], usize),
    Str(&'a [Arc<str>], usize),
    Date(&'a [i32], usize),
}

impl<'a> View<'a> {
    fn dtype(&self) -> DataType {
        match self {
            View::I64(..) => DataType::I64,
            View::F64(..) => DataType::F64,
            View::Str(..) => DataType::Str,
            View::Date(..) => DataType::Date,
        }
    }

    fn unsupported(&self, what: &str) -> IqError {
        IqError::Invalid(format!("{what} over {:?}", self.dtype()))
    }

    fn strs(self, what: &str) -> IqResult<(&'a [Arc<str>], usize)> {
        match self {
            View::Str(s, m) => Ok((s, m)),
            other => Err(other.unsupported(what)),
        }
    }
}

/// `SUBSTRING` by characters: `len` of them from the `s0`-th (0-based).
/// On ASCII — all of TPC-H — that is the byte range `[s0, s0 + len)`.
fn substr_chars(s: &str, s0: usize, len: usize) -> &str {
    let rest = &s[s.char_indices().nth(s0).map_or(s.len(), |(at, _)| at)..];
    &rest[..rest
        .char_indices()
        .nth(len)
        .map_or(rest.len(), |(at, _)| at)]
}

fn cmp_to_prune(op: CmpOp) -> Option<PruneOp> {
    match op {
        CmpOp::Eq => Some(PruneOp::Eq),
        CmpOp::Lt => Some(PruneOp::Lt),
        CmpOp::Le => Some(PruneOp::Le),
        CmpOp::Gt => Some(PruneOp::Gt),
        CmpOp::Ge => Some(PruneOp::Ge),
        CmpOp::Ne => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn push_cmp_check(out: &mut Vec<PruneCheck>, col: usize, op: CmpOp, lit: &Value) {
    match cmp_to_prune(op) {
        Some(p) => out.push(PruneCheck::Cmp(col, p, lit.clone())),
        None => out.push(PruneCheck::Ne(col, lit.clone())),
    }
}

/// Fold `EXTRACT(YEAR FROM col) op y` into checks on the date column's
/// day-number zone. Years outside the calendar range are skipped —
/// omitting a check is always conservative.
fn push_year_check(out: &mut Vec<PruneCheck>, col: usize, op: CmpOp, y: i64) {
    if !(1..=9998).contains(&y) {
        return;
    }
    let y = y as i32;
    let jan1 = date_to_days(y, 1, 1);
    let dec31 = date_to_days(y, 12, 31);
    match op {
        CmpOp::Eq => {
            out.push(PruneCheck::Cmp(col, PruneOp::Ge, Value::Date(jan1)));
            out.push(PruneCheck::Cmp(col, PruneOp::Le, Value::Date(dec31)));
        }
        // `year <> y` holds somewhere in the group iff its range leaves
        // the year's day interval.
        CmpOp::Ne => out.push(PruneCheck::Outside(col, jan1 as i64, dec31 as i64)),
        CmpOp::Lt => out.push(PruneCheck::Cmp(col, PruneOp::Lt, Value::Date(jan1))),
        CmpOp::Le => out.push(PruneCheck::Cmp(col, PruneOp::Le, Value::Date(dec31))),
        CmpOp::Gt => out.push(PruneCheck::Cmp(
            col,
            PruneOp::Ge,
            Value::Date(date_to_days(y + 1, 1, 1)),
        )),
        CmpOp::Ge => out.push(PruneCheck::Cmp(col, PruneOp::Ge, Value::Date(jan1))),
    }
}

/// Fold a prefix `LIKE` pattern (`'abc%…'`) into the lexical range
/// `[prefix, successor(prefix))`: every match starts with the literal
/// prefix before the first wildcard, so it sorts inside that range.
fn push_like_check(out: &mut Vec<PruneCheck>, col: usize, pattern: &str) {
    let prefix: String = pattern
        .chars()
        .take_while(|&c| c != '%' && c != '_')
        .collect();
    if prefix.is_empty() {
        return;
    }
    out.push(PruneCheck::Cmp(
        col,
        PruneOp::Ge,
        Value::Str(Arc::from(prefix.as_str())),
    ));
    if let Some(succ) = lexical_successor(&prefix) {
        out.push(PruneCheck::Cmp(
            col,
            PruneOp::Lt,
            Value::Str(Arc::from(succ.as_str())),
        ));
    }
}

/// Smallest string greater than every string starting with `prefix`:
/// increment the last character, carrying left past unincrementable code
/// points. `None` when no such string exists (all chars at `char::MAX`).
fn lexical_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(c) = chars.pop() {
        if let Some(next) = char::from_u32(c as u32 + 1) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

fn cmp_mask<T: PartialOrd>(
    op: CmpOp,
    n: usize,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
) -> Mask {
    match op {
        CmpOp::Eq => Mask::from_fn(n, |i| a(i) == b(i)),
        CmpOp::Ne => Mask::from_fn(n, |i| a(i) != b(i)),
        CmpOp::Lt => Mask::from_fn(n, |i| a(i) < b(i)),
        CmpOp::Le => Mask::from_fn(n, |i| a(i) <= b(i)),
        CmpOp::Gt => Mask::from_fn(n, |i| a(i) > b(i)),
        CmpOp::Ge => Mask::from_fn(n, |i| a(i) >= b(i)),
    }
}

fn eval_cmp(op: CmpOp, n: usize, a: View<'_>, b: View<'_>) -> IqResult<Mask> {
    use View::{Date, Str, F64, I64};
    Ok(match (a, b) {
        (I64(x, xm), I64(y, ym)) => cmp_mask(op, n, |i| x[i & xm], |i| y[i & ym]),
        (Date(x, xm), Date(y, ym)) => cmp_mask(op, n, |i| x[i & xm], |i| y[i & ym]),
        (F64(x, xm), F64(y, ym)) => cmp_mask(op, n, |i| x[i & xm], |i| y[i & ym]),
        (Str(x, xm), Str(y, ym)) => cmp_mask(op, n, |i| &*x[i & xm], |i| &*y[i & ym]),
        // Numeric promotion.
        (I64(x, xm), F64(y, ym)) => cmp_mask(op, n, |i| x[i & xm] as f64, |i| y[i & ym]),
        (F64(x, xm), I64(y, ym)) => cmp_mask(op, n, |i| x[i & xm], |i| y[i & ym] as f64),
        // Dates against day numbers (partition keys).
        (Date(x, xm), I64(y, ym)) => cmp_mask(op, n, |i| x[i & xm] as i64, |i| y[i & ym]),
        (I64(x, xm), Date(y, ym)) => cmp_mask(op, n, |i| x[i & xm], |i| y[i & ym] as i64),
        (a, b) => return Err(a.unsupported(&format!("comparison with {:?}", b.dtype()))),
    })
}

fn float_arith(op: ArithOp, n: usize, a: impl Fn(usize) -> f64, b: impl Fn(usize) -> f64) -> Col {
    Col::F64(match op {
        ArithOp::Add => (0..n).map(|i| a(i) + b(i)).collect(),
        ArithOp::Sub => (0..n).map(|i| a(i) - b(i)).collect(),
        ArithOp::Mul => (0..n).map(|i| a(i) * b(i)).collect(),
        ArithOp::Div => (0..n).map(|i| a(i) / b(i)).collect(),
        ArithOp::Mod => (0..n).map(|i| a(i) % b(i)).collect(),
    })
}

fn eval_arith(op: ArithOp, n: usize, a: View<'_>, b: View<'_>) -> IqResult<Col> {
    use ArithOp::{Add, Div, Mod, Mul, Sub};
    use View::{Date, F64, I64};
    Ok(match (op, a, b) {
        (Mod, I64(x, xm), I64(y, ym)) => Col::I64(
            (0..n)
                .map(|i| match y[i & ym] {
                    0 => 0,
                    q => x[i & xm] % q,
                })
                .collect(),
        ),
        (Add, I64(x, xm), I64(y, ym)) => Col::I64((0..n).map(|i| x[i & xm] + y[i & ym]).collect()),
        (Sub, I64(x, xm), I64(y, ym)) => Col::I64((0..n).map(|i| x[i & xm] - y[i & ym]).collect()),
        (Mul, I64(x, xm), I64(y, ym)) => Col::I64((0..n).map(|i| x[i & xm] * y[i & ym]).collect()),
        // Date arithmetic: date ± integer days.
        (Add, Date(x, xm), I64(y, ym)) => {
            Col::Date((0..n).map(|i| x[i & xm] + y[i & ym] as i32).collect())
        }
        (Sub, Date(x, xm), I64(y, ym)) => {
            Col::Date((0..n).map(|i| x[i & xm] - y[i & ym] as i32).collect())
        }
        (Div, I64(x, xm), I64(y, ym)) => {
            float_arith(op, n, |i| x[i & xm] as f64, |i| y[i & ym] as f64)
        }
        (_, F64(x, xm), F64(y, ym)) => float_arith(op, n, |i| x[i & xm], |i| y[i & ym]),
        (_, F64(x, xm), I64(y, ym)) => float_arith(op, n, |i| x[i & xm], |i| y[i & ym] as f64),
        (_, I64(x, xm), F64(y, ym)) => float_arith(op, n, |i| x[i & xm] as f64, |i| y[i & ym]),
        (_, a, b) => return Err(a.unsupported(&format!("{op:?} with {:?}", b.dtype()))),
    })
}

/// SQL LIKE matcher: `%` matches any run, `_` one character. Iterative
/// two-pointer algorithm with backtracking to the last `%`.
pub fn like_match(s: &str, pattern: &str) -> bool {
    let s = s.as_bytes();
    let p = pattern.as_bytes();
    let (mut si, mut pi) = (0usize, 0usize);
    let (mut star, mut star_s) = (None::<usize>, 0usize);
    while si < s.len() {
        if pi < p.len() && (p[pi] == b'_' || p[pi] == s[si]) {
            si += 1;
            pi += 1;
        } else if pi < p.len() && p[pi] == b'%' {
            star = Some(pi);
            star_s = si;
            pi += 1;
        } else if let Some(sp) = star {
            pi = sp + 1;
            star_s += 1;
            si = star_s;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'%' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_date;

    fn chunk() -> (Chunk, Vec<usize>) {
        let c = Chunk::new(vec![
            Col::I64(vec![1, 2, 3, 4]),
            Col::F64(vec![10.0, 20.0, 30.0, 40.0]),
            Col::Str(vec![
                "AIR".into(),
                "RAIL".into(),
                "AIR REG".into(),
                "SHIP".into(),
            ]),
            Col::Date(vec![
                parse_date("1994-01-01").unwrap(),
                parse_date("1994-06-01").unwrap(),
                parse_date("1995-01-01").unwrap(),
                parse_date("1995-06-01").unwrap(),
            ]),
        ]);
        (c, (0..4).collect())
    }

    #[test]
    fn comparisons_and_boolean_algebra() {
        let (c, m) = chunk();
        let e = Expr::and(
            Expr::gt(Expr::col(0), Expr::lit_i64(1)),
            Expr::lt(Expr::col(1), Expr::lit_f64(40.0)),
        );
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![false, true, true, false]
        );
        let e = Expr::or(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::eq(Expr::col(2), Expr::lit_str("SHIP")),
        );
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![true, false, false, true]
        );
        let e = Expr::not(Expr::le(Expr::col(0), Expr::lit_i64(2)));
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn numeric_promotion_in_comparisons() {
        let (c, m) = chunk();
        // i64 column vs float literal.
        let e = Expr::ge(Expr::col(0), Expr::lit_f64(2.5));
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn date_comparisons_and_ranges() {
        let (c, m) = chunk();
        let e = Expr::and(
            Expr::ge(
                Expr::col(3),
                Expr::lit_date(parse_date("1994-01-01").unwrap()),
            ),
            Expr::lt(
                Expr::col(3),
                Expr::lit_date(parse_date("1995-01-01").unwrap()),
            ),
        );
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn arithmetic_and_case() {
        let (c, m) = chunk();
        // price * (1 - 0.1)
        let e = Expr::mul(
            Expr::col(1),
            Expr::sub(Expr::lit_f64(1.0), Expr::lit_f64(0.1)),
        );
        let out = e.eval(&c, &m).unwrap();
        assert!((out.f64s()[1] - 18.0).abs() < 1e-9);
        // CASE WHEN k > 2 THEN price ELSE 0
        let e = Expr::case(
            Expr::gt(Expr::col(0), Expr::lit_i64(2)),
            Expr::col(1),
            Expr::lit_f64(0.0),
        );
        assert_eq!(e.eval(&c, &m).unwrap().f64s(), &[0.0, 0.0, 30.0, 40.0]);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("AIR REG", "AIR%"));
        assert!(like_match("AIR REG", "%REG"));
        assert!(like_match("forest green metal", "%green%"));
        assert!(!like_match("forest blue metal", "%green%"));
        assert!(like_match(
            "special packages requests",
            "%special%requests%"
        ));
        assert!(!like_match("special packages", "%special%requests%"));
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("MEDIUM POLISHED", "MEDIUM POLISHED%"));
    }

    #[test]
    fn in_list_substr_year() {
        let (c, m) = chunk();
        let e = Expr::in_list(
            Expr::col(2),
            vec![Value::Str("AIR".into()), Value::Str("SHIP".into())],
        );
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![true, false, false, true]
        );
        let e = Expr::substr(Expr::col(2), 1, 3);
        assert_eq!(e.eval(&c, &m).unwrap().strs()[2].as_ref(), "AIR");
        let e = Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(1995));
        assert_eq!(
            e.eval_mask(&c, &m).unwrap().to_bools(),
            vec![false, false, true, true]
        );
    }

    #[test]
    fn prune_check_extraction() {
        let e = Expr::and(
            Expr::lt(Expr::col(3), Expr::lit_date(100)),
            Expr::and(
                Expr::ge(Expr::lit_i64(5), Expr::col(0)), // flipped: col0 <= 5
                Expr::like(Expr::col(2), "%x%"),          // no literal prefix
            ),
        );
        let checks = e.prune_checks();
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[0], PruneCheck::Cmp(3, PruneOp::Lt, Value::Date(100)));
        assert_eq!(checks[1], PruneCheck::Cmp(0, PruneOp::Le, Value::I64(5)));
        // OR at top level: nothing prunable.
        let e = Expr::or(Expr::lt(Expr::col(0), Expr::lit_i64(1)), Expr::lit_i64(1));
        assert!(Expr::prune_checks(&e).is_empty());
    }

    #[test]
    fn prune_checks_cover_ne_in_between_like_year() {
        // <> extracts a Ne check (either side).
        let checks = Expr::ne(Expr::col(0), Expr::lit_i64(9)).prune_checks();
        assert_eq!(checks, vec![PruneCheck::Ne(0, Value::I64(9))]);
        let checks = Expr::ne(Expr::lit_i64(9), Expr::col(0)).prune_checks();
        assert_eq!(checks, vec![PruneCheck::Ne(0, Value::I64(9))]);

        // IN lists carry every element.
        let vals = vec![Value::Str("AIR".into()), Value::Str("SHIP".into())];
        let checks = Expr::in_list(Expr::col(2), vals.clone()).prune_checks();
        assert_eq!(checks, vec![PruneCheck::In(2, vals)]);

        // BETWEEN desugars to both bounds.
        let checks =
            Expr::between(Expr::col(0), Expr::lit_i64(10), Expr::lit_i64(20)).prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(0, PruneOp::Ge, Value::I64(10)),
                PruneCheck::Cmp(0, PruneOp::Le, Value::I64(20)),
            ]
        );

        // Prefix LIKE folds to [prefix, successor).
        let checks = Expr::like(Expr::col(2), "MEDIUM%").prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(2, PruneOp::Ge, Value::Str("MEDIUM".into())),
                PruneCheck::Cmp(2, PruneOp::Lt, Value::Str("MEDIUN".into())),
            ]
        );
        // `_` ends the literal prefix too.
        let checks = Expr::like(Expr::col(2), "AB_X%").prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(2, PruneOp::Ge, Value::Str("AB".into())),
                PruneCheck::Cmp(2, PruneOp::Lt, Value::Str("AC".into())),
            ]
        );

        // EXTRACT(YEAR) folds to day-number ranges.
        let jan1 = parse_date("1995-01-01").unwrap();
        let dec31 = parse_date("1995-12-31").unwrap();
        let checks = Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![
                PruneCheck::Cmp(3, PruneOp::Ge, Value::Date(jan1)),
                PruneCheck::Cmp(3, PruneOp::Le, Value::Date(dec31)),
            ]
        );
        let checks = Expr::gt(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Cmp(
                3,
                PruneOp::Ge,
                Value::Date(parse_date("1996-01-01").unwrap())
            )]
        );
        let checks = Expr::ne(Expr::year(Expr::col(3)), Expr::lit_i64(1995)).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Outside(3, jan1 as i64, dec31 as i64)]
        );
        // Flipped literal side: `1995 <= year(d)` means `year(d) >= 1995`.
        let checks = Expr::le(Expr::lit_i64(1995), Expr::year(Expr::col(3))).prune_checks();
        assert_eq!(
            checks,
            vec![PruneCheck::Cmp(3, PruneOp::Ge, Value::Date(jan1))]
        );
        // Out-of-calendar years fold to nothing (conservative).
        assert!(Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(99_999))
            .prune_checks()
            .is_empty());
    }

    #[test]
    fn lexical_successor_carries() {
        assert_eq!(lexical_successor("MEDIUM").as_deref(), Some("MEDIUN"));
        assert_eq!(lexical_successor("az").as_deref(), Some("a{"));
        let top = String::from(char::MAX);
        assert_eq!(lexical_successor(&format!("a{top}")).as_deref(), Some("b"));
        assert_eq!(lexical_successor(&top), None);
    }

    #[test]
    fn dict_eval_columns_require_equality_only_use() {
        let is_str = |c: usize| c == 2 || c == 5;
        // Pure equality/IN use: safe.
        let e = Expr::and(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::in_list(
                Expr::col(5),
                vec![Value::Str("A".into()), Value::Str("B".into())],
            ),
        );
        assert_eq!(e.dict_eval_columns(&is_str), vec![2, 5]);
        // A second, order-dependent use disqualifies the column.
        let e = Expr::and(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::like(Expr::col(2), "A%"),
        );
        assert!(e.dict_eval_columns(&is_str).is_empty());
        // Non-string columns never qualify.
        let e = Expr::eq(Expr::col(0), Expr::lit_str("AIR"));
        assert!(e.dict_eval_columns(&|_| false).is_empty());
        // Comparison against another column disqualifies both sides.
        let e = Expr::eq(Expr::col(2), Expr::col(5));
        assert!(e.dict_eval_columns(&is_str).is_empty());
    }

    #[test]
    fn dict_rewrite_matches_string_semantics() {
        // Codes: AIR=0, RAIL=1; "SHIP" missing.
        let lookup = |_c: usize, s: &str| match s {
            "AIR" => Some(0u32),
            "RAIL" => Some(1),
            _ => None,
        };
        let cols = [2usize];
        let e = Expr::eq(Expr::col(2), Expr::lit_str("AIR")).rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::eq(Expr::col(2), Expr::lit_i64(0)));
        // Missing literal becomes the never-matching sentinel.
        let e = Expr::ne(Expr::col(2), Expr::lit_str("SHIP")).rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::ne(Expr::col(2), Expr::lit_i64(-1)));
        // IN drops misses; all-miss keeps an always-false shape.
        let e = Expr::in_list(
            Expr::col(2),
            vec![Value::Str("RAIL".into()), Value::Str("SHIP".into())],
        )
        .rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::in_list(Expr::col(2), vec![Value::I64(1)]));
        let e = Expr::in_list(Expr::col(2), vec![Value::Str("SHIP".into())])
            .rewrite_for_dict(&cols, &lookup);
        assert_eq!(e, Expr::eq(Expr::col(2), Expr::lit_i64(-1)));

        // Evaluate both domains over the same logical data.
        let codes = Chunk::new(vec![Col::I64(vec![0, 1, 0])]);
        let remap = [usize::MAX, usize::MAX, 0];
        let e = Expr::or(
            Expr::eq(Expr::col(2), Expr::lit_str("AIR")),
            Expr::eq(Expr::col(2), Expr::lit_str("SHIP")),
        )
        .rewrite_for_dict(&cols, &lookup);
        assert_eq!(
            e.eval_mask(&codes, &remap).unwrap().to_bools(),
            vec![true, false, true]
        );
    }

    #[test]
    fn columns_collected() {
        let e = Expr::and(
            Expr::gt(Expr::col(3), Expr::col(1)),
            Expr::like(Expr::col(2), "%"),
        );
        assert_eq!(e.columns(), vec![1, 2, 3]);
    }

    #[test]
    fn errors_on_type_confusion() {
        let (c, m) = chunk();
        assert!(Expr::eq(Expr::col(0), Expr::lit_str("x"))
            .eval(&c, &m)
            .is_err());
        assert!(Expr::col(9).eval(&c, &m).is_err());
        assert!(Expr::lit_i64(1).eval_mask(&c, &m).is_err());
    }

    #[test]
    fn substr_counts_characters_not_bytes() {
        // "né" is 3 bytes: byte offsets 1..3 split the 'é'; a user table's
        // dictionary need not be ASCII.
        let c = Chunk::new(vec![Col::Str(vec![
            "n\u{e9}e".into(),
            "\u{e9}".into(),
            "".into(),
            "abc".into(),
        ])]);
        let sub = |start, len| Expr::substr(Expr::col(0), start, len).eval(&c, &[0]);
        let strs = |col: Col| -> Vec<String> { col.strs().iter().map(|s| s.to_string()).collect() };
        assert_eq!(strs(sub(1, 2).unwrap()), ["n\u{e9}", "\u{e9}", "", "ab"]);
        assert_eq!(strs(sub(2, 1).unwrap()), ["\u{e9}", "", "", "b"]);
        assert_eq!(strs(sub(3, usize::MAX).unwrap()), ["e", "", "", "c"]);
        assert_eq!(strs(sub(9, 2).unwrap()), ["", "", "", ""]);
    }

    /// The definition a scalar operand must match: the literal widened to
    /// an `n`-row column (what evaluation used to build for every literal).
    fn broadcast(v: &Value, n: usize) -> Col {
        match v {
            Value::I64(x) => Col::I64(vec![*x; n]),
            Value::F64(x) => Col::F64(vec![*x; n]),
            Value::Str(s) => Col::Str(vec![Arc::clone(s); n]),
            Value::Date(d) => Col::Date(vec![*d; n]),
        }
    }

    /// Columns compared structurally, floats by bit pattern (NaN == NaN).
    fn bits(col: IqResult<Col>) -> Option<Vec<String>> {
        let col = col.ok()?;
        Some(match &col {
            Col::F64(v) => v.iter().map(|x| format!("f{:016x}", x.to_bits())).collect(),
            other => (0..other.len())
                .map(|i| format!("{:?}", other.value(i)))
                .collect(),
        })
    }

    #[test]
    fn scalar_operands_match_the_broadcast_definition() {
        let cols = [
            Col::I64(vec![-3, 0, 2, 7, 1 << 40]),
            Col::F64(vec![-0.5, 0.0, 2.0, f64::NAN, 7.5]),
            Col::Date(vec![-1, 0, 2, 7, 9000]),
            Col::Str(vec![
                "".into(),
                "a".into(),
                "b".into(),
                "ab".into(),
                "b".into(),
            ]),
        ];
        let lits = [
            Value::I64(2),
            Value::F64(2.0),
            Value::Date(2),
            Value::Str("b".into()),
        ];
        let cmps = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let ariths = [
            ArithOp::Add,
            ArithOp::Sub,
            ArithOp::Mul,
            ArithOp::Div,
            ArithOp::Mod,
        ];
        let (mut compared, mut computed) = (0, 0);
        for col in &cols {
            for lit in &lits {
                let chunk = Chunk::new(vec![col.clone(), broadcast(lit, col.len())]);
                let (c0, c1, l) = (Expr::col(0), Expr::col(1), Expr::Lit(lit.clone()));
                let remap = [0, 1];
                for op in cmps {
                    // Every type pair, the promotion pairs included, with
                    // the scalar on either side; unsupported pairs fail in
                    // both forms.
                    for (scalar, wide) in [
                        (
                            Expr::Cmp(op, c0.clone().into(), l.clone().into()),
                            Expr::Cmp(op, c0.clone().into(), c1.clone().into()),
                        ),
                        (
                            Expr::Cmp(op, l.clone().into(), c0.clone().into()),
                            Expr::Cmp(op, c1.clone().into(), c0.clone().into()),
                        ),
                    ] {
                        let got = scalar.eval_mask(&chunk, &remap).ok();
                        assert_eq!(got, wide.eval_mask(&chunk, &remap).ok(), "{scalar:?}");
                        compared += usize::from(got.is_some());
                    }
                }
                for op in ariths {
                    for (scalar, wide) in [
                        (
                            Expr::Arith(op, c0.clone().into(), l.clone().into()),
                            Expr::Arith(op, c0.clone().into(), c1.clone().into()),
                        ),
                        (
                            Expr::Arith(op, l.clone().into(), c0.clone().into()),
                            Expr::Arith(op, c1.clone().into(), c0.clone().into()),
                        ),
                    ] {
                        let got = bits(scalar.eval(&chunk, &remap));
                        assert_eq!(got, bits(wide.eval(&chunk, &remap)), "{scalar:?}");
                        computed += usize::from(got.is_some());
                    }
                }
            }
        }
        // 8 comparable type pairs x 6 ops x 2 sides; arithmetic over the
        // four numeric pairs (5 ops x 2 sides) plus date +/- days with
        // the literal as either operand.
        assert_eq!((compared, computed), (96, 44));

        // And against plain Rust, for the promotion the widening vectors
        // used to perform: an i64 column against a float literal.
        let chunk = Chunk::new(vec![cols[0].clone()]);
        for op in cmps {
            let e = Expr::Cmp(op, Expr::col(0).into(), Expr::lit_f64(2.0).into());
            let want: Vec<bool> = cols[0]
                .i64s()
                .iter()
                .map(|&x| match op {
                    CmpOp::Eq => x as f64 == 2.0,
                    CmpOp::Ne => x as f64 != 2.0,
                    CmpOp::Lt => (x as f64) < 2.0,
                    CmpOp::Le => x as f64 <= 2.0,
                    CmpOp::Gt => x as f64 > 2.0,
                    CmpOp::Ge => x as f64 >= 2.0,
                })
                .collect();
            assert_eq!(e.eval_mask(&chunk, &[0]).unwrap().to_bools(), want);
        }
        let e = Expr::mul(Expr::col(0), Expr::lit_f64(0.5));
        let want: Vec<f64> = cols[0].i64s().iter().map(|&x| x as f64 * 0.5).collect();
        assert_eq!(e.eval(&chunk, &[0]).unwrap().f64s(), &want[..]);
    }
}
