//! The 22 TPC-H queries as hand-built physical plans.
//!
//! Each query composes `iq-engine`'s scan / join / aggregate / sort
//! operators exactly as a rule-based plan for the SQL text would, under
//! one rule: build sides are scanned and built first; the probe-side
//! table is then scanned *with* the plan's chain of probes, filters and
//! computed columns as the scan's stage ([`Ctx::scan_then`]), so that
//! chain runs one morsel at a time in the scan's lanes; and a scan is
//! materialised only where a blocking consumer — an aggregate, a sort, a
//! second consumer, being a build side — needs the whole of it.
//! Correlated subqueries use the classical rewrites: aggregate-then-join
//! (Q2, Q15, Q17, Q20), semi joins for `EXISTS`/`IN` (Q4, Q18, Q20),
//! anti joins for `NOT EXISTS`/`NOT IN` (Q16, Q22), and per-group
//! distinct-supplier counting for Q21's double (NOT) EXISTS.

mod q01_11;
mod q12_22;

use iq_common::{IqError, IqResult};
use iq_engine::chunk::Chunk;
use iq_engine::expr::Expr;
use iq_engine::ops::HashJoin;
use iq_engine::table::{ScanOptions, Stage, TableMeta};
use iq_engine::value::parse_date;
use iq_engine::{OpExec, PageStore, WorkMeter};

use crate::db::TpchDb;

/// Query-execution context.
pub struct Ctx<'a> {
    /// The loaded database.
    pub db: &'a TpchDb,
    /// Page store backing the tables.
    pub store: &'a dyn PageStore,
    /// Work meter operators charge.
    pub meter: &'a WorkMeter,
    /// Execution policy for the partitioned join/aggregate operators
    /// (worker fan-out + submission-depth accounting). Results are
    /// byte-identical at every worker count, so plans never need to care.
    pub exec: OpExec,
    /// Two-phase late-materialization scans (the default); `false` runs
    /// the classic eager scan. Results are byte-identical either way, so
    /// plans never need to care — the knob exists for the `--prune`
    /// ablation and the equivalence sweep.
    pub late_mat: bool,
}

impl Ctx<'_> {
    /// Scan `table`, projecting named columns (output positions follow
    /// `cols` order) under an optional predicate in *schema* indexes.
    pub fn scan(&self, table: &TableMeta, cols: &[&str], pred: Option<Expr>) -> IqResult<Chunk> {
        self.scan_staged(table, cols, pred, None)
    }

    /// [`scan`](Ctx::scan), then `stage` on each row group's chunk in the
    /// lane that decoded it — bitwise `stage(scan(..))`.
    pub fn scan_then(
        &self,
        table: &TableMeta,
        cols: &[&str],
        pred: Option<Expr>,
        stage: Stage<'_>,
    ) -> IqResult<Chunk> {
        self.scan_staged(table, cols, pred, Some(stage))
    }

    fn scan_staged(
        &self,
        table: &TableMeta,
        cols: &[&str],
        pred: Option<Expr>,
        stage: Option<Stage<'_>>,
    ) -> IqResult<Chunk> {
        let proj: Vec<usize> = cols
            .iter()
            .map(|c| {
                table
                    .schema
                    .col(c)
                    .ok_or_else(|| IqError::NotFound(format!("{}.{c}", table.name)))
            })
            .collect::<IqResult<_>>()?;
        table.scan_with_options(
            self.store,
            &proj,
            pred.as_ref(),
            self.meter,
            ScanOptions {
                workers: self.store.scan_parallelism(),
                late_mat: self.late_mat,
            },
            stage,
        )
    }

    /// The build side of a join over `right` keyed on `keys`.
    pub fn build<'c>(&self, right: &'c Chunk, keys: &[usize]) -> IqResult<HashJoin<'c>> {
        HashJoin::build(right, keys, self.meter, &self.exec)
    }
}

/// Schema-index column reference for scan predicates.
pub fn cx(table: &TableMeta, name: &str) -> Expr {
    Expr::col(
        table
            .schema
            .col(name)
            .unwrap_or_else(|| panic!("{}.{name} missing", table.name)),
    )
}

/// Date literal from `"YYYY-MM-DD"`.
pub fn d(s: &str) -> Expr {
    Expr::lit_date(parse_date(s).unwrap_or_else(|| panic!("bad date literal {s}")))
}

/// Days value of a date literal.
pub fn days(s: &str) -> i32 {
    parse_date(s).unwrap_or_else(|| panic!("bad date literal {s}"))
}

/// Identity remap for evaluating expressions over materialized chunks
/// (column index = chunk position).
pub fn ident(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// `price * (1 - discount)` over chunk positions.
fn discounted(price: usize, discount: usize) -> Expr {
    Expr::mul(
        Expr::col(price),
        Expr::sub(Expr::lit_f64(1.0), Expr::col(discount)),
    )
}

/// Filter `chunk` by a positional predicate.
pub fn filter_on(chunk: &Chunk, e: &Expr) -> IqResult<Chunk> {
    Ok(chunk.filter(&e.mask_on(chunk)?))
}

/// Append the columns `exprs` compute over `chunk`'s positions, in order:
/// each sees the ones before it.
pub fn with_cols(mut chunk: Chunk, exprs: &[&Expr]) -> IqResult<Chunk> {
    for e in exprs {
        let col = e.eval_on(&chunk)?;
        chunk.cols.push(col);
    }
    Ok(chunk)
}

/// Run TPC-H query `n` (1–22).
pub fn run_query(n: u32, ctx: &Ctx<'_>) -> IqResult<Chunk> {
    match n {
        1 => q01_11::q1(ctx),
        2 => q01_11::q2(ctx),
        3 => q01_11::q3(ctx),
        4 => q01_11::q4(ctx),
        5 => q01_11::q5(ctx),
        6 => q01_11::q6(ctx),
        7 => q01_11::q7(ctx),
        8 => q01_11::q8(ctx),
        9 => q01_11::q9(ctx),
        10 => q01_11::q10(ctx),
        11 => q01_11::q11(ctx),
        12 => q12_22::q12(ctx),
        13 => q12_22::q13(ctx),
        14 => q12_22::q14(ctx),
        15 => q12_22::q15(ctx),
        16 => q12_22::q16(ctx),
        17 => q12_22::q17(ctx),
        18 => q12_22::q18(ctx),
        19 => q12_22::q19(ctx),
        20 => q12_22::q20(ctx),
        21 => q12_22::q21(ctx),
        22 => q12_22::q22(ctx),
        other => Err(IqError::Invalid(format!(
            "TPC-H has 22 queries; got {other}"
        ))),
    }
}
