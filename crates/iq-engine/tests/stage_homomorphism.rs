//! A scan stage is a concatenation homomorphism, as a property: for
//! random tables, predicates, worker counts and scan modes, and stages
//! composed of join probes, a filter and a computed column,
//!
//! ```text
//! scan(stage) == stage(scan()) == the same operators, whole-chunk,
//!                                  through the retired `Vec<KeyVal>` join
//! ```
//!
//! bitwise (floats by bit pattern), with equal `WorkMeter` totals. A
//! scan-fed aggregate, which folds the staged morsels in scan order
//! instead of stitching them, is likewise bitwise the materialised
//! aggregate over the stitched staged scan:
//!
//! ```text
//! AggregateSink(stage, group, aggs).scan() == hash_aggregate_exec(scan(stage), group, aggs)
//! ```
//!
//! Tables hold every column type; the key columns draw from pools with
//! `i64::MIN` / `MAX`, NaNs of different payloads, `0.0` / `-0.0` and
//! strings held in a fresh `Arc` per row. Row groups are small, so a scan
//! has groups that are zone-pruned, empty-masked and partly selected — and
//! sometimes none left at all. Build sides have duplicate keys, keys the
//! probe side never carries, or no rows.

mod oracle;

use std::sync::Arc;

use iq_common::{IqResult, TableId, TxnId};
use iq_engine::chunk::{Chunk, Col};
use iq_engine::expr::Expr;
use iq_engine::ops::{hash_aggregate_exec, AggSpec, AggregateSink, HashJoin, JoinType, OpExec};
use iq_engine::table::{ScanOptions, Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{MemPageStore, WorkMeter};
use oracle::{assert_bitwise_eq, ref_join};
use proptest::prelude::*;

// Table columns: the three join keys (`I64`, `F64`, `Str`) at 0..3, a
// date, then:
const K_STR: usize = 2;
const MEASURE: usize = 4;
/// The row's ordinal: clustered, so predicates over it prune whole groups.
const SEQ: usize = 5;

fn nan(payload: u64) -> f64 {
    f64::from_bits(0x7ff8_0000_0000_0000 | payload)
}

/// The key of pick `p`; picks of 6 and above are values only a build side
/// carries (`load` keeps below 6), so such a key matches nothing.
fn key_values(p: [u8; 3]) -> [Value; 3] {
    let ints = [i64::MIN, i64::MAX, 0, 1, -1, 42, 7, -7];
    let flts = [0.0, -0.0, nan(0), nan(1), 1.5, f64::INFINITY, 2.5, nan(2)];
    let strs = ["", "a", "ab", "b", "a\u{e9}", "AIR REG", "zz", "a "];
    [
        Value::I64(ints[p[0] as usize % 8]),
        Value::F64(flts[p[1] as usize % 8]),
        // A fresh `Arc` per row: equal strings never share a pointer.
        Value::Str(Arc::from(strs[p[2] as usize % 8])),
    ]
}

fn schema() -> Schema {
    Schema::new(&[
        ("k_int", DataType::I64),
        ("k_flt", DataType::F64),
        ("k_str", DataType::Str),
        ("date", DataType::Date),
        ("measure", DataType::F64),
        ("seq", DataType::I64),
    ])
}

fn load(rows: &[([u8; 3], u8)], group: u32, store: &MemPageStore) -> TableMeta {
    let meter = WorkMeter::new();
    let mut meta = TableMeta::new(TableId(1), "t", schema(), group);
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), &meter);
    for (i, &(picks, m)) in rows.iter().enumerate() {
        let [a, b, c] = key_values(picks.map(|p| p % 6));
        let measure = 0.1 + m as f64 * 1e-7 + i as f64 * 1e9;
        w.append_row(&[
            a,
            b,
            c,
            Value::Date(9_000 + m as i32),
            Value::F64(measure),
            Value::I64(i as i64),
        ])
        .unwrap();
    }
    w.finish().unwrap();
    meta
}

/// A build side: the three key columns, then a payload of each remaining
/// type (what `Left` has to default).
fn build_side(rows: &[([u8; 3], u8)]) -> Chunk {
    let mut cols = vec![
        Col::I64(Vec::new()),
        Col::F64(Vec::new()),
        Col::Str(Default::default()),
        Col::Date(Vec::new()),
        Col::Bool(Vec::new()),
    ];
    for &(picks, m) in rows {
        for (col, v) in cols.iter_mut().zip(key_values(picks)) {
            col.push(&v).unwrap();
        }
        cols[3].push(&Value::Date(m as i32)).unwrap();
        match &mut cols[4] {
            Col::Bool(v) => v.push(m % 2 == 0),
            _ => unreachable!(),
        }
    }
    Chunk::new(cols)
}

#[derive(Debug, Clone)]
struct Probe {
    build: Vec<([u8; 3], u8)>,
    /// Which of the three key columns the join is on (never none).
    keys: Vec<usize>,
    jt: JoinType,
}

#[derive(Debug, Clone)]
enum Step {
    Probe(Probe),
    /// Keep rows whose measure is above a threshold.
    Filter(u8),
    /// Append `measure * 2 + seq`.
    Compute,
}

/// Three key picks and a pick for everything else.
fn row() -> impl Strategy<Value = ([u8; 3], u8)> {
    (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c, m)| ([a, b, c], m))
}

fn probe() -> impl Strategy<Value = Probe> {
    (proptest::collection::vec(row(), 0..24), 1u8..8, 0u8..4).prop_map(|(build, mask, jt)| Probe {
        build,
        keys: (0..3).filter(|k| mask >> k & 1 == 1).collect(),
        jt: [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ][jt as usize],
    })
}

/// 0–3 probes, an optional filter and an optional computed column, in any
/// order.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        probe().prop_map(Step::Probe),
        probe().prop_map(Step::Probe),
        any::<u8>().prop_map(Step::Filter),
        Just(Step::Compute),
    ];
    proptest::collection::vec(step, 0..6).prop_map(|mut steps| {
        let mut seen = [0usize; 3];
        steps.retain(|s| {
            let (kind, most) = match s {
                Step::Probe(_) => (0, 3),
                Step::Filter(_) => (1, 1),
                Step::Compute => (2, 1),
            };
            seen[kind] += 1;
            seen[kind] <= most
        });
        steps
    })
}

/// Scan predicates over the table's own column ids: none, a clustered
/// range (prunes groups), one the zone maps cannot see through (leaves
/// groups empty-masked or partly selected), a dictionary-domain string
/// equality, and one no row passes.
fn predicate(kind: u8, rows: usize) -> Option<Expr> {
    let n = rows as i64;
    let seq = || Expr::col(SEQ);
    match kind % 6 {
        0 => None,
        1 => Some(Expr::lt(seq(), Expr::lit_i64(n / 3))),
        2 => Some(Expr::eq(
            Expr::modulo(seq(), Expr::lit_i64(11)),
            Expr::lit_i64(3),
        )),
        3 => Some(Expr::and(
            Expr::ge(seq(), Expr::lit_i64(n / 4)),
            Expr::lt(Expr::modulo(seq(), Expr::lit_i64(40)), Expr::lit_i64(9)),
        )),
        4 => Some(Expr::eq(Expr::col(K_STR), Expr::lit_str("ab"))),
        _ => Some(Expr::gt(seq(), Expr::lit_i64(n))),
    }
}

fn filter_expr(pick: u8, rows: usize) -> Expr {
    let threshold = (pick as usize * rows.max(1) / 256) as f64 * 1e9;
    Expr::gt(Expr::col(MEASURE), Expr::lit_f64(threshold))
}

fn computed_expr() -> Expr {
    Expr::add(
        Expr::mul(Expr::col(MEASURE), Expr::lit_f64(2.0)),
        Expr::col(SEQ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn staged_scan_equals_stage_of_scan_equals_the_keyval_join(
        rows in proptest::collection::vec(row(), 0..160),
        group in prop_oneof![Just(8u32), Just(16u32), Just(64u32)],
        pred_kind in 0u8..6,
        steps in steps(),
    ) {
        let store = MemPageStore::new();
        let meta = load(&rows, group, &store);
        let pred = predicate(pred_kind, rows.len());
        let projection: Vec<usize> = (0..schema().len()).collect();
        let filter = |pick: u8| filter_expr(pick, rows.len());
        let computed = computed_expr();

        // Build sides are built once, outside the stage, as a plan does.
        let build_meter = WorkMeter::new();
        let builds: Vec<Option<Chunk>> = steps
            .iter()
            .map(|s| match s {
                Step::Probe(p) => Some(build_side(&p.build)),
                _ => None,
            })
            .collect();
        let exec = OpExec::new(2);
        let joins: Vec<Option<HashJoin<'_>>> = steps
            .iter()
            .zip(&builds)
            .map(|(s, b)| match (s, b) {
                (Step::Probe(p), Some(b)) => {
                    Some(HashJoin::build(b, &p.keys, &build_meter, &exec).unwrap())
                }
                _ => None,
            })
            .collect();

        // The stage: every step through the engine, on whatever chunk it
        // is handed. `meter` is the caller's, so a staged scan and the
        // stage run after a plain scan can be charged apart.
        let run_stage = |mut c: Chunk, meter: &WorkMeter| -> IqResult<Chunk> {
            for (step, join) in steps.iter().zip(&joins) {
                c = match (step, join) {
                    (Step::Probe(p), Some(join)) => join.probe(&c, &p.keys, p.jt, meter)?,
                    (Step::Filter(pick), _) => c.filter(&filter(*pick).mask_on(&c)?),
                    (Step::Compute, _) => {
                        let col = computed.eval_on(&c)?;
                        c.cols.push(col);
                        c
                    }
                    (Step::Probe(_), None) => unreachable!("every probe has its build"),
                };
            }
            Ok(c)
        };

        // The oracle: the same steps over the whole eager serial scan,
        // joins through the `Vec<KeyVal>` operator.
        let eager = ScanOptions { workers: 1, late_mat: false };
        let whole = meta
            .scan_with_options(&store, &projection, pred.as_ref(), &WorkMeter::new(), eager, None)
            .unwrap();
        let mut want = whole;
        for (step, build) in steps.iter().zip(&builds) {
            want = match (step, build) {
                (Step::Probe(p), Some(b)) => ref_join(&want, b, &p.keys, &p.keys, p.jt),
                (Step::Filter(pick), _) => want.filter(&filter(*pick).mask_on(&want).unwrap()),
                (Step::Compute, _) => {
                    let col = computed.eval_on(&want).unwrap();
                    want.cols.push(col);
                    want
                }
                (Step::Probe(_), None) => unreachable!(),
            };
        }

        for workers in [1usize, 2, 8] {
            for late_mat in [true, false] {
                let opts = ScanOptions { workers, late_mat };
                let staged_meter = WorkMeter::new();
                let stage = |c: Chunk| run_stage(c, &staged_meter);
                let staged = meta
                    .scan_with_options(
                        &store, &projection, pred.as_ref(), &staged_meter, opts, Some(&stage),
                    )
                    .unwrap();

                let plain_meter = WorkMeter::new();
                let plain = meta
                    .scan_with_options(&store, &projection, pred.as_ref(), &plain_meter, opts, None)
                    .unwrap();
                let after = run_stage(plain, &plain_meter).unwrap();

                assert_bitwise_eq(&staged, &after)?;
                assert_bitwise_eq(&staged, &want)?;
                prop_assert_eq!(
                    staged_meter.total(), plain_meter.total(),
                    "work units @ {} workers, late_mat {}", workers, late_mat
                );
            }
        }
    }
}

// The aggregate stage appends a string column that is not
// dictionary-decoded (a fresh `Arc` per row) and a float column:
const SHORT_STR: usize = 6;
const COMPUTED: usize = 7;

/// The stage a scan-fed aggregate runs in its lanes: a filter and two
/// computed columns. Charges nothing of its own.
fn aggregate_stage(c: Chunk, filter: &Option<Expr>) -> IqResult<Chunk> {
    let mut c = match filter {
        Some(f) => c.filter(&f.mask_on(&c)?),
        None => c,
    };
    let short = Expr::substr(Expr::col(K_STR), 1, 1).eval_on(&c)?;
    c.cols.push(short);
    let computed = computed_expr().eval_on(&c)?;
    c.cols.push(computed);
    Ok(c)
}

/// Group columns: integers, floats with NaNs and `±0.0`, dictionary and
/// non-dictionary strings, dates.
const GROUP_COLS: [usize; 5] = [0, 1, K_STR, 3, SHORT_STR];

/// Every `AggKind`, over every input type that feeds it.
fn agg_specs() -> Vec<AggSpec> {
    vec![
        AggSpec::sum(MEASURE),
        AggSpec::sum(SEQ),
        AggSpec::avg(COMPUTED),
        AggSpec::avg(SEQ),
        AggSpec::count(K_STR),
        AggSpec::min(1),
        AggSpec::max(MEASURE),
        AggSpec::min(SEQ),
        AggSpec::max(3),
        AggSpec::min(K_STR),
        AggSpec::max(SHORT_STR),
        AggSpec::count_distinct(0),
        AggSpec::count_distinct(SEQ),
    ]
}

/// [`predicate`], and a sixth kind the zone maps cannot see through that
/// no row passes: every group survives pruning and its mask comes up
/// empty.
fn aggregate_predicate(kind: u8, rows: usize) -> Option<Expr> {
    match kind {
        6 => Some(Expr::eq(
            Expr::modulo(Expr::col(SEQ), Expr::lit_i64(11)),
            Expr::lit_i64(11),
        )),
        k => predicate(k, rows),
    }
}

/// `(sink, materialised)` results and meter totals of one scan-fed
/// aggregate against the stitched staged scan + the serial operator.
fn both_aggregates(
    meta: &TableMeta,
    store: &MemPageStore,
    pred: Option<&Expr>,
    stage: &(dyn Fn(Chunk) -> IqResult<Chunk> + Sync),
    group: &[usize],
    aggs: &[AggSpec],
    opts: ScanOptions,
) -> ((Chunk, u64), (Chunk, u64)) {
    let projection: Vec<usize> = (0..schema().len()).collect();
    let sink_meter = WorkMeter::new();
    let sink = AggregateSink::new(Some(stage), group, aggs)
        .scan(meta, store, &projection, pred, &sink_meter, opts)
        .unwrap();
    let whole_meter = WorkMeter::new();
    let stitched = meta
        .scan_with_options(store, &projection, pred, &whole_meter, opts, Some(stage))
        .unwrap();
    let whole =
        hash_aggregate_exec(&stitched, group, aggs, &whole_meter, &OpExec::serial()).unwrap();
    ((sink, sink_meter.total()), (whole, whole_meter.total()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn a_scan_fed_aggregate_is_bitwise_the_materialised_one(
        rows in proptest::collection::vec(row(), 0..160),
        group in prop_oneof![Just(8u32), Just(16u32), Just(64u32)],
        pred_kind in 0u8..7,
        (filtered, pick) in (any::<bool>(), any::<u8>()),
        group_picks in proptest::collection::vec(0usize..GROUP_COLS.len(), 0..4),
        agg_picks in proptest::collection::vec(0usize..13, 1..5),
    ) {
        let store = MemPageStore::new();
        let meta = load(&rows, group, &store);
        let pred = aggregate_predicate(pred_kind, rows.len());
        let filter = filtered.then(|| filter_expr(pick, rows.len()));
        let stage = |c: Chunk| aggregate_stage(c, &filter);
        let group_cols: Vec<usize> = group_picks.iter().map(|&p| GROUP_COLS[p]).collect();
        let specs = agg_specs();
        let aggs: Vec<AggSpec> = agg_picks.iter().map(|&p| specs[p]).collect();
        for workers in [1usize, 2, 8] {
            for late_mat in [true, false] {
                let opts = ScanOptions { workers, late_mat };
                let ((sink, sink_units), (whole, whole_units)) =
                    both_aggregates(&meta, &store, pred.as_ref(), &stage, &group_cols, &aggs, opts);
                assert_bitwise_eq(&sink, &whole)?;
                prop_assert_eq!(
                    sink_units, whole_units,
                    "work units @ {} workers, late_mat {}", workers, late_mat
                );
            }
        }
    }
}

#[test]
fn a_scalar_aggregate_over_no_rows_is_one_row_of_zero_states() {
    let rows: Vec<([u8; 3], u8)> = (0..100u8).map(|i| ([i, i / 3, i / 7], i)).collect();
    let store = MemPageStore::new();
    let meta = load(&rows, 16, &store);
    let stage = |c: Chunk| aggregate_stage(c, &None);
    let aggs = agg_specs();
    // Every group zone-pruned; every group read and its mask empty.
    for pred_kind in [5, 6] {
        let pred = aggregate_predicate(pred_kind, rows.len());
        for workers in [1usize, 2, 8] {
            for late_mat in [true, false] {
                let opts = ScanOptions { workers, late_mat };
                let ((sink, sink_units), (whole, whole_units)) =
                    both_aggregates(&meta, &store, pred.as_ref(), &stage, &[], &aggs, opts);
                assert_eq!(sink.len(), 1);
                assert_bitwise_eq(&sink, &whole).unwrap();
                assert_eq!(sink_units, whole_units);
                // Grouped, no rows means no groups.
                let ((sink, _), (whole, _)) = both_aggregates(
                    &meta,
                    &store,
                    pred.as_ref(),
                    &stage,
                    &[0, K_STR],
                    &aggs,
                    opts,
                );
                assert_eq!(sink.len(), 0);
                assert_bitwise_eq(&sink, &whole).unwrap();
            }
        }
    }
}
