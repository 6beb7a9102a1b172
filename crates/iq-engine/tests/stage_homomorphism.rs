//! A scan stage is a concatenation homomorphism, as a property: for
//! random tables, predicates, worker counts and scan modes, and stages
//! composed of join probes, a filter and a computed column,
//!
//! ```text
//! scan(stage) == stage(scan()) == the same operators, whole-chunk,
//!                                  through the retired `Vec<KeyVal>` join
//! ```
//!
//! bitwise (floats by bit pattern), with equal `WorkMeter` totals.
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
use iq_engine::ops::{HashJoin, JoinType, OpExec};
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
        Col::Str(Vec::new()),
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
