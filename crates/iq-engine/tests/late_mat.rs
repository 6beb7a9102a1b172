//! Property tests for the two-phase late-materialization scan: whatever
//! the predicate, projection, group size or worker count, `late_mat: true`
//! must return exactly what the classic eager scan returns — same rows,
//! same order, same arity — and each mode's meter charge must not depend
//! on the worker count.

use iq_common::{TableId, TxnId};
use iq_engine::expr::Expr;
use iq_engine::table::{ScanOptions, Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{MemPageStore, WorkMeter};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&[
        ("k", DataType::I64),
        ("v", DataType::F64),
        ("s", DataType::Str),
        ("d", DataType::Date),
    ])
}

/// Build a table from integer seeds; every column derives from `k` so
/// result rows are fully determined by the seed vector.
fn build_table(
    seeds: &[i64],
    group_size: u32,
    store: &MemPageStore,
    meter: &WorkMeter,
) -> TableMeta {
    let mut meta = TableMeta::new(TableId(1), "t", schema(), group_size);
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), meter);
    for &k in seeds {
        w.append_row(&[
            Value::I64(k),
            Value::F64(k as f64 * 0.5 - 100.0),
            Value::Str(format!("cat-{}", k.rem_euclid(7)).into()),
            Value::Date((11_000 + k.rem_euclid(4000)) as i32),
        ])
        .unwrap();
    }
    w.finish().unwrap();
    meta
}

/// The predicate zoo: every prune-check and dictionary-rewrite shape the
/// scan front end knows about, plus always-true/always-false edges.
fn predicate(kind: u8) -> Option<Expr> {
    match kind % 10 {
        0 => None,
        1 => Some(Expr::lt(Expr::col(0), Expr::lit_i64(500))),
        // Dictionary-domain equality and an IN list over dict strings.
        2 => Some(Expr::eq(Expr::col(2), Expr::lit_str("cat-2"))),
        3 => Some(Expr::in_list(
            Expr::col(2),
            vec![Value::Str("cat-0".into()), Value::Str("cat-5".into())],
        )),
        // A string literal absent from every dictionary.
        4 => Some(Expr::eq(Expr::col(2), Expr::lit_str("cat-missing"))),
        5 => Some(Expr::and(
            Expr::ge(Expr::col(0), Expr::lit_i64(100)),
            Expr::gt(Expr::col(1), Expr::lit_f64(0.0)),
        )),
        // BETWEEN both bounds, Ne, prefix LIKE, EXTRACT(YEAR).
        6 => Some(Expr::between(
            Expr::col(0),
            Expr::lit_i64(200),
            Expr::lit_i64(300),
        )),
        7 => Some(Expr::and(
            Expr::ne(Expr::col(2), Expr::lit_str("cat-3")),
            Expr::like(Expr::col(2), "cat-%"),
        )),
        8 => Some(Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(2000))),
        // Impossible predicate: exercises the empty-result arity path.
        _ => Some(Expr::lt(Expr::col(0), Expr::lit_i64(i64::MIN + 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn late_mat_is_bitwise_identical_to_eager(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..10,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        for proj in [vec![0usize, 1, 2, 3], vec![1], vec![3, 0], vec![]] {
            // The eager serial scan is the oracle; per-mode meter charges
            // must be worker-independent (late-mat legitimately decodes
            // less than eager, so the two modes' charges may differ).
            let mut oracle = None;
            let mut charge = [None::<u64>; 2];
            for workers in [1usize, 2, 8] {
                for late_mat in [false, true] {
                    let mark = meter.total();
                    let out = meta
                        .scan_with_options(
                            &store,
                            &proj,
                            pred.as_ref(),
                            &meter,
                            ScanOptions { workers, late_mat },
                            None,
                        )
                        .unwrap();
                    let spent = meter.since(mark);
                    prop_assert_eq!(out.cols.len(), proj.len());
                    match charge[late_mat as usize] {
                        None => charge[late_mat as usize] = Some(spent),
                        Some(c) => prop_assert_eq!(
                            spent, c,
                            "meter charge varies with workers (late_mat={})", late_mat
                        ),
                    }
                    match &oracle {
                        None => oracle = Some(out),
                        Some(o) => prop_assert_eq!(&out, o),
                    }
                }
            }
        }
    }
}
