//! Property tests for the morsel-parallel scan: whatever the worker
//! count, `Table::scan` must return exactly the chunks a serial scan
//! returns — same rows, same order, same arity.

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
    ])
}

/// Build a table from integer seeds; the other columns derive from `k` so
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
        ])
        .unwrap();
    }
    w.finish().unwrap();
    meta
}

/// Late-materializing scan at an explicit morsel-parallelism degree.
fn at(workers: usize) -> ScanOptions {
    ScanOptions {
        workers,
        late_mat: true,
    }
}

fn predicate(kind: u8) -> Option<Expr> {
    match kind % 5 {
        0 => None,
        1 => Some(Expr::lt(Expr::col(0), Expr::lit_i64(500))),
        2 => Some(Expr::eq(Expr::col(2), Expr::lit_str("cat-2"))),
        3 => Some(Expr::and(
            Expr::ge(Expr::col(0), Expr::lit_i64(100)),
            Expr::gt(Expr::col(1), Expr::lit_f64(0.0)),
        )),
        // Impossible predicate: exercises the empty-result arity path.
        _ => Some(Expr::lt(Expr::col(0), Expr::lit_i64(i64::MIN + 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn scan_is_identical_across_worker_counts(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..5,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        for proj in [vec![0usize, 1, 2], vec![1], vec![2, 0]] {
            let serial = meta
                .scan_with_options(&store, &proj, pred.as_ref(), &meter, at(1), None)
                .unwrap();
            prop_assert_eq!(serial.cols.len(), proj.len());
            for workers in [2usize, 8] {
                let parallel = meta
                    .scan_with_options(&store, &proj, pred.as_ref(), &meter, at(workers), None)
                    .unwrap();
                prop_assert_eq!(&parallel, &serial);
            }
        }
    }

    #[test]
    fn default_scan_uses_store_parallelism_and_agrees(
        seeds in proptest::collection::vec(0i64..200, 0..150),
    ) {
        // MemPageStore reports a parallelism of 1; the public `scan`
        // entry point must agree with an explicit 8-worker scan.
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, 16, &store, &meter);
        let pred = predicate(1);
        let a = meta.scan(&store, &[0, 2], pred.as_ref(), &meter).unwrap();
        let b = meta
            .scan_with_options(&store, &[0, 2], pred.as_ref(), &meter, at(8), None)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
