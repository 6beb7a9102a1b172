//! Property tests for the page-granular update primitives: whatever the
//! sequence of appends ([`TableWriter::reopen`]) and deletes
//! ([`TableMeta::delete_keys`]), the table scans — every column, same
//! rows, same order — like one rewritten from nothing after every step.

use std::collections::HashSet;

use iq_common::{TableId, TxnId};
use iq_engine::expr::Expr;
use iq_engine::table::{Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{Chunk, MemPageStore, WorkMeter};
use proptest::prelude::*;

const KEY: usize = 0;

fn schema() -> Schema {
    Schema::new(&[
        ("k", DataType::I64),
        ("bucket", DataType::I64),
        ("v", DataType::F64),
        ("s", DataType::Str),
        ("d", DataType::Date),
    ])
}

fn row(k: i64) -> Vec<Value> {
    vec![
        Value::I64(k),
        Value::I64(k % 13),
        Value::F64(k as f64 * 0.5 - 100.0),
        Value::Str(format!("cat-{}", k % 7).into()),
        Value::Date((11_000 + k % 4000) as i32),
    ]
}

fn empty_table(group_size: u32) -> TableMeta {
    TableMeta::new(TableId(1), "t", schema(), group_size)
}

fn full_scan(meta: &TableMeta, store: &MemPageStore, pred: Option<&Expr>) -> Chunk {
    let all: Vec<usize> = (0..meta.schema.len()).collect();
    meta.scan(store, &all, pred, &WorkMeter::new()).unwrap()
}

/// The oracle: the table reloaded from nothing with `keys` as its rows.
fn rewritten(like: &TableMeta, keys: &[i64], store: &MemPageStore) -> TableMeta {
    let mut meta = empty_table(like.row_group_size);
    let meter = WorkMeter::new();
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), &meter);
    for &k in keys {
        w.append_row(&row(k)).unwrap();
    }
    w.finish().unwrap();
    meta
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn updates_scan_like_a_rewritten_table(
        group_size in 8u32..=64,
        initial in 0usize..200,
        ops in proptest::collection::vec((0u8..3, 0usize..100, 0usize..10_000), 1..10),
    ) {
        let meter = WorkMeter::new();
        let (store, oracle_store) = (MemPageStore::new(), MemPageStore::new());
        let mut keys: Vec<i64> = (0..initial as i64).collect();
        let mut next_key = initial as i64;
        let mut meta = rewritten(&empty_table(group_size), &keys, &store);

        for (kind, a, b) in ops {
            match kind {
                // Append `a` rows: refills the tail group, overflows it
                // when `a` is large.
                0 => {
                    let mut w = TableWriter::reopen(&mut meta, &store, TxnId(2), &meter).unwrap();
                    for k in next_key..next_key + a as i64 {
                        w.append_row(&row(k)).unwrap();
                        keys.push(k);
                    }
                    w.finish().unwrap();
                    next_key += a as i64;
                }
                // Delete up to a dozen keys scattered over the table
                // (non-adjacent groups), or a run long enough to empty
                // whole groups.
                _ => {
                    let victims: HashSet<i64> = if keys.is_empty() {
                        HashSet::from([7])
                    } else if kind == 1 {
                        (0..a % 12).map(|i| keys[(b + i * 7919) % keys.len()]).collect()
                    } else {
                        keys.iter().skip(b % keys.len()).take(a).copied().collect()
                    };
                    let removed = meta
                        .delete_keys(&store, TxnId(3), &meter, KEY, &victims)
                        .unwrap();
                    let before = keys.len();
                    keys.retain(|k| !victims.contains(k));
                    prop_assert_eq!(removed as usize, before - keys.len());
                }
            }

            let oracle = rewritten(&meta, &keys, &oracle_store);
            prop_assert_eq!(meta.row_count(), keys.len() as u64);
            prop_assert_eq!(
                full_scan(&meta, &store, None),
                full_scan(&oracle, &oracle_store, None)
            );
            // Zones of rewritten groups still prune soundly.
            let pred = Expr::lt(Expr::col(KEY), Expr::lit_i64(next_key / 2));
            prop_assert_eq!(
                full_scan(&meta, &store, Some(&pred)),
                full_scan(&oracle, &oracle_store, Some(&pred))
            );
        }
    }
}
