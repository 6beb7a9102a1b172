//! Property tests: every physical operator against a naive reference
//! implementation, and the full storage round-trip (encode → page → scan
//! with zone-map pruning) against an in-memory filter.

use std::collections::BTreeMap;

use iq_common::{TableId, TxnId};
use iq_engine::chunk::{Chunk, Col};
use iq_engine::expr::Expr;
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, sort, AggSpec, JoinType, SortDir};
use iq_engine::table::{Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::OpExec;
use iq_engine::{MemPageStore, WorkMeter};
use proptest::prelude::*;

fn key_col() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..20, 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn inner_join_matches_nested_loop(l in key_col(), r in key_col()) {
        let meter = WorkMeter::new();
        let left = Chunk::new(vec![Col::I64(l.clone())]);
        let right = Chunk::new(vec![Col::I64(r.clone())]);
        let out = hash_join_exec(&left, &right, &[0], &[0], JoinType::Inner, &meter, &OpExec::serial())
            .unwrap();
        // Reference: nested loop, multiset of (l, r) pairs.
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for &a in &l {
            for &b in &r {
                if a == b {
                    expected.push((a, b));
                }
            }
        }
        let mut got: Vec<(i64, i64)> = out
            .col(0)
            .i64s()
            .iter()
            .zip(out.col(1).i64s())
            .map(|(&a, &b)| (a, b))
            .collect();
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn semi_anti_partition_the_left_side(l in key_col(), r in key_col()) {
        let meter = WorkMeter::new();
        let left = Chunk::new(vec![Col::I64(l.clone())]);
        let right = Chunk::new(vec![Col::I64(r.clone())]);
        let serial = OpExec::serial();
        let semi = hash_join_exec(&left, &right, &[0], &[0], JoinType::Semi, &meter, &serial).unwrap();
        let anti = hash_join_exec(&left, &right, &[0], &[0], JoinType::Anti, &meter, &serial).unwrap();
        // Semi ∪ Anti = left (as multisets), Semi ∩ Anti = ∅ by key.
        prop_assert_eq!(semi.len() + anti.len(), left.len());
        for &v in semi.col(0).i64s() {
            prop_assert!(r.contains(&v));
        }
        for &v in anti.col(0).i64s() {
            prop_assert!(!r.contains(&v));
        }
    }

    #[test]
    fn grouped_aggregate_matches_btreemap(
        keys in key_col(),
        vals in proptest::collection::vec(-100.0f64..100.0, 0..60),
    ) {
        let n = keys.len().min(vals.len());
        let keys = &keys[..n];
        let vals = &vals[..n];
        let meter = WorkMeter::new();
        let input = Chunk::new(vec![Col::I64(keys.to_vec()), Col::F64(vals.to_vec())]);
        let out = hash_aggregate_exec(
            &input,
            &[0],
            &[AggSpec::sum(1), AggSpec::count(1), AggSpec::min(1), AggSpec::max(1)],
            &meter,
            &OpExec::serial(),
        )
        .unwrap();
        let mut reference: BTreeMap<i64, (f64, u64, f64, f64)> = BTreeMap::new();
        for (&k, &v) in keys.iter().zip(vals) {
            let e = reference.entry(k).or_insert((0.0, 0, f64::INFINITY, f64::NEG_INFINITY));
            e.0 += v;
            e.1 += 1;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        prop_assert_eq!(out.len(), reference.len());
        for row in 0..out.len() {
            let k = out.col(0).i64s()[row];
            let (sum, count, min, max) = reference[&k];
            prop_assert!((out.col(1).f64s()[row] - sum).abs() < 1e-9);
            prop_assert_eq!(out.col(2).i64s()[row] as u64, count);
            prop_assert!((out.col(3).f64s()[row] - min).abs() < 1e-9);
            prop_assert!((out.col(4).f64s()[row] - max).abs() < 1e-9);
        }
    }

    #[test]
    fn sort_matches_std(keys in key_col()) {
        let meter = WorkMeter::new();
        let input = Chunk::new(vec![Col::I64(keys.clone())]);
        let out = sort(&input, &[(0, SortDir::Desc)], &meter);
        let mut expected = keys;
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(out.col(0).i64s(), &expected[..]);
    }

    #[test]
    fn scan_roundtrip_matches_in_memory_filter(
        rows in proptest::collection::vec((0i64..1000, -50.0f64..50.0), 1..300),
        lo in 0i64..1000,
        width in 1i64..500,
        group_size in 8u32..64,
    ) {
        // Load through the real encode/page path, scan with a range
        // predicate that the zone maps can prune on, compare to a plain
        // in-memory filter.
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let schema = Schema::new(&[("k", DataType::I64), ("v", DataType::F64)]);
        let mut meta = TableMeta::new(TableId(1), "t", schema, group_size);
        {
            let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
            for &(k, v) in &rows {
                w.append_row(&[Value::I64(k), Value::F64(v)]).unwrap();
            }
            w.finish().unwrap();
        }
        let hi = lo + width;
        let pred = Expr::and(
            Expr::ge(Expr::col(0), Expr::lit_i64(lo)),
            Expr::lt(Expr::col(0), Expr::lit_i64(hi)),
        );
        let out = meta.scan(&store, &[0, 1], Some(&pred), &meter).unwrap();
        let expected: Vec<(i64, f64)> =
            rows.iter().copied().filter(|&(k, _)| k >= lo && k < hi).collect();
        prop_assert_eq!(out.len(), expected.len());
        for (row, &(k, v)) in expected.iter().enumerate() {
            prop_assert_eq!(out.col(0).i64s()[row], k);
            prop_assert!((out.col(1).f64s()[row] - v).abs() < 1e-12);
        }
    }

    #[test]
    fn expr_between_in_like_match_direct_predicates(
        vals in proptest::collection::vec(0i64..50, 1..80),
    ) {
        let meter = WorkMeter::new();
        let _ = &meter;
        let strs: Vec<std::sync::Arc<str>> = vals
            .iter()
            .map(|&v| std::sync::Arc::from(format!("item-{v:02}-end")))
            .collect();
        let chunk = Chunk::new(vec![Col::I64(vals.clone()), Col::Str(strs)]);
        let remap: Vec<usize> = (0..2).collect();
        let between = Expr::between(Expr::col(0), Expr::lit_i64(10), Expr::lit_i64(30));
        let mask = between.eval_mask(&chunk, &remap).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(mask.get(i), (10..=30).contains(&v));
        }
        let like = Expr::like(Expr::col(1), "item-1%end");
        let mask = like.eval_mask(&chunk, &remap).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(mask.get(i), (10..=19).contains(&v), "v={}", v);
        }
        let inlist = Expr::in_list(
            Expr::col(0),
            vec![Value::I64(3), Value::I64(7), Value::I64(49)],
        );
        let mask = inlist.eval_mask(&chunk, &remap).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            prop_assert_eq!(mask.get(i), v == 3 || v == 7 || v == 49);
        }
    }
}
