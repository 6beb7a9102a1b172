//! The join and aggregate kernels against an oracle that is not the
//! engine: the row-at-a-time `Vec<KeyVal>` operators the fixed-width row
//! keys replaced, kept verbatim (serial form) in `oracle/mod.rs`.
//!
//! Inputs cover what the key representation could get wrong: keys of
//! every column type and 1–7 columns, NaNs with different payloads,
//! `0.0` / `-0.0`, `i64::MIN` / `MAX`, empty strings, equal strings under
//! different codes of different lists, empty inputs, and (one group, many workers) empty
//! partitions. Results are compared bitwise at 1 / 2 / 8 workers.

mod oracle;

use iq_engine::chunk::{Chunk, Col};
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggSpec, JoinType, OpExec};
use iq_engine::WorkMeter;
use oracle::{assert_bitwise_eq, key, ref_aggregate, ref_join, KeyVal};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Generators.
// ----------------------------------------------------------------------

/// Small pools, so keys collide; each pool holds the values a word-sized
/// key could confuse.
fn key_column(kind: u8, picks: &[u8]) -> Col {
    let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
    match kind % 5 {
        0 => {
            let pool = [i64::MIN, i64::MAX, 0, 1, -1, 42];
            Col::I64(picks.iter().map(|&p| pool[p as usize % 6]).collect())
        }
        1 => {
            let pool = [0.0, -0.0, nan(0), nan(1), 1.5, f64::INFINITY];
            Col::F64(picks.iter().map(|&p| pool[p as usize % 6]).collect())
        }
        2 => {
            // A list of the column's own: the two sides of a join key
            // equal strings under different codes.
            let pool = ["", "a", "ab", "b", "a\u{e9}", "AIR REG"];
            Col::Str(picks.iter().map(|&p| pool[p as usize % 6]).collect())
        }
        3 => {
            let pool = [i32::MIN, i32::MAX, 0, 1, -1, 9_000];
            Col::Date(picks.iter().map(|&p| pool[p as usize % 6]).collect())
        }
        _ => Col::Bool(picks.iter().map(|&p| p % 2 == 0).collect()),
    }
}

/// `kinds.len()` key columns followed by an f64 measure (sums that depend
/// on association order), an i64 measure, a string and a date.
fn table(kinds: &[u8], rows: &[(Vec<u8>, u8)]) -> Chunk {
    let mut cols: Vec<Col> = kinds
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let picks: Vec<u8> = rows.iter().map(|(p, _)| p[k]).collect();
            key_column(kind, &picks)
        })
        .collect();
    let m: Vec<u8> = rows.iter().map(|&(_, m)| m).collect();
    cols.push(Col::F64(
        m.iter()
            .enumerate()
            .map(|(i, &x)| 0.1 + x as f64 * 1e-7 + i as f64 * 1e9)
            .collect(),
    ));
    cols.push(Col::I64(m.iter().map(|&x| (x % 5) as i64).collect()));
    cols.push(Col::Str(m.iter().map(|&x| format!("s{}", x % 7)).collect()));
    cols.push(Col::Date(m.iter().map(|&x| 9_000 + x as i32).collect()));
    Chunk::new(cols)
}

fn rows(max: usize) -> impl Strategy<Value = Vec<(Vec<u8>, u8)>> {
    proptest::collection::vec(
        (proptest::collection::vec(any::<u8>(), 7..8), any::<u8>()),
        0..max,
    )
}

fn kinds() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..5, 1..8)
}

const WORKERS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn aggregate_matches_the_keyval_operator(kinds in kinds(), rows in rows(120)) {
        let input = table(&kinds, &rows);
        let k = kinds.len();
        let group: Vec<usize> = (0..k).collect();
        // Every `AggKind`, Min/Max over every type that supports them.
        let aggs = [
            AggSpec::sum(k),
            AggSpec::avg(k),
            AggSpec::count(0),
            AggSpec::min(k),
            AggSpec::max(k),
            AggSpec::sum(k + 1),
            AggSpec::min(k + 1),
            AggSpec::count_distinct(k + 1),
            AggSpec::min(k + 2),
            AggSpec::max(k + 2),
            AggSpec::min(k + 3),
            AggSpec::max(k + 3),
        ];
        let want = ref_aggregate(&input, &group, &aggs);
        let scalar_want = ref_aggregate(&input, &[], &aggs);
        for workers in WORKERS {
            let meter = WorkMeter::new();
            let exec = OpExec::new(workers);
            let got = hash_aggregate_exec(&input, &group, &aggs, &meter, &exec).unwrap();
            assert_bitwise_eq(&want, &got)?;
            let got = hash_aggregate_exec(&input, &[], &aggs, &meter, &exec).unwrap();
            assert_bitwise_eq(&scalar_want, &got)?;
        }
    }

    #[test]
    fn join_matches_the_keyval_operator(
        kinds in kinds(),
        left in rows(80),
        right in rows(80),
    ) {
        let (l, r) = (table(&kinds, &left), table(&kinds, &right));
        let keys: Vec<usize> = (0..kinds.len()).collect();
        for jt in [JoinType::Inner, JoinType::Left, JoinType::Semi, JoinType::Anti] {
            let want = ref_join(&l, &r, &keys, &keys, jt);
            for workers in WORKERS {
                let meter = WorkMeter::new();
                let got =
                    hash_join_exec(&l, &r, &keys, &keys, jt, &meter, &OpExec::new(workers))
                        .unwrap();
                assert_bitwise_eq(&want, &got)?;
            }
        }
    }
}

#[test]
fn one_group_leaves_partitions_empty() {
    // A single key at 8 workers: 15 of 16 partitions fold nothing, the
    // first included unless the key happens to hash there.
    let rows: Vec<(Vec<u8>, u8)> = (0..40).map(|i| (vec![3; 7], i)).collect();
    for kind in 0..5u8 {
        let input = table(&[kind], &rows);
        let aggs = [AggSpec::sum(1), AggSpec::min(3), AggSpec::count_distinct(2)];
        let want = ref_aggregate(&input, &[0], &aggs);
        let meter = WorkMeter::new();
        let got = hash_aggregate_exec(&input, &[0], &aggs, &meter, &OpExec::new(8)).unwrap();
        assert_bitwise_eq(&want, &got).unwrap();
        assert_eq!(got.len(), 1);
    }
}

#[test]
fn keyval_keys_for_all_types() {
    // What the reference keys on, pinned: floats by bit pattern, bools as
    // integers, strings by content.
    let c = Chunk::new(vec![
        Col::I64(vec![1, 2]),
        Col::F64(vec![1.5, -0.0]),
        Col::Str(["a", "b"].into_iter().collect()),
        Col::Bool(vec![true, false]),
    ]);
    assert_eq!(key(c.col(0), 0), KeyVal::I(1));
    assert_eq!(key(c.col(1), 0), KeyVal::F(1.5f64.to_bits()));
    assert_ne!(key(c.col(1), 1), KeyVal::F(0.0f64.to_bits()));
    assert_eq!(key(c.col(2), 1), KeyVal::S("b".into()));
    assert_eq!(key(c.col(3), 0), KeyVal::I(1));
    assert!(KeyVal::I(1) < KeyVal::I(2));
    assert!(KeyVal::S("a".into()) < KeyVal::S("b".into()));
}
