//! The join and aggregate kernels against an oracle that is not the
//! engine: the row-at-a-time `Vec<KeyVal>` operators the fixed-width row
//! keys replaced, kept verbatim (serial form) in `oracle/mod.rs`.
//!
//! Inputs cover what the key representation could get wrong: keys of
//! every column type and 1–7 columns, NaNs with different payloads,
//! `0.0` / `-0.0`, `i64::MIN` / `MAX`, empty strings, equal strings under
//! different codes of different lists, empty inputs, and (one group, many workers) empty
//! partitions. Results are compared bitwise at 1 / 2 / 8 workers.
//!
//! Both sides of the operators' array rule are covered too: integer and
//! date keys that are dense (consecutive values with gaps, which index an
//! array by `word − min`) and sparse (spread wider than 8 slots a row,
//! which hash), key sets exactly at the rule's boundary and one slot past
//! it, negative keys, `i64::MIN` with `i64::MAX`, and probes below the
//! build side's lowest key, above its span and on the lookup's miss word.

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
    let keys: Vec<Col> = kinds
        .iter()
        .enumerate()
        .map(|(k, &kind)| {
            let picks: Vec<u8> = rows.iter().map(|(p, _)| p[k]).collect();
            key_column(kind, &picks)
        })
        .collect();
    let m: Vec<u8> = rows.iter().map(|&(_, m)| m).collect();
    with_measures(keys, &m)
}

/// Key columns `cols` followed by the measures of [`table`], drawn from `m`
/// (one a row).
fn with_measures(mut cols: Vec<Col>, m: &[u8]) -> Chunk {
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

    #[test]
    fn dense_and_sparse_keys_match_the_keyval_operator(
        date in any::<bool>(),
        base in 0u8..4,
        sparse in any::<bool>(),
        gaps in any::<u64>(),
        left in rows(80),
        right in rows(120),
    ) {
        let pool = int_pool(date, base, sparse, gaps);
        let probe_pool = with_outsiders(&pool, date);
        let pick = |rows: &[(Vec<u8>, u8)], pool: &[i64]| -> Vec<i64> {
            rows.iter().map(|(p, _)| pool[p[0] as usize % pool.len()]).collect()
        };
        let (l, r) = (
            int_table(date, pick(&left, &probe_pool), &left),
            int_table(date, pick(&right, &pool), &right),
        );
        matches_the_keyval_operator(&l, &r)?;
    }
}

// ----------------------------------------------------------------------
// Both sides of the dense-key rule: `max − min + 1 ≤ 8 · rows + 64`.
// ----------------------------------------------------------------------

/// Up to 64 integer keys. Dense: consecutive values, those whose bit of
/// `gaps` is clear left out. Sparse: the same offsets 1 000 apart, wider
/// than 8 slots a row at every row count drawn. `base` puts the lowest at
/// -500 (keys either side of zero), 1 (TPC-H's keys), the type's minimum,
/// or so that the highest is the type's maximum.
fn int_pool(date: bool, base: u8, sparse: bool, gaps: u64) -> Vec<i64> {
    let (lo, hi) = if date {
        (i32::MIN.into(), i32::MAX.into())
    } else {
        (i64::MIN, i64::MAX)
    };
    let stride = if sparse { 1_000 } else { 1 };
    let first = match base {
        0 => -500,
        1 => 1,
        2 => lo,
        _ => hi - 63 * stride,
    };
    let kept = (0..64).filter(|i| gaps & (1 << i) != 0 || *i == 0 || *i == 63);
    kept.map(|i| first + i * stride).collect()
}

/// `pool` and the keys a probe may carry that no build row does: one and
/// a thousand below its lowest, one and a thousand above its highest
/// (where the type has them), and -1, which an integer key words to the
/// same word a failed lookup gives.
fn with_outsiders(pool: &[i64], date: bool) -> Vec<i64> {
    let (lo, hi) = (pool[0], pool[pool.len() - 1]);
    let fits = |v: &i64| !date || i32::try_from(*v).is_ok();
    let outside = [
        lo.checked_sub(1),
        lo.checked_sub(1_000),
        hi.checked_add(1),
        hi.checked_add(1_000),
        Some(-1),
    ];
    let mut all = pool.to_vec();
    all.extend(outside.into_iter().flatten().filter(fits));
    all
}

/// One integer (or date) key column of `keys`, then the measures of
/// [`table`] drawn from `rows`.
fn int_table(date: bool, keys: Vec<i64>, rows: &[(Vec<u8>, u8)]) -> Chunk {
    let m: Vec<u8> = rows.iter().map(|&(_, m)| m).collect();
    with_measures(vec![int_col(date, keys)], &m)
}

fn int_col(date: bool, keys: Vec<i64>) -> Col {
    if date {
        Col::Date(keys.into_iter().map(|k| k as i32).collect())
    } else {
        Col::I64(keys)
    }
}

/// Every join flavour of `l ⋈ r` and every aggregate over each side,
/// keyed on column 0, bitwise the reference at 1 / 2 / 8 workers.
fn matches_the_keyval_operator(l: &Chunk, r: &Chunk) -> Result<(), TestCaseError> {
    for jt in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        let want = ref_join(l, r, &[0], &[0], jt);
        for workers in WORKERS {
            let meter = WorkMeter::new();
            let exec = OpExec::new(workers);
            let got = hash_join_exec(l, r, &[0], &[0], jt, &meter, &exec).unwrap();
            assert_bitwise_eq(&want, &got)?;
        }
    }
    let aggs = [
        AggSpec::sum(1),
        AggSpec::avg(1),
        AggSpec::count(0),
        AggSpec::min(0),
        AggSpec::max(0),
        AggSpec::count_distinct(2),
        AggSpec::min(3),
        AggSpec::max(4),
    ];
    for input in [l, r] {
        let want = ref_aggregate(input, &[0], &aggs);
        for workers in WORKERS {
            let meter = WorkMeter::new();
            let exec = OpExec::new(workers);
            let got = hash_aggregate_exec(input, &[0], &aggs, &meter, &exec).unwrap();
            assert_bitwise_eq(&want, &got)?;
        }
    }
    Ok(())
}

/// `rows` keys from `lo` spanning exactly `span` values: the first row
/// holds `lo`, the last `lo + span − 1`, the rest spread between (with
/// repeats); measures cycle.
fn spanning(date: bool, lo: i64, span: i64, rows: usize) -> Chunk {
    let keys: Vec<i64> = (0..rows as i64)
        .map(|i| lo + (span - 1) * i / (rows as i64 - 1))
        .collect();
    let m: Vec<u8> = (0..rows).map(|i| (i * 37 % 256) as u8).collect();
    with_measures(vec![int_col(date, keys)], &m)
}

#[test]
fn keys_at_the_dense_boundary_and_one_slot_past_match() {
    for rows in [2usize, 9, 100, 700] {
        let dense = 8 * rows as i64 + 64;
        for span in [dense, dense + 1] {
            for (date, lo) in [
                (false, -3_000),
                (false, 1),
                (false, i64::MIN),
                (false, i64::MAX - (span - 1)),
                (true, -10),
                (true, i32::MAX as i64 - (span - 1)),
            ] {
                let build = spanning(date, lo, span, rows);
                // Every key from two below the lowest to two above the
                // highest, where the type has them.
                let probe_keys: Vec<i64> = (-2..span + 2)
                    .filter_map(|d| lo.checked_add(d))
                    .filter(|v| !date || i32::try_from(*v).is_ok())
                    .collect();
                let m: Vec<u8> = (0..probe_keys.len()).map(|i| (i % 251) as u8).collect();
                let probe = with_measures(vec![int_col(date, probe_keys)], &m);
                matches_the_keyval_operator(&probe, &build)
                    .unwrap_or_else(|e| panic!("{rows} rows over {span} from {lo}: {e}"));
            }
        }
    }
}

#[test]
fn min_and_max_keys_together_match() {
    // Their span, 2^64, overflows the rule's arithmetic: the keys hash.
    let build = with_measures(
        vec![Col::I64(vec![i64::MIN, i64::MAX, 0, i64::MIN, -1])],
        &[1, 2, 3, 4, 5],
    );
    let probe_keys = vec![i64::MIN, i64::MAX, -1, 0, 1, i64::MIN + 1, i64::MAX - 1];
    let probe = with_measures(vec![Col::I64(probe_keys)], &[9, 8, 7, 6, 5, 4, 3]);
    matches_the_keyval_operator(&probe, &build).unwrap();
}

#[test]
fn probes_outside_a_dense_build_match_nothing() {
    let meter = WorkMeter::new();
    let semi = |l: &Chunk, r: &Chunk, workers: usize| {
        let exec = OpExec::new(workers);
        hash_join_exec(l, r, &[0], &[0], JoinType::Semi, &meter, &exec).unwrap()
    };
    // Integer keys 10..=19: a probe below 10, at 20 (one past the span),
    // far above, and -1, whose word is the lookup's miss word.
    let build = with_measures(vec![Col::I64((10..20).collect())], &[0; 10]);
    let probe_keys = vec![9, 10, 19, 20, 1 << 40, -1, i64::MIN, i64::MAX];
    let probe = with_measures(vec![Col::I64(probe_keys)], &[0; 8]);
    matches_the_keyval_operator(&probe, &build).unwrap();
    for workers in WORKERS {
        assert_eq!(semi(&probe, &build, workers).col(0).i64s(), &[10, 19]);
    }
    // A build side that holds -1 matches it like any other key.
    let build = with_measures(vec![Col::I64((-1..9).collect())], &[0; 10]);
    matches_the_keyval_operator(&probe, &build).unwrap();
    for workers in WORKERS {
        assert_eq!(semi(&probe, &build, workers).col(0).i64s(), &[-1]);
    }
    // String keys word to their codes, a dense set; a string the build
    // side lacks is the lookup's miss word, above every code.
    let strs = |v: &[&str]| Col::Str(v.iter().copied().collect());
    let build = with_measures(vec![strs(&["a", "b", "c", "b"])], &[0; 4]);
    let probe = with_measures(vec![strs(&["c", "zz", "", "a", "d"])], &[0; 5]);
    matches_the_keyval_operator(&probe, &build).unwrap();
    for workers in WORKERS {
        let got = semi(&probe, &build, workers);
        let got: Vec<&str> = got.col(0).strs().iter().collect();
        assert_eq!(got, ["c", "a"]);
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
