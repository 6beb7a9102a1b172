//! The join and aggregate kernels against an oracle that is not the
//! engine: the row-at-a-time `Vec<KeyVal>` operators the fixed-width row
//! keys replaced, kept here verbatim (serial form) as the reference.
//!
//! Inputs cover what the key representation could get wrong: keys of
//! every column type and 1–7 columns, NaNs with different payloads,
//! `0.0` / `-0.0`, `i64::MIN` / `MAX`, empty strings, equal strings held
//! in different `Arc`s, empty inputs, and (one group, many workers) empty
//! partitions. Results are compared bitwise at 1 / 2 / 8 workers.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use iq_engine::chunk::{Chunk, Col};
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggKind, AggSpec, JoinType, OpExec};
use iq_engine::WorkMeter;
use proptest::prelude::*;

// ----------------------------------------------------------------------
// The retired operators (reference).
// ----------------------------------------------------------------------

/// Hashable key of one value. Floats key by bit pattern (exact equality).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum KeyVal {
    I(i64),
    S(Arc<str>),
    D(i32),
    F(u64),
}

fn key(col: &Col, row: usize) -> KeyVal {
    match col {
        Col::I64(v) => KeyVal::I(v[row]),
        Col::Str(v) => KeyVal::S(Arc::clone(&v[row])),
        Col::Date(v) => KeyVal::D(v[row]),
        Col::Bool(v) => KeyVal::I(v[row] as i64),
        Col::F64(v) => KeyVal::F(v[row].to_bits()),
    }
}

fn key_of(chunk: &Chunk, cols: &[usize], row: usize) -> Vec<KeyVal> {
    cols.iter().map(|&c| key(chunk.col(c), row)).collect()
}

fn take_with_default(col: &Col, idx: &[usize]) -> Col {
    let hit = |i: usize| i != usize::MAX;
    match col {
        Col::I64(v) => Col::I64(idx.iter().map(|&i| if hit(i) { v[i] } else { 0 }).collect()),
        Col::F64(v) => Col::F64(
            idx.iter()
                .map(|&i| if hit(i) { v[i] } else { 0.0 })
                .collect(),
        ),
        Col::Date(v) => Col::Date(idx.iter().map(|&i| if hit(i) { v[i] } else { 0 }).collect()),
        Col::Str(v) => Col::Str(
            idx.iter()
                .map(|&i| {
                    if hit(i) {
                        Arc::clone(&v[i])
                    } else {
                        Arc::from("")
                    }
                })
                .collect(),
        ),
        Col::Bool(v) => Col::Bool(idx.iter().map(|&i| hit(i) && v[i]).collect()),
    }
}

fn ref_join(left: &Chunk, right: &Chunk, lk: &[usize], rk: &[usize], jt: JoinType) -> Chunk {
    let mut table: HashMap<Vec<KeyVal>, Vec<usize>> = HashMap::new();
    for r in 0..right.len() {
        table.entry(key_of(right, rk, r)).or_default().push(r);
    }
    let (mut left_idx, mut right_idx, mut marker) = (Vec::new(), Vec::new(), Vec::new());
    for l in 0..left.len() {
        let matches = table.get(&key_of(left, lk, l));
        match (jt, matches) {
            (JoinType::Inner | JoinType::Left, Some(rs)) => {
                for &r in rs {
                    left_idx.push(l);
                    right_idx.push(r);
                    marker.push(1i64);
                }
            }
            (JoinType::Left, None) => {
                left_idx.push(l);
                right_idx.push(usize::MAX);
                marker.push(0);
            }
            (JoinType::Semi, Some(_)) | (JoinType::Anti, None) => left_idx.push(l),
            _ => {}
        }
    }
    let mut cols: Vec<Col> = left.cols.iter().map(|c| c.take(&left_idx)).collect();
    match jt {
        JoinType::Inner => cols.extend(right.cols.iter().map(|c| c.take(&right_idx))),
        JoinType::Left => {
            cols.extend(right.cols.iter().map(|c| take_with_default(c, &right_idx)));
            cols.push(Col::I64(marker));
        }
        JoinType::Semi | JoinType::Anti => {}
    }
    Chunk::new(cols)
}

#[derive(Debug, Clone)]
enum AggState {
    Sum(f64),
    Count(u64),
    Avg(f64, u64),
    MinF(Option<f64>),
    MaxF(Option<f64>),
    MinI(Option<i64>),
    MaxI(Option<i64>),
    MinS(Option<Arc<str>>),
    MaxS(Option<Arc<str>>),
    Distinct(HashSet<i64>),
}

fn new_state(kind: AggKind, col: &Col) -> AggState {
    match (kind, col) {
        (AggKind::Sum, _) => AggState::Sum(0.0),
        (AggKind::Count, _) => AggState::Count(0),
        (AggKind::Avg, _) => AggState::Avg(0.0, 0),
        (AggKind::Min, Col::F64(_)) => AggState::MinF(None),
        (AggKind::Max, Col::F64(_)) => AggState::MaxF(None),
        (AggKind::Min, Col::I64(_) | Col::Date(_)) => AggState::MinI(None),
        (AggKind::Max, Col::I64(_) | Col::Date(_)) => AggState::MaxI(None),
        (AggKind::Min, Col::Str(_)) => AggState::MinS(None),
        (AggKind::Max, Col::Str(_)) => AggState::MaxS(None),
        (AggKind::CountDistinct, Col::I64(_)) => AggState::Distinct(HashSet::new()),
        (k, c) => panic!("aggregate {k:?} unsupported over {:?}", c.data_type()),
    }
}

fn update(state: &mut AggState, col: &Col, row: usize) {
    let num = |col: &Col| match col {
        Col::F64(v) => v[row],
        Col::I64(v) => v[row] as f64,
        _ => 0.0,
    };
    let int = |col: &Col| match col {
        Col::I64(v) => v[row],
        Col::Date(v) => v[row] as i64,
        _ => 0,
    };
    match state {
        AggState::Sum(acc) => *acc += num(col),
        AggState::Count(n) => *n += 1,
        AggState::Avg(acc, n) => {
            *acc += num(col);
            *n += 1;
        }
        AggState::MinF(m) => {
            let x = col.f64s()[row];
            *m = Some(m.map_or(x, |cur| cur.min(x)));
        }
        AggState::MaxF(m) => {
            let x = col.f64s()[row];
            *m = Some(m.map_or(x, |cur| cur.max(x)));
        }
        AggState::MinI(m) => *m = Some(m.map_or(int(col), |cur| cur.min(int(col)))),
        AggState::MaxI(m) => *m = Some(m.map_or(int(col), |cur| cur.max(int(col)))),
        AggState::MinS(m) => {
            let x = &col.strs()[row];
            if m.as_ref().is_none_or(|cur| x < cur) {
                *m = Some(Arc::clone(x));
            }
        }
        AggState::MaxS(m) => {
            let x = &col.strs()[row];
            if m.as_ref().is_none_or(|cur| x > cur) {
                *m = Some(Arc::clone(x));
            }
        }
        AggState::Distinct(set) => {
            set.insert(col.i64s()[row]);
        }
    }
}

fn finish(states: &[Vec<AggState>], ai: usize, kind: AggKind, col: &Col) -> Col {
    let f = |s: &AggState| match s {
        AggState::Sum(acc) => *acc,
        AggState::Avg(acc, n) => {
            if *n == 0 {
                0.0
            } else {
                acc / *n as f64
            }
        }
        AggState::MinF(m) | AggState::MaxF(m) => m.unwrap_or(0.0),
        other => panic!("not a float state: {other:?}"),
    };
    let i = |s: &AggState| match s {
        AggState::Count(n) => *n as i64,
        AggState::MinI(m) | AggState::MaxI(m) => m.unwrap_or(0),
        AggState::Distinct(set) => set.len() as i64,
        other => panic!("not an integer state: {other:?}"),
    };
    let s = |s: &AggState| match s {
        AggState::MinS(m) | AggState::MaxS(m) => m.clone().unwrap_or_else(|| Arc::from("")),
        other => panic!("not a string state: {other:?}"),
    };
    match (kind, col) {
        (AggKind::Sum | AggKind::Avg, _) | (AggKind::Min | AggKind::Max, Col::F64(_)) => {
            Col::F64(states.iter().map(|g| f(&g[ai])).collect())
        }
        (AggKind::Min | AggKind::Max, Col::Str(_)) => {
            Col::Str(states.iter().map(|g| s(&g[ai])).collect())
        }
        _ => Col::I64(states.iter().map(|g| i(&g[ai])).collect()),
    }
}

fn ref_aggregate(input: &Chunk, group_cols: &[usize], aggs: &[AggSpec]) -> Chunk {
    let fresh = || -> Vec<AggState> {
        aggs.iter()
            .map(|a| new_state(a.kind, input.col(a.col)))
            .collect()
    };
    let mut groups: HashMap<Vec<KeyVal>, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();
    for row in 0..input.len() {
        let gi = *groups
            .entry(key_of(input, group_cols, row))
            .or_insert_with(|| {
                states.push(fresh());
                reps.push(row);
                states.len() - 1
            });
        for (s, a) in states[gi].iter_mut().zip(aggs) {
            update(s, input.col(a.col), row);
        }
    }
    if states.is_empty() && group_cols.is_empty() {
        states.push(fresh());
    }
    let mut out: Vec<Col> = group_cols
        .iter()
        .map(|&g| input.col(g).take(&reps))
        .collect();
    for (ai, a) in aggs.iter().enumerate() {
        out.push(finish(&states, ai, a.kind, input.col(a.col)));
    }
    Chunk::new(out)
}

// ----------------------------------------------------------------------
// Comparison and generators.
// ----------------------------------------------------------------------

fn assert_bitwise_eq(a: &Chunk, b: &Chunk) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cols.len(), b.cols.len(), "arity");
    for (i, (x, y)) in a.cols.iter().zip(&b.cols).enumerate() {
        match (x, y) {
            (Col::F64(p), Col::F64(q)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(p), bits(q), "col {} float bits", i);
            }
            _ => prop_assert_eq!(x, y, "col {}", i),
        }
    }
    Ok(())
}

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
            // A fresh `Arc` per row: equal strings never share a pointer.
            let pool = ["", "a", "ab", "b", "a\u{e9}", "AIR REG"];
            Col::Str(
                picks
                    .iter()
                    .map(|&p| Arc::from(pool[p as usize % 6]))
                    .collect(),
            )
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
    cols.push(Col::Str(
        m.iter().map(|&x| format!("s{}", x % 7).into()).collect(),
    ));
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
        Col::Str(vec!["a".into(), "b".into()]),
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
