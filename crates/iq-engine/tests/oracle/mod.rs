//! The oracle that is not the engine: the row-at-a-time `Vec<KeyVal>`
//! join and aggregate the fixed-width row keys replaced, kept verbatim
//! (serial form) as the reference, and the bitwise comparison. Shared by
//! the test binaries that `mod oracle;` it.
#![allow(dead_code)] // each binary uses its own subset

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use iq_engine::chunk::{Chunk, Col};
use iq_engine::ops::{AggKind, AggSpec, JoinType};
use proptest::prelude::*;

/// Hashable key of one value. Floats key by bit pattern (exact equality).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyVal {
    I(i64),
    S(Arc<str>),
    D(i32),
    F(u64),
}

pub fn key(col: &Col, row: usize) -> KeyVal {
    match col {
        Col::I64(v) => KeyVal::I(v[row]),
        Col::Str(v) => KeyVal::S(v.value(row)),
        Col::Date(v) => KeyVal::D(v[row]),
        Col::Bool(v) => KeyVal::I(v[row] as i64),
        Col::F64(v) => KeyVal::F(v[row].to_bits()),
    }
}

pub fn key_of(chunk: &Chunk, cols: &[usize], row: usize) -> Vec<KeyVal> {
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
                .map(|&i| if hit(i) { &v[i] } else { "" })
                .collect(),
        ),
        Col::Bool(v) => Col::Bool(idx.iter().map(|&i| hit(i) && v[i]).collect()),
    }
}

pub fn ref_join(left: &Chunk, right: &Chunk, lk: &[usize], rk: &[usize], jt: JoinType) -> Chunk {
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
        (AggKind::Sum, Col::F64(_) | Col::I64(_)) => AggState::Sum(0.0),
        (AggKind::Count, _) => AggState::Count(0),
        (AggKind::Avg, Col::F64(_) | Col::I64(_)) => AggState::Avg(0.0, 0),
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
            let x = col.strs().value(row);
            if m.as_ref().is_none_or(|cur| x < *cur) {
                *m = Some(x);
            }
        }
        AggState::MaxS(m) => {
            let x = col.strs().value(row);
            if m.as_ref().is_none_or(|cur| x > *cur) {
                *m = Some(x);
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

pub fn ref_aggregate(input: &Chunk, group_cols: &[usize], aggs: &[AggSpec]) -> Chunk {
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

/// Column-by-column equality, floats by bit pattern.
pub fn assert_bitwise_eq(a: &Chunk, b: &Chunk) -> Result<(), TestCaseError> {
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
