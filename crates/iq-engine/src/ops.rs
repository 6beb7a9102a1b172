//! Physical operators: hash joins (inner / left / semi / anti), hash
//! aggregation, sort and limit.
//!
//! Operators are fully materialized chunk-in/chunk-out functions — at the
//! simulated scale, pipelining buys nothing, and materialization keeps
//! the 22 hand-built TPC-H plans easy to audit. Correlated subqueries are
//! expressed the classical way: aggregate-then-join (Q2, Q17, Q20),
//! semi/anti joins for EXISTS/NOT EXISTS (Q4, Q21, Q22) and IN/NOT IN
//! (Q16, Q18).
//!
//! # Morsel-parallel execution (`*_exec` entry points)
//!
//! [`hash_aggregate_exec`] and [`hash_join_exec`] run partitioned
//! two-phase plans under an [`OpExec`] policy, fanned out through the
//! submission/completion [`IoCore`] so operator parallelism shows up in
//! the same depth accounting as scan and flush fan-out:
//!
//! * **Phase 1 (partition)** — the input is split into contiguous
//!   morsels; each worker walks its morsel and buckets *row indices* by
//!   `stable_hash(key) % P`. Within a morsel rows stay ascending, and
//!   morsel outputs are concatenated in morsel order, so every
//!   partition's row list is ascending in global row order.
//! * **Phase 2 (fold/build)** — P partition tasks run independently,
//!   each folding its partition's rows *in that global row order* with
//!   the exact state-transition code the serial operator uses.
//! * **Stitch** — aggregation orders merged groups by first-occurrence
//!   row (the serial path discovers groups in exactly that order); join
//!   probes run over contiguous left morsels stitched in morsel order
//!   (the serial left-to-right probe order).
//!
//! Determinism argument: a group (or join key) lives entirely in one
//! partition, each partition folds its rows in ascending global row
//! order, and floating-point accumulation is therefore performed in
//! *exactly* the serial order — no partial-state merge ever re-associates
//! a float sum. Output is byte-identical to the serial path for every
//! worker count, which is what lets `workers == 1` remain the
//! property-test oracle. The partition hash is a fixed FNV-1a over the
//! key bytes, not `std`'s per-process-seeded hasher, so partition
//! assignment (and with it scheduling shape) is stable run-over-run.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use iq_common::{IoCore, IoStats, IqError, IqResult};

use crate::chunk::{Chunk, Col};
use crate::meter::{cost, WorkMeter};
use crate::store::PageStore;
use crate::value::KeyVal;

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Emit matching pairs.
    Inner,
    /// Emit every left row; unmatched rows carry default right values and
    /// a 0 in the trailing `matched` marker column.
    Left,
    /// Emit left rows with at least one match (EXISTS / IN).
    Semi,
    /// Emit left rows with no match (NOT EXISTS / NOT IN).
    Anti,
}

/// Execution policy for the partitioned operators: how many workers the
/// fan-out may use and which [`IoStats`] the submission depth is
/// accounted into. `workers == 1` selects the serial reference path.
#[derive(Debug, Clone, Default)]
pub struct OpExec {
    workers: usize,
    stats: Option<Arc<IoStats>>,
}

impl OpExec {
    /// The serial reference policy (the property-test oracle).
    pub fn serial() -> Self {
        Self {
            workers: 1,
            stats: None,
        }
    }

    /// A policy running on `workers` morsel workers (0 clamps to 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            stats: None,
        }
    }

    /// Account operator fan-out submission depth into `stats` (the
    /// database's shared `io.*` source).
    pub fn with_stats(mut self, stats: Arc<IoStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Policy matching a store's scan parallelism and depth accounting —
    /// operators run as wide as the scans feeding them.
    pub fn for_store(store: &dyn PageStore) -> Self {
        let mut exec = Self::new(store.scan_parallelism());
        exec.stats = store.io_stats();
        exec
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Partition count for the two-phase operators: a little wider than
    /// the worker set so a slow partition doesn't serialize phase 2.
    fn partitions(&self) -> usize {
        self.workers * 2
    }

    fn io_core(&self) -> IoCore {
        let core = IoCore::new(self.workers);
        match &self.stats {
            Some(s) => core.with_stats(Arc::clone(s)),
            None => core,
        }
    }
}

/// Fixed-seed FNV-1a over the key's type-tagged bytes. Partition
/// assignment must be identical run-over-run (std's `RandomState` is
/// seeded per process), or scheduling shape and traces would wander.
fn stable_hash_key(key: &[KeyVal]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    for k in key {
        h = match k {
            KeyVal::I(v) => eat(eat(h, &[1]), &v.to_le_bytes()),
            KeyVal::S(s) => eat(eat(eat(h, &[2]), s.as_bytes()), &[0xff]),
            KeyVal::D(v) => eat(eat(h, &[3]), &v.to_le_bytes()),
            KeyVal::F(bits) => eat(eat(h, &[4]), &bits.to_le_bytes()),
        };
    }
    h
}

fn key_of(chunk: &Chunk, cols: &[usize], row: usize) -> IqResult<Vec<KeyVal>> {
    cols.iter().map(|&c| chunk.col(c).key(row)).collect()
}

/// `[lo, hi)` row range of morsel `i` of `m` over `n` rows (first `n % m`
/// morsels take the extra row).
fn morsel_bounds(n: usize, m: usize, i: usize) -> (usize, usize) {
    let base = n / m;
    let extra = n % m;
    let lo = i * base + i.min(extra);
    (lo, lo + base + usize::from(i < extra))
}

/// Phase 1 of both partitioned operators: bucket row indices of `chunk`
/// by `stable_hash(key(key_cols)) % parts`. Morsel-parallel; each
/// partition's returned row list is ascending in global row order.
fn partition_rows(
    chunk: &Chunk,
    key_cols: &[usize],
    parts: usize,
    io: &IoCore,
    workers: usize,
) -> IqResult<Vec<Vec<usize>>> {
    let n = chunk.len();
    let morsels = (workers * 4).min(n).max(1);
    let locals = io.run_ordered(morsels, |i| {
        let (lo, hi) = morsel_bounds(n, morsels, i);
        let mut mine: Vec<Vec<usize>> = vec![Vec::new(); parts];
        for row in lo..hi {
            let key = key_of(chunk, key_cols, row)?;
            mine[(stable_hash_key(&key) % parts as u64) as usize].push(row);
        }
        Ok::<_, IqError>(mine)
    })?;
    let mut by_part: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for local in locals {
        for (p, rows) in local.into_iter().enumerate() {
            by_part[p].extend(rows);
        }
    }
    Ok(by_part)
}

/// Hash join `left ⋈ right` on equal key columns under an [`OpExec`]
/// policy: the build side is partitioned by key hash and built
/// per-partition in parallel, the probe side runs over contiguous left
/// morsels stitched in morsel order. Byte-identical to the serial path
/// ([`OpExec::serial`]) for every worker count.
///
/// Output layout: `Inner`/`Left` → all left columns then all right
/// columns (`Left` additionally appends an `I64` matched-marker column);
/// `Semi`/`Anti` → left columns only.
pub fn hash_join_exec(
    left: &Chunk,
    right: &Chunk,
    left_keys: &[usize],
    right_keys: &[usize],
    jt: JoinType,
    meter: &WorkMeter,
    exec: &OpExec,
) -> IqResult<Chunk> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(IqError::Invalid("join key arity mismatch".into()));
    }

    let (left_idx, right_idx, matched_marker) = if exec.workers() <= 1 {
        // Serial oracle: one build table, one left-to-right probe.
        let mut table: HashMap<Vec<KeyVal>, Vec<usize>> = HashMap::new();
        for r in 0..right.len() {
            table
                .entry(key_of(right, right_keys, r)?)
                .or_default()
                .push(r);
        }
        meter.add(cost::JOIN * right.len() as u64);
        let out = probe_rows(left, left_keys, jt, 0, left.len(), |key| table.get(key))?;
        meter.add(cost::JOIN * left.len() as u64);
        out
    } else {
        let io = exec.io_core();
        let parts = exec.partitions();
        // Build: partition right rows by key, then build each partition's
        // table independently. Row lists are ascending per partition, so
        // every key's match list is ascending — exactly the serial table.
        let by_part = partition_rows(right, right_keys, parts, &io, exec.workers())?;
        let tables: Vec<HashMap<Vec<KeyVal>, Vec<usize>>> = io.run_ordered(parts, |p| {
            let mut table: HashMap<Vec<KeyVal>, Vec<usize>> = HashMap::new();
            for &r in &by_part[p] {
                table
                    .entry(key_of(right, right_keys, r)?)
                    .or_default()
                    .push(r);
            }
            Ok::<_, IqError>(table)
        })?;
        meter.add(cost::JOIN * right.len() as u64);

        // Probe: contiguous left morsels, stitched in morsel order — the
        // serial left-to-right emission order.
        let n = left.len();
        let morsels = (exec.workers() * 4).min(n).max(1);
        let pieces = io.run_ordered(morsels, |i| {
            let (lo, hi) = morsel_bounds(n, morsels, i);
            probe_rows(left, left_keys, jt, lo, hi, |key| {
                tables[(stable_hash_key(key) % parts as u64) as usize].get(key)
            })
        })?;
        meter.add(cost::JOIN * left.len() as u64);
        let mut left_idx = Vec::new();
        let mut right_idx = Vec::new();
        let mut marker = Vec::new();
        for (l, r, m) in pieces {
            left_idx.extend(l);
            right_idx.extend(r);
            marker.extend(m);
        }
        (left_idx, right_idx, marker)
    };

    let mut cols: Vec<Col> = left.cols.iter().map(|c| c.take(&left_idx)).collect();
    match jt {
        JoinType::Inner => {
            for c in &right.cols {
                cols.push(c.take(&right_idx));
            }
        }
        JoinType::Left => {
            for c in &right.cols {
                cols.push(take_with_default(c, &right_idx));
            }
            cols.push(Col::I64(matched_marker));
        }
        JoinType::Semi | JoinType::Anti => {}
    }
    Ok(Chunk::new(cols))
}

/// Probe left rows `[lo, hi)` against the build side via `lookup`. The
/// emission logic is shared verbatim between the serial path (one table)
/// and the partitioned path (per-partition tables), so the two can only
/// differ if `lookup` itself disagrees — and it can't: a key's partition
/// is a pure function of the key.
fn probe_rows<'t, F>(
    left: &Chunk,
    left_keys: &[usize],
    jt: JoinType,
    lo: usize,
    hi: usize,
    lookup: F,
) -> IqResult<(Vec<usize>, Vec<usize>, Vec<i64>)>
where
    F: Fn(&[KeyVal]) -> Option<&'t Vec<usize>>,
{
    let mut left_idx: Vec<usize> = Vec::new();
    let mut right_idx: Vec<usize> = Vec::new();
    let mut matched_marker: Vec<i64> = Vec::new();
    for l in lo..hi {
        let key = key_of(left, left_keys, l)?;
        let matches = lookup(&key);
        match jt {
            JoinType::Inner => {
                if let Some(rs) = matches {
                    for &r in rs {
                        left_idx.push(l);
                        right_idx.push(r);
                    }
                }
            }
            JoinType::Left => match matches {
                Some(rs) => {
                    for &r in rs {
                        left_idx.push(l);
                        right_idx.push(r);
                        matched_marker.push(1);
                    }
                }
                None => {
                    left_idx.push(l);
                    right_idx.push(usize::MAX);
                    matched_marker.push(0);
                }
            },
            JoinType::Semi => {
                if matches.is_some() {
                    left_idx.push(l);
                }
            }
            JoinType::Anti => {
                if matches.is_none() {
                    left_idx.push(l);
                }
            }
        }
    }
    Ok((left_idx, right_idx, matched_marker))
}

fn take_with_default(col: &Col, idx: &[usize]) -> Col {
    match col {
        Col::I64(v) => Col::I64(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0 } else { v[i] })
                .collect(),
        ),
        Col::F64(v) => Col::F64(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0.0 } else { v[i] })
                .collect(),
        ),
        Col::Date(v) => Col::Date(
            idx.iter()
                .map(|&i| if i == usize::MAX { 0 } else { v[i] })
                .collect(),
        ),
        Col::Str(v) => Col::Str(
            idx.iter()
                .map(|&i| {
                    if i == usize::MAX {
                        Arc::from("")
                    } else {
                        Arc::clone(&v[i])
                    }
                })
                .collect(),
        ),
        Col::Bool(v) => Col::Bool(
            idx.iter()
                .map(|&i| if i == usize::MAX { false } else { v[i] })
                .collect(),
        ),
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// Sum of floats (ints widen).
    Sum,
    /// Row count (input column ignored).
    Count,
    /// Mean of floats.
    Avg,
    /// Minimum (numeric or string).
    Min,
    /// Maximum (numeric or string).
    Max,
    /// Count of distinct integer values.
    CountDistinct,
}

/// One aggregate: `kind(input column)`.
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    /// Chunk column the aggregate reads.
    pub col: usize,
    /// Function.
    pub kind: AggKind,
}

impl AggSpec {
    /// `SUM(col)`
    pub fn sum(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Sum,
        }
    }
    /// `COUNT(*)` (column is still read for arity checks; use any).
    pub fn count(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Count,
        }
    }
    /// `AVG(col)`
    pub fn avg(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Avg,
        }
    }
    /// `MIN(col)`
    pub fn min(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Min,
        }
    }
    /// `MAX(col)`
    pub fn max(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::Max,
        }
    }
    /// `COUNT(DISTINCT col)` (integer columns).
    pub fn count_distinct(col: usize) -> Self {
        Self {
            col,
            kind: AggKind::CountDistinct,
        }
    }
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

/// Output column shape of one aggregate, derived *statically* from the
/// spec and the input column type — never from a runtime state value, so
/// a partitioned plan whose first partition is empty cannot disagree
/// with the serial path about column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggOut {
    F,
    I,
    S,
}

fn agg_out_kind(kind: AggKind, col: &Col) -> IqResult<AggOut> {
    Ok(match (kind, col) {
        (AggKind::Sum | AggKind::Avg, _) => AggOut::F,
        (AggKind::Count, _) => AggOut::I,
        (AggKind::Min | AggKind::Max, Col::F64(_)) => AggOut::F,
        (AggKind::Min | AggKind::Max, Col::I64(_) | Col::Date(_)) => AggOut::I,
        (AggKind::Min | AggKind::Max, Col::Str(_)) => AggOut::S,
        (AggKind::CountDistinct, Col::I64(_)) => AggOut::I,
        (k, c) => {
            return Err(IqError::Invalid(format!(
                "aggregate {k:?} unsupported over {:?}",
                c.data_type()
            )))
        }
    })
}

fn new_state(kind: AggKind, col: &Col) -> IqResult<AggState> {
    Ok(match (kind, col) {
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
        (k, c) => {
            return Err(IqError::Invalid(format!(
                "aggregate {k:?} unsupported over {:?}",
                c.data_type()
            )))
        }
    })
}

fn update(state: &mut AggState, col: &Col, row: usize) {
    match state {
        AggState::Sum(acc) => {
            *acc += match col {
                Col::F64(v) => v[row],
                Col::I64(v) => v[row] as f64,
                _ => 0.0,
            }
        }
        AggState::Count(n) => *n += 1,
        AggState::Avg(acc, n) => {
            *acc += match col {
                Col::F64(v) => v[row],
                Col::I64(v) => v[row] as f64,
                _ => 0.0,
            };
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
        AggState::MinI(m) => {
            let x = match col {
                Col::I64(v) => v[row],
                Col::Date(v) => v[row] as i64,
                _ => 0,
            };
            *m = Some(m.map_or(x, |cur| cur.min(x)));
        }
        AggState::MaxI(m) => {
            let x = match col {
                Col::I64(v) => v[row],
                Col::Date(v) => v[row] as i64,
                _ => 0,
            };
            *m = Some(m.map_or(x, |cur| cur.max(x)));
        }
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

fn finalize(state: &AggState) -> AggResult {
    match state {
        AggState::Sum(acc) => AggResult::F(*acc),
        AggState::Count(n) => AggResult::I(*n as i64),
        AggState::Avg(acc, n) => AggResult::F(if *n == 0 { 0.0 } else { acc / *n as f64 }),
        AggState::MinF(m) | AggState::MaxF(m) => AggResult::F(m.unwrap_or(0.0)),
        AggState::MinI(m) | AggState::MaxI(m) => AggResult::I(m.unwrap_or(0)),
        AggState::MinS(m) | AggState::MaxS(m) => {
            AggResult::S(m.clone().unwrap_or_else(|| Arc::from("")))
        }
        AggState::Distinct(set) => AggResult::I(set.len() as i64),
    }
}

enum AggResult {
    F(f64),
    I(i64),
    S(Arc<str>),
}

/// Fold `rows` (ascending global row indices) into per-group states.
/// Returns `(reps, states)` in first-seen order; `reps[i]` is the
/// first-occurrence row of group `i`, so `reps` is strictly ascending.
///
/// This is *the* state-transition loop — the serial operator runs it over
/// `0..n` and every phase-2 partition task runs it over its partition's
/// row list. Because a group's rows arrive in the same ascending order
/// either way, accumulation (including float sums) is performed in the
/// identical sequence and the results are bitwise equal.
fn aggregate_rows(
    input: &Chunk,
    group_cols: &[usize],
    aggs: &[AggSpec],
    rows: impl Iterator<Item = usize>,
) -> IqResult<(Vec<usize>, Vec<Vec<AggState>>)> {
    let mut groups: HashMap<Vec<KeyVal>, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut reps: Vec<usize> = Vec::new();
    for row in rows {
        let key = key_of(input, group_cols, row)?;
        let gi = match groups.get(&key) {
            Some(&gi) => gi,
            None => {
                let gi = states.len();
                groups.insert(key, gi);
                states.push(
                    aggs.iter()
                        .map(|a| new_state(a.kind, input.col(a.col)))
                        .collect::<IqResult<_>>()?,
                );
                reps.push(row);
                gi
            }
        };
        for (s, a) in states[gi].iter_mut().zip(aggs) {
            update(s, input.col(a.col), row);
        }
    }
    Ok((reps, states))
}

/// Hash aggregation under an [`OpExec`] policy: a partitioned two-phase
/// plan (partition rows by group-key hash, fold partitions independently,
/// stitch groups back in first-occurrence order). Output: group columns
/// followed by one column per aggregate. With no group columns, produces
/// exactly one row (scalar aggregates over an empty input yield 0/empty).
/// Byte-identical to the serial path ([`OpExec::serial`]) for every
/// worker count; charges the meter the same total units as the serial
/// path so metered cost classification is worker-count-independent.
pub fn hash_aggregate_exec(
    input: &Chunk,
    group_cols: &[usize],
    aggs: &[AggSpec],
    meter: &WorkMeter,
    exec: &OpExec,
) -> IqResult<Chunk> {
    let (mut reps, mut states) = if exec.workers() <= 1 || input.len() < 2 {
        aggregate_rows(input, group_cols, aggs, 0..input.len())?
    } else {
        let io = exec.io_core();
        let parts = exec.partitions();
        let by_part = partition_rows(input, group_cols, parts, &io, exec.workers())?;
        let folded = io.run_ordered(parts, |p| {
            aggregate_rows(input, group_cols, aggs, by_part[p].iter().copied())
        })?;
        // Stitch: the serial path discovers groups in first-occurrence
        // row order, so sorting merged groups by their (unique)
        // first-occurrence row reproduces it exactly.
        let mut all: Vec<(usize, Vec<AggState>)> = folded
            .into_iter()
            .flat_map(|(reps, states)| reps.into_iter().zip(states))
            .collect();
        all.sort_by_key(|&(rep, _)| rep);
        all.into_iter().unzip()
    };
    meter.add(cost::AGG * input.len() as u64 * aggs.len().max(1) as u64);

    // Scalar aggregate over empty input: one row of zero states (grouped
    // aggregates over empty input emit zero rows; output types are
    // derived statically either way).
    if states.is_empty() && group_cols.is_empty() {
        states.push(
            aggs.iter()
                .map(|a| new_state(a.kind, input.col(a.col)))
                .collect::<IqResult<_>>()?,
        );
        reps.push(usize::MAX);
    }

    // Assemble output columns.
    let mut out: Vec<Col> = Vec::with_capacity(group_cols.len() + aggs.len());
    for &g in group_cols {
        let src = input.col(g);
        let mut col = Col::empty(src.data_type().expect("group col has a type"));
        for &rep in &reps {
            col.push(&src.value(rep))?;
        }
        out.push(col);
    }
    for (ai, a) in aggs.iter().enumerate() {
        match agg_out_kind(a.kind, input.col(a.col))? {
            AggOut::F => {
                let mut v = Vec::with_capacity(states.len());
                for s in &states {
                    if let AggResult::F(x) = finalize(&s[ai]) {
                        v.push(x);
                    } else {
                        unreachable!("state shape always matches the static output kind");
                    }
                }
                out.push(Col::F64(v));
            }
            AggOut::I => {
                let mut v = Vec::with_capacity(states.len());
                for s in &states {
                    if let AggResult::I(x) = finalize(&s[ai]) {
                        v.push(x);
                    } else {
                        unreachable!("state shape always matches the static output kind");
                    }
                }
                out.push(Col::I64(v));
            }
            AggOut::S => {
                let mut v = Vec::with_capacity(states.len());
                for s in &states {
                    if let AggResult::S(x) = finalize(&s[ai]) {
                        v.push(x);
                    } else {
                        unreachable!("state shape always matches the static output kind");
                    }
                }
                out.push(Col::Str(v));
            }
        }
    }
    Ok(Chunk::new(out))
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

fn cmp_rows(chunk: &Chunk, keys: &[(usize, SortDir)], a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for &(c, dir) in keys {
        let ord = match chunk.col(c) {
            Col::I64(v) => v[a].cmp(&v[b]),
            Col::Date(v) => v[a].cmp(&v[b]),
            Col::F64(v) => v[a].total_cmp(&v[b]),
            Col::Str(v) => v[a].cmp(&v[b]),
            Col::Bool(v) => v[a].cmp(&v[b]),
        };
        let ord = if dir == SortDir::Desc {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable multi-key sort.
pub fn sort(input: &Chunk, keys: &[(usize, SortDir)], meter: &WorkMeter) -> Chunk {
    let mut idx: Vec<usize> = (0..input.len()).collect();
    idx.sort_by(|&a, &b| cmp_rows(input, keys, a, b));
    let n = input.len() as u64;
    meter.add(cost::SORT * n * (64 - n.leading_zeros() as u64).max(1));
    input.take(&idx)
}

/// First `n` rows.
pub fn limit(input: &Chunk, n: usize) -> Chunk {
    let idx: Vec<usize> = (0..input.len().min(n)).collect();
    input.take(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left() -> Chunk {
        Chunk::new(vec![
            Col::I64(vec![1, 2, 3, 4]),
            Col::Str(vec!["a".into(), "b".into(), "c".into(), "d".into()]),
        ])
    }

    fn right() -> Chunk {
        Chunk::new(vec![
            Col::I64(vec![2, 2, 4, 5]),
            Col::F64(vec![20.0, 21.0, 40.0, 50.0]),
        ])
    }

    /// Bitwise column-by-column equality (f64 compared by bit pattern:
    /// the partitioned operators promise *byte* identity, not ε-closeness).
    fn assert_chunks_bitwise_eq(a: &Chunk, b: &Chunk) {
        assert_eq!(a.cols.len(), b.cols.len(), "arity differs");
        for (i, (ca, cb)) in a.cols.iter().zip(&b.cols).enumerate() {
            match (ca, cb) {
                (Col::I64(x), Col::I64(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Date(x), Col::Date(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Bool(x), Col::Bool(y)) => assert_eq!(x, y, "col {i}"),
                (Col::Str(x), Col::Str(y)) => assert_eq!(x, y, "col {i}"),
                (Col::F64(x), Col::F64(y)) => {
                    let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "col {i} float bits differ");
                }
                (a, b) => panic!("col {i} type differs: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn inner_join_emits_pairs() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let out = hash_join_exec(&left(), &right(), &[0], &[0], JoinType::Inner, &m, &x).unwrap();
        assert_eq!(out.len(), 3); // 2 matches twice, 4 once
        assert_eq!(out.col(0).i64s(), &[2, 2, 4]);
        assert_eq!(out.col(3).f64s(), &[20.0, 21.0, 40.0]);
        assert!(m.total() > 0);
    }

    #[test]
    fn left_join_marks_matches() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let out = hash_join_exec(&left(), &right(), &[0], &[0], JoinType::Left, &m, &x).unwrap();
        assert_eq!(out.len(), 5); // 1,2,2,3,4
        let marker = out.col(out.cols.len() - 1).i64s();
        assert_eq!(marker, &[0, 1, 1, 0, 1]);
        // Unmatched right values default to zero.
        assert_eq!(out.col(3).f64s()[0], 0.0);
    }

    #[test]
    fn semi_and_anti_join() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let semi = hash_join_exec(&left(), &right(), &[0], &[0], JoinType::Semi, &m, &x).unwrap();
        assert_eq!(semi.col(0).i64s(), &[2, 4]);
        assert_eq!(semi.cols.len(), 2); // left columns only
        let anti = hash_join_exec(&left(), &right(), &[0], &[0], JoinType::Anti, &m, &x).unwrap();
        assert_eq!(anti.col(0).i64s(), &[1, 3]);
    }

    #[test]
    fn multi_key_join() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let l = Chunk::new(vec![
            Col::I64(vec![1, 1, 2]),
            Col::Str(vec!["x".into(), "y".into(), "x".into()]),
        ]);
        let r = Chunk::new(vec![
            Col::I64(vec![1, 2]),
            Col::Str(vec!["y".into(), "x".into()]),
            Col::F64(vec![7.0, 8.0]),
        ]);
        let out = hash_join_exec(&l, &r, &[0, 1], &[0, 1], JoinType::Inner, &m, &x).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.col(4).f64s(), &[7.0, 8.0]);
    }

    #[test]
    fn join_key_arity_checked() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        assert!(hash_join_exec(&left(), &right(), &[0], &[0, 1], JoinType::Inner, &m, &x).is_err());
        assert!(hash_join_exec(&left(), &right(), &[], &[], JoinType::Inner, &m, &x).is_err());
    }

    #[test]
    fn grouped_aggregation() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let input = Chunk::new(vec![
            Col::Str(vec!["A".into(), "B".into(), "A".into(), "A".into()]),
            Col::F64(vec![1.0, 2.0, 3.0, 4.0]),
            Col::I64(vec![10, 20, 10, 30]),
        ]);
        let out = hash_aggregate_exec(
            &input,
            &[0],
            &[
                AggSpec::sum(1),
                AggSpec::count(1),
                AggSpec::avg(1),
                AggSpec::min(1),
                AggSpec::max(1),
                AggSpec::count_distinct(2),
            ],
            &m,
            &x,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Locate group A.
        let a = out
            .col(0)
            .strs()
            .iter()
            .position(|s| s.as_ref() == "A")
            .unwrap();
        assert_eq!(out.col(1).f64s()[a], 8.0);
        assert_eq!(out.col(2).i64s()[a], 3);
        assert!((out.col(3).f64s()[a] - 8.0 / 3.0).abs() < 1e-9);
        assert_eq!(out.col(4).f64s()[a], 1.0);
        assert_eq!(out.col(5).f64s()[a], 4.0);
        assert_eq!(out.col(6).i64s()[a], 2); // distinct {10, 30}
    }

    #[test]
    fn scalar_aggregate_including_empty() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let input = Chunk::new(vec![Col::F64(vec![1.0, 2.0])]);
        let out = hash_aggregate_exec(&input, &[], &[AggSpec::sum(0)], &m, &x).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.col(0).f64s(), &[3.0]);
        let empty = Chunk::new(vec![Col::F64(vec![])]);
        let out = hash_aggregate_exec(&empty, &[], &[AggSpec::sum(0), AggSpec::count(0)], &m, &x)
            .unwrap();
        assert_eq!(out.col(0).f64s(), &[0.0]);
        assert_eq!(out.col(1).i64s(), &[0]);
    }

    #[test]
    fn min_max_over_strings_and_dates() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let input = Chunk::new(vec![
            Col::Str(vec!["PERU".into(), "BRAZIL".into()]),
            Col::Date(vec![100, 50]),
        ]);
        let out =
            hash_aggregate_exec(&input, &[], &[AggSpec::min(0), AggSpec::max(1)], &m, &x).unwrap();
        assert_eq!(out.col(0).strs()[0].as_ref(), "BRAZIL");
        assert_eq!(out.col(1).i64s()[0], 100);
    }

    #[test]
    fn sort_multi_key_and_limit() {
        let m = WorkMeter::new();
        let input = Chunk::new(vec![
            Col::I64(vec![2, 1, 2, 1]),
            Col::F64(vec![5.0, 6.0, 4.0, 7.0]),
        ]);
        let out = sort(&input, &[(0, SortDir::Asc), (1, SortDir::Desc)], &m);
        assert_eq!(out.col(0).i64s(), &[1, 1, 2, 2]);
        assert_eq!(out.col(1).f64s(), &[7.0, 6.0, 5.0, 4.0]);
        let top = limit(&out, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(limit(&top, 100).len(), 2);
    }

    #[test]
    fn aggregate_rejects_bad_types() {
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let input = Chunk::new(vec![Col::Str(vec!["x".into()])]);
        assert!(hash_aggregate_exec(&input, &[], &[AggSpec::count_distinct(0)], &m, &x).is_err());
    }

    /// A float workload whose sums are sensitive to accumulation order:
    /// reassociating any group's adds shifts the low mantissa bits.
    fn reassociation_canary(rows: usize) -> Chunk {
        let mut keys = Vec::with_capacity(rows);
        let mut vals = Vec::with_capacity(rows);
        let mut ids = Vec::with_capacity(rows);
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..rows {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.push((x % 7) as i64);
            vals.push(0.1 + (x % 1000) as f64 * 1e-7 + i as f64 * 1e-3);
            ids.push((x % 13) as i64);
        }
        Chunk::new(vec![Col::I64(keys), Col::F64(vals), Col::I64(ids)])
    }

    #[test]
    fn partitioned_aggregate_is_bitwise_identical_to_serial() {
        let input = reassociation_canary(997);
        let aggs = [
            AggSpec::sum(1),
            AggSpec::avg(1),
            AggSpec::count(0),
            AggSpec::min(1),
            AggSpec::max(1),
            AggSpec::count_distinct(2),
        ];
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let oracle = hash_aggregate_exec(&input, &[0], &aggs, &m, &x).unwrap();
        let serial_units = m.total();
        for workers in [2, 3, 8] {
            let m = WorkMeter::new();
            let out = hash_aggregate_exec(&input, &[0], &aggs, &m, &OpExec::new(workers)).unwrap();
            assert_chunks_bitwise_eq(&oracle, &out);
            assert_eq!(
                m.total(),
                serial_units,
                "metered cost must not depend on workers"
            );
        }
    }

    #[test]
    fn partitioned_join_matches_serial_for_every_flavour() {
        let canary = reassociation_canary(503);
        let l = Chunk::new(vec![canary.col(0).clone(), canary.col(1).clone()]);
        let r = Chunk::new(vec![
            Col::I64((0..40).map(|i| i % 9).collect()),
            Col::F64((0..40).map(|i| i as f64 * 0.25).collect()),
        ]);
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let m = WorkMeter::new();
            let x = OpExec::serial();
            let oracle = hash_join_exec(&l, &r, &[0], &[0], jt, &m, &x).unwrap();
            let serial_units = m.total();
            for workers in [2, 8] {
                let m = WorkMeter::new();
                let out =
                    hash_join_exec(&l, &r, &[0], &[0], jt, &m, &OpExec::new(workers)).unwrap();
                assert_chunks_bitwise_eq(&oracle, &out);
                assert_eq!(m.total(), serial_units);
            }
        }
    }

    #[test]
    fn empty_partitions_keep_static_output_types() {
        // One group, eight workers: most partitions fold zero rows. The
        // output types must come from the specs, not from whichever
        // partition happened to be populated.
        let input = Chunk::new(vec![
            Col::I64(vec![42; 16]),
            Col::Str(
                (0..16)
                    .map(|i| Arc::from(format!("s{i}")) as Arc<str>)
                    .collect(),
            ),
        ]);
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let out = hash_aggregate_exec(
            &input,
            &[0],
            &[AggSpec::count(0), AggSpec::min(1)],
            &m,
            &OpExec::new(8),
        )
        .unwrap();
        assert!(matches!(out.col(1), Col::I64(_)));
        assert!(matches!(out.col(2), Col::Str(_)));

        // Grouped aggregate over an empty input: zero rows, but the
        // columns still carry statically-derived types.
        let empty = Chunk::new(vec![Col::I64(vec![]), Col::F64(vec![])]);
        let out = hash_aggregate_exec(&empty, &[0], &[AggSpec::sum(1), AggSpec::count(0)], &m, &x)
            .unwrap();
        assert_eq!(out.len(), 0);
        assert!(matches!(out.col(1), Col::F64(_)));
        assert!(matches!(out.col(2), Col::I64(_)));
    }

    #[test]
    fn partitioned_ops_account_submission_depth() {
        let stats = Arc::new(IoStats::new());
        let exec = OpExec::new(4).with_stats(Arc::clone(&stats));
        let input = reassociation_canary(256);
        let m = WorkMeter::new();
        hash_aggregate_exec(&input, &[0], &[AggSpec::sum(1)], &m, &exec).unwrap();
        let snap = stats.snapshot();
        assert!(
            snap.in_flight_peak >= 8,
            "partition fan-out must account submission depth (peak {})",
            snap.in_flight_peak
        );
        assert_eq!(
            stats
                .ops_in_flight
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn stable_hash_is_run_independent_constants() {
        // Pinned values: the partition function is part of the
        // deterministic-execution contract (std's RandomState is not).
        let h1 = stable_hash_key(&[KeyVal::I(42)]);
        let h2 = stable_hash_key(&[KeyVal::I(42)]);
        assert_eq!(h1, h2);
        assert_ne!(
            stable_hash_key(&[KeyVal::I(1)]),
            stable_hash_key(&[KeyVal::I(2)])
        );
        // Tagging keeps same-bytes values of different kinds apart.
        assert_ne!(
            stable_hash_key(&[KeyVal::I(0)]),
            stable_hash_key(&[KeyVal::F(0)])
        );
    }
}
