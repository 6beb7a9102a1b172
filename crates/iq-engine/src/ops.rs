//! Physical operators: hash joins (inner / left / semi / anti), hash
//! aggregation, sort and limit.
//!
//! # Stages and sinks
//!
//! An operator is a *stage* when it is a concatenation homomorphism —
//! `f(a ++ b) == f(a) ++ f(b)`, rows in input order: a filter, a
//! projection, a computed column, and the probe side of every
//! [`JoinType`] against a fixed build side ([`HashJoin::probe`] emits
//! left to right, each key's matches ascending). A plan hands its chain
//! of stages to the scan of its probe-side table as one closure
//! ([`crate::table::Stage`]), and the scan runs it on each row group's
//! chunk in the lane that decoded it, before the ordered stitch. Because
//! the stitch concatenates in group order, the result is bitwise what
//! the same operators give over the whole stitched scan — but the
//! working set of the probe side is a morsel, not the table, and probe,
//! gather and expression work runs on the scan's lanes.
//!
//! Everything else is a *sink* and takes a stitched chunk: aggregation
//! (a group's rows span morsels), sort, limit, a result with a second
//! consumer, and a join's build side ([`HashJoin::build`]).
//! [`hash_join_exec`] is build + probe over an already materialised left
//! side. Correlated subqueries are expressed the classical way:
//! aggregate-then-join (Q2, Q17, Q20), semi/anti joins for EXISTS/NOT
//! EXISTS (Q4, Q21, Q22) and IN/NOT IN (Q16, Q18).
//!
//! # Morsel-parallel execution (`*_exec` entry points)
//!
//! [`hash_aggregate_exec`] and [`hash_join_exec`] run partitioned
//! two-phase plans under an [`OpExec`] policy, fanned out through the
//! submission/completion [`IoCore`] so operator parallelism shows up in
//! the same depth accounting as scan and flush fan-out:
//!
//! * **Phase 0 (keys)** — the key columns of an operator input are
//!   turned, once and column-wise, into one fixed-width word per row
//!   ([`KeySpace`]): two rows carry the same word iff their keys are
//!   equal. Everything below hashes and compares that word; no per-row
//!   heap key exists. A join's probe side is keyed by *lookups* in the
//!   build side's space: a key the build side never saw is a miss, never
//!   an insertion, so a built join is shared read-only between lanes.
//! * **Phase 1 (partition)** — the input is split into contiguous
//!   morsels; each worker walks its morsel and buckets *row indices* by
//!   `mix(key word) % P`. Within a morsel rows stay ascending, and
//!   morsel outputs are concatenated in morsel order, so every
//!   partition's row list is ascending in global row order.
//! * **Phase 2 (fold/build)** — P partition tasks run independently,
//!   each folding its partition's rows *in that global row order* with
//!   the exact kernels the serial operator uses.
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
//! property-test oracle. The key word is a pure function of the key
//! (dense ids are handed out in first-occurrence row order) and the hash
//! over it is one fixed-seed mix, not `std`'s per-process-seeded hasher,
//! so partition assignment (and with it scheduling shape) is stable
//! run-over-run. Each aggregate is folded column-at-a-time, but still one
//! row after another in the partition's row order, so a group's float
//! sum associates exactly as it did row-at-a-time.

use std::sync::Arc;

use iq_common::{IoCore, IoStats, IqError, IqResult};

use crate::chunk::{Chunk, Col};
use crate::encode::le_word;
use crate::meter::{cost, WorkMeter};
use crate::store::PageStore;
use crate::value::DataType;

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

    /// The fan-out of a phase over `rows` rows. A lane is a thread to
    /// start and to join, which costs what a few thousand rows of work
    /// do, so a phase gets one per [`LANE_ROWS`] rows, up to the worker
    /// count. Its tasks — morsels and partitions — and the submission
    /// depth it accounts follow from the worker count alone, so how many
    /// lanes carried them shows neither in the output nor in a counter.
    fn io_core(&self, rows: usize) -> IoCore {
        let core = IoCore::new(self.workers.min(rows / LANE_ROWS));
        match &self.stats {
            Some(s) => core.with_stats(Arc::clone(s)),
            None => core,
        }
    }
}

/// Rows of operator input that are worth a lane of their own.
const LANE_ROWS: usize = 8192;

/// The one hash of the operators: the SplitMix64 finalizer over a key
/// word. Fixed-seed, because partition assignment must be identical
/// run-over-run (std's `RandomState` is seeded per process) or scheduling
/// shape and traces would wander. Partitions take its high half, table
/// slots its low bits, so a partition's keys still spread over its table.
fn mix(word: u64) -> u64 {
    let x = (word ^ (word >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn partition_of(hash: u64, parts: usize) -> usize {
    ((hash >> 32) % parts as u64) as usize
}

/// Distinct keys → dense ids `0..len()` in first-seen order: open
/// addressing over a power-of-two slot array, no allocation per key. The
/// caller supplies each key's hash.
struct Interner<K> {
    /// `id + 1` of the key held by each slot; 0 marks an empty slot.
    slots: Vec<u32>,
    keys: Vec<K>,
    hashes: Vec<u64>,
}

impl<K: Copy + PartialEq> Interner<K> {
    /// Sized to take `keys` distinct keys without rehashing.
    fn with_capacity(keys: usize) -> Self {
        Self {
            slots: vec![0; (keys * 2).next_power_of_two().max(16)],
            keys: Vec::new(),
            hashes: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// The id of `key`, or the empty slot its probe sequence ends in.
    fn probe(&self, hash: u64, key: K) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                id if self.keys[id as usize - 1] == key => return Ok(id as usize - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn get(&self, hash: u64, key: K) -> Option<usize> {
        self.probe(hash, key).ok()
    }

    /// The id of `key`, assigning the next one on first sight.
    fn intern(&mut self, hash: u64, key: K) -> usize {
        let mut at = match self.probe(hash, key) {
            Ok(id) => return id,
            Err(at) => at,
        };
        if (self.keys.len() + 1) * 2 > self.slots.len() {
            let mask = self.slots.len() * 2 - 1;
            self.slots = vec![0; mask + 1];
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut to = h as usize & mask;
                while self.slots[to] != 0 {
                    to = (to + 1) & mask;
                }
                self.slots[to] = id as u32 + 1;
            }
            at = self.probe(hash, key).expect_err("key is not interned yet");
        }
        self.keys.push(key);
        self.hashes.push(hash);
        self.slots[at] = u32::try_from(self.keys.len()).expect("fewer than 2^32 distinct keys");
        self.keys.len() - 1
    }
}

/// Fixed-width row keys. [`words`](KeySpace::words) maps the key columns
/// of a chunk to one `u64` per row such that two rows — of that chunk or
/// of any other keyed through the same space, as the two sides of a join
/// are — carry equal words iff their keys are equal value for value:
/// `I64` / `Date` / `Bool` key by value and `F64` by bit pattern (exact
/// equality: NaN payloads and ±0.0 stay distinct), `Str` by a dense id
/// from one intern lookup on the borrowed `&str` (equal strings in
/// different `Arc`s meet there; no `Arc` is cloned), and each further key
/// column folds `(word so far, its own word)` into a dense id.
struct KeySpace<'a> {
    strs: Interner<&'a str>,
    tuples: Interner<(u64, u64)>,
}

/// The word of a key [`KeySpace::lookup`] does not find. Only a string or
/// a key tuple can be missing, and the words those are compared with are
/// dense ids below 2^32, so no row of the space carries it.
const MISS: u64 = u64::MAX;

impl<'a> KeySpace<'a> {
    fn new() -> Self {
        Self {
            strs: Interner::with_capacity(0),
            tuples: Interner::with_capacity(0),
        }
    }

    /// One key word per row of `chunk` over `cols` (no columns: every row
    /// keys to 0, the single group of a scalar aggregate). Strings and key
    /// tuples the space has not seen are added to it.
    fn words(&mut self, chunk: &'a Chunk, cols: &[usize]) -> Vec<u64> {
        let Self { strs, tuples } = self;
        key_words(
            chunk,
            cols,
            |hash, s| strs.intern(hash, s) as u64,
            |hash, pair| tuples.intern(hash, pair) as u64,
        )
    }

    /// [`words`](KeySpace::words) by lookups alone, for the rows of any
    /// other chunk: a key the space has not seen words to [`MISS`] and the
    /// space is left as it was.
    fn lookup(&self, chunk: &Chunk, cols: &[usize]) -> Vec<u64> {
        let id = |found: Option<usize>| found.map_or(MISS, |id| id as u64);
        key_words(
            chunk,
            cols,
            |hash, s| id(self.strs.get(hash, s)),
            |hash, pair| id(self.tuples.get(hash, pair)),
        )
    }
}

/// The key words of `chunk` over `cols`, given the id of a string
/// (`str_id`) and of a `(word so far, next word)` pair (`tuple_id`), each
/// called with its hash.
fn key_words<'c>(
    chunk: &'c Chunk,
    cols: &[usize],
    mut str_id: impl FnMut(u64, &'c str) -> u64,
    mut tuple_id: impl FnMut(u64, (u64, u64)) -> u64,
) -> Vec<u64> {
    let Some((&first, rest)) = cols.split_first() else {
        return vec![0; chunk.len()];
    };
    let mut words = col_words(chunk.col(first), &mut str_id);
    for &c in rest {
        for (w, v) in words.iter_mut().zip(col_words(chunk.col(c), &mut str_id)) {
            *w = tuple_id(mix(*w ^ mix(v)), (*w, v));
        }
    }
    words
}

fn col_words<'c>(col: &'c Col, str_id: &mut impl FnMut(u64, &'c str) -> u64) -> Vec<u64> {
    match col {
        Col::I64(v) => v.iter().map(|&x| x as u64).collect(),
        Col::Date(v) => v.iter().map(|&x| x as i64 as u64).collect(),
        Col::Bool(v) => v.iter().map(|&x| x as u64).collect(),
        Col::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
        Col::Str(v) => {
            // Equal strings mostly share one `Arc` (a dictionary hands
            // out clones): hash the bytes once per distinct `Arc`, and
            // per row only look its pointer up.
            let mut seen: Interner<usize> = Interner::with_capacity(0);
            let mut ids: Vec<u64> = Vec::new();
            let words = v.iter().map(|s| {
                let ptr = Arc::as_ptr(s).cast::<u8>() as usize;
                let k = seen.intern(mix(ptr as u64), ptr);
                if k == ids.len() {
                    let words = s.as_bytes().chunks(8).map(le_word);
                    let hash = words.fold(s.len() as u64, |h, w| mix(h ^ w));
                    ids.push(str_id(hash, s));
                }
                ids[k]
            });
            words.collect()
        }
    }
}

/// `[lo, hi)` row range of morsel `i` of `m` over `n` rows (first `n % m`
/// morsels take the extra row).
fn morsel_bounds(n: usize, m: usize, i: usize) -> (usize, usize) {
    let base = n / m;
    let extra = n % m;
    let lo = i * base + i.min(extra);
    (lo, lo + base + usize::from(i < extra))
}

/// Phase 1 of both partitioned operators: bucket row indices by
/// `mix(key word) % parts`. Morsel-parallel; each partition's returned
/// row list is ascending in global row order.
fn partition_rows(
    words: &[u64],
    parts: usize,
    io: &IoCore,
    workers: usize,
) -> IqResult<Vec<Vec<usize>>> {
    let n = words.len();
    let morsels = (workers * 4).min(n).max(1);
    let locals = io.run_ordered(morsels, |i| {
        let (lo, hi) = morsel_bounds(n, morsels, i);
        let mut mine: Vec<Vec<usize>> = vec![Vec::new(); parts];
        for row in lo..hi {
            mine[partition_of(mix(words[row]), parts)].push(row);
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

/// The build side of a join over one partition's rows: key word → the
/// rows carrying it, as one shared row array cut by per-key offsets.
struct JoinTable {
    keys: Interner<u64>,
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl JoinTable {
    /// `rows` are ascending, so every key's match list comes out
    /// ascending — exactly the serial table.
    fn build(words: &[u64], rows: &[usize]) -> Self {
        let mut keys = Interner::with_capacity(rows.len());
        let ids: Vec<usize> = rows
            .iter()
            .map(|&r| keys.intern(mix(words[r]), words[r]))
            .collect();
        let mut starts = vec![0usize; keys.len() + 1];
        ids.iter().for_each(|&k| starts[k + 1] += 1);
        (0..keys.len()).for_each(|k| starts[k + 1] += starts[k]);
        let mut next = starts.clone();
        let mut by_key = vec![0usize; rows.len()];
        for (&r, &k) in rows.iter().zip(&ids) {
            by_key[next[k]] = r;
            next[k] += 1;
        }
        Self {
            keys,
            starts,
            rows: by_key,
        }
    }

    /// Build rows matching `word`, ascending; empty when there are none.
    fn matches(&self, hash: u64, word: u64) -> &[usize] {
        match self.keys.get(hash, word) {
            Some(k) => &self.rows[self.starts[k]..self.starts[k + 1]],
            None => &[],
        }
    }
}

/// The build side of a hash join: built once, then probed any number of
/// times and from any thread — a probe reads it and changes nothing, so
/// a scan stage can call [`probe`](HashJoin::probe) from every lane.
pub struct HashJoin<'a> {
    right: &'a Chunk,
    right_keys: Vec<usize>,
    space: KeySpace<'a>,
    /// One table per key-hash partition (a single one when serial).
    tables: Vec<JoinTable>,
}

impl<'a> HashJoin<'a> {
    /// Key `right` on `right_keys`, partition its rows by key hash and
    /// build each partition's table in parallel under `exec`.
    pub fn build(
        right: &'a Chunk,
        right_keys: &[usize],
        meter: &WorkMeter,
        exec: &OpExec,
    ) -> IqResult<Self> {
        if right_keys.is_empty() {
            return Err(IqError::Invalid("join key arity mismatch".into()));
        }
        let mut space = KeySpace::new();
        let words = space.words(right, right_keys);
        let tables = if exec.workers() <= 1 {
            // Serial oracle: one build table.
            let all: Vec<usize> = (0..right.len()).collect();
            vec![JoinTable::build(&words, &all)]
        } else {
            // Row lists are ascending per partition, so every key's match
            // list is ascending — exactly the serial table.
            let io = exec.io_core(right.len());
            let parts = exec.partitions();
            let by_part = partition_rows(&words, parts, &io, exec.workers())?;
            io.run_ordered(parts, |p| {
                Ok::<_, IqError>(JoinTable::build(&words, &by_part[p]))
            })?
        };
        meter.add(cost::JOIN * right.len() as u64);
        Ok(Self {
            right,
            right_keys: right_keys.to_vec(),
            space,
            tables,
        })
    }

    /// `left ⋈ build side` on `left_keys`, rows in `left` order with each
    /// key's matches ascending — so probing a chunk piece by piece and
    /// concatenating equals probing it whole.
    ///
    /// Output layout: `Inner`/`Left` → all left columns then all right
    /// columns (`Left` additionally appends an `I64` matched-marker
    /// column); `Semi`/`Anti` → left columns only.
    pub fn probe(
        &self,
        left: &Chunk,
        left_keys: &[usize],
        jt: JoinType,
        meter: &WorkMeter,
    ) -> IqResult<Chunk> {
        let words = self.left_words(left, left_keys, meter)?;
        Ok(self.probe_range(left, &words, jt, 0, left.len()))
    }

    /// The key words of the probe side, by read-only lookups in the build
    /// side's key space; charges the probe.
    fn left_words(
        &self,
        left: &Chunk,
        left_keys: &[usize],
        meter: &WorkMeter,
    ) -> IqResult<Vec<u64>> {
        if left_keys.len() != self.right_keys.len() {
            return Err(IqError::Invalid("join key arity mismatch".into()));
        }
        // Key words carry no type tag; values of different types never
        // compared equal, so such a join is a plan error, not an empty match.
        // (`Bool` has always keyed as the integers 0 / 1, so it pairs with `I64`.)
        let kind = |c: &Col| c.data_type().unwrap_or(DataType::I64);
        for (&l, &r) in left_keys.iter().zip(&self.right_keys) {
            if kind(left.col(l)) != kind(self.right.col(r)) {
                return Err(IqError::Invalid(format!(
                    "join key types differ: {:?} vs {:?}",
                    kind(left.col(l)),
                    kind(self.right.col(r))
                )));
            }
        }
        meter.add(cost::JOIN * left.len() as u64);
        Ok(self.space.lookup(left, left_keys))
    }

    /// Probe left rows `[lo, hi)` — left to right, each key's matches in
    /// build-row order — and gather the output columns.
    fn probe_range(
        &self,
        left: &Chunk,
        words: &[u64],
        jt: JoinType,
        lo: usize,
        hi: usize,
    ) -> Chunk {
        let parts = self.tables.len();
        // Sized for a match a row (a foreign-key join), not grown to it.
        let rows = hi - lo;
        let right_rows = if jt == JoinType::Semi || jt == JoinType::Anti {
            0
        } else {
            rows
        };
        let mut left_idx: Vec<usize> = Vec::with_capacity(rows);
        let mut right_idx: Vec<usize> = Vec::with_capacity(right_rows);
        let mut matched_marker: Vec<i64> =
            Vec::with_capacity(if jt == JoinType::Left { rows } else { 0 });
        for (l, &word) in (lo..hi).zip(&words[lo..hi]) {
            let hash = mix(word);
            let matches = self.tables[partition_of(hash, parts)].matches(hash, word);
            match jt {
                JoinType::Inner => {
                    left_idx.extend(std::iter::repeat_n(l, matches.len()));
                    right_idx.extend_from_slice(matches);
                }
                JoinType::Left if matches.is_empty() => {
                    left_idx.push(l);
                    right_idx.push(usize::MAX);
                    matched_marker.push(0);
                }
                JoinType::Left => {
                    left_idx.extend(std::iter::repeat_n(l, matches.len()));
                    right_idx.extend_from_slice(matches);
                    matched_marker.extend(std::iter::repeat_n(1, matches.len()));
                }
                JoinType::Semi => {
                    if !matches.is_empty() {
                        left_idx.push(l);
                    }
                }
                JoinType::Anti => {
                    if matches.is_empty() {
                        left_idx.push(l);
                    }
                }
            }
        }
        let mut cols: Vec<Col> = left.cols.iter().map(|c| c.take(&left_idx)).collect();
        match jt {
            JoinType::Inner => {
                for c in &self.right.cols {
                    cols.push(c.take(&right_idx));
                }
            }
            JoinType::Left => {
                for c in &self.right.cols {
                    cols.push(take_with_default(c, &right_idx));
                }
                cols.push(Col::I64(matched_marker));
            }
            JoinType::Semi | JoinType::Anti => {}
        }
        Chunk::new(cols)
    }
}

/// Hash join `left ⋈ right` on equal key columns under an [`OpExec`]
/// policy, both sides materialised: [`HashJoin::build`], then the probe
/// over contiguous left morsels stitched in morsel order. Byte-identical
/// to the serial path ([`OpExec::serial`]) for every worker count; output
/// layout as [`HashJoin::probe`].
pub fn hash_join_exec(
    left: &Chunk,
    right: &Chunk,
    left_keys: &[usize],
    right_keys: &[usize],
    jt: JoinType,
    meter: &WorkMeter,
    exec: &OpExec,
) -> IqResult<Chunk> {
    let join = HashJoin::build(right, right_keys, meter, exec)?;
    let words = join.left_words(left, left_keys, meter)?;
    let n = left.len();
    if exec.workers() <= 1 {
        return Ok(join.probe_range(left, &words, jt, 0, n));
    }
    let morsels = (exec.workers() * 4).min(n).max(1);
    let pieces = exec.io_core(n).run_ordered(morsels, |i| {
        let (lo, hi) = morsel_bounds(n, morsels, i);
        Ok::<_, IqError>(join.probe_range(left, &words, jt, lo, hi))
    })?;
    Chunk::concat(pieces)
}

/// Gather rows by index; `usize::MAX` (an unmatched left-join row) takes
/// the type's default, strings one shared empty `Arc`.
fn take_with_default(col: &Col, idx: &[usize]) -> Col {
    fn pick<T: Clone>(v: &[T], idx: &[usize], default: T) -> Vec<T> {
        idx.iter()
            .map(|&i| {
                if i == usize::MAX {
                    default.clone()
                } else {
                    v[i].clone()
                }
            })
            .collect()
    }
    match col {
        Col::I64(v) => Col::I64(pick(v, idx, 0)),
        Col::F64(v) => Col::F64(pick(v, idx, 0.0)),
        Col::Date(v) => Col::Date(pick(v, idx, 0)),
        Col::Str(v) => Col::Str(pick(v, idx, Arc::from(""))),
        Col::Bool(v) => Col::Bool(pick(v, idx, false)),
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

/// Per-group extreme of `value(row)` in row order (`empty` for a group
/// that saw no row — the scalar aggregate over an empty input).
fn extreme<T: Copy>(
    each: impl Iterator<Item = (usize, usize)>,
    groups: usize,
    value: impl Fn(usize) -> T,
    better: impl Fn(T, T) -> T,
    empty: T,
) -> Vec<T> {
    let mut best: Vec<Option<T>> = vec![None; groups];
    for (row, g) in each {
        let x = value(row);
        best[g] = Some(best[g].map_or(x, |cur| better(cur, x)));
    }
    best.into_iter().map(|b| b.unwrap_or(empty)).collect()
}

/// One aggregate over one partition, column-at-a-time: row `rows[i]`
/// belongs to group `gids[i]` of `groups`. Rows are visited in the order
/// given, so every group accumulates in exactly that order. The output
/// column's type follows *statically* from the spec and the input column
/// type — never from which groups happened to be populated, so a
/// partition that folds no row cannot disagree with the serial path.
fn fold_aggregate(
    kind: AggKind,
    col: &Col,
    rows: &[usize],
    gids: &[usize],
    groups: usize,
) -> IqResult<Col> {
    let each = || rows.iter().copied().zip(gids.iter().copied());
    let min = kind == AggKind::Min;
    let int_better = |cur: i64, x: i64| if min { cur.min(x) } else { cur.max(x) };
    let counts = || {
        let mut n = vec![0i64; groups];
        gids.iter().for_each(|&g| n[g] += 1);
        n
    };
    Ok(match (kind, col) {
        (AggKind::Count, _) => Col::I64(counts()),
        (AggKind::Sum | AggKind::Avg, _) => {
            let mut acc = vec![0.0f64; groups];
            match col {
                Col::F64(v) => each().for_each(|(r, g)| acc[g] += v[r]),
                Col::I64(v) => each().for_each(|(r, g)| acc[g] += v[r] as f64),
                _ => {}
            }
            if kind == AggKind::Avg {
                for (a, n) in acc.iter_mut().zip(counts()) {
                    *a = if n == 0 { 0.0 } else { *a / n as f64 };
                }
            }
            Col::F64(acc)
        }
        (AggKind::Min | AggKind::Max, Col::F64(v)) => Col::F64(extreme(
            each(),
            groups,
            |r| v[r],
            |cur, x| if min { cur.min(x) } else { cur.max(x) },
            0.0,
        )),
        (AggKind::Min | AggKind::Max, Col::I64(v)) => {
            Col::I64(extreme(each(), groups, |r| v[r], int_better, 0))
        }
        (AggKind::Min | AggKind::Max, Col::Date(v)) => {
            Col::I64(extreme(each(), groups, |r| v[r] as i64, int_better, 0))
        }
        (AggKind::Min | AggKind::Max, Col::Str(v)) => {
            // The winning *row* per group: ties keep the earlier row.
            let mut best: Vec<Option<usize>> = vec![None; groups];
            for (r, g) in each() {
                if best[g].is_none_or(|cur| if min { v[r] < v[cur] } else { v[r] > v[cur] }) {
                    best[g] = Some(r);
                }
            }
            let empty: Arc<str> = Arc::from("");
            Col::Str(
                best.iter()
                    .map(|b| Arc::clone(b.map_or(&empty, |r| &v[r])))
                    .collect(),
            )
        }
        (AggKind::CountDistinct, Col::I64(v)) => {
            // One flat set of (group, value) pairs instead of a set per
            // group: a pair counts when it is new.
            let mut pairs: Interner<(u64, u64)> = Interner::with_capacity(rows.len());
            let mut n = vec![0i64; groups];
            for (r, g) in each() {
                let (seen, pair) = (pairs.len(), (g as u64, v[r] as u64));
                if pairs.intern(mix(pair.0 ^ mix(pair.1)), pair) == seen {
                    n[g] += 1;
                }
            }
            Col::I64(n)
        }
        (k, c) => {
            return Err(IqError::Invalid(format!(
                "aggregate {k:?} unsupported over {:?}",
                c.data_type()
            )))
        }
    })
}

/// Fold `rows` (ascending global row indices) into per-group aggregates.
/// Returns `(reps, columns)` in first-seen group order; `reps[i]` is the
/// first-occurrence row of group `i`, so `reps` is strictly ascending,
/// and `columns` holds one finished column per aggregate.
///
/// This is *the* fold — the serial operator runs it over `0..n` and every
/// phase-2 partition task runs it over its partition's row list. Because
/// a group's rows arrive in the same ascending order either way,
/// accumulation (including float sums) is performed in the identical
/// sequence and the results are bitwise equal.
fn aggregate_rows(
    input: &Chunk,
    words: &[u64],
    aggs: &[AggSpec],
    rows: &[usize],
) -> IqResult<(Vec<usize>, Chunk)> {
    let mut groups = Interner::with_capacity(rows.len());
    let mut reps: Vec<usize> = Vec::new();
    let gids: Vec<usize> = rows
        .iter()
        .map(|&row| {
            let g = groups.intern(mix(words[row]), words[row]);
            if g == reps.len() {
                reps.push(row);
            }
            g
        })
        .collect();
    let cols = aggs
        .iter()
        .map(|a| fold_aggregate(a.kind, input.col(a.col), rows, &gids, reps.len()))
        .collect::<IqResult<_>>()?;
    Ok((reps, Chunk::new(cols)))
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
    let words = KeySpace::new().words(input, group_cols);
    let (reps, folded) = if exec.workers() <= 1 || input.len() < 2 {
        let all: Vec<usize> = (0..input.len()).collect();
        aggregate_rows(input, &words, aggs, &all)?
    } else {
        let io = exec.io_core(input.len());
        let parts = exec.partitions();
        let by_part = partition_rows(&words, parts, &io, exec.workers())?;
        let (reps, chunks): (Vec<Vec<usize>>, Vec<Chunk>) = io
            .run_ordered(parts, |p| aggregate_rows(input, &words, aggs, &by_part[p]))?
            .into_iter()
            .unzip();
        // Stitch: the serial path discovers groups in first-occurrence
        // row order, so ordering the partitions' groups by their (unique)
        // first-occurrence row reproduces it exactly.
        let reps = reps.concat();
        let mut order: Vec<usize> = (0..reps.len()).collect();
        order.sort_unstable_by_key(|&g| reps[g]);
        (
            order.iter().map(|&g| reps[g]).collect(),
            Chunk::concat(chunks)?.take(&order),
        )
    };
    meter.add(cost::AGG * input.len() as u64 * aggs.len().max(1) as u64);

    let mut out: Vec<Col> = group_cols
        .iter()
        .map(|&g| input.col(g).take(&reps))
        .collect();
    if reps.is_empty() && group_cols.is_empty() {
        // Scalar aggregate over empty input: one row of zero states
        // (grouped aggregates over empty input emit zero rows).
        for a in aggs {
            out.push(fold_aggregate(a.kind, input.col(a.col), &[], &[], 1)?);
        }
    } else {
        out.extend(folded.cols);
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
    fn inputs_wide_enough_for_several_lanes_stay_bitwise_serial() {
        // The inputs above fit one lane; these get two and four.
        let rows = 4 * LANE_ROWS + 321;
        let input = reassociation_canary(rows);
        let build = Chunk::new(vec![
            Col::I64((0..rows as i64).map(|i| i % 11).collect()),
            Col::F64((0..rows).map(|i| i as f64 * 0.25).collect()),
        ]);
        let probe = Chunk::new(vec![Col::I64((0..rows as i64).map(|i| i % 4099).collect())]);
        let aggs = [AggSpec::sum(1), AggSpec::avg(1), AggSpec::count_distinct(2)];
        let m = WorkMeter::new();
        let x = OpExec::serial();
        let agg = hash_aggregate_exec(&input, &[0], &aggs, &m, &x).unwrap();
        let join = hash_join_exec(&probe, &build, &[0], &[0], JoinType::Left, &m, &x).unwrap();
        for workers in [2, 4] {
            let x = OpExec::new(workers);
            assert_eq!(x.io_core(rows).lanes(), workers);
            let out = hash_aggregate_exec(&input, &[0], &aggs, &m, &x).unwrap();
            assert_chunks_bitwise_eq(&agg, &out);
            let out = hash_join_exec(&probe, &build, &[0], &[0], JoinType::Left, &m, &x).unwrap();
            assert_chunks_bitwise_eq(&join, &out);
        }
        assert_eq!(OpExec::new(4).io_core(LANE_ROWS * 2 - 1).lanes(), 1);
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
    fn key_hash_is_run_independent_constants() {
        // Pinned values: the partition function is part of the
        // deterministic-execution contract (std's RandomState is not).
        assert_eq!(mix(0), 0);
        assert_eq!(mix(42), 0xa759_ea27_d472_7622);
        assert_eq!(partition_of(mix(42), 4), 0xa759_ea27 % 4);
        assert_ne!(mix(1), mix(2));
    }

    #[test]
    fn key_words_are_equal_iff_keys_are_equal() {
        let chunk = Chunk::new(vec![
            Col::Str(vec!["a".into(), "".into(), Arc::from("a"), "b".into()]),
            Col::F64(vec![0.0, -0.0, 0.0, f64::NAN]),
            Col::I64(vec![i64::MIN, i64::MAX, i64::MIN, 0]),
        ]);
        let mut space = KeySpace::new();
        // Strings by content (rows 0 and 2 hold different `Arc`s), dense
        // ids in first-occurrence order.
        assert_eq!(space.words(&chunk, &[0]), vec![0, 1, 0, 2]);
        // Floats by bit pattern, integers by value.
        let f = space.words(&chunk, &[1]);
        assert!(f[0] == f[2] && f[0] != f[1]);
        assert_eq!(space.words(&chunk, &[2])[1], i64::MAX as u64);
        // Multi-column keys fold to one id; no columns key every row to 0.
        let all = space.words(&chunk, &[0, 1, 2]);
        assert!(all[0] == all[2] && all[0] != all[1] && all[1] != all[3]);
        assert_eq!(space.words(&chunk, &[]), vec![0; 4]);
        // A second chunk keyed through the same space meets the first.
        let other = Chunk::new(vec![Col::Str(vec!["b".into(), "zz".into()])]);
        assert_eq!(space.words(&other, &[0]), vec![2, 3]);
    }

    #[test]
    fn interner_survives_growth_and_collisions() {
        let mut t: Interner<u64> = Interner::with_capacity(0);
        // One hash for every key: pure linear probing, through resizes.
        for k in 0..100u64 {
            assert_eq!(t.intern(7, k), k as usize);
        }
        for k in 0..100u64 {
            assert_eq!(t.get(7, k), Some(k as usize));
            assert_eq!(t.intern(7, k), k as usize);
        }
        assert_eq!(t.get(7, 100), None);
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn join_rejects_keys_of_different_types() {
        let m = WorkMeter::new();
        let dates = Chunk::new(vec![Col::Date(vec![2, 4])]);
        let err = hash_join_exec(
            &left(),
            &dates,
            &[0],
            &[0],
            JoinType::Inner,
            &m,
            &OpExec::serial(),
        );
        assert!(matches!(err, Err(IqError::Invalid(_))));
        // The check is the probe's: the build side alone is a fine table.
        let join = HashJoin::build(&dates, &[0], &m, &OpExec::serial()).unwrap();
        let err = join.probe(&left(), &[0], JoinType::Semi, &m);
        assert!(matches!(err, Err(IqError::Invalid(_))));
        let err = join.probe(&left(), &[0, 1], JoinType::Semi, &m);
        assert!(matches!(err, Err(IqError::Invalid(_))));
    }

    #[test]
    fn probe_keys_the_build_side_never_saw_miss_and_change_nothing() {
        let build = Chunk::new(vec![
            Col::I64(vec![-1, 2, -1]),
            Col::Str(vec!["x".into(), "y".into(), "x".into()]),
            Col::F64(vec![0.5, 1.5, 2.5]),
        ]);
        let probe = Chunk::new(vec![
            Col::I64(vec![-1, -1, 2, 2, 7]),
            // Row 1: a string the build side lacks; row 3: both parts are
            // known but never as a pair; row 4: an unknown integer.
            Col::Str(vec![
                "x".into(),
                "nope".into(),
                "y".into(),
                "x".into(),
                "y".into(),
            ]),
        ]);
        let m = WorkMeter::new();
        for exec in [OpExec::serial(), OpExec::new(2)] {
            let join = HashJoin::build(&build, &[0, 1], &m, &exec).unwrap();
            let seen = (join.space.strs.len(), join.space.tuples.len());
            let run = || join.probe(&probe, &[0, 1], JoinType::Left, &m).unwrap();
            // `&self` from two threads at once: a probe only reads.
            let (here, there) = std::thread::scope(|s| {
                let there = s.spawn(run);
                (run(), there.join().unwrap())
            });
            assert_chunks_bitwise_eq(&here, &there);
            assert_eq!(here.col(0).i64s(), &[-1, -1, -1, 2, 2, 7]);
            assert_eq!(here.col(4).f64s(), &[0.5, 2.5, 0.0, 1.5, 0.0, 0.0]);
            assert_eq!(here.col(5).i64s(), &[1, 1, 0, 1, 0, 0]);
            assert_eq!(seen, (join.space.strs.len(), join.space.tuples.len()));
            // A single integer key of -1 words to `MISS` itself and is
            // still a value like any other.
            let join = HashJoin::build(&build, &[0], &m, &exec).unwrap();
            let anti = join.probe(&probe, &[0], JoinType::Anti, &m).unwrap();
            assert_eq!(anti.col(0).i64s(), &[7]);
        }
    }

    #[test]
    fn probing_piecewise_equals_probing_whole_for_every_flavour() {
        let canary = reassociation_canary(203);
        let l = Chunk::new(vec![canary.col(0).clone(), canary.col(1).clone()]);
        let r = Chunk::new(vec![
            Col::I64((0..30).map(|i| i % 5).collect()),
            Col::Str((0..30).map(|i| format!("r{i}").into()).collect()),
        ]);
        let m = WorkMeter::new();
        let join = HashJoin::build(&r, &[0], &m, &OpExec::new(2)).unwrap();
        for jt in [
            JoinType::Inner,
            JoinType::Left,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let whole = WorkMeter::new();
            let want = join.probe(&l, &[0], jt, &whole).unwrap();
            // Pieces of 0, 1 and 64 rows: each carries every output column
            // (`Left`: the marker too), so they stitch.
            let pieces = WorkMeter::new();
            let mut got = Vec::new();
            let mut lo = 0;
            for len in [0usize, 1, 64, 0, 64, 64, 10] {
                let rows: Vec<usize> = (lo..lo + len).collect();
                got.push(join.probe(&l.take(&rows), &[0], jt, &pieces).unwrap());
                assert_eq!(got.last().unwrap().cols.len(), want.cols.len());
                lo += len;
            }
            assert_eq!(lo, l.len());
            assert_chunks_bitwise_eq(&want, &Chunk::concat(got).unwrap());
            assert_eq!(whole.total(), pieces.total(), "charges are linear in rows");
        }
    }
}
