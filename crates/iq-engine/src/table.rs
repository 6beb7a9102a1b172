//! Columnar tables stored as row groups.
//!
//! A table is a sequence of *row groups*; each row group stores each
//! column in one page (`PageId = group × ncols + col`). Per-group zone
//! maps prune scans; per-column dictionaries are built during load. A
//! table's metadata is exactly what a scan, the writer and a delete read:
//! the paper's range partitions and HG indexes (§6) are not built — the
//! zone map already is the partition summary at row-group granularity,
//! and no plan probes an index (EXPERIMENTS.md, "Honest limitations").
//!
//! A scan loads a page only in the task that is about to decode it: one
//! task per surviving row group, its own pages, no read-ahead. The
//! groups' chunks go, in group order, to one consumer: the stitch of
//! [`TableMeta::scan_with_options`], or an aggregate that folds them
//! ([`crate::ops::AggregateSink`]).
//!
//! Updates are page-granular: [`TableWriter::reopen`] appends by refilling
//! the partial last group, [`TableMeta::delete_keys`] rewrites in place
//! only the groups that hold a deleted row. Every other page keeps its id
//! and is never written, so under a copy-on-write `PageStore` the new
//! table version shares it with the old one. Groups are therefore not all
//! full but the last: a row is addressed as `(group, row in group)`.

use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

use bytes::Bytes;
use iq_common::trace::{self, EventKind};
use iq_common::{IoCore, IqError, IqResult, PageId, TableId, TxnId};
use iq_storage::PageKind;
use serde::{Deserialize, Serialize};

use crate::chunk::{Chunk, Col};
use crate::encode::{decode_rows, encode_column, eval_page, Dictionary, PageTest};
use crate::expr::Expr;
use crate::mask::Mask;
use crate::meter::{cost, WorkMeter};
use crate::scanstats::ScanStats;
use crate::store::PageStore;
use crate::strcol::StrCol;
use crate::value::{DataType, Value};
use crate::zonemap::ZoneEntry;

/// Options controlling a [`TableMeta::scan_with_options`] run.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Morsel-parallelism degree.
    pub workers: usize,
    /// Two-phase late materialization: read predicate pages first and
    /// skip a group's projection pages when its mask comes up all-false.
    /// Off reproduces the classic eager scan (the ablation baseline);
    /// output is bitwise identical either way.
    pub late_mat: bool,
}

/// What a scan applies to each row group's chunk in the lane that decoded
/// it, before the ordered stitch or fold. It must be a concatenation
/// homomorphism — `f(a ++ b) == f(a) ++ f(b)`, rows in input order (filters,
/// projections, computed columns, join probes; see [`crate::ops`]) — so
/// that a staged scan is bitwise the stage applied to the whole scan, at
/// every worker count. It also runs once on an empty chunk when no group
/// survives pruning: the result's columns are always the stage's.
pub type Stage<'a> = &'a (dyn Fn(Chunk) -> IqResult<Chunk> + Sync);

/// One column of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Physical type.
    pub dtype: DataType,
}

/// A table schema.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Columns in order.
    pub columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build from `(name, type)` pairs.
    pub fn new(cols: &[(&str, DataType)]) -> Self {
        Self {
            columns: cols
                .iter()
                .map(|(n, t)| ColumnDef {
                    name: n.to_string(),
                    dtype: *t,
                })
                .collect(),
        }
    }

    /// Index of a named column.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// One empty column per schema column.
    fn empty_cols(&self) -> Vec<Col> {
        self.columns.iter().map(|c| Col::empty(c.dtype)).collect()
    }
}

/// Metadata of one row group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RowGroupMeta {
    /// Rows in the group.
    pub rows: u32,
    /// Zone entry per column.
    pub zones: Vec<ZoneEntry>,
}

/// A table's complete metadata: schema, groups, dictionaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Rows per full group.
    pub row_group_size: u32,
    /// Row groups in order.
    pub groups: Vec<RowGroupMeta>,
    /// Per-column dictionary (string columns only).
    pub dicts: Vec<Option<Dictionary>>,
}

impl TableMeta {
    /// Fresh empty table.
    pub fn new(id: TableId, name: impl Into<String>, schema: Schema, row_group_size: u32) -> Self {
        let dicts = schema
            .columns
            .iter()
            .map(|c| (c.dtype == DataType::Str).then(Dictionary::new))
            .collect();
        Self {
            id,
            name: name.into(),
            schema,
            row_group_size,
            groups: Vec::new(),
            dicts,
        }
    }

    /// Logical page of `(group, column)`.
    pub fn page_id(&self, group: usize, col: usize) -> PageId {
        PageId((group * self.schema.len() + col) as u64)
    }

    /// Total rows.
    pub fn row_count(&self) -> u64 {
        self.groups.iter().map(|g| g.rows as u64).sum()
    }

    /// Total pages.
    pub fn page_count(&self) -> u64 {
        (self.groups.len() * self.schema.len()) as u64
    }

    /// Scan: read `projection` columns for rows passing `pred`, consulting
    /// zone maps to skip groups.
    ///
    /// The degree of morsel parallelism comes from the store (see
    /// [`PageStore::scan_parallelism`]); output is identical to a serial
    /// scan regardless of worker count. Runs the two-phase
    /// late-materialization protocol (DESIGN.md §6h).
    pub fn scan(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
    ) -> IqResult<Chunk> {
        self.scan_with_options(
            store,
            projection,
            pred,
            meter,
            ScanOptions {
                workers: store.scan_parallelism(),
                late_mat: true,
            },
            None,
        )
    }

    /// The scan hot path: a two-phase late-materialization morsel scan,
    /// stitched. It is `scan_fold` with the stage (if any) as the lane
    /// half and the stitch as the ordered half: the per-group chunks are
    /// concatenated in group order, so the output is byte-identical to a
    /// `workers == 1` run — and to an eager (`late_mat: false`) run. A
    /// [`Stage`], if given, runs on every group's chunk just before that
    /// stitch.
    pub fn scan_with_options(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
        opts: ScanOptions,
        stage: Option<Stage<'_>>,
    ) -> IqResult<Chunk> {
        let mut chunks = Vec::new();
        let lane = |chunk: Chunk| match stage {
            Some(f) => f(chunk),
            None => Ok(chunk),
        };
        let stitch = |chunk: Chunk| {
            chunks.push(chunk);
            Ok(())
        };
        self.scan_fold(store, projection, pred, meter, opts, (lane, stitch))?;
        // The lanes hand their chunks over by value: stitch by moving.
        Chunk::concat(chunks)
    }

    /// The one scan body: a two-phase late-materialization morsel scan
    /// whose row groups go to an ordered consumer instead of a stitch.
    ///
    /// Each surviving row group is one morsel, and the task that owns it
    /// is the only one that asks for its pages: it reads and decodes the
    /// predicate inputs and evaluates the mask. A group whose mask comes
    /// up all-false is finished — its projection pages are never
    /// requested. Otherwise the projection pages are read, and only
    /// projected columns are filtered. Nothing is fetched ahead of the
    /// group being read, so the scan's I/O plan is a function of the
    /// survivor list: each page requested once, by the task that decodes
    /// it.
    ///
    /// `fold` is `(lane, consume)`. `lane` runs on each group's chunk in
    /// the lane that decoded it; `consume` takes the lane's results in
    /// group order, one at a time ([`IoCore::run_fold`]), so what it
    /// builds is a function of the rows in scan order, not of the worker
    /// count. `lane` also runs once on an empty chunk of the projection's
    /// types when no group survives pruning, so `consume` always sees at
    /// least one result.
    pub(crate) fn scan_fold<T, L, C>(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
        opts: ScanOptions,
        (lane, mut consume): (L, C),
    ) -> IqResult<()>
    where
        T: Send,
        L: Fn(Chunk) -> IqResult<T> + Sync,
        C: FnMut(T) -> IqResult<()> + Send,
    {
        let workers = opts.workers;
        let stats = store.scan_stats();
        // Every exit of a group — and the scan without one — goes through
        // `lane`, so arity and column types are always the lane's.
        let no_rows = || {
            let empty = |&c: &usize| Col::empty(self.schema.columns[c].dtype);
            Chunk::new(projection.iter().map(empty).collect())
        };

        // Columns needed: projection plus predicate inputs.
        let pred_cols: Vec<usize> = pred.map(|p| p.columns()).unwrap_or_default();
        let mut needed: Vec<usize> = projection.to_vec();
        needed.extend_from_slice(&pred_cols);
        needed.sort_unstable();
        needed.dedup();

        // Group-level pruning on the per-column zone entries.
        let prune_checks = pred.map(|p| p.prune_checks()).unwrap_or_default();
        let mut survivors: Vec<usize> = Vec::with_capacity(self.groups.len());
        for g in 0..self.groups.len() {
            // A group a delete emptied holds nothing to consider: its
            // (zero-row) pages are never requested.
            if self.groups[g].rows == 0 {
                continue;
            }
            let zones = &self.groups[g].zones;
            let survives = prune_checks.iter().all(|c| c.may_match(&zones[c.col()]));
            if let Some(s) = &stats {
                ScanStats::add(&s.groups_considered, 1);
            }
            if survives {
                survivors.push(g);
            } else {
                if let Some(s) = &stats {
                    ScanStats::add(&s.groups_zone_pruned, 1);
                    ScanStats::add(&s.pruned_pages_skipped, needed.len() as u64);
                }
                trace::emit(EventKind::GroupPruned {
                    table: self.id.0 as u64,
                    group: g as u64,
                });
            }
        }

        // Two-phase split: phase 1 is the predicate's inputs, phase 2 the
        // projection-only remainder. A predicate without column inputs
        // (or no predicate, or `late_mat: false`) degenerates to the
        // classic eager scan: phase 1 reads everything.
        let late = opts.late_mat && !pred_cols.is_empty();
        let phase1: Vec<usize> = if late {
            pred_cols.clone()
        } else {
            needed.clone()
        };
        let phase2: Vec<usize> = if late {
            needed
                .iter()
                .copied()
                .filter(|c| phase1.binary_search(c).is_err())
                .collect()
        } else {
            Vec::new()
        };

        // A late scan splits the predicate at its top-level AND: each
        // column's page terms run on its encoding, and only the columns
        // the residual reads are decoded in phase 1. Eager decodes every
        // phase-1 column and evaluates the whole predicate over them.
        // Each column's terms are prepared once, for all its pages.
        let (terms, residual) = match pred {
            Some(p) if late => {
                let split = p.page_split(|c| self.schema.columns.get(c).map(|d| d.dtype));
                let tests = (split.terms.iter())
                    .map(|(c, terms)| (*c, PageTest::new(terms, self.dicts[*c].as_ref())));
                (tests.collect(), split.residual.map(Cow::Owned))
            }
            _ => (Vec::new(), pred.map(Cow::Borrowed)),
        };
        let terms_of = |c: usize| {
            let at = terms.binary_search_by_key(&c, |(col, _)| *col).ok()?;
            Some(&terms[at].1)
        };
        let decoded: Vec<usize> = (phase1.iter().copied())
            .filter(|&c| terms_of(c).is_none())
            .collect();
        // Projected columns whose page answered its terms: decoded in
        // phase 2, at the mask's rows, from the page phase 1 read.
        let held: Vec<usize> = (phase1.iter().copied())
            .filter(|&c| terms_of(c).is_some() && projection.contains(&c))
            .collect();

        // String columns the predicate reads only by `=`, `<>` and `IN`
        // against literals: compared as codes, their strings never read.
        if let (Some(s), Some(p), true) = (&stats, pred, late) {
            let coded = p.code_only_columns().into_iter().filter(|&c| {
                self.schema.columns[c].dtype == DataType::Str && self.dicts[c].is_some()
            });
            let n = coded.count() as u64;
            if n > 0 {
                ScanStats::add(&s.dict_filter_columns, n);
            }
        }

        // The residual sees the decoded phase-1 columns indexed by
        // original column ids via a dense remap; each projected column
        // knows where it comes from. All loop-invariant.
        let mut remap = vec![usize::MAX; self.schema.len()];
        for (i, &c) in decoded.iter().enumerate() {
            remap[c] = i;
        }
        #[derive(PartialEq)]
        enum Src {
            /// Decoded whole in phase 1, at this position.
            Phase1(usize),
            /// Decoded at the mask in phase 2, at this position: the
            /// phase-2 pages, then the held ones.
            Phase2(usize),
        }
        let sources: Vec<Src> = projection
            .iter()
            .map(|c| match decoded.binary_search(c) {
                Ok(p) => Src::Phase1(p),
                Err(_) => Src::Phase2(match phase2.binary_search(c) {
                    Ok(p) => p,
                    Err(_) => {
                        phase2.len()
                            + held
                                .binary_search(c)
                                .expect("projected column was scheduled")
                    }
                }),
            })
            .collect();

        // Every surviving morsel is submitted to the I/O core up front:
        // in-flight depth is the submitted batch, not the lane count, so
        // the `io.*` in-flight peak reports survivors — the io_uring-style
        // depth — while execution is carried by `workers` lanes.
        let mut io = IoCore::new(workers);
        if let Some(s) = store.io_stats() {
            io = io.with_stats(s);
        }
        let and_in = |mask: Option<Mask>, m: Mask| match mask {
            Some(prev) => prev.and(&m),
            None => m,
        };
        let morsel = |i: usize| -> IqResult<T> {
            let g = survivors[i];
            // The task that owns a group reads each of its pages once:
            // the first surviving group's as demand reads, every later
            // group's as non-demand ones. Which task owns a group never
            // depends on timing, so neither does the metered demand /
            // non-demand split.
            let demand = i == 0;

            // Phase 1: read the predicate inputs (all needed columns when
            // eager). A page with terms yields its mask off the encoding;
            // any other is decoded. A page must hold exactly the rows its
            // group's metadata says: the count stored in the page is
            // device bytes and is not trusted.
            let rows = self.groups[g].rows as usize;
            let mut cols1: Vec<Col> = Vec::with_capacity(decoded.len());
            let mut pages = Vec::with_capacity(held.len());
            let mut mask: Option<Mask> = None;
            for &c in &phase1 {
                let page = store.read_page(self.id, self.page_id(g, c), demand)?;
                let encoded = match terms_of(c) {
                    Some(test) => {
                        mask = Some(and_in(mask, eval_page(&page.body, rows, test)?));
                        if held.binary_search(&c).is_ok() {
                            pages.push(page);
                        }
                        true
                    }
                    None => {
                        cols1.push(decode_rows(
                            &page.body,
                            self.dicts[c].as_ref(),
                            Some(rows),
                            None,
                        )?);
                        false
                    }
                };
                meter.add(cost::SCAN * rows as u64);
                if let Some(s) = &stats {
                    if pred_cols.binary_search(&c).is_ok() {
                        ScanStats::add(&s.predicate_pages_read, 1);
                        ScanStats::add(
                            if encoded {
                                &s.predicate_pages_encoded
                            } else {
                                &s.predicate_pages_decoded
                            },
                            1,
                        );
                    } else {
                        ScanStats::add(&s.projection_pages_read, 1);
                    }
                }
            }
            let mut chunk1 = Chunk::new(cols1);
            if !phase1.is_empty() {
                meter.add(cost::FILTER * rows as u64);
            }
            if let Some(r) = &residual {
                mask = Some(and_in(mask, r.eval_mask(&chunk1, &remap)?));
            }

            if late {
                // The materialization decision: depends only on the
                // group's own mask — deterministic and worker-independent,
                // so the metered demand / non-demand split is identical at
                // any worker count.
                if mask.as_ref().is_some_and(|m| !m.any()) {
                    if let Some(s) = &stats {
                        ScanStats::add(&s.groups_empty_mask, 1);
                        ScanStats::add(&s.projection_pages_skipped, phase2.len() as u64);
                    }
                    trace::emit(EventKind::LateMatSkip {
                        table: self.id.0 as u64,
                        group: g as u64,
                        pages_saved: phase2.len() as u64,
                    });
                    trace::emit(EventKind::ScanMorsel {
                        table: self.id.0 as u64,
                        group: g as u64,
                        rows: 0,
                    });
                    return lane(no_rows());
                }
                if let Some(s) = &stats {
                    ScanStats::add(&s.groups_materialized, 1);
                }
            }

            // Phase 2 (mask known and non-empty): read the projection-only
            // columns, then take the held pages, decoding only the rows the
            // mask selected.
            let mut cols2: Vec<Col> = Vec::with_capacity(phase2.len() + held.len());
            for &c in &phase2 {
                let page = store.read_page(self.id, self.page_id(g, c), demand)?;
                let dict = self.dicts[c].as_ref();
                cols2.push(decode_rows(&page.body, dict, Some(rows), mask.as_ref())?);
                meter.add(cost::SCAN * rows as u64);
                if let Some(s) = &stats {
                    ScanStats::add(&s.projection_pages_read, 1);
                }
            }
            for (page, &c) in pages.iter().zip(&held) {
                let dict = self.dicts[c].as_ref();
                cols2.push(decode_rows(&page.body, dict, Some(rows), mask.as_ref())?);
            }

            // Assemble the projection. Filtering each projected column is
            // bitwise identical to filtering the whole chunk and
            // projecting, without touching predicate-only columns. An
            // unfiltered column moves out at its last use; only a
            // projection that names it again clones it.
            let out: Vec<Col> = sources
                .iter()
                .enumerate()
                .map(|(k, src)| {
                    let last_use = !sources[k + 1..].contains(src);
                    let owned = |col: &mut Col| {
                        if last_use {
                            std::mem::replace(col, Col::Bool(Vec::new()))
                        } else {
                            col.clone()
                        }
                    };
                    match (src, &mask) {
                        (Src::Phase2(p), _) => owned(&mut cols2[*p]),
                        (Src::Phase1(p), None) => owned(&mut chunk1.cols[*p]),
                        (Src::Phase1(p), Some(m)) => chunk1.col(*p).filter(m),
                    }
                })
                .collect();
            trace::emit(EventKind::ScanMorsel {
                table: self.id.0 as u64,
                group: g as u64,
                rows: mask.as_ref().map_or(rows, Mask::count) as u64,
            });
            lane(Chunk::new(out))
        };
        if survivors.is_empty() {
            return consume(lane(no_rows())?);
        }
        io.run_fold(survivors.len(), morsel, consume)
    }

    /// Delete every row whose `key_col` value (an integer column) is in
    /// `victims`, rewriting in place — at the same page ids — only the
    /// row groups that hold one. A group whose key zone cannot reach a
    /// victim is not read at all; one whose zone can but whose keys do
    /// not costs its key page and nothing else. Surviving rows keep their
    /// order and group indices never shift: a group that empties stays,
    /// as a zero-row group scans skip. Returns the rows removed.
    pub fn delete_keys(
        &mut self,
        store: &dyn PageStore,
        txn: TxnId,
        meter: &WorkMeter,
        key_col: usize,
        victims: &HashSet<i64>,
    ) -> IqResult<u64> {
        if self.schema.columns[key_col].dtype != DataType::I64 {
            return Err(IqError::Invalid("delete keys must be integers".into()));
        }
        let (Some(&lo), Some(&hi)) = (victims.iter().min(), victims.iter().max()) else {
            return Ok(0);
        };
        let mut removed = 0u64;
        for g in 0..self.groups.len() {
            let rows = self.groups[g].rows as usize;
            let out_of_reach = match self.groups[g].zones[key_col] {
                ZoneEntry::Num { min, max } => max < lo || min > hi,
                _ => false,
            };
            if rows == 0 || out_of_reach {
                continue;
            }
            let key_page = store.read_page(self.id, self.page_id(g, key_col), true)?;
            let keys = decode_rows(&key_page.body, None, Some(rows), None)?;
            meter.add(cost::SCAN * rows as u64);
            let keys = keys.i64s();
            let keep = Mask::from_fn(rows, |i| !victims.contains(&keys[i]));
            if keep.count() == rows {
                continue;
            }
            let old = self.read_group(store, meter, g)?;
            let kept: Vec<Col> = old.iter().map(|col| col.filter(&keep)).collect();
            self.groups[g] = self.write_group(store, txn, meter, g, &kept)?;
            removed += (rows - keep.count()) as u64;
        }
        Ok(removed)
    }

    /// Read and decode every column of row group `group`.
    fn read_group(
        &self,
        store: &dyn PageStore,
        meter: &WorkMeter,
        group: usize,
    ) -> IqResult<Vec<Col>> {
        let rows = self.groups[group].rows as usize;
        if rows == 0 {
            return Ok(self.schema.empty_cols());
        }
        (0..self.schema.len())
            .map(|c| {
                let page = store.read_page(self.id, self.page_id(group, c), true)?;
                meter.add(cost::SCAN * rows as u64);
                decode_rows(&page.body, self.dicts[c].as_ref(), Some(rows), None)
            })
            .collect()
    }

    /// Encode `cols` as the pages of row group `group` and write them. A
    /// string column over its dictionary's list is stored as the codes it
    /// holds; one over another list interns its strings into the
    /// (append-only) dictionary first, once per distinct code. Either way
    /// a rewritten group keeps the codes it had. Returns the group's
    /// metadata for the caller to install.
    fn write_group(
        &mut self,
        store: &dyn PageStore,
        txn: TxnId,
        meter: &WorkMeter,
        group: usize,
        cols: &[Col],
    ) -> IqResult<RowGroupMeta> {
        let mut zones = Vec::with_capacity(cols.len());
        for (c, col) in cols.iter().enumerate() {
            zones.push(ZoneEntry::of(col));
            let codes: Option<Cow<'_, [u32]>> = match col {
                Col::Str(strs) => {
                    let dict = self.dicts[c]
                        .as_mut()
                        .expect("string column has a dictionary");
                    Some(dict.codes_of(strs))
                }
                _ => None,
            };
            let body = encode_column(col, codes.as_deref())?;
            meter.add(cost::LOAD * col.len() as u64);
            store.write_page(
                self.id,
                self.page_id(group, c),
                PageKind::Data,
                Bytes::from(body),
                txn,
            )?;
        }
        Ok(RowGroupMeta {
            rows: cols[0].len() as u32,
            zones,
        })
    }
}

/// Streaming table loader: buffers rows, flushes full row groups.
pub struct TableWriter<'a> {
    meta: &'a mut TableMeta,
    store: &'a dyn PageStore,
    txn: TxnId,
    pending: Vec<Pending>,
    meter: &'a WorkMeter,
}

/// One column of a writer's rows not yet written. A string column holds
/// its dictionary's codes, interned as each row arrives, so the group is
/// written from them without encoding it again; it becomes a [`StrCol`]
/// over the dictionary's list only while the group is written, so the
/// list is not shared while the dictionary interns into it.
enum Pending {
    Codes(Vec<u32>),
    Values(Col),
}

impl Pending {
    fn len(&self) -> usize {
        match self {
            Pending::Codes(codes) => codes.len(),
            Pending::Values(col) => col.len(),
        }
    }

    /// The rows as a column to write, `dict` the column's dictionary;
    /// [`put_back`](Self::put_back) returns its buffer.
    fn take(&mut self, dict: Option<&Dictionary>) -> Col {
        match self {
            Pending::Codes(codes) => {
                let list = dict.expect("string column has a dictionary").list();
                Col::Str(StrCol::from_codes(std::mem::take(codes), Arc::clone(list)))
            }
            Pending::Values(col) => {
                let empty = Col::empty(col.data_type().expect("a stored column"));
                std::mem::replace(col, empty)
            }
        }
    }

    /// Return the buffer [`take`](Self::take) lent out, rows and all.
    fn put_back(&mut self, col: Col) {
        match (self, col) {
            (Pending::Codes(codes), Col::Str(strs)) => *codes = strs.into_codes(),
            (Pending::Values(mine), col) => *mine = col,
            _ => unreachable!("a pending column takes back its own kind"),
        }
    }

    /// Keep the first `rows` rows, and the capacity.
    fn truncate(&mut self, rows: usize) {
        match self {
            Pending::Codes(codes) => codes.truncate(rows),
            Pending::Values(col) => col.truncate(rows),
        }
    }
}

impl From<Col> for Pending {
    /// A string column's codes must be its dictionary's.
    fn from(col: Col) -> Self {
        match col {
            Col::Str(strs) => Pending::Codes(strs.into_codes()),
            col => Pending::Values(col),
        }
    }
}

impl<'a> TableWriter<'a> {
    /// Start loading into `meta` through `store` under `txn`.
    pub fn new(
        meta: &'a mut TableMeta,
        store: &'a dyn PageStore,
        txn: TxnId,
        meter: &'a WorkMeter,
    ) -> Self {
        let pending = meta
            .schema
            .empty_cols()
            .into_iter()
            .map(Pending::from)
            .collect();
        Self {
            meta,
            store,
            txn,
            pending,
            meter,
        }
    }

    /// Continue loading a table that already holds rows. A partial last
    /// group is read back into the pending rows and dropped from `meta`,
    /// so appended rows refill it (and overflow into new groups) instead
    /// of starting a near-empty group per append: a sealed page occupies
    /// a whole page however few rows it holds. Every earlier group is
    /// left as it is, unread and unwritten.
    pub fn reopen(
        meta: &'a mut TableMeta,
        store: &'a dyn PageStore,
        txn: TxnId,
        meter: &'a WorkMeter,
    ) -> IqResult<Self> {
        let mut w = Self::new(meta, store, txn, meter);
        let last = w.meta.groups.last();
        if last.is_some_and(|g| g.rows < w.meta.row_group_size) {
            let tail = w.meta.groups.len() - 1;
            // The group's string columns decode over their dictionaries'
            // lists, so their codes are the dictionaries' codes.
            let cols = w.meta.read_group(store, meter, tail)?;
            w.pending = cols.into_iter().map(Pending::from).collect();
            w.meta.groups.pop();
        }
        Ok(w)
    }

    /// Append one row.
    pub fn append_row(&mut self, values: &[Value]) -> IqResult<()> {
        if values.len() != self.pending.len() {
            return Err(IqError::Invalid(format!(
                "row arity {} != schema arity {}",
                values.len(),
                self.pending.len()
            )));
        }
        if let Err(e) = self.push_row(values) {
            // A mistyped column k left columns 0..k a row longer than the
            // rest, and the failed column holds the group's rows.
            let rows = self.pending.iter().map(Pending::len).min().unwrap_or(0);
            self.pending.iter_mut().for_each(|p| p.truncate(rows));
            return Err(e);
        }
        if self.pending[0].len() as u32 >= self.meta.row_group_size {
            self.flush_group()?;
        }
        Ok(())
    }

    /// Push one value onto each pending column, stopping at the first
    /// that does not fit its column.
    fn push_row(&mut self, values: &[Value]) -> IqResult<()> {
        for ((col, v), dict) in self
            .pending
            .iter_mut()
            .zip(values)
            .zip(&mut self.meta.dicts)
        {
            match (col, v) {
                (Pending::Codes(codes), Value::Str(s)) => {
                    let dict = dict.as_mut().expect("string column has a dictionary");
                    codes.push(dict.encode(s));
                }
                (Pending::Codes(_), v) => {
                    return Err(IqError::Invalid(format!(
                        "cannot push {:?} into a Str column",
                        v.data_type()
                    )))
                }
                (Pending::Values(col), v) => col.push(v)?,
            }
        }
        Ok(())
    }

    fn flush_group(&mut self) -> IqResult<()> {
        if self.pending[0].len() == 0 {
            return Ok(());
        }
        let group = self.meta.groups.len();
        let cols: Vec<Col> = (self.pending.iter_mut())
            .zip(&self.meta.dicts)
            .map(|(p, dict)| p.take(dict.as_ref()))
            .collect();
        let written = self
            .meta
            .write_group(self.store, self.txn, self.meter, group, &cols);
        // The string columns drop their hold on the lists here.
        for (p, col) in self.pending.iter_mut().zip(cols) {
            p.put_back(col);
        }
        self.meta.groups.push(written?);
        // The next group refills the same columns, so only the first
        // group's appends grow them. Reserving a full group up front
        // instead raised the peak RSS of a TPC-H load (EXPERIMENTS.md).
        self.pending.iter_mut().for_each(|p| p.truncate(0));
        Ok(())
    }

    /// Flush any partial group and finish.
    pub fn finish(mut self) -> IqResult<()> {
        self.flush_group()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemPageStore;
    use crate::value::parse_date;

    fn schema() -> Schema {
        Schema::new(&[
            ("k", DataType::I64),
            ("price", DataType::F64),
            ("region", DataType::Str),
            ("d", DataType::Date),
        ])
    }

    fn load_rows(meta: &mut TableMeta, store: &MemPageStore, n: i64) {
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(meta, store, TxnId(1), &meter);
        for i in 0..n {
            w.append_row(&[
                Value::I64(i),
                Value::F64(i as f64 * 1.5),
                Value::Str(if i % 2 == 0 {
                    "EAST".into()
                } else {
                    "WEST".into()
                }),
                Value::Date(parse_date("1995-01-01").unwrap() + (i % 100) as i32),
            ])
            .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn load_and_full_scan() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 200);
        assert_eq!(meta.row_count(), 200);
        assert_eq!(meta.groups.len(), 4); // 64+64+64+8
        assert_eq!(meta.groups[3].rows, 8);
        let meter = WorkMeter::new();
        let out = meta.scan(&store, &[0, 2], None, &meter).unwrap();
        assert_eq!(out.len(), 200);
        assert_eq!(out.col(0).i64s()[199], 199);
        assert_eq!(&out.col(1).strs()[0], "EAST");
        assert!(meter.total() > 0);
    }

    #[test]
    fn scan_with_predicate_and_zone_pruning() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256);
        let meter = WorkMeter::new();
        // k < 10 touches only the first group; zone maps prune the rest.
        let pred = Expr::lt(Expr::col(0), Expr::lit_i64(10));
        let out = meta.scan(&store, &[0], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 10);
        let pruned_work = meter.total();
        // Compare against an unprunable predicate of the same selectivity.
        let meter2 = WorkMeter::new();
        let pred2 = Expr::eq(
            Expr::modulo(Expr::col(0), Expr::lit_i64(256)),
            Expr::lit_i64(0),
        );
        meta.scan(&store, &[0], Some(&pred2), &meter2).unwrap();
        assert!(pruned_work < meter2.total(), "zone maps must reduce work");

        // A group a delete emptied (zero rows, zone `None`) is skipped
        // before it is considered: of the three groups left, `k < 190`
        // zone-prunes the last and reads the other two.
        let emptied: HashSet<i64> = (64..128).collect();
        meta.delete_keys(&store, TxnId(2), &meter, 0, &emptied)
            .unwrap();
        assert_eq!(meta.groups[1].rows, 0);
        assert_eq!(meta.groups[1].zones[0], ZoneEntry::None);
        let stats = store.scan_stats().unwrap();
        let considered = ScanStats::get(&stats.groups_considered);
        let pruned = ScanStats::get(&stats.groups_zone_pruned);
        let reads = store.reads();
        let pred3 = Expr::lt(Expr::col(0), Expr::lit_i64(190));
        let out = meta.scan(&store, &[0], Some(&pred3), &meter).unwrap();
        let want: Vec<i64> = (0..64).chain(128..190).collect();
        assert_eq!(out.col(0).i64s(), want);
        assert_eq!(ScanStats::get(&stats.groups_considered) - considered, 3);
        assert_eq!(ScanStats::get(&stats.groups_zone_pruned) - pruned, 1);
        assert_eq!(store.reads() - reads, 2);
    }

    #[test]
    fn empty_result_keeps_arity() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 10);
        let meter = WorkMeter::new();
        let pred = Expr::gt(Expr::col(0), Expr::lit_i64(1_000_000));
        let out = meta.scan(&store, &[1, 2], Some(&pred), &meter).unwrap();
        assert_eq!(out.cols.len(), 2);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_scans_take_the_stages_shape() {
        use crate::ops::{HashJoin, JoinType, OpExec};
        // A probe that appends two build columns, then a computed column:
        // wider than, and typed differently from, the projection.
        let build = Chunk::new(vec![
            Col::I64(vec![5, 70, 70]),
            Col::Str(["five", "seventy", "again"].into_iter().collect()),
        ]);
        let meter = WorkMeter::new();
        let join = HashJoin::build(&build, &[0], &meter, &OpExec::serial()).unwrap();
        let doubled = Expr::mul(Expr::col(1), Expr::lit_f64(2.0));
        let stage = |c: Chunk| -> IqResult<Chunk> {
            let mut j = join.probe(&c, &[0], JoinType::Inner, &meter)?;
            let col = doubled.eval_on(&j)?;
            j.cols.push(col);
            Ok(j)
        };
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups, k = 0..256
        let no_rows = TableMeta::new(TableId(2), "empty", schema(), 64);
        let unprunable = |k: i64| {
            Expr::eq(
                Expr::modulo(Expr::col(0), Expr::lit_i64(256)),
                Expr::lit_i64(k),
            )
        };
        let cases = [
            // Every group zone-pruned: the stage runs once, on no rows.
            (
                &meta,
                Some(Expr::gt(Expr::col(0), Expr::lit_i64(1_000_000))),
                0,
            ),
            // Groups 2 and 3 come up empty-masked, 0 and 1 select a row.
            (&meta, Some(Expr::or(unprunable(5), unprunable(70))), 3),
            // Every group empty-masked.
            (&meta, Some(unprunable(1_000)), 0),
            // No groups at all.
            (&no_rows, None, 0),
        ];
        for (table, pred, rows) in &cases {
            for workers in [1usize, 2, 8] {
                for late_mat in [true, false] {
                    let opts = ScanOptions { workers, late_mat };
                    let scan = |stage| {
                        table
                            .scan_with_options(&store, &[0, 1], pred.as_ref(), &meter, opts, stage)
                            .unwrap()
                    };
                    let staged = scan(Some(&stage));
                    assert_eq!(staged, stage(scan(None)).unwrap());
                    assert_eq!(staged.len(), *rows);
                    let types: Vec<_> = staged.cols.iter().map(Col::data_type).collect();
                    let want = [DataType::I64, DataType::F64, DataType::I64, DataType::Str];
                    assert_eq!(types[..4], want.map(Some));
                    assert_eq!(types[4], Some(DataType::F64));
                }
            }
        }
    }

    #[test]
    fn late_mat_skips_projection_pages_on_empty_masks() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups
        let stats = store.scan_stats().unwrap();
        let meter = WorkMeter::new();
        // Unclustered predicate (k % 64 == 5 is true somewhere in every
        // group's zone, but k == 5 matches only group 0's rows) on an
        // unprunable shape: modulo defeats the zone map entirely.
        let pred = Expr::eq(
            Expr::modulo(Expr::col(0), Expr::lit_i64(256)),
            Expr::lit_i64(5),
        );
        let out = meta
            .scan_with_options(
                &store,
                &[0, 1, 2],
                Some(&pred),
                &meter,
                ScanOptions {
                    workers: 1,
                    late_mat: true,
                },
                None,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // Group 0 materialized; the other three skipped their projection
        // pages (price and region: k is a predicate input).
        assert_eq!(ScanStats::get(&stats.groups_materialized), 1);
        assert_eq!(ScanStats::get(&stats.groups_empty_mask), 3);
        assert_eq!(ScanStats::get(&stats.projection_pages_skipped), 6);
        assert_eq!(ScanStats::get(&stats.predicate_pages_read), 4);
        assert_eq!(ScanStats::get(&stats.projection_pages_read), 2);
        assert_eq!(stats.gets_saved(), 6);
    }

    #[test]
    fn page_terms_run_on_the_encoding_and_a_filtered_projection_reads_its_page_once() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups, every d in 1995
        let stats = store.scan_stats().unwrap();
        // k and region answer on their pages; the residual reads d, so
        // d is decoded. k is projected too: decoded at the mask's rows.
        let pred = Expr::and_all(vec![
            Expr::between(Expr::col(0), Expr::lit_i64(10), Expr::lit_i64(200)),
            Expr::eq(Expr::col(2), Expr::lit_str("EAST")),
            Expr::eq(Expr::year(Expr::col(3)), Expr::lit_i64(1995)),
        ]);
        let scan = |late_mat: bool| {
            let meter = WorkMeter::new();
            let reads = store.reads();
            let opts = ScanOptions {
                workers: 1,
                late_mat,
            };
            let out = meta
                .scan_with_options(&store, &[1, 0], Some(&pred), &meter, opts, None)
                .unwrap();
            (out, meter.total(), store.reads() - reads)
        };
        let (late, late_units, late_reads) = scan(true);
        assert_eq!(ScanStats::get(&stats.predicate_pages_encoded), 8);
        assert_eq!(ScanStats::get(&stats.predicate_pages_decoded), 4);
        assert_eq!(ScanStats::get(&stats.predicate_pages_read), 12);
        // Every group matches: three predicate pages and price each.
        assert_eq!(late_reads, 16);
        let want: Vec<i64> = (10..=200).filter(|k| k % 2 == 0).collect();
        assert_eq!(late.col(1).i64s(), want);
        let (eager, eager_units, eager_reads) = scan(false);
        assert_eq!(
            (late, late_units, late_reads),
            (eager, eager_units, eager_reads)
        );
        // An eager scan decodes every predicate page.
        assert_eq!(ScanStats::get(&stats.predicate_pages_decoded), 4 + 12);
        assert_eq!(ScanStats::get(&stats.predicate_pages_encoded), 8);
    }

    #[test]
    fn dict_domain_filter_matches_string_semantics() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 200);
        let stats = store.scan_stats().unwrap();
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(2), Expr::lit_str("EAST"));
        let out = meta.scan(&store, &[0, 2], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.col(1).strs().iter().all(|s| s == "EAST"));
        assert_eq!(ScanStats::get(&stats.dict_filter_columns), 1);
        // A literal absent from the dictionary matches nothing but keeps
        // the projected arity.
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(2), Expr::lit_str("NOWHERE"));
        let out = meta.scan(&store, &[0, 2], Some(&pred), &meter).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.cols.len(), 2);
    }

    fn load_rows_i64(meta: &mut TableMeta, store: &MemPageStore, groups: &[Vec<i64>]) {
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(meta, store, TxnId(1), &meter);
        for g in groups {
            for &v in g {
                w.append_row(&[Value::I64(v)]).unwrap();
            }
        }
        w.finish().unwrap();
    }

    #[test]
    fn bool_zone_prunes_through_scan() {
        // Booleans never persist as pages, but their zone summaries do
        // prune derived predicates; exercise ZoneEntry::of(Bool) → Num
        // via hand-built zones on an i64 flag column (0/1).
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", Schema::new(&[("flag", DataType::I64)]), 4);
        load_rows_i64(&mut meta, &store, &[vec![0, 0, 0, 0], vec![0, 1, 1, 0]]);
        // Overwrite zones with what ZoneEntry::of(Col::Bool) yields.
        meta.groups[0].zones = vec![ZoneEntry::of(&Col::Bool(vec![false; 4]))];
        meta.groups[1].zones = vec![ZoneEntry::of(&Col::Bool(vec![false, true, true, false]))];
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(0), Expr::lit_i64(1));
        let out = meta.scan(&store, &[0], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 2);
        let stats = store.scan_stats().unwrap();
        // The all-false group pruned; the mixed group stayed conservative.
        assert_eq!(ScanStats::get(&stats.groups_zone_pruned), 1);
        assert_eq!(ScanStats::get(&stats.groups_materialized), 1);
    }

    #[test]
    fn forged_page_row_count_fails_the_read() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 128);
        let meter = WorkMeter::new();
        let overwrite = |group: usize, body: Vec<u8>| {
            let page = meta.page_id(group, 0);
            store
                .write_page(meta.id, page, PageKind::Data, Bytes::from(body), TxnId(2))
                .unwrap();
        };
        // A well-formed page of 63 rows where the group holds 64: trusted,
        // it yields columns of unequal length and the scan returns wrong
        // rows in release builds.
        overwrite(
            1,
            encode_column(&Col::I64((0..63).collect()), None).unwrap(),
        );
        let scanned = meta.scan(&store, &[0, 1], None, &meter);
        assert!(matches!(scanned, Err(IqError::Corruption(_))));
        let pred = Expr::ge(Expr::col(0), Expr::lit_i64(0));
        let scanned = meta.scan(&store, &[0, 1], Some(&pred), &meter);
        assert!(matches!(scanned, Err(IqError::Corruption(_))));
        // Width 0 and a count of 2^32 - 1 in 14 bytes: trusted, a 32 GiB
        // allocation. (Group 1 is still forged, so restore it first.)
        overwrite(
            1,
            encode_column(&Col::I64((64..128).collect()), None).unwrap(),
        );
        let mut forged = encode_column(&Col::I64(vec![7; 64]), None).unwrap();
        forged[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        overwrite(0, forged);
        let scanned = meta.scan(&store, &[0], None, &meter);
        assert!(matches!(scanned, Err(IqError::Corruption(_))));
    }

    #[test]
    fn reopen_refills_the_partial_tail_group() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 150); // 64 + 64 + 22
        let meter = WorkMeter::new();
        let reads = store.reads();
        let mut w = TableWriter::reopen(&mut meta, &store, TxnId(2), &meter).unwrap();
        // Only the tail group's four pages came back.
        assert_eq!(store.reads() - reads, 4);
        for k in 150..200 {
            w.append_row(&[
                Value::I64(k),
                Value::F64(0.0),
                Value::Str("NORTH".into()),
                Value::Date(0),
            ])
            .unwrap();
        }
        w.finish().unwrap();
        let rows: Vec<u32> = meta.groups.iter().map(|g| g.rows).collect();
        assert_eq!(rows, [64, 64, 64, 8]);
        assert_eq!(store.page_count(), 4 * 4);
        let out = meta.scan(&store, &[0, 2], None, &meter).unwrap();
        assert_eq!(out.col(0).i64s(), (0..200).collect::<Vec<_>>());
        assert_eq!(&out.col(1).strs()[199], "NORTH");
    }

    /// A store whose writes fail while `refuse` is set.
    struct Refusing {
        inner: MemPageStore,
        refuse: std::sync::atomic::AtomicBool,
    }

    impl PageStore for Refusing {
        fn read_page(
            &self,
            table: TableId,
            page: PageId,
            demand: bool,
        ) -> IqResult<iq_storage::Page> {
            self.inner.read_page(table, page, demand)
        }

        fn write_page(
            &self,
            table: TableId,
            page: PageId,
            kind: PageKind,
            body: Bytes,
            txn: TxnId,
        ) -> IqResult<()> {
            if self.refuse.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(IqError::Invalid("write refused".into()));
            }
            self.inner.write_page(table, page, kind, body, txn)
        }
    }

    #[test]
    fn a_failed_group_write_keeps_the_pending_rows() {
        let store = Refusing {
            inner: MemPageStore::new(),
            refuse: true.into(),
        };
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 4);
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
        let row = |k: i64, region: &str| {
            [
                Value::I64(k),
                Value::F64(0.0),
                Value::Str(region.into()),
                Value::Date(0),
            ]
        };
        for (k, region) in ["EAST", "WEST", "EAST"].into_iter().enumerate() {
            w.append_row(&row(k as i64, region)).unwrap();
        }
        // The fourth row fills the group, and its write fails.
        assert!(w.append_row(&row(3, "NORTH")).is_err());
        store
            .refuse
            .store(false, std::sync::atomic::Ordering::Relaxed);
        w.append_row(&row(4, "SOUTH")).unwrap();
        w.finish().unwrap();
        // No column holds the dictionary's list once the writer is done.
        let dict = meta.dicts[2].as_ref().unwrap();
        assert_eq!(Arc::strong_count(dict.list()), 1);
        assert_eq!(dict.len(), 4);
        let out = meta.scan(&store, &[0, 2], None, &meter).unwrap();
        assert_eq!(out.col(0).i64s(), [0, 1, 2, 3, 4]);
        let regions: Vec<&str> = out.col(1).strs().iter().collect();
        assert_eq!(regions, ["EAST", "WEST", "EAST", "NORTH", "SOUTH"]);
    }

    #[test]
    fn delete_keys_rewrites_only_the_groups_holding_a_victim() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 256); // 4 groups
        let meter = WorkMeter::new();
        // Victims in groups 0 and 2; group 1's zone lies between them, so
        // its key page is read and nothing else; group 3's is out of reach.
        let victims: HashSet<i64> = [3, 4, 130].into();
        let reads = store.reads();
        let removed = meta
            .delete_keys(&store, TxnId(2), &meter, 0, &victims)
            .unwrap();
        assert_eq!(removed, 3);
        assert_eq!(store.reads() - reads, 3 + 2 * 4);
        let rows: Vec<u32> = meta.groups.iter().map(|g| g.rows).collect();
        assert_eq!(rows, [62, 64, 63, 64]);
        assert_eq!(
            meta.groups[0].zones[0],
            ZoneEntry::Num { min: 0, max: 63 },
            "zones are recomputed from the survivors"
        );
        let out = meta.scan(&store, &[0], None, &meter).unwrap();
        let want: Vec<i64> = (0..256).filter(|k| !victims.contains(k)).collect();
        assert_eq!(out.col(0).i64s(), want);

        // A group that empties keeps its index; scans never ask for its
        // pages, and an append reuses it when it is the tail.
        let tail: HashSet<i64> = (192..256).collect();
        meta.delete_keys(&store, TxnId(3), &meter, 0, &tail)
            .unwrap();
        assert_eq!(meta.groups.len(), 4);
        assert_eq!(meta.groups[3].rows, 0);
        let reads = store.reads();
        assert_eq!(meta.scan(&store, &[0], None, &meter).unwrap().len(), 189);
        assert_eq!(store.reads() - reads, 3);
        let mut w = TableWriter::reopen(&mut meta, &store, TxnId(4), &meter).unwrap();
        w.append_row(&[
            Value::I64(900),
            Value::F64(0.0),
            Value::Str("EAST".into()),
            Value::Date(0),
        ])
        .unwrap();
        w.finish().unwrap();
        assert_eq!(meta.groups.len(), 4);
        assert_eq!(meta.groups[3].rows, 1);
        // Float keys are refused before anything is read.
        assert!(meta
            .delete_keys(&store, TxnId(5), &meter, 1, &tail)
            .is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let store = MemPageStore::new();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        let meter = WorkMeter::new();
        let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
        assert!(w.append_row(&[Value::I64(1)]).is_err());
        assert!(w
            .append_row(&[
                Value::Str("wrong".into()),
                Value::F64(0.0),
                Value::Str("x".into()),
                Value::Date(0)
            ])
            .is_err());
    }

    /// A row refused at column k > 0 leaves no trace in the columns before
    /// it — codes of a string column included — so the group `finish`
    /// writes holds only the rows that were accepted.
    #[test]
    fn a_row_mistyped_past_column_zero_is_dropped_whole() {
        let cases = [
            (
                Schema::new(&[("k", DataType::I64), ("d", DataType::Date)]),
                vec![Value::I64(1), Value::Date(1)],
                vec![Value::I64(2), Value::I64(9)],
            ),
            (
                Schema::new(&[
                    ("k", DataType::I64),
                    ("s", DataType::Str),
                    ("d", DataType::Date),
                ]),
                vec![Value::I64(1), Value::Str("a".into()), Value::Date(1)],
                vec![Value::I64(2), Value::Str("b".into()), Value::I64(9)],
            ),
        ];
        for (schema, good, bad) in cases {
            let store = MemPageStore::new();
            let arity = schema.columns.len();
            let mut meta = TableMeta::new(TableId(1), "t", schema, 64);
            let meter = WorkMeter::new();
            let mut w = TableWriter::new(&mut meta, &store, TxnId(1), &meter);
            w.append_row(&good).unwrap();
            assert!(w.append_row(&bad).is_err());
            w.finish().unwrap();
            let cols: Vec<usize> = (0..arity).collect();
            let out = meta.scan(&store, &cols, None, &meter).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out.col(0).i64s(), &[1]);
            assert_eq!(out.col(arity - 1).value(0), Value::Date(1));
        }
    }
}
