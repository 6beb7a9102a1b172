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
//! task per surviving row group, its own pages, no read-ahead.
//!
//! Updates are page-granular: [`TableWriter::reopen`] appends by refilling
//! the partial last group, [`TableMeta::delete_keys`] rewrites in place
//! only the groups that hold a deleted row. Every other page keeps its id
//! and is never written, so under a copy-on-write `PageStore` the new
//! table version shares it with the old one. Groups are therefore not all
//! full but the last: a row is addressed as `(group, row in group)`.

use std::borrow::Cow;
use std::collections::HashSet;

use bytes::Bytes;
use iq_common::trace::{self, EventKind};
use iq_common::{IoCore, IqError, IqResult, PageId, TableId, TxnId};
use iq_storage::PageKind;
use serde::{Deserialize, Serialize};

use crate::chunk::{Chunk, Col};
use crate::encode::{decode_codes_as, decode_rows, encode_column, Dictionary};
use crate::expr::Expr;
use crate::mask::Mask;
use crate::meter::{cost, WorkMeter};
use crate::scanstats::ScanStats;
use crate::store::PageStore;
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
/// it, before the ordered stitch. It must be a concatenation homomorphism
/// — `f(a ++ b) == f(a) ++ f(b)`, rows in input order (filters,
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

    /// The scan hot path: a two-phase late-materialization morsel scan.
    ///
    /// Each surviving row group is one morsel, and the task that owns it
    /// is the only one that asks for its pages: it loads and decodes the
    /// predicate inputs and evaluates the mask. A group whose mask comes
    /// up all-false is finished — its projection pages are never
    /// requested. Otherwise the projection pages are loaded and read, and
    /// only projected columns are filtered. Nothing is fetched ahead of
    /// the group being read, so the scan's I/O plan is a function of the
    /// survivor list: each page requested once, by the task that decodes
    /// it. Per-group result chunks are stitched back in group
    /// order, so the output is byte-identical to a `workers == 1` run —
    /// and to an eager (`late_mat: false`) run. A [`Stage`], if given,
    /// runs on every group's chunk just before that stitch.
    pub fn scan_with_options(
        &self,
        store: &dyn PageStore,
        projection: &[usize],
        pred: Option<&Expr>,
        meter: &WorkMeter,
        opts: ScanOptions,
        stage: Option<Stage<'_>>,
    ) -> IqResult<Chunk> {
        let workers = opts.workers;
        let stats = store.scan_stats();
        // Every exit of a group — and the scan without one — goes through
        // the stage, so arity and column types are always the stage's.
        let staged = |chunk: Chunk| match stage {
            Some(f) => f(chunk),
            None => Ok(chunk),
        };
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

        // Dictionary-domain filters: string columns used only under
        // equality/IN rewrite to u32-code comparisons and decode straight
        // to codes — no per-row `Arc<str>` materialization on the filter
        // path. Projected occurrences re-decode as strings from the saved
        // page image (no extra read) during assembly.
        let dict_cols: Vec<usize> = match pred {
            Some(p) if late => p.dict_eval_columns(&|c| {
                self.schema.columns[c].dtype == DataType::Str && self.dicts[c].is_some()
            }),
            _ => Vec::new(),
        };
        if !dict_cols.is_empty() {
            if let Some(s) = &stats {
                ScanStats::add(&s.dict_filter_columns, dict_cols.len() as u64);
            }
        }
        let eval_pred: Option<Cow<'_, Expr>> = pred.map(|p| {
            if dict_cols.is_empty() {
                Cow::Borrowed(p)
            } else {
                Cow::Owned(p.rewrite_for_dict(&dict_cols, &|c, lit| {
                    self.dicts[c].as_ref().and_then(|d| d.lookup(lit))
                }))
            }
        });

        // Predicate evaluation sees the phase-1 chunk indexed by original
        // column ids via a dense remap; each projected column knows which
        // phase supplies it. All loop-invariant.
        let mut remap = vec![usize::MAX; self.schema.len()];
        for (i, &c) in phase1.iter().enumerate() {
            remap[c] = i;
        }
        #[derive(PartialEq)]
        enum Src {
            /// Decoded in phase 1 at this position.
            Phase1(usize),
            /// Read in the code domain in phase 1: the selected rows'
            /// strings decode from those codes.
            Phase1Dict(usize),
            /// Demand-read in phase 2 at this position.
            Phase2(usize),
        }
        let sources: Vec<Src> = projection
            .iter()
            .map(|c| match phase1.binary_search(c) {
                Ok(p) if dict_cols.binary_search(c).is_ok() => Src::Phase1Dict(p),
                Ok(p) => Src::Phase1(p),
                Err(_) => Src::Phase2(
                    phase2
                        .binary_search(c)
                        .expect("projected column was scheduled"),
                ),
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
        let chunks = io.run_ordered(survivors.len(), |i| -> IqResult<Chunk> {
            let g = survivors[i];
            // The task that owns a group loads that group's pages, each
            // phase's just before it reads them: non-demand for every
            // group but the first, which is demand-read. Which task owns
            // a group never depends on timing, so neither does the
            // metered demand / prefetch split. Errors are ignored: a real
            // fault resurfaces at the demand read.
            let load = |cols: &[usize]| {
                if i > 0 && !cols.is_empty() {
                    let own: Vec<PageId> = cols.iter().map(|&c| self.page_id(g, c)).collect();
                    let _ = store.prefetch(self.id, &own);
                }
            };
            load(&phase1);

            // Phase 1: demand-read and decode the predicate inputs (all
            // needed columns when eager). A page must hold exactly the
            // rows its group's metadata says: the count stored in the
            // page is device bytes and is not trusted.
            let rows = self.groups[g].rows as usize;
            let mut cols1: Vec<Col> = Vec::with_capacity(phase1.len());
            for &c in &phase1 {
                let page = store.read_page(self.id, self.page_id(g, c), true)?;
                let col = if dict_cols.binary_search(&c).is_ok() {
                    Col::I64(decode_codes_as(&page.body, Some(rows), |code| code as i64)?)
                } else {
                    decode_rows(&page.body, self.dicts[c].as_ref(), Some(rows), None)?
                };
                meter.add(cost::SCAN * col.len() as u64);
                if let Some(s) = &stats {
                    ScanStats::add(
                        if pred_cols.binary_search(&c).is_ok() {
                            &s.predicate_pages_read
                        } else {
                            &s.projection_pages_read
                        },
                        1,
                    );
                }
                cols1.push(col);
            }
            let mut chunk1 = Chunk::new(cols1);
            meter.add(cost::FILTER * chunk1.len() as u64);
            let mask: Option<Mask> = match &eval_pred {
                Some(p) => Some(p.eval_mask(&chunk1, &remap)?),
                None => None,
            };

            if late {
                // The materialization decision: depends only on the
                // group's own mask — deterministic and worker-independent,
                // so the metered demand/prefetch split is identical at any
                // worker count.
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
                    return staged(no_rows());
                }
                if let Some(s) = &stats {
                    ScanStats::add(&s.groups_materialized, 1);
                }
                // Mask known and non-empty: this group's projection
                // pages are needed.
                load(&phase2);
            }

            // Phase 2: demand-read the projection-only columns, decoding
            // only the rows the mask selected (an unselected row's string
            // is never materialized).
            let mut cols2: Vec<Col> = Vec::with_capacity(phase2.len());
            for &c in &phase2 {
                let page = store.read_page(self.id, self.page_id(g, c), true)?;
                let dict = self.dicts[c].as_ref();
                cols2.push(decode_rows(&page.body, dict, Some(rows), mask.as_ref())?);
                meter.add(cost::SCAN * rows as u64);
                if let Some(s) = &stats {
                    ScanStats::add(&s.projection_pages_read, 1);
                }
            }

            // Assemble the projection. Filtering each projected column is
            // bitwise identical to filtering the whole chunk and
            // projecting, without touching predicate-only columns. An
            // unfiltered column moves out at its last use; only a
            // projection that names it again clones it.
            let out: Vec<Col> = sources
                .iter()
                .enumerate()
                .map(|(k, src)| -> IqResult<Col> {
                    let last_use = !sources[k + 1..].contains(src);
                    let owned = |col: &mut Col| {
                        if last_use {
                            std::mem::replace(col, Col::Bool(Vec::new()))
                        } else {
                            col.clone()
                        }
                    };
                    Ok(match (src, &mask) {
                        (Src::Phase2(p), _) => owned(&mut cols2[*p]),
                        (Src::Phase1(p), None) => owned(&mut chunk1.cols[*p]),
                        (Src::Phase1(p), Some(m)) => chunk1.col(*p).filter(m),
                        (Src::Phase1Dict(p), _) => {
                            let dict = self.dicts[phase1[*p]].as_ref();
                            let (Some(dict), Some(m)) = (dict, &mask) else {
                                unreachable!("a dictionary-domain column comes from a predicate")
                            };
                            let codes = chunk1.col(*p).i64s();
                            let strs = m.iter_set().map(|row| dict.decode(codes[row] as u32));
                            Col::Str(strs.collect::<IqResult<_>>()?)
                        }
                    })
                })
                .collect::<IqResult<_>>()?;
            trace::emit(EventKind::ScanMorsel {
                table: self.id.0 as u64,
                group: g as u64,
                rows: mask.as_ref().map_or(rows, Mask::count) as u64,
            });
            staged(Chunk::new(out))
        })?;

        if chunks.is_empty() {
            return staged(no_rows());
        }
        // The lanes hand their chunks over by value: stitch by moving.
        Chunk::concat(chunks)
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

    /// Encode `cols` as the pages of row group `group` and write them —
    /// new strings intern into the (append-only) dictionaries, so a
    /// rewritten group keeps the codes it had. Returns the group's
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
            let codes: Option<Vec<u32>> = match col {
                Col::Str(vals) => {
                    let dict = self.dicts[c]
                        .as_mut()
                        .expect("string column has a dictionary");
                    Some(vals.iter().map(|s| dict.encode(s)).collect())
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
    pending: Vec<Col>,
    meter: &'a WorkMeter,
}

impl<'a> TableWriter<'a> {
    /// Start loading into `meta` through `store` under `txn`.
    pub fn new(
        meta: &'a mut TableMeta,
        store: &'a dyn PageStore,
        txn: TxnId,
        meter: &'a WorkMeter,
    ) -> Self {
        let pending = meta.schema.empty_cols();
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
            w.pending = w.meta.read_group(store, meter, tail)?;
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
        for (col, v) in self.pending.iter_mut().zip(values) {
            col.push(v)?;
        }
        if self.pending[0].len() as u32 >= self.meta.row_group_size {
            self.flush_group()?;
        }
        Ok(())
    }

    fn flush_group(&mut self) -> IqResult<()> {
        if self.pending[0].is_empty() {
            return Ok(());
        }
        let cols = std::mem::replace(&mut self.pending, self.meta.schema.empty_cols());
        let group = self.meta.groups.len();
        let written = self
            .meta
            .write_group(self.store, self.txn, self.meter, group, &cols)?;
        self.meta.groups.push(written);
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
        assert_eq!(out.col(1).strs()[0].as_ref(), "EAST");
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
        let reads = store.demand_reads();
        let pred3 = Expr::lt(Expr::col(0), Expr::lit_i64(190));
        let out = meta.scan(&store, &[0], Some(&pred3), &meter).unwrap();
        let want: Vec<i64> = (0..64).chain(128..190).collect();
        assert_eq!(out.col(0).i64s(), want);
        assert_eq!(ScanStats::get(&stats.groups_considered) - considered, 3);
        assert_eq!(ScanStats::get(&stats.groups_zone_pruned) - pruned, 1);
        assert_eq!(store.demand_reads() - reads, 2);
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
            Col::Str(vec!["five".into(), "seventy".into(), "again".into()]),
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
    fn dict_domain_filter_matches_string_semantics() {
        let store = MemPageStore::with_scan_stats();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        load_rows(&mut meta, &store, 200);
        let stats = store.scan_stats().unwrap();
        let meter = WorkMeter::new();
        let pred = Expr::eq(Expr::col(2), Expr::lit_str("EAST"));
        let out = meta.scan(&store, &[0, 2], Some(&pred), &meter).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.col(1).strs().iter().all(|s| s.as_ref() == "EAST"));
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
        let reads = store.demand_reads();
        let mut w = TableWriter::reopen(&mut meta, &store, TxnId(2), &meter).unwrap();
        // Only the tail group's four pages came back.
        assert_eq!(store.demand_reads() - reads, 4);
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
        assert_eq!(out.col(1).strs()[199].as_ref(), "NORTH");
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
        let reads = store.demand_reads();
        let removed = meta
            .delete_keys(&store, TxnId(2), &meter, 0, &victims)
            .unwrap();
        assert_eq!(removed, 3);
        assert_eq!(store.demand_reads() - reads, 3 + 2 * 4);
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
        let reads = store.demand_reads();
        assert_eq!(meta.scan(&store, &[0], None, &meter).unwrap().len(), 189);
        assert_eq!(store.demand_reads() - reads, 3);
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
}
