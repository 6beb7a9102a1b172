//! Property tests for the morsel-parallel scan: whatever the worker
//! count, `Table::scan` must return exactly the chunks a serial scan
//! returns — same rows, same order, same arity — and must ask the store
//! for exactly the pages it reads: each once, nothing ahead of the group
//! being read, and as demand reads only the first surviving group's.

use std::collections::{HashMap, HashSet};
use std::thread::ThreadId;

use bytes::Bytes;
use iq_common::{IqResult, PageId, TableId, TxnId};
use iq_engine::expr::Expr;
use iq_engine::table::{ScanOptions, Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{MemPageStore, PageStore, WorkMeter};
use iq_storage::{Page, PageKind};
use parking_lot::Mutex;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&[
        ("k", DataType::I64),
        ("v", DataType::F64),
        ("s", DataType::Str),
    ])
}

/// Build a table from integer seeds; the other columns derive from `k` so
/// result rows are fully determined by the seed vector.
fn build_table(
    seeds: &[i64],
    group_size: u32,
    store: &MemPageStore,
    meter: &WorkMeter,
) -> TableMeta {
    let mut meta = TableMeta::new(TableId(1), "t", schema(), group_size);
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), meter);
    for &k in seeds {
        w.append_row(&[
            Value::I64(k),
            Value::F64(k as f64 * 0.5 - 100.0),
            Value::Str(format!("cat-{}", k.rem_euclid(7)).into()),
        ])
        .unwrap();
    }
    w.finish().unwrap();
    meta
}

/// Late-materializing scan at an explicit morsel-parallelism degree.
fn at(workers: usize) -> ScanOptions {
    ScanOptions {
        workers,
        late_mat: true,
    }
}

/// One page read a scan made: the page, its demand flag, and the lane
/// (thread) that read it.
#[derive(Debug)]
struct Read {
    page: PageId,
    demand: bool,
    lane: ThreadId,
}

/// A `PageStore` that logs every `read_page` in arrival order.
struct Recording<'a> {
    inner: &'a MemPageStore,
    reads: Mutex<Vec<Read>>,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a MemPageStore) -> Self {
        Self {
            inner,
            reads: Mutex::new(Vec::new()),
        }
    }
}

impl PageStore for Recording<'_> {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.reads.lock().push(Read {
            page,
            demand,
            lane: std::thread::current().id(),
        });
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
        self.inner.write_page(table, page, kind, body, txn)
    }
}

fn predicate(kind: u8) -> Option<Expr> {
    match kind % 5 {
        0 => None,
        1 => Some(Expr::lt(Expr::col(0), Expr::lit_i64(500))),
        2 => Some(Expr::eq(Expr::col(2), Expr::lit_str("cat-2"))),
        3 => Some(Expr::and(
            Expr::ge(Expr::col(0), Expr::lit_i64(100)),
            Expr::gt(Expr::col(1), Expr::lit_f64(0.0)),
        )),
        // Impossible predicate: exercises the empty-result arity path.
        _ => Some(Expr::lt(Expr::col(0), Expr::lit_i64(i64::MIN + 1))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn scan_is_identical_across_worker_counts(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..5,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        for proj in [vec![0usize, 1, 2], vec![1], vec![2, 0]] {
            let serial = meta
                .scan_with_options(&store, &proj, pred.as_ref(), &meter, at(1), None)
                .unwrap();
            prop_assert_eq!(serial.cols.len(), proj.len());
            for workers in [2usize, 8] {
                let parallel = meta
                    .scan_with_options(&store, &proj, pred.as_ref(), &meter, at(workers), None)
                    .unwrap();
                prop_assert_eq!(&parallel, &serial);
            }
        }
    }

    #[test]
    fn a_scan_reads_each_page_once_and_demand_reads_only_its_first_group(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..5,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        let pred_cols = pred.as_ref().map(Expr::columns).unwrap_or_default();
        let ncols = meta.schema.len() as u64;
        let group = |p: PageId| p.0 / ncols;
        // A late-materializing scan reads a group's projection-only
        // columns after its predicate inputs.
        let projection_only =
            |p: PageId| !pred_cols.is_empty() && !pred_cols.contains(&((p.0 % ncols) as usize));
        for proj in [vec![0usize, 1, 2], vec![1], vec![2, 0]] {
            for workers in [1usize, 2, 8] {
                let rec = Recording::new(&store);
                meta.scan_with_options(&rec, &proj, pred.as_ref(), &meter, at(workers), None)
                    .unwrap();
                let reads = rec.reads.into_inner();
                let mut seen: HashSet<PageId> = HashSet::new();
                for r in &reads {
                    prop_assert!(seen.insert(r.page), "{:?} read twice", r.page);
                }
                // Every surviving group reads its predicate pages, so the
                // smallest group read is the first surviving one.
                let first_group = reads.iter().map(|r| group(r.page)).min();
                for r in &reads {
                    prop_assert_eq!(
                        r.demand,
                        Some(group(r.page)) == first_group,
                        "{:?}: only the first surviving group is demand-read", r.page
                    );
                }
                // Nothing is read ahead of its group: one lane reads all of
                // a group's pages, its predicate inputs first, and a lane
                // never returns to a group once it has read a later one.
                let mut lane_of: HashMap<u64, ThreadId> = HashMap::new();
                let mut lane_at: HashMap<ThreadId, (u64, bool)> = HashMap::new();
                for r in &reads {
                    let at = (group(r.page), projection_only(r.page));
                    prop_assert_eq!(*lane_of.entry(at.0).or_insert(r.lane), r.lane);
                    if let Some(&prev) = lane_at.get(&r.lane) {
                        prop_assert!(prev <= at, "{:?} read after {:?}", r.page, prev);
                    }
                    lane_at.insert(r.lane, at);
                }
            }
        }
    }

    #[test]
    fn default_scan_uses_store_parallelism_and_agrees(
        seeds in proptest::collection::vec(0i64..200, 0..150),
    ) {
        // MemPageStore reports a parallelism of 1; the public `scan`
        // entry point must agree with an explicit 8-worker scan.
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, 16, &store, &meter);
        let pred = predicate(1);
        let a = meta.scan(&store, &[0, 2], pred.as_ref(), &meter).unwrap();
        let b = meta
            .scan_with_options(&store, &[0, 2], pred.as_ref(), &meter, at(8), None)
            .unwrap();
        prop_assert_eq!(a, b);
    }
}
