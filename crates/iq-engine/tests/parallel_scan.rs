//! Property tests for the morsel-parallel scan: whatever the worker
//! count, `Table::scan` must return exactly the chunks a serial scan
//! returns — same rows, same order, same arity — and must ask the store
//! for exactly the pages it reads: nothing ahead of the group being read,
//! nothing twice, and nothing that depends on a `prefetch` succeeding.

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use iq_common::{IqError, IqResult, PageId, TableId, TxnId};
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

/// One call a scan made on its store.
#[derive(Debug)]
enum Call {
    Prefetch(Vec<PageId>),
    Read(PageId),
}

/// A `PageStore` that logs every `prefetch` and `read_page` in arrival
/// order and, if `throttled`, fails every `prefetch` the way a store
/// answering SlowDown does.
struct Recording<'a> {
    inner: &'a MemPageStore,
    throttled: bool,
    calls: Mutex<Vec<Call>>,
}

impl<'a> Recording<'a> {
    fn new(inner: &'a MemPageStore, throttled: bool) -> Self {
        Self {
            inner,
            throttled,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Every page `read_page` was asked for, sorted: the multiset.
    fn reads(&self) -> Vec<PageId> {
        let mut reads: Vec<PageId> = self
            .calls
            .lock()
            .iter()
            .filter_map(|c| match c {
                Call::Read(p) => Some(*p),
                Call::Prefetch(_) => None,
            })
            .collect();
        reads.sort_unstable();
        reads
    }
}

impl PageStore for Recording<'_> {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.calls.lock().push(Call::Read(page));
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

    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()> {
        self.calls.lock().push(Call::Prefetch(pages.to_vec()));
        if self.throttled {
            return Err(IqError::Throttled("SlowDown".into()));
        }
        self.inner.prefetch(table, pages)
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
    fn a_scan_hands_prefetch_only_the_pages_it_is_about_to_read(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..5,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        let ncols = meta.schema.len() as u64;
        for proj in [vec![0usize, 1, 2], vec![1], vec![2, 0]] {
            for workers in [1usize, 2, 8] {
                let rec = Recording::new(&store, false);
                meta.scan_with_options(&rec, &proj, pred.as_ref(), &meter, at(workers), None)
                    .unwrap();
                let calls = rec.calls.into_inner();
                // Where each page was first read. Every surviving group
                // reads its predicate pages, so the smallest page read
                // belongs to the first surviving group.
                let mut read_at: HashMap<PageId, usize> = HashMap::new();
                for (at, call) in calls.iter().enumerate() {
                    if let Call::Read(p) = call {
                        read_at.entry(*p).or_insert(at);
                    }
                }
                let first_group = read_at.keys().map(|p| p.0 / ncols).min();
                let mut prefetched: HashSet<PageId> = HashSet::new();
                for (at, call) in calls.iter().enumerate() {
                    let Call::Prefetch(pages) = call else { continue };
                    for p in pages {
                        prop_assert!(
                            prefetched.insert(*p),
                            "{:?} handed to prefetch twice", p
                        );
                        prop_assert!(
                            Some(p.0 / ncols) != first_group,
                            "{:?} is in the first group, which is demand-read", p
                        );
                        prop_assert!(
                            read_at.get(p).is_some_and(|&read| at < read),
                            "{:?} prefetched but not then read", p
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn failing_prefetch_never_fails_or_changes_a_scan(
        seeds in proptest::collection::vec(0i64..1000, 0..300),
        group_size in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        pred_kind in 0u8..5,
    ) {
        let meter = WorkMeter::new();
        let store = MemPageStore::new();
        let meta = build_table(&seeds, group_size, &store, &meter);
        let pred = predicate(pred_kind);
        for late_mat in [true, false] {
            let clean = Recording::new(&store, false);
            let opts = ScanOptions { workers: 1, late_mat };
            let expected = meta
                .scan_with_options(&clean, &[2, 0], pred.as_ref(), &meter, opts, None)
                .unwrap();
            for workers in [1usize, 2, 8] {
                let slow = Recording::new(&store, true);
                let opts = ScanOptions { workers, late_mat };
                let got = meta
                    .scan_with_options(&slow, &[2, 0], pred.as_ref(), &meter, opts, None)
                    .unwrap();
                prop_assert_eq!(&got, &expected);
                prop_assert_eq!(slow.reads(), clean.reads());
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
