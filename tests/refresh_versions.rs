//! The refresh functions as small updates of a versioned table: a
//! refresh reads and writes the pages of the row groups it changes, not
//! the table (by counting), and through the full stack a reader that
//! began before it keeps reading, value for value, the version it began
//! on.

use std::collections::BTreeMap;

use bytes::Bytes;
use cloudiq::common::{IqResult, PageId, TableId, TxnId};
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::{Chunk, MemPageStore, OpExec, PageStore, TableMeta, WorkMeter};
use cloudiq::storage::{Page, PageKind};
use cloudiq::tpch::queries::{run_query, Ctx};
use cloudiq::tpch::refresh::{rf1, rf2};
use cloudiq::tpch::TpchDb;
use parking_lot::Mutex;

/// A `MemPageStore` that remembers every page read and written.
#[derive(Default)]
struct CountingStore {
    pages: MemPageStore,
    reads: Mutex<Vec<(TableId, PageId)>>,
    writes: Mutex<Vec<(TableId, PageId)>>,
}

impl PageStore for CountingStore {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.reads.lock().push((table, page));
        self.pages.read_page(table, page, demand)
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        self.writes.lock().push((table, page));
        self.pages.write_page(table, page, kind, body, txn)
    }

    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()> {
        self.pages.prefetch(table, pages)
    }
}

/// Page accesses as `(group, column)` lists per table id.
type Cells = BTreeMap<u32, Vec<(usize, usize)>>;

impl CountingStore {
    /// Drain the log: `(reads, writes)`.
    fn take(&self, ncols: &BTreeMap<u32, usize>) -> (Cells, Cells) {
        let split = |log: &Mutex<Vec<(TableId, PageId)>>| {
            let mut by_table = Cells::new();
            for (table, page) in log.lock().drain(..) {
                let n = ncols[&table.0];
                let cell = (page.0 as usize / n, page.0 as usize % n);
                by_table.entry(table.0).or_default().push(cell);
            }
            by_table
        };
        (split(&self.reads), split(&self.writes))
    }
}

/// The groups a refresh changed: those whose row count moved, and new ones.
fn changed_groups(before: &TableMeta, after: &TableMeta) -> Vec<usize> {
    (0..after.groups.len())
        .filter(|&g| before.groups.get(g).map(|b| b.rows) != Some(after.groups[g].rows))
        .collect()
}

#[test]
fn a_refresh_touches_the_groups_it_changes_and_no_others() {
    let store = CountingStore::default();
    let meter = WorkMeter::new();
    let mut db = TpchDb::load(0.01, 3, &store, TxnId(1), &meter, 512).unwrap();
    let ncols: BTreeMap<u32, usize> = db
        .tables()
        .iter()
        .map(|t| (t.id.0, t.schema.len()))
        .collect();
    store.take(&ncols);
    assert!(db.lineitem.groups.len() > 100 && db.orders.groups.len() > 25);

    for round in 0..2u64 {
        for step in ["rf1", "rf2"] {
            let (orders, lineitem) = if step == "rf1" {
                let (o, l, _) = rf1(&db, &store, TxnId(2), &meter, round).unwrap();
                (o, l)
            } else {
                let (o, l, _) = rf2(&db, &store, TxnId(3), &meter).unwrap();
                (o, l)
            };
            let (reads, writes) = store.take(&ncols);
            for (before, after) in [(&db.orders, &orders), (&db.lineitem, &lineitem)] {
                let id = after.id.0;
                let changed = changed_groups(before, after);
                // 15 orders and their lines: the tail group (and its
                // overflow) for RF1, the front group for RF2.
                assert!(
                    (1..=2).contains(&changed.len()),
                    "{step}: groups {changed:?}"
                );
                // Every changed group is written once, column by column,
                // and nothing else is.
                let mut written = writes.get(&id).cloned().unwrap_or_default();
                written.sort_unstable();
                let want: Vec<(usize, usize)> = changed
                    .iter()
                    .flat_map(|&g| (0..ncols[&id]).map(move |c| (g, c)))
                    .collect();
                assert_eq!(written, want, "{step} writes of {}", after.name);
                // Of a group left as it was, at most the key page is read
                // (RF2 looks for its victims there).
                for &(g, c) in reads.get(&id).into_iter().flatten() {
                    assert!(
                        c == 0 || changed.contains(&g),
                        "{step} read column {c} of untouched group {g} of {}",
                        after.name
                    );
                }
                if step == "rf1" {
                    let read = reads.get(&id).map_or(0, Vec::len);
                    assert_eq!(read, ncols[&id], "RF1 reads the tail group only");
                }
            }
            // RF2 reaches into `lineitem` through the key zones: only the
            // groups that could hold a victim give up even their key page.
            if step == "rf2" {
                let lineitem_reads = &reads[&lineitem.id.0];
                assert!(lineitem_reads.len() <= 2 * (ncols[&lineitem.id.0] + 1));
            }
            // No other table is touched at all.
            for id in ncols.keys() {
                if *id != orders.id.0 && *id != lineitem.id.0 {
                    assert!(!reads.contains_key(id) && !writes.contains_key(id));
                }
            }
            (db.orders, db.lineitem) = (orders, lineitem);
        }
    }
}

fn full_scan(meta: &TableMeta, store: &dyn PageStore, meter: &WorkMeter) -> Chunk {
    let every_column: Vec<usize> = (0..meta.schema.len()).collect();
    meta.scan(store, &every_column, None, meter).unwrap()
}

fn q1_q6(db: &TpchDb, store: &dyn PageStore, meter: &WorkMeter) -> [Chunk; 2] {
    let ctx = Ctx {
        db,
        store,
        meter,
        exec: OpExec::for_store(store),
        late_mat: true,
    };
    [1, 6].map(|n| run_query(n, &ctx).unwrap())
}

/// RF1 and RF2 commit new versions of `orders` and `lineitem` that share
/// all but a few pages with the one a reader began on; the reader scans
/// its version unchanged across both commits and a GC drain, and what
/// was committed survives a restart.
#[test]
fn a_reader_keeps_its_version_across_refresh_commits_and_gc() {
    const ROW_GROUP: u32 = 256;
    let (sf, seed) = (0.004, 17);
    let config = DatabaseConfig::test_small();
    let db = Database::create(config.clone()).unwrap();
    let space = db.create_cloud_dbspace("tpch").unwrap();
    for t in 1..=8u32 {
        db.create_table(TableId(t), space).unwrap();
    }
    let meter = db.meter().clone();
    let load = db.begin();
    let mut tpch =
        TpchDb::load(sf, seed, &db.pager(load).unwrap(), load, &meter, ROW_GROUP).unwrap();
    db.commit(load).unwrap();
    db.gc_drain().unwrap();

    // The same steps over a store with no versions at all.
    let ref_store = MemPageStore::new();
    let mut reference = TpchDb::load(sf, seed, &ref_store, TxnId(1), &meter, ROW_GROUP).unwrap();

    let reader = db.begin();
    let rpager = db.pager(reader).unwrap();
    let began_on = (tpch.orders.clone(), tpch.lineitem.clone());
    let scan_both = || [&began_on.0, &began_on.1].map(|t| full_scan(t, &rpager, &meter));
    let before = scan_both();
    assert!(
        before
            == [&reference.orders, &reference.lineitem].map(|t| full_scan(t, &ref_store, &meter))
    );

    for step in ["rf1", "rf2"] {
        let txn = db.begin();
        let pager = db.pager(txn).unwrap();
        let (orders, lineitem) = if step == "rf1" {
            let (o, l, _) = rf1(&tpch, &pager, txn, &meter, 0).unwrap();
            let (ro, rl, _) = rf1(&reference, &ref_store, TxnId(2), &meter, 0).unwrap();
            (reference.orders, reference.lineitem) = (ro, rl);
            (o, l)
        } else {
            let (o, l, _) = rf2(&tpch, &pager, txn, &meter).unwrap();
            let (ro, rl, _) = rf2(&reference, &ref_store, TxnId(3), &meter).unwrap();
            (reference.orders, reference.lineitem) = (ro, rl);
            (o, l)
        };
        db.commit(txn).unwrap();
        (tpch.orders, tpch.lineitem) = (orders, lineitem);
        // Through its own metadata the reader sees its own pages: the
        // refreshed groups hold other row counts, so the new version's
        // pages under the old metadata would not even decode.
        assert!(scan_both() == before, "reader moved after {step}");
    }
    // The superseded pages are on the committed chain behind the reader:
    // a drain may not take them.
    db.gc_drain().unwrap();
    db.shared().buffer.clear();
    assert!(scan_both() == before, "reader lost its pages to GC");
    // A transaction that begins now reads the refreshed tables.
    let fresh = db.begin();
    let fresh_pager = db.pager(fresh).unwrap();
    assert!(
        full_scan(&tpch.orders, &fresh_pager, &meter)
            == full_scan(&reference.orders, &ref_store, &meter)
    );
    db.rollback(fresh).unwrap();

    // The reader ends: its versions' pages go, the trees kept for it too.
    db.rollback(reader).unwrap();
    assert!(db.gc_drain().unwrap() > 0);

    let db = Database::reopen(db.into_durable(), config).unwrap();
    let txn = db.begin();
    let pager = db.pager(txn).unwrap();
    assert!(q1_q6(&tpch, &pager, &meter) == q1_q6(&reference, &ref_store, &meter));
    assert!(
        full_scan(&tpch.lineitem, &pager, &meter)
            == full_scan(&reference.lineitem, &ref_store, &meter)
    );
    db.rollback(txn).unwrap();
}
