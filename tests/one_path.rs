//! Pins for the one-path-per-job collapse: an instance is wired the same
//! way whether it was created or reopened, and a page reads back the same
//! through the live pager and through a snapshot view, whatever kind of
//! locator it sits behind.

use bytes::Bytes;
use cloudiq::common::{DbSpaceId, ObjectKey, PageId, PhysicalLocator, TableId};
use cloudiq::core::tablestore::LATEST;
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::PageStore;
use cloudiq::objectstore::FaultPlan;
use cloudiq::storage::{CountingKeySource, PageIo, PageKind};

/// A dbspace write and an OCM miss on `db` must both tick the fault
/// injector wrapping `space`'s store.
fn assert_routed_through_injector(db: &Database, space: DbSpaceId, key: ObjectKey) {
    let injector = db.fault_injector(space).expect("fault plan configured");
    let ocm = db.ocm().expect("ocm bound");

    let before = injector.op_clock();
    db.dbspace(space)
        .unwrap()
        .put_raw(key, Bytes::from_static(b"probe"))
        .unwrap();
    let after_put = injector.op_clock();
    assert!(after_put > before, "dbspace traffic bypassed the injector");

    let misses = ocm.stats_snapshot().misses;
    assert_eq!(&ocm.read(key).unwrap()[..], b"probe");
    assert_eq!(ocm.stats_snapshot().misses, misses + 1);
    assert!(
        injector.op_clock() > after_put,
        "OCM read-through bypassed the injector"
    );
}

#[test]
fn created_and_reopened_instances_are_wired_alike() {
    let cfg = DatabaseConfig {
        fault: Some(FaultPlan::none()),
        ..DatabaseConfig::test_small()
    };
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_conventional_dbspace("main", 1 << 20).unwrap();
    db.create_table(TableId(1), space).unwrap();
    assert_routed_through_injector(&db, space, ObjectKey::from_offset(1 << 30));
    let created_keys: Vec<String> = db.metrics().into_keys().collect();

    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    assert_routed_through_injector(&db, space, ObjectKey::from_offset((1 << 30) + 1));
    let reopened_keys: Vec<String> = db.metrics().into_keys().collect();
    assert_eq!(created_keys, reopened_keys);
    assert!(created_keys.iter().any(|k| k == "ocm_ssd.total_requests"));
    assert!(created_keys.iter().any(|k| k == "dbspace.2.total_requests"));
}

#[test]
fn pager_and_snapshot_view_read_identical_pages_behind_every_locator_kind() {
    let cfg = DatabaseConfig {
        encryption_key: Some(0x5eed_cafe),
        pack_pages: 4,
        ..DatabaseConfig::test_small()
    };
    let db = Database::create(cfg).unwrap();
    let cloud = db.create_cloud_dbspace("clouddata").unwrap();
    let conv = db.create_conventional_dbspace("main", 1 << 20).unwrap();
    let (single, packed, blocks) = (TableId(1), TableId(2), TableId(3));
    db.create_table(single, cloud).unwrap();
    db.create_table(packed, cloud).unwrap();
    db.create_table(blocks, conv).unwrap();

    // One transaction per table: a lone cloud page flushes as a whole
    // object, three cloud pages pack into one composite, and the
    // conventional dbspace hands out block runs.
    type Kind = fn(&PhysicalLocator) -> bool;
    let cases: [(TableId, u64, Kind); 3] = [
        (single, 1, |l| matches!(l, PhysicalLocator::Object(_))),
        (packed, 3, |l| {
            matches!(l, PhysicalLocator::ObjectRange { .. })
        }),
        (blocks, 2, |l| matches!(l, PhysicalLocator::Blocks { .. })),
    ];
    let body = |t: TableId, p: u64| Bytes::from(vec![(t.0 as u8) << 4 | p as u8; 200]);
    for (table, pages, _) in cases {
        let txn = db.begin();
        let pager = db.pager(txn).unwrap();
        for p in 0..pages {
            pager
                .write_page(table, PageId(p), PageKind::Data, body(table, p), txn)
                .unwrap();
        }
        db.commit(txn).unwrap();
    }
    let snap = db.take_snapshot().unwrap();
    // Both readers must go to storage, not to a cached decoded frame.
    db.shared().buffer.clear();

    let view = db.snapshot_view(snap).unwrap();
    let txn = db.begin();
    let pager = db.pager(txn).unwrap();
    for (table, pages, is_expected_kind) in cases {
        let ts = db.shared().table_store(table).unwrap();
        let space = db.dbspace(ts.space).unwrap();
        let keys = CountingKeySource::default();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        for p in 0..pages {
            let loc = ts.resolve(txn, LATEST, PageId(p), &io).unwrap().unwrap();
            assert!(
                is_expected_kind(&loc),
                "{table} page {p} sits behind {loc:?}"
            );
            let live = pager.read_page(table, PageId(p), true).unwrap();
            let viewed = view.read_page(table, PageId(p), true).unwrap();
            assert_eq!(live, viewed, "{table} page {p} behind {loc:?}");
            assert_eq!(live.body, body(table, p));
        }
    }
    db.rollback(txn).unwrap();
}

/// `take_snapshot` persists the retention FIFO as a raw blob, so it must
/// succeed with more retained keys than fit one page.
#[test]
fn take_snapshot_with_a_fifo_larger_than_one_page() {
    let db = Database::create(DatabaseConfig::test_small()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    // Rewrite a handful of pages until the superseded versions retained
    // for snapshots outnumber what a 4 KiB page of FIFO records holds.
    let mut round = 0u8;
    while db.snapshot_manager().unwrap().retained_count() < 300 {
        let txn = db.begin();
        let pager = db.pager(txn).unwrap();
        for p in 0..16 {
            let body = Bytes::from(vec![round; 64]);
            pager
                .write_page(table, PageId(p), PageKind::Data, body, txn)
                .unwrap();
        }
        db.commit(txn).unwrap();
        db.gc_drain().unwrap();
        round += 1;
    }
    db.take_snapshot().unwrap();
}
