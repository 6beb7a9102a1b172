//! Full instance-restart recovery: the database powers off (losing RAM,
//! the ephemeral SSD, key caches and in-flight transactions) and reopens
//! from the system dbspace + transaction log + storage backends alone.

use cloudiq::common::{NodeId, TableId};
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::objectstore::IoOp;
use cloudiq::storage::StorageConfig;

fn schema() -> Schema {
    Schema::new(&[("k", DataType::I64), ("v", DataType::Str)])
}

fn load(db: &Database, meta: &mut TableMeta, txn: cloudiq::common::TxnId, n: i64) {
    let pager = db.pager(txn).unwrap();
    let meter = db.meter().clone();
    let mut w = TableWriter::new(meta, &pager, txn, &meter);
    for i in 0..n {
        w.append_row(&[Value::I64(i), Value::Str(format!("r{i}").into())])
            .unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn reopen_recovers_committed_state_and_reclaims_inflight_garbage() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.buffer_bytes = 8 * 1024; // force flushes during the doomed txn
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let t1 = TableId(1);
    let t2 = TableId(2);
    db.create_table(t1, space).unwrap();
    db.create_table(t2, space).unwrap();

    // Committed work.
    let mut meta1 = TableMeta::new(t1, "t1", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta1, txn, 400);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta1).unwrap();
    db.checkpoint().unwrap();
    let max_key_before = db.shared().mx.coordinator.keygen().unwrap().max_allocated();

    // An in-flight transaction that will never commit: its evicted pages
    // are garbage after the power-off.
    let mut meta2 = TableMeta::new(t2, "t2", schema(), 32);
    let doomed = db.begin();
    load(&db, &mut meta2, doomed, 1_500);
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
    let store = db.cloud_store(space).unwrap();
    let objects_with_garbage = store.object_count();

    // The first life of the instance runs in stats epoch 0 and has
    // generated backend traffic.
    let pre_crash_requests = store.stats.snapshot().total_requests;
    assert!(pre_crash_requests > 0);
    assert_eq!(store.stats.epoch(), 0);

    // Power off and reopen.
    let durable = db.into_durable();
    let db = Database::reopen(durable, cfg).unwrap();

    // The committed table is fully readable through recovered identities.
    let meta1 = db.load_table_meta(t1).unwrap().expect("persisted meta");
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta1.scan(&pager, &[0, 1], None, db.meter()).unwrap();
    assert_eq!(out.len(), 400);
    assert_eq!(out.col(1).strs()[399].as_ref(), "r399");
    db.rollback(rtxn).unwrap();

    // The doomed transaction's objects were reclaimed by active-set
    // polling; the store holds exactly the committed version.
    let store = db.cloud_store(space).unwrap();
    assert!(
        store.object_count() < objects_with_garbage,
        "in-flight garbage must be reclaimed ({objects_with_garbage} before)"
    );
    assert_eq!(store.max_write_count(), 1);

    // Reopen started a fresh stats epoch on the surviving backend: the
    // current snapshot holds only post-restart traffic (recovery polling
    // and the verification scan), while the merged lifetime view still
    // accounts for the first life.
    assert!(store.stats.epoch() >= 1);
    let current = store.stats.snapshot();
    assert!(current.total_requests > 0);
    assert_eq!(
        store.stats.lifetime_snapshot().total_requests,
        pre_crash_requests + current.total_requests,
        "lifetime view must merge pre-crash and post-restart epochs"
    );

    // Key monotonicity survived the restart.
    let max_key_after = db.shared().mx.coordinator.keygen().unwrap().max_allocated();
    assert!(max_key_after >= max_key_before);

    // And the database is fully usable: new work commits.
    let mut meta2 = TableMeta::new(t2, "t2", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta2, txn, 50);
    db.commit(txn).unwrap();
}

#[test]
fn reopen_preserves_custom_page_sizes_and_conventional_spaces() {
    let cfg = DatabaseConfig::test_small();
    let db = Database::create(cfg.clone()).unwrap();
    let big = db
        .create_cloud_dbspace_with(
            "bigpages",
            StorageConfig {
                page_size: 16 * 1024,
            },
        )
        .unwrap();
    let conv = db.create_conventional_dbspace("mainlike", 1 << 20).unwrap();
    db.create_table(TableId(1), big).unwrap();
    db.create_table(TableId(2), conv).unwrap();

    let mut m1 = TableMeta::new(TableId(1), "a", schema(), 512);
    let mut m2 = TableMeta::new(TableId(2), "b", schema(), 64);
    let txn = db.begin();
    load(&db, &mut m1, txn, 2_000);
    load(&db, &mut m2, txn, 200);
    db.commit(txn).unwrap();
    db.save_table_meta(&m1).unwrap();
    db.save_table_meta(&m2).unwrap();
    db.checkpoint().unwrap();

    let durable = db.into_durable();
    let db = Database::reopen(durable, cfg).unwrap();

    // Page geometry recovered per dbspace.
    assert_eq!(db.dbspace(big).unwrap().config.page_size, 16 * 1024);
    assert_eq!(db.dbspace(conv).unwrap().config.page_size, 4096);
    assert!(!db.dbspace(conv).unwrap().is_cloud());

    // Both tables read back, including the one on the conventional
    // dbspace (freelist recovered from checkpoint + commit bitmaps).
    let m1 = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let m2 = db.load_table_meta(TableId(2)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        m1.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        2_000
    );
    assert_eq!(m2.scan(&pager, &[0], None, db.meter()).unwrap().len(), 200);
    db.rollback(rtxn).unwrap();

    // The recovered freelist does not double-allocate: a new commit on
    // the conventional dbspace must not corrupt the old table.
    let mut m3 = TableMeta::new(TableId(2), "b", schema(), 64);
    let txn = db.begin();
    load(&db, &mut m3, txn, 300);
    db.commit(txn).unwrap();
    db.gc_drain().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(m3.scan(&pager, &[0], None, db.meter()).unwrap().len(), 300);
    assert_eq!(
        m1.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        2_000
    );
    db.rollback(rtxn).unwrap();
}

#[test]
fn reopen_twice_is_stable() {
    let cfg = DatabaseConfig::test_small();
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 100);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta).unwrap();

    let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let meta = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        100
    );
    db.rollback(rtxn).unwrap();

    // Reader-node discipline also survives: node 1 is a writer, readers
    // cannot allocate keys.
    assert!(db.begin_on(NodeId(1)).is_ok());
}

/// A packed commit's blockmap nodes are members of its composite, so a
/// reopened instance loads the tree — like the pages under it — with
/// ranged GETs of exactly each member's bytes.
#[test]
fn reopen_loads_member_nodes_by_ranged_get() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 16;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 600);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta).unwrap();

    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        600
    );
    db.rollback(rtxn).unwrap();
    // 20 pages under a root and two leaves: 23 members, each one GET.
    let gets = db
        .cloud_store(space)
        .unwrap()
        .stats
        .snapshot()
        .op(IoOp::Get);
    assert_eq!(gets.count, 23);
    assert_eq!(db.shared().member_reads(), (23, 0));
}
