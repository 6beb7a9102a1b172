//! End-to-end integration: the full stack from the query engine down to
//! the simulated object store, exercising the paper's §3 write discipline.

use bytes::Bytes;
use cloudiq::common::trace::MetricValue;
use cloudiq::common::{IqError, NodeId, TableId};
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::engine::Expr;

fn small_db() -> Database {
    let mut cfg = DatabaseConfig::test_small();
    // A deliberately tiny buffer so loads spill (churn-phase evictions).
    cfg.buffer_bytes = 8 * 1024;
    Database::create(cfg).unwrap()
}

fn simple_schema() -> Schema {
    Schema::new(&[("k", DataType::I64), ("v", DataType::Str)])
}

fn load_table(db: &Database, meta: &mut TableMeta, txn: cloudiq::common::TxnId, n: i64) {
    let pager = db.pager(txn).unwrap();
    let meter = db.meter().clone();
    let mut w = TableWriter::new(meta, &pager, txn, &meter);
    for i in 0..n {
        w.append_row(&[Value::I64(i), Value::Str(format!("row-{i}").into())])
            .unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn write_commit_read_through_full_stack() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);

    let txn = db.begin();
    load_table(&db, &mut meta, txn, 500);
    db.commit(txn).unwrap();

    // Query through a fresh transaction.
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta
        .scan(
            &pager,
            &[0, 1],
            Some(&Expr::lt(Expr::col(0), Expr::lit_i64(5))),
            db.meter(),
        )
        .unwrap();
    assert_eq!(out.len(), 5);
    assert_eq!(out.col(1).strs()[3].as_ref(), "row-3");
    db.rollback(rtxn).unwrap();

    // Never-write-twice held across every page the load produced.
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1);
    assert!(store.object_count() > 0);
}

#[test]
fn data_survives_ram_loss_via_identity_objects() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 300);
    db.commit(txn).unwrap();

    // Drop all RAM state: buffer cache and cached blockmap trees.
    db.buffer_stats(); // touch
    db.shared().buffer.clear();
    {
        let t = table;
        db.shared().table_store(t).unwrap().invalidate_cache();
    }

    // Everything reloads from identity object → blockmap → object store.
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta.scan(&pager, &[0], None, db.meter()).unwrap();
    assert_eq!(out.len(), 300);
}

#[test]
fn rollback_deletes_flushed_pages_immediately() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 32);

    let txn = db.begin();
    // Load enough to force evictions (flushes) before commit: the tiny
    // test buffer holds only a few frames.
    load_table(&db, &mut meta, txn, 2_000);
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
    let store = db.cloud_store(space).unwrap();
    let flushed_before = store.object_count();
    assert!(flushed_before > 0, "load must have spilled through the OCM");

    db.rollback(txn).unwrap();
    // All of the transaction's objects are gone (RB bitmap deletion, §3.3).
    assert_eq!(store.object_count(), 0);
}

#[test]
fn table_level_versioning_isolates_readers() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let t1 = db.begin();
    load_table(&db, &mut meta, t1, 100);
    db.commit(t1).unwrap();

    // A reader opens before the writer changes anything.
    let reader = db.begin();
    let reader_pager = db.pager(reader).unwrap();
    // Writer rewrites rows under a new version (fresh TableMeta, same
    // table id — simulating a full table rewrite).
    let mut meta2 = TableMeta::new(table, "t", simple_schema(), 64);
    let writer = db.begin();
    load_table(&db, &mut meta2, writer, 50);
    // Before the writer commits, the reader still resolves the committed
    // version's pages.
    let out = meta.scan(&reader_pager, &[0], None, db.meter()).unwrap();
    assert_eq!(out.len(), 100);
    db.commit(writer).unwrap();
    db.rollback(reader).unwrap();
    // After commit + GC the new version is what resolves.
    db.gc_drain().unwrap();
    db.shared().buffer.clear();
    let r2 = db.begin();
    let pager2 = db.pager(r2).unwrap();
    let out = meta2.scan(&pager2, &[0], None, db.meter()).unwrap();
    assert_eq!(out.len(), 50);
}

#[test]
fn ocm_caches_and_serves_reads() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 400);
    db.commit(txn).unwrap();
    let ocm = db.ocm().expect("test config enables the OCM");
    ocm.quiesce();

    // Clear RAM so reads go to the OCM tier.
    db.shared().buffer.clear();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    meta.scan(&pager, &[0], None, db.meter()).unwrap();
    let snap = ocm.stats_snapshot();
    assert!(snap.hits > 0, "OCM should serve cache hits: {snap:?}");
}

#[test]
fn writer_crash_restart_reclaims_outstanding_keys() {
    // The Table 1 walkthrough at Database level.
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let node = NodeId(1); // writer secondary

    let mut meta = TableMeta::new(table, "t", simple_schema(), 32);
    let txn = db.begin_on(node).unwrap();
    {
        let pager = db.pager(txn).unwrap();
        let meter = db.meter().clone();
        let mut w = TableWriter::new(&mut meta, &pager, txn, &meter);
        for i in 0..1_000i64 {
            w.append_row(&[Value::I64(i), Value::Str("x".into())])
                .unwrap();
        }
        w.finish().unwrap();
        if let Some(ocm) = db.ocm() {
            ocm.quiesce();
        }
    }
    let store = db.cloud_store(space).unwrap();
    assert!(store.object_count() > 0, "uncommitted pages were flushed");
    assert!(!db.active_set(node).unwrap().is_empty());

    // Crash before commit: the transaction can never commit.
    let aborted = db.crash_writer(node).unwrap();
    assert_eq!(aborted, vec![txn]);
    assert!(db.begin_on(node).is_err());

    // Restart: coordinator polls the node's entire active set.
    let (polled, deleted) = db.restart_writer(node, space).unwrap();
    assert!(deleted > 0);
    assert!(polled >= deleted);
    assert_eq!(store.object_count(), 0, "all orphaned objects reclaimed");
    assert!(db.active_set(node).unwrap().is_empty());
    // The node is usable again.
    let t2 = db.begin_on(node).unwrap();
    db.rollback(t2).unwrap();
}

#[test]
fn coordinator_crash_recovery_preserves_key_monotonicity() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    let mut meta = TableMeta::new(TableId(1), "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 200);
    db.commit(txn).unwrap();
    let max_before = db.shared().mx.coordinator.keygen().unwrap().max_allocated();

    db.crash_coordinator();
    assert!(matches!(
        db.shared().mx.coordinator.keygen(),
        Err(IqError::NodeDown(_))
    ));
    db.recover_coordinator().unwrap();
    let max_after = db.shared().mx.coordinator.keygen().unwrap().max_allocated();
    assert!(
        max_after >= max_before,
        "recovered max {max_after} < {max_before}"
    );
}

#[test]
fn encryption_keeps_plaintext_off_the_store() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.encryption_key = Some(0xdead_beef);
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    let secret = "very-secret-value-AAAAAAAAAAAAAAAAAAAAAAAAAAAA";
    {
        let pager = db.pager(txn).unwrap();
        let meter = db.meter().clone();
        let mut w = TableWriter::new(&mut meta, &pager, txn, &meter);
        for i in 0..200i64 {
            w.append_row(&[Value::I64(i), Value::Str(secret.into())])
                .unwrap();
        }
        w.finish().unwrap();
    }
    db.commit(txn).unwrap();
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
    // Inspect every stored object: the plaintext marker must not appear.
    let store = db.cloud_store(space).unwrap();
    let needle = secret.as_bytes();
    for key in store.live_keys() {
        let bytes: Bytes = cloudiq::objectstore::ObjectBackend::get(store.as_ref(), key)
            .or_else(|_| {
                store.settle();
                cloudiq::objectstore::ObjectBackend::get(store.as_ref(), key)
            })
            .unwrap();
        assert!(
            !bytes.windows(needle.len()).any(|w| w == needle),
            "plaintext leaked to object {key}"
        );
    }
    // And reads still decrypt correctly.
    db.shared().buffer.clear();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta.scan(&pager, &[1], None, db.meter()).unwrap();
    assert_eq!(out.col(0).strs()[0].as_ref(), secret);
}

#[test]
fn flaky_store_commits_through_retries() {
    // §4: "a failed write is retried" — a moderately flaky store must not
    // surface to the application at all.
    let mut cfg = DatabaseConfig::test_small();
    cfg.consistency.transient_put_failure = 0.3;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("flaky").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 300);
    db.commit(txn).unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        300
    );
    db.rollback(rtxn).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1);
}

#[test]
fn hopeless_store_rolls_the_transaction_back() {
    // "after a pre-determined number of failures of the same page, the
    // transaction is rolled back" (§4).
    let mut cfg = DatabaseConfig::test_small();
    cfg.consistency.transient_put_failure = 0.999;
    cfg.retry = cloudiq::objectstore::RetryPolicy::attempts(3);
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("dead").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 100);
    let err = db.commit(txn).unwrap_err();
    assert!(
        matches!(err, IqError::RetriesExhausted { .. } | IqError::Io(_)),
        "got {err}"
    );
    // The failed transaction left nothing behind.
    assert_eq!(db.shared().txns.active_count(), 0);
}

#[test]
fn drop_table_reclaims_all_pages() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 500);
    db.commit(txn).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert!(store.object_count() > 0);

    db.drop_table(table).unwrap();
    db.gc_drain().unwrap();
    // Retention is on in the test config: the pages moved into the FIFO
    // instead of dying — droppable tables stay snapshot-restorable.
    let retained = db.snapshot_manager().unwrap().retained_count();
    assert!(retained > 0, "dropped pages should be retained");
    db.advance_clock(cloudiq::common::SimDuration::from_secs(100 * 3600));
    db.sweep_retention().unwrap();
    assert_eq!(
        store.object_count(),
        0,
        "after retention lapses, nothing survives"
    );
    // The table is gone from the registry.
    assert!(db.pager(db.begin()).is_ok());
    assert!(db.load_table_meta(table).unwrap().is_none());
}

#[test]
fn snapshot_persists_retention_fifo_on_the_store() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 100);
    db.commit(txn).unwrap();
    let before = db.cloud_store(space).unwrap().object_count();
    db.take_snapshot().unwrap();
    // The FIFO metadata object landed on the object store (§5).
    assert_eq!(db.cloud_store(space).unwrap().object_count(), before + 1);
}

#[test]
fn database_stats_aggregate_the_stack() {
    let db = small_db();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 300);
    db.commit(txn).unwrap();
    if let Some(ocm) = db.ocm() {
        ocm.quiesce();
    }
    let metrics = db.metrics();
    let u64_of = |key: &str| match metrics[key] {
        MetricValue::U64(v) => v,
        MetricValue::F64(v) => panic!("{key} is a gauge: {v}"),
    };
    assert_eq!(u64_of("txn.active"), 0);
    assert!(u64_of("txn.max_allocated_key") > 0);
    // 300 rows in groups of 64, two columns: ten pages, flushed at commit
    // and still cached.
    assert_eq!(u64_of("buffer.commit_flushes"), 10);
    assert!((1..=8 * 1024).contains(&u64_of("buffer.used_bytes")));
    let store = db.cloud_store(space).unwrap();
    assert!(store.object_count() > 0);
    assert!(cloudiq::objectstore::ObjectBackend::resident_bytes(store.as_ref()) > 0);
    assert_eq!(store.max_write_count(), 1);
    assert_eq!(db.snapshot_manager().unwrap().retained_count(), 0);
}

#[test]
fn reader_nodes_query_but_cannot_write() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.readers = 1; // node 2 (node 1 is the writer)
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 200);
    db.commit(txn).unwrap();

    // A reader-node transaction can scan...
    let reader = NodeId(2);
    let rtxn = db.begin_on(reader).unwrap();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        200
    );
    // ...but any write from it fails at key allocation.
    let mut meta2 = TableMeta::new(table, "t", simple_schema(), 64);
    let meter = db.meter().clone();
    let mut w = TableWriter::new(&mut meta2, &pager, rtxn, &meter);
    let mut write_failed = false;
    for i in 0..5000i64 {
        if w.append_row(&[Value::I64(i), Value::Str("x".into())])
            .is_err()
        {
            write_failed = true;
            break;
        }
    }
    if !write_failed {
        write_failed = w.finish().is_err() || db.commit(rtxn).is_err();
    }
    assert!(write_failed, "reader-node writes must be rejected");
}

#[test]
fn eventual_consistency_retries_observed_end_to_end() {
    // Force every PUT into a visibility window: the read path must retry
    // (recorded as GetMiss) yet never surface an error or stale data.
    let mut cfg = DatabaseConfig::test_small();
    cfg.consistency.max_visibility_ops = 24;
    cfg.consistency.delayed_fraction = 1.0;
    cfg.ocm_bytes = 0; // reads go straight to the store, not the OCM
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("laggy").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
    let txn = db.begin();
    load_table(&db, &mut meta, txn, 400);
    db.commit(txn).unwrap();

    db.shared().buffer.clear();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta.scan(&pager, &[0, 1], None, db.meter()).unwrap();
    assert_eq!(out.len(), 400);
    assert_eq!(out.col(1).strs()[123].as_ref(), "row-123");
    db.rollback(rtxn).unwrap();

    let snap = db.cloud_store(space).unwrap().stats.snapshot();
    let misses = snap.op(cloudiq::objectstore::IoOp::GetMiss).count;
    assert!(
        misses > 0,
        "visibility-window retries should have been recorded"
    );
}
