//! End-to-end integration: the full stack from the query engine down to
//! the simulated object store, exercising the paper's §3 write discipline.

use bytes::Bytes;
use cloudiq::common::trace::MetricValue;
use cloudiq::common::{IqError, NodeId, PageId, TableId};
use cloudiq::core::{Database, DatabaseConfig, GroupCommitMode};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::engine::{Expr, PageStore};
use cloudiq::objectstore::{FaultPlan, IoOp, ObjectBackend};
use cloudiq::storage::PageKind;

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

/// A transaction reads back the pages it evicted before their write-back
/// uploads land: the OCM serves each one from its slot. (The read used to
/// go to the store ahead of the PUT and fail with retries exhausted — 5
/// runs in 200 under this 8 KiB buffer.)
#[test]
fn a_transaction_reads_its_evicted_pages_before_their_uploads_land() {
    for run in 0..200 {
        let db = small_db();
        let space = db.create_cloud_dbspace("clouddata").unwrap();
        let table = TableId(1);
        db.create_table(table, space).unwrap();
        let mut meta = TableMeta::new(table, "t", simple_schema(), 64);
        let txn = db.begin();
        load_table(&db, &mut meta, txn, 2_000);
        let pager = db.pager(txn).unwrap();
        let out = meta.scan(&pager, &[0, 1], None, db.meter());
        assert_eq!(out.map(|c| c.len()), Ok(2_000), "run {run}");
        db.commit(txn).unwrap();
        assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
    }
}

/// A packed commit writes its groups across the I/O core's lanes, but
/// each group draws its composite's key in group order, so the objects —
/// and the blockmap leaves that name them — are those of a serial flush.
#[test]
fn a_packed_commit_writes_a_serial_flushs_objects_on_any_lane_count() {
    let objects = |lanes: usize| {
        let mut cfg = DatabaseConfig::test_small();
        cfg.pack_pages = 2;
        cfg.scan_workers = lanes;
        // Nothing is evicted: the buffer's shard count follows the lanes,
        // and with it which pages an eviction would pick.
        cfg.buffer_bytes = 64 << 20;
        let db = Database::create(cfg).unwrap();
        let space = db.create_cloud_dbspace("clouddata").unwrap();
        db.create_table(TableId(1), space).unwrap();
        let mut meta = TableMeta::new(TableId(1), "t", simple_schema(), 64);
        let txn = db.begin();
        load_table(&db, &mut meta, txn, 2_000);
        db.commit(txn).unwrap();
        let store = db.cloud_store(space).unwrap();
        store.settle();
        let mut keys = store.live_keys();
        keys.sort();
        keys.into_iter()
            .map(|k| (k, store.get(k).unwrap()))
            .collect::<Vec<_>>()
    };
    let serial = objects(1);
    assert!(serial.len() > 8, "{} objects", serial.len());
    for run in 0..20 {
        assert!(objects(4) == serial, "run {run}");
    }
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
        let bytes: Bytes = store
            .get(key)
            .or_else(|_| {
                store.settle();
                store.get(key)
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
    cfg.fault = Some(FaultPlan {
        put_fail_rate: 0.3,
        ..FaultPlan::none()
    });
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
    cfg.fault = Some(FaultPlan {
        put_fail_rate: 0.999,
        ..FaultPlan::none()
    });
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

/// "Just like the user data, this list of metadata is also stored on
/// object stores" (§5): the retention FIFO's durable copy is the checkpoint
/// record on the log's object store. Taking a snapshot therefore moves no
/// data-store request, and a reopen that replays the log store gets every
/// retained page back.
#[test]
fn snapshot_persists_retention_fifo_on_the_store() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    for v in 0..2u8 {
        let txn = db.begin();
        let pager = db.pager(txn).unwrap();
        pager
            .write_page(
                table,
                PageId(0),
                PageKind::Data,
                Bytes::from(vec![v; 64]),
                txn,
            )
            .unwrap();
        db.commit(txn).unwrap();
    }
    db.gc_drain().unwrap();
    let retained = db.snapshot_manager().unwrap().retained_count();
    assert!(retained > 0, "the first version's pages are retained");

    let store = db.cloud_store(space).unwrap();
    let requests = || {
        let s = store.stats.snapshot();
        (s.op(IoOp::Put).count, s.op(IoOp::Delete).count)
    };
    let before = requests();
    db.take_snapshot().unwrap();
    assert_eq!(requests(), before, "a snapshot PUTs and DELETEs nothing");

    db.checkpoint().unwrap();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    assert_eq!(db.snapshot_manager().unwrap().retained_count(), retained);
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
    assert!(store.resident_bytes() > 0);
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
    // Force every object into a visibility window — its first reads miss
    // though the PUT landed: the read path must retry yet never surface an
    // error or stale data.
    let mut cfg = DatabaseConfig::test_small();
    cfg.fault = Some(FaultPlan {
        stretch_fraction: 1.0,
        stretch_get_misses: 3,
        ..FaultPlan::none()
    });
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

    let misses = db.fault_injector(space).unwrap().fault_stats();
    assert!(
        misses.stretched_misses > 0,
        "visibility-window retries should have been recorded"
    );
}
