//! Full instance-restart recovery: the database powers off (losing RAM,
//! the ephemeral SSD, key caches and in-flight transactions) and reopens
//! from the system dbspace + transaction log + storage backends alone.

use bytes::Bytes;
use cloudiq::common::trace::MetricValue;
use cloudiq::common::{NodeId, PageId, SimDuration, TableId};
use cloudiq::core::{Database, DatabaseConfig, GroupCommitMode};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::engine::PageStore;
use cloudiq::objectstore::{IoOp, ObjectBackend};
use cloudiq::storage::{PageKind, StorageConfig};

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
    assert_eq!(&out.col(1).strs()[399], "r399");
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
    assert_eq!(db.shared().member_reads(), 23);
}

fn metric(db: &Database, name: &str) -> u64 {
    match db.metrics()[name] {
        MetricValue::U64(v) => v,
        other => panic!("{name} is {other:?}"),
    }
}

/// Three epochs of small packed commits on a 64-page ring, each ending in
/// a checkpoint and a reopen. The checkpoint carries the composite
/// registry and the committed chain, so nothing leaks across the reopen:
/// every data object is a registered composite, every member free finds
/// its composite, and once the GC has caught up the data store holds as
/// much after the third epoch as after the first. The log is cut behind the checkpoint, so reopen
/// reads one log object after 1 000, 2 000 and 3 000 commits alike.
#[test]
fn checkpointed_reopens_leak_nothing_and_read_one_log_object() {
    const RING: u64 = 64;
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 16;
    cfg.group_commit = GroupCommitMode::Coalesced;
    cfg.retention = None;
    let mut db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("churn").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let store = db.cloud_store(space).unwrap();
    let body = |ordinal: u64, page: u64| Bytes::from(vec![(ordinal ^ page) as u8; 512]);
    let mut last = [0u64; RING as usize];
    let mut data_bytes = Vec::new();
    let mut log_gets = Vec::new();
    for epoch in 0..3u64 {
        for ordinal in epoch * 1_000..(epoch + 1) * 1_000 {
            if ordinal % 64 == 0 {
                db.gc_tick(512).unwrap();
            }
            let txn = db.begin();
            let pager = db.pager(txn).unwrap();
            for page in (ordinal * 4..ordinal * 4 + 4).map(|p| p % RING) {
                pager
                    .write_page(
                        table,
                        PageId(page),
                        PageKind::Data,
                        body(ordinal, page),
                        txn,
                    )
                    .unwrap();
                last[page as usize] = ordinal;
            }
            db.commit(txn).unwrap();
        }
        db.checkpoint().unwrap();
        db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
        log_gets.push(metric(&db, "log.recovery_gets"));
        let registry = db.shared().txns.composites();
        for key in store.live_keys() {
            assert!(
                registry.live_fraction(key).is_some(),
                "epoch {epoch}: {key} is on the store but not registered"
            );
        }
        db.gc_drain().unwrap();
        assert_eq!(metric(&db, "pack.unknown_member_frees"), 0, "epoch {epoch}");
        data_bytes.push(store.resident_bytes());
        let rtxn = db.begin();
        let pager = db.pager(rtxn).unwrap();
        for (page, &ordinal) in last.iter().enumerate() {
            let page = page as u64;
            let read = pager.read_page(table, PageId(page), true).unwrap();
            assert_eq!(read.body, body(ordinal, page), "epoch {epoch} page {page}");
        }
        db.rollback(rtxn).unwrap();
    }
    assert_eq!(log_gets, [1, 1, 1], "reopen reads the checkpoint alone");
    for (epoch, &bytes) in data_bytes.iter().enumerate() {
        let ratio = bytes as f64 / data_bytes[0] as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "epoch {epoch}: {bytes} B of data against {} B after the first",
            data_bytes[0]
        );
    }
}

/// Pages retained when the instance powers off still expire and die
/// after the reopen, on the clock they were retained by: the checkpoint
/// carries the retention FIFO and its clock.
#[test]
fn retained_pages_expire_after_a_reopen() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.retention = Some(SimDuration::from_secs(100));
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let store = db.cloud_store(space).unwrap();
    let write = |db: &Database, v: u8| {
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
    };
    write(&db, 1);
    let first = store.live_keys();
    write(&db, 2);
    let second: Vec<_> = store
        .live_keys()
        .into_iter()
        .filter(|k| !first.contains(k))
        .collect();
    db.gc_drain().unwrap();
    let sm = db.snapshot_manager().unwrap();
    let retained = sm.retained_count();
    assert!(retained > 0, "the first version's pages are retained");
    db.advance_clock(SimDuration::from_secs(60));
    let clock = sm.now();
    db.checkpoint().unwrap();

    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let sm = db.snapshot_manager().unwrap();
    assert_eq!(sm.retained_count(), retained);
    assert_eq!(sm.now(), clock);
    db.advance_clock(SimDuration::from_secs(30));
    assert_eq!(db.sweep_retention().unwrap(), 0, "not expired yet");
    db.advance_clock(SimDuration::from_secs(20));
    assert_eq!(db.sweep_retention().unwrap(), retained);
    assert_eq!(store.live_keys(), second, "only the second version is left");
}

/// Both ways a previous life can have kept its log: in memory alone, or
/// mirrored to the durable log store.
const LOG_MODES: [GroupCommitMode; 2] = [GroupCommitMode::Off, GroupCommitMode::Coalesced];

/// Commit `value` as page 0 of `table`.
fn commit_value(db: &Database, table: TableId, value: u8) -> cloudiq::common::IqResult<u64> {
    let txn = db.begin();
    let body = Bytes::from(vec![value; 256]);
    db.pager(txn)
        .unwrap()
        .write_page(table, PageId(0), PageKind::Data, body, txn)
        .unwrap();
    db.commit(txn)
}

/// Page 0 of `table` as a fresh reader sees it: its value, or `None`
/// when the table or the page is not there.
fn read_value(db: &Database, table: TableId) -> Option<u8> {
    let txn = db.begin();
    let value = db
        .pager(txn)
        .unwrap()
        .read_page(table, PageId(0), true)
        .ok()
        .map(|page| page.body[0]);
    db.rollback(txn).unwrap();
    value
}

/// A commit's identity objects become durable in its log record, not in
/// the catalog: the catalog is saved at the checkpoint, and the commits
/// after it reach the reopened instance only through the log's replay —
/// every table at its last commit, and later versions above every version
/// installed before the power-off.
#[test]
fn reopen_replays_the_identities_committed_after_the_checkpoint() {
    for mode in LOG_MODES {
        let mut cfg = DatabaseConfig::test_small();
        cfg.group_commit = mode;
        let db = Database::create(cfg.clone()).unwrap();
        let space = db.create_cloud_dbspace("data").unwrap();
        let tables = [TableId(1), TableId(2)];
        for t in tables {
            db.create_table(t, space).unwrap();
            commit_value(&db, t, 1).unwrap();
        }
        db.checkpoint().unwrap();
        for value in 2..8u8 {
            commit_value(&db, tables[usize::from(value % 2)], value).unwrap();
        }
        let version = |db: &Database, t| {
            db.shared()
                .table_store(t)
                .unwrap()
                .identity()
                .unwrap()
                .version
        };
        let before = version(&db, tables[1]);
        let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
        assert_eq!(read_value(&db, tables[0]), Some(6), "{mode:?}");
        assert_eq!(read_value(&db, tables[1]), Some(7), "{mode:?}");
        assert_eq!(version(&db, tables[1]), before, "{mode:?}");
        commit_value(&db, tables[0], 8).unwrap();
        assert!(
            version(&db, tables[0]) > before,
            "{mode:?}: versions stay monotone"
        );
        let db = Database::reopen(db.into_durable(), cfg).unwrap();
        assert_eq!(read_value(&db, tables[0]), Some(8), "{mode:?}");
        assert_eq!(read_value(&db, tables[1]), Some(7), "{mode:?}");
    }
}

/// A commit whose log PUT failed rolled back, and nothing brings its
/// identity back: the catalog never took it, and reconciliation drops its
/// record before the replay reads the log.
#[test]
fn a_commit_whose_log_put_failed_stays_uninstalled_after_reopen() {
    use cloudiq::objectstore::{FaultPlan, RetryPolicy};
    let cut = FaultPlan {
        put_fail_rate: 1.0,
        ..FaultPlan::none()
    };
    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    cfg.log_fault = Some(FaultPlan::none());
    cfg.retry = RetryPolicy::attempts(2);
    let fail_a_commit = |db: &Database, value: u8| {
        let injector = db.durable_log().unwrap().fault_injector().unwrap();
        injector.set_plan(cut);
        assert!(commit_value(db, TableId(1), value).is_err());
        injector.set_plan(FaultPlan::none());
    };
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("data").unwrap();
    let (a, b) = (TableId(1), TableId(2));
    db.create_table(a, space).unwrap();
    db.create_table(b, space).unwrap();
    commit_value(&db, a, 1).unwrap();
    fail_a_commit(&db, 2);
    assert_eq!(read_value(&db, a), Some(1));
    commit_value(&db, b, 3).unwrap();
    let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
    assert_eq!(read_value(&db, a), Some(1));
    assert_eq!(read_value(&db, b), Some(3));
    // And with a checkpoint, which saves the catalog, after the failure.
    fail_a_commit(&db, 4);
    db.checkpoint().unwrap();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    assert_eq!(read_value(&db, a), Some(1));
    assert_eq!(read_value(&db, b), Some(3));
}

/// A dropped table does not come back through the replay of the commits
/// logged before the drop — nor into a table created later under its id.
#[test]
fn a_dropped_table_stays_dropped_across_reopen() {
    for mode in LOG_MODES {
        let mut cfg = DatabaseConfig::test_small();
        cfg.group_commit = mode;
        let db = Database::create(cfg.clone()).unwrap();
        let space = db.create_cloud_dbspace("data").unwrap();
        let (gone, kept) = (TableId(1), TableId(2));
        db.create_table(gone, space).unwrap();
        db.create_table(kept, space).unwrap();
        db.checkpoint().unwrap();
        commit_value(&db, gone, 1).unwrap();
        commit_value(&db, kept, 2).unwrap();
        db.drop_table(gone).unwrap();
        let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
        assert!(db.shared().table_store(gone).is_err(), "{mode:?}");
        assert_eq!(read_value(&db, kept), Some(2), "{mode:?}");
        db.create_table(gone, space).unwrap();
        assert_eq!(read_value(&db, gone), None, "{mode:?}");
        let db = Database::reopen(db.into_durable(), cfg).unwrap();
        assert_eq!(read_value(&db, gone), None, "{mode:?}");
        assert_eq!(read_value(&db, kept), Some(2), "{mode:?}");
    }
}

/// A reopen after a point-in-time restore lands on the snapshot: the
/// commits logged before the restore are not replayed over it, and the
/// ones after it are.
#[test]
fn restore_then_reopen_reads_the_snapshot() {
    for mode in LOG_MODES {
        let mut cfg = DatabaseConfig::test_small();
        cfg.group_commit = mode;
        let db = Database::create(cfg.clone()).unwrap();
        let space = db.create_cloud_dbspace("data").unwrap();
        let (a, b) = (TableId(1), TableId(2));
        db.create_table(a, space).unwrap();
        db.create_table(b, space).unwrap();
        commit_value(&db, a, 1).unwrap();
        commit_value(&db, b, 1).unwrap();
        db.checkpoint().unwrap();
        commit_value(&db, a, 2).unwrap();
        let snapshot = db.take_snapshot().unwrap();
        commit_value(&db, a, 3).unwrap();
        commit_value(&db, b, 3).unwrap();
        db.restore_snapshot(snapshot).unwrap();
        assert_eq!((read_value(&db, a), read_value(&db, b)), (Some(2), Some(1)));
        let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
        assert_eq!(
            (read_value(&db, a), read_value(&db, b)),
            (Some(2), Some(1)),
            "{mode:?}"
        );
        commit_value(&db, b, 4).unwrap();
        let db = Database::reopen(db.into_durable(), cfg).unwrap();
        assert_eq!(
            (read_value(&db, a), read_value(&db, b)),
            (Some(2), Some(4)),
            "{mode:?}"
        );
    }
}

/// A checkpoint whose log PUT fails cuts nothing, so the log still holds
/// the commits made before a drop or a restore when the instance powers
/// off. The catalog the drop or the restore saved is stamped past them,
/// and the reopen does not replay them over it.
#[test]
fn a_failed_checkpoint_after_a_drop_or_a_restore_replays_nothing_before_it() {
    use cloudiq::objectstore::{FaultPlan, RetryPolicy};
    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    cfg.log_fault = Some(FaultPlan::none());
    cfg.retry = RetryPolicy::attempts(2);
    let fail_a_checkpoint = |db: &Database| {
        let injector = db.durable_log().unwrap().fault_injector().unwrap();
        injector.set_plan(FaultPlan {
            put_fail_rate: 1.0,
            ..FaultPlan::none()
        });
        assert!(db.checkpoint().is_err());
        injector.set_plan(FaultPlan::none());
    };
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("data").unwrap();
    let (a, b, gone) = (TableId(1), TableId(2), TableId(3));
    for t in [a, b, gone] {
        db.create_table(t, space).unwrap();
    }
    db.checkpoint().unwrap();
    for t in [a, b, gone] {
        commit_value(&db, t, 1).unwrap();
    }
    db.drop_table(gone).unwrap();
    fail_a_checkpoint(&db);
    let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
    assert!(db.shared().table_store(gone).is_err());
    db.create_table(gone, space).unwrap();
    let root = |db: &Database| db.shared().table_store(gone).unwrap().identity();
    assert_eq!(root(&db), None, "no root of the dropped table");
    assert_eq!((read_value(&db, a), read_value(&db, b)), (Some(1), Some(1)));

    let snapshot = db.take_snapshot().unwrap();
    commit_value(&db, a, 2).unwrap();
    commit_value(&db, b, 2).unwrap();
    db.restore_snapshot(snapshot).unwrap();
    fail_a_checkpoint(&db);
    let db = Database::reopen(db.into_durable(), cfg.clone()).unwrap();
    assert_eq!((read_value(&db, a), read_value(&db, b)), (Some(1), Some(1)));
    assert_eq!(root(&db), None);
    commit_value(&db, b, 3).unwrap();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    assert_eq!((read_value(&db, a), read_value(&db, b)), (Some(1), Some(3)));
}
