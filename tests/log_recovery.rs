//! Durable-log replay recovery, end to end: commits whose log PUT failed
//! past the retry budget must error, roll back, and never resurrect at
//! reopen; commits that reached the log store must replay exactly once;
//! and when no faults fired, reconciliation is the identity.

use std::sync::Barrier;

use cloudiq::common::{TableId, TxnId};
use cloudiq::core::log_recovery::read_durable_records;
use cloudiq::core::{Database, DatabaseConfig, GroupCommitMode};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::objectstore::FaultPlan;
use cloudiq::objectstore::{IoOp, RetryPolicy};
use cloudiq::txn::LogRecord;

fn schema() -> Schema {
    Schema::new(&[("k", DataType::I64), ("v", DataType::Str)])
}

fn load(db: &Database, meta: &mut TableMeta, txn: TxnId, base: i64, n: i64) {
    let pager = db.pager(txn).unwrap();
    let meter = db.meter().clone();
    let mut w = TableWriter::new(meta, &pager, txn, &meter);
    for i in base..base + n {
        w.append_row(&[Value::I64(i), Value::Str(format!("r{i}").into())])
            .unwrap();
    }
    w.finish().unwrap();
}

fn recovery_cfg() -> DatabaseConfig {
    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    // An injector on the log store (transparent until a plan is set);
    // small retry budget so exhaustion is cheap to script.
    cfg.log_fault = Some(FaultPlan::none());
    cfg.retry = RetryPolicy::attempts(2);
    cfg
}

/// Fail every log-store PUT from here on (the retry budget will exhaust).
fn cut_log_puts(db: &Database) {
    db.durable_log()
        .expect("durable log on")
        .fault_injector()
        .expect("log_fault wires an injector")
        .set_plan(FaultPlan {
            put_fail_rate: 1.0,
            ..FaultPlan::none()
        });
}

/// The body of page `p` of table `t` in the version `v` writes.
fn body(t: TableId, p: u64, v: u8) -> bytes::Bytes {
    bytes::Bytes::from(vec![t.0 as u8 ^ p as u8 ^ v; 300])
}

fn heal_log_puts(db: &Database) {
    db.durable_log()
        .unwrap()
        .fault_injector()
        .unwrap()
        .set_plan(FaultPlan::none());
}

/// Leg (i) — the durable PUT is cut after the in-memory log apply: the
/// commit errors and rolls back in its own life, the phantom in-memory
/// commit record is reconciled away at reopen, and the transaction's
/// writes are invisible afterwards — while an earlier durable commit
/// replays exactly once.
#[test]
fn undurable_commit_does_not_resurrect_after_reopen() {
    let cfg = recovery_cfg();
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();

    // A durably committed baseline.
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 0, 100);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta).unwrap();

    // The doomed transaction: its commit record PUT fails past the
    // retry budget, so commit must error (tentpole acceptance).
    let doomed = db.begin();
    load(&db, &mut meta, doomed, 100, 50);
    cut_log_puts(&db);
    let err = db.commit(doomed);
    assert!(err.is_err(), "un-durable commit must fail: {err:?}");
    assert_eq!(
        db.durable_log().unwrap().stats().put_failures,
        1,
        "one exhausted upload, counted once across its retry attempts"
    );

    // Heal, power off, reopen: the phantom in-memory commit record is
    // dropped by reconciliation, the durable commit replays.
    heal_log_puts(&db);
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let m = db
        .metrics()
        .into_iter()
        .collect::<std::collections::BTreeMap<_, _>>();
    assert_eq!(
        format!("{:?}", m["log.reconciled_drops"]),
        "U64(1)",
        "exactly the phantom commit dropped"
    );

    let meta = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta.scan(&pager, &[0, 1], None, db.meter()).unwrap();
    assert_eq!(out.len(), 100, "failed txn's writes must not resurrect");
    assert_eq!(&out.col(1).strs()[99], "r99");
    db.rollback(rtxn).unwrap();

    // Invariants: never-write-twice on the data store and the log store.
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1);
    assert_eq!(db.durable_log().unwrap().sim().max_write_count(), 1);

    // The reopened instance commits cleanly on the resumed log store.
    let mut meta2 = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta2, txn, 200, 10);
    db.commit(txn).unwrap();
}

/// Leg (ii) — a gathered batch's leader PUT is cut mid-batch: every
/// rider fails alongside the leader, none of their writes survive the
/// reopen, and the durable pre-batch commit replays exactly once.
#[test]
fn failed_gathered_batch_fails_every_rider_and_none_resurrect() {
    let mut cfg = recovery_cfg();
    cfg.group_commit = GroupCommitMode::Coalesced;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    const THREADS: usize = 4;
    for t in 0..=THREADS {
        db.create_table(TableId(t as u32 + 1), space).unwrap();
    }

    // Table THREADS+1 commits durably before the cut.
    let mut meta0 = TableMeta::new(TableId(THREADS as u32 + 1), "base", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta0, txn, 0, 40);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta0).unwrap();

    // Cut the log store, then gather a batch of concurrent committers:
    // the leader's one PUT fails and every window must fail with it.
    cut_log_puts(&db);
    let gate = Barrier::new(THREADS);
    let mut metas: Vec<TableMeta> = (0..THREADS)
        .map(|t| TableMeta::new(TableId(t as u32 + 1), "t", schema(), 64))
        .collect();
    let errors: Vec<bool> = std::thread::scope(|s| {
        let handles: Vec<_> = metas
            .iter_mut()
            .enumerate()
            .map(|(t, meta)| {
                let db = &db;
                let gate = &gate;
                s.spawn(move || {
                    let txn = db.begin();
                    load(db, meta, txn, (t as i64 + 1) * 1000, 20);
                    // Pre-register so the whole group lands in one batch.
                    let window = db.durable_log().map(|dl| dl.enter_commit());
                    gate.wait();
                    let res = db.commit(txn);
                    drop(window);
                    res.is_err()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        errors.iter().all(|&e| e),
        "every rider fails with the leader: {errors:?}"
    );
    let stats = db.durable_log().unwrap().stats();
    assert_eq!(stats.put_failures, 1, "one failed batch PUT, counted once");

    // Reopen (healed) and verify: the pre-cut commit is intact, no
    // batch member resurrected, and replay happened exactly once (the
    // durable commit count equals the in-memory commit count).
    heal_log_puts(&db);
    let durable_log_sim = std::sync::Arc::clone(db.durable_log().unwrap().sim());
    let db = Database::reopen(db.into_durable(), cfg).unwrap();

    let meta0 = db
        .load_table_meta(TableId(THREADS as u32 + 1))
        .unwrap()
        .unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta0.scan(&pager, &[0], None, db.meter()).unwrap().len(),
        40
    );
    for (t, meta) in metas.iter().enumerate() {
        // Rider metas were never saved, so the failed writes are
        // invisible through the facade...
        assert!(
            db.load_table_meta(TableId(t as u32 + 1)).unwrap().is_none(),
            "table {t}: failed batch member resurfaced a saved meta"
        );
        // ...and even a client that kept the doomed meta finds the
        // rolled-back pages gone, not readable.
        assert!(
            meta.scan(&pager, &[0], None, db.meter()).is_err(),
            "table {t}: failed batch member's pages survived the reopen"
        );
    }
    db.rollback(rtxn).unwrap();

    let (durable_records, _gets) = read_durable_records(&durable_log_sim).unwrap();
    let durable_commits = durable_records
        .iter()
        .filter(|r| matches!(r, LogRecord::Commit { .. }))
        .count();
    let memory_commits = db
        .txn_log()
        .replay_suffix()
        .iter()
        .filter(|r| matches!(r, LogRecord::Commit { .. }))
        .count();
    assert_eq!(
        memory_commits, durable_commits,
        "after reconciliation, memory holds exactly the durable commits"
    );
    assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
}

/// Property: with no faults, reconciliation is the identity — the
/// reconciled replay stream equals the pre-reopen in-memory
/// `replay_suffix`, across several deterministic workload shapes.
#[test]
fn reconciled_replay_equals_in_memory_suffix_without_faults() {
    for (txns, rows) in [(1usize, 10i64), (3, 33), (5, 7)] {
        let mut cfg = DatabaseConfig::test_small();
        cfg.group_commit = GroupCommitMode::Coalesced;
        let db = Database::create(cfg.clone()).unwrap();
        let space = db.create_cloud_dbspace("clouddata").unwrap();
        db.create_table(TableId(1), space).unwrap();
        let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
        for t in 0..txns {
            let txn = db.begin();
            load(&db, &mut meta, txn, (t as i64) * rows, rows);
            db.commit(txn).unwrap();
        }
        db.save_table_meta(&meta).unwrap();

        let before = db.txn_log().replay_suffix();
        let db = Database::reopen(db.into_durable(), cfg).unwrap();
        assert_eq!(
            db.txn_log().replay_suffix(),
            before,
            "workload ({txns} txns × {rows} rows): reconcile must be identity"
        );
        let m = db.metrics();
        assert_eq!(format!("{:?}", m["log.reconciled_drops"]), "U64(0)");
        assert!(matches!(
            m["log.recovery_gets"],
            cloudiq::common::trace::MetricValue::U64(g) if g > 0
        ));

        let meta = db.load_table_meta(TableId(1)).unwrap().unwrap();
        let rtxn = db.begin();
        let pager = db.pager(rtxn).unwrap();
        assert_eq!(
            meta.scan(&pager, &[0], None, db.meter()).unwrap().len() as i64,
            txns as i64 * rows
        );
        db.rollback(rtxn).unwrap();
    }
}

/// The cascade rides the commit's last composite, so a commit whose
/// composite landed and whose log PUT did not leaves nothing behind: the
/// rollback deletes the composite — blockmap nodes and all — and after
/// reopen the table, the store and the composite registry are as if the
/// commit had never run.
#[test]
fn a_landed_composite_without_its_log_record_resurrects_nothing() {
    let mut cfg = recovery_cfg();
    cfg.pack_pages = 16;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 0, 100);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta).unwrap();
    let store = db.cloud_store(space).unwrap();
    let baseline = store.live_keys();
    let puts = || store.stats.snapshot().op(IoOp::Put).count;
    let puts_before = puts();

    let doomed = db.begin();
    load(&db, &mut meta.clone(), doomed, 100, 50);
    cut_log_puts(&db);
    assert!(db.commit(doomed).is_err(), "an un-durable commit fails");
    assert_eq!(
        puts() - puts_before,
        1,
        "one data PUT: the composite and its cascade"
    );
    assert_eq!(store.live_keys(), baseline, "the rollback deleted it");

    heal_log_puts(&db);
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.live_keys(), baseline);
    let m = db.metrics();
    assert_eq!(format!("{:?}", m["pack.composites_live"]), "U64(1)");
    let meta = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let out = meta.scan(&pager, &[0, 1], None, db.meter()).unwrap();
    assert_eq!(out.len(), 100);
    assert_eq!(&out.col(1).strs()[99], "r99");
    db.rollback(rtxn).unwrap();
    assert_eq!(store.max_write_count(), 1);
}

/// A commit whose log record fails to land leaves every table it wrote at
/// the version it would have superseded — in the live instance too, not
/// only after a reopen: it installed its tables before logging, and the
/// failure puts back the old tree, identity and epoch before the rollback
/// deletes the uploads the new trees pointed at. A reader that begins
/// after the failure reads the old contents, a table the commit created
/// stays empty, and a later commit that saves the catalog does not make
/// the failed version durable.
#[test]
fn a_failed_commit_record_leaves_the_old_versions_installed() {
    use cloudiq::common::PageId;
    use cloudiq::engine::PageStore;
    use cloudiq::storage::PageKind;

    let (old, new) = (TableId(1), TableId(2));
    for pack_pages in [1, 16] {
        let mut cfg = recovery_cfg();
        cfg.pack_pages = pack_pages;
        let db = Database::create(cfg.clone()).unwrap();
        let space = db.create_cloud_dbspace("clouddata").unwrap();
        for t in [old, new, TableId(3)] {
            db.create_table(t, space).unwrap();
        }
        let write = |db: &Database, tables: &[TableId], v: u8| {
            let txn = db.begin();
            let pager = db.pager(txn).unwrap();
            for &t in tables {
                for p in 0..20 {
                    pager
                        .write_page(t, PageId(p), PageKind::Data, body(t, p, v), txn)
                        .unwrap();
                }
            }
            db.commit(txn)
        };
        let check = |db: &Database, when: &str| {
            let rtxn = db.begin();
            let pager = db.pager(rtxn).unwrap();
            for p in 0..20 {
                let page = pager.read_page(old, PageId(p), true).unwrap_or_else(|e| {
                    panic!("pack {pack_pages} {when}: page {p} of the old table: {e}")
                });
                assert_eq!(page.body, body(old, p, 1), "pack {pack_pages} {when}");
                assert!(
                    pager.read_page(new, PageId(p), true).is_err(),
                    "pack {pack_pages} {when}: the failed commit's new table is readable"
                );
            }
            db.rollback(rtxn).unwrap();
        };
        write(&db, &[old], 1).unwrap();
        cut_log_puts(&db);
        assert!(write(&db, &[old, new], 2).is_err());
        check(&db, "after the failure");
        heal_log_puts(&db);
        write(&db, &[TableId(3)], 3).unwrap();
        check(&db, "after a later commit");
        let db = Database::reopen(db.into_durable(), cfg).unwrap();
        check(&db, "after a reopen");
        assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
    }
}

/// While a commit's record is failing to land, the tables it installed are
/// still its own: a second transaction that tries to write one is refused,
/// not handed the installed tree the failure is about to undo. After the
/// failure the next writer builds on the old version, and neither the live
/// instance nor a reopen reads a page of the failed one.
#[test]
fn a_second_writer_waits_out_a_failing_commit_record() {
    use cloudiq::common::PageId;
    use cloudiq::engine::PageStore;
    use cloudiq::storage::PageKind;

    let table = TableId(1);
    let mut cfg = recovery_cfg();
    cfg.group_commit = GroupCommitMode::Coalesced;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(table, space).unwrap();
    let write = |db: &Database, txn: TxnId, mut pages: std::ops::Range<u64>, v: u8| {
        let pager = db.pager(txn).unwrap();
        pages.try_for_each(|p| {
            pager.write_page(table, PageId(p), PageKind::Data, body(table, p, v), txn)
        })
    };
    let check = |db: &Database, when: &str| {
        let rtxn = db.begin();
        let pager = db.pager(rtxn).unwrap();
        for p in 0..20 {
            let page = pager
                .read_page(table, PageId(p), true)
                .unwrap_or_else(|e| panic!("{when}: page {p}: {e}"));
            let v = if p < 10 { 3 } else { 1 };
            assert_eq!(page.body, body(table, p, v), "{when}: page {p}");
        }
        db.rollback(rtxn).unwrap();
    };
    let txn = db.begin();
    write(&db, txn, 0..20, 1).unwrap();
    db.commit(txn).unwrap();

    cut_log_puts(&db);
    // An open commit window holds the gather: the failing commit's leader
    // waits for it before the PUT that will fail.
    let hold = db.durable_log().map(|dl| dl.enter_commit());
    let doomed = db.begin();
    std::thread::scope(|s| {
        let failing = s.spawn(|| {
            write(&db, doomed, 0..20, 2).unwrap();
            db.commit(doomed)
        });
        // Its record is in the in-memory log: the table is installed and
        // the record's PUT has not been tried.
        let logged = |r: &LogRecord| matches!(r, LogRecord::Commit { txn, .. } if *txn == doomed);
        while !db.txn_log().replay_suffix().iter().any(logged) {
            assert!(!failing.is_finished(), "the commit ended before logging");
            std::thread::yield_now();
        }
        let second = db.begin();
        assert!(
            write(&db, second, 0..1, 9).is_err(),
            "a second writer cloned a tree whose record has not landed"
        );
        db.rollback(second).unwrap();
        drop(hold);
        assert!(
            failing.join().unwrap().is_err(),
            "an un-durable commit fails"
        );
    });

    heal_log_puts(&db);
    let txn = db.begin();
    write(&db, txn, 0..10, 3).unwrap();
    db.commit(txn).unwrap();
    check(&db, "after the next commit");
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    check(&db, "after a reopen");
    assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
}
