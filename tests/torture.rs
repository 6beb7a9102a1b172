//! End-to-end crash/fault torture through the full `Database` stack.
//!
//! The fault injector is wired in via `DatabaseConfig::fault`: every
//! cloud dbspace's store is wrapped in a scripted [`FaultPlan`], and
//! crash cuts are armed at runtime through `Database::fault_injector`.
//! After every scripted disaster the instance reopens from durable state
//! and the §3.3/§4 invariants are asserted: committed data intact, no
//! object ever written twice, in-flight garbage reclaimed, failed
//! commits fully rolled back.
//!
//! The multi-seed sweep is heavy and runs under `--features torture`
//! (the CI `torture` job); the single-seed cases always run.

use std::sync::atomic::Ordering;

use cloudiq::common::trace::MetricValue;
use cloudiq::common::{IqResult, ObjectKey, TableId};
use cloudiq::core::{Database, DatabaseConfig, GroupCommitMode};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::objectstore::{FaultPlan, ObjectBackend, RetryPolicy};

fn schema() -> Schema {
    Schema::new(&[("k", DataType::I64), ("v", DataType::Str)])
}

fn load(db: &Database, meta: &mut TableMeta, txn: cloudiq::common::TxnId, n: i64) {
    try_load(db, meta, txn, n).unwrap();
}

/// Load `n` rows, stopping at the first error — an evicted page whose
/// upload fails fails the call that evicted it.
fn try_load(
    db: &Database,
    meta: &mut TableMeta,
    txn: cloudiq::common::TxnId,
    n: i64,
) -> IqResult<()> {
    let pager = db.pager(txn)?;
    let meter = db.meter().clone();
    let mut w = TableWriter::new(meta, &pager, txn, &meter);
    for i in 0..n {
        w.append_row(&[Value::I64(i), Value::Str(format!("r{i}").into())])?;
    }
    w.finish()
}

fn faulted_cfg(plan: FaultPlan) -> DatabaseConfig {
    let mut cfg = DatabaseConfig::test_small();
    cfg.fault = Some(plan);
    // The derived default budget targets visibility windows only; riding
    // through scripted fault rates needs more headroom.
    cfg.retry = RetryPolicy::attempts(24);
    cfg
}

/// A flaky-but-not-hopeless store: transient faults and throttles on
/// every path (pager, OCM, GC), all absorbed by retry/backoff, with the
/// never-write-twice invariant intact.
#[test]
fn flaky_store_end_to_end_commit_survives() {
    let cfg = faulted_cfg(FaultPlan::flaky(11, 0.08));
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();

    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 300);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta).unwrap();

    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        300
    );
    db.rollback(rtxn).unwrap();

    let inj = db
        .fault_injector(space)
        .expect("fault config wires the injector");
    let stats = inj.fault_stats();
    assert!(
        stats.put_errors + stats.get_errors + stats.throttles > 0,
        "the plan must actually have fired: {stats:?}"
    );
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1, "retries never double-write");
    let snap = store.stats_snapshot();
    assert!(snap.retries > 0, "backoffs are charged to the ledger");
    assert!(snap.backoff_nanos > 0);
}

/// A hard cut mid-commit: the commit fails, rolls back completely, and a
/// reopen from durable state recovers the committed baseline and
/// reclaims every orphaned upload.
#[test]
fn crash_cut_mid_commit_rolls_back_and_reopen_recovers() {
    let cfg = faulted_cfg(FaultPlan::none());
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    db.create_table(TableId(2), space).unwrap();

    // Committed baseline.
    let mut meta1 = TableMeta::new(TableId(1), "t1", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta1, txn, 200);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta1).unwrap();
    db.checkpoint().unwrap();

    // The doomed transaction: the client dies a few dozen store
    // operations into the commit flush.
    let inj = db.fault_injector(space).unwrap();
    let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 32);
    let doomed = db.begin();
    load(&db, &mut meta2, doomed, 800);
    inj.arm_crash(25);
    let err = db.commit(doomed);
    assert!(err.is_err(), "commit across the cut must fail");
    assert_eq!(
        db.shared().txns.active_count(),
        0,
        "failed commit rolled back"
    );
    assert!(inj.fault_stats().refused_while_crashed > 0);

    // Node restart: reopen rebuilds a healed injector; recovery polls
    // the active set and reclaims the orphans.
    inj.heal();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let meta1 = db
        .load_table_meta(TableId(1))
        .unwrap()
        .expect("baseline meta");
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta1.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        200,
        "committed baseline survives the cut"
    );
    db.rollback(rtxn).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert_eq!(
        store.max_write_count(),
        1,
        "never-write-twice across the crash"
    );
    assert!(
        db.fault_injector(space).unwrap().op_clock() > 0 || store.object_count() > 0,
        "reopen rebuilt a live injector over the surviving store"
    );

    // The instance is fully usable after recovery.
    let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta2, txn, 50);
    db.commit(txn).unwrap();
    assert_eq!(store.max_write_count(), 1);
}

/// A hard cut mid-*packed*-commit: the composite uploads of the doomed
/// transaction roll back as whole objects, reopen recovers the baseline,
/// and the composite registry rebuilds consistent from the durable log.
#[test]
fn crash_cut_mid_packed_commit_recovers() {
    let mut cfg = faulted_cfg(FaultPlan::none());
    cfg.pack_pages = 8;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    db.create_table(TableId(2), space).unwrap();

    let mut meta1 = TableMeta::new(TableId(1), "t1", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta1, txn, 200);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta1).unwrap();
    db.checkpoint().unwrap();
    assert!(
        db.shared()
            .pack_stats
            .objects_written
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the baseline commit must actually have packed"
    );

    // The doomed packed commit dies mid-flush: its 50 pages are seven
    // composites, the last one carrying the blockmap cascade.
    let inj = db.fault_injector(space).unwrap();
    let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 32);
    let doomed = db.begin();
    load(&db, &mut meta2, doomed, 800);
    inj.arm_crash(4);
    assert!(
        db.commit(doomed).is_err(),
        "commit across the cut must fail"
    );
    assert_eq!(db.shared().txns.active_count(), 0);

    inj.heal();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let meta1 = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta1.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        200,
        "committed packed baseline survives the cut"
    );
    db.rollback(rtxn).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1, "no composite written twice");
    // Replay rebuilt the registry; nothing reclaimable may linger.
    db.gc_drain().unwrap();
    assert!(db.shared().txns.composites().take_fully_dead().is_empty());
}

/// A hard cut mid-*eviction-group*: a load larger than the buffer leaves
/// in composites uploaded through the OCM, and the store dies a few of
/// those uploads in. The load stops at the group that did not land, the
/// loading transaction's commit fails on it, reopen recovers the
/// baseline, and the groups that did land are reclaimed as garbage.
#[test]
fn crash_cut_mid_eviction_group_recovers() {
    let mut cfg = faulted_cfg(FaultPlan::none());
    cfg.pack_pages = 8;
    cfg.buffer_bytes = 8 * 1024;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    db.create_table(TableId(2), space).unwrap();

    let mut meta1 = TableMeta::new(TableId(1), "t1", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta1, txn, 200);
    db.commit(txn).unwrap();
    db.save_table_meta(&meta1).unwrap();
    db.checkpoint().unwrap();

    // The doomed load spills in eviction groups; the third upload after
    // the cut is armed is the last one the store takes, and the next
    // fails the load.
    let inj = db.fault_injector(space).unwrap();
    let groups_before = db
        .shared()
        .pack_stats
        .objects_written
        .load(Ordering::Relaxed);
    let evicted_before = db
        .shared()
        .buffer
        .stats
        .dirty_evictions
        .load(Ordering::Relaxed);
    let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 32);
    let doomed = db.begin();
    inj.arm_crash(3);
    assert!(
        try_load(&db, &mut meta2, doomed, 2_000).is_err(),
        "the eviction whose group never landed fails the load"
    );
    let groups = db
        .shared()
        .pack_stats
        .objects_written
        .load(Ordering::Relaxed)
        - groups_before;
    let evicted = db
        .shared()
        .buffer
        .stats
        .dirty_evictions
        .load(Ordering::Relaxed)
        - evicted_before;
    assert!(
        (1..=3).contains(&groups),
        "groups land until the cut, none after: {groups}"
    );
    assert!(evicted > groups, "eviction groups carry several pages");
    assert!(
        db.commit(doomed).is_err(),
        "a commit whose eviction group never landed must fail"
    );
    assert_eq!(db.shared().txns.active_count(), 0);
    assert!(inj.fault_stats().refused_while_crashed > 0);

    inj.heal();
    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    let meta1 = db.load_table_meta(TableId(1)).unwrap().unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta1.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        200,
        "committed baseline survives the cut"
    );
    db.rollback(rtxn).unwrap();
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.max_write_count(), 1, "no group written twice");
    db.gc_drain().unwrap();
    assert!(db.shared().txns.composites().take_fully_dead().is_empty());

    // Usable after recovery, eviction groups and all.
    let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 32);
    let txn = db.begin();
    load(&db, &mut meta2, txn, 2_000);
    db.commit(txn).unwrap();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta2.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        2_000
    );
    db.rollback(rtxn).unwrap();
    assert_eq!(store.max_write_count(), 1);
}

/// An evicted page is uploaded on the thread that evicts it: when the
/// store refuses the upload, the evicting call fails, and so does the
/// owner's commit. The refused page never took SSD blocks, so the OCM's
/// SSD holds exactly the blocks its cached entries are charged: clearing
/// the cache leaves none.
#[test]
fn a_failed_eviction_upload_fails_the_evicting_call_and_the_commit() {
    let mut cfg = faulted_cfg(FaultPlan::none());
    cfg.buffer_bytes = 8 * 1024;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();
    let ocm = db.ocm().expect("the test config binds an OCM");
    let inj = db.fault_injector(space).unwrap();

    let mut meta = TableMeta::new(TableId(1), "t", schema(), 32);
    let txn = db.begin();
    inj.arm_crash(3);
    assert!(
        try_load(&db, &mut meta, txn, 2_000).is_err(),
        "the eviction whose upload failed returns the error"
    );
    assert!(inj.fault_stats().refused_while_crashed > 0);
    assert!(
        ocm.cached_objects() > 0,
        "the uploads before the cut are cached"
    );
    assert!(
        db.commit(txn).is_err(),
        "a commit whose evicted page never landed must fail"
    );
    assert_eq!(db.shared().txns.active_count(), 0);

    assert!(db.ssd().used_blocks() > 0);
    ocm.clear_cache();
    assert_eq!(db.ssd().used_blocks(), 0, "no block outside the cache");
}

/// A commit that writes two tables and fails at any of its uploads —
/// a data composite, the composite that carries the blockmap cascade, or,
/// without packing, a page or a node of either table — leaves both tables
/// at their pre-commit versions: no table is installed until every upload
/// of the commit has landed, so rollback has nothing to undo.
#[test]
fn a_failed_upload_leaves_every_table_of_the_commit_at_its_old_version() {
    use cloudiq::common::PageId;
    use cloudiq::engine::PageStore;
    use cloudiq::storage::PageKind;

    let tables = [TableId(1), TableId(2)];
    let body = |t: TableId, p: u64, v: u8| bytes::Bytes::from(vec![t.0 as u8 ^ p as u8 ^ v; 300]);
    for pack_pages in [1, 16] {
        let mut failures = 0;
        for cut in 0.. {
            let mut cfg = faulted_cfg(FaultPlan::none());
            cfg.pack_pages = pack_pages;
            let db = Database::create(cfg).unwrap();
            let space = db.create_cloud_dbspace("clouddata").unwrap();
            for t in tables {
                db.create_table(t, space).unwrap();
            }
            let write = |v: u8| {
                let txn = db.begin();
                let pager = db.pager(txn).unwrap();
                for t in tables {
                    for p in 0..20 {
                        pager
                            .write_page(t, PageId(p), PageKind::Data, body(t, p, v), txn)
                            .unwrap();
                    }
                }
                db.commit(txn)
            };
            write(1).unwrap();
            let inj = db.fault_injector(space).unwrap();
            inj.arm_crash(cut);
            let committed = write(2).is_ok();
            inj.heal();
            let v = if committed { 2 } else { 1 };
            db.shared().buffer.clear();
            let rtxn = db.begin();
            let pager = db.pager(rtxn).unwrap();
            for t in tables {
                for p in 0..20 {
                    let page = pager.read_page(t, PageId(p), true).unwrap_or_else(|e| {
                        panic!("pack {pack_pages} cut {cut}: {t} page {p}: {e}")
                    });
                    assert_eq!(page.body, body(t, p, v), "pack {pack_pages} cut {cut}");
                }
            }
            db.rollback(rtxn).unwrap();
            if committed {
                break;
            }
            failures += 1;
        }
        // Per page and node: 40 pages and two trees of a root over two
        // leaves. Packed: two composites of 16 pages, then the last 8 with
        // both cascades.
        assert_eq!(failures, if pack_pages == 1 { 46 } else { 3 });
    }
}

/// Compaction over a flaky store: retries and throttles on the
/// rewrite-read and rewrite-flush paths must never violate
/// never-write-twice, and the compacted data must read back intact.
#[test]
fn compaction_under_faults_never_writes_twice() {
    use cloudiq::common::PageId;
    use cloudiq::engine::PageStore;
    use cloudiq::storage::PageKind;

    let mut cfg = faulted_cfg(FaultPlan::flaky(17, 0.05));
    cfg.pack_pages = 8;
    cfg.retention = None;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let body = |p: u64, v: u64| bytes::Bytes::from(vec![(p ^ v.wrapping_mul(31)) as u8; 256]);

    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        for p in 0..64u64 {
            pager
                .write_page(table, PageId(p), PageKind::Data, body(p, 1), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();

    // Half-kill every composite, then compact the survivors.
    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        for p in (0..64u64).step_by(2) {
            pager
                .write_page(table, PageId(p), PageKind::Data, body(p, 2), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db.gc_drain().unwrap();
    let compacted = db.compact_tick(0.6, 100).unwrap();
    assert!(compacted > 0, "half-dead composites must be claimed");
    db.gc_drain().unwrap();

    let store = db.cloud_store(space).unwrap();
    assert_eq!(
        store.max_write_count(),
        1,
        "compaction under retries must never double-write"
    );
    let inj = db.fault_injector(space).unwrap();
    let stats = inj.fault_stats();
    assert!(
        stats.put_errors + stats.get_errors + stats.throttles > 0,
        "the plan must actually have fired: {stats:?}"
    );
    db.shared().buffer.clear();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    for p in 0..64u64 {
        let v = if p % 2 == 0 { 2 } else { 1 };
        let page = pager.read_page(table, PageId(p), true).unwrap();
        assert_eq!(page.body, body(p, v), "page {p} after faulted compaction");
    }
    db.rollback(rtxn).unwrap();
}

/// Where a checkpoint scenario cuts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Cut {
    /// Nowhere: the clean run the others are held to.
    None,
    /// The checkpoint's own PUT.
    CheckpointPut,
    /// After the checkpoint landed, before the log prefix is deleted.
    BeforePrefixDelete,
    /// Between the first and the second batch of the prefix delete.
    BetweenDeleteBatches,
    /// A GC pass before the checkpoint, which leaves its deletes owed.
    MidGc,
}

/// The objects `table`'s committed tree references: its pages' and its
/// nodes' (a composite's key once, however many members it serves).
fn reachable(db: &Database, table: TableId) -> Vec<ObjectKey> {
    use cloudiq::common::PhysicalLocator;
    use cloudiq::storage::{Blockmap, CountingKeySource, PageIo};
    let ts = db.shared().table_store(table).unwrap();
    let space = db.dbspace(ts.space).unwrap();
    let keys = CountingKeySource::default();
    let io = PageIo {
        space: &space,
        keys: &keys,
    };
    let identity = ts.identity().unwrap();
    let mut tree = Blockmap::open(identity.fanout as usize, identity.root, &io).unwrap();
    let mut out: Vec<ObjectKey> = tree
        .live_data_locators(&io)
        .unwrap()
        .into_iter()
        .chain(tree.live_node_locators())
        .map(|loc| match loc {
            PhysicalLocator::Object(key) | PhysicalLocator::ObjectRange { key, .. } => key,
            PhysicalLocator::Blocks { .. } => panic!("a cloud table holds no block runs"),
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// What a reopened instance holds: the data store's objects, and every
/// ring page as a fresh reader reads it.
#[derive(Debug, PartialEq)]
struct Reopened {
    objects: Vec<ObjectKey>,
    pages: Vec<bytes::Bytes>,
}

/// `commits` small transactions on a 32-page ring, with a GC pass every
/// 16, then a checkpoint cut at `cut`, a restart and a reopen that drains
/// the GC. Asserts what each cut leaves behind before the reopen, and
/// after it that the data store holds exactly the objects the table's
/// tree references — nothing leaked, nothing it needs deleted — that no
/// member free missed its composite, and that no object was written twice
/// on either store.
fn checkpoint_scenario(cut: Cut, commits: u64, pack_pages: usize) -> Reopened {
    use cloudiq::common::PageId;
    use cloudiq::engine::PageStore;
    use cloudiq::storage::PageKind;

    const RING: u64 = 32;
    let mut cfg = faulted_cfg(FaultPlan::none());
    cfg.pack_pages = pack_pages;
    cfg.group_commit = GroupCommitMode::Coalesced;
    cfg.log_fault = Some(FaultPlan::none());
    cfg.retention = None;
    let db = Database::create(cfg.clone()).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    let table = TableId(1);
    db.create_table(table, space).unwrap();
    let body = |ordinal: u64, page: u64| bytes::Bytes::from(vec![(ordinal ^ page) as u8; 256]);
    for ordinal in 0..commits {
        if ordinal % 16 == 0 {
            db.gc_tick(64).unwrap();
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
        }
        db.commit(txn).unwrap();
    }
    if cut == Cut::MidGc {
        let data = db.fault_injector(space).unwrap();
        data.arm_crash(0);
        assert!(db.gc_drain().is_err(), "the GC pass meets the cut");
        assert!(db.shared().txns.gc_stats().owed > 0, "deletes owed");
        data.heal();
    }

    let log = db.durable_log().unwrap();
    let (log_store, injector) = (log.sim().clone(), log.fault_injector().unwrap().clone());
    let (objects, records) = (log_store.object_count(), db.txn_log().len());
    match cut {
        Cut::CheckpointPut => injector.arm_crash(0),
        Cut::BeforePrefixDelete => injector.arm_crash(1),
        Cut::BetweenDeleteBatches => injector.arm_crash(2),
        Cut::None | Cut::MidGc => {}
    }
    let checkpointed = db.checkpoint();
    match cut {
        Cut::CheckpointPut => {
            assert!(checkpointed.is_err(), "an undurable checkpoint fails");
            assert_eq!(log_store.object_count(), objects, "nothing deleted");
            assert_eq!(db.txn_log().len(), records + 1, "nothing truncated");
        }
        Cut::BeforePrefixDelete => {
            assert!(checkpointed.is_err());
            assert_eq!(log_store.object_count(), objects + 1);
        }
        Cut::BetweenDeleteBatches => {
            assert!(checkpointed.is_err());
            assert!(objects > 1_000, "two batches to cut between");
            assert_eq!(log_store.object_count(), objects + 1 - 1_000);
        }
        Cut::None | Cut::MidGc => {
            checkpointed.unwrap();
            assert_eq!(log_store.object_count(), 1, "the checkpoint alone");
        }
    }
    injector.heal();

    let db = Database::reopen(db.into_durable(), cfg).unwrap();
    db.gc_drain().unwrap();
    assert!(matches!(
        db.metrics()["pack.unknown_member_frees"],
        MetricValue::U64(0)
    ));
    let store = db.cloud_store(space).unwrap();
    assert_eq!(store.live_keys(), reachable(&db, table), "{cut:?}");
    assert_eq!(store.max_write_count(), 1);
    assert_eq!(log_store.max_write_count(), 1);
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let pages = (0..RING)
        .map(|page| pager.read_page(table, PageId(page), true).unwrap().body)
        .collect();
    db.rollback(rtxn).unwrap();
    Reopened {
        objects: store.live_keys(),
        pages,
    }
}

/// A checkpoint cut on its PUT, between its PUT and the prefix delete, or
/// between two delete batches, reopens to what a clean run reopens to:
/// the same data objects — none resurrected, none leaked — and the same
/// contents.
#[test]
fn a_cut_checkpoint_reopens_to_what_a_clean_one_does() {
    let clean = checkpoint_scenario(Cut::None, 200, 16);
    for cut in [Cut::CheckpointPut, Cut::BeforePrefixDelete] {
        assert_eq!(checkpoint_scenario(cut, 200, 16), clean, "{cut:?}");
    }
    // Over 1 000 log objects: the prefix delete takes two batches.
    let clean = checkpoint_scenario(Cut::None, 1_010, 16);
    assert_eq!(
        checkpoint_scenario(Cut::BetweenDeleteBatches, 1_010, 16),
        clean
    );
}

/// What a failed GC pass left owed is in the checkpoint's image; the
/// reopened instance deletes exactly that.
#[test]
fn a_checkpoint_after_a_failed_gc_pass_reclaims_the_rest() {
    let clean = checkpoint_scenario(Cut::None, 200, 1);
    assert_eq!(checkpoint_scenario(Cut::MidGc, 200, 1), clean);
}

/// Heavy multi-seed sweep: flaky stores plus crash cuts at varying
/// offsets, each followed by a reopen, alternating packed and per-page
/// commit flushes across seeds. Gated behind `--features torture` so
/// tier-1 stays fast; CI's `torture` job runs it with fixed seeds.
#[test]
#[cfg_attr(not(feature = "torture"), ignore)]
fn multi_seed_crash_sweep() {
    for seed in 0..4u64 {
        for &cut in &[10u64, 40, 160] {
            let mut cfg = faulted_cfg(FaultPlan::flaky(seed, 0.05));
            cfg.pack_pages = if seed % 2 == 0 { 8 } else { 1 };
            let db = Database::create(cfg.clone()).unwrap();
            let space = db.create_cloud_dbspace("clouddata").unwrap();
            db.create_table(TableId(1), space).unwrap();
            db.create_table(TableId(2), space).unwrap();

            let mut meta1 = TableMeta::new(TableId(1), "t1", schema(), 64);
            let txn = db.begin();
            load(&db, &mut meta1, txn, 150);
            db.commit(txn).unwrap();
            db.save_table_meta(&meta1).unwrap();
            db.checkpoint().unwrap();

            let inj = db.fault_injector(space).unwrap();
            let mut meta2 = TableMeta::new(TableId(2), "t2", schema(), 32);
            let doomed = db.begin();
            load(&db, &mut meta2, doomed, 600);
            inj.arm_crash(cut);
            // The commit may or may not reach the cut depending on seed
            // and offset; both outcomes must preserve the invariants.
            let committed_doomed = db.commit(doomed).is_ok();
            assert_eq!(db.shared().txns.active_count(), 0, "seed {seed} cut {cut}");

            inj.heal();
            let db = Database::reopen(db.into_durable(), cfg).unwrap();
            let meta1 = db.load_table_meta(TableId(1)).unwrap().unwrap();
            let rtxn = db.begin();
            let pager = db.pager(rtxn).unwrap();
            assert_eq!(
                meta1.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
                150,
                "seed {seed} cut {cut}: baseline lost"
            );
            db.rollback(rtxn).unwrap();
            let store = db.cloud_store(space).unwrap();
            assert_eq!(
                store.max_write_count(),
                1,
                "seed {seed} cut {cut} committed_doomed={committed_doomed}: double write"
            );
        }
    }
}
