//! End-to-end behaviour of the submission/completion I/O core: depth
//! accounting on morsel scans, the buffer traffic of one cold scan,
//! group commit through the durable log, compaction-claim hygiene under
//! faults, and composite keying across dbspaces.

use std::sync::atomic::Ordering;
use std::sync::Barrier;

use cloudiq::common::{PageId, TableId};
use cloudiq::core::{Database, DatabaseConfig, GroupCommitMode};
use cloudiq::engine::expr::Expr;
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::engine::PageStore;
use cloudiq::objectstore::{FaultPlan, RetryPolicy};
use cloudiq::storage::PageKind;

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

/// The acceptance pin for the reactor refactor: submission-first depth
/// accounting means a morsel scan's whole batch counts as in flight the
/// moment it is submitted, so the observed peak exceeds the lane count —
/// the depth a thread-per-op pool could never report.
#[test]
fn scan_submission_depth_exceeds_worker_count() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.scan_workers = 2;
    // No OCM: its SSD cache would absorb the scan's misses and the
    // store-traffic assertion below would see nothing.
    cfg.ocm_bytes = 0;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();

    // 600 rows at 64 rows per group → ~10 row-group morsels, far more
    // than the 2 scan lanes.
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 600);
    db.commit(txn).unwrap();

    // Drop the RAM cache so the scan's reads actually reach the store
    // (through the reactor) instead of being absorbed by buffer hits.
    db.shared().buffer.clear();
    let before = db.io_stats();
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    assert_eq!(
        meta.scan(&pager, &[0, 1], None, db.meter()).unwrap().len(),
        600
    );
    db.rollback(rtxn).unwrap();

    let after = db.io_stats();
    assert!(
        after.in_flight_peak > 2,
        "submission depth must exceed the 2 scan lanes, got {}",
        after.in_flight_peak
    );
    assert!(
        after.submitted > before.submitted,
        "the scan's store traffic flows through the reactor"
    );
    // `failed` is a subset of `completed` (every descriptor completes,
    // some completions carry errors), so quiescence means equality here.
    assert_eq!(after.completed, after.submitted);
}

/// A cold scan asks the buffer for each page once: its first surviving
/// group's pages are demand misses, every later group's are non-demand
/// loads, and no page is loaded and then re-read as a hit.
#[test]
fn a_cold_scan_loads_each_page_once_and_hits_none() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.scan_workers = 2;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    assert!(
        db.shared().ocm_for(space).is_some(),
        "the scan reads through an OCM"
    );
    db.create_table(TableId(1), space).unwrap();

    // 600 rows at 64 rows per group: 10 groups. `k >= 200` zone-prunes
    // groups 0–2, so group 3 is the first survivor, and each of the 7
    // survivors reads its key page, then (its mask non-empty) its value
    // page.
    let mut meta = TableMeta::new(TableId(1), "t", schema(), 64);
    let txn = db.begin();
    load(&db, &mut meta, txn, 600);
    db.commit(txn).unwrap();

    db.shared().buffer.clear();
    let before = db.buffer_stats().lifetime_snapshot();
    let scan = db.scan_stats();
    let pages_before = scan.predicate_pages_read.load(Ordering::Relaxed)
        + scan.projection_pages_read.load(Ordering::Relaxed);
    let rtxn = db.begin();
    let pager = db.pager(rtxn).unwrap();
    let pred = Expr::ge(Expr::col(0), Expr::lit_i64(200));
    let out = meta.scan(&pager, &[0, 1], Some(&pred), db.meter()).unwrap();
    assert_eq!(out.len(), 400);
    db.rollback(rtxn).unwrap();

    let after = db.buffer_stats().lifetime_snapshot();
    let pages_read = scan.predicate_pages_read.load(Ordering::Relaxed)
        + scan.projection_pages_read.load(Ordering::Relaxed)
        - pages_before;
    assert_eq!(pages_read, 7 * 2);
    assert_eq!(after.hits - before.hits, 0, "a page was read twice");
    assert_eq!(after.demand_misses - before.demand_misses, 2);
    let loads = after.demand_misses - before.demand_misses + after.prefetched - before.prefetched;
    assert_eq!(loads, pages_read);
}

/// Concurrent commits gather into one log PUT. The baseline is the log's
/// own append count: every append is either a PUT or a rider of one. The
/// ≥2× acceptance ratio for the ablation comes from exactly this effect.
#[test]
fn group_commit_coalesces_concurrent_log_appends() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.group_commit = GroupCommitMode::Coalesced;
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    const THREADS: usize = 6;
    for t in 0..THREADS {
        db.create_table(TableId(t as u32 + 1), space).unwrap();
    }
    let gate = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let gate = &gate;
            s.spawn(move || {
                let table = TableId(t as u32 + 1);
                let txn = db.begin();
                {
                    let pager = db.pager(txn).unwrap();
                    for p in 0..4u64 {
                        pager
                            .write_page(
                                table,
                                PageId(p),
                                PageKind::Data,
                                bytes::Bytes::from(vec![t as u8; 256]),
                                txn,
                            )
                            .unwrap();
                    }
                }
                // Pre-register with the gather (idempotent: commit's own
                // window nests as a no-op) so the coalescing outcome does
                // not depend on thread scheduling.
                let window = db.durable_log().map(|dl| dl.enter_commit());
                gate.wait();
                db.commit(txn).unwrap();
                drop(window);
            });
        }
    });
    let stats = db
        .durable_log()
        .expect("group commit wires the log")
        .stats();
    assert!(
        stats.puts < stats.appends,
        "coalescing must save log PUTs ({} vs {} appends)",
        stats.puts,
        stats.appends
    );
    assert_eq!(
        stats.appends,
        stats.puts + stats.coalesced_records,
        "every append is a PUT or rides one"
    );
}

/// `Off` keeps the pre-reactor behaviour: no uploader, no extra traffic.
#[test]
fn group_commit_off_adds_nothing() {
    let db = Database::create(DatabaseConfig::test_small()).unwrap();
    assert!(db.durable_log().is_none());
}

/// Satellite regression: a compaction round that fails mid-flight (here:
/// every PUT faulted, retry budget exhausted) must release its claims so
/// the donor composites stay visible to later rounds and to the GC. A
/// leaked claim would hide them forever.
#[test]
fn failed_compaction_round_releases_its_claims() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 4;
    cfg.retention = None;
    cfg.fault = Some(FaultPlan::none());
    cfg.retry = RetryPolicy::attempts(2);
    let db = Database::create(cfg).unwrap();
    let space = db.create_cloud_dbspace("clouddata").unwrap();
    db.create_table(TableId(1), space).unwrap();

    // Build composites, then kill most members by overwriting a subset
    // of pages — the donors turn sparse (live fraction ≤ 0.25).
    let body = |b: u8| bytes::Bytes::from(vec![b; 256]);
    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        for p in 0..16u64 {
            pager
                .write_page(TableId(1), PageId(p), PageKind::Data, body(1), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();
    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        // Overwrite 3 of every 4 pages: each original composite keeps
        // one live member.
        for p in (0..16u64).filter(|p| p % 4 != 0) {
            pager
                .write_page(TableId(1), PageId(p), PageKind::Data, body(2), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db.gc_drain().unwrap();

    let registry = db.shared().txns.composites();
    let claims_before = registry.stats().compaction_claims;

    // Break the store: every PUT faults, the small retry budget gives
    // out, the round's commit fails and rolls back.
    let inj = db.fault_injector(space).unwrap();
    inj.set_plan(FaultPlan {
        put_fail_rate: 1.0,
        seed: 9,
        ..FaultPlan::none()
    });
    let err = db.compact_tick(0.5, 100);
    assert!(err.is_err(), "a fully faulted store must fail the round");
    let claims_after = registry.stats().compaction_claims;
    assert!(
        claims_after > claims_before,
        "the failed round did claim candidates"
    );

    // Heal and retry: the same candidates must be claimable again —
    // which is only possible if the failed round released its claims.
    inj.set_plan(FaultPlan::none());
    let rewritten = db.compact_tick(0.5, 100).unwrap();
    assert!(
        rewritten > 0,
        "released claims make the donors compactable again"
    );
    db.gc_drain().unwrap();
    assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
}

/// Composites born on different dbspaces never collide in the registry:
/// the single Object Key Generator hands every dbspace keys from one
/// monotone sequence, so key offsets are globally unique.
#[test]
fn composites_on_two_dbspaces_never_cross_talk() {
    let mut cfg = DatabaseConfig::test_small();
    cfg.pack_pages = 4;
    cfg.retention = None;
    let db = Database::create(cfg).unwrap();
    let s1 = db.create_cloud_dbspace("cloud-a").unwrap();
    let s2 = db.create_cloud_dbspace("cloud-b").unwrap();
    db.create_table(TableId(1), s1).unwrap();
    db.create_table(TableId(2), s2).unwrap();

    let body = |b: u8| bytes::Bytes::from(vec![b; 256]);
    for (table, fill) in [(TableId(1), 1u8), (TableId(2), 2u8)] {
        let txn = db.begin();
        {
            let pager = db.pager(txn).unwrap();
            for p in 0..8u64 {
                pager
                    .write_page(table, PageId(p), PageKind::Data, body(fill), txn)
                    .unwrap();
            }
        }
        db.commit(txn).unwrap();
    }
    // Supersede table 1's pages entirely; table 2 must keep every one.
    let txn = db.begin();
    {
        let pager = db.pager(txn).unwrap();
        for p in 0..8u64 {
            pager
                .write_page(TableId(1), PageId(p), PageKind::Data, body(3), txn)
                .unwrap();
        }
    }
    db.commit(txn).unwrap();
    db.gc_drain().unwrap();

    let stats = db.shared().txns.composites().stats();
    assert_eq!(
        stats.unknown_member_frees, 0,
        "frees routed by key offset alone must always find their composite"
    );
    assert_eq!(stats.rejected_empty, 0);
    // Table 2's data survived table 1's churn.
    db.shared().buffer.clear();
    let txn = db.begin();
    let pager = db.pager(txn).unwrap();
    for p in 0..8u64 {
        use cloudiq::engine::PageStore;
        let page = pager.read_page(TableId(2), PageId(p), true).unwrap();
        assert_eq!(page.body, body(2), "page {p} on dbspace 2");
    }
    db.rollback(txn).unwrap();
}
