//! Crash-recovery torture tests over the fault-injected object store.
//!
//! Each scenario scripts a hard cut at a specific point in the write path
//! — between upload and commit record, mid-parallel-flush, mid-GC — then
//! drives the paper's recovery machinery (log replay via
//! [`KeyGenerator::recover`], active-set polling via writer-restart GC)
//! and asserts the §3.3 invariants:
//!
//! * **never-write-twice** — no object key is ever PUT more than once,
//!   crash or no crash (`max_write_count() == 1`);
//! * **no live version deleted** — committed pages survive every recovery
//!   byte-for-byte;
//! * **no garbage leaked** — every uploaded-but-uncommitted object and
//!   every unconsumed key range is polled and reclaimed.
//!
//! Faults are scripted through [`FaultInjector`], so every scenario
//! replays deterministically under its fixed seed.

use std::sync::Arc;

use bytes::Bytes;
use iq_buffer::{BufferManager, FlushCause, FlushSink, FrameKey};
use iq_common::{
    DbSpaceId, IoCore, IqResult, NodeId, ObjectKey, PageId, PhysicalLocator, TableId, TxnId,
    VersionId,
};
use iq_objectstore::{
    ConsistencyConfig, FaultInjector, FaultPlan, ObjectBackend, ObjectStoreSim, RetryPolicy,
};
use iq_storage::{DbSpace, KeySource, Page, PageKind, StorageConfig};
use iq_txn::{
    Coordinator, ImmediateDeletion, LogRecord, Multiplex, NodeKeyCache, RfRb, TransactionManager,
    TxnLog,
};
use parking_lot::Mutex;

const SPACE: DbSpaceId = DbSpaceId(1);
const W1: NodeId = NodeId(1);

/// A cloud dbspace whose store is wrapped in a scripted fault injector.
fn faulted_cloud(plan: FaultPlan) -> (Arc<DbSpace>, Arc<FaultInjector>, Arc<ObjectStoreSim>) {
    let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
    let inj = Arc::new(FaultInjector::new(sim.clone(), plan));
    let space = Arc::new(DbSpace::cloud(
        SPACE,
        "cloud",
        StorageConfig::test_small(),
        inj.clone() as Arc<dyn ObjectBackend>,
        RetryPolicy::default(),
    ));
    (space, inj, sim)
}

fn page(id: u64, fill: u8) -> Page {
    Page::new(
        PageId(id),
        VersionId(1),
        PageKind::Data,
        Bytes::from(vec![fill; 48]),
    )
}

/// Flush `n` pages through the writer's key cache; returns the keys used.
fn flush_pages(
    space: &DbSpace,
    cache: &NodeKeyCache,
    n: u64,
    fill: u8,
) -> IqResult<Vec<ObjectKey>> {
    let mut keys = Vec::new();
    for i in 0..n {
        let k = KeySource::next_key(cache)?;
        space.write_page_with_key(&page(i, fill), k)?;
        keys.push(k);
    }
    Ok(keys)
}

/// Log + note a commit of `keys` so the active set trims and replay sees it.
fn commit_keys(log: &TxnLog, mx: &Multiplex, txn: TxnId, keys: &[ObjectKey]) {
    let mut rfrb = RfRb::new();
    for &k in keys {
        rfrb.record_alloc(SPACE, PhysicalLocator::Object(k));
    }
    log.append(LogRecord::Commit {
        txn,
        node: W1,
        identities: Vec::new(),
        rfrb: rfrb.clone(),
    });
    mx.coordinator.keygen().unwrap().note_commit(W1, &rfrb);
}

/// Scenario A — the writer dies *after* its pages are uploaded but
/// *before* the commit record lands. The uploads are durable garbage:
/// restart GC must poll the node's whole outstanding range, delete the
/// orphans, and leave every committed page untouched.
#[test]
fn crash_between_upload_and_commit_record() {
    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(W1).unwrap();
    let (space, inj, sim) = faulted_cloud(FaultPlan::none());

    // T1 commits ten pages: the live versions recovery must preserve.
    let cache = w1.key_cache().unwrap();
    let committed = flush_pages(&space, &cache, 10, 0xAA).unwrap();
    commit_keys(&log, &mx, TxnId(1), &committed);

    // T2 uploads fifteen pages... and the client dies before the commit
    // record. The objects are in the store; the log knows nothing.
    let orphans = flush_pages(&space, &cache, 15, 0xBB).unwrap();
    inj.arm_crash(0);
    assert!(space
        .write_page_with_key(&page(99, 0xCC), ObjectKey::from_offset(1 << 40))
        .is_err());
    w1.crash();

    // Node restart: heal the cut, then poll the outstanding range.
    inj.heal();
    let (polled, deleted) = w1.restart(&space).unwrap();
    assert!(
        polled >= orphans.len() as u64,
        "whole outstanding range polled"
    );
    assert_eq!(deleted, orphans.len() as u64, "every orphan reclaimed");

    // Invariants: live versions intact, garbage gone, no double writes.
    assert_eq!(sim.object_count(), committed.len());
    for &k in &committed {
        let got = space.read_page(PhysicalLocator::Object(k)).unwrap();
        assert_eq!(got.body[0], 0xAA, "live version survived recovery");
    }
    for &k in &orphans {
        assert!(!sim.exists(k), "uncommitted upload reclaimed");
    }
    assert_eq!(sim.max_write_count(), 1, "never-write-twice");
    assert!(mx.coordinator.keygen().unwrap().active_set(W1).is_empty());

    // Keys stay strictly monotone across the crash: the reclaimed range
    // is never re-issued.
    let max_before = mx.coordinator.keygen().unwrap().max_allocated();
    let fresh = flush_pages(&space, &w1.key_cache().unwrap(), 3, 0xDD).unwrap();
    for k in fresh {
        assert!(k.offset() >= max_before, "reclaimed keys are not reused");
    }
    assert_eq!(sim.max_write_count(), 1);
}

/// Commit-path flush sink: fresh key per page from the node cache, upload
/// through the (faulted) cloud dbspace, keys recorded for the assertions.
struct CloudFlushSink {
    space: Arc<DbSpace>,
    cache: Arc<NodeKeyCache>,
    written: Mutex<Vec<ObjectKey>>,
}

impl FlushSink for CloudFlushSink {
    fn flush(&self, _key: FrameKey, page: &Page, _txn: TxnId, _cause: FlushCause) -> IqResult<()> {
        let k = KeySource::next_key(self.cache.as_ref())?;
        self.space.write_page_with_key(page, k)?;
        self.written.lock().push(k);
        Ok(())
    }
}

/// Scenario B — the writer dies in the middle of a parallel commit flush:
/// some uploads landed, some died with the client. The flush must surface
/// the error (the transaction rolls back), and restart GC must reclaim
/// exactly the landed prefix. Recovery replays the log into a fresh
/// `KeyGenerator`, which must stay strictly monotone.
#[test]
fn crash_mid_parallel_flush() {
    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(W1).unwrap();
    let (space, inj, sim) = faulted_cloud(FaultPlan::none());

    // A committed baseline that must survive the torture.
    let cache = w1.key_cache().unwrap();
    let committed = flush_pages(&space, &cache, 6, 0x11).unwrap();
    commit_keys(&log, &mx, TxnId(1), &committed);

    // Twenty dirty pages under T2, flushed over four workers; the cut
    // trips after eight more store operations — mid-fan-out.
    let bm = BufferManager::new(64 * 1024 * 1024);
    let sink = CloudFlushSink {
        space: space.clone(),
        cache: cache.clone(),
        written: Mutex::new(Vec::new()),
    };
    let txn = TxnId(2);
    for i in 0..20u64 {
        let fk = FrameKey {
            table: TableId(7),
            page: PageId(i),
            epoch: 0,
        };
        bm.put_dirty(fk, page(i, 0x22), txn, &sink).unwrap();
    }
    inj.arm_crash(8);
    let err = bm.flush_txn_packed(txn, &sink, &IoCore::new(4));
    assert!(err.is_err(), "mid-flush crash must surface to the caller");
    let landed: Vec<ObjectKey> = sink.written.lock().clone();
    assert!(landed.len() < 20, "the cut stopped part of the fan-out");

    // Roll T2 back: its surviving dirty frames are discarded, never
    // re-flushed.
    bm.discard_txn(txn);
    assert_eq!(bm.dirty_count(txn), 0);

    // Writer restart: GC polls the node's outstanding allocations and
    // reclaims every landed orphan.
    w1.crash();
    inj.heal();
    let (_, deleted) = w1.restart(&space).unwrap();
    assert_eq!(deleted, landed.len() as u64, "landed prefix reclaimed");
    assert_eq!(sim.object_count(), committed.len());
    for &k in &committed {
        assert_eq!(
            space.read_page(PhysicalLocator::Object(k)).unwrap().body[0],
            0x11,
            "live version survived mid-flush crash"
        );
    }
    assert_eq!(
        sim.max_write_count(),
        1,
        "never-write-twice under parallel flush"
    );

    // Coordinator bounce: log replay rebuilds the generator; allocation
    // resumes strictly above everything ever issued.
    let max_before = mx.coordinator.keygen().unwrap().max_allocated();
    mx.coordinator.crash();
    mx.coordinator.recover();
    let kg = mx.coordinator.keygen().unwrap();
    assert_eq!(
        kg.max_allocated(),
        max_before,
        "replay reaches the same high-water mark"
    );
    let fresh = flush_pages(&space, &w1.key_cache().unwrap(), 2, 0x33).unwrap();
    for k in fresh {
        assert!(k.offset() >= max_before);
    }
    assert_eq!(sim.max_write_count(), 1);
}

/// Scenario C — the client dies while garbage collection is draining
/// the chain: the batched delete request is refused (a batch is one
/// request on the op clock, all-or-nothing like S3 `DeleteObjects`).
/// The entry's deletes must stay owed (not leaked), a healed pass must
/// finish the job idempotently, and the *new* live versions must never
/// be touched. (`crash_mid_batch_owes_the_rest_and_reclaims_once` covers
/// the multi-chunk cut where a prefix of batches lands before the crash.)
#[test]
fn crash_mid_gc() {
    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(W1).unwrap();
    let (space, inj, sim) = faulted_cloud(FaultPlan::none());
    let cache = w1.key_cache().unwrap();

    let tm = TransactionManager::new(Arc::clone(&log), Some(mx.coordinator.keygen().unwrap()));
    let sink = ImmediateDeletion::new();
    sink.register(space.clone());

    // T1 commits version 1 of five pages.
    let t1 = tm.begin(W1);
    let v1 = flush_pages(&space, &cache, 5, 0x44).unwrap();
    for &k in &v1 {
        tm.record_alloc(t1, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    tm.commit(t1, Vec::new()).unwrap();
    tm.gc_tick(&sink, usize::MAX).unwrap();

    // A long reader pins the snapshot, so T2's supersession defers to
    // the chain instead of deleting inline.
    let reader = tm.begin(W1);

    // T2 rewrites the five pages (version 2) and frees version 1.
    let t2 = tm.begin(W1);
    let v2 = flush_pages(&space, &cache, 5, 0x55).unwrap();
    for &k in &v2 {
        tm.record_alloc(t2, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    for &k in &v1 {
        tm.record_free(t2, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    tm.commit(t2, Vec::new()).unwrap();
    assert_eq!(tm.chain_len(), 1, "v1 deletions deferred behind the reader");

    // Reader ends; GC may now run — and the client dies before the
    // batched delete request lands.
    tm.rollback(reader, &sink).unwrap();
    inj.arm_crash(0);
    let err = tm.gc_tick(&sink, usize::MAX);
    assert!(err.is_err(), "mid-GC crash surfaces");
    assert!(
        tm.gc_stats().owed > 0,
        "interrupted deletes owed, not leaked"
    );
    let mid_stats = inj.fault_stats();
    assert!(mid_stats.refused_while_crashed > 0);

    // Heal and finish. Deletes are idempotent, so replaying the prefix
    // that already landed is safe.
    inj.heal();
    let deleted = tm.gc_tick(&sink, usize::MAX).unwrap();
    assert_eq!(deleted, v1.len(), "the whole RF set is reclaimed on retry");
    assert_eq!(tm.gc_stats().owed, 0);

    for &k in &v1 {
        assert!(!sim.exists(k), "superseded version reclaimed");
    }
    for &k in &v2 {
        assert_eq!(
            space.read_page(PhysicalLocator::Object(k)).unwrap().body[0],
            0x55,
            "live version never deleted by GC"
        );
    }
    assert_eq!(sim.object_count(), v2.len());
    assert_eq!(sim.max_write_count(), 1);

    // Coordinator crash mid-poll, after GC: replay rebuilds the same
    // view; committed keys never re-enter any active set.
    mx.coordinator.crash();
    mx.coordinator.recover();
    let set = mx.coordinator.keygen().unwrap().active_set(W1);
    for &k in v2.iter().chain(v1.iter()) {
        assert!(
            !set.contains(k.offset()),
            "committed keys trimmed after replay"
        );
    }
}

/// Scenario C′ — the cut lands *between* delete batches: the freed set
/// spans two ≤1000-key multi-object requests, the first lands, the
/// second is refused. Only the refused batch's keys may stay owed, so the
/// healed pass re-drives only the failed tail and every page is counted
/// exactly once.
#[test]
fn crash_mid_batch_owes_the_rest_and_reclaims_once() {
    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(W1).unwrap();
    let (space, inj, sim) = faulted_cloud(FaultPlan::none());
    let cache = w1.key_cache().unwrap();

    let tm = TransactionManager::new(Arc::clone(&log), Some(mx.coordinator.keygen().unwrap()));
    let sink = ImmediateDeletion::new();
    sink.register(space.clone());

    // 1005 committed pages: the GC will need two delete batches.
    const N: u64 = 1005;
    let t1 = tm.begin(W1);
    let v1 = flush_pages(&space, &cache, N, 0x44).unwrap();
    for &k in &v1 {
        tm.record_alloc(t1, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    tm.commit(t1, Vec::new()).unwrap();
    tm.gc_tick(&sink, usize::MAX).unwrap();

    // A reader pins the snapshot while T2 frees all 1005 pages.
    let reader = tm.begin(W1);
    let t2 = tm.begin(W1);
    for &k in &v1 {
        tm.record_free(t2, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    tm.commit(t2, Vec::new()).unwrap();
    assert_eq!(tm.chain_len(), 1);

    // Reader ends; the client dies after the first batch request.
    tm.rollback(reader, &sink).unwrap();
    inj.arm_crash(1);
    let err = tm.gc_tick(&sink, usize::MAX);
    assert!(err.is_err(), "mid-batch crash surfaces");
    assert_eq!(
        tm.gc_stats().owed,
        N - 1000,
        "the refused batch is owed, not leaked"
    );
    assert_eq!(
        sim.object_count(),
        (N - 1000) as usize,
        "the first 1000-key batch landed before the cut"
    );
    assert!(inj.fault_stats().refused_while_crashed > 0);

    // Heal: only the failed tail is re-driven, and the accounting stays
    // exactly-once across the two passes.
    inj.heal();
    let deleted = tm.gc_tick(&sink, usize::MAX).unwrap();
    assert_eq!(deleted as u64, N - 1000, "the landed batch is not owed");
    assert_eq!(tm.gc_stats().owed, 0);
    assert_eq!(sim.object_count(), 0, "no RF page leaked");
    assert_eq!(sim.max_write_count(), 1, "never-write-twice holds");
    let stats = tm.gc_stats();
    assert_eq!(stats.keys_deleted, N, "each page counted exactly once");
}

/// The three scripted cuts above, replayed under a *flaky* store as well:
/// transient faults plus retry/backoff must not break determinism or the
/// never-write-twice invariant.
#[test]
fn flaky_store_keeps_recovery_invariants() {
    let run = |seed: u64| -> (u64, u64, Vec<u64>) {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(Arc::clone(&log), 1, 0);
        let w1 = mx.secondary(W1).unwrap();
        let (space, inj, sim) = faulted_cloud(FaultPlan::flaky(seed, 0.15));
        let cache = w1.key_cache().unwrap();
        // The retry layer rides through the 15% fault rate.
        let retry = RetryPolicy::attempts(24);
        let mut committed = Vec::new();
        for i in 0..12u64 {
            let k = KeySource::next_key(cache.as_ref()).unwrap();
            let (image, _) = page(i, 0x66).seal(&StorageConfig::test_small()).unwrap();
            retry.put(inj.as_ref(), k, image).unwrap();
            committed.push(k);
        }
        commit_keys(&log, &mx, TxnId(1), &committed);
        // Uncommitted tail, then the cut.
        let orphan = KeySource::next_key(cache.as_ref()).unwrap();
        let (image, _) = page(91, 0x77).seal(&StorageConfig::test_small()).unwrap();
        retry.put(inj.as_ref(), orphan, image).unwrap();
        w1.crash();
        inj.heal();
        w1.restart(&space).unwrap();
        assert_eq!(sim.max_write_count(), 1, "retries never double-write");
        assert!(!sim.exists(orphan));
        (
            sim.object_count() as u64,
            inj.op_clock(),
            committed.iter().map(|k| k.offset()).collect(),
        )
    };
    // Deterministic replay: identical seed ⇒ identical end state.
    assert_eq!(run(5), run(5));
    // And the invariants hold across seeds.
    let (count, _, keys) = run(6);
    assert_eq!(count, keys.len() as u64);
}

/// Type-level guard that the recovery entry points used above are the
/// public ones (`Coordinator::recover` replays via `KeyGenerator::recover`).
#[allow(dead_code)]
fn _recover_is_public(log: Arc<TxnLog>) -> Coordinator {
    let c = Coordinator::new(log);
    c.recover();
    c
}

/// A `LogSink` that fails commit-record appends on demand — the
/// manager-level stand-in for a durable-log PUT exhausting its retry
/// budget.
struct FailingCommitSink {
    fail_commits: std::sync::atomic::AtomicBool,
    appends: std::sync::atomic::AtomicU64,
}

impl iq_txn::LogSink for FailingCommitSink {
    fn append(
        &self,
        kind: iq_txn::RecordKind,
        _record: iq_txn::LogBatch,
        _lsn: u64,
    ) -> IqResult<()> {
        self.appends
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if kind == iq_txn::RecordKind::Commit
            && self.fail_commits.load(std::sync::atomic::Ordering::Relaxed)
        {
            Err(iq_common::IqError::Io("durable log PUT failed".into()))
        } else {
            Ok(())
        }
    }
}

/// Scenario E — the durable-log sink rejects the commit record (PUT past
/// its retry budget). `commit` must fail, the transaction must
/// stay active so a normal rollback reclaims its RB pages, and the
/// phantom in-memory commit record (appended before the sink ran —
/// memory-first ordering) must be dropped by reopen-time reconciliation.
#[test]
fn failed_commit_sink_rolls_back_and_reconciles() {
    let log = Arc::new(TxnLog::new());
    let sink = Arc::new(FailingCommitSink {
        fail_commits: std::sync::atomic::AtomicBool::new(true),
        appends: std::sync::atomic::AtomicU64::new(0),
    });
    log.set_sink(sink.clone());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(W1).unwrap();
    let (space, _inj, sim) = faulted_cloud(FaultPlan::none());
    let cache = w1.key_cache().unwrap();

    let tm = TransactionManager::new(Arc::clone(&log), Some(mx.coordinator.keygen().unwrap()));
    let del = ImmediateDeletion::new();
    del.register(space.clone());

    // T1 uploads three pages, then its commit record fails to become
    // durable: the commit must error and leave the txn active.
    let t1 = tm.begin(W1);
    let keys = flush_pages(&space, &cache, 3, 0xEE).unwrap();
    for &k in &keys {
        tm.record_alloc(t1, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    assert!(
        tm.commit(t1, Vec::new()).is_err(),
        "un-durable commit fails"
    );
    assert_eq!(tm.active_count(), 1, "failed commit stays active");
    assert_eq!(tm.chain_len(), 0, "nothing reached the committed chain");

    // The in-memory log holds the phantom commit record (memory-first
    // ordering); reconciliation against an empty durable commit set
    // must drop exactly that record.
    let phantom_drops = log.retain_commits(|_| false);
    assert_eq!(phantom_drops, 1, "exactly the phantom record dropped");

    // Rollback works like any other commit-path failure: RB pages are
    // deleted immediately, never-write-twice holds throughout.
    tm.rollback(t1, &del).unwrap();
    assert_eq!(tm.active_count(), 0);
    for &k in &keys {
        assert!(!sim.exists(k), "rolled-back upload reclaimed");
    }
    assert_eq!(sim.max_write_count(), 1, "never-write-twice");

    // A healed sink commits cleanly and the record is NOT dropped by a
    // reconciliation that sees it durably.
    sink.fail_commits
        .store(false, std::sync::atomic::Ordering::Relaxed);
    let t2 = tm.begin(W1);
    let keys2 = flush_pages(&space, &cache, 2, 0xDD).unwrap();
    for &k in &keys2 {
        tm.record_alloc(t2, SPACE, PhysicalLocator::Object(k))
            .unwrap();
    }
    tm.commit(t2, Vec::new()).unwrap();
    assert_eq!(
        log.retain_commits(|txn| txn == t2),
        0,
        "durable commit kept"
    );
    assert_eq!(tm.chain_len(), 1);
}
