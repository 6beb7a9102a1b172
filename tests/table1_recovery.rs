//! The paper's Table 1, asserted row by row: every clock tick's expected
//! active set, through allocation, commit, coordinator crash/recovery,
//! rollback (without notification) and writer restart.

use std::sync::Arc;

use bytes::Bytes;
use cloudiq::common::{DbSpaceId, NodeId, ObjectKey, PageId, PhysicalLocator, TxnId, VersionId};
use cloudiq::objectstore::{ConsistencyConfig, ObjectStoreSim, RetryPolicy};
use cloudiq::storage::{DbSpace, KeySource, Page, PageKind, StorageConfig};
use cloudiq::txn::{LogRecord, Multiplex, RfRb, TxnLog};

/// The paper numbers keys 101–200; our generator starts at offset 0, so
/// the assertions work with `(start, end)` runs rather than literals.
#[test]
fn table1_clock_by_clock() {
    let log = Arc::new(TxnLog::new());
    let mx = Multiplex::new(Arc::clone(&log), 1, 0);
    let w1 = mx.secondary(NodeId(1)).unwrap();
    let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
    let space = DbSpace::cloud(
        DbSpaceId(1),
        "cloud",
        StorageConfig::test_small(),
        store.clone(),
        RetryPolicy::default(),
    );
    let active = |mx: &Multiplex| mx.coordinator.keygen().unwrap().active_set(NodeId(1));

    // Clock 50 — checkpoint; active set empty.
    mx.coordinator.checkpoint().unwrap();
    assert!(active(&mx).is_empty());

    // Clock 60 — a range is allocated to W1 (the paper's 101–200).
    let cache = w1.key_cache().unwrap();
    let flush = |n: u64| -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for i in 0..n {
            let k = KeySource::next_key(cache.as_ref()).unwrap();
            lo = lo.min(k.offset());
            hi = hi.max(k.offset());
            let page = Page::new(
                PageId(i),
                VersionId(1),
                PageKind::Data,
                Bytes::from(vec![1u8; 32]),
            );
            space.write_page_with_key(&page, k).unwrap();
        }
        (lo, hi)
    };

    // Clock 70 — T1 flushes 30 objects; range lands in T1's RB bitmap.
    let (t1_lo, t1_hi) = flush(30);
    let after_alloc = active(&mx);
    assert!(after_alloc.contains(t1_lo) && after_alloc.contains(t1_hi));
    let range_end = after_alloc.runs().last().unwrap().1;

    // Clock 80 — T2 flushes 20 objects.
    let (t2_lo, t2_hi) = flush(20);
    assert_eq!(t2_lo, t1_hi + 1, "ranges are contiguous");

    // Clock 90 — T1 commits: RF/RB flushed (logged), active set trimmed.
    let mut rfrb = RfRb::new();
    for k in t1_lo..=t1_hi {
        rfrb.record_alloc(
            DbSpaceId(1),
            PhysicalLocator::Object(ObjectKey::from_offset(k)),
        );
    }
    log.append(LogRecord::Commit {
        txn: TxnId(1),
        node: NodeId(1),
        identities: Vec::new(),
        rfrb: rfrb.clone(),
    });
    mx.coordinator
        .keygen()
        .unwrap()
        .note_commit(NodeId(1), &rfrb);
    assert_eq!(
        active(&mx).runs(),
        &[(t1_hi + 1, range_end)],
        "committed range trimmed"
    );

    // Clock 110 — coordinator crashes.
    mx.coordinator.crash();
    assert!(mx.coordinator.keygen().is_err());

    // Clock 120 — recovery replays checkpoint → allocation → commit.
    mx.coordinator.recover();
    assert_eq!(
        active(&mx).runs(),
        &[(t1_hi + 1, range_end)],
        "recovered active set matches the paper's clock-120 row"
    );

    // Clock 130 — T2 rolls back: objects deleted immediately, active set
    // deliberately NOT updated.
    for k in t2_lo..=t2_hi {
        space.poll_delete(ObjectKey::from_offset(k)).unwrap();
    }
    assert_eq!(
        active(&mx).runs(),
        &[(t1_hi + 1, range_end)],
        "rollback leaves the set alone"
    );
    assert_eq!(store.object_count(), 30, "only T1's objects remain");

    // Clock 140/150 — W1 crashes; restart polls the whole outstanding
    // range; afterwards the set is empty and only committed data lives.
    w1.crash();
    let (polled, deleted) = w1.restart(&space).unwrap();
    assert_eq!(
        polled,
        range_end - (t1_hi + 1),
        "whole outstanding range polled"
    );
    assert_eq!(
        deleted, 0,
        "T2's objects were already gone — the re-poll is a no-op"
    );
    assert!(active(&mx).is_empty());
    assert_eq!(store.object_count(), 30);
    assert_eq!(store.max_write_count(), 1);
}
