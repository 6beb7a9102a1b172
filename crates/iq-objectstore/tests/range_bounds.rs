//! Ranged-GET boundary behaviour and error-class pinning.
//!
//! Composite members are served with `get_range`; these tests pin the
//! edges the packed read path depends on:
//!
//! * arithmetic never wraps — `offset + len` is computed in u64, so a
//!   request whose sum overflows u32 (or a 32-bit usize) is a clean
//!   `Invalid`, not a panic or a bogus slice;
//! * a range ending exactly at EOF succeeds; one byte past EOF fails;
//! * error *classes* are stable: past-EOF is permanent (`Invalid`, never
//!   retried), a missing object is transient (`ObjectNotFound`, retried
//!   up to the budget, then `RetriesExhausted`) — so the retry layer can
//!   never loop on an error that cannot heal;
//! * a ranged GET racing a composite delete under faults terminates with
//!   a bounded error instead of spinning.

use std::sync::Arc;

use bytes::Bytes;
use iq_common::{IqError, ObjectKey};
use iq_objectstore::{
    ConsistencyConfig, FaultInjector, FaultPlan, IoOp, IoReactor, ObjectBackend, ObjectStoreSim,
    ReactorStore, RetryPolicy,
};

fn store_with_object(len: usize) -> (Arc<ObjectStoreSim>, ObjectKey) {
    let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
    let key = ObjectKey::from_offset(1);
    store.put(key, Bytes::from(vec![7u8; len])).unwrap();
    (store, key)
}

#[test]
fn offset_plus_len_overflowing_u32_is_invalid_not_a_panic() {
    let (store, key) = store_with_object(1024);
    // u32::MAX + u32::MAX wraps in 32-bit arithmetic; the store must
    // widen first and report a clean out-of-range error.
    let err = store.get_range(key, u32::MAX, u32::MAX).unwrap_err();
    assert!(matches!(err, IqError::Invalid(_)), "got {err:?}");
    // Same guarantee through the reactor path.
    let reactor = ReactorStore::new(Arc::new(IoReactor::new()), store.clone());
    let err = reactor.get_range(key, u32::MAX, u32::MAX).unwrap_err();
    assert!(matches!(err, IqError::Invalid(_)), "got {err:?}");
}

#[test]
fn range_ending_exactly_at_eof_succeeds() {
    let (store, key) = store_with_object(1024);
    let read = store.get_range(key, 1000, 24).unwrap();
    assert_eq!(read.len(), 24);
    // Zero-length read at EOF is the degenerate in-bounds case.
    let read = store.get_range(key, 1024, 0).unwrap();
    assert!(read.is_empty());
}

#[test]
fn range_past_eof_is_permanent_and_never_retried() {
    let (store, key) = store_with_object(1024);
    let err = store.get_range(key, 1000, 25).unwrap_err();
    assert!(matches!(err, IqError::Invalid(_)), "got {err:?}");
    assert!(
        !err.is_transient(),
        "past-EOF must be permanent or the retry loop would spin on it"
    );
    // Through the retry layer: exactly one attempt reaches the store.
    store.reset_stats();
    let before = store.stats.snapshot().op(IoOp::Get).count;
    let retry = RetryPolicy::attempts(8);
    let err = retry.get_range(store.as_ref(), key, 1000, 25).unwrap_err();
    assert!(matches!(err, IqError::Invalid(_)), "got {err:?}");
    let after = store.stats.snapshot().op(IoOp::Get).count;
    assert_eq!(
        after - before,
        0,
        "a permanent range error must not burn retry attempts as GETs"
    );
    assert_eq!(store.stats.snapshot().retries, 0, "no backoff charged");
}

#[test]
fn missing_object_is_transient_and_exhausts_the_budget() {
    let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
    let key = ObjectKey::from_offset(42);
    let retry = RetryPolicy::attempts(3);
    let err = retry.get_range(store.as_ref(), key, 0, 16).unwrap_err();
    match err {
        IqError::RetriesExhausted { key: k, attempts } => {
            assert_eq!(k, key);
            assert_eq!(attempts, 3, "the budget bounds the loop");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// A ranged GET racing the composite's deletion under a flaky store: the
/// reader sees transient faults and, after the delete lands, misses —
/// every outcome is a bounded, classifiable error (a successful read, a
/// `RetriesExhausted`, or a permanent `Invalid`), never a hang.
#[test]
fn ranged_get_racing_delete_under_faults_terminates() {
    let (sim, key) = store_with_object(4096);
    let inj = Arc::new(FaultInjector::new(
        sim.clone() as Arc<dyn ObjectBackend>,
        FaultPlan::flaky(3, 0.4),
    ));
    let backend: Arc<dyn ObjectBackend> = Arc::new(ReactorStore::new(
        Arc::new(IoReactor::new()),
        inj.clone() as Arc<dyn ObjectBackend>,
    ));
    let retry = RetryPolicy {
        seed: 3,
        ..RetryPolicy::attempts(6)
    };
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut outcomes = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                outcomes.push(retry.get_range(backend.as_ref(), key, 1024, 512));
            }
            outcomes
        });
        s.spawn(|| {
            // Let the reader race a while, then delete the composite.
            for _ in 0..50 {
                std::hint::spin_loop();
            }
            retry.delete_batch(backend.as_ref(), &[key]);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let outcomes = reader.join().unwrap();
        for o in outcomes {
            match o {
                Ok(read) => assert_eq!(read.len(), 512),
                Err(IqError::RetriesExhausted { attempts, .. }) => {
                    assert!(attempts <= 6, "budget bounds every failure")
                }
                Err(e) => panic!("unexpected error class {e:?}"),
            }
        }
    });
    // After the dust settles the key is gone: a final read is a bounded
    // transient failure, not a loop.
    let err = retry
        .get_range(backend.as_ref(), key, 1024, 512)
        .unwrap_err();
    assert!(
        matches!(err, IqError::RetriesExhausted { .. }),
        "got {err:?}"
    );
}
