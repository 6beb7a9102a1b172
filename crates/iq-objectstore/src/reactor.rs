//! The backend reactor: one gate every object-store request passes.
//!
//! Every object-store request — scan morsel GETs, composite-member ranged
//! GETs, commit-flush PUTs, GC multi-object deletes, OCM populates, log
//! uploads — goes through one shared [`IoReactor`]. It is a gate, not a
//! queue: a request arrives, takes the gate, runs **on the thread that
//! issued it**, and leaves. One request runs at a time, in the order the
//! gate was taken, and each is counted on its own (`io.submitted` /
//! `io.completed` / `io.failed`; `io.queue_depth_peak` is the most
//! arrivals ever seen waiting to start, the newcomer included).
//!
//! ## Determinism
//!
//! The simulated op clock advances with each executed request and the
//! gate admits one request at a time, so op-clock order and journal order
//! are the order of arrival at the gate. A single-threaded caller (the
//! golden Table-1 walkthrough) therefore drives exactly the backend call
//! sequence a direct-call stack would, and the trace stays
//! byte-identical. Retries remain the caller's (`RetryPolicy`'s)
//! business: each attempt is its own request, fault injection below the
//! gate draws per request, and backoffs are charged through
//! [`ObjectBackend::note_backoff`], which is accounting and bypasses it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use iq_common::{IoStats, IqResult, ObjectKey, SimDuration};
use parking_lot::Mutex;

use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::StatsSnapshot;
use crate::object_store::ObjectStoreSim;
use crate::traits::{ObjectBackend, RangeRead};

/// The shared request gate. One instance serves every cloud dbspace of a
/// database (plus the durable transaction log), so a single arrival order
/// covers all of their traffic.
#[derive(Debug, Default)]
pub struct IoReactor {
    gate: Mutex<()>,
    /// Requests that have arrived and not started yet.
    waiting: AtomicUsize,
    stats: Option<Arc<IoStats>>,
}

impl IoReactor {
    /// A reactor with no metrics attachment.
    pub fn new() -> Self {
        Self::default()
    }

    /// A reactor accounting request traffic into `stats` (the `io.*`
    /// metrics source).
    pub fn with_stats(stats: Arc<IoStats>) -> Self {
        Self {
            stats: Some(stats),
            ..Self::default()
        }
    }

    /// Run one request through the gate on the calling thread; `ok` says
    /// whether its outcome counts as a success (`io.failed` otherwise).
    fn run<T>(&self, op: impl FnOnce() -> T, ok: impl FnOnce(&T) -> bool) -> T {
        let depth = self.waiting.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(stats) = &self.stats {
            stats.note_request_submitted(depth);
        }
        let gate = self.gate.lock();
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        // Held across exactly one backend call by design: the gate is the
        // sequencing point, not a cache lock.
        let out = op(); // LOCK-OK: the gate sequences requests
        drop(gate);
        if let Some(stats) = &self.stats {
            stats.note_request_completed(ok(&out));
        }
        out
    }
}

/// An [`ObjectBackend`] adapter that passes every operation through a
/// shared [`IoReactor`]. This is what sits between the retry layer and
/// the (possibly fault-injecting) store: each retry attempt is a fresh
/// request, faults draw per request, and bookkeeping calls
/// (`stats_snapshot`, `resident_bytes`, `note_backoff`) pass around the
/// gate — a backoff is accounting, not I/O.
pub struct ReactorStore {
    reactor: Arc<IoReactor>,
    inner: Arc<dyn ObjectBackend>,
}

impl std::fmt::Debug for ReactorStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorStore").finish()
    }
}

impl ReactorStore {
    /// Wrap `inner` so its traffic passes through `reactor`.
    pub fn new(reactor: Arc<IoReactor>, inner: Arc<dyn ObjectBackend>) -> Self {
        Self { reactor, inner }
    }

    /// The one cloud-store stack, below the caller's retry policy:
    /// reactor → [`FaultInjector`] (when `fault` sets a plan) → `sim`.
    /// Returns the backend to hand to a dbspace, OCM or log, plus the
    /// injector for crash scripts to arm. The injector is client-side
    /// state: a reopened instance builds a fresh one (a restarted node is
    /// healed).
    pub fn stack(
        reactor: Arc<IoReactor>,
        sim: Arc<ObjectStoreSim>,
        fault: Option<FaultPlan>,
    ) -> (Arc<dyn ObjectBackend>, Option<Arc<FaultInjector>>) {
        let injector = fault.map(|plan| Arc::new(FaultInjector::new(sim.clone(), plan)));
        let below: Arc<dyn ObjectBackend> = match &injector {
            Some(injector) => injector.clone(),
            None => sim,
        };
        (Arc::new(Self::new(reactor, below)), injector)
    }
}

impl ObjectBackend for ReactorStore {
    fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
        self.reactor
            .run(|| self.inner.put(key, data), Result::is_ok)
    }

    fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
        self.reactor.run(|| self.inner.get(key), Result::is_ok)
    }

    fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<RangeRead> {
        self.reactor
            .run(|| self.inner.get_range(key, offset, len), Result::is_ok)
    }

    fn delete(&self, key: ObjectKey) -> IqResult<()> {
        self.reactor.run(|| self.inner.delete(key), Result::is_ok)
    }

    // Per-key outcomes and a HEAD verdict are answers, not failed requests.
    fn delete_batch(&self, keys: &[ObjectKey]) -> Vec<(ObjectKey, IqResult<()>)> {
        self.reactor.run(|| self.inner.delete_batch(keys), |_| true)
    }

    fn exists(&self, key: ObjectKey) -> bool {
        self.reactor.run(|| self.inner.exists(key), |_| true)
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }

    fn note_backoff(&self, ops: u64, wait: SimDuration) {
        self.inner.note_backoff(ops, wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::ConsistencyConfig;
    use iq_common::IqError;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    fn stack() -> (Arc<IoStats>, Arc<ObjectStoreSim>, ReactorStore) {
        let stats = Arc::new(IoStats::new());
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let reactor = Arc::new(IoReactor::with_stats(Arc::clone(&stats)));
        let store = ReactorStore::new(reactor, sim.clone());
        (stats, sim, store)
    }

    #[test]
    fn round_trips_every_request_kind() {
        let (_, sim, store) = stack();
        store
            .put(key(1), Bytes::from_static(b"hello world"))
            .unwrap();
        assert_eq!(
            store.get(key(1)).unwrap(),
            Bytes::from_static(b"hello world")
        );
        let r = store.get_range(key(1), 6, 5).unwrap();
        assert_eq!(r.data, Bytes::from_static(b"world"));
        assert_eq!(r.fetched, 5, "range-native path must survive the reactor");
        assert!(store.exists(key(1)));
        assert!(!store.exists(key(2)));
        store.put(key(2), Bytes::from_static(b"x")).unwrap();
        store.put(key(3), Bytes::from_static(b"y")).unwrap();
        let out = store.delete_batch(&[key(2), key(3)]);
        assert!(out.iter().all(|(_, r)| r.is_ok()));
        store.delete(key(1)).unwrap();
        assert_eq!(sim.object_count(), 0);
    }

    #[test]
    fn errors_pass_through_with_their_class() {
        let (_, _, store) = stack();
        // Strong consistency + absent key: permanent-looking NotFound from
        // the sim (transient by policy — the visibility contract).
        assert!(matches!(store.get(key(9)), Err(IqError::ObjectNotFound(_))));
        store.put(key(9), Bytes::from_static(b"abcd")).unwrap();
        assert!(matches!(
            store.get_range(key(9), 2, 10),
            Err(IqError::Invalid(_))
        ));
        let dup = store.put(key(9), Bytes::from_static(b"e"));
        assert!(matches!(dup, Err(IqError::DuplicateObjectKey(_))));
    }

    #[test]
    fn reactor_accounts_request_traffic() {
        let (stats, _, store) = stack();
        store.put(key(1), Bytes::from_static(b"a")).unwrap();
        store.get(key(1)).unwrap();
        let _ = store.get(key(404));
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.failed, 1);
        assert!(snap.queue_depth_peak >= 1);
    }

    /// A backend that flags any two calls overlapping and records call
    /// order. Every DELETE is refused, so a batch delete has failing keys.
    struct Probe {
        sim: ObjectStoreSim,
        busy: AtomicBool,
        overlapped: AtomicBool,
        calls: Mutex<Vec<ObjectKey>>,
    }

    impl Probe {
        fn call<T>(&self, key: ObjectKey, op: impl FnOnce() -> T) -> T {
            let overlapping = self.busy.swap(true, Ordering::SeqCst);
            self.overlapped.fetch_or(overlapping, Ordering::SeqCst);
            self.calls.lock().push(key);
            std::thread::yield_now();
            let out = op();
            self.busy.store(false, Ordering::SeqCst);
            out
        }
    }

    impl ObjectBackend for Probe {
        fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
            self.call(key, || self.sim.put(key, data))
        }
        fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
            self.call(key, || self.sim.get(key))
        }
        fn delete(&self, key: ObjectKey) -> IqResult<()> {
            self.call(key, || Err(IqError::Throttled("probe".into())))
        }
        fn exists(&self, key: ObjectKey) -> bool {
            self.call(key, || self.sim.exists(key))
        }
        fn resident_bytes(&self) -> u64 {
            self.sim.resident_bytes()
        }
        fn stats_snapshot(&self) -> StatsSnapshot {
            self.sim.stats_snapshot()
        }
        fn reset_stats(&self) {}
    }

    #[test]
    fn concurrent_callers_never_overlap_and_each_request_is_counted() {
        let stats = Arc::new(IoStats::new());
        let probe = Arc::new(Probe {
            sim: ObjectStoreSim::new(ConsistencyConfig::strong()),
            busy: AtomicBool::new(false),
            overlapped: AtomicBool::new(false),
            calls: Mutex::new(Vec::new()),
        });
        let reactor = Arc::new(IoReactor::with_stats(Arc::clone(&stats)));
        let store = ReactorStore::new(reactor, probe.clone());
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        let k = key(t * 1000 + i);
                        store.put(k, Bytes::from(vec![t as u8])).unwrap();
                        assert_eq!(store.get(k).unwrap()[0], t as u8);
                    }
                });
            }
        });
        assert!(!probe.overlapped.load(Ordering::SeqCst));
        let snap = stats.snapshot();
        assert_eq!((snap.submitted, snap.completed, snap.failed), (800, 800, 0));
        assert!((1..=8).contains(&snap.queue_depth_peak));
        // Each thread's PUT k, GET k pairs reached the backend in its own
        // program order, whatever the interleaving between threads.
        for t in 0..8u64 {
            let calls = probe.calls.lock();
            let mine = calls.iter().filter(|k| k.offset() / 1000 == t);
            let want = (0..50u64).flat_map(|i| [key(t * 1000 + i); 2]);
            assert!(mine.copied().eq(want));
        }
        // Only an `Err` outcome is a failed request: failing keys inside a
        // batch delete and a `false` HEAD are answers.
        let refused = store.delete_batch(&[key(1), key(2)]);
        assert!(refused.iter().all(|(_, r)| r.is_err()));
        assert!(!store.exists(key(404)));
        assert!(store.get(key(404)).is_err());
        let snap = stats.snapshot();
        assert_eq!((snap.submitted, snap.completed, snap.failed), (803, 803, 1));
    }

    #[test]
    fn single_threaded_caller_drives_the_direct_call_sequence() {
        // Journal order is the golden-trace tests' job (the journal is
        // process-global); here: same request ledger, same objects.
        let sim = || Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let (gated, direct) = (sim(), sim());
        let store = ReactorStore::new(Arc::new(IoReactor::new()), gated.clone());
        for s in [&store as &dyn ObjectBackend, direct.as_ref()] {
            for i in 0..20u64 {
                s.put(key(i), Bytes::from(vec![i as u8; 64])).unwrap();
                let _ = s.get(key(i));
            }
            for i in 0..20u64 {
                let _ = s.get_range(key(i), 8, 16);
            }
            s.exists(key(3));
            s.delete(key(0)).unwrap();
            s.delete_batch(&[key(1), key(2), key(77)]);
        }
        let ledger = |s: &ObjectStoreSim| format!("{:?}", s.stats_snapshot());
        assert_eq!(ledger(&gated), ledger(&direct));
        assert_eq!(gated.live_keys(), direct.live_keys());
        assert_eq!(gated.object_count(), 17);
    }
}
