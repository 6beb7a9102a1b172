//! The simulated object store.
//!
//! [`ObjectStoreSim`] models an S3/Azure-Blob-like store with *eventual
//! consistency*. The paper (§3) enumerates the three read outcomes on such
//! a store:
//!
//! 1. the read returns the latest data,
//! 2. the read returns **stale** data (only possible when a key is written
//!    more than once), and
//! 3. the read fails with "object does not exist" even though the PUT
//!    succeeded.
//!
//! SAP IQ's answer is the **never-write-an-object-twice** policy, which
//! eliminates outcome 2 by construction and leaves outcome 3 to a bounded
//! retry loop (*read-after-write* consistency). The simulation makes both
//! hazards real:
//!
//! * each PUT is assigned a **visibility ordinal**: until the store's
//!   global operation counter passes it, GETs of that key fail with
//!   `ObjectNotFound` (outcome 3);
//! * overwrites are rejected by default; when explicitly allowed (the
//!   ablation baseline), a GET inside the visibility window of the newest
//!   version serves the **previous** version's bytes (outcome 2), which the
//!   caller can detect via an embedded checksum if it cares to.
//!
//! The "clock" driving visibility is the operation counter, not wall time,
//! so tests are deterministic: `visibility_window` is expressed in
//! *operations*, i.e. "this object becomes visible after N further requests
//! hit the store".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use iq_common::trace::{self, EventKind};
use iq_common::{DetRng, IqError, IqResult, ObjectKey};
use parking_lot::Mutex;

use crate::metrics::{DeviceStats, IoOp};
use crate::traits::{ObjectBackend, DELETE_BATCH_MAX};

/// Consistency behaviour of the simulated store.
#[derive(Debug, Clone)]
pub struct ConsistencyConfig {
    /// Maximum visibility delay of a fresh PUT, in store operations. Each
    /// PUT draws a delay uniformly from `[0, max_visibility_ops]`. Zero
    /// models a strongly consistent store.
    pub max_visibility_ops: u64,
    /// Fraction of PUTs that get a delay at all (most S3 PUTs are
    /// immediately visible; the tail is what the retry loop exists for).
    pub delayed_fraction: f64,
    /// Allow a key to be written more than once. Off by default —
    /// violating writes fail with `DuplicateObjectKey`. Enabled only by the
    /// update-in-place ablation.
    pub allow_overwrite: bool,
    /// Probability that a PUT fails transiently with an I/O error before
    /// anything is stored (throttling / 5xx). The retry layer absorbs
    /// these; past its budget, "the transaction is rolled back" (§4).
    pub transient_put_failure: f64,
    /// RNG seed for delay draws.
    pub seed: u64,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        Self {
            max_visibility_ops: 64,
            delayed_fraction: 0.05,
            allow_overwrite: false,
            transient_put_failure: 0.0,
            seed: 0x1a2b_3c4d,
        }
    }
}

impl ConsistencyConfig {
    /// A strongly consistent configuration (no visibility window).
    pub fn strong() -> Self {
        Self {
            max_visibility_ops: 0,
            delayed_fraction: 0.0,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone)]
struct StoredObject {
    /// Latest version's bytes.
    data: Bytes,
    /// The store-op ordinal at which the latest version becomes visible.
    visible_at: u64,
    /// Bytes of the previous version, kept while the latest is still
    /// propagating (stale-read hazard; only populated under overwrites).
    prior: Option<Bytes>,
    /// How many times this key has been written (history for invariants).
    writes: u64,
}

/// In-process object store with a configurable consistency model.
pub struct ObjectStoreSim {
    objects: Mutex<HashMap<ObjectKey, StoredObject>>,
    /// Keys that were written at least once, ever — even if since deleted.
    /// Used to enforce never-write-twice across deletes (a deleted key is
    /// still burned: the generator never reissues keys, §3.2).
    history: Mutex<HashMap<ObjectKey, u64>>,
    rng: Mutex<DetRng>,
    op_counter: AtomicU64,
    resident: AtomicU64,
    config: ConsistencyConfig,
    /// Request ledger.
    pub stats: DeviceStats,
}

impl ObjectStoreSim {
    /// Create a store with the given consistency configuration.
    pub fn new(config: ConsistencyConfig) -> Self {
        Self {
            objects: Mutex::new(HashMap::new()),
            history: Mutex::new(HashMap::new()),
            rng: Mutex::new(DetRng::new(config.seed)),
            op_counter: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            config,
            stats: DeviceStats::new(),
        }
    }

    /// Create a store with the default (eventually consistent) model.
    pub fn new_default() -> Self {
        Self::new(ConsistencyConfig::default())
    }

    fn tick(&self) -> u64 {
        // The trace clock is the same virtual op-clock: every request
        // advances both, so journal timestamps are wall-time-free.
        trace::advance_clock(1);
        self.op_counter.fetch_add(1, Ordering::Relaxed)
    }

    fn draw_visibility(&self, now: u64) -> u64 {
        if self.config.max_visibility_ops == 0 {
            return now;
        }
        let mut rng = self.rng.lock();
        if !rng.chance(self.config.delayed_fraction) {
            return now;
        }
        now + 1 + rng.below(self.config.max_visibility_ops)
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.objects.lock().len()
    }

    /// Total writes ever issued to `key` (0 if never written). The
    /// never-write-twice invariant is `write_count(k) <= 1` for every key
    /// when overwrites are disallowed.
    pub fn write_count(&self, key: ObjectKey) -> u64 {
        self.history.lock().get(&key).copied().unwrap_or(0)
    }

    /// The largest write count across all keys ever written.
    pub fn max_write_count(&self) -> u64 {
        self.history.lock().values().copied().max().unwrap_or(0)
    }

    /// All currently-resident keys (for GC leak checks in tests).
    pub fn live_keys(&self) -> Vec<ObjectKey> {
        let mut v: Vec<ObjectKey> = self.objects.lock().keys().copied().collect();
        v.sort();
        v
    }

    /// Force every pending PUT visible (used by tests to close windows).
    pub fn settle(&self) {
        let now = self.op_counter.load(Ordering::Relaxed);
        for obj in self.objects.lock().values_mut() {
            obj.visible_at = obj.visible_at.min(now);
            obj.prior = None;
        }
    }
}

impl ObjectBackend for ObjectStoreSim {
    fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
        let now = self.tick();
        self.stats
            .record_prefixed(IoOp::Put, data.len() as u64, Some(key.hashed_prefix()));
        if self.config.transient_put_failure > 0.0
            && self.rng.lock().chance(self.config.transient_put_failure)
        {
            // Nothing was stored; the key is not burned, so retrying the
            // same key is legal (and is what the retry layer does).
            return Err(IqError::Io("transient PUT failure (throttled)".into()));
        }
        let visible_at = self.draw_visibility(now);
        let mut history = self.history.lock();
        let written_before = history.get(&key).copied().unwrap_or(0);
        if written_before > 0 && !self.config.allow_overwrite {
            return Err(IqError::DuplicateObjectKey(key));
        }
        *history.entry(key).or_insert(0) += 1;
        drop(history);

        let mut objects = self.objects.lock();
        let len = data.len() as u64;
        match objects.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let old = e.get_mut();
                self.resident.fetch_add(len, Ordering::Relaxed);
                self.resident
                    .fetch_sub(old.data.len() as u64, Ordering::Relaxed);
                // Keep the prior version around while the new one is still
                // propagating: this is the stale-read hazard.
                let prior = std::mem::replace(&mut old.data, data);
                old.prior = (visible_at > now).then_some(prior);
                old.visible_at = visible_at;
                old.writes += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.resident.fetch_add(len, Ordering::Relaxed);
                e.insert(StoredObject {
                    data,
                    visible_at,
                    prior: None,
                    writes: 1,
                });
            }
        }
        trace::emit(EventKind::ObjectPut {
            key: key.offset(),
            bytes: len,
        });
        Ok(())
    }

    fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
        let now = self.tick();
        let objects = self.objects.lock();
        match objects.get(&key) {
            None => {
                self.stats
                    .record_prefixed(IoOp::GetMiss, 0, Some(key.hashed_prefix()));
                trace::emit(EventKind::ObjectGetMiss { key: key.offset() });
                Err(IqError::ObjectNotFound(key))
            }
            Some(obj) if obj.visible_at > now => {
                // Inside the visibility window of the newest version.
                if let Some(prior) = &obj.prior {
                    // Overwritten key: serve the stale previous version
                    // (scenario 2 of §3 — only reachable in the ablation).
                    self.stats.record_prefixed(
                        IoOp::Get,
                        prior.len() as u64,
                        Some(key.hashed_prefix()),
                    );
                    trace::emit(EventKind::ObjectGet {
                        key: key.offset(),
                        bytes: prior.len() as u64,
                    });
                    Ok(prior.clone())
                } else {
                    // Fresh key not yet visible (scenario 3 of §3).
                    self.stats
                        .record_prefixed(IoOp::GetMiss, 0, Some(key.hashed_prefix()));
                    trace::emit(EventKind::ObjectGetMiss { key: key.offset() });
                    Err(IqError::ObjectNotFound(key))
                }
            }
            Some(obj) => {
                self.stats.record_prefixed(
                    IoOp::Get,
                    obj.data.len() as u64,
                    Some(key.hashed_prefix()),
                );
                trace::emit(EventKind::ObjectGet {
                    key: key.offset(),
                    bytes: obj.data.len() as u64,
                });
                Ok(obj.data.clone())
            }
        }
    }

    fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<Bytes> {
        let now = self.tick();
        let objects = self.objects.lock();
        // Visibility semantics are identical to a whole-object GET: inside
        // the window a ranged read of a fresh key misses; on an overwritten
        // key it serves the prior version's range (ablation only).
        let data = match objects.get(&key) {
            None => None,
            Some(obj) if obj.visible_at > now => obj.prior.as_ref(),
            Some(obj) => Some(&obj.data),
        };
        let Some(data) = data else {
            self.stats
                .record_prefixed(IoOp::GetMiss, 0, Some(key.hashed_prefix()));
            trace::emit(EventKind::ObjectGetMiss { key: key.offset() });
            return Err(IqError::ObjectNotFound(key));
        };
        // Widen before adding: `offset + len` can exceed u32::MAX (and
        // usize on 32-bit targets); a request past EOF is a *permanent*
        // `Invalid` — retrying it can never succeed, and the retry layer
        // must return it immediately rather than loop.
        let start = offset as u64;
        let end = start + len as u64;
        if end > data.len() as u64 {
            return Err(IqError::Invalid(format!(
                "range {start}..{end} exceeds object {key} of {} bytes",
                data.len()
            )));
        }
        let (start, end) = (start as usize, end as usize);
        // One GET request moving exactly `len` bytes: the point of packing.
        self.stats
            .record_prefixed(IoOp::Get, len as u64, Some(key.hashed_prefix()));
        trace::emit(EventKind::RangeGet {
            key: key.offset(),
            offset: offset as u64,
            len: len as u64,
        });
        Ok(data.slice(start..end))
    }

    fn delete(&self, key: ObjectKey) -> IqResult<()> {
        self.tick();
        self.stats
            .record_prefixed(IoOp::Delete, 0, Some(key.hashed_prefix()));
        if let Some(obj) = self.objects.lock().remove(&key) {
            self.resident
                .fetch_sub(obj.data.len() as u64, Ordering::Relaxed);
        }
        trace::emit(EventKind::ObjectDelete { key: key.offset() });
        Ok(())
    }

    fn delete_batch(&self, keys: &[ObjectKey]) -> Vec<(ObjectKey, IqResult<()>)> {
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(DELETE_BATCH_MAX) {
            // One multi-object request per chunk: a single op-clock tick and
            // a single ledger entry cover up to DELETE_BATCH_MAX keys —
            // this is the whole cost advantage over per-key deletes.
            self.tick();
            self.stats
                .record_prefixed(IoOp::Delete, 0, chunk.first().map(|k| k.hashed_prefix()));
            let mut objects = self.objects.lock();
            for &key in chunk {
                if let Some(obj) = objects.remove(&key) {
                    self.resident
                        .fetch_sub(obj.data.len() as u64, Ordering::Relaxed);
                }
                trace::emit(EventKind::ObjectDelete { key: key.offset() });
                out.push((key, Ok(())));
            }
        }
        out
    }

    fn exists(&self, key: ObjectKey) -> bool {
        self.tick();
        self.stats
            .record_prefixed(IoOp::Head, 0, Some(key.hashed_prefix()));
        let found = self.objects.lock().contains_key(&key);
        trace::emit(EventKind::ObjectHead {
            key: key.offset(),
            found,
        });
        found
    }

    fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    fn stats_snapshot(&self) -> crate::metrics::StatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }

    fn note_backoff(&self, ops: u64, wait: iq_common::SimDuration) {
        // While the client sleeps, the rest of the cluster keeps issuing
        // requests: advancing the op clock is what lets a backoff close an
        // open visibility window (the whole point of backing off).
        trace::advance_clock(ops);
        self.op_counter.fetch_add(ops, Ordering::Relaxed);
        self.stats.record_backoff(wait.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    #[test]
    fn strong_store_reads_immediately() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        s.put(key(1), Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get(key(1)).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.resident_bytes(), 5);
    }

    #[test]
    fn ranged_get_fetches_exactly_len_bytes() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        s.put(key(1), Bytes::from_static(b"hello world")).unwrap();
        s.reset_stats();
        let r = s.get_range(key(1), 6, 5).unwrap();
        assert_eq!(r, Bytes::from_static(b"world"));
        // Range-native: one GET moving exactly the range, no over-read.
        let snap = s.stats.snapshot();
        assert_eq!(snap.op(IoOp::Get).count, 1);
        assert_eq!(snap.op(IoOp::Get).bytes, 5);
        // Out-of-bounds range is an error, like S3 InvalidRange.
        assert!(matches!(
            s.get_range(key(1), 8, 10),
            Err(IqError::Invalid(_))
        ));
        // Absent key misses like a whole-object GET.
        assert!(matches!(
            s.get_range(key(2), 0, 1),
            Err(IqError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn ranged_get_respects_visibility_window() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 20,
            delayed_fraction: 1.0,
            ..ConsistencyConfig::default()
        };
        let s = ObjectStoreSim::new(cfg);
        s.put(key(9), Bytes::from_static(b"abcdef")).unwrap();
        let mut ok = false;
        for _ in 0..64 {
            match s.get_range(key(9), 2, 3) {
                Ok(r) => {
                    assert_eq!(r, Bytes::from_static(b"cde"));
                    ok = true;
                    break;
                }
                Err(IqError::ObjectNotFound(_)) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(ok, "ranged read never became visible");
    }

    #[test]
    fn never_write_twice_enforced() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        s.put(key(1), Bytes::from_static(b"a")).unwrap();
        let err = s.put(key(1), Bytes::from_static(b"b")).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(1)));
        // Even after delete, the key stays burned.
        s.delete(key(1)).unwrap();
        let err = s.put(key(1), Bytes::from_static(b"c")).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(1)));
        assert_eq!(s.write_count(key(1)), 1);
    }

    #[test]
    fn visibility_window_causes_not_found_then_succeeds() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 20,
            delayed_fraction: 1.0, // every PUT is delayed
            ..ConsistencyConfig::default()
        };
        let s = ObjectStoreSim::new(cfg);
        s.put(key(9), Bytes::from_static(b"x")).unwrap();
        // Immediately after the PUT, the read races the window: the first
        // GET may or may not fail, but advancing the op counter must make
        // it visible.
        let mut saw_miss = false;
        let mut ok = false;
        for _ in 0..64 {
            match s.get(key(9)) {
                Ok(b) => {
                    assert_eq!(b, Bytes::from_static(b"x"));
                    ok = true;
                    break;
                }
                Err(IqError::ObjectNotFound(_)) => saw_miss = true,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(ok, "object never became visible");
        assert!(
            saw_miss,
            "with delayed_fraction=1.0 the first read must miss"
        );
        let snap = s.stats.snapshot();
        assert!(snap.op(IoOp::GetMiss).count >= 1);
    }

    #[test]
    fn overwrite_ablation_serves_stale_data() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 50,
            delayed_fraction: 1.0,
            allow_overwrite: true,
            ..ConsistencyConfig::default()
        };
        let s = ObjectStoreSim::new(cfg);
        s.put(key(3), Bytes::from_static(b"v1")).unwrap();
        s.settle();
        s.put(key(3), Bytes::from_static(b"v2")).unwrap();
        // Inside v2's window we read v1: the stale-read hazard is real.
        let first = s.get(key(3)).unwrap();
        assert_eq!(first, Bytes::from_static(b"v1"));
        s.settle();
        assert_eq!(s.get(key(3)).unwrap(), Bytes::from_static(b"v2"));
        assert_eq!(s.write_count(key(3)), 2);
    }

    #[test]
    fn delete_is_idempotent_and_frees_space() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        s.put(key(5), Bytes::from(vec![0u8; 100])).unwrap();
        assert_eq!(s.resident_bytes(), 100);
        s.delete(key(5)).unwrap();
        assert_eq!(s.resident_bytes(), 0);
        s.delete(key(5)).unwrap(); // no-op, no panic
        assert!(!s.exists(key(5)));
        assert!(matches!(s.get(key(5)), Err(IqError::ObjectNotFound(_))));
    }

    #[test]
    fn batch_delete_charges_one_request_per_chunk() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        let keys: Vec<ObjectKey> = (0..2500u64).map(key).collect();
        for &k in &keys {
            s.put(k, Bytes::from_static(b"x")).unwrap();
        }
        s.reset_stats();
        // 2500 keys + one never-written straggler: still 3 requests
        // (ceil(2501/1000)), and deleting the absent key succeeds.
        let mut all = keys.clone();
        all.push(key(999_999));
        let results = s.delete_batch(&all);
        assert_eq!(results.len(), 2501);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(s.object_count(), 0);
        assert_eq!(s.resident_bytes(), 0);
        let snap = s.stats.snapshot();
        assert_eq!(snap.op(IoOp::Delete).count, 3);
    }

    #[test]
    fn live_keys_sorted() {
        let s = ObjectStoreSim::new(ConsistencyConfig::strong());
        for off in [5u64, 1, 3] {
            s.put(key(off), Bytes::from_static(b"z")).unwrap();
        }
        assert_eq!(s.live_keys(), vec![key(1), key(3), key(5)]);
    }

    #[test]
    fn transient_put_failures_are_injectable_and_retryable() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 0,
            delayed_fraction: 0.0,
            transient_put_failure: 0.5,
            ..ConsistencyConfig::default()
        };
        let s = ObjectStoreSim::new(cfg);
        let mut failures = 0;
        for off in 0..200u64 {
            // Bounded manual retry: a failed PUT never burns the key.
            let mut ok = false;
            for _ in 0..64 {
                match s.put(key(off), Bytes::from_static(b"d")) {
                    Ok(()) => {
                        ok = true;
                        break;
                    }
                    Err(IqError::Io(_)) => failures += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            assert!(ok, "PUT never succeeded for {off}");
        }
        assert!(failures > 50, "failure injection inactive: {failures}");
        assert_eq!(s.object_count(), 200);
        assert_eq!(
            s.max_write_count(),
            1,
            "failed PUTs must not count as writes"
        );
    }

    #[test]
    fn concurrent_puts_are_safe() {
        use std::sync::Arc;
        let s = Arc::new(ObjectStoreSim::new_default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    s.put(key(t * 1000 + i), Bytes::from(vec![t as u8; 64]))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), 1000);
        assert_eq!(s.max_write_count(), 1);
        assert_eq!(s.resident_bytes(), 64 * 1000);
    }
}
