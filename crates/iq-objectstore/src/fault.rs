//! Deterministic fault injection for the object-store stack.
//!
//! [`FaultInjector`] wraps any [`ObjectBackend`] and injects the failure
//! modes a cloud store actually exhibits — transient request errors,
//! `SlowDown`-class throttling, stretched eventual-consistency windows and
//! hard "crash at operation N" cuts — per a scripted [`FaultPlan`].
//!
//! ## Determinism
//!
//! Every per-request decision is a pure function of
//! `(plan.seed, key, op class, per-key attempt ordinal)`: no shared RNG
//! stream exists, so two runs with the same plan inject the *same* faults
//! at the *same* points even when the engine's worker threads interleave
//! differently. That property is what lets the crash-torture suite and
//! the retry property tests replay byte-for-byte. The only global state
//! is the op clock driving `crash_at_op`, which models a wall-clock cut
//! (writer death), not a per-request fault.
//!
//! ## Crash semantics
//!
//! A tripped crash makes every subsequent request fail with a transient
//! I/O error and every existence poll report "absent" — the store itself
//! survives (it is durable cloud storage); it is the *client* that died.
//! [`FaultInjector::heal`] models the node restart: requests flow again
//! and recovery (log replay + active-set GC polling) takes over.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use iq_common::{IqError, IqResult, ObjectKey, SimDuration};
use parking_lot::Mutex;

use crate::metrics::StatsSnapshot;
use crate::traits::{ObjectBackend, DELETE_BATCH_MAX};

/// A scripted fault schedule. All rates are per-request probabilities in
/// `[0, 1]`, evaluated deterministically (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability a PUT fails with a transient I/O error *before* the
    /// object lands (the key is not burned; retrying it is legal).
    pub put_fail_rate: f64,
    /// Probability a GET fails with a transient I/O error.
    pub get_fail_rate: f64,
    /// Probability any PUT/GET is rejected with `Throttled` (the S3
    /// `SlowDown` / HTTP 503 class).
    pub throttle_rate: f64,
    /// Probability a DELETE of one key is rejected with `Throttled`. In a
    /// multi-object delete this is evaluated per key, so a batch can
    /// partially fail: some keys are removed, the rest come back in the
    /// error list — exactly the S3 `DeleteObjects` failure mode the
    /// batch-aware retry layer must handle.
    pub delete_fail_rate: f64,
    /// Fraction of keys whose visibility window is stretched: their first
    /// [`FaultPlan::stretch_get_misses`] GETs report `ObjectNotFound`
    /// even though the PUT landed.
    pub stretch_fraction: f64,
    /// Extra GET misses served for a stretched key.
    pub stretch_get_misses: u32,
    /// Hard cut: once the injector's op clock reaches this operation
    /// ordinal, the client is considered dead (see module docs). Also
    /// settable at runtime via [`FaultInjector::arm_crash`].
    pub crash_at_op: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No faults at all (the injector becomes a transparent wrapper).
    pub fn none() -> Self {
        Self {
            seed: 0,
            put_fail_rate: 0.0,
            get_fail_rate: 0.0,
            throttle_rate: 0.0,
            delete_fail_rate: 0.0,
            stretch_fraction: 0.0,
            stretch_get_misses: 0,
            crash_at_op: None,
        }
    }

    /// A uniformly flaky store: every PUT/GET fails transiently with
    /// probability `rate` and is throttled with probability `rate / 2`.
    pub fn flaky(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            put_fail_rate: rate,
            get_fail_rate: rate,
            throttle_rate: rate / 2.0,
            ..Self::none()
        }
    }
}

/// Which fault stream a decision draws from; part of the hash key so a
/// PUT's schedule never perturbs a GET's.
#[derive(Clone, Copy)]
enum OpClass {
    Put = 1,
    Get = 2,
    Throttle = 3,
    Stretch = 4,
    Delete = 5,
    RangeGet = 6,
}

/// Counters of faults the injector has actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient PUT errors injected.
    pub put_errors: u64,
    /// Transient GET errors injected.
    pub get_errors: u64,
    /// `Throttled` rejections injected.
    pub throttles: u64,
    /// Per-key DELETE rejections injected (inside batches or singletons).
    pub delete_errors: u64,
    /// Extra GET misses served for stretched keys.
    pub stretched_misses: u64,
    /// Requests refused because the client is crashed.
    pub refused_while_crashed: u64,
}

/// Fault-injecting wrapper around an [`ObjectBackend`]. See module docs.
pub struct FaultInjector {
    inner: Arc<dyn ObjectBackend>,
    plan: Mutex<FaultPlan>,
    op_clock: AtomicU64,
    crashed: AtomicBool,
    /// Per-(key, op-class) attempt ordinals — the deterministic "time
    /// axis" of each fault stream.
    attempts: Mutex<HashMap<(u64, u8), u64>>,
    stats: Mutex<FaultStats>,
}

impl FaultInjector {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Arc<dyn ObjectBackend>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Mutex::new(plan),
            op_clock: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            attempts: Mutex::new(HashMap::new()),
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> Arc<dyn ObjectBackend> {
        Arc::clone(&self.inner)
    }

    /// The active plan.
    pub fn plan(&self) -> FaultPlan {
        *self.plan.lock()
    }

    /// Replace the plan (crash scripts arm successive cuts this way).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.plan.lock() = plan;
    }

    /// Arm a hard cut `ops_from_now` operations in the future.
    pub fn arm_crash(&self, ops_from_now: u64) {
        self.plan.lock().crash_at_op = Some(
            self.op_clock
                .load(Ordering::Relaxed)
                .saturating_add(ops_from_now),
        );
    }

    /// Whether the client is currently considered dead.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Restart the client: clear the crashed flag and disarm the cut.
    /// Recovery (log replay, active-set polling) is the caller's job.
    pub fn heal(&self) {
        self.plan.lock().crash_at_op = None;
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Operations observed so far (crash scripts position cuts with this).
    pub fn op_clock(&self) -> u64 {
        self.op_clock.load(Ordering::Relaxed)
    }

    /// Counters of faults fired so far.
    pub fn fault_stats(&self) -> FaultStats {
        *self.stats.lock()
    }

    /// Advance the op clock, tripping an armed cut; `Err` while crashed.
    fn tick(&self) -> IqResult<()> {
        let now = self.op_clock.fetch_add(1, Ordering::Relaxed);
        if let Some(at) = self.plan.lock().crash_at_op {
            if now >= at {
                self.crashed.store(true, Ordering::Relaxed);
            }
        }
        if self.crashed.load(Ordering::Relaxed) {
            self.stats.lock().refused_while_crashed += 1;
            return Err(IqError::Io("client crashed (scripted cut)".into()));
        }
        Ok(())
    }

    /// Next attempt ordinal of `key`'s `class` stream.
    fn next_attempt(&self, key: ObjectKey, class: OpClass) -> u64 {
        let mut g = self.attempts.lock();
        let n = g.entry((key.offset(), class as u8)).or_insert(0);
        let v = *n;
        *n += 1;
        v
    }

    /// Deterministic `[0, 1)` draw for one decision.
    fn draw(&self, key: ObjectKey, class: OpClass, attempt: u64) -> f64 {
        let seed = self.plan.lock().seed;
        let h = splitmix(
            seed ^ ((class as u64) << 56) ^ key.offset().wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ) ^ splitmix(attempt.wrapping_add(0x5851_f42d_4c95_7f2d));
        (splitmix(h) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Throttle gate shared by PUT and GET.
    fn maybe_throttle(&self, key: ObjectKey) -> IqResult<()> {
        let rate = self.plan.lock().throttle_rate;
        if rate > 0.0 {
            let attempt = self.next_attempt(key, OpClass::Throttle);
            if self.draw(key, OpClass::Throttle, attempt) < rate {
                self.stats.lock().throttles += 1;
                return Err(IqError::Throttled("injected SlowDown".into()));
            }
        }
        Ok(())
    }

    /// Per-key delete fault draw (shared by singleton and batch deletes so
    /// both paths see the same deterministic fault stream).
    fn maybe_fail_delete(&self, key: ObjectKey) -> Option<IqError> {
        let rate = self.plan.lock().delete_fail_rate;
        if rate > 0.0 {
            let attempt = self.next_attempt(key, OpClass::Delete);
            if self.draw(key, OpClass::Delete, attempt) < rate {
                self.stats.lock().delete_errors += 1;
                return Some(IqError::Throttled("injected SlowDown (delete)".into()));
            }
        }
        None
    }
}

impl ObjectBackend for FaultInjector {
    fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
        self.tick()?;
        self.maybe_throttle(key)?;
        let rate = self.plan.lock().put_fail_rate;
        if rate > 0.0 {
            let attempt = self.next_attempt(key, OpClass::Put);
            if self.draw(key, OpClass::Put, attempt) < rate {
                // The request died before the object landed: the key is
                // not burned, so the retry layer may legally reuse it.
                self.stats.lock().put_errors += 1;
                return Err(IqError::Io("injected transient PUT fault".into()));
            }
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
        self.tick()?;
        self.maybe_throttle(key)?;
        let plan = *self.plan.lock();
        if plan.get_fail_rate > 0.0 {
            let attempt = self.next_attempt(key, OpClass::Get);
            if self.draw(key, OpClass::Get, attempt) < plan.get_fail_rate {
                self.stats.lock().get_errors += 1;
                return Err(IqError::Io("injected transient GET fault".into()));
            }
        }
        if plan.stretch_fraction > 0.0 && plan.stretch_get_misses > 0 {
            // Whether a key is stretched is drawn once (attempt 0 of its
            // stretch stream never advances); its first M GETs then miss.
            if self.draw(key, OpClass::Stretch, 0) < plan.stretch_fraction {
                let seen = self.next_attempt(key, OpClass::Stretch);
                if seen < u64::from(plan.stretch_get_misses) {
                    self.stats.lock().stretched_misses += 1;
                    return Err(IqError::ObjectNotFound(key));
                }
            }
        }
        self.inner.get(key)
    }

    fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<Bytes> {
        self.tick()?;
        self.maybe_throttle(key)?;
        let plan = *self.plan.lock();
        if plan.get_fail_rate > 0.0 {
            // Ranged GETs draw from their own fault stream so a plan's GET
            // schedule replays identically whether reads are packed or not.
            let attempt = self.next_attempt(key, OpClass::RangeGet);
            if self.draw(key, OpClass::RangeGet, attempt) < plan.get_fail_rate {
                self.stats.lock().get_errors += 1;
                return Err(IqError::Io("injected transient ranged-GET fault".into()));
            }
        }
        if plan.stretch_fraction > 0.0 && plan.stretch_get_misses > 0 {
            // The stretch stream is shared with whole-object GETs: a
            // stretched key's first M reads miss regardless of read shape.
            if self.draw(key, OpClass::Stretch, 0) < plan.stretch_fraction {
                let seen = self.next_attempt(key, OpClass::Stretch);
                if seen < u64::from(plan.stretch_get_misses) {
                    self.stats.lock().stretched_misses += 1;
                    return Err(IqError::ObjectNotFound(key));
                }
            }
        }
        self.inner.get_range(key, offset, len)
    }

    fn delete(&self, key: ObjectKey) -> IqResult<()> {
        self.tick()?;
        if let Some(e) = self.maybe_fail_delete(key) {
            return Err(e);
        }
        self.inner.delete(key)
    }

    fn delete_batch(&self, keys: &[ObjectKey]) -> Vec<(ObjectKey, IqResult<()>)> {
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(DELETE_BATCH_MAX) {
            // One client-side request per chunk: a single op-clock tick
            // (and therefore a single crash-cut check) covers the whole
            // multi-object delete.
            if let Err(e) = self.tick() {
                out.extend(chunk.iter().map(|&k| (k, Err(e.clone()))));
                continue;
            }
            // Per-key fault draws partition the chunk: survivors reach the
            // wrapped store in one request, failed keys never leave the
            // client — the S3 partial-failure shape the batch-aware retry
            // layer re-drives.
            let mut verdicts: Vec<Option<IqError>> = Vec::with_capacity(chunk.len());
            let mut pass: Vec<ObjectKey> = Vec::with_capacity(chunk.len());
            for &k in chunk {
                let v = self.maybe_fail_delete(k);
                if v.is_none() {
                    pass.push(k);
                }
                verdicts.push(v);
            }
            let mut inner_results = self.inner.delete_batch(&pass).into_iter();
            for (&k, verdict) in chunk.iter().zip(verdicts) {
                match verdict {
                    Some(e) => out.push((k, Err(e))),
                    None => {
                        let (ik, r) = inner_results
                            .next()
                            .expect("one inner result per surviving key");
                        debug_assert_eq!(ik, k);
                        out.push((k, r));
                    }
                }
            }
        }
        out
    }

    fn exists(&self, key: ObjectKey) -> bool {
        // A crashed client cannot observe anything; reporting "absent" is
        // the conservative answer for the GC's poll (it skips the delete).
        if self.tick().is_err() {
            return false;
        }
        self.inner.exists(key)
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn note_backoff(&self, ops: u64, wait: SimDuration) {
        self.inner.note_backoff(ops, wait);
    }
}

/// SplitMix64 finalizer: the stateless hash behind every fault decision
/// and the retry policy's deterministic jitter.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::{ConsistencyConfig, ObjectStoreSim};
    use crate::retry::RetryPolicy;

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    fn sim() -> Arc<ObjectStoreSim> {
        Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()))
    }

    #[test]
    fn no_faults_is_transparent() {
        let inj = FaultInjector::new(sim(), FaultPlan::none());
        inj.put(key(1), Bytes::from_static(b"x")).unwrap();
        assert_eq!(inj.get(key(1)).unwrap(), Bytes::from_static(b"x"));
        assert!(inj.exists(key(1)));
        inj.delete(key(1)).unwrap();
        assert!(!inj.exists(key(1)));
        assert_eq!(inj.fault_stats(), FaultStats::default());
    }

    #[test]
    fn fault_schedule_is_interleaving_independent() {
        // Same plan, same per-key request sequences, different global
        // orders ⇒ identical outcomes per key.
        let run = |order: &[u64]| -> Vec<(u64, bool)> {
            let inj = FaultInjector::new(sim(), FaultPlan::flaky(42, 0.5));
            let mut out: Vec<(u64, bool)> = Vec::new();
            for &k in order {
                out.push((k, inj.put(key(k), Bytes::from_static(b"d")).is_ok()));
            }
            out.sort_unstable();
            out
        };
        let a = run(&[1, 2, 3, 4, 5, 6]);
        let b = run(&[6, 5, 4, 3, 2, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn retry_rides_through_flaky_store() {
        let inj = FaultInjector::new(sim(), FaultPlan::flaky(7, 0.3));
        // The default budget targets visibility windows, not a 30%-flaky
        // store; give the loop enough room that exhaustion is improbable.
        let policy = RetryPolicy::attempts(24);
        for off in 0..200 {
            policy
                .put(&inj, key(off), Bytes::from(vec![off as u8]))
                .unwrap();
            assert_eq!(policy.get(&inj, key(off)).unwrap()[0], off as u8);
        }
        let stats = inj.fault_stats();
        assert!(stats.put_errors + stats.get_errors + stats.throttles > 0);
    }

    #[test]
    fn stretched_keys_miss_then_resolve() {
        let plan = FaultPlan {
            stretch_fraction: 1.0,
            stretch_get_misses: 3,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(sim(), plan);
        inj.put(key(9), Bytes::from_static(b"v")).unwrap();
        for _ in 0..3 {
            assert!(matches!(inj.get(key(9)), Err(IqError::ObjectNotFound(_))));
        }
        assert_eq!(inj.get(key(9)).unwrap(), Bytes::from_static(b"v"));
        assert_eq!(inj.fault_stats().stretched_misses, 3);
    }

    #[test]
    fn ranged_gets_fault_and_retry() {
        let inj = FaultInjector::new(sim(), FaultPlan::flaky(13, 0.3));
        let policy = RetryPolicy::attempts(24);
        for off in 0..100 {
            policy
                .put(&inj, key(off), Bytes::from(vec![off as u8; 16]))
                .unwrap();
            let r = policy.get_range(&inj, key(off), 4, 8).unwrap();
            assert_eq!(r, Bytes::from(vec![off as u8; 8]));
        }
        assert!(inj.fault_stats().get_errors > 0, "no ranged faults fired");
    }

    #[test]
    fn stretched_keys_miss_ranged_reads_too() {
        let plan = FaultPlan {
            stretch_fraction: 1.0,
            stretch_get_misses: 2,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(sim(), plan);
        inj.put(key(4), Bytes::from_static(b"abcdef")).unwrap();
        assert!(matches!(
            inj.get_range(key(4), 0, 2),
            Err(IqError::ObjectNotFound(_))
        ));
        assert!(matches!(inj.get(key(4)), Err(IqError::ObjectNotFound(_))));
        // Two misses consumed the stretch budget across both read shapes.
        assert_eq!(
            inj.get_range(key(4), 2, 2).unwrap(),
            Bytes::from_static(b"cd")
        );
    }

    #[test]
    fn batch_delete_partially_fails_per_key() {
        let store = sim();
        let plan = FaultPlan {
            seed: 11,
            delete_fail_rate: 0.3,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(store.clone(), plan);
        let keys: Vec<ObjectKey> = (0..100u64).map(key).collect();
        for &k in &keys {
            inj.put(k, Bytes::from_static(b"x")).unwrap();
        }
        let results = inj.delete_batch(&keys);
        assert_eq!(results.len(), keys.len());
        let failed: Vec<ObjectKey> = results
            .iter()
            .filter(|(_, r)| r.is_err())
            .map(|(k, _)| *k)
            .collect();
        assert!(
            !failed.is_empty() && failed.len() < keys.len(),
            "want a partial batch failure, got {}/{}",
            failed.len(),
            keys.len()
        );
        for (k, r) in &results {
            match r {
                Ok(()) => assert!(!store.exists(*k), "deleted key still resident"),
                Err(e) => {
                    assert!(matches!(e, IqError::Throttled(_)), "unexpected: {e}");
                    assert!(store.exists(*k), "failed key must survive the batch");
                }
            }
        }
        assert_eq!(inj.fault_stats().delete_errors as usize, failed.len());
    }

    #[test]
    fn crash_cut_refuses_everything_until_heal() {
        let inj = FaultInjector::new(sim(), FaultPlan::none());
        inj.put(key(1), Bytes::from_static(b"a")).unwrap();
        inj.arm_crash(1);
        inj.put(key(2), Bytes::from_static(b"b")).unwrap();
        // The cut trips here: op clock reached the armed ordinal.
        assert!(inj.put(key(3), Bytes::from_static(b"c")).is_err());
        assert!(inj.get(key(1)).is_err());
        assert!(!inj.exists(key(1)), "crashed client observes nothing");
        assert!(inj.is_crashed());
        inj.heal();
        assert!(!inj.is_crashed());
        // The store itself survived the client crash.
        assert_eq!(inj.get(key(1)).unwrap(), Bytes::from_static(b"a"));
        assert_eq!(inj.get(key(2)).unwrap(), Bytes::from_static(b"b"));
        // Key 3 never landed; its range is exactly what GC must poll.
        assert!(!inj.exists(key(3)));
        assert!(inj.fault_stats().refused_while_crashed >= 3);
    }

    #[test]
    fn crash_replay_is_deterministic() {
        let run = || {
            let inj = FaultInjector::new(sim(), FaultPlan::flaky(3, 0.2));
            inj.arm_crash(10);
            let mut landed = Vec::new();
            for off in 0..30 {
                if inj.put(key(off), Bytes::from_static(b"x")).is_ok() {
                    landed.push(off);
                }
            }
            (landed, inj.op_clock())
        };
        assert_eq!(run(), run());
    }
}
