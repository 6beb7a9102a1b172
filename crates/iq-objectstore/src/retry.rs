//! The read-after-write retry layer, with exponential backoff.
//!
//! Under the never-write-twice policy a GET of a freshly written key either
//! returns the one and only version or fails with `ObjectNotFound` inside
//! the eventual-consistency window. "In case of an error, we have modified
//! the storage subsystem to retry until the object is found, up to a
//! configurable number of retries" (§3). Similarly, "a failed write is
//! retried; but after a pre-determined number of failures of the same page,
//! the transaction is rolled back" (§4).
//!
//! ## Backoff in virtual time
//!
//! Real clients sleep between retries (S3's `SlowDown` responses demand
//! it). In the simulation a sleep has two effects, both routed through
//! [`ObjectBackend::note_backoff`]:
//!
//! * the store's **op clock advances** by the backoff's op-equivalent —
//!   while one client sleeps the rest of the cluster keeps issuing
//!   requests, which is exactly what closes a visibility window;
//! * the **simulated wait accumulates** in the device ledger, so the time
//!   model charges the stall against elapsed time and `--explain` shows it.
//!
//! Waits double per attempt (capped at [`RetryPolicy::max_backoff`]) with
//! deterministic per-`(seed, key, attempt)` jitter, so a run replays
//! byte-for-byte under a fixed seed regardless of thread interleaving.

use bytes::Bytes;
use iq_common::trace::{self, EventKind};
use iq_common::{IqError, IqResult, ObjectKey, SimDuration};

use crate::fault::splitmix;
use crate::object_store::ConsistencyConfig;
use crate::traits::{ObjectBackend, RangeRead, DELETE_BATCH_MAX};

/// Result of a batch delete driven through [`RetryPolicy::delete_batch`].
#[derive(Debug)]
pub struct BatchDeleteOutcome {
    /// Final per-key outcome, in input order. Keys whose transient
    /// failures outlived the budget carry `RetriesExhausted`.
    pub results: Vec<(ObjectKey, IqResult<()>)>,
    /// Simulated multi-object delete requests issued, counting every
    /// retry round (`ceil(len / 1000)` per round).
    pub requests: u64,
    /// Total keys re-driven across retry rounds (a key retried twice
    /// counts twice) — the "retried subset" the policy keeps small.
    pub retried_keys: u64,
}

/// Retry budget and backoff schedule for object-store operations.
///
/// The default budget is *derived* from [`ConsistencyConfig::default`]
/// via [`RetryPolicy::covering`] rather than hardcoded, so the invariant
/// "the retry budget outlasts the visibility window" survives either
/// default moving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts (including the first) before giving up. For PUTs
    /// this is the per-page failure budget of §4: exhausting it surfaces
    /// as `RetriesExhausted`, which rolls the owning transaction back.
    pub max_attempts: u32,
    /// Wait before the second attempt; doubles every attempt after that.
    pub base_backoff: SimDuration,
    /// Ceiling on a single backoff wait.
    pub max_backoff: SimDuration,
    /// Jitter applied to each wait, as a percentage of the wait (a value
    /// of 25 spreads waits over ±12.5%). Integer so the policy stays
    /// `Copy + Eq`; jitter is deterministic per `(seed, key, attempt)`.
    pub jitter_pct: u8,
    /// Seed for the deterministic jitter.
    pub seed: u64,
}

/// Default first backoff (1 ms — S3 SDK defaults are in this range).
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(1);
/// Default backoff ceiling (256 ms = 8 doublings).
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(256);
/// Default jitter percentage.
const JITTER_PCT: u8 = 25;

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::covering(&ConsistencyConfig::default())
    }
}

impl RetryPolicy {
    /// Policy with an explicit attempt budget and the default backoff
    /// schedule (test and ablation convenience).
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts,
            base_backoff: BASE_BACKOFF,
            max_backoff: MAX_BACKOFF,
            jitter_pct: JITTER_PCT,
            seed: 0,
        }
    }

    /// Smallest attempt budget guaranteed to outlast the store's
    /// visibility window, derived from the consistency config.
    ///
    /// In the simulation every GET attempt advances the op clock by one
    /// and every backoff advances it by the wait's op-equivalent, so a
    /// window of `W` ops provably resolves once the clock has moved `W`
    /// past the PUT. The budget is the smallest `n` whose worst-case
    /// clock coverage exceeds `W`, floored at 4 so transient PUT faults
    /// still get a few tries even under `ConsistencyConfig::strong`.
    pub fn covering(cfg: &ConsistencyConfig) -> Self {
        let mut policy = Self::attempts(4);
        while !policy.covers_window(cfg.max_visibility_ops) {
            policy.max_attempts += 1;
        }
        policy
    }

    /// Whether this policy's worst-case op-clock coverage exceeds a
    /// visibility window of `window_ops` store operations.
    pub fn covers_window(&self, window_ops: u64) -> bool {
        self.coverage_ops() > window_ops
    }

    /// Worst-case op-clock advance over a full retry loop: one tick per
    /// attempt plus the op-equivalent of every backoff in between.
    fn coverage_ops(&self) -> u64 {
        let mut ops = u64::from(self.max_attempts);
        for attempt in 1..self.max_attempts {
            ops = ops.saturating_add(self.backoff_ops(attempt));
        }
        ops
    }

    /// Op-clock advance for the backoff after attempt `attempt` (1-based):
    /// the un-jittered wait measured in `base_backoff` units, i.e.
    /// `min(2^(attempt-1), max_backoff / base_backoff)`.
    fn backoff_ops(&self, attempt: u32) -> u64 {
        let base = self.base_backoff.as_nanos().max(1);
        let cap = (self.max_backoff.as_nanos() / base).max(1);
        1u64.checked_shl(attempt - 1).map_or(cap, |v| v.min(cap))
    }

    /// Simulated wait for the backoff after attempt `attempt` (1-based):
    /// exponential, capped, with deterministic ±`jitter_pct`/2 % jitter
    /// keyed by `(seed, key, attempt)` — independent of thread
    /// interleaving, so fault runs replay byte-for-byte.
    fn backoff_wait(&self, key: ObjectKey, attempt: u32) -> SimDuration {
        let nanos = self
            .backoff_ops(attempt)
            .saturating_mul(self.base_backoff.as_nanos().max(1));
        let spread = nanos / 100 * u64::from(self.jitter_pct.min(100));
        if spread == 0 {
            return SimDuration::from_nanos(nanos);
        }
        let h = splitmix(self.seed ^ key.offset().wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ splitmix(u64::from(attempt));
        SimDuration::from_nanos(nanos - spread / 2 + h % (spread + 1))
    }

    /// Charge one backoff against the store's clocks.
    fn back_off(&self, store: &dyn ObjectBackend, key: ObjectKey, attempt: u32) {
        let ops = self.backoff_ops(attempt);
        let wait = self.backoff_wait(key, attempt);
        trace::emit(EventKind::RetryBackoff {
            key: key.offset(),
            attempt,
            ops,
            wait_nanos: wait.as_nanos(),
        });
        store.note_backoff(ops, wait);
    }

    /// Journal a failed transient attempt (the `String` payload is only
    /// built when tracing is live).
    fn trace_attempt(key: ObjectKey, attempt: u32, err: &IqError) {
        if trace::is_enabled() {
            trace::emit(EventKind::RetryAttempt {
                key: key.offset(),
                attempt,
                error: err.to_string(),
            });
        }
    }

    /// GET with retry-on-transient-error (visibility misses, throttling,
    /// transient I/O), backing off between attempts. The backoff advances
    /// the store's op clock, so a bounded visibility window always
    /// resolves within the derived budget.
    pub fn get(&self, store: &dyn ObjectBackend, key: ObjectKey) -> IqResult<Bytes> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match store.get(key) {
                Ok(bytes) => return Ok(bytes),
                Err(e) if e.is_transient() && attempts < self.max_attempts => {
                    Self::trace_attempt(key, attempts, &e);
                    self.back_off(store, key, attempts);
                }
                Err(e) if e.is_transient() => {
                    return Err(IqError::RetriesExhausted { key, attempts })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Ranged GET with the same retry-on-transient-error loop as
    /// [`Self::get`]. A composite member inside the visibility window
    /// misses exactly like a whole object; the backoff closes the window.
    pub fn get_range(
        &self,
        store: &dyn ObjectBackend,
        key: ObjectKey,
        offset: u32,
        len: u32,
    ) -> IqResult<RangeRead> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match store.get_range(key, offset, len) {
                Ok(read) => return Ok(read),
                Err(e) if e.is_transient() && attempts < self.max_attempts => {
                    Self::trace_attempt(key, attempts, &e);
                    self.back_off(store, key, attempts);
                }
                Err(e) if e.is_transient() => {
                    return Err(IqError::RetriesExhausted { key, attempts })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// PUT with retry on transient failure (I/O errors, throttling).
    /// `DuplicateObjectKey` is *not* retried: it is a policy violation,
    /// not a transient fault. Exhausting the budget is the §4 per-page
    /// failure budget — the caller rolls the transaction back.
    pub fn put(&self, store: &dyn ObjectBackend, key: ObjectKey, data: Bytes) -> IqResult<()> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match store.put(key, data.clone()) {
                Ok(()) => return Ok(()),
                Err(e @ (IqError::Io(_) | IqError::Throttled(_)))
                    if attempts < self.max_attempts =>
                {
                    Self::trace_attempt(key, attempts, &e);
                    self.back_off(store, key, attempts);
                }
                Err(IqError::Io(_) | IqError::Throttled(_)) => {
                    return Err(IqError::RetriesExhausted { key, attempts })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Multi-object DELETE with failed-subset retry.
    ///
    /// The first round submits every key; each later round re-submits
    /// *only* the keys whose previous outcome was transient (the S3
    /// `DeleteObjects` idiom — succeeded keys are final, deletes are
    /// idempotent so re-driving a key is always safe). One backoff is
    /// charged per retry round, not per key: the whole round is a single
    /// client sleep. Keys expected to be unique; never fails as a whole —
    /// per-key verdicts live in the returned outcome.
    pub fn delete_batch(
        &self,
        store: &dyn ObjectBackend,
        keys: &[ObjectKey],
    ) -> BatchDeleteOutcome {
        let mut settled: std::collections::HashMap<u64, IqResult<()>> =
            std::collections::HashMap::with_capacity(keys.len());
        let mut requests = 0u64;
        let mut retried_keys = 0u64;
        let mut pending: Vec<ObjectKey> = keys.to_vec();
        let mut attempt = 1u32;
        while !pending.is_empty() {
            requests += pending.len().div_ceil(DELETE_BATCH_MAX) as u64;
            let mut transient: Vec<ObjectKey> = Vec::new();
            for (k, r) in store.delete_batch(&pending) {
                match r {
                    Err(e) if e.is_transient() && attempt < self.max_attempts => {
                        Self::trace_attempt(k, attempt, &e);
                        transient.push(k);
                    }
                    Err(e) if e.is_transient() => {
                        settled.insert(
                            k.offset(),
                            Err(IqError::RetriesExhausted {
                                key: k,
                                attempts: attempt,
                            }),
                        );
                    }
                    r => {
                        settled.insert(k.offset(), r);
                    }
                }
            }
            if transient.is_empty() {
                break;
            }
            retried_keys += transient.len() as u64;
            self.back_off(store, transient[0], attempt);
            pending = transient;
            attempt += 1;
        }
        BatchDeleteOutcome {
            results: keys
                .iter()
                .map(|&k| (k, settled.remove(&k.offset()).unwrap_or(Ok(()))))
                .collect(),
            requests,
            retried_keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object_store::{ConsistencyConfig, ObjectStoreSim};

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    #[test]
    fn retry_masks_visibility_window() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 10,
            delayed_fraction: 1.0,
            ..ConsistencyConfig::default()
        };
        let store = ObjectStoreSim::new(cfg);
        let policy = RetryPolicy::attempts(32);
        for off in 0..50 {
            store.put(key(off), Bytes::from(vec![off as u8])).unwrap();
            let got = policy.get(&store, key(off)).unwrap();
            assert_eq!(got[0], off as u8);
        }
    }

    #[test]
    fn ranged_get_retries_mask_visibility_window() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 10,
            delayed_fraction: 1.0,
            ..ConsistencyConfig::default()
        };
        let store = ObjectStoreSim::new(cfg);
        let policy = RetryPolicy::attempts(32);
        for off in 0..50 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 8]))
                .unwrap();
            let got = policy.get_range(&store, key(off), 2, 3).unwrap();
            assert_eq!(got.data, Bytes::from(vec![off as u8; 3]));
            assert_eq!(got.fetched, 3);
        }
    }

    #[test]
    fn retries_exhaust_on_truly_missing_object() {
        let store = ObjectStoreSim::new(ConsistencyConfig::strong());
        let policy = RetryPolicy::attempts(3);
        let err = policy.get(&store, key(99)).unwrap_err();
        assert_eq!(
            err,
            IqError::RetriesExhausted {
                key: key(99),
                attempts: 3
            }
        );
    }

    #[test]
    fn duplicate_put_is_not_retried() {
        let store = ObjectStoreSim::new(ConsistencyConfig::strong());
        let policy = RetryPolicy::default();
        policy
            .put(&store, key(1), Bytes::from_static(b"a"))
            .unwrap();
        let err = policy
            .put(&store, key(1), Bytes::from_static(b"b"))
            .unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(1)));
        assert_eq!(store.write_count(key(1)), 1);
    }

    /// Regression for the silent coupling this PR removes: the default
    /// budget used to be a hardcoded 96 chosen to "exceed" the default
    /// 64-op window; now it is derived, so it must keep covering the
    /// window *whatever* the default window is.
    #[test]
    fn default_budget_covers_default_window() {
        let cfg = ConsistencyConfig::default();
        let policy = RetryPolicy::default();
        assert!(policy.covers_window(cfg.max_visibility_ops));
        // And `covering` is minimal: one attempt fewer must not cover.
        let mut smaller = policy;
        smaller.max_attempts -= 1;
        assert!(!smaller.covers_window(cfg.max_visibility_ops));
    }

    /// Even the worst visibility draw resolves inside the derived budget:
    /// the backoffs advance the op clock, so a single-threaded client
    /// needs far fewer than `window` attempts.
    #[test]
    fn derived_budget_resolves_worst_case_window() {
        let cfg = ConsistencyConfig {
            max_visibility_ops: 64,
            delayed_fraction: 1.0, // every PUT draws a delay
            ..ConsistencyConfig::default()
        };
        let policy = RetryPolicy::covering(&cfg);
        let store = ObjectStoreSim::new(cfg);
        for off in 0..100 {
            store.put(key(off), Bytes::from(vec![off as u8])).unwrap();
            policy.get(&store, key(off)).unwrap();
        }
        let snap = store.stats_snapshot();
        assert!(snap.retries > 0, "windows must have forced backoffs");
        assert!(snap.backoff_nanos > 0);
    }

    #[test]
    fn batch_delete_retries_only_failed_subset() {
        use crate::fault::{FaultInjector, FaultPlan};
        use std::sync::Arc;
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let plan = FaultPlan {
            seed: 5,
            delete_fail_rate: 0.4,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(store.clone(), plan);
        let keys: Vec<ObjectKey> = (0..500u64).map(key).collect();
        for &k in &keys {
            inj.put(k, Bytes::from_static(b"x")).unwrap();
        }
        let policy = RetryPolicy::attempts(16);
        let outcome = policy.delete_batch(&inj, &keys);
        assert!(outcome.results.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(store.object_count(), 0, "every key must be reclaimed");
        assert!(outcome.retried_keys > 0, "fault injection inactive");
        // Only the failed subset is re-driven: at a 0.4 per-key failure
        // rate the pending set shrinks geometrically, so the cumulative
        // retried-key count stays well below one extra full pass.
        assert!(
            outcome.retried_keys < 500,
            "re-drove more keys than one full pass: {}",
            outcome.retried_keys
        );
        // …and each retry round is one sub-1000-key request.
        assert!(outcome.requests < 16, "requests: {}", outcome.requests);
    }

    #[test]
    fn batch_delete_exhaustion_is_per_key() {
        use crate::fault::{FaultInjector, FaultPlan};
        use std::sync::Arc;
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let plan = FaultPlan {
            seed: 1,
            delete_fail_rate: 1.0,
            ..FaultPlan::none()
        };
        let inj = FaultInjector::new(store.clone(), plan);
        let keys = vec![key(1), key(2)];
        for &k in &keys {
            inj.put(k, Bytes::from_static(b"x")).unwrap();
        }
        let policy = RetryPolicy::attempts(3);
        let outcome = policy.delete_batch(&inj, &keys);
        for (k, r) in &outcome.results {
            assert_eq!(
                r.clone().unwrap_err(),
                IqError::RetriesExhausted {
                    key: *k,
                    attempts: 3
                }
            );
        }
        assert_eq!(outcome.requests, 3);
        assert_eq!(outcome.retried_keys, 4, "2 keys × 2 retry rounds");
        assert_eq!(store.object_count(), 2, "nothing was deleted");
    }

    #[test]
    fn backoff_waits_double_and_cap() {
        let policy = RetryPolicy {
            jitter_pct: 0,
            ..RetryPolicy::attempts(16)
        };
        let w1 = policy.backoff_wait(key(1), 1);
        let w2 = policy.backoff_wait(key(1), 2);
        let w3 = policy.backoff_wait(key(1), 3);
        assert_eq!(w2.as_nanos(), 2 * w1.as_nanos());
        assert_eq!(w3.as_nanos(), 4 * w1.as_nanos());
        let wbig = policy.backoff_wait(key(1), 15);
        assert_eq!(wbig, policy.max_backoff);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let a = policy.backoff_wait(key(3), 2);
        let b = policy.backoff_wait(key(3), 2);
        assert_eq!(a, b, "same (seed, key, attempt) ⇒ same wait");
        let other_key = policy.backoff_wait(key(4), 2);
        let nominal = 2 * policy.base_backoff.as_nanos();
        let spread = nominal / 100 * u64::from(policy.jitter_pct);
        for w in [a, other_key] {
            assert!(w.as_nanos() >= nominal - spread / 2);
            assert!(w.as_nanos() <= nominal + spread / 2 + 1);
        }
    }
}
