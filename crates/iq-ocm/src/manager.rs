//! The OCM proper: a scan-resistant SSD cache with an asynchronous write
//! queue.
//!
//! The slot list is a segmented LRU ([`iq_buffer::SlruCache`]): reads
//! issued on behalf of a table scan are admitted probationary (see
//! [`Ocm::read_hinted`]), so one analytic sweep over a large table cannot
//! evict the point-read working set from the SSD tier — which would
//! otherwise turn every subsequent point read into a priced object-store
//! GET (§4/§5's motivation for the OCM).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use iq_buffer::{Admission, SlruCache};
use iq_common::trace::{self, EventKind};
use iq_common::{IqError, IqResult, ObjectKey, TxnId};
use iq_objectstore::{BlockBackend, BlockDeviceSim, ObjectBackend, RetryPolicy};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use crate::slots::SlotAllocator;

/// How a write interacts with the SSD cache and the object store (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Churn phase: synchronous SSD write, asynchronous store upload.
    WriteBack,
    /// Commit phase: synchronous store upload, asynchronous SSD caching.
    WriteThrough,
}

/// OCM configuration.
#[derive(Debug, Clone)]
pub struct OcmConfig {
    /// Slot size: the maximum sealed page image (one page per slot).
    pub slot_bytes: u32,
    /// SSD cache area in bytes.
    pub capacity_bytes: u64,
    /// Fraction of the slot budget reserved for the protected SLRU
    /// segment (clamped to `[0, 1]`; 0 yields plain LRU with no scan
    /// resistance).
    pub protected_fraction: f64,
    /// Retry budget for object-store operations.
    pub retry: RetryPolicy,
}

/// Hit/miss/eviction counters — exactly the Table 5 columns.
#[derive(Debug, Default)]
pub struct OcmStats {
    /// Objects served from the SSD cache.
    pub hits: AtomicU64,
    /// Objects read through to the object store.
    pub misses: AtomicU64,
    /// Cache entries evicted to make room.
    pub evictions: AtomicU64,
}

/// A snapshot of [`OcmStats`].
#[derive(Debug, Clone, Copy, Serialize, PartialEq, Eq)]
pub struct OcmStatsSnapshot {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Evictions.
    pub evictions: u64,
}

impl OcmStatsSnapshot {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    slot: u64,
    len: u32,
}

enum Job {
    /// Write-back upload; `cache_slot` already holds the bytes on SSD.
    StorePut {
        txn: TxnId,
        key: ObjectKey,
        data: Bytes,
        cache_slot: Option<u64>,
    },
    /// Asynchronous SSD population after a read-through or write-through.
    /// `scan` carries the originating read's admission hint to the slot
    /// list (scan reads are admitted probationary).
    CachePopulate {
        key: ObjectKey,
        data: Bytes,
        scan: bool,
    },
}

impl Job {
    fn txn(&self) -> Option<TxnId> {
        match self {
            Job::StorePut { txn, .. } => Some(*txn),
            Job::CachePopulate { .. } => None,
        }
    }
}

struct Inner {
    cache: SlruCache<ObjectKey, CacheEntry>,
    slots: SlotAllocator,
    queue: VecDeque<Job>,
    /// Outstanding asynchronous store uploads per transaction.
    pending_puts: HashMap<TxnId, usize>,
    /// First upload failure per transaction (forces rollback).
    txn_errors: HashMap<TxnId, IqError>,
    /// Transactions that signalled FlushForCommit; their writes are
    /// forced to write-through from then on.
    commit_mode: HashSet<TxnId>,
    /// Object images queued for SSD population but not yet durable in a
    /// slot. A read that lands here is a cache hit (the store round trip
    /// was already paid and counted by the populate's originator), and the
    /// key must not be enqueued for population a second time.
    pending_populates: HashMap<ObjectKey, Bytes>,
    shutdown: bool,
}

/// The Object Cache Manager.
pub struct Ocm {
    inner: Arc<Mutex<Inner>>,
    work_cv: Arc<Condvar>,
    done_cv: Arc<Condvar>,
    ssd: Arc<BlockDeviceSim>,
    store: Arc<dyn ObjectBackend>,
    config: OcmConfig,
    /// Live counters (Table 5).
    pub stats: Arc<OcmStats>,
    worker: Option<JoinHandle<()>>,
}

impl Ocm {
    /// Build an OCM over `ssd` (the instance-local device) caching objects
    /// from `store`.
    pub fn new(ssd: Arc<BlockDeviceSim>, store: Arc<dyn ObjectBackend>, config: OcmConfig) -> Self {
        let block = ssd.block_size();
        assert!(
            config.slot_bytes.is_multiple_of(block),
            "slot must be whole blocks"
        );
        let blocks_per_slot = config.slot_bytes / block;
        // Slot counts stay 64-bit end to end: a large simulated SSD holds
        // more than 2³² slots, and a u32 cast here silently shrank the
        // cache to the truncated remainder.
        let device_slots = ssd.capacity_blocks() / blocks_per_slot as u64;
        let budget_slots = config.capacity_bytes / config.slot_bytes as u64;
        let total_slots = device_slots.min(budget_slots);
        let protected_slots =
            (total_slots as f64 * config.protected_fraction.clamp(0.0, 1.0)) as usize;
        let inner = Arc::new(Mutex::new(Inner {
            cache: SlruCache::new(protected_slots),
            slots: SlotAllocator::new(total_slots, blocks_per_slot),
            queue: VecDeque::new(),
            pending_puts: HashMap::new(),
            txn_errors: HashMap::new(),
            commit_mode: HashSet::new(),
            pending_populates: HashMap::new(),
            shutdown: false,
        }));
        let work_cv = Arc::new(Condvar::new());
        let done_cv = Arc::new(Condvar::new());
        let stats = Arc::new(OcmStats::default());

        let worker = {
            let inner = Arc::clone(&inner);
            let work_cv = Arc::clone(&work_cv);
            let done_cv = Arc::clone(&done_cv);
            let ssd = Arc::clone(&ssd);
            let store = Arc::clone(&store);
            let stats = Arc::clone(&stats);
            let retry = config.retry;
            let slot_bytes = config.slot_bytes;
            std::thread::Builder::new()
                .name("ocm-writer".into())
                .spawn(move || {
                    worker_loop(
                        &inner,
                        &work_cv,
                        &done_cv,
                        &ssd,
                        store.as_ref(),
                        &stats,
                        retry,
                        slot_bytes,
                    )
                })
                .expect("spawn OCM worker")
        };

        Self {
            inner,
            work_cv,
            done_cv,
            ssd,
            store,
            config,
            stats,
            worker: Some(worker),
        }
    }

    /// Cache capacity in slots.
    pub fn capacity_slots(&self) -> u64 {
        self.inner.lock().slots.total()
    }

    /// Entries currently cached.
    pub fn cached_objects(&self) -> usize {
        self.inner.lock().cache.len()
    }

    /// Snapshot the Table 5 counters.
    pub fn stats_snapshot(&self) -> OcmStatsSnapshot {
        OcmStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }

    /// Read an object: SSD cache hit, or read-through with asynchronous
    /// cache population. Point-read admission (promotes on re-hit).
    pub fn read(&self, key: ObjectKey) -> IqResult<Bytes> {
        self.read_hinted(key, false)
    }

    /// Read an object, hinting whether a table scan issued it. Scan reads
    /// are admitted to the probationary SLRU segment so a full-table sweep
    /// recycles its own slots instead of evicting the point-read working
    /// set.
    pub fn read_hinted(&self, key: ObjectKey, scan: bool) -> IqResult<Bytes> {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.cache.get(&key).copied() {
            // Sample the async-write queue depth: deep queues inflate SSD
            // read latency in the time model (Figure 6's anomaly).
            let depth = inner.queue.len() as u64;
            self.ssd.stats.record_queue_depth(depth);
            trace::emit(EventKind::OcmQueueDepth { depth });
            let start = inner.slots.slot_start(entry.slot);
            // Read only the blocks the object actually covers.
            let blocks = entry.len.div_ceil(self.ssd.block_size()).max(1);
            // Hold the lock across the SSD read so eviction cannot recycle
            // the slot underneath us (the simulation's equivalent of a pin).
            let image = self.ssd.read_blocks(start, blocks)?; // LOCK-OK: slot pin

            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::OcmHit { key: key.offset() });
            return Ok(image.slice(0..entry.len as usize));
        }
        if let Some(data) = inner.pending_populates.get(&key).cloned() {
            // Queued for population but not yet in a durable slot: serve the
            // queued image and count a hit. The read-through that queued it
            // already counted the miss; bumping misses again here (and
            // re-enqueueing a populate) double-counted Table 5 until the
            // slot became durable.
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::OcmHit { key: key.offset() });
            return Ok(data);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::OcmMiss { key: key.offset() });
        drop(inner);
        let data = self.config.retry.get(self.store.as_ref(), key)?;
        // Asynchronously cache for future lookups (read-through) — unless
        // the object exceeds the slot size, in which case it is served
        // directly and never cached: a truncated slot image would corrupt
        // every later hit.
        if validate_slot_len(data.len(), self.config.slot_bytes).is_ok() {
            let mut inner = self.inner.lock();
            if inner.cache.peek(&key).is_none() && !inner.pending_populates.contains_key(&key) {
                inner.pending_populates.insert(key, data.clone());
                inner.queue.push_back(Job::CachePopulate {
                    key,
                    data: data.clone(),
                    scan,
                });
                self.work_cv.notify_one();
            }
        }
        Ok(data)
    }

    /// Write an object on behalf of `txn`. The mode is upgraded to
    /// write-through once the transaction has signalled FlushForCommit.
    pub fn write(&self, key: ObjectKey, data: Bytes, txn: TxnId, mode: WriteMode) -> IqResult<()> {
        validate_slot_len(data.len(), self.config.slot_bytes)?;
        let mut inner = self.inner.lock();
        let effective = if inner.commit_mode.contains(&txn) {
            WriteMode::WriteThrough
        } else {
            mode
        };
        match effective {
            WriteMode::WriteBack => {
                let cache_slot = allocate_slot(&mut inner, &self.stats);
                let slot_meta =
                    cache_slot.map(|s| (inner.slots.slot_start(s), inner.slots.blocks_per_slot()));
                *inner.pending_puts.entry(txn).or_insert(0) += 1;
                drop(inner);
                // Synchronous SSD write; "if a write to the locally
                // attached storage fails, the error is ignored" (§4).
                let mut final_slot = cache_slot;
                if let Some((start, _)) = slot_meta {
                    // Write only the blocks the object needs within its slot.
                    if self.ssd.write_blocks(start, &data).is_err() {
                        let mut inner = self.inner.lock();
                        if let Some(s) = cache_slot {
                            inner.slots.free(s);
                        }
                        final_slot = None;
                    }
                }
                let mut inner = self.inner.lock();
                inner.queue.push_back(Job::StorePut {
                    txn,
                    key,
                    data,
                    cache_slot: final_slot,
                });
                self.work_cv.notify_one();
                Ok(())
            }
            WriteMode::WriteThrough => {
                drop(inner);
                // Synchronous upload; failure rolls the transaction back
                // at the caller.
                self.config
                    .retry
                    .put(self.store.as_ref(), key, data.clone())?;
                let mut inner = self.inner.lock();
                inner.pending_populates.insert(key, data.clone());
                inner.queue.push_back(Job::CachePopulate {
                    key,
                    data,
                    scan: false,
                });
                self.work_cv.notify_one();
                Ok(())
            }
        }
    }

    /// FlushForCommit: prioritize `txn`'s queued uploads, switch it to
    /// write-through, and wait for its uploads to drain. An upload failure
    /// surfaces here so the caller rolls the transaction back.
    pub fn flush_for_commit(&self, txn: TxnId) -> IqResult<()> {
        let mut inner = self.inner.lock();
        inner.commit_mode.insert(txn);
        // Stable-partition: this transaction's jobs move to the head,
        // preserving their relative order.
        let (mine, rest): (VecDeque<Job>, VecDeque<Job>) =
            inner.queue.drain(..).partition(|j| j.txn() == Some(txn));
        inner.queue = mine;
        inner.queue.extend(rest);
        self.work_cv.notify_all();
        loop {
            if let Some(err) = inner.txn_errors.remove(&txn) {
                return Err(err);
            }
            if inner.pending_puts.get(&txn).copied().unwrap_or(0) == 0 {
                return Ok(());
            }
            self.done_cv.wait(&mut inner);
        }
    }

    /// Forget a finished transaction's OCM state (commit-mode flag and any
    /// unobserved error).
    pub fn end_txn(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        inner.commit_mode.remove(&txn);
        inner.txn_errors.remove(&txn);
        inner.pending_puts.remove(&txn);
    }

    /// Wait for the queue to drain entirely (tests and shutdown barriers).
    pub fn quiesce(&self) {
        let mut inner = self.inner.lock();
        while !inner.queue.is_empty()
            || !inner.pending_populates.is_empty()
            || inner.pending_puts.values().any(|&n| n > 0)
        {
            self.done_cv.wait(&mut inner);
        }
    }

    /// Whether an object is currently cached (does not touch recency).
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.inner.lock().cache.peek(&key).is_some()
    }

    /// Snapshot of the SSD device's request ledger (queue-depth samples
    /// feed the write-pressure model).
    pub fn ssd_stats(&self) -> iq_objectstore::StatsSnapshot {
        self.ssd.stats.snapshot()
    }

    /// Drop every cached entry (instance restart: instance storage is
    /// ephemeral, so the OCM always restarts cold).
    pub fn clear_cache(&self) {
        let mut inner = self.inner.lock();
        while let Some((_, e)) = inner.cache.pop_victim() {
            inner.slots.free(e.slot);
        }
    }
}

impl Drop for Ocm {
    fn drop(&mut self) {
        {
            let mut inner = self.inner.lock();
            inner.shutdown = true;
            self.work_cv.notify_all();
        }
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

/// Allocate a slot, evicting the best SLRU victim (probationary first) if
/// the pool is exhausted.
fn allocate_slot(inner: &mut Inner, stats: &OcmStats) -> Option<u64> {
    if let Some(s) = inner.slots.allocate() {
        return Some(s);
    }
    if let Some((old_key, old)) = inner.cache.pop_victim() {
        stats.evictions.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::OcmEvict {
            key: old_key.offset(),
        });
        inner.slots.free(old.slot);
        return inner.slots.allocate();
    }
    None
}

/// Validate an object image length against the OCM slot size.
///
/// Returns the length narrowed to `u32` only when it provably fits in one
/// slot. Lengths that overflow `u32` (or merely the slot) are rejected with
/// [`IqError::Invalid`] — the old `as u32` casts silently truncated them at
/// PUT time, recording a wrong `CacheEntry::len` and letting the
/// image overrun neighbouring slots.
pub fn validate_slot_len(len: usize, slot_bytes: u32) -> IqResult<u32> {
    let narrowed = u32::try_from(len).map_err(|_| {
        IqError::Invalid(format!(
            "object of {len} bytes overflows the u32 slot-length field"
        ))
    })?;
    if narrowed > slot_bytes {
        return Err(IqError::Invalid(format!(
            "object of {len} bytes exceeds OCM slot size {slot_bytes}"
        )));
    }
    Ok(narrowed)
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    inner: &Mutex<Inner>,
    work_cv: &Condvar,
    done_cv: &Condvar,
    ssd: &BlockDeviceSim,
    store: &dyn ObjectBackend,
    stats: &OcmStats,
    retry: RetryPolicy,
    slot_bytes: u32,
) {
    let mut guard = inner.lock();
    loop {
        if guard.shutdown {
            return;
        }
        let Some(job) = guard.queue.pop_front() else {
            work_cv.wait(&mut guard);
            continue;
        };
        match job {
            Job::StorePut {
                txn,
                key,
                data,
                cache_slot,
            } => {
                drop(guard);
                let len = data.len() as u32;
                let result = retry.put(store, key, data);
                guard = inner.lock();
                if let Some(n) = guard.pending_puts.get_mut(&txn) {
                    *n = n.saturating_sub(1);
                }
                match result {
                    Ok(()) => {
                        // Only now does the entry join the LRU: "a page is
                        // not added to the LRU list until it has been
                        // successfully written to the underlying object
                        // store" (§4).
                        if let Some(slot) = cache_slot {
                            if let Some(old) = guard.cache.insert(
                                key,
                                CacheEntry { slot, len },
                                1,
                                Admission::Demand,
                            ) {
                                guard.slots.free(old.slot);
                            }
                        }
                    }
                    Err(e) => {
                        if let Some(slot) = cache_slot {
                            guard.slots.free(slot);
                        }
                        guard.txn_errors.entry(txn).or_insert(e);
                    }
                }
                done_cv.notify_all();
            }
            Job::CachePopulate { key, data, scan } => {
                if guard.cache.peek(&key).is_some() {
                    // Already cached by a racing populate.
                    guard.pending_populates.remove(&key);
                    done_cv.notify_all();
                    continue;
                }
                // Defence in depth: never slot an image larger than a slot.
                // The old unchecked `data.len() as u32` truncated the stored
                // length and let the image overrun neighbouring slots.
                let Ok(len) = validate_slot_len(data.len(), slot_bytes) else {
                    guard.pending_populates.remove(&key);
                    done_cv.notify_all();
                    continue;
                };
                let Some(slot) = allocate_slot(&mut guard, stats) else {
                    guard.pending_populates.remove(&key);
                    done_cv.notify_all();
                    continue;
                };
                let start = guard.slots.slot_start(slot);
                drop(guard);
                let ok = ssd.write_blocks(start, &data).is_ok();
                guard = inner.lock();
                // The key leaves the pending set in every outcome, success
                // or not — a stale entry would count phantom hits forever.
                guard.pending_populates.remove(&key);
                if ok {
                    let admit = if scan {
                        Admission::Scan
                    } else {
                        Admission::Demand
                    };
                    if let Some(old) = guard.cache.insert(key, CacheEntry { slot, len }, 1, admit) {
                        guard.slots.free(old.slot);
                    }
                } else {
                    guard.slots.free(slot);
                }
                done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim};

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    fn setup(slots: u32) -> (Ocm, Arc<ObjectStoreSim>) {
        let slot_bytes = 1024u32;
        let ssd = Arc::new(BlockDeviceSim::new(256, slots as u64 * 4));
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let ocm = Ocm::new(
            ssd,
            store.clone(),
            OcmConfig {
                slot_bytes,
                capacity_bytes: slots as u64 * slot_bytes as u64,
                protected_fraction: 0.8,
                retry: RetryPolicy::default(),
            },
        );
        (ocm, store)
    }

    #[test]
    fn read_through_populates_cache() {
        let (ocm, store) = setup(8);
        store.put(key(1), Bytes::from_static(b"hello")).unwrap();
        store.settle();
        let first = ocm.read(key(1)).unwrap();
        assert_eq!(&first[..], b"hello");
        ocm.quiesce();
        assert!(ocm.contains(key(1)));
        let second = ocm.read(key(1)).unwrap();
        assert_eq!(&second[..], b"hello");
        let snap = ocm.stats_snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 1);
    }

    #[test]
    fn write_back_uploads_async_and_caches_after_success() {
        let (ocm, store) = setup(8);
        let txn = TxnId(1);
        ocm.write(
            key(2),
            Bytes::from_static(b"wb-data"),
            txn,
            WriteMode::WriteBack,
        )
        .unwrap();
        ocm.flush_for_commit(txn).unwrap();
        assert!(store.exists(key(2)));
        ocm.quiesce();
        assert!(ocm.contains(key(2)));
        assert_eq!(&ocm.read(key(2)).unwrap()[..], b"wb-data");
        ocm.end_txn(txn);
    }

    #[test]
    fn write_through_is_synchronous_on_store() {
        let (ocm, store) = setup(8);
        let txn = TxnId(1);
        ocm.write(
            key(3),
            Bytes::from_static(b"wt"),
            txn,
            WriteMode::WriteThrough,
        )
        .unwrap();
        // Visible on the store immediately, before any quiesce.
        assert!(store.exists(key(3)));
        ocm.quiesce();
        assert!(ocm.contains(key(3)));
    }

    #[test]
    fn commit_mode_upgrades_subsequent_writes() {
        let (ocm, store) = setup(8);
        let txn = TxnId(4);
        ocm.write(key(10), Bytes::from_static(b"a"), txn, WriteMode::WriteBack)
            .unwrap();
        ocm.flush_for_commit(txn).unwrap();
        // After FlushForCommit, a write requested as write-back still goes
        // through synchronously.
        ocm.write(key(11), Bytes::from_static(b"b"), txn, WriteMode::WriteBack)
            .unwrap();
        assert!(store.exists(key(11)));
        ocm.end_txn(txn);
    }

    #[test]
    fn duplicate_write_fails_commit() {
        let (ocm, store) = setup(8);
        store.put(key(20), Bytes::from_static(b"original")).unwrap();
        let txn = TxnId(5);
        // Violates never-write-twice: the async upload fails and the error
        // surfaces at FlushForCommit, forcing rollback.
        ocm.write(
            key(20),
            Bytes::from_static(b"dup"),
            txn,
            WriteMode::WriteBack,
        )
        .unwrap();
        let err = ocm.flush_for_commit(txn).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(20)));
        ocm.end_txn(txn);
        // The failed page never joined the LRU.
        assert!(!ocm.contains(key(20)));
    }

    #[test]
    fn eviction_frees_slots_probationary_lru() {
        let (ocm, store) = setup(2);
        for off in 0..4u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 100]))
                .unwrap();
        }
        store.settle();
        for off in 0..4u64 {
            ocm.read(key(off)).unwrap();
            ocm.quiesce();
        }
        let snap = ocm.stats_snapshot();
        assert_eq!(snap.misses, 4);
        assert_eq!(snap.evictions, 2);
        assert_eq!(ocm.cached_objects(), 2);
        // Oldest two are gone; newest two are hits.
        assert!(!ocm.contains(key(0)));
        assert!(ocm.contains(key(3)));
    }

    #[test]
    fn scan_reads_cannot_evict_promoted_point_read_set() {
        let (ocm, store) = setup(2);
        for off in 0..8u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 100]))
                .unwrap();
        }
        store.settle();
        // Point-read key 0 twice: miss + hit, promoting it to protected.
        ocm.read(key(0)).unwrap();
        ocm.quiesce();
        ocm.read(key(0)).unwrap();
        // A scan sweeps keys 1..8 — four times the cache capacity.
        for off in 1..8u64 {
            ocm.read_hinted(key(off), true).unwrap();
            ocm.quiesce();
        }
        // The scan recycled its own probationary slots; the hot key kept
        // its slot and still hits.
        assert!(ocm.contains(key(0)), "scan evicted the protected hot key");
        let hits_before = ocm.stats_snapshot().hits;
        ocm.read(key(0)).unwrap();
        assert_eq!(ocm.stats_snapshot().hits, hits_before + 1);
    }

    #[test]
    fn zero_capacity_ocm_still_correct() {
        let (ocm, store) = setup(0);
        store.put(key(1), Bytes::from_static(b"x")).unwrap();
        store.settle();
        assert_eq!(&ocm.read(key(1)).unwrap()[..], b"x");
        ocm.quiesce();
        assert_eq!(ocm.cached_objects(), 0);
        let txn = TxnId(1);
        ocm.write(key(2), Bytes::from_static(b"y"), txn, WriteMode::WriteBack)
            .unwrap();
        ocm.flush_for_commit(txn).unwrap();
        assert!(store.exists(key(2)));
        ocm.end_txn(txn);
    }

    #[test]
    fn huge_ssd_capacity_does_not_truncate_slot_count() {
        // More than 2³² slots. The simulated SSD is sparse, so sizing a
        // huge device is cheap; before the u64 widening this config
        // truncated to `slots % 2³² = 8` slots.
        let slot_bytes = 1024u32;
        let slots = u32::MAX as u64 + 8;
        let ssd = Arc::new(BlockDeviceSim::new(256, slots * 4));
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let ocm = Ocm::new(
            ssd,
            store.clone(),
            OcmConfig {
                slot_bytes,
                capacity_bytes: slots * slot_bytes as u64,
                protected_fraction: 0.8,
                retry: RetryPolicy::default(),
            },
        );
        assert_eq!(ocm.capacity_slots(), slots);
        // And the cache still works at ordinary scale.
        store.put(key(1), Bytes::from_static(b"big")).unwrap();
        store.settle();
        assert_eq!(&ocm.read(key(1)).unwrap()[..], b"big");
        ocm.quiesce();
        assert!(ocm.contains(key(1)));
    }

    #[test]
    fn pending_populate_counts_hits_once_per_miss() {
        let (ocm, store) = setup(8);
        store.put(key(7), Bytes::from_static(b"seq")).unwrap();
        store.settle();
        // Scripted sequence: three reads with no quiesce in between. Only
        // the first pays (and counts) the store round trip; the next two
        // are served from the durable slot or from the queued populate
        // image — either way exactly one miss, two hits, one populate.
        for _ in 0..3 {
            assert_eq!(&ocm.read(key(7)).unwrap()[..], b"seq");
        }
        let snap = ocm.stats_snapshot();
        assert_eq!((snap.misses, snap.hits), (1, 2));
        ocm.quiesce();
        assert!(ocm.contains(key(7)));
        assert_eq!(ocm.cached_objects(), 1);
        assert_eq!(ocm.stats_snapshot().evictions, 0);
    }

    #[test]
    fn oversized_lengths_are_rejected_not_truncated() {
        // A length that overflows u32 entirely: the old cast truncated
        // `u32::MAX + 1` to zero bytes — accepted, then served empty.
        let overflow = u32::MAX as usize + 1;
        assert!(matches!(
            validate_slot_len(overflow, u32::MAX),
            Err(IqError::Invalid(_))
        ));
        // Fits in u32 but not in the slot.
        assert!(matches!(
            validate_slot_len(1025, 1024),
            Err(IqError::Invalid(_))
        ));
        assert_eq!(validate_slot_len(1024, 1024).unwrap(), 1024);
        assert_eq!(validate_slot_len(0, 1024).unwrap(), 0);
        // At the u32 ceiling exactly, the narrowing is still lossless.
        assert_eq!(
            validate_slot_len(u32::MAX as usize, u32::MAX).unwrap(),
            u32::MAX
        );
    }

    #[test]
    fn oversized_write_is_rejected_at_put_time() {
        let (ocm, _store) = setup(8);
        let err = ocm
            .write(
                key(1),
                Bytes::from(vec![0u8; 2048]),
                TxnId(1),
                WriteMode::WriteBack,
            )
            .unwrap_err();
        assert!(matches!(err, IqError::Invalid(_)));
    }

    #[test]
    fn oversized_read_through_is_served_but_never_cached() {
        let (ocm, store) = setup(8);
        // 2000 bytes > the 1024-byte slot, written to the store directly
        // (bypassing the OCM write-path validation).
        store.put(key(30), Bytes::from(vec![7u8; 2000])).unwrap();
        store.put(key(31), Bytes::from_static(b"small")).unwrap();
        store.settle();
        let data = ocm.read(key(30)).unwrap();
        assert_eq!(data.len(), 2000); // served in full, not truncated
        ocm.quiesce();
        assert!(!ocm.contains(key(30))); // and never cached
                                         // A normal neighbour still caches fine.
        assert_eq!(&ocm.read(key(31)).unwrap()[..], b"small");
        ocm.quiesce();
        assert!(ocm.contains(key(31)));
        assert_eq!(&ocm.read(key(31)).unwrap()[..], b"small");
    }

    #[test]
    fn queue_depth_samples_recorded_on_hits() {
        let (ocm, store) = setup(8);
        store.put(key(1), Bytes::from_static(b"z")).unwrap();
        store.settle();
        ocm.read(key(1)).unwrap();
        ocm.quiesce();
        ocm.read(key(1)).unwrap(); // hit → sample
        let snap = ocm.ssd_stats();
        assert!(snap.mean_queue_depth >= 0.0);
    }
}
