//! The OCM proper: a scan-resistant SSD cache with an asynchronous write
//! queue, keyed by [`Extent`].
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
use iq_common::{BlockNum, IqError, IqResult, ObjectKey, TxnId};
use iq_objectstore::{BlockBackend, BlockDeviceSim, ObjectBackend, RetryPolicy};
use iq_storage::ExtentCache;
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

/// What the OCM caches: the byte run of an object that starts at `offset`,
/// one page image per slot. A whole object is the extent at offset 0; a
/// composite member is the extent at its byte offset, so a member is
/// fetched (by ranged GET) and cached on its own, as the chunked-object
/// layout addresses each chunk by its offset in the object's manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Extent {
    /// The object.
    pub key: ObjectKey,
    /// Byte offset of the run inside the object.
    pub offset: u32,
}

impl From<ObjectKey> for Extent {
    /// A whole object.
    fn from(key: ObjectKey) -> Self {
        Self { key, offset: 0 }
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    slot: u64,
    len: u32,
}

/// One page of a write-back group. `slot` already holds `image` on SSD,
/// unless the SSD write failed or no slot was free.
struct Member {
    extent: Extent,
    slot: Option<u64>,
    image: Bytes,
}

enum Job {
    /// Write-back upload of a whole object — one page, or a composite of
    /// several — whose members already sit in their SSD slots.
    StorePut {
        txn: TxnId,
        key: ObjectKey,
        data: Bytes,
        members: Vec<Extent>,
    },
    /// Asynchronous SSD population after a read-through or write-through.
    /// `scan` carries the originating read's admission hint to the slot
    /// list (scan reads are admitted probationary).
    CachePopulate {
        extent: Extent,
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
    cache: SlruCache<Extent, CacheEntry>,
    slots: SlotAllocator,
    queue: VecDeque<Job>,
    /// Outstanding asynchronous store uploads per transaction.
    pending_puts: HashMap<TxnId, usize>,
    /// First upload failure per transaction (forces rollback).
    txn_errors: HashMap<TxnId, IqError>,
    /// Transactions that signalled FlushForCommit; their writes are
    /// forced to write-through from then on.
    commit_mode: HashSet<TxnId>,
    /// Images queued for SSD population but not yet durable in a slot. A
    /// read that lands here is a cache hit (the store round trip was
    /// already paid and counted by the populate's originator), and the
    /// extent must not be enqueued for population a second time.
    pending_populates: HashMap<Extent, Bytes>,
    /// Write-back members whose upload has not resolved. They are not in
    /// the LRU yet (§4), but the store may not have them either, so a read
    /// is served from here and counts as a hit.
    queued_writes: HashMap<Extent, Member>,
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
            queued_writes: HashMap::new(),
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
    /// cache population. `scan` hints whether a table scan issued it: scan
    /// reads are admitted to the probationary SLRU segment so a full-table
    /// sweep recycles its own slots instead of evicting the point-read
    /// working set; point reads promote on re-hit.
    pub fn read_hinted(&self, key: ObjectKey, scan: bool) -> IqResult<Bytes> {
        self.read_extent(key.into(), scan, || {
            self.config.retry.get(self.store.as_ref(), key)
        })
    }

    /// Read one extent, hinted as [`Ocm::read_hinted`]: an SSD hit, a hit
    /// on an image still queued for upload or population, or a miss that
    /// `fetch` reads through from the store — a GET for a whole object, a
    /// ranged GET for a composite member — and that is cached
    /// asynchronously.
    pub fn read_extent(
        &self,
        extent: Extent,
        scan: bool,
        fetch: impl FnOnce() -> IqResult<Bytes>,
    ) -> IqResult<Bytes> {
        let mut inner = self.inner.lock();
        let key = extent.key;
        // A write-back member waiting on its upload is read from its slot
        // like a cached one: the store may not have it yet.
        let slotted = inner.cache.get(&extent).copied().or_else(|| {
            let m = inner.queued_writes.get(&extent)?;
            Some(CacheEntry {
                slot: m.slot?,
                len: m.image.len() as u32,
            })
        });
        if let Some(entry) = slotted {
            // Sample the async-write queue depth: deep queues inflate SSD
            // read latency in the time model (Figure 6's anomaly).
            let depth = inner.queue.len() as u64;
            self.ssd.stats.record_queue_depth(depth);
            trace::emit(EventKind::OcmQueueDepth { depth });
            let start = inner.slots.slot_start(entry.slot);
            // Read only the blocks the object actually covers. Hold the
            // lock across the SSD read so eviction cannot recycle the slot
            // underneath us (the simulation's equivalent of a pin).
            let image = self.ssd.read_bytes(start, entry.len)?; // LOCK-OK: slot pin

            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::OcmHit { key: key.offset() });
            return Ok(image);
        }
        let queued = match inner.queued_writes.get(&extent) {
            Some(m) => Some(m.image.clone()),
            None => inner.pending_populates.get(&extent).cloned(),
        };
        if let Some(data) = queued {
            // Queued but not in a durable slot: serve the queued image and
            // count a hit. For a populate, the read-through that queued it
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
        let data = fetch()?;
        // Asynchronously cache for future lookups (read-through) — unless
        // the image exceeds the slot size, in which case it is served
        // directly and never cached: a truncated slot image would corrupt
        // every later hit.
        if validate_slot_len(data.len(), self.config.slot_bytes).is_ok() {
            let mut inner = self.inner.lock();
            if inner.cache.peek(&extent).is_none()
                && !inner.pending_populates.contains_key(&extent)
                && !inner.queued_writes.contains_key(&extent)
            {
                inner.pending_populates.insert(extent, data.clone());
                inner.queue.push_back(Job::CachePopulate {
                    extent,
                    data: data.clone(),
                    scan,
                });
                self.work_cv.notify_one();
            }
        }
        Ok(data)
    }

    /// Write an object on behalf of `txn` whose pages are the
    /// `(offset, len)` runs of `data`: a composite, or one page at offset
    /// 0. The mode is upgraded to write-through once the transaction has
    /// signalled FlushForCommit.
    ///
    /// Write-back puts each page in its own SSD slot synchronously and
    /// queues one upload for the whole object; the pages join the LRU only
    /// when it lands, and until then a read is served from the slot. A
    /// failed upload frees every slot and fails `txn`'s commit.
    /// Write-through uploads synchronously, then caches every page
    /// asynchronously.
    pub fn write_group(
        &self,
        key: ObjectKey,
        data: Bytes,
        members: &[(u32, u32)],
        txn: TxnId,
        mode: WriteMode,
    ) -> IqResult<()> {
        let mut pages = Vec::with_capacity(members.len());
        for &(offset, len) in members {
            validate_slot_len(len as usize, self.config.slot_bytes)?;
            let (at, end) = (offset as usize, offset as usize + len as usize);
            if end > data.len() {
                return Err(IqError::Invalid(format!(
                    "member {at}..{end} overruns a {}-byte object",
                    data.len()
                )));
            }
            pages.push((Extent { key, offset }, data.slice(at..end)));
        }
        let mut inner = self.inner.lock();
        let effective = if inner.commit_mode.contains(&txn) {
            WriteMode::WriteThrough
        } else {
            mode
        };
        match effective {
            WriteMode::WriteBack => {
                let slots: Vec<Option<(u64, BlockNum)>> = pages
                    .iter()
                    .map(|_| {
                        let slot = allocate_slot(&mut inner, &self.stats)?;
                        Some((slot, inner.slots.slot_start(slot)))
                    })
                    .collect();
                *inner.pending_puts.entry(txn).or_insert(0) += 1;
                drop(inner);
                // Synchronous SSD writes; "if a write to the locally
                // attached storage fails, the error is ignored" (§4): that
                // page is then served from its queued image until the
                // upload lands, and never cached.
                let mut lost = Vec::new();
                let queued: Vec<Member> = pages
                    .into_iter()
                    .zip(slots)
                    .map(|((extent, image), placed)| {
                        let slot = placed.and_then(|(slot, start)| {
                            if self.ssd.write_blocks(start, &image).is_ok() {
                                Some(slot)
                            } else {
                                lost.push(slot);
                                None
                            }
                        });
                        Member {
                            extent,
                            slot,
                            image,
                        }
                    })
                    .collect();
                let mut inner = self.inner.lock();
                for slot in lost {
                    inner.slots.free(slot);
                }
                let members = queued.iter().map(|m| m.extent).collect();
                for m in queued {
                    inner.queued_writes.insert(m.extent, m);
                }
                inner.queue.push_back(Job::StorePut {
                    txn,
                    key,
                    data,
                    members,
                });
                self.work_cv.notify_one();
                Ok(())
            }
            WriteMode::WriteThrough => {
                drop(inner);
                // Synchronous upload; failure rolls the transaction back
                // at the caller.
                self.config.retry.put(self.store.as_ref(), key, data)?;
                let mut inner = self.inner.lock();
                for (extent, image) in pages {
                    inner.pending_populates.insert(extent, image.clone());
                    inner.queue.push_back(Job::CachePopulate {
                        extent,
                        data: image,
                        scan: false,
                    });
                }
                self.work_cv.notify_one();
                Ok(())
            }
        }
    }

    /// FlushForCommit: switch `txn` to write-through, prioritize its
    /// queued uploads, and wait for them to drain. An upload failure
    /// surfaces here so the caller rolls the transaction back.
    ///
    /// A transaction with no upload outstanding — every commit whose pages
    /// went out in composites or write-through — costs one lock and a few
    /// map lookups: the queue is neither re-partitioned nor the worker
    /// woken for it.
    pub fn flush_for_commit(&self, txn: TxnId) -> IqResult<()> {
        let mut inner = self.inner.lock();
        inner.commit_mode.insert(txn);
        if inner.pending_puts.get(&txn).copied().unwrap_or(0) > 0 {
            // Stable-partition: this transaction's jobs move to the head,
            // preserving their relative order.
            let (mine, rest): (VecDeque<Job>, VecDeque<Job>) =
                inner.queue.drain(..).partition(|j| j.txn() == Some(txn));
            inner.queue = mine;
            inner.queue.extend(rest);
            self.work_cv.notify_all();
        }
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

    /// Whether an extent — or, given a key, a whole object — is currently
    /// cached (does not touch recency).
    pub fn contains(&self, extent: impl Into<Extent>) -> bool {
        self.inner.lock().cache.peek(&extent.into()).is_some()
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

impl ExtentCache for Ocm {
    fn read_extent(
        &self,
        key: ObjectKey,
        offset: u32,
        scan: bool,
        fetch: &mut dyn FnMut() -> IqResult<Bytes>,
    ) -> IqResult<Bytes> {
        Ocm::read_extent(self, Extent { key, offset }, scan, fetch)
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
    if let Some((old, entry)) = inner.cache.pop_victim() {
        stats.evictions.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::OcmEvict {
            key: old.key.offset(),
        });
        inner.slots.free(entry.slot);
        return inner.slots.allocate();
    }
    None
}

/// Validate an object image length against the OCM slot size.
///
/// Returns the length narrowed to `u32` only when it provably fits in one
/// slot. Lengths that overflow `u32` (or merely the slot) are rejected with
/// [`IqError::Invalid`]: an `as u32` cast would truncate them silently,
/// recording a wrong `CacheEntry::len` and letting the image overrun
/// neighbouring slots.
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
                members,
            } => {
                drop(guard);
                let result = retry.put(store, key, data);
                guard = inner.lock();
                if let Some(n) = guard.pending_puts.get_mut(&txn) {
                    *n = n.saturating_sub(1);
                }
                for extent in members {
                    let Some(Member { slot, image, .. }) = guard.queued_writes.remove(&extent)
                    else {
                        continue;
                    };
                    let Some(slot) = slot else { continue };
                    if result.is_err() {
                        guard.slots.free(slot);
                        continue;
                    }
                    // Only now does the entry join the LRU: "a page is
                    // not added to the LRU list until it has been
                    // successfully written to the underlying object
                    // store" (§4).
                    let entry = CacheEntry {
                        slot,
                        len: image.len() as u32,
                    };
                    if let Some(old) = guard.cache.insert(extent, entry, 1, Admission::Demand) {
                        guard.slots.free(old.slot);
                    }
                }
                if let Err(e) = result {
                    guard.txn_errors.entry(txn).or_insert(e);
                }
                done_cv.notify_all();
            }
            Job::CachePopulate { extent, data, scan } => {
                if guard.cache.peek(&extent).is_some() {
                    // Already cached by a racing populate.
                    guard.pending_populates.remove(&extent);
                    done_cv.notify_all();
                    continue;
                }
                // Defence in depth: never slot an image larger than a slot.
                // The old unchecked `data.len() as u32` truncated the stored
                // length and let the image overrun neighbouring slots.
                let Ok(len) = validate_slot_len(data.len(), slot_bytes) else {
                    guard.pending_populates.remove(&extent);
                    done_cv.notify_all();
                    continue;
                };
                let Some(slot) = allocate_slot(&mut guard, stats) else {
                    guard.pending_populates.remove(&extent);
                    done_cv.notify_all();
                    continue;
                };
                let start = guard.slots.slot_start(slot);
                drop(guard);
                let ok = ssd.write_blocks(start, &data).is_ok();
                guard = inner.lock();
                // The extent leaves the pending set in every outcome, success
                // or not — a stale entry would count phantom hits forever.
                guard.pending_populates.remove(&extent);
                if ok {
                    let admit = if scan {
                        Admission::Scan
                    } else {
                        Admission::Demand
                    };
                    if let Some(old) =
                        guard
                            .cache
                            .insert(extent, CacheEntry { slot, len }, 1, admit)
                    {
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

    /// Write `data` as a one-page object.
    fn write_one(
        ocm: &Ocm,
        key: ObjectKey,
        data: Bytes,
        txn: TxnId,
        mode: WriteMode,
    ) -> IqResult<()> {
        let len = data.len() as u32;
        ocm.write_group(key, data, &[(0, len)], txn, mode)
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
        let first = ocm.read_hinted(key(1), false).unwrap();
        assert_eq!(&first[..], b"hello");
        ocm.quiesce();
        assert!(ocm.contains(key(1)));
        let second = ocm.read_hinted(key(1), false).unwrap();
        assert_eq!(&second[..], b"hello");
        let snap = ocm.stats_snapshot();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 1);
    }

    #[test]
    fn write_back_uploads_async_and_caches_after_success() {
        let (ocm, store) = setup(8);
        let txn = TxnId(1);
        write_one(
            &ocm,
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
        assert_eq!(&ocm.read_hinted(key(2), false).unwrap()[..], b"wb-data");
        ocm.end_txn(txn);
    }

    #[test]
    fn write_through_is_synchronous_on_store() {
        let (ocm, store) = setup(8);
        let txn = TxnId(1);
        write_one(
            &ocm,
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
        write_one(
            &ocm,
            key(10),
            Bytes::from_static(b"a"),
            txn,
            WriteMode::WriteBack,
        )
        .unwrap();
        ocm.flush_for_commit(txn).unwrap();
        // After FlushForCommit, a write requested as write-back still goes
        // through synchronously.
        write_one(
            &ocm,
            key(11),
            Bytes::from_static(b"b"),
            txn,
            WriteMode::WriteBack,
        )
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
        write_one(
            &ocm,
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
            ocm.read_hinted(key(off), false).unwrap();
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
        ocm.read_hinted(key(0), false).unwrap();
        ocm.quiesce();
        ocm.read_hinted(key(0), false).unwrap();
        // A scan sweeps keys 1..8 — four times the cache capacity.
        for off in 1..8u64 {
            ocm.read_hinted(key(off), true).unwrap();
            ocm.quiesce();
        }
        // The scan recycled its own probationary slots; the hot key kept
        // its slot and still hits.
        assert!(ocm.contains(key(0)), "scan evicted the protected hot key");
        let hits_before = ocm.stats_snapshot().hits;
        ocm.read_hinted(key(0), false).unwrap();
        assert_eq!(ocm.stats_snapshot().hits, hits_before + 1);
    }

    #[test]
    fn zero_capacity_ocm_still_correct() {
        let (ocm, store) = setup(0);
        store.put(key(1), Bytes::from_static(b"x")).unwrap();
        store.settle();
        assert_eq!(&ocm.read_hinted(key(1), false).unwrap()[..], b"x");
        ocm.quiesce();
        assert_eq!(ocm.cached_objects(), 0);
        let txn = TxnId(1);
        write_one(
            &ocm,
            key(2),
            Bytes::from_static(b"y"),
            txn,
            WriteMode::WriteBack,
        )
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
        assert_eq!(&ocm.read_hinted(key(1), false).unwrap()[..], b"big");
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
            assert_eq!(&ocm.read_hinted(key(7), false).unwrap()[..], b"seq");
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
        let err = write_one(
            &ocm,
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
        let data = ocm.read_hinted(key(30), false).unwrap();
        assert_eq!(data.len(), 2000); // served in full, not truncated
        ocm.quiesce();
        assert!(!ocm.contains(key(30))); // and never cached
                                         // A normal neighbour still caches fine.
        assert_eq!(&ocm.read_hinted(key(31), false).unwrap()[..], b"small");
        ocm.quiesce();
        assert!(ocm.contains(key(31)));
        assert_eq!(&ocm.read_hinted(key(31), false).unwrap()[..], b"small");
    }

    /// A strong store whose PUTs wait until the test opens the gate, then
    /// land — or fail, with `fail`.
    struct GatedStore {
        sim: ObjectStoreSim,
        open: Mutex<bool>,
        opened: Condvar,
        fail: bool,
    }

    impl GatedStore {
        fn new(fail: bool) -> Arc<Self> {
            Arc::new(Self {
                sim: ObjectStoreSim::new(ConsistencyConfig::strong()),
                open: Mutex::new(false),
                opened: Condvar::new(),
                fail,
            })
        }

        fn release(&self) {
            *self.open.lock() = true;
            self.opened.notify_all();
        }
    }

    impl ObjectBackend for GatedStore {
        fn put(&self, key: ObjectKey, data: Bytes) -> IqResult<()> {
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
            if self.fail {
                return Err(IqError::DuplicateObjectKey(key));
            }
            self.sim.put(key, data)
        }
        fn get(&self, key: ObjectKey) -> IqResult<Bytes> {
            self.sim.get(key)
        }
        fn delete(&self, key: ObjectKey) -> IqResult<()> {
            self.sim.delete(key)
        }
        fn exists(&self, key: ObjectKey) -> bool {
            self.sim.exists(key)
        }
        fn resident_bytes(&self) -> u64 {
            self.sim.resident_bytes()
        }
        fn stats_snapshot(&self) -> iq_objectstore::StatsSnapshot {
            self.sim.stats_snapshot()
        }
        fn reset_stats(&self) {
            self.sim.reset_stats()
        }
    }

    fn gated(slots: u32, fail: bool) -> (Ocm, Arc<GatedStore>) {
        let slot_bytes = 1024u32;
        let ssd = Arc::new(BlockDeviceSim::new(256, slots as u64 * 4));
        let store = GatedStore::new(fail);
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

    /// Three pages of 300, 500 and 200 bytes laid end to end.
    fn composite() -> (Bytes, Vec<(u32, u32)>) {
        let mut blob = vec![1u8; 300];
        blob.extend(vec![2u8; 500]);
        blob.extend(vec![3u8; 200]);
        (Bytes::from(blob), vec![(0, 300), (300, 500), (800, 200)])
    }

    fn extent(key: ObjectKey, offset: u32) -> Extent {
        Extent { key, offset }
    }

    #[test]
    fn group_members_join_the_lru_only_after_the_put_lands() {
        let (ocm, store) = gated(8, false);
        let (blob, members) = composite();
        let txn = TxnId(1);
        ocm.write_group(key(9), blob.clone(), &members, txn, WriteMode::WriteBack)
            .unwrap();
        // Queued: each member holds a slot but none is in the LRU, and a
        // read is served from the slot as a hit — the store has nothing.
        assert_eq!(ocm.inner.lock().slots.allocated(), 3);
        for &(offset, len) in &members {
            assert!(!ocm.contains(extent(key(9), offset)));
            let at = offset as usize..(offset + len) as usize;
            let read = ocm
                .read_extent(extent(key(9), offset), false, || {
                    panic!("a queued member must not be read from the store")
                })
                .unwrap();
            assert_eq!(read, blob.slice(at));
        }
        assert_eq!(ocm.stats_snapshot().hits, 3);
        assert_eq!(ocm.stats_snapshot().misses, 0);
        assert!(!store.exists(key(9)));
        // The one PUT lands: every member joins, the whole object once.
        store.release();
        ocm.flush_for_commit(txn).unwrap();
        for &(offset, _) in &members {
            assert!(ocm.contains(extent(key(9), offset)));
        }
        assert_eq!(
            store
                .sim
                .stats_snapshot()
                .op(iq_objectstore::IoOp::Put)
                .count,
            1
        );
        assert_eq!(store.sim.max_write_count(), 1);
        ocm.end_txn(txn);
    }

    #[test]
    fn a_failed_group_put_frees_every_member_slot() {
        let (ocm, store) = gated(8, true);
        let (blob, members) = composite();
        let txn = TxnId(2);
        ocm.write_group(key(5), blob, &members, txn, WriteMode::WriteBack)
            .unwrap();
        assert_eq!(ocm.inner.lock().slots.allocated(), 3);
        store.release();
        let err = ocm.flush_for_commit(txn).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(5)));
        ocm.end_txn(txn);
        assert_eq!(ocm.inner.lock().slots.allocated(), 0, "every slot freed");
        assert_eq!(ocm.cached_objects(), 0, "no member joined the LRU");
        assert!(ocm.inner.lock().queued_writes.is_empty());
    }

    #[test]
    fn a_write_back_page_reads_back_before_its_upload_lands() {
        // Write-back then an immediate read, 2 000 times: the read races
        // the worker's upload and must be served by the OCM whether or
        // not it has landed (before, most of these reads went to the
        // store ahead of the PUT and failed).
        let slot_bytes = 1024u32;
        let ssd = Arc::new(BlockDeviceSim::new(256, 64 * 4));
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let ocm = Ocm::new(
            ssd,
            store.clone(),
            OcmConfig {
                slot_bytes,
                capacity_bytes: 64 * slot_bytes as u64,
                protected_fraction: 0.8,
                retry: RetryPolicy::default(),
            },
        );
        let txn = TxnId(3);
        for off in 0..2_000u64 {
            let data = Bytes::from(vec![off as u8; 100 + (off % 700) as usize]);
            write_one(&ocm, key(off), data.clone(), txn, WriteMode::WriteBack).unwrap();
            assert_eq!(
                ocm.read_hinted(key(off), false).unwrap(),
                data,
                "read {off}"
            );
        }
        ocm.flush_for_commit(txn).unwrap();
        assert_eq!(store.max_write_count(), 1);
        ocm.end_txn(txn);
    }

    #[test]
    fn queue_depth_samples_recorded_on_hits() {
        let (ocm, store) = setup(8);
        store.put(key(1), Bytes::from_static(b"z")).unwrap();
        store.settle();
        ocm.read_hinted(key(1), false).unwrap();
        ocm.quiesce();
        ocm.read_hinted(key(1), false).unwrap(); // hit → sample
        let snap = ocm.ssd_stats();
        assert!(snap.mean_queue_depth >= 0.0);
    }
}
