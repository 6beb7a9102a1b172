//! The OCM proper: a scan-resistant SSD cache keyed by [`Extent`], with
//! an asynchronous queue of write-back uploads.
//!
//! Each entry holds the run of SSD blocks its image covers, taken from an
//! [`iq_storage::Freelist`] over the byte budget and weighted in the LRU by
//! its block count, so small images share the budget instead of each
//! taking a page's worth. Every run given back is trimmed off the SSD, so
//! the device holds exactly the blocks the cache charges.
//!
//! The entry list is a segmented LRU ([`iq_buffer::SlruCache`]): reads
//! issued on behalf of a table scan are admitted probationary (see
//! [`Ocm::read_hinted`]), so one analytic sweep over a large table cannot
//! evict the point-read working set from the SSD tier — which would
//! otherwise turn every subsequent point read into a priced object-store
//! GET (§4/§5's motivation for the OCM).
//!
//! Everything but a write-back upload happens in the caller's order: a
//! read-through miss and a write-through page are on the SSD and in the
//! LRU when the call returns, so which reads hit never depends on
//! thread timing. The paper's asynchronous population is a timing claim,
//! and the virtual-time model keeps it: it charges the SSD writes as
//! overlapped work, never on a read's serial path.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bytes::Bytes;
use iq_buffer::{Admission, SlruCache};
use iq_common::trace::{self, EventKind};
use iq_common::{BlockNum, IqError, IqResult, ObjectKey, TxnId};
use iq_objectstore::{BlockBackend, BlockDeviceSim, ObjectBackend, RetryPolicy};
use iq_storage::page::MAX_BLOCKS_PER_PAGE;
use iq_storage::{ExtentCache, Freelist};
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

/// How a write interacts with the SSD cache and the object store (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// Churn phase: synchronous SSD write, asynchronous store upload.
    WriteBack,
    /// Commit phase: synchronous store upload, then the pages are cached.
    WriteThrough,
}

/// OCM configuration.
#[derive(Debug, Clone)]
pub struct OcmConfig {
    /// The largest image an entry may hold (the page size); a larger
    /// image is served but never cached, on the read path and the write
    /// path alike.
    pub slot_bytes: u32,
    /// SSD cache area in bytes: the budget an entry is charged its
    /// image's blocks against.
    pub capacity_bytes: u64,
    /// Fraction of the block budget reserved for the protected SLRU
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
/// one page image per entry. A whole object is the extent at offset 0; a
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

/// A cached image: `len` bytes in the block run from `start`.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    start: BlockNum,
    len: u32,
}

/// A write-back page waiting on its object's upload, with the run from
/// `start` already holding `image` (none if the image is too large to
/// cache, no run was free, or the SSD write failed).
struct Landing {
    image: Bytes,
    start: Option<BlockNum>,
}

/// The worker's one job: upload a write-back object — one page, or a
/// composite of several — on behalf of `txn`, then land its pages. They
/// already sit on the SSD and join the LRU only if the upload lands.
struct Job {
    txn: TxnId,
    key: ObjectKey,
    data: Bytes,
    /// The object's pages, each in [`Inner::landing`].
    extents: Vec<Extent>,
}

struct Inner {
    /// Cached entries, each weighted by its block count.
    cache: SlruCache<Extent, CacheEntry>,
    /// The SSD blocks of the budget: every entry's run, and every landing
    /// page's, is allocated here.
    freelist: Freelist,
    /// SSD block size in bytes.
    block: u32,
    /// The longest run an entry may take: the blocks of `slot_bytes`, no
    /// more than the freelist's longest run or the whole budget.
    max_run: u32,
    queue: VecDeque<Job>,
    /// Outstanding asynchronous store uploads per transaction.
    pending_puts: HashMap<TxnId, usize>,
    /// First upload failure per transaction (forces rollback).
    txn_errors: HashMap<TxnId, IqError>,
    /// Transactions that signalled FlushForCommit; their writes are
    /// forced to write-through from then on.
    commit_mode: HashSet<TxnId>,
    /// Write-back pages whose upload has not resolved (§4: the store may
    /// not have them yet). A read that finds one is a hit, and a landing
    /// extent is never cached a second time.
    landing: HashMap<Extent, Landing>,
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
    stats: OcmStats,
    worker: Option<JoinHandle<()>>,
}

impl Ocm {
    /// Build an OCM over `ssd` (the instance-local device) caching objects
    /// from `store`.
    pub fn new(ssd: Arc<BlockDeviceSim>, store: Arc<dyn ObjectBackend>, config: OcmConfig) -> Self {
        let block = ssd.block_size();
        let budget = ssd
            .capacity_blocks()
            .min(config.capacity_bytes / u64::from(block));
        let protected = (budget as f64 * config.protected_fraction.clamp(0.0, 1.0)) as usize;
        let inner = Arc::new(Mutex::new(Inner {
            cache: SlruCache::new(protected),
            freelist: Freelist::new(budget),
            block,
            max_run: u64::from((config.slot_bytes / block).min(MAX_BLOCKS_PER_PAGE)).min(budget)
                as u32,
            queue: VecDeque::new(),
            pending_puts: HashMap::new(),
            txn_errors: HashMap::new(),
            commit_mode: HashSet::new(),
            landing: HashMap::new(),
            shutdown: false,
        }));
        let work_cv = Arc::new(Condvar::new());
        let done_cv = Arc::new(Condvar::new());

        let worker = {
            let inner = Arc::clone(&inner);
            let work_cv = Arc::clone(&work_cv);
            let done_cv = Arc::clone(&done_cv);
            let ssd = Arc::clone(&ssd);
            let store = Arc::clone(&store);
            let retry = config.retry;
            std::thread::Builder::new()
                .name("ocm-writer".into())
                .spawn(move || worker_loop(&inner, &work_cv, &done_cv, &ssd, store.as_ref(), retry))
                .expect("spawn OCM worker")
        };

        Self {
            inner,
            work_cv,
            done_cv,
            ssd,
            store,
            config,
            stats: OcmStats::default(),
            worker: Some(worker),
        }
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

    /// Read an object: SSD cache hit, or read-through that caches it
    /// before returning. `scan` hints whether a table scan issued it: scan
    /// reads are admitted to the probationary SLRU segment so a full-table
    /// sweep recycles its own blocks instead of evicting the point-read
    /// working set; point reads promote on re-hit.
    pub fn read_hinted(&self, key: ObjectKey, scan: bool) -> IqResult<Bytes> {
        self.read_extent(key.into(), scan, || {
            self.config.retry.get(self.store.as_ref(), key)
        })
    }

    /// Read one extent, hinted as [`Ocm::read_hinted`]: an SSD hit, a hit
    /// on a write-back page still waiting for its upload, or a miss that
    /// `fetch` reads through from the store — a GET for a whole object, a
    /// ranged GET for a composite member — and that is on the SSD and in
    /// the LRU when the call returns. An image larger than `slot_bytes` is
    /// served but never cached.
    pub fn read_extent(
        &self,
        extent: Extent,
        scan: bool,
        fetch: impl FnOnce() -> IqResult<Bytes>,
    ) -> IqResult<Bytes> {
        let mut inner = self.inner.lock();
        let key = extent.key;
        // A write-back page waiting on its upload is read from its run
        // like a cached one (the store may not have it yet); a landing
        // image with no run is served as it is.
        let held = match inner.cache.get(&extent) {
            Some(&entry) => Some(entry),
            None => match inner.landing.get(&extent) {
                Some(Landing {
                    start: Some(start),
                    image,
                }) => Some(CacheEntry {
                    start: *start,
                    len: image.len() as u32,
                }),
                Some(Landing { start: None, image }) => {
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    trace::emit(EventKind::OcmHit { key: key.offset() });
                    return Ok(image.clone());
                }
                None => None,
            },
        };
        if let Some(entry) = held {
            // Hold the lock across the SSD read so eviction cannot recycle
            // the run underneath us (the simulation's equivalent of a pin).
            let image = self.ssd.read_bytes(entry.start, entry.len)?; // LOCK-OK: run pin

            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::OcmHit { key: key.offset() });
            return Ok(image);
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        trace::emit(EventKind::OcmMiss { key: key.offset() });
        drop(inner);
        let data = fetch()?;
        let admit = if scan {
            Admission::Scan
        } else {
            Admission::Demand
        };
        self.place(&mut self.inner.lock(), extent, &data, admit);
        Ok(data)
    }

    /// Write an object on behalf of `txn` whose pages are the
    /// `(offset, len)` runs of `data`: a composite, or one page at offset
    /// 0. The mode is upgraded to write-through once the transaction has
    /// signalled FlushForCommit.
    ///
    /// Write-back puts each page in its own SSD run synchronously and
    /// queues one upload for the whole object; the pages join the LRU only
    /// when it lands, and until then a read is served from the run. A
    /// failed upload frees every run and fails `txn`'s commit.
    /// Write-through uploads synchronously, then caches every page before
    /// returning. On both paths a page larger than `slot_bytes` is
    /// uploaded and served but never cached.
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
                let runs: Vec<Option<BlockNum>> = pages
                    .iter()
                    .map(|(_, image)| {
                        let count = inner.blocks(image.len())?;
                        self.allocate_run(&mut inner, count)
                    })
                    .collect();
                *inner.pending_puts.entry(txn).or_insert(0) += 1;
                drop(inner);
                // Synchronous SSD writes; "if a write to the locally
                // attached storage fails, the error is ignored" (§4): that
                // page is then served from its queued image until the
                // upload lands, and never cached.
                let mut lost = Vec::new();
                let landed: Vec<(Extent, Landing)> = pages
                    .into_iter()
                    .zip(runs)
                    .map(|((extent, image), run)| {
                        let start = run.filter(|&start| {
                            let written = self.ssd.write_blocks(start, &image).is_ok();
                            if !written {
                                lost.push((start, image.len()));
                            }
                            written
                        });
                        (extent, Landing { image, start })
                    })
                    .collect();
                let mut inner = self.inner.lock();
                for (start, len) in lost {
                    inner.release(&self.ssd, start, len);
                }
                let extents = landed.iter().map(|&(extent, _)| extent).collect();
                inner.landing.extend(landed);
                inner.queue.push_back(Job {
                    txn,
                    key,
                    data,
                    extents,
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
                    self.place(&mut inner, extent, &image, Admission::Demand);
                }
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
                inner.queue.drain(..).partition(|j| j.txn == txn);
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

    /// Wait for every write-back upload to resolve (tests and shutdown
    /// barriers).
    pub fn quiesce(&self) {
        let mut inner = self.inner.lock();
        while !inner.queue.is_empty()
            || !inner.landing.is_empty()
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

    /// Drop every cached entry (instance restart: instance storage is
    /// ephemeral, so the OCM always restarts cold).
    pub fn clear_cache(&self) {
        let mut inner = self.inner.lock();
        while let Some((_, old)) = inner.cache.pop_victim() {
            inner.release(&self.ssd, old.start, old.len as usize);
        }
    }

    /// Cache `image` as `extent`: take a run of the blocks it covers
    /// (evicting SLRU victims until one fits), write the SSD and insert
    /// the entry under `admit`, weighted by its block count. An extent
    /// already cached or landing is left as it is. An image larger than
    /// `slot_bytes` is never cached, nor is one that finds no run or whose
    /// SSD write fails: "the error is ignored" (§4).
    fn place(&self, inner: &mut Inner, extent: Extent, image: &[u8], admit: Admission) {
        let Some(count) = inner.blocks(image.len()) else {
            return;
        };
        if inner.cache.peek(&extent).is_some() || inner.landing.contains_key(&extent) {
            return;
        }
        let Some(start) = self.allocate_run(inner, count) else {
            return;
        };
        let written = self.ssd.write_blocks(start, image); // LOCK-OK: run pin
        if written.is_err() {
            inner.release(&self.ssd, start, image.len());
            return;
        }
        let entry = CacheEntry {
            start,
            len: image.len() as u32,
        };
        inner.insert(&self.ssd, extent, entry, admit);
    }

    /// A free run of `count` blocks, popping SLRU victims (probationary
    /// first) until one fits; `None` once nothing is left to evict.
    fn allocate_run(&self, inner: &mut Inner, count: u32) -> Option<BlockNum> {
        loop {
            if let Ok(start) = inner.freelist.allocate(count) {
                return Some(start);
            }
            let (old, entry) = inner.cache.pop_victim()?;
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::OcmEvict {
                key: old.key.offset(),
            });
            inner.release(&self.ssd, entry.start, entry.len as usize);
        }
    }
}

impl Inner {
    /// The SSD blocks an image of `len` bytes covers, `ceil(len / block)`,
    /// or `None` when it is empty or longer than an entry's run may be
    /// (such an image is served but never cached). The bound is checked
    /// on the full `usize`, so no length is truncated.
    fn blocks(&self, len: usize) -> Option<u32> {
        let count = len.div_ceil(self.block as usize);
        (1..=self.max_run as usize)
            .contains(&count)
            .then_some(count as u32)
    }

    /// Cache `entry` as `extent`, weighted by its block count; a replaced
    /// entry's run is given back.
    fn insert(
        &mut self,
        ssd: &BlockDeviceSim,
        extent: Extent,
        entry: CacheEntry,
        admit: Admission,
    ) {
        let count = self
            .blocks(entry.len as usize)
            .expect("a held run passed blocks()");
        if let Some(old) = self.cache.insert(extent, entry, count as usize, admit) {
            self.release(ssd, old.start, old.len as usize);
        }
    }

    /// Give back the run an image of `len` bytes holds from `start`: to
    /// the freelist, and trimmed off the SSD, so the device holds only the
    /// blocks the budget charges. A trim records nothing on the ledger.
    fn release(&mut self, ssd: &BlockDeviceSim, start: BlockNum, len: usize) {
        let count = self.blocks(len).expect("a held run passed blocks()");
        self.freelist.free(start, count);
        ssd.trim_blocks(start, count) // LOCK-OK: run pin
            .expect("a freelist run lies on the device");
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

fn worker_loop(
    inner: &Mutex<Inner>,
    work_cv: &Condvar,
    done_cv: &Condvar,
    ssd: &BlockDeviceSim,
    store: &dyn ObjectBackend,
    retry: RetryPolicy,
) {
    let mut guard = inner.lock();
    loop {
        if guard.shutdown {
            return;
        }
        let Some(Job {
            txn,
            key,
            data,
            extents,
        }) = guard.queue.pop_front()
        else {
            work_cv.wait(&mut guard);
            continue;
        };
        drop(guard);
        let result = retry.put(store, key, data);
        guard = inner.lock();
        if let Some(n) = guard.pending_puts.get_mut(&txn) {
            *n = n.saturating_sub(1);
        }
        let landed = result.is_ok();
        if let Err(e) = result {
            guard.txn_errors.entry(txn).or_insert(e);
        }
        // Each page's run already holds its image. It joins the LRU only
        // now: "a page is not added to the LRU list until it has been
        // successfully written to the underlying object store" (§4). A
        // page with no run is never cached.
        for extent in extents {
            let Some(Landing {
                image,
                start: Some(start),
            }) = guard.landing.remove(&extent)
            else {
                continue;
            };
            if !landed {
                guard.release(ssd, start, image.len());
                continue;
            }
            let entry = CacheEntry {
                start,
                len: image.len() as u32,
            };
            guard.insert(ssd, extent, entry, Admission::Demand);
        }
        done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim};
    use proptest::collection;
    use proptest::prelude::*;

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

    /// An OCM over 256-byte blocks whose budget is `pages` 1 KiB pages,
    /// four blocks each.
    fn setup(pages: u32) -> (Ocm, Arc<ObjectStoreSim>) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        (over(pages, store.clone()), store)
    }

    fn over(pages: u32, store: Arc<dyn ObjectBackend>) -> Ocm {
        let slot_bytes = 1024u32;
        let ssd = Arc::new(BlockDeviceSim::new(256, pages as u64 * 4));
        Ocm::new(
            ssd,
            store,
            OcmConfig {
                slot_bytes,
                capacity_bytes: pages as u64 * slot_bytes as u64,
                protected_fraction: 0.8,
                retry: RetryPolicy::default(),
            },
        )
    }

    /// Blocks the cached entries are charged, summed.
    fn cached_blocks(ocm: &Ocm) -> u64 {
        let inner = ocm.inner.lock();
        inner
            .cache
            .iter()
            .map(|(_, e)| u64::from(e.len.div_ceil(256)))
            .sum()
    }

    #[test]
    fn read_through_populates_cache() {
        let (ocm, store) = setup(8);
        store.put(key(1), Bytes::from_static(b"hello")).unwrap();
        store.settle();
        let first = ocm.read_hinted(key(1), false).unwrap();
        assert_eq!(&first[..], b"hello");
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
        // Visible on the store, and cached, when the call returns.
        assert!(store.exists(key(3)));
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
    fn eviction_frees_blocks_probationary_lru() {
        // Four-block images in an eight-block budget: two fit.
        let (ocm, store) = setup(2);
        for off in 0..4u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 1000]))
                .unwrap();
        }
        store.settle();
        for off in 0..4u64 {
            ocm.read_hinted(key(off), false).unwrap();
        }
        let snap = ocm.stats_snapshot();
        assert_eq!(snap.misses, 4);
        assert_eq!(snap.evictions, 2);
        assert_eq!(ocm.cached_objects(), 2);
        // Oldest two are gone; newest two are hits.
        assert!(!ocm.contains(key(0)));
        assert!(ocm.contains(key(3)));
        assert_eq!(ocm.ssd.used_blocks(), 8, "evicted runs are trimmed");
    }

    #[test]
    fn small_images_share_the_budget() {
        // A two-page budget is eight blocks: eight one-block images fit,
        // where a page-sized charge would hold two.
        let (ocm, store) = setup(2);
        for off in 0..8u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 100]))
                .unwrap();
        }
        store.settle();
        for off in 0..8u64 {
            ocm.read_hinted(key(off), false).unwrap();
        }
        for off in 0..8u64 {
            assert_eq!(
                ocm.read_hinted(key(off), false).unwrap(),
                vec![off as u8; 100]
            );
        }
        let snap = ocm.stats_snapshot();
        assert_eq!((snap.misses, snap.hits, snap.evictions), (8, 8, 0));
        assert_eq!(ocm.cached_objects(), 8);
        assert_eq!(ocm.ssd.used_blocks(), 8);
    }

    #[test]
    fn scan_reads_cannot_evict_promoted_point_read_set() {
        // Four-block images in an eight-block budget.
        let (ocm, store) = setup(2);
        for off in 0..8u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 1000]))
                .unwrap();
        }
        store.settle();
        // Point-read key 0 twice: miss + hit, promoting it to protected.
        ocm.read_hinted(key(0), false).unwrap();
        ocm.read_hinted(key(0), false).unwrap();
        // A scan sweeps keys 1..8 — four times the cache capacity.
        for off in 1..8u64 {
            ocm.read_hinted(key(off), true).unwrap();
        }
        // The scan recycled its own probationary blocks (six evictions);
        // the hot key kept its run and still hits.
        assert_eq!(ocm.stats_snapshot().evictions, 6);
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
    fn a_read_through_miss_is_in_the_lru_when_the_call_returns() {
        let (ocm, store) = setup(8);
        store.put(key(7), Bytes::from_static(b"seq")).unwrap();
        store.settle();
        // No quiesce anywhere: the miss is cached before its read returns,
        // so the next two reads hit its run.
        assert_eq!(&ocm.read_hinted(key(7), false).unwrap()[..], b"seq");
        assert!(ocm.contains(key(7)));
        for _ in 0..2 {
            assert_eq!(&ocm.read_hinted(key(7), false).unwrap()[..], b"seq");
        }
        let snap = ocm.stats_snapshot();
        assert_eq!((snap.misses, snap.hits, snap.evictions), (1, 2, 0));
        assert_eq!(ocm.cached_objects(), 1);
    }

    #[test]
    fn oversized_lengths_are_rejected_not_truncated() {
        let (ocm, _store) = setup(8);
        let inner = ocm.inner.lock();
        // `u32::MAX + 1` narrowed first would be zero bytes; the bound is
        // checked on the full length.
        assert_eq!(inner.blocks(u32::MAX as usize + 1), None);
        assert_eq!(inner.blocks(u32::MAX as usize), None);
        // Larger than an entry may hold, by one byte.
        assert_eq!(inner.blocks(1025), None);
        assert_eq!(inner.blocks(1024), Some(4));
        assert_eq!(inner.blocks(257), Some(2));
        assert_eq!(inner.blocks(1), Some(1));
        assert_eq!(inner.blocks(0), None);
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
        assert!(!ocm.contains(key(30))); // and never cached
                                         // A normal neighbour still caches fine.
        assert_eq!(&ocm.read_hinted(key(31), false).unwrap()[..], b"small");
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

    fn gated(pages: u32, fail: bool) -> (Ocm, Arc<GatedStore>) {
        let store = GatedStore::new(fail);
        (over(pages, store.clone()), store)
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
        // Queued: each member holds the blocks it covers (2 + 2 + 1) but
        // none is in the LRU, and a read is served from its run as a hit —
        // the store has nothing.
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 5);
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
    fn a_failed_group_put_frees_every_member_run() {
        let (ocm, store) = gated(8, true);
        let (blob, members) = composite();
        let txn = TxnId(2);
        ocm.write_group(key(5), blob, &members, txn, WriteMode::WriteBack)
            .unwrap();
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 5);
        assert_eq!(ocm.ssd.used_blocks(), 5);
        store.release();
        let err = ocm.flush_for_commit(txn).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(5)));
        ocm.end_txn(txn);
        assert_eq!(
            ocm.inner.lock().freelist.used_blocks(),
            0,
            "every run freed"
        );
        assert_eq!(ocm.ssd.used_blocks(), 0, "every run trimmed");
        assert_eq!(ocm.cached_objects(), 0, "no member joined the LRU");
        assert!(ocm.inner.lock().landing.is_empty());
    }

    #[test]
    fn an_oversized_write_back_member_is_uploaded_but_never_cached() {
        let (ocm, store) = gated(8, false);
        // A 300-byte member and one of 2 000 bytes, past the 1 KiB bound.
        let mut blob = vec![1u8; 300];
        blob.extend(vec![2u8; 2000]);
        let blob = Bytes::from(blob);
        let members = [(0, 300), (300, 2000)];
        let txn = TxnId(1);
        ocm.write_group(key(4), blob.clone(), &members, txn, WriteMode::WriteBack)
            .unwrap();
        // Before the upload the large member is served from its queued
        // image, and only the small one holds blocks.
        let large = ocm
            .read_extent(extent(key(4), 300), false, || {
                panic!("a queued member must not be read from the store")
            })
            .unwrap();
        assert_eq!(large, blob.slice(300..));
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 2);
        store.release();
        ocm.flush_for_commit(txn).unwrap();
        ocm.end_txn(txn);
        // The object went up intact; the large member was never cached.
        assert_eq!(store.sim.get(key(4)).unwrap(), blob);
        assert!(ocm.contains(extent(key(4), 0)));
        assert!(!ocm.contains(extent(key(4), 300)));
        assert_eq!(ocm.ssd.used_blocks(), 2);
    }

    #[test]
    fn a_write_back_page_reads_back_before_its_upload_lands() {
        // Write-back then an immediate read, 2 000 times: the read races
        // the worker's upload and must be served by the OCM whether or
        // not it has landed (before, most of these reads went to the
        // store ahead of the PUT and failed).
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let ocm = over(64, store.clone());
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

    /// One step of the budget property.
    #[derive(Debug, Clone)]
    enum Step {
        /// Read through a new object of this many bytes, as a scan or not.
        Read(usize, bool),
        /// Write back a new composite with these member lengths; its upload
        /// fails when `true`.
        WriteBack(Vec<usize>, bool),
        /// Drop every cached entry.
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Lengths run past the 1 KiB bound, so some images are never cached.
        let read = || (1usize..1400, any::<bool>()).prop_map(|(len, scan)| Step::Read(len, scan));
        prop_oneof![
            read(),
            read(),
            read(),
            (collection::vec(1usize..1400, 1..4), any::<bool>())
                .prop_map(|(lens, fail)| Step::WriteBack(lens, fail)),
            (collection::vec(1usize..1400, 1..4), any::<bool>())
                .prop_map(|(lens, fail)| Step::WriteBack(lens, fail)),
            Just(Step::Clear),
        ]
    }

    proptest! {
        /// After every quiesce the SSD holds exactly the blocks the cached
        /// entries are charged, within the budget, and each cached extent
        /// reads back its bytes.
        #[test]
        fn the_ssd_holds_exactly_the_blocks_the_cache_charges(
            steps in collection::vec(step(), 1..40)
        ) {
            let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
            // A four-page budget: sixteen blocks.
            let ocm = over(4, store.clone());
            let mut bytes: HashMap<Extent, Bytes> = HashMap::new();
            for (n, step) in steps.into_iter().enumerate() {
                let k = key(n as u64);
                match step {
                    Step::Read(len, scan) => {
                        let data = Bytes::from(vec![n as u8; len]);
                        store.put(k, data.clone()).unwrap();
                        prop_assert_eq!(ocm.read_hinted(k, scan).unwrap(), data.clone());
                        bytes.insert(k.into(), data);
                    }
                    Step::WriteBack(lens, fail) => {
                        let mut blob = Vec::new();
                        let mut members = Vec::new();
                        for (i, &len) in lens.iter().enumerate() {
                            members.push((blob.len() as u32, len as u32));
                            blob.extend(vec![(n + i) as u8; len]);
                        }
                        let blob = Bytes::from(blob);
                        if fail {
                            // The key is taken, so the upload fails.
                            store.put(k, Bytes::from_static(b"taken")).unwrap();
                        }
                        let txn = TxnId(n as u64);
                        ocm.write_group(k, blob.clone(), &members, txn, WriteMode::WriteBack)
                            .unwrap();
                        prop_assert_eq!(ocm.flush_for_commit(txn).is_err(), fail);
                        ocm.end_txn(txn);
                        if !fail {
                            for &(offset, len) in &members {
                                let at = offset as usize..(offset + len) as usize;
                                bytes.insert(extent(k, offset), blob.slice(at));
                            }
                        }
                    }
                    Step::Clear => ocm.clear_cache(),
                }
                ocm.quiesce();
                let charged = cached_blocks(&ocm);
                prop_assert_eq!(ocm.ssd.used_blocks(), charged, "step {}", n);
                prop_assert!(charged <= 16, "{} blocks over a 16-block budget", charged);
                let inner = ocm.inner.lock();
                prop_assert_eq!(inner.freelist.used_blocks(), charged);
                for (extent, entry) in inner.cache.iter() {
                    let read = ocm.ssd.read_bytes(entry.start, entry.len).unwrap();
                    prop_assert_eq!(Some(&read), bytes.get(extent), "{:?}", extent);
                }
            }
        }
    }
}
