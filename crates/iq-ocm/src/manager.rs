//! The OCM proper: a scan-resistant SSD cache keyed by [`Extent`].
//!
//! Each entry holds the run of SSD blocks its image covers, taken from an
//! [`iq_storage::Freelist`] over the byte budget and weighted in the LRU by
//! its block count, so small images share the budget instead of each
//! taking a page's worth. Every run given back is trimmed off the SSD, so
//! the device holds exactly the blocks the cache charges.
//!
//! The entry list is a segmented LRU ([`iq_buffer::SlruCache`]): every
//! read-through miss and written page is admitted probationary and
//! promoted on its next hit, and victims come from probation first, so one
//! analytic sweep over a large table recycles its own blocks instead of
//! evicting the re-read working set from the SSD tier — which would
//! otherwise turn every subsequent point read into a priced object-store
//! GET (§4/§5's motivation for the OCM).
//!
//! Everything happens in the caller's order: a read-through miss and
//! every page of a written object are on the SSD and in the LRU when the
//! call returns, so which reads hit never depends on thread timing. The
//! paper's asynchronous population and write-back upload are timing
//! claims, and the virtual-time model keeps them: it charges the SSD
//! writes as overlapped work, never on a read's serial path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use iq_buffer::SlruCache;
use iq_common::trace::{self, EventKind};
use iq_common::{BlockNum, IqError, IqResult, ObjectKey};
use iq_objectstore::{BlockDeviceSim, ObjectBackend, RetryPolicy};
use iq_storage::page::MAX_BLOCKS_PER_PAGE;
use iq_storage::{ExtentCache, Freelist};
use parking_lot::Mutex;
use serde::Serialize;

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

struct Inner {
    /// Cached entries, each weighted by its block count.
    cache: SlruCache<Extent, CacheEntry>,
    /// The SSD blocks of the budget: every entry's run is allocated here.
    freelist: Freelist,
    /// SSD block size in bytes.
    block: u32,
    /// The longest run an entry may take: the blocks of `slot_bytes`, no
    /// more than the freelist's longest run or the whole budget.
    max_run: u32,
}

/// The Object Cache Manager.
pub struct Ocm {
    inner: Mutex<Inner>,
    ssd: Arc<BlockDeviceSim>,
    store: Arc<dyn ObjectBackend>,
    config: OcmConfig,
    /// Live counters (Table 5).
    stats: OcmStats,
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
        let max_run =
            u64::from((config.slot_bytes / block).min(MAX_BLOCKS_PER_PAGE)).min(budget) as u32;
        Self {
            inner: Mutex::new(Inner {
                cache: SlruCache::new(protected),
                freelist: Freelist::new(budget),
                block,
                max_run,
            }),
            ssd,
            store,
            config,
            stats: OcmStats::default(),
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

    /// Read a whole object through [`Ocm::read_extent`]. `_scan` is
    /// ignored: a scan's read is admitted as any other read is.
    pub fn read_hinted(&self, key: ObjectKey, _scan: bool) -> IqResult<Bytes> {
        self.read_extent(key.into(), || {
            self.config.retry.get(self.store.as_ref(), key)
        })
    }

    /// Read one extent: an SSD hit, or a miss that `fetch` reads through
    /// from the store — a GET for a whole object, a ranged GET for a
    /// composite member — and that is on the SSD and in the LRU when the
    /// call returns. An image larger than `slot_bytes` is served but never
    /// cached.
    pub fn read_extent(
        &self,
        extent: Extent,
        fetch: impl FnOnce() -> IqResult<Bytes>,
    ) -> IqResult<Bytes> {
        let mut inner = self.inner.lock();
        let key = extent.key;
        if let Some(&entry) = inner.cache.get(&extent) {
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
        self.place(&mut self.inner.lock(), extent, &data);
        Ok(data)
    }

    /// Write an object whose pages are the `(offset, len)` runs of
    /// `data`: a composite, or one page at offset 0. One PUT uploads it,
    /// with the lock dropped; once it lands, each page is cached as a
    /// read-through miss is, and is in the LRU when the call returns — "a
    /// page is not added to the LRU list until it has been successfully
    /// written to the underlying object store" (§4). A failed PUT returns
    /// its error and charges no blocks. A page larger than `slot_bytes` is
    /// uploaded but never cached.
    pub fn write_group(&self, key: ObjectKey, data: Bytes, members: &[(u32, u32)]) -> IqResult<()> {
        for &(offset, len) in members {
            let end = offset as usize + len as usize;
            if end > data.len() {
                return Err(IqError::Invalid(format!(
                    "member {offset}..{end} overruns a {}-byte object",
                    data.len()
                )));
            }
        }
        self.config
            .retry
            .put(self.store.as_ref(), key, data.clone())?;
        let mut inner = self.inner.lock();
        for &(offset, len) in members {
            let image = &data[offset as usize..][..len as usize];
            self.place(&mut inner, Extent { key, offset }, image);
        }
        Ok(())
    }

    /// Does nothing: every write has landed when its call returns.
    pub fn quiesce(&self) {}

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
    /// the entry probationary, weighted by its block count. An extent
    /// already cached is left as it is. An image larger than
    /// `slot_bytes` is never cached, nor is one that finds no run or whose
    /// SSD write fails: "the error is ignored" (§4).
    fn place(&self, inner: &mut Inner, extent: Extent, image: &[u8]) {
        let Some(count) = inner.blocks(image.len()) else {
            return;
        };
        if inner.cache.peek(&extent).is_some() {
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
        if let Some(old) = inner.cache.insert(extent, entry, count as usize) {
            inner.release(&self.ssd, old.start, old.len as usize);
        }
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
        fetch: &mut dyn FnMut() -> IqResult<Bytes>,
    ) -> IqResult<Bytes> {
        Ocm::read_extent(self, Extent { key, offset }, fetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim};
    use proptest::collection;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    /// Write `data` as a one-page object.
    fn write_one(ocm: &Ocm, key: ObjectKey, data: Bytes) -> IqResult<()> {
        let len = data.len() as u32;
        ocm.write_group(key, data, &[(0, len)])
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
    fn a_write_is_on_the_store_and_cached_when_it_returns() {
        let (ocm, store) = setup(8);
        write_one(&ocm, key(2), Bytes::from_static(b"written")).unwrap();
        // Visible on the store, and cached, when the call returns: the
        // read back is a hit.
        assert!(store.exists(key(2)));
        assert!(ocm.contains(key(2)));
        assert_eq!(&ocm.read_hinted(key(2), false).unwrap()[..], b"written");
        let snap = ocm.stats_snapshot();
        assert_eq!((snap.misses, snap.hits), (0, 1));
    }

    #[test]
    fn duplicate_write_fails() {
        let (ocm, store) = setup(8);
        store.put(key(20), Bytes::from_static(b"original")).unwrap();
        // Violates never-write-twice: the PUT fails, and so does the call.
        let err = write_one(&ocm, key(20), Bytes::from_static(b"dup")).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(20)));
        // The failed page never joined the LRU, nor took a block.
        assert!(!ocm.contains(key(20)));
        assert_eq!(ocm.ssd.used_blocks(), 0);
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
    fn a_scan_read_extent_promotes_on_its_first_re_read() {
        // Four-block images in a twelve-block budget: three fit.
        let (ocm, store) = setup(3);
        for off in 0..5u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 1000]))
                .unwrap();
        }
        store.settle();
        // A scan reads key 0, and reads it once more: the re-read promotes
        // it, as any read's would.
        ocm.read_hinted(key(0), true).unwrap();
        ocm.read_hinted(key(0), true).unwrap();
        // A scan sweeps four other extents, each once.
        for off in 1..5u64 {
            ocm.read_hinted(key(off), true).unwrap();
        }
        // The sweep recycled its own probationary blocks; key 0 kept its
        // run and still hits.
        assert_eq!(ocm.stats_snapshot().evictions, 2);
        assert!(ocm.contains(key(0)), "the sweep evicted a re-read extent");
        let hits_before = ocm.stats_snapshot().hits;
        ocm.read_hinted(key(0), true).unwrap();
        assert_eq!(ocm.stats_snapshot().hits, hits_before + 1);
    }

    #[test]
    fn zero_capacity_ocm_still_correct() {
        let (ocm, store) = setup(0);
        store.put(key(1), Bytes::from_static(b"x")).unwrap();
        store.settle();
        assert_eq!(&ocm.read_hinted(key(1), false).unwrap()[..], b"x");
        assert_eq!(ocm.cached_objects(), 0);
        write_one(&ocm, key(2), Bytes::from_static(b"y")).unwrap();
        assert!(store.exists(key(2)));
        assert_eq!(ocm.cached_objects(), 0);
    }

    #[test]
    fn a_read_through_miss_is_in_the_lru_when_the_call_returns() {
        let (ocm, store) = setup(8);
        store.put(key(7), Bytes::from_static(b"seq")).unwrap();
        store.settle();
        // The miss is cached before its read returns, so the next two
        // reads hit its run.
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

    /// An OCM over a strongly consistent store, so a key written to it
    /// directly is taken when the next PUT of that key arrives.
    fn strong(pages: u32) -> (Ocm, Arc<ObjectStoreSim>) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
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
        let (ocm, store) = strong(8);
        let (blob, members) = composite();
        // A PUT that fails: no member joins the LRU or holds a block, and
        // a read goes to the store.
        store.put(key(8), Bytes::from_static(b"taken")).unwrap();
        let err = ocm.write_group(key(8), blob.clone(), &members).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(8)));
        for &(offset, _) in &members {
            assert!(!ocm.contains(extent(key(8), offset)));
        }
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 0);
        // The one PUT lands: every member joins, the whole object once,
        // each holding the blocks it covers (2 + 2 + 1), and a read is a
        // hit served from its run.
        ocm.write_group(key(9), blob.clone(), &members).unwrap();
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 5);
        for &(offset, len) in &members {
            assert!(ocm.contains(extent(key(9), offset)));
            let at = offset as usize..(offset + len) as usize;
            let read = ocm
                .read_extent(extent(key(9), offset), || {
                    panic!("a cached member must not be read from the store")
                })
                .unwrap();
            assert_eq!(read, blob.slice(at));
        }
        let snap = ocm.stats_snapshot();
        assert_eq!((snap.misses, snap.hits), (0, 3));
        assert_eq!(store.get(key(9)).unwrap(), blob);
        assert_eq!(store.max_write_count(), 1);
    }

    #[test]
    fn a_failed_group_put_frees_every_member_run() {
        let (ocm, store) = strong(8);
        // Two cached entries of four blocks each.
        for off in 0..2u64 {
            store
                .put(key(off), Bytes::from(vec![off as u8; 1000]))
                .unwrap();
            ocm.read_hinted(key(off), false).unwrap();
        }
        let (blob, members) = composite();
        store.put(key(5), Bytes::from_static(b"taken")).unwrap();
        let err = ocm.write_group(key(5), blob, &members).unwrap_err();
        assert_eq!(err, IqError::DuplicateObjectKey(key(5)));
        // No member took a run, and none was made room for.
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 8, "no run held");
        assert_eq!(ocm.ssd.used_blocks(), 8, "no run written");
        assert_eq!(ocm.cached_objects(), 2, "no member joined the LRU");
        assert_eq!(ocm.stats_snapshot().evictions, 0);
    }

    #[test]
    fn an_oversized_member_is_uploaded_but_never_cached() {
        let (ocm, store) = strong(8);
        // A 300-byte member and one of 2 000 bytes, past the 1 KiB bound.
        let mut blob = vec![1u8; 300];
        blob.extend(vec![2u8; 2000]);
        let blob = Bytes::from(blob);
        let members = [(0, 300), (300, 2000)];
        ocm.write_group(key(4), blob.clone(), &members).unwrap();
        // The object went up intact; only the small member holds blocks.
        assert_eq!(store.get(key(4)).unwrap(), blob);
        assert!(ocm.contains(extent(key(4), 0)));
        assert!(!ocm.contains(extent(key(4), 300)));
        assert_eq!(ocm.inner.lock().freelist.used_blocks(), 2);
        assert_eq!(ocm.ssd.used_blocks(), 2);
        // The large member is served from the store, and still not cached.
        let large = ocm
            .read_extent(extent(key(4), 300), || Ok(store.get(key(4))?.slice(300..)))
            .unwrap();
        assert_eq!(large, blob.slice(300..));
        assert!(!ocm.contains(extent(key(4), 300)));
    }

    #[test]
    fn a_member_that_overruns_its_object_is_refused_before_the_put() {
        let (ocm, store) = strong(8);
        let err = ocm
            .write_group(key(6), Bytes::from(vec![0u8; 100]), &[(0, 60), (60, 41)])
            .unwrap_err();
        assert!(matches!(err, IqError::Invalid(_)), "{err:?}");
        assert!(!store.exists(key(6)));
    }

    /// One step of the budget property.
    #[derive(Debug, Clone)]
    enum Step {
        /// Read through a new object of this many bytes.
        Read(usize),
        /// Write a new composite with these member lengths; its PUT fails
        /// when `true`.
        Write(Vec<usize>, bool),
        /// Drop every cached entry.
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        // Lengths run past the 1 KiB bound, so some images are never cached.
        let read = || (1usize..1400).prop_map(Step::Read);
        prop_oneof![
            read(),
            read(),
            read(),
            (collection::vec(1usize..1400, 1..4), any::<bool>())
                .prop_map(|(lens, fail)| Step::Write(lens, fail)),
            (collection::vec(1usize..1400, 1..4), any::<bool>())
                .prop_map(|(lens, fail)| Step::Write(lens, fail)),
            Just(Step::Clear),
        ]
    }

    proptest! {
        /// After every step the SSD holds exactly the blocks the cached
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
                    Step::Read(len) => {
                        let data = Bytes::from(vec![n as u8; len]);
                        store.put(k, data.clone()).unwrap();
                        prop_assert_eq!(ocm.read_hinted(k, false).unwrap(), data.clone());
                        bytes.insert(k.into(), data);
                    }
                    Step::Write(lens, fail) => {
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
                        let written = ocm.write_group(k, blob.clone(), &members);
                        prop_assert_eq!(written.is_err(), fail);
                        if !fail {
                            for &(offset, len) in &members {
                                let at = offset as usize..(offset + len) as usize;
                                bytes.insert(extent(k, offset), blob.slice(at));
                            }
                        }
                    }
                    Step::Clear => ocm.clear_cache(),
                }
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
