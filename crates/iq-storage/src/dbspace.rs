//! Dbspaces: named storage containers.
//!
//! "A dbspace is a collection of operating system files or raw devices"
//! (§2) — or, in the cloud version, a bucket on an object store: `CREATE
//! DBSPACE ... USING OBJECT STORE "s3://bucket"` (§3). A [`DbSpace`]
//! writes sealed page images to either backing:
//!
//! * **Conventional** — allocates a 1–16 block run from the freelist and
//!   writes in place; strong consistency, updates allowed.
//! * **Cloud** — obtains a *fresh* object key from a [`KeySource`] for
//!   every single write (never-write-twice) and uploads the image under
//!   it; reads go through the read-after-write retry loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use iq_common::trace::{self, EventKind};
use iq_common::{DbSpaceId, IqError, IqResult, ObjectKey, PhysicalLocator};
use iq_objectstore::{BatchDeleteOutcome, BlockBackend, ObjectBackend, RetryPolicy};
use parking_lot::Mutex;

use crate::freelist::Freelist;
use crate::page::{Page, StorageConfig};

/// Source of fresh object keys. Implemented by the Object Key Generator's
/// per-node cache in `iq-txn`; tests use a plain counter.
pub trait KeySource: Send + Sync {
    /// Hand out the next unique key. Never returns the same key twice
    /// across the life of the database (including across restarts).
    fn next_key(&self) -> IqResult<ObjectKey>;
}

/// A trivially counting key source for tests and single-node tools.
#[derive(Debug, Default)]
pub struct CountingKeySource {
    next: std::sync::atomic::AtomicU64,
}

impl CountingKeySource {
    /// Start handing out keys at `first` (offset form).
    pub fn starting_at(first: u64) -> Self {
        Self {
            next: std::sync::atomic::AtomicU64::new(first),
        }
    }
}

impl KeySource for CountingKeySource {
    fn next_key(&self) -> IqResult<ObjectKey> {
        let off = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(ObjectKey::from_offset(off))
    }
}

enum Backing {
    Conventional {
        device: Arc<dyn BlockBackend>,
        freelist: Mutex<Freelist>,
    },
    Cloud {
        store: Arc<dyn ObjectBackend>,
        retry: RetryPolicy,
    },
}

/// A read-through cache of object extents in front of a cloud dbspace:
/// the OCM. An extent is the byte run of an object at `offset` — a whole
/// object at 0, a composite member at its offset.
pub trait ExtentCache: Send + Sync {
    /// Serve the extent at `offset` of `key`, calling `fetch` to read it
    /// from the store on a miss. `scan` hints that a table scan asked.
    fn read_extent(
        &self,
        key: ObjectKey,
        offset: u32,
        scan: bool,
        fetch: &mut dyn FnMut() -> IqResult<bytes::Bytes>,
    ) -> IqResult<bytes::Bytes>;
}

/// One dbspace.
pub struct DbSpace {
    /// Dbspace identifier.
    pub id: DbSpaceId,
    /// User-visible name.
    pub name: String,
    /// Page geometry.
    pub config: StorageConfig,
    backing: Backing,
    /// Composite members read from the store, one ranged GET each (an
    /// OCM hit reads none).
    member_reads: AtomicU64,
    /// The cache every page read of a cloud dbspace goes through, once
    /// attached.
    cache: OnceLock<Arc<dyn ExtentCache>>,
}

impl DbSpace {
    /// Create a conventional dbspace over a block device.
    pub fn conventional(
        id: DbSpaceId,
        name: impl Into<String>,
        config: StorageConfig,
        device: Arc<dyn BlockBackend>,
    ) -> IqResult<Self> {
        if device.block_size() != config.block_size() {
            return Err(IqError::Invalid(format!(
                "device block size {} != dbspace block size {}",
                device.block_size(),
                config.block_size()
            )));
        }
        let freelist = Freelist::new(device.capacity_blocks());
        Ok(Self {
            id,
            name: name.into(),
            config,
            backing: Backing::Conventional {
                device,
                freelist: Mutex::new(freelist),
            },
            member_reads: AtomicU64::new(0),
            cache: OnceLock::new(),
        })
    }

    /// Create a cloud dbspace over an object store.
    pub fn cloud(
        id: DbSpaceId,
        name: impl Into<String>,
        config: StorageConfig,
        store: Arc<dyn ObjectBackend>,
        retry: RetryPolicy,
    ) -> Self {
        Self {
            id,
            name: name.into(),
            config,
            backing: Backing::Cloud { store, retry },
            member_reads: AtomicU64::new(0),
            cache: OnceLock::new(),
        }
    }

    /// Put `cache` in front of every page read of this dbspace from now
    /// on. A dbspace takes one cache, once; a second is ignored.
    pub fn attach_cache(&self, cache: Arc<dyn ExtentCache>) {
        let _ = self.cache.set(cache);
    }

    /// Whether this dbspace lives on an object store.
    pub fn is_cloud(&self) -> bool {
        matches!(self.backing, Backing::Cloud { .. })
    }

    /// Write a page image. Conventional dbspaces allocate blocks from the
    /// freelist; cloud dbspaces take a fresh key from `keys`.
    pub fn write_page(&self, page: &Page, keys: &dyn KeySource) -> IqResult<PhysicalLocator> {
        let (image, blocks) = page.seal(&self.config)?;
        match &self.backing {
            Backing::Conventional { device, freelist } => {
                let start = freelist.lock().allocate(blocks as u32)?;
                device.write_blocks(start, &image)?;
                Ok(PhysicalLocator::Blocks {
                    start,
                    count: blocks,
                })
            }
            Backing::Cloud { store, retry } => {
                let key = keys.next_key()?;
                retry.put(store.as_ref(), key, image)?;
                Ok(PhysicalLocator::Object(key))
            }
        }
    }

    /// Write a page under a caller-provided key (cloud dbspaces only), for
    /// callers that track their own keys, such as the Table-1 walkthrough.
    pub fn write_page_with_key(&self, page: &Page, key: ObjectKey) -> IqResult<PhysicalLocator> {
        let (image, _) = page.seal(&self.config)?;
        match &self.backing {
            Backing::Cloud { store, retry } => {
                retry.put(store.as_ref(), key, image)?;
                Ok(PhysicalLocator::Object(key))
            }
            Backing::Conventional { .. } => Err(IqError::Invalid(
                "write_page_with_key requires a cloud dbspace".into(),
            )),
        }
    }

    /// Upload raw bytes under an explicit key (cloud only). Used by the
    /// page cache path, which seals/encrypts images itself.
    pub fn put_raw(&self, key: ObjectKey, data: bytes::Bytes) -> IqResult<()> {
        match &self.backing {
            Backing::Cloud { store, retry } => retry.put(store.as_ref(), key, data),
            Backing::Conventional { .. } => {
                Err(IqError::Invalid("put_raw requires a cloud dbspace".into()))
            }
        }
    }

    /// Fetch raw object bytes (cloud only), with read-after-write retries.
    pub fn get_raw(&self, key: ObjectKey) -> IqResult<bytes::Bytes> {
        match &self.backing {
            Backing::Cloud { store, retry } => retry.get(store.as_ref(), key),
            Backing::Conventional { .. } => {
                Err(IqError::Invalid("get_raw requires a cloud dbspace".into()))
            }
        }
    }

    /// Fetch the composite member of `len` bytes at `offset` of an object
    /// (cloud only): one ranged GET through the retry loop, which fetches
    /// exactly the member's bytes.
    pub fn get_range(&self, key: ObjectKey, offset: u32, len: u32) -> IqResult<bytes::Bytes> {
        let Backing::Cloud { store, retry } = &self.backing else {
            return Err(IqError::Invalid(
                "get_range requires a cloud dbspace".into(),
            ));
        };
        let data = retry.get_range(store.as_ref(), key, offset, len)?;
        self.member_reads.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }

    /// Composite members this dbspace has read from the store.
    pub fn member_reads(&self) -> u64 {
        self.member_reads.load(Ordering::Relaxed)
    }

    /// The underlying object store (cloud only) — shared with the OCM.
    pub fn object_store(&self) -> Option<Arc<dyn ObjectBackend>> {
        match &self.backing {
            Backing::Cloud { store, .. } => Some(Arc::clone(store)),
            Backing::Conventional { .. } => None,
        }
    }

    /// Read and verify the page at `loc`.
    pub fn read_page(&self, loc: PhysicalLocator) -> IqResult<Page> {
        Page::unseal(&self.read_image(loc, false)?)
    }

    /// The sealed image at `loc`: a block run, or an object or composite
    /// member read through the attached cache (a miss is one GET, or one
    /// ranged GET of exactly the member's bytes). `scan` is the cache's
    /// admission hint.
    pub fn read_image(&self, loc: PhysicalLocator, scan: bool) -> IqResult<bytes::Bytes> {
        let (key, offset) = match (&self.backing, loc) {
            (Backing::Conventional { device, .. }, PhysicalLocator::Blocks { start, count }) => {
                return device.read_blocks(start, count as u32);
            }
            (Backing::Cloud { .. }, PhysicalLocator::Object(key)) => (key, 0),
            (Backing::Cloud { .. }, PhysicalLocator::ObjectRange { key, offset, .. }) => {
                (key, offset)
            }
            _ => {
                return Err(IqError::Invalid(format!(
                    "locator {loc:?} does not match dbspace {} backing",
                    self.name
                )))
            }
        };
        let mut fetch = || match loc {
            PhysicalLocator::ObjectRange { len, .. } => self.get_range(key, offset, len),
            _ => self.get_raw(key),
        };
        match self.cache.get() {
            Some(cache) => cache.read_extent(key, offset, scan, &mut fetch),
            None => fetch(),
        }
    }

    /// Release the block run at `loc` (garbage collection; conventional
    /// only — objects leave through [`Self::delete_batch`]).
    pub fn release(&self, loc: PhysicalLocator) -> IqResult<()> {
        match (&self.backing, loc) {
            (
                Backing::Conventional { device, freelist },
                PhysicalLocator::Blocks { start, count },
            ) => {
                freelist.lock().free(start, count as u32);
                device.trim_blocks(start, count as u32)
            }
            _ => Err(IqError::Invalid(
                "release takes a block run on a conventional dbspace".into(),
            )),
        }
    }

    /// Batched object deletion (cloud only): one multi-object request per
    /// 1000 keys, the failed subset retried by the dbspace's retry policy.
    /// Unlike [`Self::poll_delete`] no existence probe precedes the
    /// delete — deleting an absent key is already a no-op, so the blind
    /// batch halves the per-key request cost on top of the batching win.
    pub fn delete_batch(&self, keys: &[ObjectKey]) -> IqResult<BatchDeleteOutcome> {
        match &self.backing {
            Backing::Cloud { store, retry } => Ok(retry.delete_batch(store.as_ref(), keys)),
            Backing::Conventional { .. } => Err(IqError::Invalid(
                "delete_batch on conventional dbspace".into(),
            )),
        }
    }

    /// Delete an object by key if present (GC range polling; cloud only).
    pub fn poll_delete(&self, key: ObjectKey) -> IqResult<bool> {
        match &self.backing {
            Backing::Cloud { store, .. } => {
                if store.exists(key) {
                    store.delete(key)?;
                    trace::emit(EventKind::DeferredDelete { key: key.offset() });
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            Backing::Conventional { .. } => Err(IqError::Invalid(
                "poll_delete on conventional dbspace".into(),
            )),
        }
    }

    /// Bytes currently resident on the backing device/store.
    pub fn resident_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Conventional { device, .. } => device.resident_bytes(),
            Backing::Cloud { store, .. } => store.resident_bytes(),
        }
    }

    /// Snapshot of the backing device's request ledger.
    pub fn backend_stats(&self) -> iq_objectstore::StatsSnapshot {
        match &self.backing {
            Backing::Conventional { device, .. } => device.stats_snapshot(),
            Backing::Cloud { store, .. } => store.stats_snapshot(),
        }
    }

    /// Reset the backing device's request ledger (benchmark phases).
    pub fn reset_backend_stats(&self) {
        match &self.backing {
            Backing::Conventional { device, .. } => device.reset_stats(),
            Backing::Cloud { store, .. } => store.reset_stats(),
        }
    }

    /// Serialize the freelist for a checkpoint (conventional only).
    pub fn freelist_image(&self) -> Option<Vec<u8>> {
        match &self.backing {
            Backing::Conventional { freelist, .. } => Some(freelist.lock().to_bytes()),
            Backing::Cloud { .. } => None,
        }
    }

    /// Restore the freelist from a checkpoint image (crash recovery).
    pub fn restore_freelist(&self, image: &[u8]) -> IqResult<()> {
        match &self.backing {
            Backing::Conventional { freelist, .. } => {
                *freelist.lock() = Freelist::from_bytes(image)?;
                Ok(())
            }
            Backing::Cloud { .. } => {
                Err(IqError::Invalid("cloud dbspaces have no freelist".into()))
            }
        }
    }

    /// Apply a freelist mutation (recovery replay of RF/RB bitmaps).
    pub fn with_freelist<R>(&self, f: impl FnOnce(&mut Freelist) -> R) -> Option<R> {
        match &self.backing {
            Backing::Conventional { freelist, .. } => Some(f(&mut freelist.lock())),
            Backing::Cloud { .. } => None,
        }
    }
}

/// Page-granular I/O: the surface the blockmap uses to persist its own
/// nodes. Bundles a dbspace with a key source.
pub struct PageIo<'a> {
    /// Target dbspace.
    pub space: &'a DbSpace,
    /// Fresh-key source for cloud writes.
    pub keys: &'a dyn KeySource,
}

impl<'a> PageIo<'a> {
    /// Write a page and return where it landed.
    pub fn write(&self, page: &Page) -> IqResult<PhysicalLocator> {
        self.space.write_page(page, self.keys)
    }

    /// Read the page at `loc`.
    pub fn read(&self, loc: PhysicalLocator) -> IqResult<Page> {
        self.space.read_page(loc)
    }
}

/// Where [`crate::Blockmap::flush`] puts the node pages it writes.
///
/// [`PageIo`] writes each node on its own (one object or block run per
/// node); a commit that uploads a composite instead appends its nodes to
/// that composite and hands out their ranged locators before the upload.
pub trait NodeSink {
    /// Persist one node page and return where it lives.
    fn write_node(&mut self, page: &Page) -> IqResult<PhysicalLocator>;
}

impl NodeSink for PageIo<'_> {
    fn write_node(&mut self, page: &Page) -> IqResult<PhysicalLocator> {
        self.write(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use iq_common::{PageId, VersionId};
    use iq_objectstore::{BlockDeviceSim, ConsistencyConfig, ObjectStoreSim};

    use crate::page::PageKind;

    fn cfg() -> StorageConfig {
        StorageConfig::test_small()
    }

    fn page(id: u64, fill: u8) -> Page {
        Page::new(
            PageId(id),
            VersionId(1),
            PageKind::Data,
            Bytes::from(vec![fill; 600]),
        )
    }

    fn conventional() -> DbSpace {
        let dev = Arc::new(BlockDeviceSim::new(cfg().block_size(), 4096));
        DbSpace::conventional(DbSpaceId(1), "main", cfg(), dev).unwrap()
    }

    fn cloud() -> (DbSpace, Arc<ObjectStoreSim>) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let space = DbSpace::cloud(
            DbSpaceId(2),
            "clouddb",
            cfg(),
            store.clone(),
            RetryPolicy::default(),
        );
        (space, store)
    }

    #[test]
    fn conventional_write_read_release() {
        let space = conventional();
        let keys = CountingKeySource::default();
        let p = page(1, 7);
        let loc = space.write_page(&p, &keys).unwrap();
        assert!(!loc.is_cloud());
        assert_eq!(space.read_page(loc).unwrap(), p);
        space.release(loc).unwrap();
        // Released blocks can be reused.
        let loc2 = space.write_page(&page(2, 8), &keys).unwrap();
        assert!(!loc2.is_cloud());
    }

    #[test]
    fn cloud_write_takes_fresh_keys_every_time() {
        let (space, store) = cloud();
        let keys = CountingKeySource::default();
        let mut locs = Vec::new();
        for i in 0..20 {
            locs.push(space.write_page(&page(i, i as u8), &keys).unwrap());
        }
        // Twenty distinct keys, each written exactly once.
        let unique: std::collections::HashSet<_> = locs.iter().collect();
        assert_eq!(unique.len(), 20);
        assert_eq!(store.max_write_count(), 1);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(space.read_page(*loc).unwrap().body[0], i as u8);
        }
    }

    #[test]
    fn cloud_read_masks_visibility_window() {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig {
            max_visibility_ops: 16,
            delayed_fraction: 1.0,
            ..ConsistencyConfig::default()
        }));
        let space = DbSpace::cloud(DbSpaceId(3), "ec", cfg(), store, RetryPolicy::attempts(64));
        let keys = CountingKeySource::default();
        let p = page(9, 9);
        let loc = space.write_page(&p, &keys).unwrap();
        // The retry loop hides the eventual-consistency window.
        assert_eq!(space.read_page(loc).unwrap(), p);
    }

    #[test]
    fn get_range_fetches_exactly_the_member() {
        let (space, store) = cloud();
        let key = ObjectKey::from_offset(77);
        space.put_raw(key, Bytes::from_static(b"abcdefgh")).unwrap();
        assert_eq!(
            space.get_range(key, 2, 4).unwrap(),
            Bytes::from_static(b"cdef")
        );
        let get = store.stats_snapshot().op(iq_objectstore::IoOp::Get);
        assert_eq!(get.bytes, 4, "a ranged GET fetches exactly len");
        assert!(space.get_range(key, 6, 4).is_err());
        assert_eq!(space.member_reads(), 1, "a failed read counts nothing");
        assert!(conventional().get_range(key, 0, 1).is_err());
    }

    #[test]
    fn read_page_serves_a_composite_member_by_ranged_get() {
        let (space, store) = cloud();
        let (a, b) = (page(1, 1), page(2, 2));
        let (ia, ib) = (a.seal(&cfg()).unwrap().0, b.seal(&cfg()).unwrap().0);
        let key = ObjectKey::from_offset(5);
        space
            .put_raw(key, Bytes::from([&ia[..], &ib[..]].concat()))
            .unwrap();
        let member = |offset: usize, len: usize| PhysicalLocator::ObjectRange {
            key,
            offset: offset as u32,
            len: len as u32,
        };
        assert_eq!(space.read_page(member(0, ia.len())).unwrap(), a);
        assert_eq!(space.read_page(member(ia.len(), ib.len())).unwrap(), b);
        // Two GETs of exactly the members' bytes, counted as member reads.
        let get = store.stats_snapshot().op(iq_objectstore::IoOp::Get);
        assert_eq!((get.count, get.bytes), (2, (ia.len() + ib.len()) as u64));
        assert_eq!(space.member_reads(), 2);
    }

    #[test]
    fn poll_delete_reports_existence() {
        let (space, _store) = cloud();
        let keys = CountingKeySource::default();
        let loc = space.write_page(&page(1, 1), &keys).unwrap();
        let PhysicalLocator::Object(key) = loc else {
            panic!()
        };
        assert!(space.poll_delete(key).unwrap());
        assert!(!space.poll_delete(key).unwrap());
        // Unflushed keys in a polled range simply report absent.
        assert!(!space.poll_delete(ObjectKey::from_offset(999)).unwrap());
    }

    #[test]
    fn delete_batch_reclaims_cloud_objects_in_one_request() {
        let (space, store) = cloud();
        let keys = CountingKeySource::default();
        let mut objs = Vec::new();
        for i in 0..10 {
            let PhysicalLocator::Object(k) = space.write_page(&page(i, 1), &keys).unwrap() else {
                panic!()
            };
            objs.push(k);
        }
        // Mix in a never-written key: blind batch deletes don't probe.
        objs.push(ObjectKey::from_offset(999));
        let outcome = space.delete_batch(&objs).unwrap();
        assert!(outcome.results.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(outcome.requests, 1, "11 keys ⇒ one multi-object request");
        assert_eq!(store.object_count(), 0);
        assert!(conventional().delete_batch(&objs).is_err());
    }

    #[test]
    fn mismatched_locator_rejected() {
        let (cloud_space, _) = cloud();
        let conv = conventional();
        let keys = CountingKeySource::default();
        let cloud_loc = cloud_space.write_page(&page(1, 1), &keys).unwrap();
        let conv_loc = conv.write_page(&page(1, 1), &keys).unwrap();
        assert!(conv.read_page(cloud_loc).is_err());
        assert!(cloud_space.read_page(conv_loc).is_err());
    }

    #[test]
    fn freelist_checkpoint_roundtrip() {
        let space = conventional();
        let keys = CountingKeySource::default();
        let _ = space.write_page(&page(1, 1), &keys).unwrap();
        let image = space.freelist_image().unwrap();
        space.restore_freelist(&image).unwrap();
        let used = space.with_freelist(|f| f.used_blocks()).unwrap();
        assert!(used > 0);
        let (cloud_space, _) = cloud();
        assert!(cloud_space.freelist_image().is_none());
        assert!(cloud_space.restore_freelist(&image).is_err());
    }
}
