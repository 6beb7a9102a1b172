//! Snapshot manager implementation.

use std::collections::VecDeque;
use std::sync::Arc;

use iq_common::{DbSpaceId, IqResult, ObjectKey, PhysicalLocator, SimDuration, SimInstant};
use iq_storage::{Catalog, DbSpace};
use iq_txn::{BulkDeleteOutcome, DeletionSink, RetentionImage};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// One retained-page record: "(object-key, expiry)" (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Retained {
    key_offset: u64,
    expiry: SimInstant,
}

/// A taken snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Snapshot identifier (monotone).
    pub id: u64,
    /// Virtual creation time.
    pub created: SimInstant,
    /// When the snapshot's retention lapses and its backup is deleted.
    pub expiry: SimInstant,
    /// Full copy of the system catalog ("taking a full backup of the
    /// system catalog and all non-cloud dbspaces", §5). Cloud dbspaces
    /// are *not* copied.
    pub catalog: Catalog,
    /// Largest allocated key offset at snapshot time — with monotone keys,
    /// everything above this was created after the snapshot.
    pub max_key_offset: u64,
}

#[derive(Debug, Default)]
struct SmState {
    clock: SimInstant,
    fifo: VecDeque<Retained>,
    snapshots: Vec<Snapshot>,
    next_snapshot: u64,
}

/// The snapshot manager.
pub struct SnapshotManager {
    state: Mutex<SmState>,
    /// User-defined retention period.
    retention: SimDuration,
}

impl SnapshotManager {
    /// Manager with the given retention period.
    pub fn new(retention: SimDuration) -> Self {
        Self {
            state: Mutex::new(SmState::default()),
            retention,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.state.lock().clock
    }

    /// Advance the virtual clock (driven by the harness).
    pub fn advance_clock(&self, d: SimDuration) {
        let mut g = self.state.lock();
        g.clock = g.clock + d;
    }

    /// Take ownership of a dropped cloud page: it joins the retention FIFO
    /// instead of dying ("we retain the page and transfer its ownership to
    /// the snapshot manager", §5).
    pub fn retain(&self, key: ObjectKey) {
        let mut g = self.state.lock();
        let expiry = g.clock + self.retention;
        g.fifo.push_back(Retained {
            key_offset: key.offset(),
            expiry,
        });
    }

    /// The FIFO and its clock, as a checkpoint carries them.
    pub fn retention_image(&self) -> RetentionImage {
        let g = self.state.lock();
        RetentionImage {
            clock: g.clock.as_nanos(),
            fifo: g
                .fifo
                .iter()
                .map(|r| (r.key_offset, r.expiry.as_nanos()))
                .collect(),
        }
    }

    /// Start from a checkpoint's image (reopen): its FIFO and its clock,
    /// so pages retained before the power-off still expire and die.
    pub fn restore_retention(&self, image: &RetentionImage) {
        let mut g = self.state.lock();
        g.clock = SimInstant::from_nanos(image.clock);
        g.fifo = image
            .fifo
            .iter()
            .map(|&(key_offset, expiry)| Retained {
                key_offset,
                expiry: SimInstant::from_nanos(expiry),
            })
            .collect();
    }

    /// Pages currently under retention.
    pub fn retained_count(&self) -> usize {
        self.state.lock().fifo.len()
    }

    /// Background sweep: permanently delete pages whose retention expired,
    /// pruning the FIFO. Since entries enter in expiry order, only the
    /// head needs checking. Returns pages deleted.
    pub fn sweep_expired(&self, sink: &dyn DeletionSink) -> IqResult<usize> {
        // Entries enter in expiry order, so the expired prefix pops under
        // one lock acquisition and dies in one bulk call (batch-aware
        // sinks turn it into ≤1000-key multi-object deletes). Entries
        // whose deletion fails re-enter at the front — still expired, so
        // the next sweep retries them instead of leaking the pages.
        let expired: Vec<Retained> = {
            let mut g = self.state.lock();
            let mut v = Vec::new();
            while matches!(g.fifo.front(), Some(r) if r.expiry <= g.clock) {
                v.push(g.fifo.pop_front().expect("front exists"));
            }
            v
        };
        let mut deleted = 0usize;
        let mut first_err = None;
        if !expired.is_empty() {
            let locs: Vec<PhysicalLocator> = expired
                .iter()
                .map(|r| PhysicalLocator::Object(ObjectKey::from_offset(r.key_offset)))
                .collect();
            let out = sink.delete_pages(DbSpaceId(u32::MAX), &locs);
            let mut failed = Vec::new();
            for (r, (_, res)) in expired.into_iter().zip(out.results) {
                match res {
                    Ok(()) => deleted += 1,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                        failed.push(r);
                    }
                }
            }
            if !failed.is_empty() {
                let mut g = self.state.lock();
                for r in failed.into_iter().rev() {
                    g.fifo.push_front(r);
                }
            }
        }
        if let Some(e) = first_err {
            let mut g = self.state.lock();
            let now = g.clock;
            g.snapshots.retain(|s| s.expiry > now);
            return Err(e);
        }
        // Snapshots whose retention ended are dropped too ("data backed up
        // during a snapshot operation are automatically deleted ... when
        // the snapshot expires").
        let mut g = self.state.lock();
        let now = g.clock;
        g.snapshots.retain(|s| s.expiry > now);
        Ok(deleted)
    }

    /// Take a snapshot: back up the FIFO metadata and the catalog. No
    /// cloud data is copied, so this is near-instantaneous regardless of
    /// database size.
    pub fn take_snapshot(&self, catalog: &Catalog, max_key_offset: u64) -> Snapshot {
        let mut g = self.state.lock();
        let id = g.next_snapshot;
        g.next_snapshot += 1;
        let snap = Snapshot {
            id,
            created: g.clock,
            expiry: g.clock + self.retention,
            catalog: catalog.clone(),
            max_key_offset,
        };
        g.snapshots.push(snap.clone());
        snap
    }

    /// Snapshots currently restorable (within retention).
    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.state.lock().snapshots.clone()
    }

    /// Look up a restorable snapshot.
    pub fn snapshot(&self, id: u64) -> Option<Snapshot> {
        self.state
            .lock()
            .snapshots
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// Point-in-time restore: returns the catalog to reinstate plus the
    /// half-open key-offset range `[snapshot_max, current_max)` created
    /// after the snapshot, which "can be computed from the keys used
    /// during the snapshot and the restore operations" and garbage
    /// collected by polling.
    pub fn restore(&self, id: u64, current_max_key_offset: u64) -> IqResult<(Catalog, (u64, u64))> {
        let snap = self
            .snapshot(id)
            .ok_or_else(|| iq_common::IqError::NotFound(format!("snapshot {id}")))?;
        Ok((
            snap.catalog.clone(),
            (snap.max_key_offset, current_max_key_offset),
        ))
    }

    /// Poll-delete a key-offset range against a cloud dbspace (post-restore
    /// GC). Returns `(polled, deleted)`.
    pub fn gc_key_range(space: &DbSpace, range: (u64, u64)) -> IqResult<(u64, u64)> {
        let mut polled = 0;
        let mut deleted = 0;
        for off in range.0..range.1 {
            polled += 1;
            if space.poll_delete(ObjectKey::from_offset(off))? {
                deleted += 1;
            }
        }
        Ok((polled, deleted))
    }
}

/// A [`DeletionSink`] that retains cloud pages in the snapshot manager and
/// deletes conventional pages immediately (non-cloud dbspaces are covered
/// by conventional full backups, not retention).
pub struct RetainingSink {
    manager: Arc<SnapshotManager>,
    inner: Arc<dyn DeletionSink>,
}

impl RetainingSink {
    /// Wrap `inner`, diverting cloud deletions into `manager`.
    pub fn new(manager: Arc<SnapshotManager>, inner: Arc<dyn DeletionSink>) -> Self {
        Self { manager, inner }
    }
}

impl DeletionSink for RetainingSink {
    fn delete_page(&self, space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
        match loc {
            PhysicalLocator::Object(key) => {
                // "When a version of a page is dropped from the transaction
                // manager, instead of deleting the page from the underlying
                // object store, we retain the page" (§5).
                self.manager.retain(key);
                Ok(())
            }
            // Member frees never reach a sink (they flip refcount bits in
            // the composite registry); a fully dead composite arrives as
            // its whole `Object` key and is retained above.
            PhysicalLocator::ObjectRange { .. } => Err(iq_common::IqError::Invalid(
                "cannot retain a composite member directly".into(),
            )),
            PhysicalLocator::Blocks { .. } => self.inner.delete_page(space, loc),
        }
    }

    fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome {
        // Cloud pages divert into retention — no store requests at all —
        // while block runs flow through the inner sink's bulk path.
        let blocks: Vec<PhysicalLocator> = pages
            .iter()
            .copied()
            .filter(|l| matches!(l, PhysicalLocator::Blocks { .. }))
            .collect();
        let inner_out = if blocks.is_empty() {
            BulkDeleteOutcome::default()
        } else {
            self.inner.delete_pages(space, &blocks)
        };
        let mut block_results = inner_out.results.into_iter();
        let mut results = Vec::with_capacity(pages.len());
        for &loc in pages {
            let r = match loc {
                PhysicalLocator::Object(key) => {
                    self.manager.retain(key);
                    Ok(())
                }
                PhysicalLocator::Blocks { .. } => {
                    block_results.next().map(|(_, r)| r).unwrap_or(Ok(()))
                }
                PhysicalLocator::ObjectRange { .. } => Err(iq_common::IqError::Invalid(
                    "cannot retain a composite member directly".into(),
                )),
            };
            results.push((loc, r));
        }
        BulkDeleteOutcome {
            results,
            requests: inner_out.requests,
            retried_keys: inner_out.retried_keys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_common::KeySet;

    /// Sink recording final deletions.
    #[derive(Default)]
    struct RecordingSink {
        cloud: Mutex<KeySet>,
        blocks: Mutex<u64>,
    }

    impl DeletionSink for RecordingSink {
        fn delete_page(&self, _space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
            match loc {
                PhysicalLocator::Object(k) => {
                    self.cloud.lock().insert(k.offset());
                }
                PhysicalLocator::Blocks { .. } => *self.blocks.lock() += 1,
                PhysicalLocator::ObjectRange { .. } => {
                    panic!("composite members must never reach a deletion sink")
                }
            }
            Ok(())
        }
    }

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    #[test]
    fn retention_defers_deletion_until_expiry() {
        let sm = SnapshotManager::new(SimDuration::from_secs(100));
        let sink = RecordingSink::default();
        sm.retain(key(1));
        sm.retain(key(2));
        assert_eq!(sm.retained_count(), 2);
        // Before expiry: sweep deletes nothing.
        sm.advance_clock(SimDuration::from_secs(50));
        assert_eq!(sm.sweep_expired(&sink).unwrap(), 0);
        assert_eq!(sm.retained_count(), 2);
        // After expiry: both die, FIFO pruned.
        sm.advance_clock(SimDuration::from_secs(51));
        assert_eq!(sm.sweep_expired(&sink).unwrap(), 2);
        assert_eq!(sm.retained_count(), 0);
        assert!(sink.cloud.lock().contains(1) && sink.cloud.lock().contains(2));
    }

    #[test]
    fn fifo_order_respected_for_staggered_expiries() {
        let sm = SnapshotManager::new(SimDuration::from_secs(10));
        let sink = RecordingSink::default();
        sm.retain(key(1));
        sm.advance_clock(SimDuration::from_secs(5));
        sm.retain(key(2));
        sm.advance_clock(SimDuration::from_secs(6)); // key 1 expired, key 2 not
        assert_eq!(sm.sweep_expired(&sink).unwrap(), 1);
        assert!(sink.cloud.lock().contains(1));
        assert!(!sink.cloud.lock().contains(2));
        assert_eq!(sm.retained_count(), 1);
    }

    #[test]
    fn retaining_sink_diverts_cloud_passes_blocks() {
        let sm = Arc::new(SnapshotManager::new(SimDuration::from_secs(10)));
        let final_sink = Arc::new(RecordingSink::default());
        let sink = RetainingSink::new(Arc::clone(&sm), final_sink.clone());
        sink.delete_page(DbSpaceId(1), PhysicalLocator::Object(key(9)))
            .unwrap();
        sink.delete_page(
            DbSpaceId(2),
            PhysicalLocator::Blocks {
                start: iq_common::BlockNum(0),
                count: 4,
            },
        )
        .unwrap();
        // Cloud page retained, not deleted; conventional deleted now.
        assert_eq!(sm.retained_count(), 1);
        assert!(final_sink.cloud.lock().is_empty());
        assert_eq!(*final_sink.blocks.lock(), 1);
    }

    #[test]
    fn retention_image_round_trips_fifo_and_clock() {
        let sm = SnapshotManager::new(SimDuration::from_secs(10));
        sm.retain(key(1));
        sm.advance_clock(SimDuration::from_secs(4));
        sm.retain(key(2));
        let image = sm.retention_image();
        let restored = SnapshotManager::new(SimDuration::from_secs(10));
        restored.restore_retention(&image);
        assert_eq!(restored.now(), sm.now());
        assert_eq!(restored.state.lock().fifo, sm.state.lock().fifo);
        assert_eq!(restored.retention_image(), image);
    }

    #[test]
    fn snapshot_and_restore_compute_gc_range() {
        let sm = SnapshotManager::new(SimDuration::from_secs(1000));
        let catalog = Catalog::default();
        let snap = sm.take_snapshot(&catalog, 500);
        assert_eq!(snap.id, 0);
        // Work continues: keys 500..800 get allocated.
        let (restored, gc_range) = sm.restore(snap.id, 800).unwrap();
        assert_eq!(restored, catalog);
        assert_eq!(gc_range, (500, 800));
        assert!(sm.restore(99, 800).is_err());
    }

    #[test]
    fn expired_snapshots_are_dropped() {
        let sm = SnapshotManager::new(SimDuration::from_secs(10));
        let sink = RecordingSink::default();
        sm.take_snapshot(&Catalog::default(), 0);
        assert_eq!(sm.snapshots().len(), 1);
        sm.advance_clock(SimDuration::from_secs(11));
        sm.sweep_expired(&sink).unwrap();
        assert!(sm.snapshots().is_empty());
    }

    #[test]
    fn near_instantaneous_snapshot_copies_no_cloud_data() {
        // The snapshot is metadata-only: its byte footprint is independent
        // of how many cloud pages exist.
        let sm = SnapshotManager::new(SimDuration::from_secs(100));
        for off in 0..10_000 {
            sm.retain(key(off));
        }
        let snap = sm.take_snapshot(&Catalog::default(), 10_000);
        let serialized = serde_json::to_vec(&snap.catalog).unwrap();
        assert!(serialized.len() < 4096, "snapshot catalog is metadata-only");
    }
}
