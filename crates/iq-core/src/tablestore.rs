//! Per-table storage state: committed and working blockmaps.
//!
//! Table-level versioning, as SAP IQ does it (§2): readers resolve pages
//! through the *committed* blockmap anchored by the identity object; a
//! writing transaction works on a cloned copy; commit installs the copy
//! and a new identity, leaving the old version's pages to the RF bitmap.
//!
//! A reader sees, for its whole life, the version committed when it
//! began: commit keeps the tree it supersedes (and the buffer epoch that
//! tree's frames carry) for the transactions that began before it, and
//! [`TableStore::release`] drops it once the last of them has ended —
//! the horizon the garbage collector frees that version's pages by. Two
//! versions share every page the writer did not dirty, so what a retained
//! tree pins is the handful of pages a small update replaced.

use iq_common::{DbSpaceId, IqResult, PageId, PhysicalLocator, TableId, TxnId, VersionId};
use iq_storage::{Blockmap, FlushOutcome, IdentityObject, NodeSink, PageIo};
use parking_lot::Mutex;

/// The begin point of a reader that follows the latest committed
/// version rather than one pinned at its begin: a snapshot view (its
/// store holds a single version) and compaction (which must move what is
/// current, not what was).
pub const LATEST: u64 = u64::MAX;

/// Storage-side state of one table.
pub struct TableStore {
    /// Table id.
    pub table: TableId,
    /// Dbspace the table's pages live in.
    pub space: DbSpaceId,
    fanout: usize,
    /// Version epoch for the buffer cache: committed frames carry the
    /// current epoch, a writer's uncommitted frames the next one. Bumped
    /// at commit (promoting the writer's frames) and on restore.
    epoch: std::sync::atomic::AtomicU64,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Committed anchor (None for a never-committed table).
    identity: Option<IdentityObject>,
    /// Cached committed tree.
    committed: Option<Blockmap>,
    /// Writer's working copy.
    working: Option<(TxnId, Blockmap)>,
    /// Transaction that has dirtied (buffered) pages but may not have
    /// flushed any yet — single-writer-per-table enforcement.
    writer_intent: Option<TxnId>,
    /// Superseded committed versions some active transaction may still
    /// read, oldest first.
    retained: Vec<Retained>,
}

/// A committed version a later commit superseded.
struct Retained {
    /// The commit point that superseded it: transactions that began
    /// before it read this version.
    until: u64,
    /// Buffer-cache epoch of this version's frames.
    epoch: u64,
    tree: Blockmap,
}

impl Inner {
    fn is_writer(&self, txn: TxnId) -> bool {
        self.writer_intent == Some(txn) || self.working.as_ref().is_some_and(|(o, _)| *o == txn)
    }

    /// Refuse `txn` as a writer while another transaction is one: the
    /// declared writer, or the holder of the working copy.
    fn check_writer(&self, txn: TxnId, table: TableId) -> IqResult<()> {
        let writer = self
            .writer_intent
            .or_else(|| self.working.as_ref().map(|(o, _)| *o));
        match writer {
            Some(owner) if owner != txn => Err(iq_common::IqError::Txn {
                txn,
                reason: format!("table {table} already has writer {owner}"),
            }),
            _ => Ok(()),
        }
    }

    /// The retained version a reader that began at `begin` is pinned to;
    /// `None` when that is the committed one.
    fn pinned(&mut self, begin: u64) -> Option<&mut Retained> {
        self.retained.iter_mut().find(|r| begin < r.until)
    }
}

impl TableStore {
    /// Fresh (empty) table on `space`.
    pub fn new(table: TableId, space: DbSpaceId, fanout: usize) -> Self {
        Self {
            table,
            space,
            fanout,
            epoch: std::sync::atomic::AtomicU64::new(0),
            inner: Mutex::new(Inner {
                identity: None,
                committed: None,
                working: None,
                writer_intent: None,
                retained: Vec::new(),
            }),
        }
    }

    /// Open from a recovered identity object.
    pub fn from_identity(identity: IdentityObject, space: DbSpaceId) -> Self {
        Self {
            table: identity.table,
            space,
            fanout: identity.fanout as usize,
            epoch: std::sync::atomic::AtomicU64::new(identity.version.0),
            inner: Mutex::new(Inner {
                identity: Some(identity),
                committed: None,
                working: None,
                writer_intent: None,
                retained: Vec::new(),
            }),
        }
    }

    /// The committed identity, if any.
    pub fn identity(&self) -> Option<IdentityObject> {
        self.inner.lock().identity
    }

    /// The buffer-cache epoch `txn`, which began at commit point `begin`,
    /// should key frames under: the writing transaction sees (and
    /// populates) the next epoch; a reader that of the version committed
    /// at its begin.
    pub fn frame_epoch(&self, txn: TxnId, begin: u64) -> u64 {
        let mut inner = self.inner.lock();
        let committed = self.epoch.load(std::sync::atomic::Ordering::Relaxed);
        if inner.is_writer(txn) {
            committed + 1
        } else {
            inner.pinned(begin).map_or(committed, |r| r.epoch)
        }
    }

    /// Register `txn` as the table's writer (first dirty page). Enforces
    /// one writer per table and returns the epoch its frames carry.
    pub fn declare_writer(&self, txn: TxnId) -> IqResult<u64> {
        let mut inner = self.inner.lock();
        inner.check_writer(txn, self.table)?;
        inner.writer_intent = Some(txn);
        Ok(self.epoch.load(std::sync::atomic::Ordering::Relaxed) + 1)
    }

    fn load_committed(&self, inner: &mut Inner, io: &PageIo<'_>) -> IqResult<()> {
        if inner.committed.is_none() {
            inner.committed = Some(match inner.identity {
                Some(id) => Blockmap::open(self.fanout, id.root, io)?,
                None => Blockmap::new(self.fanout),
            });
        }
        Ok(())
    }

    /// Resolve a page for `txn`, which began at commit point `begin`: the
    /// working copy if `txn` holds it, the committed tree if it is the
    /// declared writer (what its working copy will be cloned from),
    /// otherwise the version committed at `begin`.
    pub fn resolve(
        &self,
        txn: TxnId,
        begin: u64,
        page: PageId,
        io: &PageIo<'_>,
    ) -> IqResult<Option<PhysicalLocator>> {
        let mut inner = self.inner.lock();
        if let Some((owner, bm)) = inner.working.as_mut() {
            if *owner == txn {
                return bm.get(page, io);
            }
        }
        if inner.writer_intent != Some(txn) {
            if let Some(old) = inner.pinned(begin) {
                return old.tree.get(page, io);
            }
        }
        self.load_committed(&mut inner, io)?;
        inner.committed.as_mut().expect("loaded").get(page, io)
    }

    /// Map `page` to `loc` in `txn`'s working copy (cloning the committed
    /// tree on first write). Returns the superseded locator.
    pub fn map(
        &self,
        txn: TxnId,
        page: PageId,
        loc: PhysicalLocator,
        io: &PageIo<'_>,
    ) -> IqResult<Option<PhysicalLocator>> {
        let mut inner = self.inner.lock();
        inner.check_writer(txn, self.table)?;
        if inner.working.is_none() {
            self.load_committed(&mut inner, io)?;
            let copy = inner.committed.as_ref().expect("loaded").clone();
            inner.working = Some((txn, copy));
        }
        inner
            .working
            .as_mut()
            .expect("just created")
            .1
            .set(page, loc, io)
    }

    /// Whether `txn` holds the working copy.
    pub fn written_by(&self, txn: TxnId) -> bool {
        self.inner
            .lock()
            .working
            .as_ref()
            .is_some_and(|(o, _)| *o == txn)
    }

    /// Nodes of `txn`'s working copy the commit's cascade writes (0 when
    /// `txn` holds none).
    pub fn dirty_nodes(&self, txn: TxnId) -> usize {
        match &self.inner.lock().working {
            Some((owner, bm)) if *owner == txn => bm.dirty_nodes(),
            _ => 0,
        }
    }

    /// Make `txn` rewrite the blockmap node persisted at `loc` (and its
    /// path to the root) in its commit — how compaction moves a live node
    /// out of a composite. Returns `false`, leaving the table untouched,
    /// when `loc` is not a node of the tree `txn` would commit.
    pub fn redirty_node(
        &self,
        txn: TxnId,
        loc: PhysicalLocator,
        io: &PageIo<'_>,
    ) -> IqResult<bool> {
        let mut inner = self.inner.lock();
        inner.check_writer(txn, self.table)?;
        if let Some((_, bm)) = &mut inner.working {
            return bm.redirty_node(loc, io);
        }
        self.load_committed(&mut inner, io)?;
        let mut copy = inner.committed.clone().expect("loaded");
        if !copy.redirty_node(loc, io)? {
            return Ok(false);
        }
        inner.working = Some((txn, copy));
        Ok(true)
    }

    /// First half of a commit: flush `txn`'s working copy bottom-up into
    /// `sink` (the Figure 2 cascade). The tree stays `txn`'s working copy
    /// — no reader sees it — until [`Self::install`]. Returns the identity
    /// that will anchor it and the node locators the flush superseded and
    /// wrote; `None` when `txn` holds no working copy.
    pub fn flush(
        &self,
        txn: TxnId,
        version: VersionId,
        sink: &mut dyn NodeSink,
    ) -> IqResult<Option<(IdentityObject, FlushOutcome)>> {
        let mut inner = self.inner.lock();
        let Some((owner, bm)) = inner.working.as_mut() else {
            return Ok(None);
        };
        if *owner != txn {
            return Ok(None);
        }
        let outcome = bm.flush(version, sink)?;
        let identity =
            IdentityObject::new(self.table, version, outcome.root, self.fanout as u32, 0);
        Ok(Some((identity, outcome)))
    }

    /// Second half of a commit, once every upload of it has landed:
    /// install `identity` and promote `txn`'s flushed working tree to
    /// committed. The superseded tree stays readable by transactions that
    /// began before `commit_point` until [`Self::release`] drops it. The
    /// table stays `txn`'s to write until its commit record's fate is
    /// known — [`Self::release_writer`] once it is durable,
    /// [`Self::uninstall`] if it failed — so no other writer clones a tree
    /// that may yet be undone.
    pub fn install(&self, txn: TxnId, identity: IdentityObject, commit_point: u64) {
        let mut inner = self.inner.lock();
        if inner.working.as_ref().is_none_or(|(o, _)| *o != txn) {
            return;
        }
        let (_, bm) = inner.working.take().expect("checked above");
        debug_assert!(!bm.is_dirty(), "install a flushed tree");
        inner.identity = Some(identity);
        // Promote the writer's cached frames: they carried epoch+1, which
        // now becomes the committed epoch.
        let epoch = self
            .epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if let Some(tree) = inner.committed.replace(bm) {
            inner.retained.push(Retained {
                until: commit_point,
                epoch,
                tree,
            });
        }
        inner.writer_intent = Some(txn);
    }

    /// `txn`'s commit record is durable: the table takes its next writer.
    pub fn release_writer(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        if inner.writer_intent == Some(txn) {
            inner.writer_intent = None;
        }
    }

    /// Undo `txn`'s [`Self::install`] at `commit_point`, whose log record
    /// then failed to land: `previous` — the identity the install replaced
    /// — and the tree it superseded are committed again, and the table
    /// takes its next writer. The install held the table, so the newest
    /// version retained until `commit_point` is the one it superseded. The
    /// epoch moves on past the failed version's rather than back, so no
    /// frame cached under it is served as committed or to the next writer
    /// (readers re-key the restored tree's frames, as after a restore).
    pub fn uninstall(&self, txn: TxnId, previous: Option<IdentityObject>, commit_point: u64) {
        let mut inner = self.inner.lock();
        if inner.writer_intent != Some(txn) {
            return;
        }
        let superseded = inner
            .retained
            .iter()
            .rposition(|r| r.until == commit_point)
            .map(|i| inner.retained.remove(i).tree);
        // Not loaded, it reloads from `previous`.
        inner.committed = superseded;
        inner.identity = previous;
        inner.writer_intent = None;
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Drop the superseded versions no transaction can read any more:
    /// `horizon` is the earliest begin point among the active ones.
    pub fn release(&self, horizon: u64) {
        self.inner.lock().retained.retain(|r| r.until > horizon);
    }

    /// Roll back `txn`'s working copy (the committed tree is untouched —
    /// this is what makes rollback cheap under copy-on-write).
    pub fn rollback(&self, txn: TxnId) {
        let mut inner = self.inner.lock();
        if inner.working.as_ref().is_some_and(|(o, _)| *o == txn) {
            inner.working = None;
        }
        if inner.writer_intent == Some(txn) {
            inner.writer_intent = None;
        }
    }

    /// Drop cached trees (crash simulation / restore): they will lazily
    /// reload from the identity object.
    pub fn invalidate_cache(&self) {
        let mut inner = self.inner.lock();
        inner.committed = None;
        inner.working = None;
        inner.writer_intent = None;
        inner.retained.clear();
    }

    /// Replace the identity (point-in-time restore).
    pub fn restore_identity(&self, identity: Option<IdentityObject>) {
        let mut inner = self.inner.lock();
        inner.identity = identity;
        inner.committed = None;
        inner.working = None;
        inner.writer_intent = None;
        inner.retained.clear();
        // Orphan any cached frames of the abandoned timeline.
        self.epoch
            .fetch_add(2, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_common::{ObjectKey, PageId};
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim, RetryPolicy};
    use iq_storage::{CountingKeySource, StorageConfig};
    use std::sync::Arc;

    fn fixture() -> (iq_storage::DbSpace, CountingKeySource) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        (
            iq_storage::DbSpace::cloud(
                DbSpaceId(1),
                "c",
                StorageConfig::test_small(),
                store,
                RetryPolicy::default(),
            ),
            CountingKeySource::default(),
        )
    }

    fn loc(off: u64) -> PhysicalLocator {
        PhysicalLocator::Object(ObjectKey::from_offset(off))
    }

    /// Flush and install, its commit record not yet logged: a commit with
    /// nothing else to upload, its nodes written one object each.
    fn install(
        ts: &TableStore,
        txn: u64,
        point: u64,
        io: &PageIo<'_>,
    ) -> Option<(IdentityObject, FlushOutcome)> {
        let mut sink = PageIo {
            space: io.space,
            keys: io.keys,
        };
        let flushed = ts.flush(TxnId(txn), VersionId(point), &mut sink).unwrap();
        if let Some((identity, _)) = &flushed {
            ts.install(TxnId(txn), *identity, point);
        }
        flushed
    }

    /// A whole commit: [`install`], then its record lands.
    fn commit(
        ts: &TableStore,
        txn: u64,
        point: u64,
        io: &PageIo<'_>,
    ) -> Option<(IdentityObject, FlushOutcome)> {
        let flushed = install(ts, txn, point, io);
        ts.release_writer(TxnId(txn));
        flushed
    }

    #[test]
    fn single_writer_per_table_enforced() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 8);
        ts.map(TxnId(1), PageId(0), loc(100), &io).unwrap();
        // A second writer is rejected until the first finishes.
        assert!(ts.map(TxnId(2), PageId(1), loc(101), &io).is_err());
        assert!(ts.declare_writer(TxnId(2)).is_err());
        ts.rollback(TxnId(1));
        assert!(ts.map(TxnId(2), PageId(1), loc(101), &io).is_ok());
    }

    #[test]
    fn epochs_separate_reader_and_writer_frames() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 8);
        let reader_epoch = ts.frame_epoch(TxnId(9), LATEST);
        let writer_epoch = ts.declare_writer(TxnId(1)).unwrap();
        assert_eq!(writer_epoch, reader_epoch + 1);
        // Readers still see the committed epoch while the writer works.
        assert_eq!(ts.frame_epoch(TxnId(9), LATEST), reader_epoch);
        assert_eq!(ts.frame_epoch(TxnId(1), LATEST), writer_epoch);
        // Commit promotes the writer's epoch.
        ts.map(TxnId(1), PageId(0), loc(1), &io).unwrap();
        commit(&ts, 1, 1, &io).unwrap();
        assert_eq!(ts.frame_epoch(TxnId(9), LATEST), writer_epoch);
    }

    #[test]
    fn commit_returns_superseded_and_written_locators() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        ts.map(TxnId(1), PageId(0), loc(1), &io).unwrap();
        let (id1, first) = commit(&ts, 1, 1, &io).unwrap();
        assert!(
            first.superseded.is_empty(),
            "first flush supersedes nothing"
        );
        assert!(!first.written.is_empty(), "blockmap pages were written");
        // Second version supersedes the first root.
        let old = ts.map(TxnId(2), PageId(0), loc(2), &io).unwrap();
        assert_eq!(old, Some(loc(1)));
        let (id2, second) = commit(&ts, 2, 2, &io).unwrap();
        assert_ne!(id1.root, id2.root);
        assert!(second.superseded.contains(&id1.root));
        // Commit by a non-writer is a no-op.
        assert!(commit(&ts, 3, 3, &io).is_none());
    }

    #[test]
    fn a_flushed_tree_stays_invisible_until_installed() {
        let (space, keys) = fixture();
        let mut io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        ts.map(TxnId(1), PageId(0), loc(10), &io).unwrap();
        let (id1, _) = commit(&ts, 1, 1, &io).unwrap();
        ts.map(TxnId(2), PageId(0), loc(20), &io).unwrap();
        assert_eq!(ts.dirty_nodes(TxnId(2)), 1);
        assert_eq!(ts.dirty_nodes(TxnId(7)), 0);
        let (id2, _) = ts.flush(TxnId(2), VersionId(2), &mut io).unwrap().unwrap();
        assert_eq!(ts.dirty_nodes(TxnId(2)), 0);
        // Flushed but not installed: readers and the catalog anchor still
        // see version 1, and rolling back drops the flushed tree.
        assert_eq!(ts.identity(), Some(id1));
        let reader = ts.resolve(TxnId(7), LATEST, PageId(0), &io).unwrap();
        assert_eq!(reader, Some(loc(10)));
        ts.rollback(TxnId(2));
        assert!(!ts.written_by(TxnId(2)));
        ts.install(TxnId(2), id2, 2);
        assert_eq!(ts.identity(), Some(id1), "nothing left to install");
        let reader = ts.resolve(TxnId(7), LATEST, PageId(0), &io).unwrap();
        assert_eq!(reader, Some(loc(10)));
    }

    #[test]
    fn uninstall_puts_back_the_superseded_version() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        ts.map(TxnId(1), PageId(0), loc(10), &io).unwrap();
        let (id1, _) = commit(&ts, 1, 1, &io).unwrap();
        let reader = TxnId(9);
        // Version 2 is installed; until its commit record's fate is known
        // no other transaction may write the table.
        ts.map(TxnId(2), PageId(0), loc(20), &io).unwrap();
        let writer_epoch = ts.frame_epoch(TxnId(2), LATEST);
        install(&ts, 2, 2, &io).unwrap();
        assert!(ts.declare_writer(TxnId(3)).is_err());
        assert!(ts.map(TxnId(3), PageId(1), loc(31), &io).is_err());
        assert!(ts.redirty_node(TxnId(3), id1.root, &io).is_err());
        // The record fails to log.
        ts.uninstall(TxnId(2), Some(id1), 2);
        assert_eq!(ts.identity(), Some(id1));
        assert_eq!(
            ts.resolve(reader, LATEST, PageId(0), &io).unwrap(),
            Some(loc(10))
        );
        assert!(ts.inner.lock().retained.iter().all(|r| r.until != 2));
        // Neither readers nor the next writer meet the failed version's
        // frames.
        let epoch = ts.frame_epoch(reader, LATEST);
        ts.declare_writer(TxnId(3)).unwrap();
        let next_writer = ts.frame_epoch(TxnId(3), LATEST);
        assert_ne!(epoch, writer_epoch);
        assert_ne!(next_writer, writer_epoch);
        // A table whose first version failed is empty again.
        let fresh = TableStore::new(TableId(2), DbSpaceId(1), 4);
        fresh.map(TxnId(4), PageId(0), loc(40), &io).unwrap();
        install(&fresh, 4, 4, &io).unwrap();
        fresh.uninstall(TxnId(4), None, 4);
        assert_eq!(fresh.identity(), None);
        assert_eq!(fresh.resolve(reader, LATEST, PageId(0), &io).unwrap(), None);
    }

    #[test]
    fn redirty_node_makes_the_commit_rewrite_it() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        for p in 0..8 {
            ts.map(TxnId(1), PageId(p), loc(10 + p), &io).unwrap();
        }
        let (id1, first) = commit(&ts, 1, 1, &io).unwrap();
        // Not a node: nothing changes and the table gains no writer.
        assert!(!ts.redirty_node(TxnId(2), loc(10), &io).unwrap());
        assert!(!ts.written_by(TxnId(2)));
        // A leaf: the next commit rewrites it and the root above it.
        let leaf = first.written[0];
        assert!(ts.redirty_node(TxnId(2), leaf, &io).unwrap());
        assert!(ts.written_by(TxnId(2)));
        assert_eq!(ts.dirty_nodes(TxnId(2)), 2);
        assert!(ts.redirty_node(TxnId(3), leaf, &io).is_err(), "one writer");
        let (_, second) = commit(&ts, 2, 2, &io).unwrap();
        assert_eq!(second.superseded.len(), 2);
        assert!(second.superseded.contains(&leaf) && second.superseded.contains(&id1.root));
        for p in 0..8 {
            let got = ts.resolve(TxnId(7), LATEST, PageId(p), &io).unwrap();
            assert_eq!(got, Some(loc(10 + p)));
        }
    }

    #[test]
    fn resolve_prefers_writer_copy_only_for_the_writer() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        ts.map(TxnId(1), PageId(0), loc(10), &io).unwrap();
        commit(&ts, 1, 1, &io);
        ts.map(TxnId(2), PageId(0), loc(20), &io).unwrap();
        assert_eq!(
            ts.resolve(TxnId(2), LATEST, PageId(0), &io).unwrap(),
            Some(loc(20))
        );
        assert_eq!(
            ts.resolve(TxnId(7), LATEST, PageId(0), &io).unwrap(),
            Some(loc(10))
        );
    }

    #[test]
    fn readers_stay_on_the_version_committed_at_their_begin() {
        let (space, keys) = fixture();
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        let ts = TableStore::new(TableId(1), DbSpaceId(1), 4);
        let commit = |txn: u64, point: u64, pages: &[(u64, u64)]| {
            for &(page, off) in pages {
                ts.map(TxnId(txn), PageId(page), loc(off), &io).unwrap();
            }
            commit(&ts, txn, point, &io).unwrap();
        };
        // Version 1: pages 0 and 1. A reader begins at commit point 1.
        commit(1, 1, &[(0, 10), (1, 11)]);
        let reader = TxnId(5);
        let at = |begin: u64, page: u64| ts.resolve(reader, begin, PageId(page), &io).unwrap();
        let epoch1 = ts.frame_epoch(reader, 1);
        // Two commits each replace page 0 and share page 1.
        commit(2, 2, &[(0, 20)]);
        commit(3, 3, &[(0, 30), (2, 32)]);
        // The reader still resolves, and keys its frames by, version 1 …
        assert_eq!(at(1, 0), Some(loc(10)));
        assert_eq!(at(1, 1), Some(loc(11)));
        assert_eq!(at(1, 2), None);
        assert_eq!(ts.frame_epoch(reader, 1), epoch1);
        // … one that began between the two commits version 2, under its
        // own epoch, and a new one the committed tree.
        assert_eq!(at(2, 0), Some(loc(20)));
        assert_eq!(ts.frame_epoch(reader, 2), epoch1 + 1);
        assert_eq!(at(3, 0), Some(loc(30)));
        assert_eq!(at(3, 2), Some(loc(32)));
        assert_eq!(ts.frame_epoch(reader, 3), epoch1 + 2);
        // (The third retained tree is the empty table version 1 replaced.)
        assert_eq!(ts.inner.lock().retained.len(), 3);
        // The next writer reads what its working copy will be cloned
        // from, whenever it began.
        ts.declare_writer(TxnId(4)).unwrap();
        assert_eq!(
            ts.resolve(TxnId(4), 1, PageId(0), &io).unwrap(),
            Some(loc(30))
        );
        assert_eq!(ts.frame_epoch(TxnId(4), 1), epoch1 + 3);
        ts.rollback(TxnId(4));
        // While the reader that began at 1 is active nothing goes; when
        // it ends the horizon passes both superseded trees.
        ts.release(1);
        assert_eq!(ts.inner.lock().retained.len(), 2);
        assert_eq!(at(1, 0), Some(loc(10)));
        ts.release(2);
        assert_eq!(ts.inner.lock().retained.len(), 1);
        assert_eq!(at(2, 0), Some(loc(20)));
        ts.release(u64::MAX);
        assert!(ts.inner.lock().retained.is_empty());
        assert_eq!(at(1, 0), Some(loc(30)), "nothing older is left to pin");
    }
}
