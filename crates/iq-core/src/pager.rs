//! The pager: the engine-facing [`PageStore`] bound to one transaction and
//! the buffer manager's eviction [`FlushSink`], plus the commit's sink,
//! `CommitFlush`. `Pager::write_group` is the one writer of composite
//! objects, for eviction groups and commit groups alike.
//!
//! This is where the paper's write discipline lives: a dirty cloud page
//! leaving the buffer cache is sealed, (optionally) encrypted, uploaded
//! under a **fresh object key** — write-back through the OCM during churn,
//! on its own or as a member of an eviction group's composite;
//! write-through at commit — then recorded in the working blockmap
//! (superseding the previous version into the RF bitmap) and in the RB
//! bitmap.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use iq_buffer::{FlushCause, FlushGroup, FlushSink, FrameKey};
use iq_common::{
    DbSpaceId, IqError, IqResult, ObjectKey, PageId, PhysicalLocator, TableId, TxnId, VersionId,
};
use iq_engine::PageStore;
use iq_ocm::{Ocm, WriteMode};
use iq_storage::{DbSpace, IdentityObject, KeySource, NodeSink, Page, PageIo, PageKind};
use iq_txn::PackMember;
use parking_lot::{Condvar, Mutex};

use crate::database::Shared;
use crate::encrypt;
use crate::tablestore::TableStore;

impl Shared {
    /// XOR-encrypt or -decrypt (the cipher is an involution) a cloud page
    /// image when `encryption_key` is set.
    fn crypt(&self, image: Bytes) -> Bytes {
        match self.config.encryption_key {
            Some(k) => encrypt::apply(k, &image),
            None => image,
        }
    }

    /// Seal `page` for `space` and encrypt the image — what goes to the
    /// store, whole or as a composite member.
    fn seal_image(&self, space: &DbSpace, page: &Page) -> IqResult<Bytes> {
        let (image, _) = page.seal(&space.config)?;
        Ok(self.crypt(image))
    }

    /// The one page-image read path: fetch what `loc` names on `space` —
    /// through the OCM for an object or a composite member — decrypt,
    /// unseal. Shared by the live [`Pager`] and snapshot views.
    pub(crate) fn fetch_page(
        &self,
        space: &DbSpace,
        loc: PhysicalLocator,
        scan: bool,
    ) -> IqResult<Page> {
        if let PhysicalLocator::Blocks { .. } = loc {
            return space.read_page(loc);
        }
        // Scan-driven loads are hinted so the OCM admits them
        // probationary: a cold table scan must not wash the promoted
        // point-read set out of the SSD cache.
        Page::unseal(&self.crypt(space.read_image(loc, scan)?))
    }
}

/// Transaction-bound page access.
pub struct Pager {
    pub(crate) shared: std::sync::Arc<Shared>,
    pub(crate) txn: TxnId,
    /// The commit point `txn` began at — the table versions it reads —
    /// or [`crate::tablestore::LATEST`].
    pub(crate) begin: u64,
    pub(crate) keys: std::sync::Arc<iq_txn::NodeKeyCache>,
}

impl Pager {
    /// The transaction this pager acts for.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    fn load_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        let ts = self.shared.table_store(table)?;
        let space = self.shared.space(ts.space)?;
        let io = PageIo {
            space: &space,
            keys: self.keys.as_ref(),
        };
        let loc = ts
            .resolve(self.txn, self.begin, page, &io)?
            .ok_or(IqError::PageNotFound(page))?;
        self.shared.fetch_page(&space, loc, !demand)
    }

    /// Publish a flushed page at its new home `loc`: blockmap update
    /// (dirties the path — the Figure 2 cascade) and RF/RB bookkeeping.
    fn publish(
        &self,
        ts: &TableStore,
        space: &DbSpace,
        txn: TxnId,
        page: PageId,
        loc: PhysicalLocator,
    ) -> IqResult<()> {
        let io = PageIo {
            space,
            keys: self.keys.as_ref(),
        };
        let superseded = ts.map(txn, page, loc, &io)?;
        self.shared.txns.record_alloc(txn, ts.space, loc)?;
        if let Some(old) = superseded {
            self.shared.txns.record_free(txn, ts.space, old)?;
        }
        Ok(())
    }
}

impl PageStore for Pager {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        let epoch = self
            .shared
            .table_store(table)?
            .frame_epoch(self.txn, self.begin);
        let key = FrameKey { table, page, epoch };
        self.shared
            .buffer
            .get_or_load(key, demand, self, || self.load_page(table, page, demand))
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        debug_assert_eq!(txn, self.txn, "pager is bound to one transaction");
        let epoch = self.shared.table_store(table)?.declare_writer(txn)?;
        let p = Page::new(page, VersionId(txn.0), kind, body);
        self.shared
            .buffer
            .put_dirty(FrameKey { table, page, epoch }, p, txn, self)
    }

    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()> {
        let epoch = self
            .shared
            .table_store(table)?
            .frame_epoch(self.txn, self.begin);
        for &page in pages {
            let key = FrameKey { table, page, epoch };
            if self.shared.buffer.contains(key) {
                continue;
            }
            // Non-demand loads are charged as overlapped I/O, not demand
            // misses. Nothing runs in the background: the scan calls this
            // for the group it reads next, on the lane that reads it.
            self.shared
                .buffer
                .get_or_load(key, false, self, || self.load_page(table, page, false))?;
        }
        Ok(())
    }

    fn scan_parallelism(&self) -> usize {
        self.shared.config.scan_workers.max(1)
    }

    fn io_stats(&self) -> Option<std::sync::Arc<iq_common::IoStats>> {
        Some(std::sync::Arc::clone(&self.shared.io_stats))
    }

    fn scan_stats(&self) -> Option<std::sync::Arc<iq_engine::ScanStats>> {
        Some(std::sync::Arc::clone(&self.shared.scan_stats))
    }
}

/// The eviction sink, and the per-page write of the commit's sink: one
/// page, one object (or block run); an eviction group of two or more is
/// one composite.
impl FlushSink for Pager {
    fn flush(&self, key: FrameKey, page: &Page, txn: TxnId, cause: FlushCause) -> IqResult<()> {
        let ts = self.shared.table_store(key.table)?;
        let space = self.shared.space(ts.space)?;
        let loc = if space.is_cloud() {
            // Never write an object twice: a fresh key for every flush.
            let obj_key = iq_storage::KeySource::next_key(self.keys.as_ref())?;
            let image = self.shared.seal_image(&space, page)?;
            match self.shared.ocm_for(ts.space) {
                Some(ocm) => {
                    // Churn-phase evictions use write-back; commit-phase
                    // flushes write through (§4).
                    let mode = match cause {
                        FlushCause::Eviction => WriteMode::WriteBack,
                        FlushCause::Commit => WriteMode::WriteThrough,
                    };
                    // One member at offset 0; a sealed image is at most
                    // the page size, a u32.
                    let page = (0, image.len() as u32);
                    ocm.write_group(obj_key, image, &[page], txn, mode)?;
                }
                None => space.put_raw(obj_key, image)?,
            }
            PhysicalLocator::Object(obj_key)
        } else {
            space.write_page(page, self.keys.as_ref())?
        };
        self.publish(&ts, &space, txn, key.page, loc)
    }

    fn flush_group(
        &self,
        items: &[(FrameKey, Page)],
        txn: TxnId,
        group: FlushGroup,
    ) -> IqResult<()> {
        self.write_group(items, txn, group, None)
    }

    fn pack_pages(&self) -> usize {
        self.shared.config.pack_pages
    }
}

/// A composite object being assembled. Its key is drawn before any member
/// is placed, so every member's ranged locator is known before the one
/// PUT that uploads them all.
struct Composite {
    key: ObjectKey,
    blob: Vec<u8>,
    members: Vec<PackMember>,
}

impl Composite {
    fn new(keys: &dyn KeySource) -> IqResult<Self> {
        Ok(Self {
            key: keys.next_key()?,
            blob: Vec::new(),
            members: Vec::new(),
        })
    }

    /// Lay `image` end to end after the members already placed and return
    /// its locator.
    fn push(&mut self, table: TableId, page: PageId, image: &[u8]) -> PhysicalLocator {
        let (offset, len) = (self.blob.len() as u32, image.len() as u32);
        self.members.push(PackMember {
            table: table.0,
            page: page.0,
            offset,
            len,
        });
        self.blob.extend_from_slice(image);
        PhysicalLocator::ObjectRange {
            key: self.key,
            offset,
            len,
        }
    }

    /// Upload the object in one PUT: write-back through `ocm`, whose slots
    /// take every member at once, or straight to the store. The member
    /// layout goes to the composite registry at commit through the
    /// transaction's pack record.
    fn upload(
        self,
        shared: &Shared,
        space: &DbSpace,
        txn: TxnId,
        ocm: Option<&Ocm>,
    ) -> IqResult<()> {
        let bytes = self.blob.len() as u64;
        let blob = Bytes::from(self.blob);
        match ocm {
            Some(ocm) => {
                let members: Vec<(u32, u32)> =
                    self.members.iter().map(|m| (m.offset, m.len)).collect();
                ocm.write_group(self.key, blob, &members, txn, WriteMode::WriteBack)?;
            }
            None => space.put_raw(self.key, blob)?,
        }
        iq_common::trace::emit(iq_common::trace::EventKind::PackFlush {
            key: self.key.offset(),
            pages: self.members.len() as u64,
            bytes,
        });
        shared.pack_stats.note_pack(self.members.len(), bytes);
        shared.txns.record_pack(txn, self.key, self.members)
    }
}

impl Pager {
    /// The one composite writer: write one group — of an eviction, or of
    /// the commit flush `commit` — per dbspace. The commit's tail (its
    /// last group) is followed by the cascade of every table the
    /// transaction wrote on that dbspace — children before parents, so
    /// each parent encodes its children's ranged locators.
    ///
    /// A composite needs two members. A head group counts its pages; in
    /// the tail a page brings at least the leaf above it, so only a tail
    /// of nodes alone can be too small. The pages are sealed, then the
    /// composite's key is drawn and they are laid out at their offsets;
    /// without packing, on a conventional dbspace, or below two members,
    /// each page and node is written one object (or block run) on its own.
    ///
    /// A head group is uploaded, then published: an eviction group write-
    /// back through the OCM, a commit group straight to the store (commit
    /// composites are not cached). The commit's head groups are written
    /// concurrently, but each draws its composites' keys only in its turn
    /// ([`Turnstile`]), so their keys, and the blockmap leaves that encode
    /// them, are those of a serial flush.
    fn write_group(
        &self,
        items: &[(FrameKey, Page)],
        txn: TxnId,
        group: FlushGroup,
        commit: Option<&CommitFlush<'_>>,
    ) -> IqResult<()> {
        let shared = &self.shared;
        let tail = commit.filter(|_| group == FlushGroup::CommitTail);
        let cascade = tail.is_some();
        let mut by_space: BTreeMap<u32, Vec<&(FrameKey, Page)>> = BTreeMap::new();
        for item in items {
            let ts = shared.table_store(item.0.table)?;
            by_space.entry(ts.space.0).or_default().push(item);
        }
        if cascade {
            for ts in shared.written_tables(txn) {
                by_space.entry(ts.space.0).or_default();
            }
        }
        for (space_id, pages) in by_space {
            let space = shared.space(DbSpaceId(space_id))?;
            // Read again after the pages are published: publishing a
            // table's first page gives it its working tree.
            let tables = || -> Vec<Arc<TableStore>> {
                if !cascade {
                    return Vec::new();
                }
                let mut v = shared.written_tables(txn);
                v.retain(|ts| ts.space.0 == space_id);
                v
            };
            let nodes = tables()
                .iter()
                .map(|t| t.dirty_nodes(txn))
                .sum::<usize>()
                .max(usize::from(cascade && !pages.is_empty()));
            if shared.config.pack_pages <= 1 || !space.is_cloud() || pages.len() + nodes < 2 {
                for (key, page) in pages {
                    self.flush(*key, page, txn, group.cause())?;
                }
                let mut io = PageIo {
                    space: &space,
                    keys: self.keys.as_ref(),
                };
                if let Some(commit) = tail {
                    for ts in tables() {
                        commit.cascade(&ts, &mut io)?;
                    }
                }
                continue;
            }
            let images = pages
                .iter()
                .map(|(_, page)| shared.seal_image(&space, page))
                .collect::<IqResult<Vec<_>>>()?;
            if let (FlushGroup::Commit(index), Some(commit)) = (group, commit) {
                commit.turn.wait(index);
            }
            let mut composite = Composite::new(self.keys.as_ref())?;
            let locs: Vec<PhysicalLocator> = pages
                .iter()
                .zip(&images)
                .map(|((fkey, _), image)| composite.push(fkey.table, fkey.page, image))
                .collect();
            let publish = || -> IqResult<()> {
                for ((fkey, _), &loc) in pages.iter().zip(&locs) {
                    let ts = shared.table_store(fkey.table)?;
                    self.publish(&ts, &space, txn, fkey.page, loc)?;
                }
                Ok(())
            };
            match tail {
                Some(commit) => {
                    // The leaves encode the pages' locators, so the pages
                    // are published before the cascade appends the nodes.
                    publish()?;
                    for ts in tables() {
                        let mut nodes = StagedNodes {
                            composite: &mut composite,
                            space: &space,
                            table: ts.table,
                        };
                        commit.cascade(&ts, &mut nodes)?;
                    }
                    composite.upload(shared, &space, txn, None)?;
                }
                None => {
                    // A head group maps its pages once the upload has
                    // landed (or, write-back, is queued behind its SSD
                    // copies), so a failed group maps nothing.
                    let ocm = match group.cause() {
                        FlushCause::Eviction => shared.ocm_for(space.id),
                        FlushCause::Commit => None,
                    };
                    composite.upload(shared, &space, txn, ocm.as_deref())?;
                    publish()?;
                }
            }
        }
        Ok(())
    }
}

/// Stages one table's blockmap nodes as composite members, sealed with
/// the dbspace's geometry and no cipher — the image
/// [`DbSpace::write_page`] uploads for a node on its own.
struct StagedNodes<'a> {
    composite: &'a mut Composite,
    space: &'a DbSpace,
    table: TableId,
}

impl NodeSink for StagedNodes<'_> {
    fn write_node(&mut self, page: &Page) -> IqResult<PhysicalLocator> {
        let (image, _) = page.seal(&self.space.config)?;
        Ok(self.composite.push(self.table, page.id, &image))
    }
}

/// The order in which a commit's head groups, written concurrently, draw
/// their composites' keys: group `i` draws only once group `i − 1` is
/// done, which is the order a serial flush draws them in. A failed group
/// opens the turnstile for good: the commit rolls back, and the fan-out
/// skips later groups, which would otherwise never hand the turn on.
#[derive(Default)]
struct Turnstile {
    /// The head group whose turn it is; `usize::MAX` once one failed.
    next: Mutex<usize>,
    turned: Condvar,
}

impl Turnstile {
    /// Block until it is group `index`'s turn.
    fn wait(&self, index: usize) {
        let mut next = self.next.lock();
        while *next < index {
            self.turned.wait(&mut next);
        }
    }

    /// Group `index` is done: hand the turn on, once it has had it.
    fn pass(&self, index: usize, ok: bool) {
        if ok {
            self.wait(index);
        }
        let mut next = self.next.lock();
        *next = if ok {
            (*next).max(index + 1)
        } else {
            usize::MAX
        };
        drop(next);
        self.turned.notify_all();
    }
}

/// The commit's flush sink. Every group of the commit flush goes through
/// `Pager::write_group`; the tail also appends the blockmap cascade of
/// every table the transaction wrote, so with packing on the commit's last
/// group and its whole cascade cost one PUT. Nothing is installed here:
/// the identities wait in `flushed` until every upload of the commit has
/// landed.
pub(crate) struct CommitFlush<'a> {
    pager: &'a Pager,
    version: VersionId,
    flushed: Mutex<Vec<(Arc<TableStore>, IdentityObject)>>,
    turn: Turnstile,
}

impl<'a> CommitFlush<'a> {
    pub(crate) fn new(pager: &'a Pager, version: VersionId) -> Self {
        Self {
            pager,
            version,
            flushed: Mutex::new(Vec::new()),
            turn: Turnstile::default(),
        }
    }

    /// Each table the cascade flushed, with the identity to install.
    pub(crate) fn into_flushed(self) -> Vec<(Arc<TableStore>, IdentityObject)> {
        self.flushed.into_inner()
    }

    /// Flush `ts`'s working tree into `sink` and record the nodes it wrote
    /// (RB) and superseded (RF).
    fn cascade(&self, ts: &Arc<TableStore>, sink: &mut dyn NodeSink) -> IqResult<()> {
        let txn = self.pager.txn;
        let Some((identity, outcome)) = ts.flush(txn, self.version, sink)? else {
            return Ok(());
        };
        let txns = &self.pager.shared.txns;
        for loc in outcome.written {
            txns.record_alloc(txn, ts.space, loc)?;
        }
        for loc in outcome.superseded {
            txns.record_free(txn, ts.space, loc)?;
        }
        self.flushed.lock().push((Arc::clone(ts), identity));
        Ok(())
    }
}

impl FlushSink for CommitFlush<'_> {
    fn flush(&self, key: FrameKey, page: &Page, txn: TxnId, cause: FlushCause) -> IqResult<()> {
        self.pager.flush(key, page, txn, cause)
    }

    fn flush_group(
        &self,
        items: &[(FrameKey, Page)],
        txn: TxnId,
        group: FlushGroup,
    ) -> IqResult<()> {
        let result = self.pager.write_group(items, txn, group, Some(self));
        if let FlushGroup::Commit(index) = group {
            self.turn.pass(index, result.is_ok());
        }
        result
    }

    fn pack_pages(&self) -> usize {
        self.pager.pack_pages()
    }
}
