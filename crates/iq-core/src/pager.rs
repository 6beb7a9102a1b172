//! The pager: the engine-facing [`PageStore`] bound to one transaction,
//! and the buffer manager's [`FlushSink`] implementing the cloud flush
//! path.
//!
//! This is where the paper's write discipline lives: a dirty cloud page
//! leaving the buffer cache is sealed, (optionally) encrypted, uploaded
//! under a **fresh object key** — write-back through the OCM during churn,
//! write-through at commit — then recorded in the working blockmap
//! (superseding the previous version into the RF bitmap) and in the RB
//! bitmap.

use bytes::Bytes;
use iq_buffer::{FlushCause, FlushSink, FrameKey};
use iq_common::{IqError, IqResult, PageId, PhysicalLocator, TableId, TxnId, VersionId};
use iq_engine::PageStore;
use iq_ocm::WriteMode;
use iq_storage::{DbSpace, Page, PageIo, PageKind};

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

    /// The one page-image read path: fetch what `loc` names on `space`,
    /// decrypt, unseal. Shared by the live [`Pager`] and snapshot views.
    pub(crate) fn fetch_page(
        &self,
        space: &DbSpace,
        loc: PhysicalLocator,
        scan: bool,
    ) -> IqResult<Page> {
        let image = match loc {
            PhysicalLocator::Object(key) => match self.ocm_for(space.id) {
                // Scan-driven loads are hinted so the OCM admits them
                // probationary: a cold table scan must not wash the
                // promoted point-read set out of the SSD cache.
                Some(ocm) => ocm.read_hinted(key, scan)?,
                None => space.get_raw(key)?,
            },
            // Composite members bypass the OCM (its cache is keyed by
            // whole objects) and go straight to a ranged GET — or a whole
            // GET sliced client-side under the `pack_ranged_gets = false`
            // ablation, which is what makes over-read measurable.
            PhysicalLocator::ObjectRange { key, offset, len } => {
                let read = space.get_range(key, offset, len, self.config.pack_ranged_gets)?;
                self.pack_stats.note_range_read(&read);
                read.data
            }
            PhysicalLocator::Blocks { .. } => return space.read_page(loc),
        };
        Page::unseal(&self.crypt(image))
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
                    ocm.write(obj_key, image, txn, mode)?;
                }
                None => space.put_raw(obj_key, image)?,
            }
            PhysicalLocator::Object(obj_key)
        } else {
            space.write_page(page, self.keys.as_ref())?
        };
        self.publish(&ts, &space, txn, key.page, loc)
    }

    /// Commit-flush packing: the group becomes ONE composite object — one
    /// PUT under one fresh key — and each member page maps to a ranged
    /// locator inside it. Groups of one and conventional dbspaces take
    /// the per-page [`FlushSink::flush`] path, which keeps
    /// `pack_pages = 1` byte- and request-identical to the pre-packing
    /// flush (including its OCM write-back/write-through behaviour;
    /// composite writes bypass the OCM).
    fn flush_group(
        &self,
        items: &[(FrameKey, Page)],
        txn: TxnId,
        cause: FlushCause,
    ) -> IqResult<()> {
        if items.len() <= 1 {
            for (key, page) in items {
                self.flush(*key, page, txn, cause)?;
            }
            return Ok(());
        }
        // A group may span tables on different dbspaces: pack per cloud
        // dbspace; conventional members fall back per page.
        let mut by_space: std::collections::BTreeMap<u32, Vec<&(FrameKey, Page)>> =
            std::collections::BTreeMap::new();
        for item in items {
            let ts = self.shared.table_store(item.0.table)?;
            by_space.entry(ts.space.0).or_default().push(item);
        }
        for (space_id, group) in by_space {
            let space = self.shared.space(iq_common::DbSpaceId(space_id))?;
            if !space.is_cloud() || group.len() == 1 {
                for (key, page) in group {
                    self.flush(*key, page, txn, cause)?;
                }
                continue;
            }
            // Seal (and encrypt) every member, recording its byte window.
            let obj_key = iq_storage::KeySource::next_key(self.keys.as_ref())?;
            let mut blob = Vec::new();
            let mut members = Vec::with_capacity(group.len());
            for (fkey, page) in &group {
                let image = self.shared.seal_image(&space, page)?;
                members.push(iq_txn::PackMember {
                    table: fkey.table.0,
                    page: fkey.page.0,
                    offset: blob.len() as u32,
                    len: image.len() as u32,
                });
                blob.extend_from_slice(&image);
            }
            let bytes = blob.len() as u64;
            space.put_raw(obj_key, Bytes::from(blob))?;
            iq_common::trace::emit(iq_common::trace::EventKind::PackFlush {
                key: obj_key.offset(),
                pages: members.len() as u64,
                bytes,
            });
            self.shared.pack_stats.note_pack(members.len(), bytes);
            // Publish each member at its ranged locator; the member
            // layout goes to the composite registry at commit via the
            // transaction's pack record.
            for ((fkey, _), m) in group.iter().zip(&members) {
                let ts = self.shared.table_store(fkey.table)?;
                let loc = PhysicalLocator::ObjectRange {
                    key: obj_key,
                    offset: m.offset,
                    len: m.len,
                };
                self.publish(&ts, &space, txn, fkey.page, loc)?;
            }
            self.shared.txns.record_pack(txn, obj_key, members)?;
        }
        Ok(())
    }
}
