//! Read-only views over past snapshots.
//!
//! The paper lists this as its first future-work item (§8): "extend our
//! snapshot gear to be able to create read-only views over past snapshots
//! in an existing database without having to recover the database from a
//! snapshot." The retention FIFO makes it straightforward: every page
//! reachable from a snapshot's identity objects is still on the object
//! store for the retention period, so a view only needs the snapshot's
//! catalog — no data is copied and the live database is untouched.
//!
//! A [`SnapshotView`] implements the engine's `PageStore` read path
//! (writes are rejected), resolving pages through blockmaps opened from
//! the *snapshot's* identities. Reads bypass the live buffer cache — a
//! view belongs to a different timeline, and sharing frames with the
//! live epoch space would be incorrect — but still read through the OCM,
//! whose never-write-twice keys are timeline-agnostic.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use iq_common::{IqError, IqResult, ObjectKey, PageId, TableId, TxnId};
use iq_engine::{PageStore, TableMeta};
use iq_storage::{KeySource, Page, PageIo, PageKind};

use crate::database::Shared;
use crate::tablestore::{TableStore, LATEST};

/// A key source that must never be asked for a key: snapshot views are
/// strictly read-only, and reads never allocate.
struct NoKeys;

impl KeySource for NoKeys {
    fn next_key(&self) -> IqResult<ObjectKey> {
        Err(IqError::Invalid("snapshot views are read-only".into()))
    }
}

/// A read-only view over one snapshot of the database.
pub struct SnapshotView {
    pub(crate) shared: Arc<Shared>,
    /// Snapshot id this view serves.
    pub snapshot_id: u64,
    tables: HashMap<u32, Arc<TableStore>>,
    metas: HashMap<u32, TableMeta>,
}

impl SnapshotView {
    pub(crate) fn open(shared: Arc<Shared>, snapshot_id: u64) -> IqResult<Self> {
        let sm = shared
            .snapshots()
            .ok_or_else(|| IqError::Invalid("retention disabled".into()))?;
        let snap = sm
            .snapshot(snapshot_id)
            .ok_or_else(|| IqError::NotFound(format!("snapshot {snapshot_id}")))?;
        let mut tables = HashMap::new();
        let mut metas = HashMap::new();
        for identity in snap.catalog.identities.values() {
            // The table's dbspace is whatever the live registry says —
            // dbspaces are never dropped while snapshots reference them.
            let space = shared
                .table_store(identity.table)
                .map(|ts| ts.space)
                .unwrap_or(iq_common::DbSpaceId(u32::MAX));
            tables.insert(
                identity.table.0,
                Arc::new(TableStore::from_identity(*identity, space)),
            );
            let meta: Option<TableMeta> = snap
                .catalog
                .get_section(&format!("table-meta/{}", identity.table.0))?;
            if let Some(m) = meta {
                metas.insert(identity.table.0, m);
            }
        }
        Ok(Self {
            shared,
            snapshot_id,
            tables,
            metas,
        })
    }

    /// Tables visible in the snapshot.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut v: Vec<TableId> = self.tables.keys().map(|&t| TableId(t)).collect();
        v.sort();
        v
    }

    /// The engine-side metadata persisted for a table at snapshot time
    /// (present when the application called `Database::save_table_meta`
    /// before the snapshot).
    pub fn table_meta(&self, table: TableId) -> Option<&TableMeta> {
        self.metas.get(&table.0)
    }

    fn view_table(&self, table: TableId) -> IqResult<&Arc<TableStore>> {
        self.tables
            .get(&table.0)
            .ok_or_else(|| IqError::NotFound(format!("table {table} in snapshot")))
    }
}

impl PageStore for SnapshotView {
    fn read_page(&self, table: TableId, page: PageId, _demand: bool) -> IqResult<Page> {
        let ts = self.view_table(table)?;
        let space = self.shared.space(ts.space)?;
        let keys = NoKeys;
        let io = PageIo {
            space: &space,
            keys: &keys,
        };
        // TxnId(0) is never a writer and the view's store never commits,
        // so resolution always takes the committed (snapshot) tree.
        let loc = ts
            .resolve(TxnId(0), LATEST, page, &io)?
            .ok_or(IqError::PageNotFound(page))?;
        // Same fetch path as the live pager — through the OCM, whose
        // never-write-twice keys are timeline-agnostic.
        self.shared.fetch_page(&space, loc)
    }

    fn write_page(
        &self,
        _table: TableId,
        _page: PageId,
        _kind: PageKind,
        _body: Bytes,
        _txn: TxnId,
    ) -> IqResult<()> {
        Err(IqError::Invalid("snapshot views are read-only".into()))
    }

    fn scan_parallelism(&self) -> usize {
        // Time-travel scans share the session's worker budget.
        self.shared.config.scan_workers.max(1)
    }

    fn scan_stats(&self) -> Option<std::sync::Arc<iq_engine::ScanStats>> {
        // Time-travel scans account into the same `scan.*` source as live
        // scans — one request economy per database.
        Some(std::sync::Arc::clone(&self.shared.scan_stats))
    }
}
