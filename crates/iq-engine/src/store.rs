//! The page-store boundary between the engine and the storage stack.
//!
//! The engine addresses pages logically — `(table, logical page number)` —
//! and never sees physical placement, mirroring SAP IQ's logical/physical
//! split (§2). `iq-core` implements [`PageStore`] with the full cloud
//! stack (buffer manager → OCM → dbspace, blockmap resolution, RF/RB
//! bookkeeping); unit tests use [`MemPageStore`].

use std::collections::HashMap;

use bytes::Bytes;
use iq_common::{IqError, IqResult, PageId, TableId, TxnId};
use iq_storage::{Page, PageKind};
use parking_lot::Mutex;

/// Logical page I/O used by tables.
pub trait PageStore: Send + Sync {
    /// Read a page. `demand=true` marks a read a query is blocked on;
    /// `false` marks a prefetched read (the distinction feeds the
    /// latency model).
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page>;

    /// Write (or supersede) a page on behalf of `txn`.
    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()>;

    /// Load `pages` as non-demand reads: the caller is about to read
    /// them, but no query is charged for waiting on them. A scan hands
    /// this only the pages of the group the calling task reads next;
    /// an error here never fails it (the demand read that follows
    /// resurfaces a real fault). The paper's tuned, latency-hiding
    /// prefetcher (§1) is not reproduced — nothing is fetched ahead.
    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()>;

    /// Degree of morsel parallelism scans through this store should use.
    /// Stores that know the session's compute profile override this (the
    /// core stack threads `DatabaseConfig::scan_workers` through here);
    /// the default is a serial scan.
    fn scan_parallelism(&self) -> usize {
        1
    }

    /// The shared submission/completion counters scans should account
    /// their morsel batches into (the `io.*` metrics source). Stores
    /// backed by the full cloud stack return the database's [`IoStats`];
    /// the default (test stores) accounts nothing.
    fn io_stats(&self) -> Option<std::sync::Arc<iq_common::IoStats>> {
        None
    }

    /// The scan-path counters (groups pruned, pages read/skipped) scans
    /// through this store accumulate into — the `scan.*` metrics source.
    /// The default (test stores) accounts nothing.
    fn scan_stats(&self) -> Option<std::sync::Arc<crate::scanstats::ScanStats>> {
        None
    }
}

/// In-memory page store for engine unit tests.
#[derive(Default)]
pub struct MemPageStore {
    pages: Mutex<HashMap<(u32, u64), Page>>,
    scan_stats: Option<std::sync::Arc<crate::scanstats::ScanStats>>,
    demand_reads: std::sync::atomic::AtomicU64,
}

impl MemPageStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store that hands scans a [`ScanStats`](crate::ScanStats)
    /// sink, as the full cloud stack does.
    pub fn with_scan_stats() -> Self {
        Self {
            scan_stats: Some(std::sync::Arc::new(crate::scanstats::ScanStats::new())),
            ..Self::default()
        }
    }

    /// Number of stored pages.
    pub fn page_count(&self) -> usize {
        self.pages.lock().len()
    }

    /// Demand (`demand=true`) reads served.
    pub fn demand_reads(&self) -> u64 {
        self.demand_reads.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl PageStore for MemPageStore {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        if demand {
            self.demand_reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.pages
            .lock()
            .get(&(table.0, page.0))
            .cloned()
            .ok_or(IqError::PageNotFound(page))
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        _txn: TxnId,
    ) -> IqResult<()> {
        self.pages.lock().insert(
            (table.0, page.0),
            Page::new(page, iq_common::VersionId(0), kind, body),
        );
        Ok(())
    }

    fn prefetch(&self, _table: TableId, _pages: &[PageId]) -> IqResult<()> {
        Ok(())
    }

    fn scan_stats(&self) -> Option<std::sync::Arc<crate::scanstats::ScanStats>> {
        self.scan_stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_roundtrip() {
        let s = MemPageStore::new();
        let t = TableId(1);
        assert!(s.read_page(t, PageId(0), true).is_err());
        s.write_page(
            t,
            PageId(0),
            PageKind::Data,
            Bytes::from_static(b"abc"),
            TxnId(1),
        )
        .unwrap();
        let p = s.read_page(t, PageId(0), true).unwrap();
        assert_eq!(&p.body[..], b"abc");
        s.prefetch(t, &[PageId(0)]).unwrap();
        assert_eq!(s.page_count(), 1);
    }
}
