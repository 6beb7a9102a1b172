//! Scan-path counters behind the `scan.*` metrics source.
//!
//! The two-phase late-materialization scan (DESIGN.md §6h) makes two
//! per-group decisions worth observing: whether the group was pruned
//! before any I/O (zone maps), and whether its projection pages were
//! skipped because the predicate mask came up all-false. Each skipped
//! page is one data-page GET that never reached the object store — the
//! request-economy win the paper's zone-map story (§1) is about. Stores
//! backed by the full cloud stack hand one shared [`ScanStats`] to every
//! scan via [`PageStore::scan_stats`](crate::store::PageStore::scan_stats).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counters accumulated across every scan through one store.
///
/// All loads/stores are `Relaxed`: the counters are independent tallies,
/// never used to synchronize.
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Row groups examined by the pruning front end.
    pub groups_considered: AtomicU64,
    /// Groups pruned by a per-column zone entry.
    pub groups_zone_pruned: AtomicU64,
    /// Surviving groups whose predicate mask came up all-false, so their
    /// projection pages were never read.
    pub groups_empty_mask: AtomicU64,
    /// Surviving groups with at least one matching row (projection pages
    /// materialized).
    pub groups_materialized: AtomicU64,
    /// Data pages demand-read because a predicate needed them.
    pub predicate_pages_read: AtomicU64,
    /// Of the predicate pages read, those whose conjuncts ran on the
    /// page's encoding (`encode::eval_page`): the column was never
    /// decoded for the predicate.
    pub predicate_pages_encoded: AtomicU64,
    /// Of the predicate pages read, those decoded whole for the
    /// predicate: an eager scan's, and a late scan's columns that the
    /// residual conjuncts read.
    pub predicate_pages_decoded: AtomicU64,
    /// Data pages demand-read for projection only.
    pub projection_pages_read: AtomicU64,
    /// Projection pages skipped by all-false masks (late-materialization
    /// GETs saved).
    pub projection_pages_skipped: AtomicU64,
    /// Pages (predicate and projection) never touched because their whole
    /// group was pruned.
    pub pruned_pages_skipped: AtomicU64,
    /// String columns a late-materialized scan's predicate reads only as
    /// codes (`=`, `<>`, `IN` against literals), summed over scans.
    pub dict_filter_columns: AtomicU64,
}

impl ScanStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump `counter` by `n`.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Total data-page GETs avoided: whole-group pruning plus
    /// late-materialization skips.
    pub fn gets_saved(&self) -> u64 {
        Self::get(&self.pruned_pages_skipped) + Self::get(&self.projection_pages_skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ScanStats::new();
        ScanStats::add(&s.pruned_pages_skipped, 4);
        ScanStats::add(&s.projection_pages_skipped, 3);
        ScanStats::add(&s.projection_pages_read, 2);
        assert_eq!(ScanStats::get(&s.projection_pages_read), 2);
        assert_eq!(s.gets_saved(), 7);
    }
}
