//! Property tests for the sharded buffer manager.
//!
//! Two load-bearing properties of the refactor:
//!
//! * **Shard-count transparency** — a 1-shard manager with the protected
//!   segment disabled must behave exactly like the historical single-lock
//!   LRU manager: same hits, same miss classification, same evictions,
//!   same resident set, over arbitrary interleavings of loads, lookups
//!   and invalidations. (The sharding refactor may move frames around
//!   internally; it must not change *what* is cached.)
//! * **Scan resistance** — once a working set is promoted into the
//!   protected SLRU segment, a cold scan of any length admitted with the
//!   scan hint cannot displace it: the hot set's post-scan hit rate is at
//!   least its pre-scan hit rate.

use bytes::Bytes;
use iq_buffer::{BufferManager, BufferOptions, FlushCause, FlushSink, FrameKey, LruCache};
use iq_common::{IqResult, PageId, TableId, TxnId, VersionId};
use iq_storage::{Page, PageKind};
use proptest::prelude::*;

struct NoFlush;
impl FlushSink for NoFlush {
    fn flush(&self, _: FrameKey, _: &Page, _: TxnId, _: FlushCause) -> IqResult<()> {
        Ok(())
    }
}

const PAGE_BODY: usize = 1000;
/// Must match `BufferManager::frame_cost` for a `PAGE_BODY`-byte page.
const FRAME_COST: usize = PAGE_BODY + 128;

fn key(page: u64) -> FrameKey {
    FrameKey {
        table: TableId(1),
        page: PageId(page),
        epoch: 0,
    }
}

fn page(p: u64) -> Page {
    Page::new(
        PageId(p),
        VersionId(1),
        PageKind::Data,
        Bytes::from(vec![0x2f; PAGE_BODY]),
    )
}

/// The historical manager, reduced to its observable behavior: one LRU
/// list under one lock, clean pages only, uniform frame cost.
struct SingleLockModel {
    cache: LruCache<FrameKey, ()>,
    capacity_frames: usize,
    hits: u64,
    demand_misses: u64,
    prefetched: u64,
    evictions: u64,
}

impl SingleLockModel {
    fn new(capacity_frames: usize) -> Self {
        Self {
            cache: LruCache::new(),
            capacity_frames,
            hits: 0,
            demand_misses: 0,
            prefetched: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, k: FrameKey) -> bool {
        let hit = self.cache.get(&k).is_some();
        if hit {
            self.hits += 1;
        }
        hit
    }

    fn get_or_load(&mut self, k: FrameKey, demand: bool) {
        if self.cache.get(&k).is_some() {
            self.hits += 1;
            return;
        }
        if demand {
            self.demand_misses += 1;
        } else {
            self.prefetched += 1;
        }
        self.cache.insert(k, ());
        while self.cache.len() > self.capacity_frames {
            self.cache.pop_lru();
            self.evictions += 1;
        }
    }

    fn invalidate(&mut self, k: FrameKey) {
        self.cache.remove(&k);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random traces of loads / lookups / invalidations over a small key
    /// space: a 1-shard, LRU-mode manager agrees with the single-lock
    /// reference on every counter and on the exact resident set.
    #[test]
    fn one_shard_manager_equals_single_lock_lru(
        capacity_frames in 2usize..8,
        ops in proptest::collection::vec((0u8..6, 0u64..24), 1..250)
    ) {
        let mgr = BufferManager::with_options(
            capacity_frames * FRAME_COST,
            BufferOptions { shards: 1, protected_fraction: 0.0 },
        );
        let mut model = SingleLockModel::new(capacity_frames);
        let sink = NoFlush;

        for (op, p) in ops {
            match op {
                // Demand loads dominate real traffic.
                0..=2 => {
                    mgr.get_or_load(key(p), true, &sink, || Ok(page(p))).unwrap();
                    model.get_or_load(key(p), true);
                }
                3 => {
                    mgr.get_or_load(key(p), false, &sink, || Ok(page(p))).unwrap();
                    model.get_or_load(key(p), false);
                }
                4 => {
                    prop_assert_eq!(mgr.get(key(p)).is_some(), model.get(key(p)));
                }
                _ => {
                    mgr.invalidate(key(p));
                    model.invalidate(key(p));
                }
            }
            prop_assert_eq!(mgr.frame_count(), model.cache.len());
        }

        let s = mgr.stats.lifetime_snapshot();
        prop_assert_eq!(s.hits, model.hits);
        prop_assert_eq!(s.demand_misses, model.demand_misses);
        prop_assert_eq!(s.prefetched, model.prefetched);
        prop_assert_eq!(s.evictions, model.evictions);
        // Exact resident set, not just its size.
        for p in 0..24u64 {
            prop_assert_eq!(
                mgr.contains(key(p)),
                model.cache.peek(&key(p)).is_some(),
                "membership diverged on page {}", p
            );
        }
    }

    /// A promoted hot set survives a cold scan of arbitrary length: the
    /// post-scan hot-set hit rate never drops below the pre-scan rate.
    #[test]
    fn cold_scan_never_degrades_promoted_hot_set(
        hot in 1u64..9,
        scan_len in 16u64..400,
        shards in 1usize..3
    ) {
        let capacity_frames = 16usize;
        let mgr = BufferManager::with_options(
            capacity_frames * FRAME_COST,
            BufferOptions { shards, protected_fraction: 0.8 },
        );
        let sink = NoFlush;

        // Warm and promote: load, then re-hit each hot page.
        for p in 0..hot {
            mgr.get_or_load(key(p), true, &sink, || Ok(page(p))).unwrap();
        }
        for p in 0..hot {
            mgr.get_or_load(key(p), true, &sink, || Ok(page(p))).unwrap();
        }

        // Pre-scan hot hit rate.
        mgr.stats.begin_epoch();
        for p in 0..hot {
            mgr.get_or_load(key(p), true, &sink, || Ok(page(p))).unwrap();
        }
        let pre = mgr.stats.snapshot();
        let pre_rate = pre.hits as f64 / (pre.hits + pre.demand_misses).max(1) as f64;

        // Cold scan: distinct never-again pages, loaded non-demand —
        // exactly how a scan reads the morsel pages after its first group.
        for p in 0..scan_len {
            let k = key((1 << 32) | p);
            mgr.get_or_load(k, false, &sink, || Ok(page((1 << 32) | p))).unwrap();
        }

        // Post-scan hot hit rate must not regress.
        mgr.stats.begin_epoch();
        for p in 0..hot {
            mgr.get_or_load(key(p), true, &sink, || Ok(page(p))).unwrap();
        }
        let post = mgr.stats.snapshot();
        let post_rate = post.hits as f64 / (post.hits + post.demand_misses).max(1) as f64;
        prop_assert!(
            post_rate >= pre_rate,
            "cold scan of {} pages washed the hot set: {} -> {}",
            scan_len, pre_rate, post_rate
        );
    }
}
