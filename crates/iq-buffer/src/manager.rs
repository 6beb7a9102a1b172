//! The buffer manager.
//!
//! A RAM-budgeted cache of decompressed pages keyed by `(table, logical
//! page)`. "The buffer manager responds to requests from the query engine
//! in the form of (logical-page-number, version-counter) and is
//! responsible for locating the correct version of a page" (§2). Physical
//! placement is delegated downward: on a miss the caller's loader resolves
//! the blockmap and reads through the OCM; on eviction or commit, dirty
//! pages leave through a [`FlushSink`] that implements the
//! never-write-twice cloud flush (fresh key, blockmap update, RF/RB
//! bookkeeping).
//!
//! The manager distinguishes **demand misses** (a query blocked on the
//! read) from **prefetched loads** (latency was overlapped); the
//! virtual-time model prices the former serially, which is what makes
//! short queries on S3 slower than on EBS (the paper's Q2/Q19 exception).
//!
//! # Concurrency structure
//!
//! The frame table is split across a power-of-two number of
//! [shards](crate::shard) so parallel scan workers touching disjoint pages
//! take disjoint locks; byte accounting is a process-wide atomic and the
//! dirty-page index is a separate small mutex (lock order: shard →
//! dirty-index, never the reverse). Replacement within each shard is a
//! scan-resistant [segmented LRU](crate::slru): prefetched (scan) loads are
//! admitted probationary so one large scan cannot displace the point-read
//! working set — the property the paper's §5 RAM-over-OCM-over-store cache
//! hierarchy depends on to keep the per-request-billed object store cold.
//!
//! No shard lock is ever held across a [`FlushSink::flush`] or a backend
//! GET. An evicted dirty frame is flushed *after* its shard lock is
//! released; the key is parked in the shard's single-flight `loading` set
//! for the duration so a concurrent reader waits for the flush (and then
//! reloads through the updated blockmap) instead of resurrecting the
//! pre-flush frame.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use iq_common::trace::{self, EventKind};
use iq_common::{IoCore, IqError, IqResult, PageId, TableId, TxnId};
use iq_storage::Page;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::shard::{shard_count, shard_index, Shard, ShardInner};
use crate::slru::Admission;

/// Cache key: table, logical page number, and table-version epoch.
///
/// The epoch keeps MVCC versions apart in the shared cache: a writer's
/// uncommitted frames carry the next epoch, so concurrent readers of the
/// committed version never observe them — the in-RAM counterpart of the
/// paper's copy-on-write versioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameKey {
    /// Owning table.
    pub table: TableId,
    /// Logical page.
    pub page: PageId,
    /// Table-version epoch the frame belongs to.
    pub epoch: u64,
}

/// Why a dirty page is being written out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlushCause {
    /// Cache pressure during the churn phase — the OCM uses write-back.
    Eviction,
    /// Transaction commit — the OCM must write through to the store.
    Commit,
}

/// Downstream writer for dirty pages.
///
/// `Sync` because the commit path fans `flush` calls across a worker pool
/// (see [`BufferManager::flush_txn_packed`]); implementations must be
/// safe to call from several threads at once. The core stack already is:
/// key generation, blockmap updates and RF/RB bookkeeping are all
/// internally synchronized.
pub trait FlushSink: Sync {
    /// Persist `page`. Implementations obtain a fresh object key for cloud
    /// dbspaces, update the blockmap, and record RF/RB bitmap entries.
    fn flush(&self, key: FrameKey, page: &Page, txn: TxnId, cause: FlushCause) -> IqResult<()>;

    /// Persist a group of pages together. The packing sink coalesces the
    /// group into one composite object (one PUT instead of
    /// `items.len()`); the default just loops over [`FlushSink::flush`],
    /// so non-packing sinks keep per-page semantics. A group either fully
    /// succeeds or the caller treats every member as unflushed —
    /// implementations must not leave a partially applied group mapped.
    fn flush_group(
        &self,
        items: &[(FrameKey, Page)],
        txn: TxnId,
        cause: FlushCause,
    ) -> IqResult<()> {
        for (key, page) in items {
            self.flush(*key, page, txn, cause)?;
        }
        Ok(())
    }
}

struct Frame {
    page: Page,
    /// `Some(txn)` while dirty.
    dirty: Option<TxnId>,
    bytes: usize,
}

/// Dirty-page index, shared across shards. Guarded by its own mutex;
/// always acquired *after* a shard lock (lock order: shard → dirty).
#[derive(Default)]
struct DirtyIndex {
    by_txn: HashMap<TxnId, HashSet<FrameKey>>,
    /// Dirty frames popped by the evictor whose [`FlushSink::flush`] is
    /// still in flight, per transaction. The commit path waits for this to
    /// reach zero both before claiming the dirty set and again after the
    /// per-shard clean pass, so "all associated dirty pages are flushed"
    /// (§3.1) covers eviction flushes racing the commit from either side
    /// of the claim.
    evict_in_flight: HashMap<TxnId, usize>,
    /// First eviction-flush error per transaction. The evictor's caller
    /// (an unrelated inserting thread) already gets the error inline; this
    /// copy is for a racing or subsequent commit of the same transaction,
    /// which must not report success while one of its pages sits
    /// unpersisted and gone from the cache. Cleared by commit (surfaced),
    /// rollback, and [`BufferManager::clear`].
    evict_errors: HashMap<TxnId, IqError>,
}

/// Point-in-time copy of the buffer counters. All fields are totals over
/// one epoch (or the process lifetime, for
/// [`BufferStats::lifetime_snapshot`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStatsSnapshot {
    /// Cache hits.
    pub hits: u64,
    /// Misses where a query waited on the load.
    pub demand_misses: u64,
    /// Pages loaded by the prefetcher.
    pub prefetched: u64,
    /// Frames evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty frames flushed due to eviction.
    pub dirty_evictions: u64,
    /// Dirty frames flushed at commit.
    pub commit_flushes: u64,
    /// Probationary→protected SLRU promotions.
    pub promotions: u64,
    /// Protected→probationary SLRU demotions (protected overflow).
    pub demotions: u64,
    /// Peak commit-flush groups in flight at once during the epoch
    /// (submission depth, as [`iq_common::IoStats`] defines it).
    pub flush_in_flight_peak: u64,
    /// Wall-clock nanoseconds inside commit-flush fan-outs (diagnostic).
    pub flush_wall_nanos: u64,
    /// Wall-clock nanoseconds threads spent blocked on shard locks
    /// (diagnostic; the contention signal `repro --cache` reports).
    pub lock_wait_nanos: u64,
}

impl BufferStatsSnapshot {
    /// Fraction of loads that were demand misses (serial latency).
    pub fn demand_fraction(&self) -> f64 {
        let d = self.demand_misses as f64;
        let p = self.prefetched as f64;
        if d + p == 0.0 {
            0.0
        } else {
            d / (d + p)
        }
    }

    fn saturating_sub(&self, base: &BufferStatsSnapshot) -> BufferStatsSnapshot {
        BufferStatsSnapshot {
            hits: self.hits.saturating_sub(base.hits),
            demand_misses: self.demand_misses.saturating_sub(base.demand_misses),
            prefetched: self.prefetched.saturating_sub(base.prefetched),
            evictions: self.evictions.saturating_sub(base.evictions),
            dirty_evictions: self.dirty_evictions.saturating_sub(base.dirty_evictions),
            commit_flushes: self.commit_flushes.saturating_sub(base.commit_flushes),
            promotions: self.promotions.saturating_sub(base.promotions),
            demotions: self.demotions.saturating_sub(base.demotions),
            // Max-counter: reset to 0 at `begin_epoch`, never subtracted.
            flush_in_flight_peak: self.flush_in_flight_peak,
            flush_wall_nanos: self.flush_wall_nanos.saturating_sub(base.flush_wall_nanos),
            lock_wait_nanos: self.lock_wait_nanos.saturating_sub(base.lock_wait_nanos),
        }
    }
}

/// Counters exposed for tests and the benchmark harness.
///
/// Counters are monotone for the process lifetime; phase boundaries are
/// expressed with [`BufferStats::begin_epoch`], which records the current
/// totals as a baseline that [`BufferStats::snapshot`] subtracts — the
/// epoch-style API `DeviceStats` uses. The previous `reset()` stored zeros
/// into counters that shards were concurrently incrementing with `Relaxed`
/// ordering, so a snapshot taken near a phase boundary could mix pre- and
/// post-reset values (torn snapshot); baselines never race the increments.
#[derive(Debug, Default)]
pub struct BufferStats {
    /// Cache hits.
    pub hits: AtomicU64,
    /// Misses where a query waited on the load.
    pub demand_misses: AtomicU64,
    /// Pages loaded by the prefetcher.
    pub prefetched: AtomicU64,
    /// Frames evicted (clean or dirty).
    pub evictions: AtomicU64,
    /// Dirty frames flushed due to eviction.
    pub dirty_evictions: AtomicU64,
    /// Dirty frames flushed at commit.
    pub commit_flushes: AtomicU64,
    /// Probationary→protected SLRU promotions.
    pub promotions: AtomicU64,
    /// Protected→probationary SLRU demotions.
    pub demotions: AtomicU64,
    /// Peak number of commit-flush groups in flight at once — submission
    /// depth: the most groups one commit submitted (max-counter; reset at
    /// each [`BufferStats::begin_epoch`]).
    pub flush_in_flight_peak: AtomicU64,
    /// Wall-clock nanoseconds spent inside commit-flush fan-outs.
    /// Diagnostic only — reported results use virtual time.
    pub flush_wall_nanos: AtomicU64,
    /// Wall-clock nanoseconds spent blocked acquiring shard locks.
    /// Diagnostic only.
    pub lock_wait_nanos: AtomicU64,
    /// Totals at the start of the current epoch.
    baseline: Mutex<BufferStatsSnapshot>,
    /// Epochs begun so far.
    epochs: AtomicU64,
}

impl BufferStats {
    fn load_totals(&self) -> BufferStatsSnapshot {
        BufferStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            demand_misses: self.demand_misses.load(Ordering::Relaxed),
            prefetched: self.prefetched.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_evictions: self.dirty_evictions.load(Ordering::Relaxed),
            commit_flushes: self.commit_flushes.load(Ordering::Relaxed),
            promotions: self.promotions.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            flush_in_flight_peak: self.flush_in_flight_peak.load(Ordering::Relaxed),
            flush_wall_nanos: self.flush_wall_nanos.load(Ordering::Relaxed),
            lock_wait_nanos: self.lock_wait_nanos.load(Ordering::Relaxed),
        }
    }

    /// Start a new epoch: current totals become the baseline that
    /// [`BufferStats::snapshot`] subtracts. The in-flight-peak max-counter
    /// restarts from zero.
    pub fn begin_epoch(&self) {
        let mut base = self.baseline.lock();
        self.flush_in_flight_peak.store(0, Ordering::Relaxed);
        let mut totals = self.load_totals();
        totals.flush_in_flight_peak = 0;
        *base = totals;
        self.epochs.fetch_add(1, Ordering::Relaxed);
    }

    /// Epochs begun so far (0 until the first [`BufferStats::begin_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Counters accumulated in the current epoch.
    pub fn snapshot(&self) -> BufferStatsSnapshot {
        let base = *self.baseline.lock();
        self.load_totals().saturating_sub(&base)
    }

    /// Counters accumulated over the whole process lifetime (epoch
    /// boundaries ignored; the in-flight peak is the current epoch's).
    pub fn lifetime_snapshot(&self) -> BufferStatsSnapshot {
        self.load_totals()
    }

    /// Fraction of loads in the current epoch that were demand misses
    /// (serial latency).
    pub fn demand_fraction(&self) -> f64 {
        self.snapshot().demand_fraction()
    }
}

/// Construction knobs for [`BufferManager::with_options`].
#[derive(Debug, Clone, Copy)]
pub struct BufferOptions {
    /// Requested shard count; rounded to a power of two in `[1, 64]`.
    /// 1 reproduces the historical single-lock manager exactly.
    pub shards: usize,
    /// Fraction of each shard's byte budget reserved for the protected
    /// SLRU segment (clamped to `[0, 1]`; 0 disables scan resistance and
    /// yields plain LRU).
    pub protected_fraction: f64,
}

impl Default for BufferOptions {
    fn default() -> Self {
        Self {
            shards: 1,
            protected_fraction: 0.8,
        }
    }
}

/// The buffer manager.
pub struct BufferManager {
    capacity_bytes: usize,
    shards: Vec<Shard<FrameKey, Frame>>,
    shard_mask: usize,
    /// Per-shard protected-segment weight budget (kept to rebuild shards
    /// in [`BufferManager::clear`]).
    protected_capacity: usize,
    /// Bytes currently cached, across all shards.
    used_bytes: AtomicUsize,
    dirty: Mutex<DirtyIndex>,
    /// Signalled when an eviction flush completes (`evict_in_flight`
    /// decrements); commit waits on this.
    evict_done: Condvar,
    /// Live counters.
    pub stats: BufferStats,
}

impl BufferManager {
    /// A manager with the given RAM budget (SAP IQ reserves half the
    /// instance RAM for it, §6) — single shard, default SLRU split.
    /// Production wiring passes [`BufferOptions`] via
    /// [`BufferManager::with_options`].
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_options(capacity_bytes, BufferOptions::default())
    }

    /// A manager with explicit shard and SLRU configuration.
    pub fn with_options(capacity_bytes: usize, options: BufferOptions) -> Self {
        let n = shard_count(options.shards);
        let fraction = options.protected_fraction.clamp(0.0, 1.0);
        let protected_capacity = ((capacity_bytes as f64 * fraction) / n as f64) as usize;
        Self {
            capacity_bytes,
            shards: (0..n).map(|_| Shard::new(protected_capacity)).collect(),
            shard_mask: n - 1,
            protected_capacity,
            used_bytes: AtomicUsize::new(0),
            dirty: Mutex::new(DirtyIndex::default()),
            evict_done: Condvar::new(),
            stats: BufferStats::default(),
        }
    }

    /// RAM budget in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of shards the frame table is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key maps to (stable across runs; used by the cache
    /// ablation to compute per-shard load).
    pub fn shard_of(&self, key: &FrameKey) -> usize {
        shard_index(key, self.shard_mask)
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes.load(Ordering::Relaxed)
    }

    /// Number of cached frames.
    pub fn frame_count(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().cache.len()).sum()
    }

    fn frame_cost(page: &Page) -> usize {
        page.body.len() + 128 // header + bookkeeping overhead estimate
    }

    /// Acquire a shard lock, charging any blocking wait to
    /// `lock_wait_nanos`. The uncontended path is a single `try_lock`.
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, ShardInner<FrameKey, Frame>> {
        if let Some(guard) = self.shards[idx].inner.try_lock() {
            return guard;
        }
        let started = std::time::Instant::now();
        let guard = self.shards[idx].inner.lock();
        self.stats
            .lock_wait_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        guard
    }

    /// Drain the shard's SLRU promotion/demotion counters into the global
    /// stats. Called while the shard lock is held.
    fn absorb_tier_moves(&self, inner: &mut ShardInner<FrameKey, Frame>) {
        let (promotions, demotions) = inner.cache.take_tier_moves();
        if promotions > 0 {
            self.stats
                .promotions
                .fetch_add(promotions, Ordering::Relaxed);
        }
        if demotions > 0 {
            self.stats.demotions.fetch_add(demotions, Ordering::Relaxed);
        }
    }

    /// Look up a page; `None` on miss (no load attempted).
    pub fn get(&self, key: FrameKey) -> Option<Page> {
        let idx = self.shard_of(&key);
        let mut inner = self.lock_shard(idx);
        let hit = inner.cache.get(&key).map(|f| f.page.clone());
        self.absorb_tier_moves(&mut inner);
        drop(inner);
        if hit.is_some() {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::BufferHit {
                table: key.table.0 as u64,
                page: key.page.0,
            });
        }
        hit
    }

    /// Look up or load via `loader`. `demand=true` means a query is
    /// blocked on this read; `false` means the prefetcher issued it —
    /// prefetched frames are admitted to the probationary SLRU segment so
    /// a scan's pages cannot displace the protected working set.
    pub fn get_or_load(
        &self,
        key: FrameKey,
        demand: bool,
        sink: &dyn FlushSink,
        loader: impl FnOnce() -> IqResult<Page>,
    ) -> IqResult<Page> {
        let idx = self.shard_of(&key);
        // Single-flight: concurrent readers of the same frame (two
        // sessions scanning one table) must not run `loader` twice. A
        // duplicate load would double-charge the I/O meters and make
        // the demand/prefetch split depend on thread timing.
        {
            let mut inner = self.lock_shard(idx);
            let mut waited = false;
            loop {
                let hit = inner.cache.get(&key).map(|f| f.page.clone());
                if let Some(page) = hit {
                    self.absorb_tier_moves(&mut inner);
                    drop(inner);
                    self.stats.hits.fetch_add(1, Ordering::Relaxed);
                    trace::emit(EventKind::BufferHit {
                        table: key.table.0 as u64,
                        page: key.page.0,
                    });
                    return Ok(page);
                }
                if inner.loading.insert(key) {
                    break;
                }
                if !waited {
                    waited = true;
                    trace::emit(EventKind::SingleFlightWait {
                        table: key.table.0 as u64,
                        page: key.page.0,
                    });
                }
                self.shards[idx].load_done.wait(&mut inner);
            }
        }
        let page = match loader() {
            Ok(page) => page,
            Err(e) => {
                self.lock_shard(idx).loading.remove(&key);
                self.shards[idx].load_done.notify_all();
                return Err(e);
            }
        };
        if demand {
            self.stats.demand_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.prefetched.fetch_add(1, Ordering::Relaxed);
        }
        trace::emit(EventKind::BufferLoad {
            table: key.table.0 as u64,
            page: key.page.0,
            demand,
        });
        let admit = if demand {
            Admission::Demand
        } else {
            Admission::Scan
        };
        let inserted = self.insert_clean(key, page.clone(), admit, sink);
        self.lock_shard(idx).loading.remove(&key);
        self.shards[idx].load_done.notify_all();
        inserted?;
        Ok(page)
    }

    fn insert_clean(
        &self,
        key: FrameKey,
        page: Page,
        admit: Admission,
        sink: &dyn FlushSink,
    ) -> IqResult<()> {
        let idx = self.shard_of(&key);
        let cost = Self::frame_cost(&page);
        {
            let mut inner = self.lock_shard(idx);
            if let Some(old) = inner.cache.insert(
                key,
                Frame {
                    page,
                    dirty: None,
                    bytes: cost,
                },
                cost,
                admit,
            ) {
                self.used_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
                debug_assert!(old.dirty.is_none(), "clean insert over a dirty frame");
            }
            self.used_bytes.fetch_add(cost, Ordering::Relaxed);
        }
        self.evict_to_fit(idx, Some(&key), sink)
    }

    /// Insert or overwrite a page dirtied by `txn`. May trigger eviction
    /// (and therefore flushes of *other* dirty pages).
    pub fn put_dirty(
        &self,
        key: FrameKey,
        page: Page,
        txn: TxnId,
        sink: &dyn FlushSink,
    ) -> IqResult<()> {
        let idx = self.shard_of(&key);
        let cost = Self::frame_cost(&page);
        {
            let mut inner = self.lock_shard(idx);
            let old = inner.cache.insert(
                key,
                Frame {
                    page,
                    dirty: Some(txn),
                    bytes: cost,
                },
                cost,
                Admission::Demand,
            );
            // Shard lock is still held: dirty-index updates follow the
            // shard → dirty lock order.
            let mut dirty = self.dirty.lock();
            if let Some(old) = old {
                self.used_bytes.fetch_sub(old.bytes, Ordering::Relaxed);
                if let Some(prev_txn) = old.dirty {
                    if prev_txn != txn {
                        if let Some(set) = dirty.by_txn.get_mut(&prev_txn) {
                            set.remove(&key);
                        }
                    }
                }
            }
            self.used_bytes.fetch_add(cost, Ordering::Relaxed);
            dirty.by_txn.entry(txn).or_default().insert(key);
        }
        self.evict_to_fit(idx, Some(&key), sink)
    }

    /// Evict until the byte budget fits, preferring victims from `home`'s
    /// shard outward. `protect` (the just-inserted key) is skipped while
    /// any other victim exists; if the cache cannot otherwise fit, a
    /// second pass may evict it — an insert larger than the whole budget
    /// must still not pin itself resident forever.
    fn evict_to_fit(
        &self,
        home: usize,
        protect: Option<&FrameKey>,
        sink: &dyn FlushSink,
    ) -> IqResult<()> {
        let mut exclude = protect;
        while self.used_bytes.load(Ordering::Relaxed) > self.capacity_bytes {
            match self.pop_one_victim(home, exclude) {
                Some((idx, key, frame)) => self.finish_eviction(idx, key, frame, sink)?,
                None if exclude.is_some() => exclude = None, // pass 2
                None => break,                               // cache is empty
            }
        }
        Ok(())
    }

    /// Pop one eviction victim, sweeping shards from `home` outward. For a
    /// dirty victim the key is parked in its shard's `loading` set (so a
    /// concurrent `get_or_load` waits out the flush instead of reloading a
    /// pre-flush frame) and its transaction's `evict_in_flight` count is
    /// bumped (so a racing commit waits for the flush). All bookkeeping
    /// happens under the shard lock; the flush itself does not.
    fn pop_one_victim(
        &self,
        home: usize,
        protect: Option<&FrameKey>,
    ) -> Option<(usize, FrameKey, Frame)> {
        let n = self.shards.len();
        for i in 0..n {
            let idx = (home + i) & self.shard_mask;
            let exclude = if idx == home { protect } else { None };
            let mut inner = self.lock_shard(idx);
            let Some((key, frame)) = inner.cache.pop_victim_excluding(exclude) else {
                continue;
            };
            self.used_bytes.fetch_sub(frame.bytes, Ordering::Relaxed);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            trace::emit(EventKind::BufferEvict {
                table: key.table.0 as u64,
                page: key.page.0,
                dirty: frame.dirty.is_some(),
            });
            if let Some(txn) = frame.dirty {
                inner.loading.insert(key);
                let mut dirty = self.dirty.lock(); // shard → dirty order
                if let Some(set) = dirty.by_txn.get_mut(&txn) {
                    set.remove(&key);
                }
                *dirty.evict_in_flight.entry(txn).or_insert(0) += 1;
            }
            return Some((idx, key, frame));
        }
        None
    }

    /// Flush a popped dirty victim with no shard lock held, then release
    /// its single-flight claim and in-flight count. Clean victims need no
    /// work. On a sink error the frame is gone (budget already released)
    /// and the error propagates, as in the historical serial path.
    fn finish_eviction(
        &self,
        idx: usize,
        key: FrameKey,
        frame: Frame,
        sink: &dyn FlushSink,
    ) -> IqResult<()> {
        let Some(txn) = frame.dirty else {
            return Ok(());
        };
        // "A dirty page can be flushed from the cache earlier as well
        // (upon eviction), when the buffer manager needs to make room for
        // a more recent page" (§3.1).
        let result = sink.flush(key, &frame.page, txn, FlushCause::Eviction);
        if result.is_ok() {
            self.stats.dirty_evictions.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut dirty = self.dirty.lock();
            if let Err(e) = &result {
                // The error propagates to the evicting thread below, but a
                // commit of `txn` must also learn the page was never
                // persisted — stash a copy for `flush_txn_packed`.
                dirty.evict_errors.entry(txn).or_insert_with(|| e.clone());
            }
            if let Some(count) = dirty.evict_in_flight.get_mut(&txn) {
                *count -= 1;
                if *count == 0 {
                    dirty.evict_in_flight.remove(&txn);
                }
            }
        }
        self.evict_done.notify_all();
        self.lock_shard(idx).loading.remove(&key);
        self.shards[idx].load_done.notify_all();
        result
    }

    /// Block until no eviction flush of `txn`'s pages is in flight, then
    /// surface any eviction-flush error recorded for the transaction (an
    /// evicted-but-unpersisted page means commit must not succeed).
    fn wait_out_eviction_flushes(&self, txn: TxnId) -> IqResult<()> {
        let mut dirty = self.dirty.lock();
        while dirty.evict_in_flight.get(&txn).copied().unwrap_or(0) > 0 {
            self.evict_done.wait(&mut dirty);
        }
        match dirty.evict_errors.remove(&txn) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flush every dirty page of `txn` (commit path). Pages stay cached,
    /// now clean. "Before a transaction commits, all associated dirty
    /// pages are flushed to permanent storage" (§3.1).
    ///
    /// The claimed dirty set is chunked into key-sorted groups of up to
    /// `pack_pages` frames, and each group goes to the sink as one
    /// [`FlushSink::flush_group`] call — the packing sink turns a group
    /// into a single composite-object PUT. The groups are submitted to
    /// `io` — the database's submission/completion core — which fans them
    /// across its execution lanes and accounts the batch's in-flight
    /// depth. `pack_pages <= 1` is the per-page flush (groups of one; the
    /// default `flush_group` forwards to `flush`) and `IoCore::new(1)`
    /// the serial flush order.
    ///
    /// Locks are held only to claim the dirty set — frames are marked
    /// clean and their pages snapshotted under short per-shard locks, then
    /// the object-store uploads proceed with no lock held.
    ///
    /// Correctness under the never-write-twice policy: each page is flushed
    /// exactly once (claiming the dirty set is atomic; in-flight eviction
    /// flushes of the same transaction are waited out both before the claim
    /// and again after the clean pass, which closes the window where an
    /// eviction pops a claimed frame between the two phases), in a
    /// deterministic key-sorted task order, and the set of object keys
    /// written is the same as a serial flush. On a mid-flush sink error the
    /// lowest-keyed error is returned — as in a serial run — and every page
    /// whose flush did not complete is re-marked dirty and re-tracked under
    /// `txn`, so the caller's rollback can discard it; no flush is silently
    /// dropped.
    ///
    /// Failure granularity is the group: a failed group re-dirties every
    /// member (the packing sink maps no member of a failed composite), so
    /// `flushed + re-dirtied == claimed` always holds and rollback can
    /// discard exactly the unpersisted frames.
    pub fn flush_txn_packed(
        &self,
        txn: TxnId,
        sink: &dyn FlushSink,
        io: &IoCore,
        pack_pages: usize,
    ) -> IqResult<()> {
        // Phase 1a: claim the dirty key set, first waiting out eviction
        // flushes of this transaction still in flight (their pages must be
        // persisted before commit declares them so). A prior eviction
        // flush that *failed* fails the commit here, before anything is
        // claimed.
        self.wait_out_eviction_flushes(txn)?;
        let keys: Vec<FrameKey> = {
            let mut dirty = self.dirty.lock();
            let mut keys: Vec<FrameKey> = dirty
                .by_txn
                .remove(&txn)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default();
            keys.sort(); // deterministic flush order
            keys
        };

        // Phase 1b (short per-shard locks): mark frames clean and snapshot
        // their pages. `peek_mut` — commit bookkeeping is not an access
        // and must not reorder the replacement lists.
        let batch: Vec<(FrameKey, Page)> = keys
            .into_iter()
            .filter_map(|key| {
                let mut inner = self.lock_shard(self.shard_of(&key));
                let frame = inner.cache.peek_mut(&key)?;
                if frame.dirty != Some(txn) {
                    return None;
                }
                frame.dirty = None;
                Some((key, frame.page.clone()))
            })
            .collect();

        // Phase 2 (no lock): chunk the key-sorted batch into groups of up
        // to `pack_pages` and submit the whole group batch to the I/O
        // core. The group — not the page — is the unit of
        // success/failure.
        let started = std::time::Instant::now();
        let groups: Vec<&[(FrameKey, Page)]> = batch.chunks(pack_pages.max(1)).collect();
        let done: Vec<AtomicU64> = (0..groups.len()).map(|_| AtomicU64::new(0)).collect();
        let result = io.run_ordered(groups.len(), |i| -> IqResult<()> {
            let group = groups[i];
            sink.flush_group(group, txn, FlushCause::Commit)?;
            done[i].store(1, Ordering::Release);
            self.stats
                .commit_flushes
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            Ok(())
        });
        self.stats
            .flush_in_flight_peak
            .fetch_max(groups.len() as u64, Ordering::Relaxed);
        self.stats
            .flush_wall_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);

        if let Err(e) = result {
            // Phase 3 (error path, short locks): every member of every
            // group not confirmed flushed goes back to being dirty under
            // `txn`, so the caller's rollback discards it instead of
            // leaking a clean-but-unpersisted frame.
            for (i, group) in groups.iter().enumerate() {
                if done[i].load(Ordering::Acquire) != 0 {
                    continue;
                }
                for (key, _) in group.iter() {
                    let mut inner = self.lock_shard(self.shard_of(key));
                    if let Some(frame) = inner.cache.peek_mut(key) {
                        if frame.dirty.is_none() {
                            frame.dirty = Some(txn);
                            self.dirty
                                .lock()
                                .by_txn
                                .entry(txn)
                                .or_default()
                                .insert(*key);
                        }
                    }
                }
            }
            return Err(e);
        }

        // Phase 4: close the claim/evict race. Phase 1a's wait released
        // the dirty lock before phase 1b visited the shards, so an evictor
        // could pop a still-dirty frame of this transaction in that window
        // — phase 1b then finds the frame gone and skips it. Any such
        // eviction incremented `evict_in_flight` under the frame's shard
        // lock before the frame disappeared, which happens-before phase
        // 1b's acquisition of that same shard lock, so by now the count is
        // visible here: wait it out (and surface its error) so commit
        // never returns while an eviction is still persisting — or has
        // failed to persist — one of its pages.
        self.wait_out_eviction_flushes(txn)?;

        if !batch.is_empty() {
            trace::emit(EventKind::BufferFlush {
                txn: txn.0,
                pages: batch.len() as u64,
                cause: "commit".into(),
            });
        }
        Ok(())
    }

    /// Discard (without flushing) every dirty page of a rolled-back
    /// transaction; its writes must never reach storage from here.
    pub fn discard_txn(&self, txn: TxnId) {
        // Claim the dirty set under the index lock, sort outside any shard
        // lock, then drop the frames shard by shard. Readers of other
        // transactions are never blocked behind the full sweep.
        let mut keys: Vec<FrameKey> = {
            let mut dirty = self.dirty.lock();
            // Rollback also clears any stashed eviction-flush error: the
            // transaction is being abandoned, so the poison must not leak
            // into an unrelated later reuse of the id.
            dirty.evict_errors.remove(&txn);
            dirty
                .by_txn
                .remove(&txn)
                .map(|s| s.into_iter().collect())
                .unwrap_or_default()
        };
        keys.sort(); // deterministic removal order
        for key in keys {
            let mut inner = self.lock_shard(self.shard_of(&key));
            if inner.cache.peek(&key).map(|f| f.dirty) == Some(Some(txn)) {
                if let Some(f) = inner.cache.remove(&key) {
                    self.used_bytes.fetch_sub(f.bytes, Ordering::Relaxed);
                }
            }
        }
    }

    /// Drop a frame (e.g. after its table version is garbage collected).
    pub fn invalidate(&self, key: FrameKey) {
        let mut inner = self.lock_shard(self.shard_of(&key));
        if let Some(f) = inner.cache.remove(&key) {
            self.used_bytes.fetch_sub(f.bytes, Ordering::Relaxed);
            if let Some(txn) = f.dirty {
                if let Some(set) = self.dirty.lock().by_txn.get_mut(&txn) {
                    set.remove(&key);
                }
            }
        }
    }

    /// Number of dirty pages currently held for `txn`.
    pub fn dirty_count(&self, txn: TxnId) -> usize {
        self.dirty.lock().by_txn.get(&txn).map_or(0, |s| s.len())
    }

    /// Whether a frame is cached, without touching recency or stats.
    pub fn contains(&self, key: FrameKey) -> bool {
        self.lock_shard(self.shard_of(&key))
            .cache
            .peek(&key)
            .is_some()
    }

    /// Drop every frame and dirty list without flushing (crash simulation
    /// and point-in-time restore — RAM contents do not survive either).
    ///
    /// Callers are expected to have quiesced loads and commits of the old
    /// incarnation, but byte accounting stays consistent even against
    /// stragglers: every `used_bytes` mutation happens under the owning
    /// shard's lock, and each shard's exact resident weight is subtracted
    /// while that lock is held — a concurrent insert into an
    /// already-swept shard keeps its bytes accounted instead of being
    /// wiped by a trailing `store(0)`.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            let freed: usize = inner.cache.iter().map(|(_, f)| f.bytes).sum();
            inner.cache = crate::slru::SlruCache::new(self.protected_capacity);
            inner.loading.clear();
            if freed > 0 {
                self.used_bytes.fetch_sub(freed, Ordering::Relaxed);
            }
        }
        let mut dirty = self.dirty.lock();
        dirty.by_txn.clear();
        dirty.evict_in_flight.clear();
        dirty.evict_errors.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use iq_common::VersionId;
    use iq_storage::PageKind;
    use parking_lot::Mutex as PMutex;

    fn key(t: u32, p: u64) -> FrameKey {
        FrameKey {
            table: TableId(t),
            page: PageId(p),
            epoch: 0,
        }
    }

    fn page(p: u64, len: usize) -> Page {
        Page::new(
            PageId(p),
            VersionId(1),
            PageKind::Data,
            Bytes::from(vec![p as u8; len]),
        )
    }

    /// Sink that records flushes.
    #[derive(Default)]
    struct RecordingSink {
        flushed: PMutex<Vec<(FrameKey, TxnId, FlushCause)>>,
    }

    impl FlushSink for RecordingSink {
        fn flush(
            &self,
            key: FrameKey,
            _page: &Page,
            txn: TxnId,
            cause: FlushCause,
        ) -> IqResult<()> {
            self.flushed.lock().push((key, txn, cause));
            Ok(())
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        let p = bm
            .get_or_load(key(1, 1), true, &sink, || Ok(page(1, 100)))
            .unwrap();
        assert_eq!(p.body[0], 1);
        assert_eq!(bm.stats.demand_misses.load(Ordering::Relaxed), 1);
        // Second access hits.
        let _ = bm
            .get_or_load(key(1, 1), true, &sink, || {
                panic!("loader must not run on hit")
            })
            .unwrap();
        assert_eq!(bm.stats.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn prefetch_counts_separately() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        for p in 0..4 {
            bm.get_or_load(key(1, p), false, &sink, || Ok(page(p, 64)))
                .unwrap();
        }
        bm.get_or_load(key(1, 9), true, &sink, || Ok(page(9, 64)))
            .unwrap();
        assert_eq!(bm.stats.prefetched.load(Ordering::Relaxed), 4);
        assert_eq!(bm.stats.demand_misses.load(Ordering::Relaxed), 1);
        assert!((bm.stats.demand_fraction() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn eviction_flushes_dirty_lru_first() {
        // Capacity fits ~3 frames of 1000+128 bytes.
        let bm = BufferManager::new(3500);
        let sink = RecordingSink::default();
        let txn = TxnId(7);
        bm.put_dirty(key(1, 1), page(1, 1000), txn, &sink).unwrap();
        bm.put_dirty(key(1, 2), page(2, 1000), txn, &sink).unwrap();
        bm.put_dirty(key(1, 3), page(3, 1000), txn, &sink).unwrap();
        assert_eq!(bm.dirty_count(txn), 3);
        // Fourth page exceeds the budget; page 1 (LRU) is flushed out.
        bm.put_dirty(key(1, 4), page(4, 1000), txn, &sink).unwrap();
        let flushed = sink.flushed.lock();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0], (key(1, 1), txn, FlushCause::Eviction));
        drop(flushed);
        assert_eq!(bm.dirty_count(txn), 3);
        assert!(bm.get(key(1, 1)).is_none());
    }

    #[test]
    fn commit_flushes_all_dirty_then_clean() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        let txn = TxnId(1);
        for p in 0..5 {
            bm.put_dirty(key(1, p), page(p, 100), txn, &sink).unwrap();
        }
        bm.flush_txn_packed(txn, &sink, &IoCore::new(1), 1).unwrap();
        let flushed = sink.flushed.lock();
        assert_eq!(flushed.len(), 5);
        assert!(flushed
            .iter()
            .all(|&(_, t, c)| t == txn && c == FlushCause::Commit));
        drop(flushed);
        assert_eq!(bm.dirty_count(txn), 0);
        // Pages remain cached.
        assert!(bm.get(key(1, 0)).is_some());
        // Re-flushing does nothing.
        bm.flush_txn_packed(txn, &sink, &IoCore::new(1), 1).unwrap();
        assert_eq!(sink.flushed.lock().len(), 5);
    }

    /// Sink recording whole groups, optionally failing a specific group.
    #[derive(Default)]
    struct GroupSink {
        groups: PMutex<Vec<Vec<FrameKey>>>,
        fail_group_containing: Option<FrameKey>,
    }

    impl FlushSink for GroupSink {
        fn flush(&self, key: FrameKey, page: &Page, txn: TxnId, cause: FlushCause) -> IqResult<()> {
            self.flush_group(&[(key, page.clone())], txn, cause)
        }

        fn flush_group(
            &self,
            items: &[(FrameKey, Page)],
            _txn: TxnId,
            _cause: FlushCause,
        ) -> IqResult<()> {
            if let Some(poison) = self.fail_group_containing {
                if items.iter().any(|(k, _)| *k == poison) {
                    return Err(IqError::Io("poisoned group".into()));
                }
            }
            self.groups
                .lock()
                .push(items.iter().map(|(k, _)| *k).collect());
            Ok(())
        }
    }

    #[test]
    fn packed_commit_chunks_into_sorted_groups() {
        let bm = BufferManager::new(1 << 20);
        let sink = GroupSink::default();
        let txn = TxnId(3);
        for p in 0..10 {
            bm.put_dirty(key(1, p), page(p, 100), txn, &sink).unwrap();
        }
        bm.flush_txn_packed(txn, &sink, &IoCore::new(2), 4).unwrap();
        let mut groups = sink.groups.lock().clone();
        groups.sort();
        assert_eq!(
            groups.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 4, 2],
            "10 pages at pack_pages=4 → groups of 4,4,2"
        );
        // Key-sorted within and across groups: a flat concat is sorted.
        let flat: Vec<FrameKey> = groups.concat();
        assert!(flat.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bm.dirty_count(txn), 0);
        assert_eq!(bm.stats.commit_flushes.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn failed_group_re_dirties_every_member() {
        let bm = BufferManager::new(1 << 20);
        let txn = TxnId(4);
        let ok_sink = GroupSink::default();
        for p in 0..8 {
            bm.put_dirty(key(1, p), page(p, 100), txn, &ok_sink)
                .unwrap();
        }
        // Poison the group holding page 5 (second group of four).
        let sink = GroupSink {
            groups: PMutex::new(Vec::new()),
            fail_group_containing: Some(key(1, 5)),
        };
        bm.flush_txn_packed(txn, &sink, &IoCore::new(1), 4)
            .unwrap_err();
        let flushed: usize = sink.groups.lock().iter().map(Vec::len).sum();
        // Invariant: flushed + re-dirtied == claimed, at group granularity.
        assert_eq!(flushed, 4);
        assert_eq!(bm.dirty_count(txn), 4);
        // The healed sink flushes exactly the re-dirtied group.
        let healed = GroupSink::default();
        bm.flush_txn_packed(txn, &healed, &IoCore::new(1), 4)
            .unwrap();
        assert_eq!(healed.groups.lock().iter().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(bm.dirty_count(txn), 0);
    }

    #[test]
    fn rollback_discards_without_flushing() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        let txn = TxnId(2);
        bm.put_dirty(key(1, 1), page(1, 100), txn, &sink).unwrap();
        bm.discard_txn(txn);
        assert!(sink.flushed.lock().is_empty());
        assert!(bm.get(key(1, 1)).is_none());
        assert_eq!(bm.used_bytes(), 0);
    }

    #[test]
    fn two_txns_tracked_independently() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        bm.put_dirty(key(1, 1), page(1, 100), TxnId(1), &sink)
            .unwrap();
        bm.put_dirty(key(1, 2), page(2, 100), TxnId(2), &sink)
            .unwrap();
        bm.flush_txn_packed(TxnId(1), &sink, &IoCore::new(1), 1)
            .unwrap();
        assert_eq!(sink.flushed.lock().len(), 1);
        assert_eq!(bm.dirty_count(TxnId(2)), 1);
        // Redirtying a page under a new txn moves ownership.
        bm.put_dirty(key(1, 2), page(2, 100), TxnId(3), &sink)
            .unwrap();
        assert_eq!(bm.dirty_count(TxnId(2)), 0);
        assert_eq!(bm.dirty_count(TxnId(3)), 1);
    }

    /// Sink that records flushes and rendezvouses pairs of concurrent
    /// callers, proving the fan-out genuinely overlaps.
    struct PairingSink {
        flushed: PMutex<Vec<(FrameKey, TxnId, FlushCause)>>,
        gate: std::sync::Barrier,
    }

    impl FlushSink for PairingSink {
        fn flush(
            &self,
            key: FrameKey,
            _page: &Page,
            txn: TxnId,
            cause: FlushCause,
        ) -> IqResult<()> {
            self.gate.wait();
            self.flushed.lock().push((key, txn, cause));
            Ok(())
        }
    }

    #[test]
    fn parallel_flush_matches_serial_under_concurrent_readers() {
        let n_pages = 8u64;
        let txn = TxnId(1);

        // Reference: serial flush.
        let serial_bm = BufferManager::new(1 << 20);
        let serial_sink = RecordingSink::default();
        for p in 0..n_pages {
            serial_bm
                .put_dirty(key(1, p), page(p, 100), txn, &serial_sink)
                .unwrap();
        }
        serial_bm
            .flush_txn_packed(txn, &serial_sink, &IoCore::new(1), 1)
            .unwrap();
        let serial_flushed = serial_sink.flushed.into_inner();

        // Parallel flush with readers hammering the cache throughout.
        let bm = BufferManager::new(1 << 20);
        let sink = PairingSink {
            flushed: PMutex::new(Vec::new()),
            gate: std::sync::Barrier::new(2),
        };
        for p in 0..n_pages {
            bm.put_dirty(key(1, p), page(p, 100), txn, &sink).unwrap();
        }
        std::thread::scope(|scope| {
            let bm = &bm;
            for _ in 0..3 {
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let p = round % n_pages;
                        if let Some(got) = bm.get(key(1, p)) {
                            // A frame visible mid-flush always carries the
                            // committed content.
                            assert_eq!(got.body[0], p as u8);
                        }
                    }
                });
            }
            scope.spawn(|| bm.flush_txn_packed(txn, &sink, &IoCore::new(4), 1).unwrap());
        });

        // Same flushes as serial: same key set, all Commit, each exactly
        // once (never-write-twice holds under the fan-out).
        let mut parallel_flushed = sink.flushed.into_inner();
        parallel_flushed.sort();
        let mut expected = serial_flushed.clone();
        expected.sort();
        assert_eq!(parallel_flushed, expected);
        assert_eq!(bm.dirty_count(txn), 0);
        for p in 0..n_pages {
            assert!(bm.get(key(1, p)).is_some(), "pages stay cached, clean");
        }
        // The pairing barrier guarantees at least two uploads overlapped.
        assert!(bm.stats.flush_in_flight_peak.load(Ordering::Relaxed) >= 2);
        assert!(bm.stats.flush_wall_nanos.load(Ordering::Relaxed) > 0);
    }

    /// Sink that fails every third flush.
    #[derive(Default)]
    struct FlakySink {
        flushed: PMutex<Vec<FrameKey>>,
        calls: AtomicU64,
    }

    impl FlushSink for FlakySink {
        fn flush(
            &self,
            key: FrameKey,
            _page: &Page,
            _txn: TxnId,
            _cause: FlushCause,
        ) -> IqResult<()> {
            if self.calls.fetch_add(1, Ordering::Relaxed) % 3 == 2 {
                return Err(iq_common::IqError::Io("sink failed".into()));
            }
            self.flushed.lock().push(key);
            Ok(())
        }
    }

    #[test]
    fn mid_flush_error_never_drops_a_flush() {
        let n_pages = 32u64;
        let txn = TxnId(9);
        for workers in [1usize, 4] {
            let bm = BufferManager::new(1 << 20);
            let sink = FlakySink::default();
            for p in 0..n_pages {
                bm.put_dirty(key(1, p), page(p, 64), txn, &sink).unwrap();
            }
            let err = bm
                .flush_txn_packed(txn, &sink, &IoCore::new(workers), 1)
                .unwrap_err();
            assert!(matches!(err, iq_common::IqError::Io(_)));
            // Accounting closes: every page either reached the sink or is
            // still tracked dirty under the transaction — none leaked into
            // a clean-but-unpersisted state.
            let flushed = sink.flushed.into_inner();
            assert_eq!(
                flushed.len() + bm.dirty_count(txn),
                n_pages as usize,
                "workers={workers}"
            );
            // Rollback can now discard exactly the unflushed remainder.
            bm.discard_txn(txn);
            assert_eq!(bm.dirty_count(txn), 0);
            for p in 0..n_pages {
                let k = key(1, p);
                assert_eq!(
                    bm.contains(k),
                    flushed.contains(&k),
                    "page {p}: flushed pages stay cached clean, failed ones are discarded"
                );
            }
        }
    }

    #[test]
    fn invalidate_releases_budget() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        bm.get_or_load(key(1, 1), true, &sink, || Ok(page(1, 100)))
            .unwrap();
        let used = bm.used_bytes();
        assert!(used > 0);
        bm.invalidate(key(1, 1));
        assert_eq!(bm.used_bytes(), 0);
        assert_eq!(bm.frame_count(), 0);
    }

    #[test]
    fn sharded_manager_spreads_frames_and_accounts_globally() {
        let bm = BufferManager::with_options(
            1 << 20,
            BufferOptions {
                shards: 8,
                protected_fraction: 0.8,
            },
        );
        assert_eq!(bm.shard_count(), 8);
        let sink = RecordingSink::default();
        for p in 0..64 {
            bm.get_or_load(key(1, p), true, &sink, || Ok(page(p, 64)))
                .unwrap();
        }
        assert_eq!(bm.frame_count(), 64);
        assert_eq!(bm.used_bytes(), 64 * (64 + 128));
        // Keys land on more than one shard.
        let distinct: HashSet<usize> = (0..64).map(|p| bm.shard_of(&key(1, p))).collect();
        assert!(distinct.len() > 1, "uniform keys hit a single shard");
        // Every frame is retrievable and shard placement is stable.
        for p in 0..64 {
            assert!(bm.get(key(1, p)).is_some());
            assert_eq!(bm.shard_of(&key(1, p)), bm.shard_of(&key(1, p)));
        }
        bm.clear();
        assert_eq!(bm.frame_count(), 0);
        assert_eq!(bm.used_bytes(), 0);
    }

    #[test]
    fn sharded_eviction_respects_global_budget() {
        // 8 shards but a budget of ~3 frames: eviction must work across
        // shard boundaries, not per shard.
        let bm = BufferManager::with_options(
            3500,
            BufferOptions {
                shards: 8,
                protected_fraction: 0.8,
            },
        );
        let sink = RecordingSink::default();
        let txn = TxnId(7);
        for p in 1..=4 {
            bm.put_dirty(key(1, p), page(p, 1000), txn, &sink).unwrap();
        }
        assert!(bm.used_bytes() <= 3500);
        assert_eq!(sink.flushed.lock().len(), 1);
        assert_eq!(bm.frame_count(), 3);
    }

    #[test]
    fn scan_loads_cannot_displace_protected_working_set() {
        // Budget for 8 frames of 64+128 bytes.
        let bm = BufferManager::new(8 * 192);
        let sink = RecordingSink::default();
        // Hot set: 4 pages, demand-loaded and re-referenced (promoted).
        for p in 0..4 {
            bm.get_or_load(key(1, p), true, &sink, || Ok(page(p, 64)))
                .unwrap();
            assert!(bm.get(key(1, p)).is_some());
        }
        // Cold scan: 32 prefetched pages, never re-referenced.
        for p in 100..132 {
            bm.get_or_load(key(1, p), false, &sink, || Ok(page(p, 64)))
                .unwrap();
        }
        // The hot set survived the scan.
        for p in 0..4 {
            assert!(
                bm.contains(key(1, p)),
                "scan displaced protected hot page {p}"
            );
        }
    }

    #[test]
    fn epoch_snapshot_isolates_phases() {
        let bm = BufferManager::new(1 << 20);
        let sink = RecordingSink::default();
        bm.get_or_load(key(1, 1), true, &sink, || Ok(page(1, 64)))
            .unwrap();
        bm.get(key(1, 1));
        assert_eq!(bm.stats.epoch(), 0);
        let before = bm.stats.snapshot();
        assert_eq!(before.hits, 1);
        assert_eq!(before.demand_misses, 1);

        bm.stats.begin_epoch();
        assert_eq!(bm.stats.epoch(), 1);
        let fresh = bm.stats.snapshot();
        assert_eq!(fresh.hits, 0);
        assert_eq!(fresh.demand_misses, 0);
        assert_eq!(bm.stats.demand_fraction(), 0.0);

        // New-epoch traffic counts from zero; lifetime view merges epochs.
        bm.get_or_load(key(1, 2), false, &sink, || Ok(page(2, 64)))
            .unwrap();
        let cur = bm.stats.snapshot();
        assert_eq!(cur.prefetched, 1);
        assert_eq!(cur.demand_misses, 0);
        assert_eq!(bm.stats.demand_fraction(), 0.0);
        let life = bm.stats.lifetime_snapshot();
        assert_eq!(life.demand_misses, 1);
        assert_eq!(life.prefetched, 1);
    }

    #[test]
    fn commit_waits_for_in_flight_eviction_flush() {
        // An eviction flush of txn's page is parked inside the sink while
        // the commit runs: flush_txn_packed must not return before that page is
        // persisted, and must not flush it a second time.
        struct GateSink {
            flushed: PMutex<Vec<(FrameKey, FlushCause)>>,
            evict_entered: std::sync::Barrier,
            evict_release: std::sync::Barrier,
        }
        impl FlushSink for GateSink {
            fn flush(
                &self,
                key: FrameKey,
                _page: &Page,
                _txn: TxnId,
                cause: FlushCause,
            ) -> IqResult<()> {
                if cause == FlushCause::Eviction {
                    self.evict_entered.wait();
                    self.evict_release.wait();
                }
                self.flushed.lock().push((key, cause));
                Ok(())
            }
        }
        let bm = BufferManager::new(3500);
        let sink = GateSink {
            flushed: PMutex::new(Vec::new()),
            evict_entered: std::sync::Barrier::new(2),
            evict_release: std::sync::Barrier::new(2),
        };
        let txn = TxnId(3);
        for p in 1..=3 {
            bm.put_dirty(key(1, p), page(p, 1000), txn, &sink).unwrap();
        }
        std::thread::scope(|scope| {
            let bm = &bm;
            let sink_ref = &sink;
            // Overflow triggers eviction of key(1,1); its flush parks.
            scope.spawn(move || {
                bm.put_dirty(key(1, 4), page(4, 1000), txn, sink_ref)
                    .unwrap();
            });
            sink.evict_entered.wait();
            // Commit in parallel with the parked eviction flush.
            let committer =
                scope.spawn(move || bm.flush_txn_packed(txn, sink_ref, &IoCore::new(2), 1));
            // Give the committer a moment to reach the wait, then release.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !committer.is_finished(),
                "commit returned before the in-flight eviction flush persisted the page"
            );
            sink.evict_release.wait();
            committer.join().unwrap().unwrap();
        });
        let flushed = sink.flushed.into_inner();
        // key(1,1) flushed exactly once, as an eviction; the rest at commit.
        assert_eq!(
            flushed
                .iter()
                .filter(|(k, _)| *k == key(1, 1))
                .collect::<Vec<_>>(),
            vec![&(key(1, 1), FlushCause::Eviction)]
        );
        assert_eq!(flushed.len(), 4);
        assert_eq!(bm.dirty_count(txn), 0);
    }

    #[test]
    fn commit_waits_for_eviction_racing_past_dirty_claim() {
        // The adversarial interleaving the phase-4 wait exists for: the
        // evictor pops a still-dirty frame of the committing transaction
        // *after* commit's phase-1a wait released the dirty lock but
        // *before* phase 1b visits that frame's shard, so phase 1b finds
        // the frame gone and skips it. Commit must still not return until
        // the eviction flush has persisted the page.
        //
        // Orchestration: the test holds the shard lock of the commit's
        // first (lowest) claimed key, pinning the committer between phase
        // 1a and phase 1b while the evictor pops a victim from the other
        // shard and parks inside the sink.
        struct GateSink {
            flushed: PMutex<Vec<(FrameKey, FlushCause)>>,
            evict_entered: std::sync::Barrier,
            evict_release: std::sync::Barrier,
        }
        impl FlushSink for GateSink {
            fn flush(
                &self,
                key: FrameKey,
                _page: &Page,
                _txn: TxnId,
                cause: FlushCause,
            ) -> IqResult<()> {
                if cause == FlushCause::Eviction {
                    self.evict_entered.wait();
                    self.evict_release.wait();
                }
                self.flushed.lock().push((key, cause));
                Ok(())
            }
        }
        // Capacity fits 2 frames of 1000+128 bytes; a third insert evicts.
        let bm = BufferManager::with_options(
            2500,
            BufferOptions {
                shards: 2,
                protected_fraction: 0.8,
            },
        );
        // page_a: lowest page, so it is phase 1b's first key; page_v and
        // page_new: on the *other* shard, so the evictor (whose victim
        // sweep starts at page_new's home shard) pops page_v while the
        // committer is stalled on page_a's shard.
        let page_a = 1u64;
        let s_a = bm.shard_of(&key(1, page_a));
        let mut page_v = page_a + 1;
        while bm.shard_of(&key(1, page_v)) == s_a {
            page_v += 1;
        }
        let mut page_new = page_v + 1;
        while bm.shard_of(&key(1, page_new)) == s_a {
            page_new += 1;
        }
        let sink = GateSink {
            flushed: PMutex::new(Vec::new()),
            evict_entered: std::sync::Barrier::new(2),
            evict_release: std::sync::Barrier::new(2),
        };
        let txn = TxnId(11);
        let other_txn = TxnId(12);
        bm.put_dirty(key(1, page_a), page(page_a, 1000), txn, &sink)
            .unwrap();
        bm.put_dirty(key(1, page_v), page(page_v, 1000), txn, &sink)
            .unwrap();
        std::thread::scope(|scope| {
            let bm = &bm;
            let sink_ref = &sink;
            let stall = bm.shards[s_a].inner.lock();
            let committer =
                scope.spawn(move || bm.flush_txn_packed(txn, sink_ref, &IoCore::new(2), 1));
            // Phase 1a has claimed the dirty set once the index is empty;
            // phase 1b is now blocked on `stall`.
            while bm.dirty_count(txn) != 0 {
                std::thread::yield_now();
            }
            // Evictor: the insert overflows the budget and pops page_v —
            // still dirty under `txn`, already claimed by the committer —
            // then parks inside the sink with the flush in flight.
            scope.spawn(move || {
                bm.put_dirty(key(1, page_new), page(page_new, 1000), other_txn, sink_ref)
                    .unwrap();
            });
            sink.evict_entered.wait();
            // Let phase 1b run: it finds page_v's frame gone and skips it.
            drop(stall);
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !committer.is_finished(),
                "commit returned while the racing eviction flush was still in flight"
            );
            sink.evict_release.wait();
            committer.join().unwrap().unwrap();
        });
        let flushed = sink.flushed.into_inner();
        // page_v persisted exactly once (by the eviction), page_a at
        // commit; never-write-twice holds across the race.
        assert_eq!(
            flushed
                .iter()
                .filter(|(k, _)| *k == key(1, page_v))
                .collect::<Vec<_>>(),
            vec![&(key(1, page_v), FlushCause::Eviction)]
        );
        assert!(flushed.contains(&(key(1, page_a), FlushCause::Commit)));
        assert_eq!(bm.dirty_count(txn), 0);
        assert_eq!(bm.dirty_count(other_txn), 1);
    }

    #[test]
    fn eviction_flush_error_fails_commit() {
        // An eviction flush that fails leaves the page gone from the cache
        // and unpersisted; the evicting (inserting) thread gets the error
        // inline, but a commit of the owning transaction must fail too.
        struct FailEvictSink;
        impl FlushSink for FailEvictSink {
            fn flush(
                &self,
                _key: FrameKey,
                _page: &Page,
                _txn: TxnId,
                cause: FlushCause,
            ) -> IqResult<()> {
                if cause == FlushCause::Eviction {
                    return Err(iq_common::IqError::Io("evict sink failed".into()));
                }
                Ok(())
            }
        }
        let bm = BufferManager::new(3500);
        let sink = FailEvictSink;
        let txn = TxnId(21);
        for p in 1..=3 {
            bm.put_dirty(key(1, p), page(p, 1000), txn, &sink).unwrap();
        }
        // Overflow evicts key(1,1); its flush fails on the inserter...
        let err = bm
            .put_dirty(key(1, 4), page(4, 1000), txn, &sink)
            .unwrap_err();
        assert!(matches!(err, iq_common::IqError::Io(_)));
        // ...and poisons the commit of the same transaction.
        let err = bm
            .flush_txn_packed(txn, &sink, &IoCore::new(1), 1)
            .unwrap_err();
        assert!(matches!(err, iq_common::IqError::Io(_)));
        // The dirty set was not claimed, so rollback still discards it —
        // and clears the poison for any later reuse of the id.
        assert_eq!(bm.dirty_count(txn), 3);
        bm.discard_txn(txn);
        assert_eq!(bm.dirty_count(txn), 0);
        bm.put_dirty(key(1, 9), page(9, 100), txn, &sink).unwrap();
        bm.flush_txn_packed(txn, &sink, &IoCore::new(1), 1).unwrap();
    }

    #[test]
    fn clear_racing_inserts_keeps_byte_accounting_consistent() {
        // clear() sweeps shards one at a time; loads racing the sweep may
        // land in an already-cleared shard. Their bytes must stay counted:
        // a trailing store(0) would wipe them and under-count used_bytes
        // for the rest of the run.
        let bm = BufferManager::with_options(
            1 << 20,
            BufferOptions {
                shards: 8,
                protected_fraction: 0.8,
            },
        );
        let sink = RecordingSink::default();
        std::thread::scope(|scope| {
            let bm = &bm;
            let sink = &sink;
            for t in 0..4u64 {
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let p = t * 1000 + round;
                        let _ = bm.get_or_load(key(1, p), true, sink, || Ok(page(p, 64)));
                    }
                });
            }
            for _ in 0..50 {
                bm.clear();
                std::thread::yield_now();
            }
        });
        // Whatever survived the sweeps, the atomic accounting matches the
        // frames actually resident (every mutation happens under the
        // owning shard's lock, so this equality is exact, not approximate).
        let resident: usize = bm
            .shards
            .iter()
            .map(|s| {
                s.inner
                    .lock()
                    .cache
                    .iter()
                    .map(|(_, f)| f.bytes)
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(bm.used_bytes(), resident);
        bm.clear();
        assert_eq!(bm.used_bytes(), 0);
        assert_eq!(bm.frame_count(), 0);
    }

    #[test]
    fn reader_waits_out_eviction_flush_instead_of_resurrecting_stale_frame() {
        // While a dirty victim's flush is in flight its key sits in the
        // shard's loading set; a concurrent get_or_load must wait, then
        // run its loader (fresh read through the updated blockmap).
        struct SlowEvictSink {
            evict_entered: std::sync::Barrier,
            evict_release: std::sync::Barrier,
            gated: AtomicU64,
        }
        impl FlushSink for SlowEvictSink {
            fn flush(
                &self,
                _key: FrameKey,
                _page: &Page,
                _txn: TxnId,
                cause: FlushCause,
            ) -> IqResult<()> {
                // Gate only the first eviction flush; the reader's own
                // re-insert may evict again and must not re-enter the
                // two-party barrier.
                if cause == FlushCause::Eviction && self.gated.fetch_add(1, Ordering::Relaxed) == 0
                {
                    self.evict_entered.wait();
                    self.evict_release.wait();
                }
                Ok(())
            }
        }
        let bm = BufferManager::new(3500);
        let sink = SlowEvictSink {
            evict_entered: std::sync::Barrier::new(2),
            evict_release: std::sync::Barrier::new(2),
            gated: AtomicU64::new(0),
        };
        let txn = TxnId(5);
        for p in 1..=3 {
            bm.put_dirty(key(1, p), page(p, 1000), txn, &sink).unwrap();
        }
        let loads = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let bm = &bm;
            let sink_ref = &sink;
            scope.spawn(move || {
                // Evicts key(1,1); flush parks inside the sink.
                bm.put_dirty(key(1, 4), page(4, 1000), txn, sink_ref)
                    .unwrap();
            });
            sink.evict_entered.wait();
            let loads = &loads;
            let reader = scope.spawn(move || {
                bm.get_or_load(key(1, 1), true, sink_ref, || {
                    loads.fetch_add(1, Ordering::Relaxed);
                    Ok(page(1, 64))
                })
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(
                !reader.is_finished(),
                "reader completed while the eviction flush was still in flight"
            );
            sink.evict_release.wait();
            let got = reader.join().unwrap().unwrap();
            assert_eq!(got.body[0], 1);
            assert_eq!(loads.load(Ordering::Relaxed), 1, "loader ran exactly once");
        });
    }
}
