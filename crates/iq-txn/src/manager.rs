//! The transaction manager: snapshot isolation, the committed-transaction
//! chain, and garbage collection (§3.3).
//!
//! "SAP IQ uses MVCC with snapshot isolation; therefore, when transactions
//! modify data, new versions of tables are created. Older versions of a
//! table continue to exist for as long as there are transactions still
//! referencing those versions. The transaction manager is responsible for
//! determining that an older version of a table is no longer referenced,
//! and subsequently deleting the physical pages associated with that
//! version."
//!
//! Page deaths leave through a [`DeletionSink`]; the snapshot manager
//! (`iq-snapshot`) substitutes a deferring sink to implement retention
//! (§5), which is why the trait exists.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use iq_common::trace::{self, EventKind};
use iq_common::{
    BlockNum, DbSpaceId, IoCore, IoStats, IqError, IqResult, KeySet, NodeId, ObjectKey,
    PhysicalLocator, TxnId,
};
use iq_storage::DbSpace;
use parking_lot::{Mutex, RwLock};

use crate::composites::{CompositeImage, CompositeRegistry};
use crate::fence::{CheckpointFence, Quiesced};
use crate::keygen::KeyGenerator;
use crate::log::{Checkpoint, LogRecord, TxnLog};
use crate::rfrb::{coalesce_block_runs, PackMember, PageSet, RfRb};

/// Outcome of a [`DeletionSink::delete_pages`] bulk call.
#[derive(Debug, Default)]
pub struct BulkDeleteOutcome {
    /// Per-page outcome, in input order.
    pub results: Vec<(PhysicalLocator, IqResult<()>)>,
    /// Simulated store requests issued on behalf of this call.
    pub requests: u64,
    /// Keys re-driven by the batch retry layer (failed-subset retries).
    pub retried_keys: u64,
}

impl BulkDeleteOutcome {
    /// First per-page error, if any page ultimately failed.
    pub fn into_first_error(self) -> Option<IqError> {
        self.results.into_iter().find_map(|(_, r)| r.err())
    }
}

/// Where dead pages go: immediate deletion, or deferral to the snapshot
/// manager's retention FIFO.
pub trait DeletionSink: Send + Sync {
    /// Dispose of `pages` — block runs of dbspace `space`, or objects
    /// under the cloud sentinel — reporting per-page outcomes in input
    /// order.
    ///
    /// The call keeps going past a failed page: deletes are idempotent and
    /// the GC tracks per-entry completion, so pages that fail here get
    /// exactly one more attempt on a later tick while finished pages are
    /// never re-driven.
    fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome;
}

/// The immediate sink: deletes pages against the registered dbspaces
/// right away. Object keys are unique across the whole database (one
/// generator), so a cloud deletion goes to every cloud dbspace;
/// block-run deletions resolve by dbspace id. When retention is
/// enabled the transaction manager sees a retaining sink wrapping this
/// one, so cloud pages divert into the snapshot manager instead (§5).
#[derive(Default)]
pub struct ImmediateDeletion {
    spaces: RwLock<HashMap<u32, Arc<DbSpace>>>,
}

impl ImmediateDeletion {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a dbspace so its pages can be released.
    pub fn register(&self, space: Arc<DbSpace>) {
        self.spaces.write().insert(space.id.0, space);
    }

    /// Release the block run `loc` against dbspace `space`.
    fn release_blocks(&self, space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
        let spaces = self.spaces.read();
        let s = spaces
            .get(&space.0)
            .ok_or_else(|| IqError::NotFound(format!("dbspace {space}")))?;
        s.release(loc)
    }
}

impl DeletionSink for ImmediateDeletion {
    fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome {
        // Object keys arrive with a sentinel dbspace id and go to every
        // cloud dbspace as blind ≤1000-key multi-object deletes, with no
        // existence poll: keys are globally unique and deleting an absent
        // (or never flushed, §3.3) key is a no-op. Block runs release per
        // run against their space.
        let keys: Vec<ObjectKey> = pages
            .iter()
            .filter_map(|l| match l {
                PhysicalLocator::Object(k) => Some(*k),
                PhysicalLocator::Blocks { .. } | PhysicalLocator::ObjectRange { .. } => None,
            })
            .collect();
        let mut key_err: HashMap<u64, IqError> = HashMap::new();
        let mut requests = 0u64;
        let mut retried_keys = 0u64;
        if !keys.is_empty() {
            let spaces: Vec<Arc<DbSpace>> = self.spaces.read().values().cloned().collect();
            for s in spaces.iter().filter(|s| s.is_cloud()) {
                if let Ok(o) = s.delete_batch(&keys) {
                    requests += o.requests;
                    retried_keys += o.retried_keys;
                    for (k, r) in o.results {
                        if let Err(e) = r {
                            key_err.entry(k.offset()).or_insert(e);
                        }
                    }
                }
            }
        }
        let mut results = Vec::with_capacity(pages.len());
        for &loc in pages {
            let r = match loc {
                PhysicalLocator::Object(k) => match key_err.remove(&k.offset()) {
                    Some(e) => Err(e),
                    None => Ok(()),
                },
                PhysicalLocator::Blocks { .. } => {
                    requests += 1;
                    self.release_blocks(space, loc)
                }
                // Only whole objects are deletable: member frees route
                // through the composite registry, and the GC deletes the
                // composite's *whole* key once every member is dead.
                PhysicalLocator::ObjectRange { .. } => Err(IqError::Invalid(
                    "cannot delete a composite member directly".into(),
                )),
            };
            results.push((loc, r));
        }
        BulkDeleteOutcome {
            results,
            requests,
            retried_keys,
        }
    }
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Committed; RF pages await chain GC.
    Committed,
    /// Rolled back; RB pages were deleted immediately.
    RolledBack,
    /// Lost to a node crash; cleanup happens via active-set polling.
    Aborted,
}

#[derive(Debug)]
struct ActiveTxn {
    node: NodeId,
    start_seq: u64,
    rfrb: RfRb,
}

#[derive(Debug)]
struct CommittedTxn {
    commit_seq: u64,
    rfrb: RfRb,
    /// RF pages already deleted by an earlier, partially failed GC pass.
    /// Keeping the resume point per entry gives exactly-once reclamation
    /// accounting across requeues: a retried entry only re-drives (and
    /// only re-counts) the pages that actually failed.
    done: PageSet,
}

/// Cumulative counters of the batched GC pipeline, exposed as the `gc.*`
/// metrics source. All plain atomics: read via [`GcStats::snapshot`].
#[derive(Debug, Default)]
pub struct GcStats {
    /// Drain passes that found at least one eligible entry.
    pub ticks: AtomicU64,
    /// Chain entries fully reclaimed and dropped.
    pub entries_consumed: AtomicU64,
    /// Cloud keys deleted (first-time only; requeued retries do not
    /// re-count pages that already succeeded).
    pub keys_deleted: AtomicU64,
    /// Conventional block runs released (pre-coalescing granularity).
    pub block_runs_deleted: AtomicU64,
    /// Multi-object delete batches submitted to the worker pool.
    pub batches: AtomicU64,
    /// Simulated store requests issued (keys + blocks, incl. retries).
    pub requests: AtomicU64,
    /// Requests avoided versus the per-key baseline (one request per
    /// submitted key).
    pub requests_saved: AtomicU64,
    /// Keys re-driven by failed-subset retries.
    pub retried_keys: AtomicU64,
    /// Entries pushed back onto the chain after a partial failure.
    pub requeues: AtomicU64,
    /// Peak delete batches in flight across all passes (submission
    /// depth: the largest number of batches one pass submitted).
    pub in_flight_peak: AtomicU64,
    /// Batch-size histogram: ≤1, ≤10, ≤100, ≤1000, >1000 keys.
    pub batch_hist: [AtomicU64; 5],
}

/// Plain-value copy of [`GcStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStatsSnapshot {
    /// See [`GcStats::ticks`].
    pub ticks: u64,
    /// See [`GcStats::entries_consumed`].
    pub entries_consumed: u64,
    /// See [`GcStats::keys_deleted`].
    pub keys_deleted: u64,
    /// See [`GcStats::block_runs_deleted`].
    pub block_runs_deleted: u64,
    /// See [`GcStats::batches`].
    pub batches: u64,
    /// See [`GcStats::requests`].
    pub requests: u64,
    /// See [`GcStats::requests_saved`].
    pub requests_saved: u64,
    /// See [`GcStats::retried_keys`].
    pub retried_keys: u64,
    /// See [`GcStats::requeues`].
    pub requeues: u64,
    /// See [`GcStats::in_flight_peak`].
    pub in_flight_peak: u64,
    /// See [`GcStats::batch_hist`].
    pub batch_hist: [u64; 5],
}

impl GcStats {
    fn note_batch(&self, keys: usize) {
        let bucket = match keys {
            0..=1 => 0,
            2..=10 => 1,
            11..=100 => 2,
            101..=1000 => 3,
            _ => 4,
        };
        self.batch_hist[bucket].fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Read every counter at once.
    pub fn snapshot(&self) -> GcStatsSnapshot {
        let mut hist = [0u64; 5];
        for (out, src) in hist.iter_mut().zip(self.batch_hist.iter()) {
            *out = src.load(Ordering::Relaxed);
        }
        GcStatsSnapshot {
            ticks: self.ticks.load(Ordering::Relaxed),
            entries_consumed: self.entries_consumed.load(Ordering::Relaxed),
            keys_deleted: self.keys_deleted.load(Ordering::Relaxed),
            block_runs_deleted: self.block_runs_deleted.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            requests_saved: self.requests_saved.load(Ordering::Relaxed),
            retried_keys: self.retried_keys.load(Ordering::Relaxed),
            requeues: self.requeues.load(Ordering::Relaxed),
            in_flight_peak: self.in_flight_peak.load(Ordering::Relaxed),
            batch_hist: hist,
        }
    }
}

#[derive(Debug, Default)]
struct TmInner {
    active: HashMap<u64, ActiveTxn>,
    /// "The transaction manager maintains a chain of committed
    /// transactions with pointers to their RF/RB bitmaps" (§3.3).
    chain: VecDeque<CommittedTxn>,
}

impl TmInner {
    fn oldest_active_seq(&self) -> u64 {
        self.active
            .values()
            .map(|t| t.start_seq)
            .min()
            .unwrap_or(u64::MAX)
    }
}

/// The transaction manager.
pub struct TransactionManager {
    next_txn: AtomicU64,
    seq: AtomicU64,
    inner: Mutex<TmInner>,
    log: Arc<TxnLog>,
    /// Commit notifications trim the coordinator's active sets.
    keygen: Option<Arc<KeyGenerator>>,
    /// Execution-lane width for the GC's delete fan-out.
    gc_workers: AtomicUsize,
    /// Shared submission/completion counters (the database's `io.*`
    /// source) the GC's delete batches account into, when attached.
    io_stats: Mutex<Option<Arc<IoStats>>>,
    /// Counters behind the `gc.*` metrics source.
    gc_stats: GcStats,
    /// Live-member refcounts of composite (packed) objects.
    composites: Arc<CompositeRegistry>,
    /// Keeps checkpoints out of commit tails and GC passes.
    fence: CheckpointFence,
}

impl TransactionManager {
    /// Manager logging to `log`; `keygen` receives commit notifications
    /// when present (multiplex deployments).
    pub fn new(log: Arc<TxnLog>, keygen: Option<Arc<KeyGenerator>>) -> Self {
        Self {
            next_txn: AtomicU64::new(1),
            seq: AtomicU64::new(1),
            inner: Mutex::new(TmInner::default()),
            log,
            keygen,
            gc_workers: AtomicUsize::new(1),
            io_stats: Mutex::new(None),
            gc_stats: GcStats::default(),
            composites: Arc::new(CompositeRegistry::new()),
            fence: CheckpointFence::default(),
        }
    }

    /// Set how many execution lanes fan out the GC's delete batches.
    pub fn set_gc_workers(&self, workers: usize) {
        self.gc_workers.store(workers.max(1), Ordering::Relaxed);
    }

    /// Attach the database's shared `io.*` counters so GC delete batches
    /// account their submission depth alongside scans and flushes.
    pub fn set_io_stats(&self, stats: Arc<IoStats>) {
        *self.io_stats.lock() = Some(stats);
    }

    /// The composite registry (the pack GC's refcount bookkeeping).
    pub fn composites(&self) -> &Arc<CompositeRegistry> {
        &self.composites
    }

    /// The fence commit tails and GC passes enter and a checkpoint
    /// quiesces (see [`crate::fence`]).
    pub fn fence(&self) -> &CheckpointFence {
        &self.fence
    }

    /// The garbage collector's part of a checkpoint, taken while `_quiet`
    /// holds [`Self::fence`]: every registered composite with its death
    /// bits, and the committed chain's pending frees. No reader survives
    /// a reopen, so every chain entry is eligible there: its member frees
    /// are folded into the death bits, and what is left of it is its
    /// whole-object keys and block runs, minus what an earlier, partly
    /// failed GC pass already deleted.
    pub fn gc_image(&self, _quiet: &Quiesced<'_>) -> Checkpoint {
        let mut composites = self.composites.image();
        let g = self.inner.lock();
        for e in &g.chain {
            for (off, ranges) in &e.rfrb.rf.members {
                if let Some(c) = composites.get_mut(off) {
                    for &(member_off, _len) in ranges {
                        c.kill(member_off);
                    }
                }
            }
        }
        Checkpoint {
            composites,
            pending: owed(&g.chain),
            ..Checkpoint::default()
        }
    }

    /// Seed the garbage collector at reopen: the composite registry from
    /// the last checkpoint's image, then the composites of the commits
    /// logged after it. `pending` — whole-object keys the checkpoint still
    /// owed — and every cloud key and member those commits freed go back
    /// on the committed chain as one entry. No reader survives a reopen,
    /// so the entry is eligible at once and the next GC pass reclaims it;
    /// what the previous life already deleted costs an idempotent delete.
    /// Block runs are not queued: the caller frees them in log order,
    /// because a later commit may have reused them.
    pub fn recover_gc(
        &self,
        composites: BTreeMap<u64, CompositeImage>,
        pending: KeySet,
        commits: &[RfRb],
    ) {
        self.composites.restore(composites);
        let mut rf = PageSet {
            keys: pending,
            ..PageSet::default()
        };
        for rfrb in commits {
            for (&off, members) in &rfrb.packs {
                self.composites
                    .register(ObjectKey::from_offset(off), members);
            }
            rf.keys.union_with(&rfrb.rf.keys);
            for (&off, ranges) in &rfrb.rf.members {
                rf.members.entry(off).or_default().extend(ranges);
            }
        }
        if !rf.is_empty() {
            self.inner.lock().chain.push_back(CommittedTxn {
                commit_seq: 0,
                rfrb: RfRb {
                    rf,
                    ..RfRb::default()
                },
                done: PageSet::default(),
            });
        }
    }

    /// Cumulative GC pipeline counters.
    pub fn gc_stats(&self) -> GcStatsSnapshot {
        self.gc_stats.snapshot()
    }

    /// Begin a transaction on `node`. Its snapshot is the current commit
    /// sequence: it sees every commit at or below it, nothing after.
    pub fn begin(&self, node: NodeId) -> TxnId {
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        let start_seq = self.seq.load(Ordering::Relaxed);
        self.inner.lock().active.insert(
            id,
            ActiveTxn {
                node,
                start_seq,
                rfrb: RfRb::new(),
            },
        );
        trace::emit(EventKind::TxnBegin {
            txn: id,
            node: node.0 as u64,
        });
        TxnId(id)
    }

    /// The snapshot sequence a transaction reads at.
    pub fn snapshot_seq(&self, txn: TxnId) -> IqResult<u64> {
        self.inner
            .lock()
            .active
            .get(&txn.0)
            .map(|t| t.start_seq)
            .ok_or_else(|| IqError::Txn {
                txn,
                reason: "not active".into(),
            })
    }

    /// The earliest snapshot sequence among the active transactions
    /// (`u64::MAX` with none): the horizon below which a superseded
    /// version — its pages on the committed chain, its blockmap in the
    /// table store — has no reader left.
    pub fn oldest_active_seq(&self) -> u64 {
        self.inner.lock().oldest_active_seq()
    }

    /// Current commit sequence (the version counter new commits get).
    pub fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Record a page allocation by `txn` (feeds the RB bitmap).
    pub fn record_alloc(&self, txn: TxnId, space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
        let mut g = self.inner.lock();
        let t = g.active.get_mut(&txn.0).ok_or_else(|| IqError::Txn {
            txn,
            reason: "not active".into(),
        })?;
        t.rfrb.record_alloc(space, loc);
        Ok(())
    }

    /// Record a page supersession/deletion by `txn` (feeds the RF bitmap).
    pub fn record_free(&self, txn: TxnId, space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
        let mut g = self.inner.lock();
        let t = g.active.get_mut(&txn.0).ok_or_else(|| IqError::Txn {
            txn,
            reason: "not active".into(),
        })?;
        t.rfrb.record_free(space, loc);
        Ok(())
    }

    /// Record that `txn` wrote the composite object `key` with the given
    /// member layout. Registered with the composite registry at commit.
    pub fn record_pack(
        &self,
        txn: TxnId,
        key: ObjectKey,
        members: Vec<PackMember>,
    ) -> IqResult<()> {
        let mut g = self.inner.lock();
        let t = g.active.get_mut(&txn.0).ok_or_else(|| IqError::Txn {
            txn,
            reason: "not active".into(),
        })?;
        t.rfrb.record_pack(key, members);
        Ok(())
    }

    /// Commit: flush the RF/RB bitmaps (log record), notify the key
    /// generator, move the transaction onto the committed chain, then
    /// garbage collect whatever the chain allows. Returns the commit
    /// sequence.
    pub fn commit(&self, txn: TxnId, sink: &dyn DeletionSink) -> IqResult<u64> {
        let commit_seq = self.commit_deferred(txn)?;
        self.gc_tick(sink)?;
        Ok(commit_seq)
    }

    /// Commit *without* the inline GC pass. The caller (the `Database`'s
    /// budgeted GC driver) schedules reclamation separately, so commit
    /// latency does not include the deletion fan-out. Returns the commit
    /// sequence.
    pub fn commit_deferred(&self, txn: TxnId) -> IqResult<u64> {
        let entry = {
            let mut g = self.inner.lock();
            g.active.remove(&txn.0).ok_or_else(|| IqError::Txn {
                txn,
                reason: "not active".into(),
            })?
        };
        let commit_seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        // "When a transaction commits, its RF/RB bitmaps are flushed to
        // storage, the identities of the bitmaps are recorded in the
        // transaction log, and the responsibility of garbage collection is
        // passed onto the transaction manager."
        //
        // The commit record must reach durable storage: a sink failure
        // (log PUT past its retry budget) fails the commit. The
        // transaction goes back into the active map so the caller can
        // roll it back like any other commit-path failure; the in-memory
        // record it left behind is squared away by reopen-time
        // reconciliation (durable log is authoritative for commits).
        //
        // From the log append to the chain push the commit is inside the
        // checkpoint fence: a checkpoint sees it either wholly before its
        // record or wholly after.
        let _inside = self.fence.enter();
        if let Err(e) = self.log.append_durable(LogRecord::Commit {
            txn,
            node: entry.node,
            rfrb: entry.rfrb.clone(),
        }) {
            self.inner.lock().active.insert(txn.0, entry);
            return Err(e);
        }
        if let Some(kg) = &self.keygen {
            kg.note_commit(entry.node, &entry.rfrb);
        }
        // Register the transaction's composites before its chain entry is
        // visible to GC: member frees (this txn's or a later one's) must
        // always find the layout already present.
        for (&off, members) in &entry.rfrb.packs {
            self.composites
                .register(ObjectKey::from_offset(off), members);
        }
        self.inner.lock().chain.push_back(CommittedTxn {
            commit_seq,
            rfrb: entry.rfrb,
            done: PageSet::default(),
        });
        trace::emit(EventKind::TxnCommit {
            txn: txn.0,
            commit_seq,
        });
        Ok(commit_seq)
    }

    /// Roll back: "pages that are recorded in its RB bitmap can be deleted
    /// immediately" (§3.3). The coordinator is *not* notified — "a
    /// conscious optimization to reduce the amount of inter-node
    /// communication".
    pub fn rollback(&self, txn: TxnId, sink: &dyn DeletionSink) -> IqResult<()> {
        let entry = {
            let mut g = self.inner.lock();
            g.active.remove(&txn.0).ok_or_else(|| IqError::Txn {
                txn,
                reason: "not active".into(),
            })?
        };
        trace::emit(EventKind::TxnRollback { txn: txn.0 });
        // RB pages die immediately and in bulk: every cloud key in one
        // batch, block runs grouped per dbspace — the space is resolved
        // once per group instead of once per key.
        let mut first_err: Option<IqError> = None;
        let keys: Vec<PhysicalLocator> = entry
            .rfrb
            .rb
            .iter_keys()
            .map(PhysicalLocator::Object)
            .collect();
        if !keys.is_empty() {
            first_err = sink
                .delete_pages(CLOUD_SPACE_SENTINEL, &keys)
                .into_first_error();
        }
        for (&space, runs) in &entry.rfrb.rb.blocks {
            let locs: Vec<PhysicalLocator> = runs
                .iter()
                .map(|&(start, count)| PhysicalLocator::Blocks {
                    start: BlockNum(start),
                    count,
                })
                .collect();
            let err = sink
                .delete_pages(DbSpaceId(space), &locs)
                .into_first_error();
            if first_err.is_none() {
                first_err = err;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Simulate a node crash: its active transactions vanish *without*
    /// their RB bitmaps being applied (they were volatile). Returns the
    /// aborted transaction ids; their allocations are reclaimed later by
    /// coordinator active-set polling (§3.3 case 2).
    pub fn abort_node(&self, node: NodeId) -> Vec<TxnId> {
        let mut g = self.inner.lock();
        let aborted: Vec<TxnId> = g
            .active
            .iter()
            .filter(|(_, t)| t.node == node)
            .map(|(&id, _)| TxnId(id))
            .collect();
        g.active.retain(|_, t| t.node != node);
        aborted
    }

    /// The node a transaction runs on.
    pub fn node_of(&self, txn: TxnId) -> IqResult<NodeId> {
        self.inner
            .lock()
            .active
            .get(&txn.0)
            .map(|t| t.node)
            .ok_or_else(|| IqError::Txn {
                txn,
                reason: "not active".into(),
            })
    }

    /// Drop chain entries no longer referenced by any active transaction
    /// and delete their RF pages. Returns pages deleted (first-time only).
    pub fn gc_tick(&self, sink: &dyn DeletionSink) -> IqResult<usize> {
        self.gc_tick_budget(sink, usize::MAX)
    }

    /// Budgeted GC drain: consume up to `budget` eligible chain entries
    /// in one batched pass.
    ///
    /// "When the oldest transaction in the chain is no longer referenced,
    /// its RF/RB bitmaps are used to compute the pages that can be
    /// deleted, and the transaction is dropped from the chain" — but
    /// instead of one synchronous delete per page, the pass:
    ///
    /// 1. pops every eligible entry under one lock acquisition (the
    ///    oldest-active sequence is computed once per pass, not per
    ///    entry);
    /// 2. dedupes the pending cloud keys across entries into a single
    ///    [`KeySet`], skipping pages an earlier partially-failed pass
    ///    already deleted;
    /// 3. groups block runs per dbspace and coalesces adjacent runs;
    /// 4. fans ≤1000-key batches out over the worker pool as
    ///    multi-object deletes.
    ///
    /// Crash safety: deletes are idempotent and an entry whose pages did
    /// not all succeed is re-queued at the chain *front* with its resume
    /// point (`done`) advanced, so a later tick re-drives only the failed
    /// pages — nothing leaks and nothing is double-counted. On any page
    /// failure the first error is returned after the re-queue.
    pub fn gc_tick_budget(&self, sink: &dyn DeletionSink, budget: usize) -> IqResult<usize> {
        // The whole pass is inside the checkpoint fence: popped entries
        // are in no chain a checkpoint could image until they are settled.
        let _inside = self.fence.enter();
        // One lock pass for eligibility: the oldest active sequence is
        // derived once for every entry.
        let (mut entries, left_on_chain) = {
            let mut g = self.inner.lock();
            let oldest_active = g.oldest_active_seq();
            let mut v: Vec<CommittedTxn> = Vec::new();
            while v.len() < budget {
                match g.chain.front() {
                    Some(front) if front.commit_seq <= oldest_active => {
                        v.push(g.chain.pop_front().expect("front exists"));
                    }
                    _ => break,
                }
            }
            (v, g.chain.len() as u64)
        };
        // Member frees flip death bits in the composite registry instead
        // of entering the delete pipeline (idempotent, so a requeued
        // entry re-applying them is harmless).
        for e in &entries {
            for (&off, ranges) in &e.rfrb.rf.members {
                for &(member_off, _len) in ranges {
                    self.composites.mark_member_dead(off, member_off);
                }
            }
        }
        // Whole composites whose last member just died (or whose delete
        // failed on an earlier tick) join this pass's key fan-out.
        let composite_dead = self.composites.fully_dead_pending();
        if entries.is_empty() && composite_dead.is_empty() {
            if trace::is_enabled() {
                trace::emit(EventKind::GcTick {
                    consumed: 0,
                    remaining: left_on_chain,
                });
            }
            return Ok(0);
        }
        self.gc_stats.ticks.fetch_add(1, Ordering::Relaxed);

        // Pending work = what the entries still owe, plus the composites.
        let PageSet {
            keys: mut all_keys,
            blocks: runs_by_space,
            ..
        } = owed(&entries);
        for key in &composite_dead {
            all_keys.insert(key.offset());
        }

        // Fan the key batches out. Tasks never return Err: one failing
        // batch must not cancel the others, so per-key verdicts travel in
        // the outcome and are folded below.
        let submitted_keys = all_keys.len();
        let key_batches: Vec<Vec<PhysicalLocator>> = all_keys
            .iter()
            .map(|off| PhysicalLocator::Object(ObjectKey::from_offset(off)))
            .collect::<Vec<_>>()
            .chunks(GC_BATCH_KEYS)
            .map(<[PhysicalLocator]>::to_vec)
            .collect();
        let workers = self.gc_workers.load(Ordering::Relaxed).max(1);
        let mut io = IoCore::new(workers.min(key_batches.len().max(1)));
        if let Some(stats) = self.io_stats.lock().clone() {
            io = io.with_stats(stats);
        }
        let outcomes = io
            .run_ordered(key_batches.len(), |i| {
                Ok::<_, IqError>(sink.delete_pages(CLOUD_SPACE_SENTINEL, &key_batches[i]))
            })
            .expect("gc batch tasks are infallible");

        let mut key_requests = 0u64;
        let mut retried = 0u64;
        let mut failed_keys = KeySet::new();
        let mut first_err: Option<IqError> = None;
        for o in &outcomes {
            key_requests += o.requests;
            retried += o.retried_keys;
            for (loc, r) in &o.results {
                if let (PhysicalLocator::Object(k), Err(e)) = (loc, r) {
                    failed_keys.insert(k.offset());
                    if first_err.is_none() {
                        first_err = Some(e.clone());
                    }
                }
            }
        }
        for b in &key_batches {
            self.gc_stats.note_batch(b.len());
        }

        // Composites whose delete succeeded leave the registry; failed
        // ones stay fully-dead-pending and retry on a later tick.
        let mut composites_reclaimed = 0u64;
        if !composite_dead.is_empty() {
            let reclaimed: Vec<ObjectKey> = composite_dead
                .iter()
                .copied()
                .filter(|k| !failed_keys.contains(k.offset()))
                .collect();
            composites_reclaimed = reclaimed.len() as u64;
            self.composites.note_reclaimed(&reclaimed);
        }

        // Block runs, one bulk call per dbspace.
        let mut block_requests = 0u64;
        let mut failed_ranges: Vec<(u32, u64, u64)> = Vec::new();
        for (space, runs) in &runs_by_space {
            let locs: Vec<PhysicalLocator> = runs
                .iter()
                .map(|&(start, count)| PhysicalLocator::Blocks {
                    start: BlockNum(start),
                    count,
                })
                .collect();
            let o = sink.delete_pages(DbSpaceId(*space), &locs);
            block_requests += o.requests;
            retried += o.retried_keys;
            for (loc, r) in &o.results {
                if let (PhysicalLocator::Blocks { start, count }, Err(e)) = (loc, r) {
                    failed_ranges.push((*space, start.0, start.0 + u64::from(*count)));
                    if first_err.is_none() {
                        first_err = Some(e.clone());
                    }
                }
            }
        }

        // Fold results back per entry: advance each entry's resume point
        // by its pages that succeeded, count them (first-time only), and
        // re-queue entries with surviving pages.
        let mut keys_deleted = composites_reclaimed;
        let mut runs_deleted = 0u64;
        let mut consumed = 0u64;
        let mut requeue: Vec<CommittedTxn> = Vec::new();
        for mut e in entries.drain(..) {
            let mut unfinished = false;
            let mut pending = e.rfrb.rf.keys.clone();
            pending.subtract(&e.done.keys);
            let mut ok = pending.clone();
            ok.subtract(&failed_keys);
            if ok.len() < pending.len() {
                unfinished = true;
            }
            keys_deleted += ok.len();
            e.done.keys.union_with(&ok);
            for (&space, runs) in &e.rfrb.rf.blocks {
                for &(start, count) in runs {
                    let done_runs = e.done.blocks.entry(space).or_default();
                    if done_runs.contains(&(start, count)) {
                        continue;
                    }
                    let end = start + u64::from(count);
                    let failed = failed_ranges
                        .iter()
                        .any(|&(s, fs, fe)| s == space && start < fe && fs < end);
                    if failed {
                        unfinished = true;
                    } else {
                        done_runs.push((start, count));
                        runs_deleted += 1;
                    }
                }
            }
            if unfinished {
                requeue.push(e);
            } else {
                consumed += 1;
            }
        }
        let requeued = requeue.len() as u64;
        if !requeue.is_empty() {
            let mut g = self.inner.lock();
            for e in requeue.into_iter().rev() {
                g.chain.push_front(e);
            }
        }

        let s = &self.gc_stats;
        s.entries_consumed.fetch_add(consumed, Ordering::Relaxed);
        s.keys_deleted.fetch_add(keys_deleted, Ordering::Relaxed);
        s.block_runs_deleted
            .fetch_add(runs_deleted, Ordering::Relaxed);
        s.requests
            .fetch_add(key_requests + block_requests, Ordering::Relaxed);
        s.requests_saved.fetch_add(
            submitted_keys.saturating_sub(key_requests),
            Ordering::Relaxed,
        );
        s.retried_keys.fetch_add(retried, Ordering::Relaxed);
        s.requeues.fetch_add(requeued, Ordering::Relaxed);
        // Submission depth, as `IoStats` defines it: the pass's batches are
        // all in flight from the moment they are submitted.
        let in_flight_peak = key_batches.len() as u64;
        s.in_flight_peak
            .fetch_max(in_flight_peak, Ordering::Relaxed);

        if trace::is_enabled() {
            if submitted_keys > 0 {
                trace::emit(EventKind::GcBatch {
                    keys: submitted_keys,
                    requests: key_requests,
                    in_flight_peak,
                });
            }
            trace::emit(EventKind::GcTick {
                consumed,
                remaining: left_on_chain + requeued,
            });
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((keys_deleted + runs_deleted) as usize),
        }
    }

    /// Committed-chain length (tests and monitoring).
    pub fn chain_len(&self) -> usize {
        self.inner.lock().chain.len()
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.inner.lock().active.len()
    }
}

/// What chain `entries` still owe: their RF whole-object keys and block
/// runs minus each entry's resume point. Keys dedupe globally (entries may
/// free overlapping ranges); block runs dedupe and coalesce per dbspace.
/// Member frees are the composite registry's and are left out.
fn owed<'a>(entries: impl IntoIterator<Item = &'a CommittedTxn>) -> PageSet {
    let mut owed = PageSet::default();
    for e in entries {
        let mut keys = e.rfrb.rf.keys.clone();
        keys.subtract(&e.done.keys);
        owed.keys.union_with(&keys);
        for (&space, runs) in &e.rfrb.rf.blocks {
            let done = e.done.blocks.get(&space);
            for &run in runs {
                if done.is_none_or(|d| !d.contains(&run)) {
                    owed.blocks.entry(space).or_default().push(run);
                }
            }
        }
    }
    for runs in owed.blocks.values_mut() {
        coalesce_block_runs(runs);
    }
    owed
}

/// RF/RB page sets carry the owning dbspace only for block runs; cloud
/// keys are globally unique, so sinks resolve object locators by key and
/// ignore the dbspace id this constant fills in.
const CLOUD_SPACE_SENTINEL: DbSpaceId = DbSpaceId(u32::MAX);

/// Per-batch key cap for the GC fan-out, mirroring the S3 multi-object
/// delete limit (`iq_objectstore::DELETE_BATCH_MAX`).
const GC_BATCH_KEYS: usize = 1000;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use iq_common::{KeySet, ObjectKey, PageId, VersionId};
    use iq_objectstore::{BlockDeviceSim, ConsistencyConfig, IoOp, ObjectStoreSim, RetryPolicy};
    use iq_storage::{CountingKeySource, Page, PageKind, StorageConfig};

    /// Sink recording deletions instead of touching storage.
    #[derive(Default)]
    struct RecordingSink {
        cloud: Mutex<KeySet>,
        blocks: Mutex<Vec<(u32, u64, u8)>>,
    }

    /// A bulk outcome built page by page: one request per page, and the
    /// loop keeps going past a failed page.
    fn per_page(
        pages: &[PhysicalLocator],
        mut delete: impl FnMut(PhysicalLocator) -> IqResult<()>,
    ) -> BulkDeleteOutcome {
        BulkDeleteOutcome {
            results: pages.iter().map(|&loc| (loc, delete(loc))).collect(),
            requests: pages.len() as u64,
            retried_keys: 0,
        }
    }

    impl DeletionSink for RecordingSink {
        fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome {
            per_page(pages, |loc| self.record(space, loc))
        }
    }

    impl RecordingSink {
        fn record(&self, space: DbSpaceId, loc: PhysicalLocator) -> IqResult<()> {
            match loc {
                PhysicalLocator::Object(k) => {
                    self.cloud.lock().insert(k.offset());
                }
                PhysicalLocator::Blocks { start, count } => {
                    self.blocks.lock().push((space.0, start.0, count));
                }
                PhysicalLocator::ObjectRange { .. } => {
                    panic!("composite members must never reach a deletion sink");
                }
            }
            Ok(())
        }
    }

    fn cloud(off: u64) -> PhysicalLocator {
        PhysicalLocator::Object(ObjectKey::from_offset(off))
    }

    fn manager() -> (Arc<TxnLog>, TransactionManager) {
        let log = Arc::new(TxnLog::new());
        let tm = TransactionManager::new(Arc::clone(&log), None);
        (log, tm)
    }

    #[test]
    fn rollback_deletes_rb_immediately() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let t = tm.begin(NodeId(1));
        for off in 10..20 {
            tm.record_alloc(t, DbSpaceId(1), cloud(off)).unwrap();
        }
        tm.rollback(t, &sink).unwrap();
        assert_eq!(sink.cloud.lock().runs(), &[(10, 20)]);
        assert_eq!(tm.active_count(), 0);
    }

    #[test]
    fn commit_defers_rf_until_unreferenced() {
        let (log, tm) = manager();
        let sink = RecordingSink::default();
        // Reader R starts first and holds the old snapshot.
        let reader = tm.begin(NodeId(2));
        // Writer W supersedes page 5.
        let w = tm.begin(NodeId(1));
        tm.record_alloc(w, DbSpaceId(1), cloud(6)).unwrap();
        tm.record_free(w, DbSpaceId(1), cloud(5)).unwrap();
        tm.commit(w, &sink).unwrap();
        // Old page 5 must survive while the reader lives.
        assert!(sink.cloud.lock().is_empty());
        assert_eq!(tm.chain_len(), 1);
        // Reader finishes; GC may now reclaim.
        tm.rollback(reader, &sink).unwrap();
        tm.gc_tick(&sink).unwrap();
        assert!(sink.cloud.lock().contains(5));
        assert!(!sink.cloud.lock().contains(6)); // allocations survive
        assert_eq!(tm.chain_len(), 0);
        // Commit record reached the log.
        assert!(log
            .replay_suffix()
            .iter()
            .any(|r| matches!(r, LogRecord::Commit { .. })));
    }

    #[test]
    fn later_readers_do_not_block_gc() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let w = tm.begin(NodeId(1));
        tm.record_free(w, DbSpaceId(1), cloud(1)).unwrap();
        tm.commit(w, &sink).unwrap();
        // A reader that began *after* the commit sees the new version, so
        // the old page can die even while this reader is active.
        let _late_reader = tm.begin(NodeId(2));
        tm.gc_tick(&sink).unwrap();
        assert!(sink.cloud.lock().contains(1));
    }

    #[test]
    fn composite_deleted_only_after_every_member_free() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let key = ObjectKey::from_offset(900);
        let members: Vec<PackMember> = (0..3)
            .map(|i| PackMember {
                table: 1,
                page: 10 + i as u64,
                offset: i * 512,
                len: 512,
            })
            .collect();
        let w = tm.begin(NodeId(1));
        for m in &members {
            tm.record_alloc(
                w,
                CLOUD_SPACE_SENTINEL,
                PhysicalLocator::ObjectRange {
                    key,
                    offset: m.offset,
                    len: m.len,
                },
            )
            .unwrap();
        }
        tm.record_pack(w, key, members.clone()).unwrap();
        tm.commit(w, &sink).unwrap();
        assert_eq!(tm.composites().len(), 1);

        // Two of three members die: the object must survive.
        let t = tm.begin(NodeId(1));
        for m in &members[..2] {
            tm.record_free(
                t,
                CLOUD_SPACE_SENTINEL,
                PhysicalLocator::ObjectRange {
                    key,
                    offset: m.offset,
                    len: m.len,
                },
            )
            .unwrap();
        }
        tm.commit(t, &sink).unwrap();
        tm.gc_tick(&sink).unwrap();
        assert!(
            !sink.cloud.lock().contains(900),
            "composite deleted while a member is still live"
        );

        // The last member dies: the whole object is reclaimed.
        let t = tm.begin(NodeId(1));
        tm.record_free(
            t,
            CLOUD_SPACE_SENTINEL,
            PhysicalLocator::ObjectRange {
                key,
                offset: members[2].offset,
                len: members[2].len,
            },
        )
        .unwrap();
        tm.commit(t, &sink).unwrap();
        tm.gc_tick(&sink).unwrap();
        assert!(sink.cloud.lock().contains(900));
        assert!(tm.composites().is_empty());
        assert_eq!(tm.composites().stats().reclaimed, 1);
    }

    #[test]
    fn failed_composite_delete_retries_on_next_tick() {
        let (_, tm) = manager();
        let key = ObjectKey::from_offset(70);
        let members = vec![PackMember {
            table: 1,
            page: 1,
            offset: 0,
            len: 512,
        }];
        let sink = FlakySink {
            inner: RecordingSink::default(),
            remaining_failures: Mutex::new(1),
        };
        let w = tm.begin(NodeId(1));
        tm.record_pack(w, key, members.clone()).unwrap();
        tm.commit(w, &sink).unwrap();
        let t = tm.begin(NodeId(1));
        tm.record_free(
            t,
            CLOUD_SPACE_SENTINEL,
            PhysicalLocator::ObjectRange {
                key,
                offset: 0,
                len: 512,
            },
        )
        .unwrap();
        // The commit's own gc_tick hits the fault; the composite must
        // stay pending rather than leak.
        tm.commit(t, &sink).unwrap_err();
        assert_eq!(tm.composites().len(), 1);
        tm.gc_tick(&sink).unwrap();
        assert!(sink.inner.cloud.lock().contains(70));
        assert!(tm.composites().is_empty());
    }

    /// A checkpoint's GC image holds the registry with the chain's member
    /// frees folded into its death bits, and what the chain still owes in
    /// whole keys and block runs — minus what a failed pass already
    /// deleted. A reopened manager seeded from it reclaims exactly that.
    #[test]
    fn gc_image_carries_what_the_chain_owes_and_recover_gc_reclaims_it() {
        let (_, tm) = manager();
        let key = ObjectKey::from_offset(900);
        let member = |i: u32| PackMember {
            table: 1,
            page: 10 + u64::from(i),
            offset: i * 512,
            len: 512,
        };
        let w = tm.begin(NodeId(1));
        tm.record_pack(w, key, vec![member(0), member(1)]).unwrap();
        tm.commit_deferred(w).unwrap();
        let reader = tm.begin(NodeId(2));
        let t = tm.begin(NodeId(1));
        let first = PhysicalLocator::ObjectRange {
            key,
            offset: 0,
            len: 512,
        };
        tm.record_free(t, CLOUD_SPACE_SENTINEL, first).unwrap();
        for off in 40..45 {
            tm.record_free(t, DbSpaceId(1), cloud(off)).unwrap();
        }
        let run = PhysicalLocator::Blocks {
            start: BlockNum(64),
            count: 4,
        };
        tm.record_free(t, DbSpaceId(2), run).unwrap();
        tm.commit_deferred(t).unwrap();

        // The reader pins the entry: the registry has no death yet, the
        // image does.
        let image = tm.gc_image(&tm.fence().quiesce());
        assert_eq!(image.composites[&900].dead, [true, false]);
        assert_eq!(tm.composites().live_fraction(key), Some(1.0));
        assert_eq!(image.pending.keys.runs(), &[(40, 45)]);
        assert_eq!(image.pending.blocks[&2], [(64, 4)]);

        // A pass that fails on one key requeues the entry owing only it.
        tm.rollback(reader, &RecordingSink::default()).unwrap();
        let sink = FlakySink {
            inner: RecordingSink::default(),
            remaining_failures: Mutex::new(1),
        };
        tm.gc_tick(&sink).unwrap_err();
        let image = tm.gc_image(&tm.fence().quiesce());
        assert_eq!(image.pending.keys.runs(), &[(40, 41)]);
        assert!(image.pending.blocks.is_empty());

        let (_, reopened) = manager();
        reopened.recover_gc(image.composites, image.pending.keys, &[]);
        assert_eq!(reopened.chain_len(), 1);
        assert_eq!(reopened.composites().live_fraction(key), Some(0.5));
        let sink = RecordingSink::default();
        reopened.gc_tick(&sink).unwrap();
        assert_eq!(sink.cloud.lock().runs(), &[(40, 41)]);
        assert_eq!(reopened.chain_len(), 0);
        assert_eq!(reopened.composites().stats().unknown_member_frees, 0);
    }

    #[test]
    fn chain_drains_in_order() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let blocker = tm.begin(NodeId(3));
        for i in 0..3u64 {
            let t = tm.begin(NodeId(1));
            tm.record_free(t, DbSpaceId(1), cloud(100 + i)).unwrap();
            tm.commit(t, &sink).unwrap();
        }
        assert_eq!(tm.chain_len(), 3);
        tm.rollback(blocker, &sink).unwrap();
        let n = tm.gc_tick(&sink).unwrap();
        assert_eq!(n, 3);
        assert_eq!(tm.chain_len(), 0);
    }

    /// Sink that fails its first `fail_first` deletions (a crash during
    /// GC), then recovers.
    struct FlakySink {
        inner: RecordingSink,
        remaining_failures: Mutex<u32>,
    }

    impl DeletionSink for FlakySink {
        fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome {
            per_page(pages, |loc| {
                let mut g = self.remaining_failures.lock();
                if *g > 0 {
                    *g -= 1;
                    return Err(IqError::Io("sink crashed".into()));
                }
                drop(g);
                self.inner.record(space, loc)
            })
        }
    }

    #[test]
    fn gc_tick_requeues_entry_when_sink_fails() {
        let (_, tm) = manager();
        let sink = FlakySink {
            inner: RecordingSink::default(),
            remaining_failures: Mutex::new(1),
        };
        let w = tm.begin(NodeId(1));
        for off in 40..45 {
            tm.record_free(w, DbSpaceId(1), cloud(off)).unwrap();
        }
        tm.commit(w, &sink).unwrap_err(); // commit's own gc_tick hits the fault
        assert_eq!(
            tm.chain_len(),
            1,
            "a failed GC must requeue the entry, not leak it"
        );
        // The sink heals; the next tick reclaims every RF page.
        tm.gc_tick(&sink).unwrap();
        assert_eq!(tm.chain_len(), 0);
        assert_eq!(sink.inner.cloud.lock().runs(), &[(40, 45)]);
    }

    #[test]
    fn requeued_entry_resumes_without_double_counting() {
        let (_, tm) = manager();
        let sink = FlakySink {
            inner: RecordingSink::default(),
            remaining_failures: Mutex::new(1),
        };
        let w = tm.begin(NodeId(1));
        for off in 40..45 {
            tm.record_free(w, DbSpaceId(1), cloud(off)).unwrap();
        }
        tm.commit(w, &sink).unwrap_err();
        // Four of five landed before the fault; the entry's resume point
        // records them so they are neither re-driven nor re-counted.
        assert_eq!(tm.gc_stats().keys_deleted, 4);
        let healed = tm.gc_tick(&sink).unwrap();
        assert_eq!(healed, 1, "only the failed page is re-driven");
        assert_eq!(tm.gc_stats().keys_deleted, 5);
        assert_eq!(tm.gc_stats().requeues, 1);
        assert_eq!(sink.inner.cloud.lock().runs(), &[(40, 45)]);
        assert_eq!(tm.chain_len(), 0);
    }

    /// Sink overriding the bulk path: records pages and charges one
    /// request per ≤1000-page call, like a multi-object delete.
    #[derive(Default)]
    struct BatchRecordingSink {
        inner: RecordingSink,
        call_sizes: Mutex<Vec<usize>>,
    }

    impl DeletionSink for BatchRecordingSink {
        fn delete_pages(&self, space: DbSpaceId, pages: &[PhysicalLocator]) -> BulkDeleteOutcome {
            self.call_sizes.lock().push(pages.len());
            BulkDeleteOutcome {
                requests: pages.len().div_ceil(1000) as u64,
                ..per_page(pages, |loc| self.inner.record(space, loc))
            }
        }
    }

    #[test]
    fn gc_dedupes_keys_across_entries_into_one_batch() {
        let (_, tm) = manager();
        let sink = BatchRecordingSink::default();
        let blocker = tm.begin(NodeId(3));
        // Two entries free overlapping key ranges; the drain submits each
        // key once.
        let t1 = tm.begin(NodeId(1));
        for off in 100..110 {
            tm.record_free(t1, DbSpaceId(1), cloud(off)).unwrap();
        }
        tm.commit(t1, &sink).unwrap();
        let t2 = tm.begin(NodeId(1));
        for off in 105..115 {
            tm.record_free(t2, DbSpaceId(1), cloud(off)).unwrap();
        }
        tm.commit(t2, &sink).unwrap();
        tm.rollback(blocker, &sink).unwrap();
        tm.gc_tick(&sink).unwrap();
        assert_eq!(tm.chain_len(), 0);
        assert_eq!(sink.inner.cloud.lock().runs(), &[(100, 115)]);
        assert_eq!(
            *sink.call_sizes.lock(),
            vec![15],
            "one deduped batch for both entries"
        );
        let stats = tm.gc_stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.requests_saved, 14);
        assert_eq!(stats.batches, 1);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    struct Round {
        allocs: Vec<u64>,
        frees: Vec<u64>,
        runs: Vec<(u64, u8)>,
        rollback: bool,
        toggle_reader: bool,
    }

    /// A deterministic random RF/RB history: allocations, frees of live
    /// keys, conventional block-run frees, rollbacks, and a long reader
    /// that toggles to force chain buildup.
    fn random_history(seed: u64, rounds: usize) -> Vec<Round> {
        let mut s = seed;
        let mut next_key = 1_000u64;
        let mut next_block = 0u64;
        let mut live: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for _ in 0..rounds {
            let allocs: Vec<u64> = (0..splitmix(&mut s) % 6)
                .map(|_| {
                    let k = next_key;
                    next_key += 1;
                    k
                })
                .collect();
            let mut frees = Vec::new();
            let want = (splitmix(&mut s) % 4) as usize;
            for _ in 0..want {
                if live.is_empty() {
                    break;
                }
                let i = (splitmix(&mut s) as usize) % live.len();
                frees.push(live.swap_remove(i));
            }
            let runs: Vec<(u64, u8)> = (0..splitmix(&mut s) % 3)
                .map(|_| {
                    let count = 1 + (splitmix(&mut s) % 4) as u8;
                    let start = next_block;
                    next_block += u64::from(count);
                    (start, count)
                })
                .collect();
            let rollback = splitmix(&mut s).is_multiple_of(5);
            if !rollback {
                live.extend(&allocs);
            }
            out.push(Round {
                allocs,
                frees,
                runs,
                rollback,
                toggle_reader: splitmix(&mut s).is_multiple_of(3),
            });
        }
        out
    }

    fn run_history(
        history: &[Round],
        sink: &dyn DeletionSink,
        workers: usize,
    ) -> (GcStatsSnapshot, usize) {
        let (_, tm) = manager();
        tm.set_gc_workers(workers);
        let mut reader = None;
        for r in history {
            if r.toggle_reader {
                match reader.take() {
                    Some(t) => tm.rollback(t, sink).unwrap(),
                    None => reader = Some(tm.begin(NodeId(9))),
                }
            }
            let t = tm.begin(NodeId(1));
            for &k in &r.allocs {
                tm.record_alloc(t, DbSpaceId(1), cloud(k)).unwrap();
            }
            for &k in &r.frees {
                tm.record_free(t, DbSpaceId(1), cloud(k)).unwrap();
            }
            for &(start, count) in &r.runs {
                tm.record_free(
                    t,
                    DbSpaceId(2),
                    PhysicalLocator::Blocks {
                        start: BlockNum(start),
                        count,
                    },
                )
                .unwrap();
            }
            if r.rollback {
                tm.rollback(t, sink).unwrap();
            } else {
                tm.commit(t, sink).unwrap();
            }
        }
        if let Some(t) = reader {
            tm.rollback(t, sink).unwrap();
        }
        tm.gc_tick(sink).unwrap();
        assert_eq!(tm.chain_len(), 0);
        (tm.gc_stats(), tm.active_count())
    }

    /// Blocks covered by a recorded run list, as a canonical set (GC
    /// coalescing may trim with different run boundaries).
    fn covered_blocks(runs: &[(u32, u64, u8)]) -> std::collections::BTreeSet<(u32, u64)> {
        runs.iter()
            .flat_map(|&(space, start, count)| {
                (start..start + u64::from(count)).map(move |b| (space, b))
            })
            .collect()
    }

    #[test]
    fn batched_gc_reclaims_same_pages_as_per_key_baseline() {
        for seed in [1u64, 7, 42, 1337] {
            let history = random_history(seed, 48);
            // Baseline: a per-page sink, one request per page, serial GC.
            let per_key = RecordingSink::default();
            let (base_stats, _) = run_history(&history, &per_key, 1);
            // Batched: multi-object sink, parallel fan-out.
            let batched = BatchRecordingSink::default();
            let (batch_stats, _) = run_history(&history, &batched, 4);

            assert_eq!(
                per_key.cloud.lock().runs(),
                batched.inner.cloud.lock().runs(),
                "seed {seed}: reclaimed key sets diverge"
            );
            assert_eq!(
                covered_blocks(&per_key.blocks.lock()),
                covered_blocks(&batched.inner.blocks.lock()),
                "seed {seed}: reclaimed block sets diverge"
            );
            assert_eq!(
                base_stats.keys_deleted, batch_stats.keys_deleted,
                "seed {seed}"
            );
            if base_stats.keys_deleted > base_stats.ticks {
                assert!(
                    batch_stats.requests < base_stats.requests,
                    "seed {seed}: batching must cut request count \
                     ({} vs {})",
                    batch_stats.requests,
                    base_stats.requests
                );
            }
        }
    }

    #[test]
    fn gc_budget_limits_entries_per_tick() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let blocker = tm.begin(NodeId(3));
        for i in 0..4u64 {
            let t = tm.begin(NodeId(1));
            tm.record_free(t, DbSpaceId(1), cloud(200 + i)).unwrap();
            tm.commit(t, &sink).unwrap();
        }
        tm.rollback(blocker, &sink).unwrap();
        assert_eq!(tm.gc_tick_budget(&sink, 3).unwrap(), 3);
        assert_eq!(tm.chain_len(), 1, "budget leaves the tail queued");
        assert_eq!(tm.gc_tick_budget(&sink, 3).unwrap(), 1);
        assert_eq!(tm.chain_len(), 0);
    }

    #[test]
    fn node_crash_aborts_without_rb_application() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let t1 = tm.begin(NodeId(1));
        let _t2 = tm.begin(NodeId(2));
        tm.record_alloc(t1, DbSpaceId(1), cloud(7)).unwrap();
        let aborted = tm.abort_node(NodeId(1));
        assert_eq!(aborted, vec![t1]);
        assert_eq!(tm.active_count(), 1);
        // Nothing deleted here: the crashed node's allocations are
        // reclaimed by coordinator active-set polling, not by the RB.
        assert!(sink.cloud.lock().is_empty());
        assert!(tm.snapshot_seq(t1).is_err());
    }

    #[test]
    fn conventional_blocks_flow_through_sink() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        let t = tm.begin(NodeId(1));
        tm.record_alloc(
            t,
            DbSpaceId(4),
            PhysicalLocator::Blocks {
                start: iq_common::BlockNum(32),
                count: 4,
            },
        )
        .unwrap();
        tm.rollback(t, &sink).unwrap();
        assert_eq!(*sink.blocks.lock(), vec![(4, 32, 4)]);
    }

    #[test]
    fn unknown_txn_errors() {
        let (_, tm) = manager();
        let sink = RecordingSink::default();
        assert!(tm.record_alloc(TxnId(999), DbSpaceId(1), cloud(1)).is_err());
        assert!(tm.commit(TxnId(999), &sink).is_err());
        assert!(tm.rollback(TxnId(999), &sink).is_err());
        assert!(tm.snapshot_seq(TxnId(999)).is_err());
    }

    // ---- ImmediateDeletion: the one dbspace-registry sink ----

    fn cloud_space(id: u32) -> (Arc<ObjectStoreSim>, Arc<DbSpace>) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        let space = Arc::new(DbSpace::cloud(
            DbSpaceId(id),
            "c",
            StorageConfig::test_small(),
            store.clone(),
            RetryPolicy::default(),
        ));
        (store, space)
    }

    fn data_page(id: u64) -> Page {
        Page::new(
            PageId(id),
            VersionId(1),
            PageKind::Data,
            Bytes::from(vec![id as u8; 64]),
        )
    }

    #[test]
    fn mixed_batch_answers_in_input_order() {
        let sink = ImmediateDeletion::new();
        let (store, cloud) = cloud_space(1);
        let dev = Arc::new(BlockDeviceSim::new(
            StorageConfig::test_small().block_size(),
            256,
        ));
        let conv = Arc::new(
            DbSpace::conventional(DbSpaceId(2), "m", StorageConfig::test_small(), dev).unwrap(),
        );
        sink.register(cloud.clone());
        sink.register(conv.clone());
        let keys = CountingKeySource::default();
        let cloud_loc = cloud.write_page(&data_page(1), &keys).unwrap();
        let conv_loc = conv.write_page(&data_page(1), &keys).unwrap();
        let absent = PhysicalLocator::Object(ObjectKey::from_offset(12345));
        let member = PhysicalLocator::ObjectRange {
            key: ObjectKey::from_offset(7),
            offset: 0,
            len: 8,
        };
        // Objects, a block run and a composite member interleaved: the
        // objects leave in one multi-object request whatever their place
        // in the batch, and every page answers at its own index.
        let batch = [cloud_loc, conv_loc, member, absent];
        let out = sink.delete_pages(DbSpaceId(2), &batch);
        let locs: Vec<PhysicalLocator> = out.results.iter().map(|(l, _)| *l).collect();
        assert_eq!(locs, batch);
        let ok: Vec<bool> = out.results.iter().map(|(_, r)| r.is_ok()).collect();
        // A never-written key is a no-op; a member is never deletable on
        // its own.
        assert_eq!(ok, [true, true, false, true]);
        assert!(matches!(out.results[2].1, Err(IqError::Invalid(_))));
        assert_eq!(out.requests, 2, "one multi-object delete, one block run");
        assert_eq!(store.object_count(), 0);
        let PhysicalLocator::Blocks { start, .. } = conv_loc else {
            panic!("conventional pages get block runs");
        };
        assert_eq!(conv.with_freelist(|f| f.is_used(start)), Some(false));
        assert_eq!(store.stats.snapshot().op(IoOp::Head).count, 0);

        // A block run on an unknown dbspace errors, and only that run.
        let out = sink.delete_pages(DbSpaceId(9), &[conv_loc, absent]);
        assert!(matches!(out.results[0].1, Err(IqError::NotFound(_))));
        assert!(out.results[1].1.is_ok());
    }

    #[test]
    fn bulk_path_batches_cloud_keys_into_one_request() {
        let sink = ImmediateDeletion::new();
        let (store, cloud) = cloud_space(1);
        sink.register(cloud.clone());

        let keys = CountingKeySource::default();
        let mut locs = Vec::new();
        for i in 0..20u64 {
            locs.push(cloud.write_page(&data_page(i), &keys).unwrap());
        }
        // An absent key rides along: blind batch deletes are no-ops there.
        locs.push(PhysicalLocator::Object(ObjectKey::from_offset(999_999)));
        let out = sink.delete_pages(DbSpaceId(u32::MAX), &locs);
        assert_eq!(out.results.len(), 21);
        assert!(out.results.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(out.requests, 1, "21 keys fit one multi-object request");
        assert_eq!(store.stats.snapshot().op(IoOp::Delete).count, 1);
        assert_eq!(store.stats.snapshot().op(IoOp::Head).count, 0);
        assert_eq!(store.object_count(), 0);
    }
}
