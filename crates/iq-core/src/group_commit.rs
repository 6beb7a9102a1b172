//! Durable transaction-log uploads and group commit.
//!
//! The paper keeps the transaction log on strongly consistent storage
//! (§3.1); this module gives the simulation a measurable stand-in. A
//! [`DurableLog`] is a [`LogSink`] over its own strongly consistent
//! [`ObjectStoreSim`], reached through the database's shared
//! [`IoReactor`] — so log PUTs take the same gate, and are counted in
//! the same `io.*` numbers, as page traffic.
//!
//! Two upload modes ([`GroupCommitMode`]):
//!
//! * `PerAppend` — every record becomes one PUT. This is the naive
//!   baseline: N concurrent committers cost N log PUTs.
//! * `Coalesced` — group commit. [`Database::commit`] calls
//!   [`DurableLog::enter_commit`] before doing any work, which *arms*
//!   the calling thread and registers it as an expected committer. When
//!   the commit record reaches the sink, the first arrival with no
//!   active leader becomes the **gather leader**: it waits until every
//!   expected committer has either appended its commit record or
//!   aborted (guard drop), then uploads the whole batch as ONE PUT.
//!   Later arrivals are followers — they park until the leader's upload
//!   covers their record. N concurrent committers cost 1 log PUT.
//!
//! [`Database::commit`]: crate::Database::commit
//!
//! Determinism: single-threaded workloads have exactly one expected
//! committer at a time, so every batch has size 1 and the PUT order
//! equals the append order — `Coalesced` under no concurrency behaves
//! like `PerAppend` with the same request count.
//!
//! **Durability contract.** Every log PUT goes through the configured
//! [`RetryPolicy`]; a PUT that fails past its retry budget *propagates*:
//! the leader's own commit fails, and every rider gathered into the
//! failed batch fails with it ([`CommitOutcome::FailedPut`]) — a rider's
//! `enter_commit` window resolves only once its batch PUT has landed or
//! failed, never before. `Database::commit` rolls a failed commit back
//! exactly like a blockmap-cascade failure, so a successful commit
//! return now guarantees the commit record reached the log store.
//! The store itself can be wrapped in an optional [`FaultInjector`]
//! (`DatabaseConfig::log_fault`) so that contract is testable.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use iq_common::{IoStats, IqError, IqResult, ObjectKey};
use iq_objectstore::{
    ConsistencyConfig, FaultInjector, FaultPlan, IoReactor, ObjectBackend, ObjectStoreSim,
    ReactorStore, RetryPolicy,
};
use iq_txn::{LogRecord, LogSink};
use parking_lot::{Condvar, Mutex};

use crate::config::GroupCommitMode;

/// Log-object keys start here — far above any data key the generator
/// will allocate in a simulated run, so dumps of the two stores are
/// never confusable (the log store is private, so this is hygiene, not
/// correctness). Recovery lists the log keyspace from this base.
pub(crate) const LOG_KEY_BASE: u64 = 1 << 40;

thread_local! {
    /// Whether the current thread is inside a [`DurableLog::enter_commit`]
    /// window whose commit record has not yet reached the sink.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Lifetime counters for the durable log (the group-commit ablation
/// reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableLogStats {
    /// Records handed to the sink.
    pub appends: u64,
    /// PUT requests issued against the log store (logical uploads; each
    /// may cost several attempts through the retry layer).
    pub puts: u64,
    /// Commit records that reached durability inside a multi-record
    /// batch (i.e. whose PUT was saved by coalescing).
    pub coalesced_records: u64,
    /// Gathered batches of size > 1.
    pub gathered_batches: u64,
    /// Largest batch uploaded.
    pub max_batch: u64,
    /// Uploads that failed past the retry budget — each failed PUT
    /// counts exactly once, however many retry attempts it burned, and
    /// its failure propagated to every commit it covered.
    pub put_failures: u64,
    /// Commit windows that closed without an append (aborted commits,
    /// resolved as [`CommitOutcome::Deregistered`]).
    pub deregistered: u64,
}

/// How one commit's durability window resolved (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The record's batch PUT landed; the commit record is durable.
    Flushed,
    /// The record's batch PUT failed past the retry budget; the commit
    /// must fail and roll back.
    FailedPut,
    /// The window closed without an append — an aborted commit; no
    /// record was ever gathered.
    Deregistered,
}

#[derive(Default)]
struct GatherState {
    /// Committers inside an `enter_commit` window that have not yet
    /// appended (or aborted). The leader holds the batch open while
    /// this is nonzero.
    expected: usize,
    /// Commit records gathered for the next upload.
    pending: Vec<LogRecord>,
    /// Commit records ever accepted into `pending` (assigns each
    /// record its durability index).
    accepted: u64,
    /// Records resolved so far — durable *or* failed (the rider-wait
    /// high-water mark). Batches resolve in index order, one leader at
    /// a time.
    resolved: u64,
    /// Resolved index ranges `[start, end)` whose batch PUT failed.
    /// Failures are rare (a retry budget must be exhausted), so only
    /// the failed ranges are remembered; everything else below
    /// `resolved` is flushed.
    failed: Vec<(u64, u64)>,
    /// A leader is gathering or uploading.
    leader_active: bool,
}

impl GatherState {
    /// Outcome for a resolved record index.
    fn outcome(&self, index: u64) -> CommitOutcome {
        debug_assert!(self.resolved > index);
        if self.failed.iter().any(|&(s, e)| s <= index && index < e) {
            CommitOutcome::FailedPut
        } else {
            CommitOutcome::Flushed
        }
    }
}

/// Durable transaction-log uploader. See module docs.
pub struct DurableLog {
    mode: GroupCommitMode,
    /// The log store behind the shared reactor (stacked retry → reactor
    /// → injector → sim, like every other cloud backend).
    store: Arc<dyn ObjectBackend>,
    /// The concrete sim (request-ledger inspection, recovery reads).
    sim: Arc<ObjectStoreSim>,
    /// Optional scripted fault injector wrapping the sim
    /// (`DatabaseConfig::log_fault`); crash scripts arm cuts through it.
    injector: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    next_key: AtomicU64,
    io_stats: Option<Arc<IoStats>>,
    gather: Mutex<GatherState>,
    cv: Condvar,
    appends: AtomicU64,
    puts: AtomicU64,
    coalesced_records: AtomicU64,
    gathered_batches: AtomicU64,
    max_batch: AtomicU64,
    put_failures: AtomicU64,
    deregistered: AtomicU64,
}

impl DurableLog {
    /// A durable log in `mode` over a fresh store, uploading through
    /// `reactor` and charging coalesced appends into `io_stats` when
    /// present. `retry` covers every upload; `fault` optionally wraps
    /// the store in a scripted [`FaultInjector`].
    pub fn new(
        mode: GroupCommitMode,
        reactor: Arc<IoReactor>,
        io_stats: Option<Arc<IoStats>>,
        retry: RetryPolicy,
        fault: Option<FaultPlan>,
    ) -> Self {
        let sim = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        Self::over_store(mode, reactor, io_stats, retry, fault, sim)
    }

    /// A durable log resuming a *surviving* store after a restart: key
    /// allocation continues strictly above every object already present,
    /// so never-write-twice holds on the log keyspace across reopens.
    pub fn over_store(
        mode: GroupCommitMode,
        reactor: Arc<IoReactor>,
        io_stats: Option<Arc<IoStats>>,
        retry: RetryPolicy,
        fault: Option<FaultPlan>,
        sim: Arc<ObjectStoreSim>,
    ) -> Self {
        let next_key = sim
            .live_keys()
            .last()
            .map(|k| k.offset() + 1)
            .unwrap_or(LOG_KEY_BASE)
            .max(LOG_KEY_BASE);
        let (store, injector) = ReactorStore::stack(reactor, Arc::clone(&sim), fault);
        Self {
            mode,
            store,
            sim,
            injector,
            retry,
            next_key: AtomicU64::new(next_key),
            io_stats,
            gather: Mutex::new(GatherState::default()),
            cv: Condvar::new(),
            appends: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            coalesced_records: AtomicU64::new(0),
            gathered_batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            put_failures: AtomicU64::new(0),
            deregistered: AtomicU64::new(0),
        }
    }

    /// The upload mode.
    pub fn mode(&self) -> GroupCommitMode {
        self.mode
    }

    /// The private log store's sim (request-ledger inspection, recovery).
    pub fn sim(&self) -> &Arc<ObjectStoreSim> {
        &self.sim
    }

    /// The scripted fault injector wrapping the log store, when
    /// `log_fault` is configured (crash scripts arm cuts through this).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Mirror a pre-existing in-memory log history into the store as one
    /// object — used when a durable log is first installed over a log
    /// that already has records (reopen with uploads newly enabled), so
    /// the durable stream stays a superset of memory and a later
    /// reconciliation never drops a genuinely committed transaction.
    pub fn bootstrap(&self, records: &[LogRecord]) -> IqResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.put(records)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DurableLogStats {
        DurableLogStats {
            appends: self.appends.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            coalesced_records: self.coalesced_records.load(Ordering::Relaxed),
            gathered_batches: self.gathered_batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            put_failures: self.put_failures.load(Ordering::Relaxed),
            deregistered: self.deregistered.load(Ordering::Relaxed),
        }
    }

    /// Open a commit window for the calling thread. In `Coalesced` mode
    /// this registers the thread as an expected committer — a gather
    /// leader will hold its batch open until this thread's commit
    /// record arrives (or the guard drops on abort). Call at the top of
    /// the commit path, before any flushing; keep the guard alive until
    /// after the commit record is appended.
    ///
    /// Idempotent per thread: if this thread's window is already open
    /// (e.g. a caller registered with the gather *before* entering
    /// `Database::commit`, to guarantee its record joins a batch with
    /// its peers), the nested call is a no-op guard and the committer
    /// stays registered exactly once.
    pub fn enter_commit(self: &Arc<Self>) -> CommitGuard {
        if self.mode != GroupCommitMode::Coalesced || ARMED.with(|a| a.get()) {
            return CommitGuard { log: None };
        }
        self.gather.lock().expected += 1;
        ARMED.with(|a| a.set(true));
        CommitGuard {
            log: Some(Arc::clone(self)),
        }
    }

    /// One PUT for one record.
    fn upload_one(&self, record: &LogRecord) -> IqResult<()> {
        self.put(std::slice::from_ref(record))
    }

    /// One PUT for a gathered batch.
    fn upload_batch(&self, batch: &[LogRecord]) -> IqResult<()> {
        let res = self.put(batch);
        self.max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        if batch.len() > 1 {
            self.gathered_batches.fetch_add(1, Ordering::Relaxed);
            self.coalesced_records
                .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
            if let Some(stats) = &self.io_stats {
                stats.note_coalesced_batch(batch.len());
            }
        }
        res
    }

    /// One logical upload: burns one log key (never-write-twice — a
    /// retried or failed key is never reused), retries transient errors
    /// through the policy, and on exhaustion counts the failure exactly
    /// once and returns it.
    fn put(&self, records: &[LogRecord]) -> IqResult<()> {
        let key = ObjectKey::from_offset(self.next_key.fetch_add(1, Ordering::Relaxed));
        self.puts.fetch_add(1, Ordering::Relaxed);
        let body = encode(records);
        self.retry
            .put(self.store.as_ref(), key, body.into())
            .inspect_err(|_| {
                self.put_failures.fetch_add(1, Ordering::Relaxed);
            })
    }

    /// The gather path for an armed committer's commit record. Returns
    /// once this record's batch PUT has landed (`Ok`) or failed past the
    /// retry budget (`Err`) — never before durability is known.
    fn append_gathered(&self, record: &LogRecord) -> IqResult<()> {
        let mut g = self.gather.lock();
        g.expected -= 1;
        let my_index = g.accepted;
        g.accepted += 1;
        g.pending.push(record.clone());
        // Wake a leader parked on `expected > 0`.
        self.cv.notify_all();
        loop {
            if g.resolved > my_index {
                return match g.outcome(my_index) {
                    CommitOutcome::Flushed => Ok(()),
                    CommitOutcome::FailedPut => Err(IqError::Io(
                        "durable log: gathered commit PUT failed past retry budget".into(),
                    )),
                    // Unreachable: this thread appended, so its window
                    // cannot have resolved as deregistered.
                    CommitOutcome::Deregistered => unreachable!("appended record deregistered"),
                };
            }
            if !g.leader_active {
                g.leader_active = true;
                // Hold the batch open for every registered committer:
                // each will either append (joining the batch) or abort
                // (guard drop decrements `expected`).
                while g.expected > 0 {
                    self.cv.wait(&mut g);
                }
                let batch = std::mem::take(&mut g.pending);
                let covered = g.accepted;
                let first = covered - batch.len() as u64;
                drop(g);
                // LOCK-OK: the upload runs with the gather lock
                // released so late committers can keep registering.
                let res = self.upload_batch(&batch);
                g = self.gather.lock();
                if res.is_err() {
                    // The whole batch failed with one PUT: every rider
                    // in `[first, covered)` fails alongside the leader.
                    g.failed.push((first, covered));
                }
                g.resolved = covered;
                g.leader_active = false;
                self.cv.notify_all();
            } else {
                self.cv.wait(&mut g);
            }
        }
    }
}

impl LogSink for DurableLog {
    fn append(&self, record: &LogRecord, _lsn: u64) -> IqResult<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        let gather = self.mode == GroupCommitMode::Coalesced
            && matches!(record, LogRecord::Commit { .. })
            && ARMED.with(|a| a.replace(false));
        if gather {
            self.append_gathered(record)
        } else {
            // `PerAppend` always; in `Coalesced`, the non-commit
            // records (allocations, checkpoints) and commit records
            // from threads outside a commit window.
            self.upload_one(record)
        }
    }
}

/// RAII token for one thread's commit window (see
/// [`DurableLog::enter_commit`]). Dropping it *before* the commit
/// record was appended deregisters the committer so a waiting gather
/// leader is not stranded — that is the abort/rollback path.
pub struct CommitGuard {
    log: Option<Arc<DurableLog>>,
}

impl Drop for CommitGuard {
    fn drop(&mut self) {
        let Some(log) = &self.log else { return };
        if ARMED.with(|a| a.replace(false)) {
            // The window closed without an append: an aborted commit,
            // resolved as `CommitOutcome::Deregistered`.
            log.deregistered.fetch_add(1, Ordering::Relaxed);
            log.gather.lock().expected -= 1;
            log.cv.notify_all();
        }
    }
}

/// Stable wire form for uploaded records (JSON keeps the store dump
/// human-inspectable; the sim charges request counts, not bytes).
fn encode(records: &[LogRecord]) -> Vec<u8> {
    serde_json::to_vec(records).expect("log records serialize")
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use iq_common::{NodeId, TxnId};
    use iq_txn::rfrb::RfRb;

    use super::*;

    fn commit_record(txn: u64) -> LogRecord {
        LogRecord::Commit {
            txn: TxnId(txn),
            node: NodeId(0),
            rfrb: RfRb::default(),
        }
    }

    fn durable(mode: GroupCommitMode) -> Arc<DurableLog> {
        Arc::new(DurableLog::new(
            mode,
            Arc::new(IoReactor::new()),
            None,
            RetryPolicy::attempts(3),
            None,
        ))
    }

    /// A durable log whose store fails every PUT (zero-budget plan), so
    /// each logical upload exhausts its retries.
    fn failing(mode: GroupCommitMode) -> Arc<DurableLog> {
        let plan = FaultPlan {
            put_fail_rate: 1.0,
            ..FaultPlan::default()
        };
        Arc::new(DurableLog::new(
            mode,
            Arc::new(IoReactor::new()),
            None,
            RetryPolicy::attempts(2),
            Some(plan),
        ))
    }

    #[test]
    fn per_append_costs_one_put_per_record() {
        let log = durable(GroupCommitMode::PerAppend);
        for i in 0..5 {
            log.append(&commit_record(i), i).unwrap();
        }
        let s = log.stats();
        assert_eq!(s.appends, 5);
        assert_eq!(s.puts, 5);
        assert_eq!(s.gathered_batches, 0);
    }

    #[test]
    fn nested_commit_windows_register_exactly_once() {
        let log = durable(GroupCommitMode::Coalesced);
        // A caller opens the window early; the commit path's own
        // enter_commit nests as a no-op.
        let outer = log.enter_commit();
        let inner = log.enter_commit();
        assert_eq!(log.gather.lock().expected, 1);
        // Abort without appending: dropping both guards deregisters the
        // single registration, whatever the drop order.
        drop(inner);
        assert_eq!(log.gather.lock().expected, 1, "no-op guard frees nothing");
        drop(outer);
        assert_eq!(log.gather.lock().expected, 0);
        assert_eq!(log.stats().deregistered, 1);

        // And the appending path: the record disarms the window, the
        // guards are then inert.
        let outer = log.enter_commit();
        let _inner = log.enter_commit();
        log.append(&commit_record(7), 0).unwrap();
        drop(outer);
        assert_eq!(log.gather.lock().expected, 0);
        assert_eq!(log.stats().puts, 1);
        assert_eq!(
            log.stats().deregistered,
            1,
            "appended window is not an abort"
        );
    }

    #[test]
    fn coalesced_without_concurrency_matches_per_append() {
        let log = durable(GroupCommitMode::Coalesced);
        for i in 0..3 {
            let _guard = log.enter_commit();
            log.append(&commit_record(i), i).unwrap();
        }
        let s = log.stats();
        assert_eq!(s.puts, 3);
        assert_eq!(s.max_batch, 1);
    }

    #[test]
    fn concurrent_commits_coalesce_into_one_put() {
        let log = durable(GroupCommitMode::Coalesced);
        const N: usize = 8;
        let start = Barrier::new(N);
        let ready = Barrier::new(N);
        std::thread::scope(|s| {
            for i in 0..N {
                let log = &log;
                let start = &start;
                let ready = &ready;
                s.spawn(move || {
                    let _guard = log.enter_commit();
                    // Every committer registers before any appends, so
                    // the leader must gather all N records.
                    ready.wait();
                    start.wait();
                    log.append(&commit_record(i as u64), i as u64).unwrap();
                });
            }
        });
        let s = log.stats();
        assert_eq!(s.appends, N as u64);
        assert_eq!(s.puts, 1, "one gathered PUT for {N} commits");
        assert_eq!(s.max_batch, N as u64);
        assert_eq!(s.coalesced_records, N as u64 - 1);
    }

    #[test]
    fn aborted_commit_does_not_strand_the_leader() {
        let log = durable(GroupCommitMode::Coalesced);
        let aborter = Arc::clone(&log);
        let committer = Arc::clone(&log);
        let gate = Arc::new(Barrier::new(2));
        let gate2 = Arc::clone(&gate);
        let t1 = std::thread::spawn(move || {
            let guard = aborter.enter_commit();
            gate.wait();
            // Abort: drop the guard without appending.
            drop(guard);
        });
        let t2 = std::thread::spawn(move || {
            let _guard = committer.enter_commit();
            gate2.wait();
            // The leader must not wait forever on the aborter.
            committer.append(&commit_record(1), 0).unwrap();
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let s = log.stats();
        assert_eq!(s.appends, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.deregistered, 1);
    }

    #[test]
    fn non_commit_records_bypass_the_gather() {
        let log = durable(GroupCommitMode::Coalesced);
        let _guard = log.enter_commit();
        log.append(
            &LogRecord::AllocateRange {
                node: NodeId(0),
                start: 0,
                end: 10,
            },
            0,
        )
        .unwrap();
        // The window is still armed: only a Commit record consumes it.
        log.append(&commit_record(1), 1).unwrap();
        let s = log.stats();
        assert_eq!(s.puts, 2);
    }

    #[test]
    fn log_store_receives_the_puts() {
        let log = durable(GroupCommitMode::PerAppend);
        log.append(&commit_record(1), 0).unwrap();
        assert_eq!(log.sim().object_count(), 1);
    }

    #[test]
    fn exhausted_put_propagates_and_counts_once() {
        let log = failing(GroupCommitMode::PerAppend);
        assert!(log.append(&commit_record(1), 0).is_err());
        let s = log.stats();
        // One logical upload failed once, however many attempts the
        // retry layer burned.
        assert_eq!(s.puts, 1);
        assert_eq!(s.put_failures, 1);
        assert_eq!(log.sim().object_count(), 0, "nothing became durable");
    }

    #[test]
    fn failed_batch_fails_leader_and_every_rider() {
        let log = failing(GroupCommitMode::Coalesced);
        const N: usize = 4;
        let start = Barrier::new(N);
        let ready = Barrier::new(N);
        let errs: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|i| {
                    let log = &log;
                    let start = &start;
                    let ready = &ready;
                    s.spawn(move || {
                        let _guard = log.enter_commit();
                        ready.wait();
                        start.wait();
                        log.append(&commit_record(i as u64), i as u64).is_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(errs.iter().all(|&e| e), "all {N} commits must fail");
        let s = log.stats();
        assert_eq!(s.puts, 1, "one batch PUT covered all {N} commits");
        assert_eq!(s.put_failures, 1, "one failed upload, counted once");
    }

    #[test]
    fn failed_batch_does_not_poison_later_batches() {
        let log = failing(GroupCommitMode::Coalesced);
        {
            let _guard = log.enter_commit();
            assert!(log.append(&commit_record(1), 0).is_err());
        }
        // Heal the store and commit again: the gather must hand out
        // fresh indices with a clean outcome.
        log.fault_injector().unwrap().set_plan(FaultPlan::none());
        let _guard = log.enter_commit();
        log.append(&commit_record(2), 1).unwrap();
        let s = log.stats();
        assert_eq!(s.puts, 2);
        assert_eq!(s.put_failures, 1);
        assert_eq!(log.sim().object_count(), 1);
    }

    #[test]
    fn resumed_store_continues_key_allocation_above_live_keys() {
        let log = durable(GroupCommitMode::PerAppend);
        log.append(&commit_record(1), 0).unwrap();
        log.append(&commit_record(2), 1).unwrap();
        let sim = Arc::clone(log.sim());
        let top = sim.live_keys().last().unwrap().offset();
        let resumed = DurableLog::over_store(
            GroupCommitMode::PerAppend,
            Arc::new(IoReactor::new()),
            None,
            RetryPolicy::attempts(3),
            None,
            sim,
        );
        resumed.append(&commit_record(3), 2).unwrap();
        let keys = resumed.sim().live_keys();
        assert_eq!(keys.len(), 3);
        assert!(keys.last().unwrap().offset() > top, "never-write-twice");
    }
}
