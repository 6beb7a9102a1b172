//! The transaction log.
//!
//! Being an OLAP system, SAP IQ's log "does not store the data that are
//! updated (which can be very large in volume); instead, it stores the
//! metadata" (§3.1). Our log carries exactly the records the paper's
//! recovery walkthrough (§3.2–3.3, Table 1) needs:
//!
//! * `Checkpoint` — the base recovery starts from ([`Checkpoint`]): the
//!   key generator's state (maximum allocated key and the per-node active
//!   sets), freelist images for conventional dbspaces, and everything the
//!   garbage collector needs to go on where it stopped — the composite
//!   registry with each composite's death bits, the committed chain's
//!   pending frees, and the retention FIFO with its clock. Once it is
//!   durable every record before it is dead weight: the database cuts the
//!   log behind it, in memory and on the log store;
//! * `AllocateRange` — "the largest allocated object key is recorded in
//!   the transaction log" on every range allocation;
//! * `Commit` — the committing transaction's RF/RB bitmap identity and the
//!   key ranges it consumed, so replay can both redo freelist effects and
//!   trim active sets, and the identity objects it installs: the log, not
//!   the catalog, is where a commit's new blockmap roots become durable.
//!
//! The log object itself lives on the (strongly consistent, durable)
//! system dbspace; in the simulation it is an `Arc`-shared structure that
//! survives node "crashes" because crashes only discard volatile state.
//! A durable sink receives each record encoded once, in the binary wire
//! format of [`crate::codec`].

use std::collections::BTreeMap;

use iq_common::trace::{self, EventKind};
use iq_common::{IqError, IqResult, KeySet, NodeId, TxnId};
use iq_storage::IdentityObject;
use parking_lot::Mutex;

use crate::codec::LogBatch;
use crate::composites::CompositeImage;
use crate::rfrb::{PageSet, RfRb};

/// One durable log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// Periodic checkpoint: replay starts at the most recent one.
    Checkpoint(Checkpoint),
    /// A key range `[start, end)` was handed to `node`.
    AllocateRange {
        /// Receiving node.
        node: NodeId,
        /// First offset of the range.
        start: u64,
        /// One past the last offset.
        end: u64,
    },
    /// A transaction committed; its RF/RB bitmaps are durable.
    Commit {
        /// The committed transaction.
        txn: TxnId,
        /// Node the transaction ran on.
        node: NodeId,
        /// The identity objects the commit installs, one per table it
        /// wrote (§3.1): reopen replays them over the catalog.
        identities: Vec<IdentityObject>,
        /// The transaction's RF/RB bitmaps ("the identities of the bitmaps
        /// are recorded in the transaction log", §3.3).
        rfrb: RfRb,
    },
}

/// Which of the three records a [`LogRecord`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// [`LogRecord::Checkpoint`].
    Checkpoint,
    /// [`LogRecord::AllocateRange`].
    AllocateRange,
    /// [`LogRecord::Commit`].
    Commit,
}

impl RecordKind {
    /// The kind's name, as the trace records it.
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Checkpoint => "Checkpoint",
            RecordKind::AllocateRange => "AllocateRange",
            RecordKind::Commit => "Commit",
        }
    }
}

impl LogRecord {
    /// The record's kind.
    pub fn kind(&self) -> RecordKind {
        match self {
            LogRecord::Checkpoint(_) => RecordKind::Checkpoint,
            LogRecord::AllocateRange { .. } => RecordKind::AllocateRange,
            LogRecord::Commit { .. } => RecordKind::Commit,
        }
    }
}

/// A checkpoint record: the state recovery "starts from" (§3.3) before it
/// replays the records logged after it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Largest object-key offset ever allocated.
    pub max_allocated: u64,
    /// Per-node active sets (outstanding key ranges), keyed by node id.
    pub active_sets: BTreeMap<u32, KeySet>,
    /// Serialized freelist image per conventional dbspace id.
    pub freelists: BTreeMap<u32, Vec<u8>>,
    /// The composite registry: every composite's member layout and death
    /// bits, keyed by composite-key offset. The committed chain's pending
    /// member frees are already folded into the death bits: no reader
    /// survives a reopen, so every chain entry is eligible there.
    pub composites: BTreeMap<u64, CompositeImage>,
    /// The committed chain's pending frees (RF minus what GC already
    /// deleted): whole-object keys and block runs.
    pub pending: PageSet,
    /// The retention FIFO and its clock, when retention is on (§5).
    pub retention: Option<RetentionImage>,
}

/// The snapshot manager's retention FIFO and clock (§5), as a checkpoint
/// carries them. Times are virtual nanoseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetentionImage {
    /// The retention clock.
    pub clock: u64,
    /// Retained pages, oldest first: `(key offset, expiry)`.
    pub fifo: Vec<(u64, u64)>,
}

/// A durability hook invoked for every appended record, *after* the
/// in-memory append completed and the log's internal lock was released.
///
/// The group-commit uploader implements this: a sink may block (a gather
/// leader waits for concurrent committers to arrive), so it must never
/// run under the log lock — otherwise a waiting leader would stop every
/// other thread from reaching its own append and deadlock the gather.
/// Consequently the `LogAppend` trace event (emitted under the lock, in
/// append order) and the sink's uploads may interleave differently under
/// concurrency; single-threaded callers see identical order.
///
/// An `Err` means the record did **not** reach durable storage (the
/// upload failed past its retry budget). Commits and checkpoints use
/// [`TxnLog::append_durable`] to observe it; allocation records via
/// [`TxnLog::append`] keep the in-memory record regardless and rely on
/// reopen-time reconciliation against the durable stream.
pub trait LogSink: Send + Sync {
    /// A record of `kind`, encoded as a batch of one, was appended as
    /// `lsn`; returns whether it became durable.
    fn append(&self, kind: RecordKind, record: LogBatch, lsn: u64) -> IqResult<()>;
}

/// Append-only shared transaction log.
#[derive(Default)]
pub struct TxnLog {
    inner: Mutex<LogInner>,
    sink: Mutex<Option<std::sync::Arc<dyn LogSink>>>,
}

impl std::fmt::Debug for TxnLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnLog")
            .field("records", &self.len())
            .field("sink", &self.sink.lock().is_some())
            .finish()
    }
}

#[derive(Debug, Default)]
struct LogInner {
    /// Every record with its log sequence number, oldest first.
    records: Vec<(u64, LogRecord)>,
    /// The sequence number of the next record. Numbers are never reused:
    /// neither truncation nor reconciliation moves it back.
    next_lsn: u64,
    /// Index of the most recent checkpoint record.
    last_checkpoint: Option<usize>,
}

impl TxnLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the durability sink mirroring appends to storage. Appends
    /// racing the installation may miss the sink; install before serving
    /// traffic.
    pub fn set_sink(&self, sink: std::sync::Arc<dyn LogSink>) {
        *self.sink.lock() = Some(sink);
    }

    /// Remove the durability sink. The log object survives simulated
    /// restarts; a reopen that disables durable uploads must not keep
    /// feeding the previous instance's sink.
    pub fn clear_sink(&self) {
        *self.sink.lock() = None;
    }

    /// Append a record; returns its log sequence number. A sink failure
    /// is swallowed here (the in-memory record stands and reopen-time
    /// reconciliation squares it with the durable stream) — commit and
    /// checkpoint records go through [`Self::append_durable`] instead.
    pub fn append(&self, record: LogRecord) -> u64 {
        self.append_inner(record).0
    }

    /// Append a record and require the sink (when installed) to make it
    /// durable: the in-memory append always happens first — so a crash
    /// between apply and upload is observable — but a sink failure is
    /// returned to the caller, whose commit must then fail and roll back,
    /// and whose checkpoint must not cut the log behind it. With no sink
    /// installed the append is trivially "durable".
    pub fn append_durable(&self, record: LogRecord) -> IqResult<u64> {
        let (lsn, sunk) = self.append_inner(record);
        sunk?;
        Ok(lsn)
    }

    fn append_inner(&self, record: LogRecord) -> (u64, IqResult<()>) {
        let sink = self.sink.lock().clone();
        let kind = record.kind();
        // Encode for the sink only when one is installed — the default
        // (no durable log) pays nothing — and only here: the sink uploads
        // these bytes as they are.
        let encoded = sink.as_ref().map(|_| LogBatch::of(&record));
        let lsn = {
            let mut g = self.inner.lock();
            if kind == RecordKind::Checkpoint {
                g.last_checkpoint = Some(g.records.len());
            }
            let lsn = g.next_lsn;
            g.next_lsn += 1;
            g.records.push((lsn, record));
            trace::emit(EventKind::LogAppend {
                record: kind.name().into(),
                lsn,
            });
            lsn
        };
        // The sink runs outside the log lock; see [`LogSink`].
        let sunk = match sink.zip(encoded) {
            Some((sink, record)) => sink.append(kind, record, lsn),
            None => Ok(()),
        };
        (lsn, sunk)
    }

    /// Every record in the log, oldest first (durable-log bootstrap: a
    /// freshly installed uploader mirrors the pre-existing history so
    /// the durable stream stays a superset of memory).
    pub fn all_records(&self) -> Vec<LogRecord> {
        let g = self.inner.lock();
        g.records.iter().map(|(_, r)| r.clone()).collect()
    }

    /// The sequence number the next appended record gets.
    pub fn next_lsn(&self) -> u64 {
        self.inner.lock().next_lsn
    }

    /// The identity objects installed by the commit records numbered
    /// `lsn` or later, in log order: what a catalog saved at `lsn` does
    /// not hold yet.
    pub fn identities_since(&self, lsn: u64) -> Vec<IdentityObject> {
        let g = self.inner.lock();
        g.records
            .iter()
            .filter(|(at, _)| *at >= lsn)
            .flat_map(|(_, record)| match record {
                LogRecord::Commit { identities, .. } => identities.as_slice(),
                _ => &[],
            })
            .copied()
            .collect()
    }

    /// Reconcile the in-memory log against the durable stream: keep
    /// every non-commit record, drop `Commit` records whose transaction
    /// `is_durable` rejects. A commit present in memory but absent from
    /// durable storage is an un-durable commit (its PUT failed, or the
    /// node died between the in-memory apply and the upload) — replaying
    /// it would resurrect freelist and composite effects of a
    /// transaction whose commit never happened. Returns how many commit
    /// records were dropped.
    pub fn retain_commits(&self, is_durable: impl Fn(TxnId) -> bool) -> usize {
        let mut g = self.inner.lock();
        let before = g.records.len();
        g.records.retain(|(_, r)| match r {
            LogRecord::Commit { txn, .. } => is_durable(*txn),
            _ => true,
        });
        // Dropping records shifts indices; re-derive the checkpoint
        // anchor (checkpoints themselves are never dropped).
        g.last_checkpoint = g
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, LogRecord::Checkpoint(_)));
        before - g.records.len()
    }

    /// Records from the most recent checkpoint (inclusive) to the tail.
    /// Recovery "starts from the last checkpoint ... and applies the RF/RB
    /// bitmaps of all committed transactions ... in order" (§3.3).
    pub fn replay_suffix(&self) -> Vec<LogRecord> {
        let g = self.inner.lock();
        let start = g.last_checkpoint.unwrap_or(0);
        g.records[start..].iter().map(|(_, r)| r.clone()).collect()
    }

    /// Total records (tests).
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent checkpoint record, if any.
    pub fn last_checkpoint(&self) -> Option<LogRecord> {
        let g = self.inner.lock();
        g.last_checkpoint.map(|i| g.records[i].1.clone())
    }

    /// Truncate everything before the last checkpoint (log reclamation).
    pub fn truncate_before_checkpoint(&self) -> IqResult<usize> {
        let mut g = self.inner.lock();
        let Some(cp) = g.last_checkpoint else {
            return Err(IqError::Invalid("no checkpoint to truncate to".into()));
        };
        g.records.drain(..cp);
        g.last_checkpoint = Some(0);
        Ok(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkpoint(max: u64) -> LogRecord {
        LogRecord::Checkpoint(Checkpoint {
            max_allocated: max,
            ..Checkpoint::default()
        })
    }

    #[test]
    fn append_and_replay_from_checkpoint() {
        let log = TxnLog::new();
        log.append(LogRecord::AllocateRange {
            node: NodeId(1),
            start: 0,
            end: 100,
        });
        log.append(checkpoint(100));
        log.append(LogRecord::AllocateRange {
            node: NodeId(1),
            start: 100,
            end: 200,
        });
        let suffix = log.replay_suffix();
        assert_eq!(suffix.len(), 2);
        assert!(matches!(suffix[0], LogRecord::Checkpoint(_)));
        assert!(matches!(
            suffix[1],
            LogRecord::AllocateRange { start: 100, .. }
        ));
    }

    #[test]
    fn replay_without_checkpoint_covers_everything() {
        let log = TxnLog::new();
        log.append(LogRecord::AllocateRange {
            node: NodeId(1),
            start: 0,
            end: 10,
        });
        assert_eq!(log.replay_suffix().len(), 1);
    }

    #[test]
    fn truncation_keeps_checkpoint() {
        let log = TxnLog::new();
        assert!(log.truncate_before_checkpoint().is_err());
        log.append(LogRecord::AllocateRange {
            node: NodeId(1),
            start: 0,
            end: 10,
        });
        log.append(checkpoint(10));
        log.append(LogRecord::AllocateRange {
            node: NodeId(1),
            start: 10,
            end: 20,
        });
        let dropped = log.truncate_before_checkpoint().unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(log.len(), 2);
        assert!(matches!(log.replay_suffix()[0], LogRecord::Checkpoint(_)));
    }

    /// Truncation and reconciliation remove records, never numbers: a
    /// catalog stamped with a sequence number still finds the commits
    /// logged from it on.
    #[test]
    fn sequence_numbers_outlive_truncation_and_reconciliation() {
        use iq_common::{ObjectKey, PhysicalLocator, TableId, VersionId};
        let identity = |table| {
            let root = PhysicalLocator::Object(ObjectKey::from_offset(9));
            IdentityObject::new(TableId(table), VersionId(1), root, 4, 0)
        };
        let commit = |txn, table| LogRecord::Commit {
            txn: TxnId(txn),
            node: NodeId(0),
            identities: vec![identity(table)],
            rfrb: RfRb::default(),
        };
        let log = TxnLog::new();
        assert_eq!(log.append(commit(1, 1)), 0);
        assert_eq!(log.append(checkpoint(0)), 1);
        assert_eq!(log.append(commit(2, 2)), 2);
        assert_eq!(log.append(commit(3, 3)), 3);
        assert_eq!(log.truncate_before_checkpoint().unwrap(), 1);
        assert_eq!(log.retain_commits(|txn| txn != TxnId(2)), 1);
        assert_eq!(log.next_lsn(), 4);
        assert_eq!(log.append(checkpoint(0)), 4);
        assert_eq!(log.identities_since(2), [identity(3)]);
        assert_eq!(log.identities_since(4), []);
    }

    #[test]
    fn last_checkpoint_tracks_newest() {
        let log = TxnLog::new();
        log.append(checkpoint(1));
        log.append(checkpoint(2));
        match log.last_checkpoint().unwrap() {
            LogRecord::Checkpoint(cp) => assert_eq!(cp.max_allocated, 2),
            _ => panic!(),
        }
    }
}
