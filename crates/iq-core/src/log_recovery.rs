//! Durable-log recovery: read the transaction-log record stream back
//! from the log store and reconcile the in-memory log against it.
//!
//! The in-memory [`TxnLog`] survives simulated restarts (crashes only
//! discard volatile state), and the commit path appends in memory
//! *before* uploading (see [`iq_txn::LogSink`]) — so after any crash,
//! memory holds a superset of the durable stream. The durable log is
//! authoritative for commits (Taurus: the log *is* the database): a
//! `Commit` record present in memory but absent from the log store is
//! an un-durable commit — its PUT failed past the retry budget, or the
//! node died between the in-memory apply and the upload — and replaying
//! it would resurrect freelist and composite effects of a transaction
//! whose commit never happened. [`reconcile`] drops exactly those
//! records, so the OKG/active-set/RF-RB replay that follows in
//! [`Database::reopen`] consumes the reconciled stream.
//!
//! Non-commit records (`Checkpoint`, `AllocateRange`) are kept from
//! memory even when the durable stream lacks them: they are monotone
//! bookkeeping (a larger max-allocated key, a wider active set) whose
//! replay can only make recovery *more* conservative — an over-wide
//! active set means extra poll-deletes of keys that were never written,
//! which the §3.3 polling protocol tolerates by design.
//!
//! [`Database::reopen`]: crate::Database::reopen
//! [`TxnLog`]: iq_txn::TxnLog

use std::collections::HashSet;
use std::sync::Arc;

use iq_common::{IqError, IqResult};
use iq_objectstore::{ObjectBackend, ObjectStoreSim};
use iq_txn::codec::decode_batch;
use iq_txn::{LogRecord, TxnLog};

use crate::group_commit::LOG_KEY_BASE;

/// What one reconciliation pass did ([`crate::Database::reopen`] copies
/// this into the `log.*` metrics source).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// GETs issued against the log store (one per live log object).
    pub recovery_gets: u64,
    /// Records reconstructed from the durable stream.
    pub replayed_records: u64,
    /// In-memory commit records dropped because their transaction was
    /// not durably committed.
    pub reconciled_drops: u64,
}

/// Read every log object in key order and reconstruct the durable
/// record stream. The log store is strongly consistent and log keys are
/// allocated monotonically from `LOG_KEY_BASE`, so key order *is*
/// upload order; each object holds one batch in the wire format of
/// [`iq_txn::codec`]. Returns the stream and the number of GETs issued.
pub fn read_durable_records(store: &Arc<ObjectStoreSim>) -> IqResult<(Vec<LogRecord>, u64)> {
    let mut records = Vec::new();
    let mut gets = 0u64;
    for key in store.live_keys() {
        if key.offset() < LOG_KEY_BASE {
            continue;
        }
        let body = store.get(key)?;
        gets += 1;
        let batch = decode_batch(&body)
            .map_err(|e| IqError::Corruption(format!("log object {key}: {e}")))?;
        records.extend(batch);
    }
    Ok((records, gets))
}

/// Reconcile `log` against the durable stream in `store`: every
/// in-memory `Commit` record whose transaction has no durable commit is
/// dropped (see module docs). Must run before any replay consumer —
/// OKG recovery, freelist restore — reads the log.
pub fn reconcile(log: &TxnLog, store: &Arc<ObjectStoreSim>) -> IqResult<RecoveryReport> {
    let (records, gets) = read_durable_records(store)?;
    let durable: HashSet<u64> = records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn, .. } => Some(txn.0),
            _ => None,
        })
        .collect();
    let drops = log.retain_commits(|txn| durable.contains(&txn.0));
    Ok(RecoveryReport {
        recovery_gets: gets,
        replayed_records: records.len() as u64,
        reconciled_drops: drops as u64,
    })
}

#[cfg(test)]
mod tests {
    use iq_common::{NodeId, TxnId};
    use iq_objectstore::{ConsistencyConfig, FaultPlan, IoReactor, RetryPolicy};
    use iq_txn::rfrb::RfRb;
    use iq_txn::{LogBatch, LogSink};

    use super::*;
    use crate::group_commit::DurableLog;

    fn commit_record(txn: u64) -> LogRecord {
        LogRecord::Commit {
            txn: TxnId(txn),
            node: NodeId(0),
            identities: Vec::new(),
            rfrb: RfRb::default(),
        }
    }

    fn alloc_record(start: u64) -> LogRecord {
        LogRecord::AllocateRange {
            node: NodeId(0),
            start,
            end: start + 10,
        }
    }

    fn durable_log(fault: Option<FaultPlan>) -> Arc<DurableLog> {
        Arc::new(DurableLog::new(
            Arc::new(IoReactor::new()),
            RetryPolicy::attempts(2),
            fault,
        ))
    }

    #[test]
    fn durable_stream_reassembles_in_upload_order() {
        let dl = durable_log(None);
        let records = vec![alloc_record(0), commit_record(1), commit_record(2)];
        for (i, r) in records.iter().enumerate() {
            dl.append(r.kind(), LogBatch::of(r), i as u64).unwrap();
        }
        let (stream, gets) = read_durable_records(dl.sim()).unwrap();
        assert_eq!(stream, records);
        assert_eq!(gets, 3);
    }

    #[test]
    fn data_keys_below_the_log_base_are_ignored() {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
        store
            .put(iq_common::ObjectKey::from_offset(7), vec![1, 2, 3].into())
            .unwrap();
        let (stream, gets) = read_durable_records(&store).unwrap();
        assert!(stream.is_empty());
        assert_eq!(gets, 0);
    }

    #[test]
    fn reconcile_is_identity_without_faults() {
        let log = TxnLog::new();
        let dl = durable_log(None);
        log.set_sink(dl.clone());
        log.append(alloc_record(0));
        log.append_durable(commit_record(1)).unwrap();
        log.append_durable(commit_record(2)).unwrap();
        let before = log.replay_suffix();
        let report = reconcile(&log, dl.sim()).unwrap();
        assert_eq!(report.reconciled_drops, 0);
        assert_eq!(log.replay_suffix(), before);
    }

    /// Every single flipped byte of a log object — header, record
    /// framing or body — makes reconciliation fail as corruption rather
    /// than drop or keep commits on the strength of damaged bytes.
    #[test]
    fn a_flipped_byte_in_a_log_object_is_corruption() {
        let log = TxnLog::new();
        let dl = durable_log(None);
        log.set_sink(dl.clone());
        log.append(alloc_record(0));
        log.append_durable(commit_record(1)).unwrap();
        let keys = dl.sim().live_keys();
        for key in keys {
            let body = dl.sim().get(key).unwrap();
            for at in 0..body.len() {
                let mut flipped = body.to_vec();
                flipped[at] ^= 0x10;
                let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::strong()));
                store.put(key, flipped.into()).unwrap();
                let err = reconcile(&log, &store).unwrap_err();
                assert!(matches!(err, IqError::Corruption(_)), "byte {at}: {err}");
            }
        }
        assert_eq!(log.len(), 2, "nothing was dropped");
    }

    #[test]
    fn reconcile_drops_undurable_commits_only() {
        let log = TxnLog::new();
        let dl = durable_log(None);
        log.set_sink(dl.clone());
        log.append(alloc_record(0));
        log.append_durable(commit_record(1)).unwrap();
        // Simulate a cut between the in-memory apply and the upload:
        // the record lands in memory but the durable stream never sees
        // it — exactly what a crash mid-commit leaves behind.
        log.clear_sink();
        log.append(commit_record(2)); // phantom: in memory, not durable
        log.set_sink(Arc::clone(&dl) as Arc<dyn LogSink>);
        log.append_durable(commit_record(3)).unwrap();
        assert_eq!(log.replay_suffix().len(), 4);

        let report = reconcile(&log, dl.sim()).unwrap();
        assert_eq!(report.reconciled_drops, 1);
        // Three durable objects: the allocation, commit 1, commit 3.
        assert_eq!(report.recovery_gets, 3, "one GET per durable object");
        assert_eq!(report.replayed_records, 3);
        let suffix = log.replay_suffix();
        assert_eq!(suffix.len(), 3);
        assert!(suffix.iter().all(|r| !matches!(
            r,
            LogRecord::Commit { txn, .. } if txn.0 == 2
        )));
        // The non-commit record survives even though this durable view
        // lacks it (monotone bookkeeping; see module docs).
        assert!(matches!(suffix[0], LogRecord::AllocateRange { .. }));
    }
}
