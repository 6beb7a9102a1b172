//! The Object Key Generator (§3.2).
//!
//! Three requirements: **64-bit keys** (to fit the overloaded blockmap
//! field), **uniqueness** (never reuse a key — the never-write-twice
//! policy depends on it), and **strict monotonicity** (so key *ranges*
//! can stand in for singleton keys during allocation and GC).
//!
//! The coordinator-resident [`KeyGenerator`] allocates ranges: each
//! allocation is a mini-transaction that (i) records the largest allocated
//! key in the transaction log and (ii) updates the per-node *active sets*
//! of outstanding ranges. Crash recovery replays the log from the last
//! checkpoint to rebuild both (§3.3, Table 1).
//!
//! Each node runs a [`NodeKeyCache`]: it consumes keys from a locally
//! cached range and RPCs the coordinator for a fresh range when exhausted,
//! with the range size adapting to load ("it can dynamically increase or
//! decrease on subsequent RPC calls based on the load on the secondary
//! node").

use std::collections::BTreeMap;
use std::sync::Arc;

use iq_common::trace::{self, EventKind};
use iq_common::{IqError, IqResult, KeySet, NodeId, ObjectKey};
use iq_storage::KeySource;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::log::{Checkpoint, LogRecord, TxnLog};
use crate::rfrb::RfRb;

/// A half-open range of key offsets `[start, end)` handed to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyRange {
    /// First offset in the range.
    pub start: u64,
    /// One past the last offset.
    pub end: u64,
}

impl KeyRange {
    /// Number of keys in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True if exhausted.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Consume the next key offset.
    pub fn take(&mut self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        let k = self.start;
        self.start += 1;
        Some(k)
    }
}

/// The allocation interface a node sees (the coordinator, over RPC).
pub trait RangeProvider: Send + Sync {
    /// Allocate a fresh range of `size` keys for `node`. Fails with
    /// `NodeDown` while the coordinator is crashed.
    fn allocate_range(&self, node: NodeId, size: u64) -> IqResult<KeyRange>;
}

#[derive(Debug, Default)]
struct KgState {
    /// Largest offset ever handed out (exclusive end of the last range).
    max_allocated: u64,
    /// Outstanding ranges per node — trimmed as transactions commit,
    /// *deliberately not* trimmed on rollback (§3.3's optimization), and
    /// drained wholesale when a crashed writer restarts.
    active_sets: BTreeMap<u32, KeySet>,
}

/// Coordinator-resident key generator.
#[derive(Debug)]
pub struct KeyGenerator {
    state: Mutex<KgState>,
    log: Arc<TxnLog>,
}

impl KeyGenerator {
    /// Fresh generator logging to `log`.
    pub fn new(log: Arc<TxnLog>) -> Self {
        Self {
            state: Mutex::new(KgState::default()),
            log,
        }
    }

    /// Recover from the log: start at the last checkpoint's state and
    /// replay allocation and commit records in order — exactly the §3.3
    /// walkthrough.
    pub fn recover(log: Arc<TxnLog>) -> Self {
        let mut state = KgState::default();
        for record in log.replay_suffix() {
            match record {
                LogRecord::Checkpoint(cp) => {
                    state.max_allocated = cp.max_allocated;
                    state.active_sets = cp.active_sets;
                }
                LogRecord::AllocateRange { node, start, end } => {
                    state.max_allocated = state.max_allocated.max(end);
                    state
                        .active_sets
                        .entry(node.0)
                        .or_default()
                        .insert_range(start, end);
                }
                LogRecord::Commit { node, ref rfrb, .. } => {
                    // "When the commit of T1 is replayed, the active set is
                    // updated ... because the committed range no longer
                    // needs to be tracked."
                    if let Some(set) = state.active_sets.get_mut(&node.0) {
                        for (s, e) in rfrb.consumed_ranges() {
                            set.remove_range(s, e);
                        }
                    }
                }
            }
        }
        Self {
            state: Mutex::new(state),
            log,
        }
    }

    /// Largest key offset ever allocated.
    pub fn max_allocated(&self) -> u64 {
        self.state.lock().max_allocated
    }

    /// A node's current active set.
    pub fn active_set(&self, node: NodeId) -> KeySet {
        self.state
            .lock()
            .active_sets
            .get(&node.0)
            .cloned()
            .unwrap_or_default()
    }

    /// Trim a committing transaction's consumed ranges from its node's
    /// active set ("as transactions ... commit ..., the coordinator is
    /// notified so that the list can be updated", §3).
    pub fn note_commit(&self, node: NodeId, rfrb: &RfRb) {
        let mut g = self.state.lock();
        if let Some(set) = g.active_sets.get_mut(&node.0) {
            for (s, e) in rfrb.consumed_ranges() {
                set.remove_range(s, e);
            }
        }
    }

    /// Remove and return a node's entire active set (writer-restart GC:
    /// "outstanding allocations for W1 are garbage collected on the
    /// coordinator", Table 1 clock 150).
    pub fn drain_active_set(&self, node: NodeId) -> KeySet {
        self.state
            .lock()
            .active_sets
            .remove(&node.0)
            .unwrap_or_default()
    }

    /// Append a checkpoint record: `image` — whatever else the caller
    /// checkpoints — completed with the generator's state. The record is
    /// appended under the generator's lock, so no allocation record falls
    /// between the state it captures and its place in the log. An `Err`
    /// means the record did not become durable (see
    /// [`TxnLog::append_durable`]).
    pub fn checkpoint(&self, image: Checkpoint) -> IqResult<()> {
        let g = self.state.lock();
        self.log.append_durable(LogRecord::Checkpoint(Checkpoint {
            max_allocated: g.max_allocated,
            active_sets: g.active_sets.clone(),
            ..image
        }))?;
        Ok(())
    }
}

impl RangeProvider for KeyGenerator {
    fn allocate_range(&self, node: NodeId, size: u64) -> IqResult<KeyRange> {
        if size == 0 {
            return Err(IqError::Invalid("zero-size key range".into()));
        }
        let mut g = self.state.lock();
        let start = g.max_allocated;
        let end = start + size;
        g.max_allocated = end;
        g.active_sets
            .entry(node.0)
            .or_default()
            .insert_range(start, end);
        // Bookkeeping is transactional: the log append is the commit point
        // of the allocation mini-transaction.
        self.log
            .append(LogRecord::AllocateRange { node, start, end });
        trace::emit(EventKind::KeyRangeAlloc {
            node: node.0 as u64,
            start,
            end,
        });
        Ok(KeyRange { start, end })
    }
}

/// Adaptive range-size bounds for the per-node cache.
#[derive(Debug, Clone, Copy)]
pub struct CachePolicy {
    /// Starting range size ("the number of keys requested starts at a
    /// default value").
    pub initial: u64,
    /// Lower bound after shrinking.
    pub min: u64,
    /// Upper bound after growth.
    pub max: u64,
}

impl Default for CachePolicy {
    fn default() -> Self {
        Self {
            initial: 64,
            min: 16,
            max: 65_536,
        }
    }
}

#[derive(Debug)]
struct CacheState {
    current: KeyRange,
    range_size: u64,
}

/// Per-node key cache; the node-local face of the generator.
pub struct NodeKeyCache {
    node: NodeId,
    provider: Arc<dyn RangeProvider>,
    policy: CachePolicy,
    state: Mutex<CacheState>,
}

impl NodeKeyCache {
    /// Cache for `node` drawing ranges from `provider`.
    pub fn new(node: NodeId, provider: Arc<dyn RangeProvider>, policy: CachePolicy) -> Self {
        Self {
            node,
            provider,
            policy,
            state: Mutex::new(CacheState {
                current: KeyRange { start: 0, end: 0 },
                range_size: policy.initial,
            }),
        }
    }

    /// Keys left in the cached range.
    pub fn cached_remaining(&self) -> u64 {
        self.state.lock().current.len()
    }

    /// Halve the next requested range size (idle load adaptation).
    pub fn shrink(&self) {
        let mut g = self.state.lock();
        g.range_size = (g.range_size / 2).max(self.policy.min);
    }

    /// Discard the cached range without consuming it. Used at snapshot
    /// boundaries so that every key used *after* the snapshot is strictly
    /// greater than the generator's max at snapshot time — which is what
    /// lets a point-in-time restore compute the GC range from two
    /// watermarks (§5). The abandoned keys are burned, never reused;
    /// restart GC polls them as absent.
    pub fn surrender(&self) {
        let mut g = self.state.lock();
        g.current = KeyRange { start: 0, end: 0 };
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

impl KeySource for NodeKeyCache {
    fn next_key(&self) -> IqResult<ObjectKey> {
        let mut g = self.state.lock();
        if let Some(off) = g.current.take() {
            return Ok(ObjectKey::from_offset(off));
        }
        // Exhausted under load: grow the next request (up to the cap) so
        // RPC frequency amortizes.
        g.range_size = (g.range_size * 2).min(self.policy.max);
        let range = self.provider.allocate_range(self.node, g.range_size)?;
        g.current = range;
        let off = g.current.take().expect("fresh range is non-empty");
        Ok(ObjectKey::from_offset(off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> (Arc<TxnLog>, KeyGenerator) {
        let log = Arc::new(TxnLog::new());
        let kg = KeyGenerator::new(Arc::clone(&log));
        (log, kg)
    }

    #[test]
    fn ranges_are_monotone_and_logged() {
        let (log, kg) = fresh();
        let a = kg.allocate_range(NodeId(1), 100).unwrap();
        let b = kg.allocate_range(NodeId(2), 50).unwrap();
        let c = kg.allocate_range(NodeId(1), 10).unwrap();
        assert_eq!((a.start, a.end), (0, 100));
        assert_eq!((b.start, b.end), (100, 150));
        assert_eq!((c.start, c.end), (150, 160));
        assert_eq!(kg.max_allocated(), 160);
        assert_eq!(log.len(), 3);
        assert_eq!(kg.active_set(NodeId(1)).runs(), &[(0, 100), (150, 160)]);
    }

    #[test]
    fn commit_trims_active_set_rollback_does_not() {
        let (_, kg) = fresh();
        kg.allocate_range(NodeId(1), 100).unwrap();
        let mut rfrb = RfRb::new();
        for off in 0..30 {
            rfrb.record_alloc(
                iq_common::DbSpaceId(1),
                iq_common::PhysicalLocator::Object(ObjectKey::from_offset(off)),
            );
        }
        kg.note_commit(NodeId(1), &rfrb);
        assert_eq!(kg.active_set(NodeId(1)).runs(), &[(30, 100)]);
        // Rollback: no notification happens at all — by design.
    }

    #[test]
    fn recovery_replays_table1_coordinator_crash() {
        // Table 1 clocks 50–120: checkpoint (empty), allocate 101–200 to
        // W1 (we use 0-based offsets 0..100), T1 commits 0..30, crash,
        // recover: active set is {30..100}.
        let (log, kg) = fresh();
        kg.checkpoint(Checkpoint::default()).unwrap(); // clock 50
        kg.allocate_range(NodeId(1), 100).unwrap(); // clock 60
        let mut rfrb = RfRb::new();
        for off in 0..30 {
            rfrb.record_alloc(
                iq_common::DbSpaceId(1),
                iq_common::PhysicalLocator::Object(ObjectKey::from_offset(off)),
            );
        }
        log.append(LogRecord::Commit {
            txn: iq_common::TxnId(1),
            node: NodeId(1),
            identities: Vec::new(),
            rfrb,
        }); // clock 90
            // Clock 110: coordinator crashes — volatile state is dropped.
        drop(kg);
        // Clock 120: recover from the log.
        let recovered = KeyGenerator::recover(Arc::clone(&log));
        assert_eq!(recovered.max_allocated(), 100);
        assert_eq!(recovered.active_set(NodeId(1)).runs(), &[(30, 100)]);
        // Monotonicity survives: the next range starts past the max.
        let next = recovered.allocate_range(NodeId(1), 10).unwrap();
        assert_eq!(next.start, 100);
    }

    #[test]
    fn recovery_from_checkpoint_with_prior_state() {
        let (log, kg) = fresh();
        kg.allocate_range(NodeId(2), 40).unwrap();
        kg.checkpoint(Checkpoint::default()).unwrap();
        kg.allocate_range(NodeId(2), 10).unwrap();
        drop(kg);
        let recovered = KeyGenerator::recover(log);
        assert_eq!(recovered.max_allocated(), 50);
        assert_eq!(recovered.active_set(NodeId(2)).runs(), &[(0, 50)]);
    }

    #[test]
    fn drain_active_set_for_writer_restart() {
        let (_, kg) = fresh();
        kg.allocate_range(NodeId(1), 100).unwrap();
        let drained = kg.drain_active_set(NodeId(1));
        assert_eq!(drained.runs(), &[(0, 100)]);
        assert!(kg.active_set(NodeId(1)).is_empty());
    }

    #[test]
    fn node_cache_consumes_and_refills_adaptively() {
        let log = Arc::new(TxnLog::new());
        let kg: Arc<dyn RangeProvider> = Arc::new(KeyGenerator::new(log));
        let cache = NodeKeyCache::new(
            NodeId(1),
            kg,
            CachePolicy {
                initial: 4,
                min: 2,
                max: 32,
            },
        );
        let mut keys = Vec::new();
        for _ in 0..100 {
            keys.push(cache.next_key().unwrap().offset());
        }
        // Strictly monotone, no duplicates.
        for w in keys.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Range size doubled on refills: first request 8 (4*2), then 16, 32, 32...
        // so fewer RPCs than keys.
        assert!(cache.cached_remaining() > 0);
        cache.shrink();
        cache.shrink();
    }

    #[test]
    fn zero_size_range_rejected() {
        let (_, kg) = fresh();
        assert!(kg.allocate_range(NodeId(1), 0).is_err());
    }

    #[test]
    fn concurrent_caches_never_collide() {
        let log = Arc::new(TxnLog::new());
        let kg: Arc<dyn RangeProvider> = Arc::new(KeyGenerator::new(log));
        let mut handles = Vec::new();
        for n in 0..4u32 {
            let kg = Arc::clone(&kg);
            handles.push(std::thread::spawn(move || {
                let cache = NodeKeyCache::new(NodeId(n), kg, CachePolicy::default());
                (0..500)
                    .map(|_| cache.next_key().unwrap().offset())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate keys across nodes");
    }
}
