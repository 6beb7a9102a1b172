//! The multiplex: coordinator, writer and reader nodes (§2), with
//! simulated RPC, crashes and restarts (§3.3, Table 1).
//!
//! "In the multiplex configuration, there are three types of nodes:
//! coordinator, writer and reader... Key generation is done through the
//! coordinator node; therefore, if any of the secondary nodes requests a
//! new key, it issues an RPC call into the coordinator."
//!
//! RPC is a method call guarded by an "up" flag: calls into a crashed
//! node fail with `NodeDown`, exactly the failure the retry/recovery
//! machinery must absorb. A *crash* drops volatile state only; the
//! transaction log and all storage devices survive, which is what makes
//! recovery meaningful.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use iq_common::{IqError, IqResult, NodeId, ObjectKey};
use iq_storage::DbSpace;
use parking_lot::Mutex;

use crate::keygen::{CachePolicy, KeyGenerator, KeyRange, NodeKeyCache, RangeProvider};
use crate::log::TxnLog;

/// What a node is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// DDL and global coordination; can also write.
    Coordinator,
    /// DML-capable secondary.
    Writer,
    /// Query-only secondary: "reader nodes cannot" modify the database.
    Reader,
}

/// The coordinator node.
pub struct Coordinator {
    up: AtomicBool,
    keygen: Mutex<Arc<KeyGenerator>>,
    log: Arc<TxnLog>,
}

impl Coordinator {
    /// Boot a fresh coordinator over `log`.
    pub fn new(log: Arc<TxnLog>) -> Self {
        Self {
            up: AtomicBool::new(true),
            keygen: Mutex::new(Arc::new(KeyGenerator::new(Arc::clone(&log)))),
            log,
        }
    }

    /// Whether the coordinator is serving requests.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Crash: volatile state (the key generator's in-memory tables) is
    /// lost; the log survives.
    pub fn crash(&self) {
        self.up.store(false, Ordering::SeqCst);
        // Replace the generator with an empty husk so any lingering Arc
        // cannot leak pre-crash state into post-recovery behaviour.
        *self.keygen.lock() = Arc::new(KeyGenerator::new(Arc::clone(&self.log)));
    }

    /// Recover: replay the transaction log from the last checkpoint,
    /// rebuilding the maximum allocated key and the active sets (§3.2).
    pub fn recover(&self) {
        let recovered = KeyGenerator::recover(Arc::clone(&self.log));
        *self.keygen.lock() = Arc::new(recovered);
        self.up.store(true, Ordering::SeqCst);
    }

    /// The live key generator (RPC-side state).
    pub fn keygen(&self) -> IqResult<Arc<KeyGenerator>> {
        if !self.is_up() {
            return Err(IqError::NodeDown("coordinator".into()));
        }
        Ok(Arc::clone(&self.keygen.lock()))
    }

    /// Writer-restart GC (Table 1, clock 150): drain the node's active
    /// set and poll every key in it against the cloud dbspace — "if a
    /// page in the set exists, it is deleted from the underlying object
    /// store". Unflushed keys simply poll as absent. Returns
    /// `(polled, deleted)`.
    pub fn gc_restarted_node(&self, node: NodeId, space: &DbSpace) -> IqResult<(u64, u64)> {
        let kg = self.keygen()?;
        let set = kg.drain_active_set(node);
        let mut polled = 0u64;
        let mut deleted = 0u64;
        for off in set.iter() {
            polled += 1;
            if space.poll_delete(ObjectKey::from_offset(off))? {
                deleted += 1;
            }
        }
        Ok((polled, deleted))
    }

    /// Emit a checkpoint of the generator state.
    pub fn checkpoint(&self) -> IqResult<()> {
        self.keygen()?.checkpoint(Default::default())
    }
}

impl RangeProvider for Coordinator {
    fn allocate_range(&self, node: NodeId, size: u64) -> IqResult<KeyRange> {
        self.keygen()?.allocate_range(node, size)
    }
}

/// A secondary (writer or reader) node.
pub struct SecondaryNode {
    /// Node id (unique in the multiplex).
    pub node: NodeId,
    /// Writer or reader.
    pub role: NodeRole,
    up: AtomicBool,
    key_cache: Mutex<Option<Arc<NodeKeyCache>>>,
    coordinator: Arc<Coordinator>,
}

impl SecondaryNode {
    /// Attach a secondary to the coordinator.
    pub fn new(node: NodeId, role: NodeRole, coordinator: Arc<Coordinator>) -> Self {
        assert_ne!(
            role,
            NodeRole::Coordinator,
            "secondaries are writers or readers"
        );
        Self {
            node,
            role,
            up: AtomicBool::new(true),
            key_cache: Mutex::new(None),
            coordinator,
        }
    }

    /// Whether the node is up.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// The node's key cache (writers only; created lazily).
    pub fn key_cache(&self) -> IqResult<Arc<NodeKeyCache>> {
        if !self.is_up() {
            return Err(IqError::NodeDown(format!("node {}", self.node)));
        }
        if self.role == NodeRole::Reader {
            return Err(IqError::Invalid("reader nodes cannot allocate keys".into()));
        }
        let mut g = self.key_cache.lock();
        if g.is_none() {
            *g = Some(Arc::new(NodeKeyCache::new(
                self.node,
                Arc::clone(&self.coordinator) as Arc<dyn RangeProvider>,
                CachePolicy::default(),
            )));
        }
        Ok(Arc::clone(g.as_ref().expect("just created")))
    }

    /// Crash: the locally cached key range and everything volatile is
    /// lost. Keys left in the cached range become garbage the coordinator
    /// reclaims at restart.
    pub fn crash(&self) {
        self.up.store(false, Ordering::SeqCst);
        *self.key_cache.lock() = None;
    }

    /// Restart: RPC the coordinator to garbage collect this node's
    /// outstanding allocations, then come back up with an empty cache.
    /// Returns `(polled, deleted)` from the coordinator-side GC.
    pub fn restart(&self, cloud_space: &DbSpace) -> IqResult<(u64, u64)> {
        let counts = self.coordinator.gc_restarted_node(self.node, cloud_space)?;
        self.up.store(true, Ordering::SeqCst);
        Ok(counts)
    }
}

/// A full multiplex topology.
pub struct Multiplex {
    /// The coordinator.
    pub coordinator: Arc<Coordinator>,
    /// Secondary nodes in id order.
    pub secondaries: Vec<Arc<SecondaryNode>>,
}

impl Multiplex {
    /// Build a multiplex with `writers` writer nodes and `readers` reader
    /// nodes. Node 0 is the coordinator; secondaries get ids from 1.
    pub fn new(log: Arc<TxnLog>, writers: u32, readers: u32) -> Self {
        let coordinator = Arc::new(Coordinator::new(log));
        let mut secondaries = Vec::new();
        let mut next = 1u32;
        for _ in 0..writers {
            secondaries.push(Arc::new(SecondaryNode::new(
                NodeId(next),
                NodeRole::Writer,
                Arc::clone(&coordinator),
            )));
            next += 1;
        }
        for _ in 0..readers {
            secondaries.push(Arc::new(SecondaryNode::new(
                NodeId(next),
                NodeRole::Reader,
                Arc::clone(&coordinator),
            )));
            next += 1;
        }
        Self {
            coordinator,
            secondaries,
        }
    }

    /// Look up a secondary by node id.
    pub fn secondary(&self, node: NodeId) -> Option<&Arc<SecondaryNode>> {
        self.secondaries.iter().find(|s| s.node == node)
    }

    /// The writer nodes.
    pub fn writers(&self) -> impl Iterator<Item = &Arc<SecondaryNode>> {
        self.secondaries
            .iter()
            .filter(|s| s.role == NodeRole::Writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use iq_common::{DbSpaceId, PageId, VersionId};
    use iq_objectstore::{ConsistencyConfig, ObjectStoreSim, RetryPolicy};
    use iq_storage::{KeySource, Page, PageKind, StorageConfig};

    fn cloud_space() -> (DbSpace, Arc<ObjectStoreSim>) {
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        let space = DbSpace::cloud(
            DbSpaceId(1),
            "cloud",
            StorageConfig::test_small(),
            store.clone(),
            RetryPolicy::default(),
        );
        (space, store)
    }

    #[test]
    fn rpc_fails_while_coordinator_down() {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(log, 1, 1);
        let w = mx.secondary(NodeId(1)).unwrap();
        let cache = w.key_cache().unwrap();
        cache.next_key().unwrap();
        mx.coordinator.crash();
        // Drain the local cache; the refill RPC must fail.
        let mut failed = false;
        for _ in 0..100_000 {
            match cache.next_key() {
                Ok(_) => {}
                Err(IqError::NodeDown(_)) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "refill should hit NodeDown");
        mx.coordinator.recover();
        cache.next_key().unwrap();
    }

    #[test]
    fn readers_cannot_allocate() {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(log, 1, 1);
        let r = mx.secondary(NodeId(2)).unwrap();
        assert_eq!(r.role, NodeRole::Reader);
        assert!(r.key_cache().is_err());
    }

    #[test]
    fn coordinator_recovery_preserves_monotonicity() {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(Arc::clone(&log), 1, 0);
        let w = mx.secondary(NodeId(1)).unwrap();
        let cache = w.key_cache().unwrap();
        let mut last = 0u64;
        for _ in 0..300 {
            last = cache.next_key().unwrap().offset();
        }
        mx.coordinator.crash();
        mx.coordinator.recover();
        // The writer's local cache survives (only the coordinator
        // crashed); once it refills, keys continue above the recovered max.
        let mut next = last;
        for _ in 0..100_000 {
            next = cache.next_key().unwrap().offset();
        }
        assert!(next > last);
    }

    #[test]
    fn writer_restart_gcs_outstanding_allocations() {
        let (space, store) = cloud_space();
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(log, 1, 0);
        let w = mx.secondary(NodeId(1)).unwrap();
        let cache = w.key_cache().unwrap();
        // Flush a few pages under fresh keys (an in-flight transaction).
        for i in 0..5u64 {
            let page = Page::new(
                PageId(i),
                VersionId(1),
                PageKind::Data,
                Bytes::from(vec![i as u8; 64]),
            );
            space.write_page(&page, cache.as_ref()).unwrap();
        }
        assert_eq!(store.object_count(), 5);
        // Writer crashes before committing; its transaction can never
        // commit, so the flushed pages are garbage.
        w.crash();
        assert!(w.key_cache().is_err());
        let (polled, deleted) = w.restart(&space).unwrap();
        assert_eq!(deleted, 5, "all flushed-but-uncommitted pages deleted");
        assert!(polled >= deleted, "unconsumed keys are polled too");
        assert_eq!(store.object_count(), 0);
        // Active set is gone; a second restart polls nothing.
        let (polled2, _) = w.restart(&space).unwrap();
        assert_eq!(polled2, 0);
    }

    #[test]
    fn multiplex_topology() {
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(log, 2, 3);
        assert_eq!(mx.secondaries.len(), 5);
        assert_eq!(mx.writers().count(), 2);
        assert!(mx.secondary(NodeId(99)).is_none());
    }
}
