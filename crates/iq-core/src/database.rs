//! The assembled database.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use iq_buffer::{BufferManager, BufferOptions};
use iq_common::trace::{MetricValue, MetricsRegistry};
use iq_common::{
    BlockNum, DbSpaceId, IoCore, IoStats, IoStatsSnapshot, IqError, IqResult, NodeId, ObjectKey,
    SimDuration, TableId, TxnId,
};
use iq_engine::{ScanStats, TableMeta, WorkMeter};
use iq_objectstore::{
    BlockDeviceSim, ConsistencyConfig, FaultInjector, IoReactor, ObjectStoreSim, ReactorStore,
};
use iq_ocm::{Ocm, OcmConfig};
use iq_snapshot::{RetainingSink, SnapshotManager};
use iq_storage::{Catalog, DbSpace, IdentityObject};
use iq_txn::fence::Quiesced;
use iq_txn::rfrb::PageSet;
use iq_txn::{
    Checkpoint, DeletionSink, ImmediateDeletion, LogRecord, Multiplex, NodeKeyCache, NodeRole,
    RangeProvider, TransactionManager, TxnLog,
};
use parking_lot::{Mutex, RwLock};

use crate::config::{DatabaseConfig, GroupCommitMode};
use crate::group_commit::DurableLog;
use crate::pager::{CommitFlush, Pager};
use crate::tablestore::{TableStore, LATEST};

/// Shared state behind a [`Database`] (and its [`Pager`]s).
pub struct Shared {
    /// Configuration.
    pub config: DatabaseConfig,
    /// RAM buffer manager.
    pub buffer: BufferManager,
    /// Transaction manager.
    pub txns: TransactionManager,
    /// Multiplex topology.
    pub mx: Multiplex,
    /// Work meter shared with the engine.
    pub meter: Arc<WorkMeter>,
    ocm: Mutex<Option<(DbSpaceId, Arc<Ocm>)>>,
    ssd: Arc<BlockDeviceSim>,
    spaces: RwLock<HashMap<u32, Arc<DbSpace>>>,
    cloud_stores: RwLock<HashMap<u32, Arc<ObjectStoreSim>>>,
    /// Fault injectors wrapping each cloud store, when `config.fault` is
    /// set (crash scripts and fault stats hang off these).
    fault_injectors: RwLock<HashMap<u32, Arc<FaultInjector>>>,
    block_devices: RwLock<HashMap<u32, Arc<BlockDeviceSim>>>,
    tables: RwLock<HashMap<u32, Arc<TableStore>>>,
    key_caches: Mutex<HashMap<u32, Arc<NodeKeyCache>>>,
    snapshots: Option<Arc<SnapshotManager>>,
    /// Chain-GC sink (retention-wrapped when snapshots are on).
    gc_sink: Arc<dyn DeletionSink>,
    /// Immediate sink (rollback garbage is never retained).
    immediate_sink: Arc<ImmediateDeletion>,
    catalog: Mutex<Catalog>,
    system: Arc<BlockDeviceSim>,
    log: Arc<TxnLog>,
    /// Unified metrics registry every subsystem registers a source into.
    metrics: Arc<MetricsRegistry>,
    /// Page-packing counters (the `pack.*` metrics source).
    pub pack_stats: PackStats,
    /// Request-level I/O accounting shared by the reactor, the scan
    /// and flush fan-outs, and GC (the `io.*` metrics source).
    pub io_stats: Arc<IoStats>,
    /// Late-materialization scan counters — groups pruned, predicate vs
    /// projection pages read, GETs saved (the `scan.*` metrics source).
    pub scan_stats: Arc<ScanStats>,
    /// The gate every cloud backend's requests pass, one at a time and
    /// each counted on its own (see `iq_objectstore::reactor`).
    pub reactor: Arc<IoReactor>,
    /// Durable transaction-log uploader, when `config.group_commit`
    /// is not `Off`.
    durable_log: Option<Arc<DurableLog>>,
    /// Durable-log recovery counters from the most recent `reopen`
    /// (part of the `log.*` metrics source; zeros on a fresh create).
    pub log_recovery: LogRecoveryStats,
}

/// Counters describing what durable-log recovery did at `reopen` time
/// (see [`crate::log_recovery`]). Exported under `log.*`.
#[derive(Debug, Default)]
pub struct LogRecoveryStats {
    /// GETs issued against the log store while reconstructing the
    /// durable record stream.
    pub recovery_gets: AtomicU64,
    /// Records reconstructed from the durable stream.
    pub replayed_records: AtomicU64,
    /// In-memory commit records dropped because their transaction was
    /// not durably committed.
    pub reconciled_drops: AtomicU64,
}

impl LogRecoveryStats {
    fn record(&self, report: &crate::log_recovery::RecoveryReport) {
        self.recovery_gets
            .store(report.recovery_gets, Ordering::Relaxed);
        self.replayed_records
            .store(report.replayed_records, Ordering::Relaxed);
        self.reconciled_drops
            .store(report.reconciled_drops, Ordering::Relaxed);
    }
}

/// Lifetime counters for the page-packing write/read path, exported as
/// the `pack.*` metrics source together with the composite registry's
/// refcount counters.
#[derive(Debug, Default)]
pub struct PackStats {
    /// Composite objects written.
    pub objects_written: AtomicU64,
    /// Members written inside composites: data pages and the blockmap
    /// nodes that ride with a commit's last group.
    pub pages_packed: AtomicU64,
    /// Members-per-object histogram: ≤1, ≤4, ≤16, ≤64, >64.
    pub pack_hist: [AtomicU64; 5],
    /// Compaction rounds driven to a commit.
    pub compactions: AtomicU64,
    /// Live members rewritten into fresh composites by compaction.
    pub compaction_rewritten: AtomicU64,
    /// Candidate members skipped because the page had already moved on —
    /// rewriting them would have double-freed the newer version.
    pub compaction_stale_skips: AtomicU64,
}

impl PackStats {
    pub(crate) fn note_pack(&self, pages: usize) {
        self.objects_written.fetch_add(1, Ordering::Relaxed);
        self.pages_packed.fetch_add(pages as u64, Ordering::Relaxed);
        let bucket = match pages {
            0..=1 => 0,
            2..=4 => 1,
            5..=16 => 2,
            17..=64 => 3,
            _ => 4,
        };
        self.pack_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

impl Shared {
    /// Dbspace lookup.
    pub fn space(&self, id: DbSpaceId) -> IqResult<Arc<DbSpace>> {
        self.spaces
            .read()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| IqError::NotFound(format!("dbspace {id}")))
    }

    /// Table-store lookup.
    pub fn table_store(&self, id: TableId) -> IqResult<Arc<TableStore>> {
        self.tables
            .read()
            .get(&id.0)
            .cloned()
            .ok_or_else(|| IqError::NotFound(format!("table {id}")))
    }

    /// The tables `txn` holds a working blockmap for, by table id.
    pub(crate) fn written_tables(&self, txn: TxnId) -> Vec<Arc<TableStore>> {
        let mut v: Vec<Arc<TableStore>> = self
            .tables
            .read()
            .values()
            .filter(|ts| ts.written_by(txn))
            .cloned()
            .collect();
        v.sort_by_key(|ts| ts.table);
        v
    }

    /// Composite members read from the store across every dbspace — data
    /// pages and blockmap nodes alike, one ranged GET each.
    pub fn member_reads(&self) -> u64 {
        self.spaces.read().values().map(|s| s.member_reads()).sum()
    }

    /// The OCM, if enabled and bound to `space`.
    pub fn ocm_for(&self, space: DbSpaceId) -> Option<Arc<Ocm>> {
        let g = self.ocm.lock();
        g.as_ref()
            .and_then(|(s, ocm)| (*s == space).then(|| Arc::clone(ocm)))
    }

    /// The snapshot manager, when retention is enabled.
    pub(crate) fn snapshots(&self) -> Option<&Arc<SnapshotManager>> {
        self.snapshots.as_ref()
    }

    fn key_cache(&self, node: NodeId) -> IqResult<Arc<NodeKeyCache>> {
        let mut g = self.key_caches.lock();
        if let Some(c) = g.get(&node.0) {
            return Ok(Arc::clone(c));
        }
        let cache = if node.0 == 0 {
            // The coordinator allocates for itself without an RPC (§3.2);
            // the operation is still transactional through the log.
            Arc::new(NodeKeyCache::new(
                node,
                Arc::clone(&self.mx.coordinator) as Arc<dyn RangeProvider>,
                iq_txn::keygen::CachePolicy::default(),
            ))
        } else {
            let secondary = self
                .mx
                .secondary(node)
                .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
            if secondary.role == NodeRole::Reader {
                // Reader nodes query but "cannot" modify the database
                // (§2): their pager carries a key source that refuses
                // allocation, so reads work and any write path fails.
                Arc::new(NodeKeyCache::new(
                    node,
                    Arc::new(DenyAllocation) as Arc<dyn RangeProvider>,
                    iq_txn::keygen::CachePolicy::default(),
                ))
            } else {
                secondary.key_cache()?
            }
        };
        g.insert(node.0, Arc::clone(&cache));
        Ok(cache)
    }
}

/// Share of each cache (buffer-manager shards and the OCM) reserved for
/// the protected SLRU segment.
const CACHE_PROTECTED_FRACTION: f64 = 0.8;

/// Buffer-manager geometry: twice the scan parallelism in shards, so
/// neighbouring morsel workers rarely collide on a shard lock.
fn buffer_options(config: &DatabaseConfig) -> BufferOptions {
    BufferOptions {
        shards: (config.scan_workers * 2).max(1),
        protected_fraction: CACHE_PROTECTED_FRACTION,
    }
}

/// Register the sources that exist from birth: the buffer manager and the
/// transaction manager. Closures hold a `Weak` back-reference — the
/// registry lives inside `Shared`, so a strong capture would leak the
/// whole database.
fn register_core_metrics(shared: &Arc<Shared>) {
    let w = Arc::downgrade(shared);
    shared.metrics.register("buffer", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        // Metrics report lifetime totals regardless of how many measurement
        // epochs the benchmark harness has opened on the same counters.
        let b = s.buffer.stats.lifetime_snapshot();
        vec![
            ("hits".into(), MetricValue::U64(b.hits)),
            ("demand_misses".into(), MetricValue::U64(b.demand_misses)),
            ("prefetched".into(), MetricValue::U64(b.prefetched)),
            ("evictions".into(), MetricValue::U64(b.evictions)),
            (
                "dirty_evictions".into(),
                MetricValue::U64(b.dirty_evictions),
            ),
            ("commit_flushes".into(), MetricValue::U64(b.commit_flushes)),
            ("promotions".into(), MetricValue::U64(b.promotions)),
            ("demotions".into(), MetricValue::U64(b.demotions)),
            (
                "lock_wait_nanos".into(),
                MetricValue::U64(b.lock_wait_nanos),
            ),
            (
                "shards".into(),
                MetricValue::U64(s.buffer.shard_count() as u64),
            ),
            ("epoch".into(), MetricValue::U64(s.buffer.stats.epoch())),
            (
                "used_bytes".into(),
                MetricValue::U64(s.buffer.used_bytes() as u64),
            ),
            (
                "demand_fraction".into(),
                MetricValue::F64(b.demand_fraction()),
            ),
        ]
    });
    let w = Arc::downgrade(shared);
    shared.metrics.register("txn", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        vec![
            (
                "active".into(),
                MetricValue::U64(s.txns.active_count() as u64),
            ),
            (
                "committed_chain".into(),
                MetricValue::U64(s.txns.chain_len() as u64),
            ),
            ("commit_seq".into(), MetricValue::U64(s.txns.current_seq())),
            (
                "max_allocated_key".into(),
                MetricValue::U64(
                    s.mx.coordinator
                        .keygen()
                        .map(|k| k.max_allocated())
                        .unwrap_or(0),
                ),
            ),
        ]
    });
    let w = Arc::downgrade(shared);
    shared.metrics.register("gc", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        let g = s.txns.gc_stats();
        vec![
            ("ticks".into(), MetricValue::U64(g.ticks)),
            (
                "entries_consumed".into(),
                MetricValue::U64(g.entries_consumed),
            ),
            ("keys_deleted".into(), MetricValue::U64(g.keys_deleted)),
            (
                "block_runs_deleted".into(),
                MetricValue::U64(g.block_runs_deleted),
            ),
            ("batches".into(), MetricValue::U64(g.batches)),
            ("requests".into(), MetricValue::U64(g.requests)),
            ("requests_saved".into(), MetricValue::U64(g.requests_saved)),
            ("retried_keys".into(), MetricValue::U64(g.retried_keys)),
            ("owed".into(), MetricValue::U64(g.owed)),
            ("in_flight_peak".into(), MetricValue::U64(g.in_flight_peak)),
            ("batch_le_1".into(), MetricValue::U64(g.batch_hist[0])),
            ("batch_le_10".into(), MetricValue::U64(g.batch_hist[1])),
            ("batch_le_100".into(), MetricValue::U64(g.batch_hist[2])),
            ("batch_le_1000".into(), MetricValue::U64(g.batch_hist[3])),
            ("batch_gt_1000".into(), MetricValue::U64(g.batch_hist[4])),
        ]
    });
    let w = Arc::downgrade(shared);
    shared.metrics.register("pack", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        let p = &s.pack_stats;
        let c = s.txns.composites().stats();
        let mean_live_at_claim = if c.compaction_claims == 0 {
            0.0
        } else {
            c.live_fraction_sum_at_claim / c.compaction_claims as f64
        };
        vec![
            (
                "objects_written".into(),
                MetricValue::U64(p.objects_written.load(Ordering::Relaxed)),
            ),
            (
                "pages_packed".into(),
                MetricValue::U64(p.pages_packed.load(Ordering::Relaxed)),
            ),
            (
                "pack_le_1".into(),
                MetricValue::U64(p.pack_hist[0].load(Ordering::Relaxed)),
            ),
            (
                "pack_le_4".into(),
                MetricValue::U64(p.pack_hist[1].load(Ordering::Relaxed)),
            ),
            (
                "pack_le_16".into(),
                MetricValue::U64(p.pack_hist[2].load(Ordering::Relaxed)),
            ),
            (
                "pack_le_64".into(),
                MetricValue::U64(p.pack_hist[3].load(Ordering::Relaxed)),
            ),
            (
                "pack_gt_64".into(),
                MetricValue::U64(p.pack_hist[4].load(Ordering::Relaxed)),
            ),
            ("ranged_gets".into(), MetricValue::U64(s.member_reads())),
            (
                "compactions".into(),
                MetricValue::U64(p.compactions.load(Ordering::Relaxed)),
            ),
            (
                "compaction_rewritten".into(),
                MetricValue::U64(p.compaction_rewritten.load(Ordering::Relaxed)),
            ),
            (
                "compaction_stale_skips".into(),
                MetricValue::U64(p.compaction_stale_skips.load(Ordering::Relaxed)),
            ),
            (
                "composites_registered".into(),
                MetricValue::U64(c.registered),
            ),
            ("member_deaths".into(), MetricValue::U64(c.member_deaths)),
            ("composites_reclaimed".into(), MetricValue::U64(c.reclaimed)),
            (
                "unknown_member_frees".into(),
                MetricValue::U64(c.unknown_member_frees),
            ),
            (
                "compaction_claims".into(),
                MetricValue::U64(c.compaction_claims),
            ),
            (
                "mean_live_fraction_at_claim".into(),
                MetricValue::F64(mean_live_at_claim),
            ),
            (
                "composites_live".into(),
                MetricValue::U64(s.txns.composites().len() as u64),
            ),
        ]
    });
    let w = Arc::downgrade(shared);
    shared.metrics.register("io", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        let io = s.io_stats.snapshot();
        vec![
            ("submitted".into(), MetricValue::U64(io.submitted)),
            ("completed".into(), MetricValue::U64(io.completed)),
            ("failed".into(), MetricValue::U64(io.failed)),
            (
                "queue_depth_peak".into(),
                MetricValue::U64(io.queue_depth_peak),
            ),
            ("in_flight_peak".into(), MetricValue::U64(io.in_flight_peak)),
        ]
    });
    let w = Arc::downgrade(shared);
    shared.metrics.register("scan", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        let sc = &s.scan_stats;
        vec![
            (
                "groups_considered".into(),
                MetricValue::U64(ScanStats::get(&sc.groups_considered)),
            ),
            (
                "groups_zone_pruned".into(),
                MetricValue::U64(ScanStats::get(&sc.groups_zone_pruned)),
            ),
            (
                "groups_empty_mask".into(),
                MetricValue::U64(ScanStats::get(&sc.groups_empty_mask)),
            ),
            (
                "groups_materialized".into(),
                MetricValue::U64(ScanStats::get(&sc.groups_materialized)),
            ),
            (
                "predicate_pages_read".into(),
                MetricValue::U64(ScanStats::get(&sc.predicate_pages_read)),
            ),
            (
                "predicate_pages_encoded".into(),
                MetricValue::U64(ScanStats::get(&sc.predicate_pages_encoded)),
            ),
            (
                "predicate_pages_decoded".into(),
                MetricValue::U64(ScanStats::get(&sc.predicate_pages_decoded)),
            ),
            (
                "projection_pages_read".into(),
                MetricValue::U64(ScanStats::get(&sc.projection_pages_read)),
            ),
            (
                "projection_pages_skipped".into(),
                MetricValue::U64(ScanStats::get(&sc.projection_pages_skipped)),
            ),
            (
                "pruned_pages_skipped".into(),
                MetricValue::U64(ScanStats::get(&sc.pruned_pages_skipped)),
            ),
            (
                "dict_filter_columns".into(),
                MetricValue::U64(ScanStats::get(&sc.dict_filter_columns)),
            ),
            ("gets_saved".into(), MetricValue::U64(sc.gets_saved())),
        ]
    });
    let w = Arc::downgrade(shared);
    // Always registered — with the durable log off the upload counters
    // read zero — so observability schema checks see a stable key set.
    shared.metrics.register("log", move || {
        let Some(s) = w.upgrade() else {
            return Vec::new();
        };
        let dl = s
            .durable_log
            .as_ref()
            .map(|d| d.stats())
            .unwrap_or_default();
        let r = &s.log_recovery;
        vec![
            ("records".into(), MetricValue::U64(s.log.len() as u64)),
            ("appends".into(), MetricValue::U64(dl.appends)),
            ("puts".into(), MetricValue::U64(dl.puts)),
            ("put_failures".into(), MetricValue::U64(dl.put_failures)),
            (
                "coalesced_records".into(),
                MetricValue::U64(dl.coalesced_records),
            ),
            (
                "gathered_batches".into(),
                MetricValue::U64(dl.gathered_batches),
            ),
            ("max_batch".into(), MetricValue::U64(dl.max_batch)),
            ("deregistered".into(), MetricValue::U64(dl.deregistered)),
            (
                "recovery_gets".into(),
                MetricValue::U64(r.recovery_gets.load(Ordering::Relaxed)),
            ),
            (
                "replayed_records".into(),
                MetricValue::U64(r.replayed_records.load(Ordering::Relaxed)),
            ),
            (
                "reconciled_drops".into(),
                MetricValue::U64(r.reconciled_drops.load(Ordering::Relaxed)),
            ),
        ]
    });
}

/// The flattened metric values for one device's request ledger (current
/// epoch only — the archived epochs are reachable via
/// `DeviceStats::lifetime_snapshot`).
fn device_metric_values(
    snap: &iq_objectstore::StatsSnapshot,
    epoch: u64,
) -> Vec<(String, MetricValue)> {
    vec![
        (
            "total_requests".into(),
            MetricValue::U64(snap.total_requests),
        ),
        ("retries".into(), MetricValue::U64(snap.retries)),
        ("backoff_nanos".into(), MetricValue::U64(snap.backoff_nanos)),
        ("prefix_count".into(), MetricValue::U64(snap.prefix_count)),
        (
            "effective_prefixes".into(),
            MetricValue::F64(snap.effective_prefixes),
        ),
        ("epoch".into(), MetricValue::U64(epoch)),
    ]
}

/// Register a cloud store's device ledger under `dbspace.<id>`.
fn register_store_metrics(registry: &MetricsRegistry, id: u32, store: &Arc<ObjectStoreSim>) {
    let s = Arc::clone(store);
    registry.register(&format!("dbspace.{id}"), move || {
        device_metric_values(&s.stats.snapshot(), s.stats.epoch())
    });
}

/// Register a block device's ledger under `dbspace.<id>`.
fn register_device_metrics(registry: &MetricsRegistry, id: u32, device: &Arc<BlockDeviceSim>) {
    let d = Arc::clone(device);
    registry.register(&format!("dbspace.{id}"), move || {
        device_metric_values(&d.stats.snapshot(), d.stats.epoch())
    });
}

/// Register the OCM's Table-5 counters and its SSD ledger.
fn register_ocm_metrics(registry: &MetricsRegistry, ocm: &Arc<Ocm>, ssd: &Arc<BlockDeviceSim>) {
    let o = Arc::clone(ocm);
    registry.register("ocm", move || {
        let snap = o.stats_snapshot();
        vec![
            ("hits".into(), MetricValue::U64(snap.hits)),
            ("misses".into(), MetricValue::U64(snap.misses)),
            ("evictions".into(), MetricValue::U64(snap.evictions)),
            ("hit_rate".into(), MetricValue::F64(snap.hit_rate())),
            (
                "cached_objects".into(),
                MetricValue::U64(o.cached_objects() as u64),
            ),
        ]
    });
    let d = Arc::clone(ssd);
    registry.register("ocm_ssd", move || {
        device_metric_values(&d.stats.snapshot(), d.stats.epoch())
    });
}

/// RAII release of compaction claims (see [`Database::compact_tick`]):
/// dropping the guard returns every claimed composite to the
/// GC/compaction candidate pool, on success, error, and panic paths
/// alike. `release_claims` is idempotent per round, and the guard is
/// the only releaser, so claims resolve exactly once.
struct ClaimGuard {
    registry: Arc<iq_txn::CompositeRegistry>,
    keys: Vec<ObjectKey>,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        self.registry.release_claims(&self.keys);
    }
}

/// Range provider for reader nodes: always refuses.
struct DenyAllocation;

impl RangeProvider for DenyAllocation {
    fn allocate_range(&self, node: NodeId, _size: u64) -> IqResult<iq_txn::KeyRange> {
        Err(IqError::Invalid(format!(
            "node {node} is a reader; reader nodes cannot allocate object keys"
        )))
    }
}

/// The cloud-native database instance.
///
/// # Examples
///
/// ```
/// use iq_core::{Database, DatabaseConfig};
/// use iq_common::TableId;
/// use iq_engine::table::{Schema, TableMeta, TableWriter};
/// use iq_engine::value::{DataType, Value};
///
/// # fn main() -> iq_common::IqResult<()> {
/// let db = Database::create(DatabaseConfig::test_small())?;
/// let space = db.create_cloud_dbspace("sales")?; // CREATE DBSPACE ... USING OBJECT STORE
/// db.create_table(TableId(1), space)?;
///
/// let schema = Schema::new(&[("id", DataType::I64), ("amount", DataType::F64)]);
/// let mut meta = TableMeta::new(TableId(1), "sales", schema, 64);
/// let txn = db.begin();
/// {
///     let pager = db.pager(txn)?;
///     let meter = db.meter().clone();
///     let mut w = TableWriter::new(&mut meta, &pager, txn, &meter);
///     for i in 0..100 {
///         w.append_row(&[Value::I64(i), Value::F64(i as f64)])?;
///     }
///     w.finish()?;
/// }
/// db.commit(txn)?; // flush -> blockmap cascade -> identity object
///
/// let rtxn = db.begin();
/// let pager = db.pager(rtxn)?;
/// let out = meta.scan(&pager, &[0], None, db.meter())?;
/// assert_eq!(out.len(), 100);
/// db.rollback(rtxn)?;
///
/// // The paper's invariant: no object key was ever written twice.
/// assert_eq!(db.cloud_store(space).unwrap().max_write_count(), 1);
/// # Ok(())
/// # }
/// ```
pub struct Database {
    shared: Arc<Shared>,
    next_space: AtomicU32,
    next_table: AtomicU32,
}

impl Database {
    /// Create a fresh database.
    pub fn create(config: DatabaseConfig) -> IqResult<Self> {
        let block = config.storage.block_size();
        let system = Arc::new(BlockDeviceSim::new(
            block,
            config.system_bytes / block as u64,
        ));
        let log = Arc::new(TxnLog::new());
        let mx = Multiplex::new(Arc::clone(&log), config.writers, config.readers);
        Self::assemble(config, mx, log, system, Catalog::default(), None)
    }

    /// Build the volatile shell — OCM SSD, deletion sinks, transaction
    /// manager, reactor, durable-log uploader, metrics — around the
    /// durable parts: the log (with the multiplex whose coordinator
    /// replays it), the system device and its catalog, and the durable-log
    /// store when one survived a previous life. Dbspaces and tables are
    /// attached afterwards.
    fn assemble(
        config: DatabaseConfig,
        mx: Multiplex,
        log: Arc<TxnLog>,
        system: Arc<BlockDeviceSim>,
        catalog: Catalog,
        log_store: Option<Arc<ObjectStoreSim>>,
    ) -> IqResult<Self> {
        let block = config.storage.block_size();
        let ssd = Arc::new(BlockDeviceSim::new(
            block,
            (config.ocm_bytes / block as u64).max(1),
        ));
        let immediate_sink = Arc::new(ImmediateDeletion::new());
        let snapshots = config.retention.map(|r| Arc::new(SnapshotManager::new(r)));
        let gc_sink: Arc<dyn DeletionSink> = match &snapshots {
            Some(sm) => Arc::new(RetainingSink::new(
                Arc::clone(sm),
                Arc::clone(&immediate_sink) as Arc<dyn DeletionSink>,
            )),
            None => Arc::clone(&immediate_sink) as Arc<dyn DeletionSink>,
        };
        let keygen = mx.coordinator.keygen()?;
        let txns = TransactionManager::new(Arc::clone(&log), Some(keygen));
        txns.set_gc_workers(config.scan_workers.max(1));
        let io_stats = Arc::new(IoStats::new());
        txns.set_io_stats(Arc::clone(&io_stats));
        let reactor = Arc::new(IoReactor::with_stats(Arc::clone(&io_stats)));
        let durable_log = match config.group_commit {
            GroupCommitMode::Off => None,
            GroupCommitMode::Coalesced => {
                let reactor = Arc::clone(&reactor);
                let (retry, fault) = (config.retry, config.log_fault);
                let dl = Arc::new(match log_store {
                    // A surviving log store resumes key allocation above
                    // its live keys.
                    Some(sim) => DurableLog::over_store(reactor, retry, fault, sim),
                    None => DurableLog::new(reactor, retry, fault),
                });
                log.set_sink(Arc::clone(&dl) as Arc<dyn iq_txn::LogSink>);
                Some(dl)
            }
        };
        let shared = Arc::new(Shared {
            buffer: BufferManager::with_options(config.buffer_bytes, buffer_options(&config)),
            txns,
            mx,
            meter: Arc::new(WorkMeter::new()),
            ocm: Mutex::new(None),
            ssd,
            spaces: RwLock::new(HashMap::new()),
            cloud_stores: RwLock::new(HashMap::new()),
            fault_injectors: RwLock::new(HashMap::new()),
            block_devices: RwLock::new(HashMap::new()),
            tables: RwLock::new(HashMap::new()),
            key_caches: Mutex::new(HashMap::new()),
            snapshots,
            gc_sink,
            immediate_sink,
            catalog: Mutex::new(catalog),
            system,
            log,
            config,
            metrics: Arc::new(MetricsRegistry::new()),
            pack_stats: PackStats::default(),
            io_stats,
            scan_stats: Arc::new(ScanStats::new()),
            reactor,
            durable_log,
            log_recovery: LogRecoveryStats::default(),
        });
        register_core_metrics(&shared);
        Ok(Self {
            shared,
            next_space: AtomicU32::new(1),
            next_table: AtomicU32::new(1),
        })
    }

    /// Wire a cloud store into this instance as dbspace `id` — at
    /// `CREATE DBSPACE` and again at every reopen. The first cloud
    /// dbspace gets the OCM bound to it (when `ocm_bytes > 0`).
    fn attach_cloud_space(
        &self,
        id: DbSpaceId,
        name: &str,
        storage: iq_storage::StorageConfig,
        store: Arc<ObjectStoreSim>,
    ) {
        let shared = &self.shared;
        shared.cloud_stores.write().insert(id.0, store.clone());
        register_store_metrics(&shared.metrics, id.0, &store);
        // Every path to the store — dbspace reads/writes, OCM uploads, GC
        // polls — takes the shared reactor's gate and, with a fault plan
        // configured, the injector below it: retry → reactor → injector →
        // sim, so each retry attempt is its own request and draws its own
        // fault. The concrete sim stays reachable for invariant checks.
        let (backend, injector) =
            ReactorStore::stack(Arc::clone(&shared.reactor), store, shared.config.fault);
        if let Some(injector) = injector {
            shared.fault_injectors.write().insert(id.0, injector);
        }
        let space = Arc::new(DbSpace::cloud(
            id,
            name,
            storage,
            Arc::clone(&backend),
            shared.config.retry,
        ));
        shared.spaces.write().insert(id.0, Arc::clone(&space));
        shared.immediate_sink.register(Arc::clone(&space));
        let mut ocm = shared.ocm.lock();
        if ocm.is_none() && shared.config.ocm_bytes > 0 {
            let bound = Arc::new(Ocm::new(
                Arc::clone(&shared.ssd),
                backend,
                OcmConfig {
                    // An entry holds up to one of this dbspace's pages.
                    slot_bytes: storage.page_size,
                    capacity_bytes: shared.config.ocm_bytes,
                    retry: shared.config.retry,
                    protected_fraction: CACHE_PROTECTED_FRACTION,
                },
            ));
            register_ocm_metrics(&shared.metrics, &bound, &shared.ssd);
            space.attach_cache(bound.clone());
            *ocm = Some((id, bound));
        }
    }

    /// Wire a block volume into this instance as conventional dbspace
    /// `id` (DDL and reopen).
    fn attach_conventional_space(
        &self,
        id: DbSpaceId,
        name: &str,
        storage: iq_storage::StorageConfig,
        device: Arc<BlockDeviceSim>,
    ) -> IqResult<()> {
        let shared = &self.shared;
        let space = Arc::new(DbSpace::conventional(id, name, storage, device.clone())?);
        register_device_metrics(&shared.metrics, id.0, &device);
        shared.block_devices.write().insert(id.0, device);
        shared.spaces.write().insert(id.0, Arc::clone(&space));
        shared.immediate_sink.register(Arc::clone(&space));
        Ok(())
    }

    /// Shared state (for advanced integrations and tests).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Work meter.
    pub fn meter(&self) -> &Arc<WorkMeter> {
        &self.shared.meter
    }

    // ------------------------------------------------------------------
    // Dbspaces
    // ------------------------------------------------------------------

    /// `CREATE DBSPACE name USING OBJECT STORE "s3://…"` (§3). The first
    /// cloud dbspace gets the OCM bound to it (when `ocm_bytes > 0`).
    pub fn create_cloud_dbspace(&self, name: &str) -> IqResult<DbSpaceId> {
        self.create_cloud_dbspace_with(name, self.shared.config.storage)
    }

    /// Create a cloud dbspace with a custom page size — the paper's third
    /// future-work item (§8): "the requirement of having a unified page
    /// size across the whole database was primarily driven by the
    /// characteristics of shared block devices that do not necessarily
    /// apply to object stores." Each dbspace seals and reads its own
    /// geometry; tables on different dbspaces can tune page size to their
    /// update pattern.
    pub fn create_cloud_dbspace_with(
        &self,
        name: &str,
        storage: iq_storage::StorageConfig,
    ) -> IqResult<DbSpaceId> {
        let id = DbSpaceId(self.next_space.fetch_add(1, Ordering::Relaxed));
        let store = Arc::new(ObjectStoreSim::new(ConsistencyConfig::default()));
        self.attach_cloud_space(id, name, storage, store);
        self.persist_ddl()?;
        Ok(id)
    }

    /// Open a read-only view over a past snapshot without restoring the
    /// database (the paper's first future-work item, §8). The view
    /// resolves pages from the snapshot's identity objects; retained
    /// pages guarantee they are still on the store.
    pub fn snapshot_view(&self, id: u64) -> IqResult<crate::view::SnapshotView> {
        crate::view::SnapshotView::open(Arc::clone(&self.shared), id)
    }

    /// Create a conventional dbspace over a simulated block volume.
    pub fn create_conventional_dbspace(&self, name: &str, bytes: u64) -> IqResult<DbSpaceId> {
        let id = DbSpaceId(self.next_space.fetch_add(1, Ordering::Relaxed));
        let storage = self.shared.config.storage;
        let block = storage.block_size();
        let device = Arc::new(BlockDeviceSim::new(block, bytes / block as u64));
        self.attach_conventional_space(id, name, storage, device)?;
        self.persist_ddl()?;
        Ok(id)
    }

    /// The object store behind a cloud dbspace (stats, invariant checks).
    pub fn cloud_store(&self, id: DbSpaceId) -> Option<Arc<ObjectStoreSim>> {
        self.shared.cloud_stores.read().get(&id.0).cloned()
    }

    /// The fault injector wrapping a cloud dbspace's store, when
    /// `config.fault` is set (crash scripts arm cuts and read fault
    /// stats through this).
    pub fn fault_injector(&self, id: DbSpaceId) -> Option<Arc<FaultInjector>> {
        self.shared.fault_injectors.read().get(&id.0).cloned()
    }

    /// The OCM, if one is bound.
    pub fn ocm(&self) -> Option<Arc<Ocm>> {
        self.shared.ocm.lock().as_ref().map(|(_, o)| Arc::clone(o))
    }

    /// The instance-local SSD device backing the OCM.
    pub fn ssd(&self) -> &Arc<BlockDeviceSim> {
        &self.shared.ssd
    }

    /// A dbspace handle.
    pub fn dbspace(&self, id: DbSpaceId) -> IqResult<Arc<DbSpace>> {
        self.shared.space(id)
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Register a table with an explicit id (must match the engine-side
    /// `TableMeta` id) on `space`.
    pub fn create_table(&self, table: TableId, space: DbSpaceId) -> IqResult<()> {
        self.shared.space(space)?; // must exist
        let ts = Arc::new(TableStore::new(
            table,
            space,
            self.shared.config.blockmap_fanout,
        ));
        self.shared.tables.write().insert(table.0, ts);
        self.next_table.fetch_max(table.0 + 1, Ordering::Relaxed);
        self.persist_ddl()?;
        Ok(())
    }

    /// `DROP TABLE`: the current version's pages (data + blockmap) are
    /// recorded in a transaction's RF bitmap and die through normal chain
    /// GC — or into the retention FIFO, which keeps dropped tables
    /// restorable from earlier snapshots.
    pub fn drop_table(&self, table: TableId) -> IqResult<()> {
        let ts = self.shared.table_store(table)?;
        let txn = self.begin();
        let space = self.shared.space(ts.space)?;
        let keys = self.shared.key_cache(NodeId(0))?;
        if let Some(identity) = ts.identity() {
            let io = iq_storage::PageIo {
                space: &space,
                keys: keys.as_ref(),
            };
            let mut bm = iq_storage::Blockmap::open(identity.fanout as usize, identity.root, &io)?;
            for loc in bm.live_data_locators(&io)? {
                self.shared.txns.record_free(txn, ts.space, loc)?;
            }
            for loc in bm.live_node_locators() {
                self.shared.txns.record_free(txn, ts.space, loc)?;
            }
        }
        self.shared.txns.commit(txn, Vec::new())?;
        self.gc_drain()?;
        self.shared.tables.write().remove(&table.0);
        {
            let mut catalog = self.shared.catalog.lock();
            catalog.remove_identity(table);
            catalog.sections.remove(&format!("table-meta/{}", table.0));
        }
        // The save stamps the catalog past every commit of the dropped
        // table: a reopen cannot replay its identities back — nor into a
        // table created later under the same id.
        self.persist_ddl()
    }

    /// Persist an engine-side `TableMeta` in the catalog (schema, row
    /// groups, dictionaries, zone maps) so a restore can reconstruct it.
    pub fn save_table_meta(&self, meta: &TableMeta) -> IqResult<()> {
        let quiet = self.shared.txns.fence().quiesce();
        let mut catalog = self.shared.catalog.lock();
        catalog.put_section(&format!("table-meta/{}", meta.id.0), meta)?;
        self.save_catalog(&mut catalog, &quiet)
    }

    /// Save the catalog to the system device, stamped with the log
    /// sequence number it is current to. Under `_quiet` no commit is
    /// between its log append and its catalog update, so the image holds
    /// every commit logged before the stamp and none from it on: reopen
    /// replays the identities from the stamp on, whatever became of the
    /// log after the save. A dropped table's or a restored-over version's
    /// commits all lie before its stamp.
    fn save_catalog(&self, catalog: &mut Catalog, _quiet: &Quiesced<'_>) -> IqResult<()> {
        catalog.replay_from = self.shared.log.next_lsn();
        catalog.save(self.shared.system.as_ref(), BlockNum(0))?;
        Ok(())
    }

    /// Load a persisted engine-side `TableMeta`.
    pub fn load_table_meta(&self, table: TableId) -> IqResult<Option<TableMeta>> {
        self.shared
            .catalog
            .lock()
            .get_section(&format!("table-meta/{}", table.0))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction on the coordinator (node 0).
    pub fn begin(&self) -> TxnId {
        self.shared.txns.begin(NodeId(0))
    }

    /// Begin a transaction on a specific node.
    pub fn begin_on(&self, node: NodeId) -> IqResult<TxnId> {
        if node.0 != 0 {
            let secondary = self
                .shared
                .mx
                .secondary(node)
                .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
            if !secondary.is_up() {
                return Err(IqError::NodeDown(format!("node {node}")));
            }
        }
        Ok(self.shared.txns.begin(node))
    }

    /// A [`Pager`] bound to `txn` (implements the engine's `PageStore`).
    pub fn pager(&self, txn: TxnId) -> IqResult<Pager> {
        let node = self.shared.txns.node_of(txn)?;
        let begin = self.shared.txns.snapshot_seq(txn)?;
        let keys = self.shared.key_cache(node)?;
        Ok(Pager {
            shared: Arc::clone(&self.shared),
            txn,
            begin,
            keys,
        })
    }

    /// Commit: flush dirty pages, run the Figure 2 blockmap cascade into
    /// the commit's last composite, install identities, and log them with
    /// the RF/RB bitmaps. The log record is where the identities become
    /// durable; the catalog on the system device is rewritten only by
    /// checkpoints and DDL. Returns the commit sequence.
    pub fn commit(&self, txn: TxnId) -> IqResult<u64> {
        // Group commit: register as an expected committer *before* any
        // flushing, so a gather leader holds its batch open for us. The
        // guard deregisters on every early-error path (rollback).
        let _commit_window = self.shared.durable_log.as_ref().map(|dl| dl.enter_commit());
        let pager = self.pager(txn)?;
        let version = self.shared.catalog.lock().bump_version();
        // Transactions that began at or before the current commit sequence
        // keep reading the versions this one supersedes — one point for
        // every table it wrote, and never above the sequence it is about
        // to take, so GC holds the pages as long as a reader holds a tree.
        let commit_point = self.shared.txns.current_seq() + 1;
        // Fan the uploads across the I/O core, packed into composites of
        // up to `pack_pages` pages, the last of which carries the cascade
        // (`CommitFlush`). The transaction's evicted pages were uploaded
        // when they left the buffer; a failed one fails the flush here. A
        // failure anywhere rolls the transaction back, and no table has
        // been installed yet to undo.
        let sink = CommitFlush::new(&pager, version);
        let flush_io = IoCore::new(self.shared.config.scan_workers.max(1))
            .with_stats(Arc::clone(&self.shared.io_stats));
        self.shared
            .buffer
            .flush_txn_packed(txn, &sink, &flush_io)
            .inspect_err(|_| {
                let _ = self.rollback_inner(txn, true);
            })?;
        // Every upload of the commit has landed: install the identities
        // and promote the trees, before the commit sequence moves — a
        // transaction that begins in between is pinned to the versions they
        // supersede. The tables stay this transaction's to write until its
        // record's fate is known.
        type Installed = (Arc<TableStore>, IdentityObject, Option<IdentityObject>);
        let installed: Vec<Installed> = sink
            .into_flushed()
            .into_iter()
            .map(|(ts, identity)| {
                let previous = ts.identity();
                ts.install(txn, identity, commit_point);
                (ts, identity, previous)
            })
            .collect();
        // Deferred GC: the commit only moves the transaction onto the
        // committed chain. Reclamation runs through the budgeted driver
        // ([`Self::gc_tick`] / [`Self::gc_drain`]), so commit latency no
        // longer includes the deletion fan-out.
        //
        // The transaction manager appends the commit record, identities
        // included, durably: if the durable-log PUT fails past its retry
        // budget, the commit fails here. Every table it installed goes back
        // to the version it superseded, then it rolls back like a
        // blockmap-cascade failure — which deletes the uploads the
        // installed trees pointed at.
        //
        // The in-memory catalog takes the identities only once the record
        // is durable, and inside the checkpoint fence: a saved catalog
        // holds exactly the commits logged before its stamp.
        let committed = {
            let _inside = self.shared.txns.fence().enter();
            let identities = installed.iter().map(|(_, identity, _)| *identity);
            self.shared
                .txns
                .commit(txn, identities.collect())
                .inspect(|_| {
                    let mut catalog = self.shared.catalog.lock();
                    for (_, identity, _) in &installed {
                        catalog.set_identity(*identity);
                    }
                })
        };
        let seq = committed.inspect_err(|_| {
            for (ts, _, previous) in &installed {
                ts.uninstall(txn, *previous, commit_point);
            }
            let _ = self.rollback_inner(txn, true);
        })?;
        for (ts, _, _) in &installed {
            ts.release_writer(txn);
        }
        self.release_versions();
        Ok(seq)
    }

    /// A transaction ended: drop the superseded table versions that were
    /// kept for it and that no remaining one began early enough to read.
    fn release_versions(&self) {
        let horizon = self.shared.txns.oldest_active_seq();
        for ts in self.shared.tables.read().values() {
            ts.release(horizon);
        }
    }

    /// Roll back: discard dirty frames and working blockmaps, delete the
    /// transaction's RB pages immediately. The coordinator is not
    /// notified (§3.3's optimization) — its active set still covers the
    /// keys, which is harmless.
    pub fn rollback(&self, txn: TxnId) -> IqResult<()> {
        self.rollback_inner(txn, false)
    }

    fn rollback_inner(&self, txn: TxnId, already_failed: bool) -> IqResult<()> {
        self.shared.buffer.discard_txn(txn);
        for ts in self.shared.tables.read().values() {
            ts.rollback(txn);
        }
        let res = self
            .shared
            .txns
            .rollback(txn, self.shared.immediate_sink.as_ref());
        self.release_versions();
        if already_failed {
            let _ = res;
            Ok(())
        } else {
            res
        }
    }

    /// Run one budgeted garbage-collection pass over the committed chain,
    /// consuming at most `budget` eligible entries. Commits defer
    /// reclamation to this driver, so deletion cost is paid here — as
    /// deduped, coalesced, worker-pool-parallel multi-object deletes —
    /// instead of inline on the commit path. Returns pages reclaimed
    /// (first-time only: a failed delete stays owed and is counted when a
    /// later pass deletes it).
    pub fn gc_tick(&self, budget: usize) -> IqResult<usize> {
        self.shared
            .txns
            .gc_tick(self.shared.gc_sink.as_ref(), budget)
    }

    /// Drain every currently-eligible chain entry in one batched pass.
    /// Eligibility depends only on the active-transaction horizon, so a
    /// single unbounded pass reaches everything a loop would.
    pub fn gc_drain(&self) -> IqResult<usize> {
        self.gc_tick(usize::MAX)
    }

    /// Run one budgeted compaction round over sparse composites: claim up
    /// to `max_composites` composites whose live fraction has dropped to
    /// `live_threshold` or below, rewrite their surviving members through
    /// the ordinary packed write path — fresh keys from the generator, so
    /// never-write-twice holds by construction — and commit. The rewrite
    /// supersedes each member's old ranged locator, so the donor
    /// composites turn fully dead and the next [`Self::gc_tick`] reclaims
    /// them as whole objects. A blockmap node member is moved by dirtying
    /// it in the round's working tree, so the commit's cascade rewrites
    /// it. Returns the number of members rewritten.
    ///
    /// Safety rule: a claimed member whose current committed locator is no
    /// longer the exact donor range — for a node, that is no longer a node
    /// of the current tree — is skipped *without* being touched: the page
    /// has moved on, and rewriting it would free the newer version out
    /// from under concurrent readers.
    pub fn compact_tick(&self, live_threshold: f64, max_composites: usize) -> IqResult<usize> {
        let candidates = self
            .shared
            .txns
            .composites()
            .compaction_candidates(live_threshold, max_composites);
        if candidates.is_empty() {
            return Ok(0);
        }
        let claimed: Vec<ObjectKey> = candidates.iter().map(|(k, _)| *k).collect();
        // RAII: whatever happens inside this round — commit, rollback,
        // an error return, or a panic unwinding out of the rewrite
        // closure — the claims resolve exactly once. A leaked claim
        // would hide the composite from GC and compaction forever.
        let _claims = ClaimGuard {
            registry: Arc::clone(self.shared.txns.composites()),
            keys: claimed,
        };
        let txn = self.begin();
        let run = || -> IqResult<usize> {
            // Compaction moves what is current: were it pinned to its
            // begin, a commit landing before its first write would have
            // it rewrite — and so resurrect — a superseded page image.
            let pager = Pager {
                begin: LATEST,
                ..self.pager(txn)?
            };
            let mut rewritten = 0usize;
            for (key, live) in &candidates {
                let mut this_rewritten = 0u64;
                let mut this_stale = 0u64;
                for m in live {
                    let (table, page) = (TableId(m.table), iq_common::PageId(m.page));
                    let expect = iq_common::PhysicalLocator::ObjectRange {
                        key: *key,
                        offset: m.offset,
                        len: m.len,
                    };
                    let ts = self.shared.table_store(table)?;
                    let space = self.shared.space(ts.space)?;
                    let pio = iq_storage::PageIo {
                        space: &space,
                        keys: pager.keys.as_ref(),
                    };
                    let moved = if m.page & iq_storage::NODE_PAGE_TAG != 0 {
                        // A live blockmap node: the compaction commit
                        // rewrites it (and its path to the root) and frees
                        // this range.
                        ts.redirty_node(txn, expect, &pio)?
                    } else if ts.resolve(txn, LATEST, page, &pio)? == Some(expect) {
                        let p = iq_engine::PageStore::read_page(&pager, table, page, true)?;
                        iq_engine::PageStore::write_page(&pager, table, page, p.kind, p.body, txn)?;
                        true
                    } else {
                        false
                    };
                    if moved {
                        this_rewritten += 1;
                        rewritten += 1;
                    } else {
                        this_stale += 1;
                    }
                }
                iq_common::trace::emit(iq_common::trace::EventKind::Compaction {
                    key: key.offset(),
                    rewritten: this_rewritten,
                    dead: this_stale,
                });
                self.shared
                    .pack_stats
                    .compaction_rewritten
                    .fetch_add(this_rewritten, Ordering::Relaxed);
                self.shared
                    .pack_stats
                    .compaction_stale_skips
                    .fetch_add(this_stale, Ordering::Relaxed);
            }
            Ok(rewritten)
        };
        let finished = match run() {
            Ok(n) if n > 0 => self.commit(txn).map(|_| n),
            Ok(_) => self.rollback(txn).map(|_| 0),
            Err(e) => {
                let _ = self.rollback_inner(txn, true);
                Err(e)
            }
        };
        // `_claims` drops here: on success the donors are now fully
        // dead and become GC-visible; on failure they go back into the
        // candidate pool.
        if let Ok(n) = &finished {
            if *n > 0 {
                self.shared
                    .pack_stats
                    .compactions
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        finished
    }

    /// Write a checkpoint, the base reopen starts from: the catalog, saved
    /// to the system device with every identity logged so far; the key
    /// generator's state, the conventional freelists, and the garbage
    /// collector's — the composite registry with its death bits, the
    /// committed chain's pending frees, the retention FIFO and its clock.
    /// Once the record is durable the log is cut behind it, in memory and
    /// on the log store, so reopen replays only what came after it. If the
    /// record does not become durable the error is returned and nothing is
    /// cut.
    pub fn checkpoint(&self) -> IqResult<()> {
        let keygen = self.shared.mx.coordinator.keygen()?;
        // Quiesced, the fence has no commit between its log append and its
        // chain push and no GC pass or retention sweep between popping and
        // settling: the image holds exactly what the records before its
        // own did. It stays quiesced until the in-memory log is cut at this
        // record. The store's cut needs no fence: the record has landed,
        // so every object below its key is fixed, and whatever lands
        // meanwhile lands above it.
        let quiet = self.shared.txns.fence().quiesce();
        // The catalog goes first: once the record lands, the identities
        // logged before it are nowhere else.
        self.save_catalog(&mut self.shared.catalog.lock(), &quiet)?;
        let freelists = self
            .shared
            .spaces
            .read()
            .iter()
            .filter_map(|(id, space)| Some((*id, space.freelist_image()?)))
            .collect();
        keygen.checkpoint(Checkpoint {
            freelists,
            retention: self
                .shared
                .snapshots
                .as_ref()
                .map(|sm| sm.retention_image()),
            ..self.shared.txns.gc_image(&quiet)
        })?;
        self.shared.log.truncate_before_checkpoint()?;
        drop(quiet);
        if let Some(dl) = &self.shared.durable_log {
            dl.truncate_before_checkpoint()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Crash simulation
    // ------------------------------------------------------------------

    /// Crash a writer node: its active transactions abort with their RB
    /// bitmaps lost; cleanup happens at restart via coordinator
    /// active-set polling (§3.3, Table 1).
    pub fn crash_writer(&self, node: NodeId) -> IqResult<Vec<TxnId>> {
        let secondary = self
            .shared
            .mx
            .secondary(node)
            .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
        if secondary.role != NodeRole::Writer {
            return Err(IqError::Invalid(format!("node {node} is not a writer")));
        }
        secondary.crash();
        self.shared.key_caches.lock().remove(&node.0);
        let aborted = self.shared.txns.abort_node(node);
        for &t in &aborted {
            self.shared.buffer.discard_txn(t);
            for ts in self.shared.tables.read().values() {
                ts.rollback(t);
            }
        }
        Ok(aborted)
    }

    /// Restart a crashed writer: the coordinator polls the node's entire
    /// outstanding key range for garbage. Returns `(polled, deleted)`.
    pub fn restart_writer(&self, node: NodeId, cloud_space: DbSpaceId) -> IqResult<(u64, u64)> {
        let secondary = self
            .shared
            .mx
            .secondary(node)
            .ok_or_else(|| IqError::NotFound(format!("node {node}")))?;
        let space = self.shared.space(cloud_space)?;
        secondary.restart(&space)
    }

    /// Crash the coordinator (volatile key-generator state lost).
    pub fn crash_coordinator(&self) {
        self.shared.mx.coordinator.crash();
        self.shared.key_caches.lock().remove(&0);
    }

    /// Recover the coordinator by replaying the transaction log.
    pub fn recover_coordinator(&self) -> IqResult<()> {
        self.shared.mx.coordinator.recover();
        // The transaction manager keeps notifying the *recovered*
        // generator about commits.
        Ok(())
    }

    /// The coordinator's view of a node's active key set (tests).
    pub fn active_set(&self, node: NodeId) -> IqResult<iq_common::KeySet> {
        Ok(self.shared.mx.coordinator.keygen()?.active_set(node))
    }

    // ------------------------------------------------------------------
    // Snapshots (§5)
    // ------------------------------------------------------------------

    /// Take a near-instantaneous snapshot: catalog + snapshot-manager
    /// metadata only; cloud dbspaces are not copied. Returns the snapshot
    /// id.
    pub fn take_snapshot(&self) -> IqResult<u64> {
        let sm = self
            .shared
            .snapshots
            .as_ref()
            .ok_or_else(|| IqError::Invalid("retention disabled".into()))?;
        // Surrender every node's cached key range: all post-snapshot keys
        // are then strictly above the recorded watermark, making the
        // restore-time GC range exact (§5; burned keys cost nothing).
        for cache in self.shared.key_caches.lock().values() {
            cache.surrender();
        }
        // The retention FIFO needs no copy of its own here. Its durable
        // copy is the checkpoint record, which carries it and its clock
        // to the log's object store (§5: "this list of metadata is also
        // stored on object stores"), and reopen restores it from there.
        let max_key = self.shared.mx.coordinator.keygen()?.max_allocated();
        let catalog = self.shared.catalog.lock().clone();
        Ok(sm.take_snapshot(&catalog, max_key).id)
    }

    /// Point-in-time restore: reinstate the snapshot's catalog, drop RAM
    /// state, and garbage collect the keys created since the snapshot
    /// (computable thanks to monotone keys, §5). The restored catalog is
    /// saved stamped past every commit logged so far: a reopen lands on
    /// the snapshot and replays only the commits made after the restore.
    /// Returns keys deleted.
    pub fn restore_snapshot(&self, id: u64) -> IqResult<u64> {
        let sm = self
            .shared
            .snapshots
            .as_ref()
            .ok_or_else(|| IqError::Invalid("retention disabled".into()))?;
        let current_max = self.shared.mx.coordinator.keygen()?.max_allocated();
        let (catalog, gc_range) = sm.restore(id, current_max)?;
        // Reinstate identities; tables absent at snapshot time lose theirs.
        for ts in self.shared.tables.read().values() {
            ts.restore_identity(catalog.identity(ts.table).copied());
        }
        {
            let quiet = self.shared.txns.fence().quiesce();
            let mut current = self.shared.catalog.lock();
            *current = catalog;
            self.save_catalog(&mut current, &quiet)?;
        }
        self.shared.buffer.clear();
        let mut deleted = 0;
        for space in self.shared.spaces.read().values() {
            if space.is_cloud() {
                let (_, d) = SnapshotManager::gc_key_range(space, gc_range)?;
                deleted += d;
            }
        }
        Ok(deleted)
    }

    /// Advance the retention clock.
    pub fn advance_clock(&self, d: SimDuration) {
        if let Some(sm) = &self.shared.snapshots {
            sm.advance_clock(d);
        }
    }

    /// Sweep expired retained pages. Returns pages permanently deleted.
    pub fn sweep_retention(&self) -> IqResult<usize> {
        match &self.shared.snapshots {
            Some(sm) => {
                // Inside the checkpoint fence: pages popped from the FIFO
                // are in no image until they are deleted or back in it.
                let _inside = self.shared.txns.fence().enter();
                sm.sweep_expired(self.shared.immediate_sink.as_ref())
            }
            None => Ok(0),
        }
    }

    /// The snapshot manager (tests / benches).
    pub fn snapshot_manager(&self) -> Option<&Arc<SnapshotManager>> {
        self.shared.snapshots.as_ref()
    }

    /// Buffer-manager statistics.
    pub fn buffer_stats(&self) -> &iq_buffer::BufferStats {
        &self.shared.buffer.stats
    }

    /// Snapshot of the submission/completion I/O core's counters (the
    /// `io.*` metrics source).
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.shared.io_stats.snapshot()
    }

    /// Late-materialization scan counters (the `scan.*` metrics source;
    /// the `--prune` ablation reads GETs saved from here).
    pub fn scan_stats(&self) -> &Arc<ScanStats> {
        &self.shared.scan_stats
    }

    /// The durable transaction-log uploader, when `config.group_commit`
    /// is not `Off` (the group-commit ablation reads its counters).
    pub fn durable_log(&self) -> Option<&Arc<DurableLog>> {
        self.shared.durable_log.as_ref()
    }

    /// The shared in-memory transaction log (tests and the recovery
    /// bench compare it against the durable stream).
    pub fn txn_log(&self) -> &Arc<TxnLog> {
        &self.shared.log
    }

    /// The unified metrics registry. Subsystems register named sources at
    /// creation/reopen; external integrations may add their own.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Flattened snapshot of every registered metrics source, keyed
    /// `"source.metric"` in sorted order.
    pub fn metrics(&self) -> std::collections::BTreeMap<String, MetricValue> {
        self.shared.metrics.snapshot()
    }

    /// The metrics snapshot as a stable, machine-readable JSON object
    /// (`repro --metrics` and the CI schema check consume this).
    pub fn metrics_json(&self) -> String {
        self.shared.metrics.to_json()
    }

    /// Poll-delete a specific object key everywhere (tests).
    pub fn poll_delete(&self, key: ObjectKey) -> IqResult<bool> {
        for space in self.shared.spaces.read().values() {
            if space.is_cloud() && space.poll_delete(key)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn persist_ddl(&self) -> IqResult<()> {
        // DDL is durable immediately: the catalog records dbspace and
        // table definitions and goes straight to the system dbspace.
        let defs: Vec<DbSpaceDef> = {
            let spaces = self.shared.spaces.read();
            let mut v: Vec<DbSpaceDef> = spaces
                .values()
                .map(|s| DbSpaceDef {
                    id: s.id.0,
                    name: s.name.clone(),
                    cloud: s.is_cloud(),
                    page_size: s.config.page_size,
                })
                .collect();
            v.sort_by_key(|d| d.id);
            v
        };
        let tables: Vec<TableDef> = {
            let tables = self.shared.tables.read();
            let mut v: Vec<TableDef> = tables
                .values()
                .map(|t| TableDef {
                    id: t.table.0,
                    space: t.space.0,
                })
                .collect();
            v.sort_by_key(|t| t.id);
            v
        };
        let quiet = self.shared.txns.fence().quiesce();
        let mut catalog = self.shared.catalog.lock();
        catalog.put_section("dbspaces", &defs)?;
        catalog.put_section("tables", &tables)?;
        self.save_catalog(&mut catalog, &quiet)
    }

    /// "Power off" the instance: volatile state (buffer cache, OCM SSD
    /// contents, key caches, active transactions) is dropped; what
    /// survives is exactly what survives an EC2 stop — the system
    /// dbspace, the transaction log, and the storage backends.
    pub fn into_durable(self) -> DurableState {
        // Abort whatever was in flight, like a crash would.
        DurableState {
            system: Arc::clone(&self.shared.system),
            log: Arc::clone(&self.shared.log),
            cloud_stores: self.shared.cloud_stores.read().clone(),
            block_devices: self.shared.block_devices.read().clone(),
            // The durable-log *store* survives like any other backend;
            // the uploader wrapped around it is volatile.
            log_store: self
                .shared
                .durable_log
                .as_ref()
                .map(|dl| Arc::clone(dl.sim())),
        }
    }

    /// Reopen a database from its durable state: reload the catalog and
    /// replay over it the identities committed since it was saved,
    /// rebuild dbspaces and tables from their definitions and identity
    /// objects, recover the Object Key Generator by log replay (§3.2),
    /// restore conventional freelists and the garbage collector's state
    /// from the last checkpoint plus the committed RF/RB bitmaps logged
    /// after it (§3.3), and garbage collect every outstanding active-set
    /// range — transactions in flight at power-off can never commit.
    pub fn reopen(durable: DurableState, config: DatabaseConfig) -> IqResult<Self> {
        let catalog = Catalog::load(durable.system.as_ref(), BlockNum(0))?;
        // When the previous life mirrored the log durably, the durable
        // stream is authoritative for commits: reconcile the in-memory
        // log against it BEFORE any replay consumer runs (OKG recovery,
        // freelist restore, composite rebuild) — an un-durable commit
        // must not resurrect.
        let recovery = match &durable.log_store {
            Some(store) => crate::log_recovery::reconcile(&durable.log, store)?,
            None => crate::log_recovery::RecoveryReport::default(),
        };
        let mx = Multiplex::new(Arc::clone(&durable.log), config.writers, config.readers);
        // Recover the key generator from the (reconciled) log before
        // serving.
        mx.coordinator.recover();
        // The log object survived the restart; drop its old durability
        // sink (the shell below installs this life's, if any). A surviving
        // log store opens a fresh stats epoch, like the other surviving
        // backends, so post-recovery metrics exclude pre-crash log
        // traffic.
        durable.log.clear_sink();
        if let Some(sim) = &durable.log_store {
            sim.stats.begin_epoch();
        }
        let fresh_log_store = durable.log_store.is_none();
        let db = Self::assemble(
            config,
            mx,
            Arc::clone(&durable.log),
            durable.system,
            catalog,
            durable.log_store,
        )?;
        db.shared.log_recovery.record(&recovery);
        if let Some(dl) = db.shared.durable_log.as_ref().filter(|_| fresh_log_store) {
            // Uploads newly enabled over a log with history: mirror it so
            // the durable stream stays a superset of memory (otherwise
            // the next reconciliation would drop every pre-existing
            // commit).
            dl.bootstrap(&durable.log.all_records())?;
        }

        // Rebuild dbspaces from their catalog definitions over the
        // surviving backends. Each backend (and its request ledger)
        // survives the restart; a fresh stats epoch accounts post-restart
        // traffic separately while the archived epochs remain reachable
        // via `lifetime_snapshot`.
        let defs: Vec<DbSpaceDef> = db
            .shared
            .catalog
            .lock()
            .get_section("dbspaces")?
            .unwrap_or_default();
        for def in &defs {
            let id = DbSpaceId(def.id);
            let storage = iq_storage::StorageConfig {
                page_size: def.page_size,
            };
            if def.cloud {
                let store =
                    durable.cloud_stores.get(&def.id).cloned().ok_or_else(|| {
                        IqError::Catalog(format!("missing store for {}", def.name))
                    })?;
                store.stats.begin_epoch();
                db.attach_cloud_space(id, &def.name, storage, store);
            } else {
                let device =
                    durable.block_devices.get(&def.id).cloned().ok_or_else(|| {
                        IqError::Catalog(format!("missing device for {}", def.name))
                    })?;
                device.stats.begin_epoch();
                db.attach_conventional_space(id, &def.name, storage, device)?;
            }
            db.next_space.fetch_max(def.id + 1, Ordering::Relaxed);
        }

        // Restore the garbage collector and the conventional freelists: the
        // last checkpoint's image, then the commits logged after it, in
        // order (§3.3). With no checkpoint in the log the image is empty
        // and the whole log is the suffix. Block runs go straight back to
        // the freelists — the checkpoint's pending ones first, then each
        // commit's RB and RF — because a later commit may have reused a
        // run an earlier one freed. The registry, the retention FIFO, and
        // the cloud keys and members still to free go back to their
        // managers; the next GC pass reclaims what is owed.
        let mut checkpoint = Checkpoint::default();
        let mut commits = Vec::new();
        for record in db.shared.log.replay_suffix() {
            match record {
                LogRecord::Checkpoint(cp) => {
                    checkpoint = cp;
                    commits.clear();
                }
                LogRecord::Commit { rfrb, .. } => commits.push(rfrb),
                LogRecord::AllocateRange { .. } => {}
            }
        }
        // The commits logged since the catalog's last save installed their
        // identities in the log alone. In log order, the last commit of a
        // table wins, and the version watermark comes back above every
        // version a commit installed.
        {
            let mut catalog = db.shared.catalog.lock();
            for identity in db.shared.log.identities_since(catalog.replay_from) {
                catalog.version_watermark = catalog.version_watermark.max(identity.version.0);
                catalog.set_identity(identity);
            }
        }
        for (space_id, image) in &checkpoint.freelists {
            if let Ok(space) = db.shared.space(DbSpaceId(*space_id)) {
                space.restore_freelist(image)?;
            }
        }
        let blocks = |set: &PageSet, apply: fn(&mut iq_storage::Freelist, BlockNum, u32)| {
            for (space_id, start, count) in set.iter_blocks() {
                if let Ok(space) = db.shared.space(space_id) {
                    space.with_freelist(|f| apply(f, start, u32::from(count)));
                }
            }
        };
        blocks(&checkpoint.pending, iq_storage::Freelist::free);
        for rfrb in &commits {
            blocks(&rfrb.rb, iq_storage::Freelist::mark_used);
            blocks(&rfrb.rf, iq_storage::Freelist::free);
        }
        let mut pending = checkpoint.pending.keys;
        match (checkpoint.retention, &db.shared.snapshots) {
            (Some(image), Some(sm)) => sm.restore_retention(&image),
            // Retention is off in this life: what the last one retained
            // dies now.
            (Some(image), None) => {
                for (key, _expiry) in image.fifo {
                    pending.insert(key);
                }
            }
            (None, _) => {}
        }
        db.shared
            .txns
            .recover_gc(checkpoint.composites, pending, &commits);

        // Rebuild tables from definitions + identity objects.
        let table_defs: Vec<TableDef> = db
            .shared
            .catalog
            .lock()
            .get_section("tables")?
            .unwrap_or_default();
        for def in &table_defs {
            let identity = db.shared.catalog.lock().identity(TableId(def.id)).copied();
            let ts = match identity {
                Some(identity) => {
                    Arc::new(TableStore::from_identity(identity, DbSpaceId(def.space)))
                }
                None => Arc::new(TableStore::new(
                    TableId(def.id),
                    DbSpaceId(def.space),
                    db.shared.config.blockmap_fanout,
                )),
            };
            db.shared.tables.write().insert(def.id, ts);
            db.next_table.fetch_max(def.id + 1, Ordering::Relaxed);
        }

        // Transactions in flight at power-off can never commit: poll
        // every node's outstanding active set for garbage (§3.3,
        // Table 1 clock 150 — applied to every node on full restart).
        let keygen = db.shared.mx.coordinator.keygen()?;
        let nodes: Vec<u32> = (0..=db.shared.config.writers + db.shared.config.readers).collect();
        for node in nodes {
            let set = keygen.drain_active_set(NodeId(node));
            for off in set.iter() {
                db.poll_delete(ObjectKey::from_offset(off))?;
            }
        }
        Ok(db)
    }
}

/// Persisted definition of a dbspace (catalog section `"dbspaces"`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct DbSpaceDef {
    /// Dbspace id.
    pub id: u32,
    /// User-visible name.
    pub name: String,
    /// Cloud (object store) vs conventional (block device).
    pub cloud: bool,
    /// Page size of the dbspace.
    pub page_size: u32,
}

/// Persisted definition of a table (catalog section `"tables"`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TableDef {
    /// Table id.
    pub id: u32,
    /// Dbspace the table lives on.
    pub space: u32,
}

/// What survives an instance stop: the system dbspace, the transaction
/// log, and the storage backends. RAM and instance-store SSD do not.
pub struct DurableState {
    system: Arc<BlockDeviceSim>,
    log: Arc<TxnLog>,
    cloud_stores: HashMap<u32, Arc<ObjectStoreSim>>,
    block_devices: HashMap<u32, Arc<BlockDeviceSim>>,
    /// The durable-log store, when the previous life ran an uploader.
    /// Recovery reads the record stream back from here and a reopening
    /// uploader resumes key allocation above its live keys.
    log_store: Option<Arc<ObjectStoreSim>>,
}
