//! Database configuration.

use iq_common::{SimDuration, GIB, MIB};
use iq_objectstore::{ConsistencyConfig, FaultPlan, RetryPolicy};
use iq_storage::StorageConfig;

/// How transaction-log appends reach durable storage.
///
/// Which log is authoritative follows the mode. Under `Off` (the default)
/// there is no uploader — every existing trace and request count is
/// untouched — and the in-memory [`iq_txn::TxnLog`] alone decides what
/// recovery replays. The other two modes mirror appended records onto a
/// strongly consistent log store, which makes commit-PUT traffic
/// measurable and the durable stream authoritative for commits: a commit
/// succeeds only if its record's PUT landed, and reopening an instance
/// whose previous life ran in one of them reconciles the in-memory log
/// against the stream before anything replays it, dropping `Commit`
/// records the store never received (see [`crate::log_recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupCommitMode {
    /// No durable log uploads (the pre-PR-7 behaviour).
    #[default]
    Off,
    /// One PUT per commit record — the naive baseline the group-commit
    /// ablation measures against.
    PerAppend,
    /// Group commit: a gather leader coalesces the commit records of
    /// every concurrently committing transaction into one PUT.
    Coalesced,
}

/// Configuration of a [`crate::Database`].
#[derive(Debug, Clone)]
pub struct DatabaseConfig {
    /// Page geometry shared by all dbspaces.
    pub storage: StorageConfig,
    /// Buffer-manager RAM budget ("½ of the RAM is reserved for SAP IQ's
    /// buffer manager", §6).
    pub buffer_bytes: usize,
    /// OCM SSD budget; 0 disables the OCM.
    pub ocm_bytes: u64,
    /// Object-store consistency model.
    pub consistency: ConsistencyConfig,
    /// Retry budget for object-store operations.
    pub retry: RetryPolicy,
    /// Snapshot retention period; `None` disables retention (pages die as
    /// soon as the chain releases them).
    pub retention: Option<SimDuration>,
    /// Writer secondaries in the multiplex.
    pub writers: u32,
    /// Reader secondaries in the multiplex.
    pub readers: u32,
    /// Blockmap fanout (entries per blockmap page).
    pub blockmap_fanout: usize,
    /// System-dbspace device capacity in bytes (catalog + freelists).
    pub system_bytes: u64,
    /// XOR-cipher key for cloud page images; `None` disables encryption.
    /// Stands in for the paper's "pages are handed to the OCM in encrypted
    /// form" (§4).
    pub encryption_key: Option<u64>,
    /// Worker threads for morsel-parallel scans and the commit-flush
    /// fan-out. The benchmark harness sets this from the compute profile's
    /// core count; 1 means fully serial.
    pub scan_workers: usize,
    /// Scripted fault schedule for cloud dbspaces; `None` runs faultless.
    /// When set, every cloud store is wrapped in a
    /// [`iq_objectstore::FaultInjector`] reachable via
    /// [`crate::Database::fault_injector`].
    pub fault: Option<FaultPlan>,
    /// Commit-flush packing factor: up to this many dirty pages coalesce
    /// into one composite object per PUT (~16 pages ≈ 4 MiB at the default
    /// page size). `1` disables packing and reproduces the per-page flush
    /// path — and its request counts — exactly.
    pub pack_pages: usize,
    /// Serve composite members with ranged GETs (`true`, the default) or
    /// by fetching the whole composite and slicing client-side (`false` —
    /// the ablation that makes over-read bytes measurable).
    pub pack_ranged_gets: bool,
    /// Durable transaction-log upload mode (the `--group-commit`
    /// ablation). `Off` by default: no extra traffic, no trace changes.
    pub group_commit: GroupCommitMode,
    /// Scripted fault schedule for the *durable-log* store, independent
    /// of [`Self::fault`] so log PUTs can be failed without perturbing
    /// data-store fault streams (and vice versa). `None` runs the log
    /// store faultless. Only meaningful when `group_commit` is not
    /// `Off`.
    pub log_fault: Option<FaultPlan>,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        Self {
            storage: StorageConfig {
                page_size: 64 * 1024,
            },
            buffer_bytes: 256 * MIB as usize,
            ocm_bytes: GIB,
            consistency: ConsistencyConfig::default(),
            retry: RetryPolicy::default(),
            retention: Some(SimDuration::from_secs(24 * 3600)),
            writers: 1,
            readers: 0,
            blockmap_fanout: 128,
            system_bytes: 64 * MIB,
            encryption_key: None,
            scan_workers: 1,
            fault: None,
            pack_pages: 16,
            pack_ranged_gets: true,
            group_commit: GroupCommitMode::Off,
            log_fault: None,
        }
    }
}

impl DatabaseConfig {
    /// Small geometry for tests.
    pub fn test_small() -> Self {
        Self {
            storage: StorageConfig::test_small(),
            buffer_bytes: 4 * MIB as usize,
            ocm_bytes: 2 * MIB,
            system_bytes: 4 * MIB,
            blockmap_fanout: 16,
            // Tests assert exact per-page request counts; packing is
            // opted into per test / per ablation.
            pack_pages: 1,
            ..Self::default()
        }
    }
}
