//! Functional TPC-H runs with per-phase activity capture.

use std::sync::Arc;

use iq_common::{IqError, IqResult, TableId, GIB};
use iq_core::{Database, DatabaseConfig};
use iq_objectstore::timemodel::{DeviceLoad, PhaseLoad};
use iq_objectstore::{
    ComputeProfile, CostLedger, DeviceProfile, DeviceStats, IoOp, TimeModel, VolumeKind,
};
use iq_ocm::OcmStatsSnapshot;
use iq_tpch::queries::{run_query, Ctx};
use iq_tpch::TpchDb;

/// Scale factor the activity is projected to (the paper ran 1000).
pub const TARGET_SF: f64 = 1000.0;
/// Data generator / workload seed.
pub const SEED: u64 = 20210620;
/// Row-group size for the TPC-H tables.
const ROW_GROUP_SIZE: u32 = 4096;
/// Cache-budget calibration: our data is smaller than the paper's
/// (≈518 GiB at SF 1000), so RAM/SSD budgets shrink by this additional
/// factor to preserve the working-set-to-cache ratios that drive the
/// paper's cache dynamics. Our 238 GiB is the data in whole 4 KiB blocks,
/// as an EBS volume holds it; S3's byte-exact objects hold ≈165 GiB. The
/// ratio is about cache footprints, which padding never entered: a buffer
/// frame is charged for its page's body and an OCM slot holds one page
/// whatever its length, so exact objects leave the calibration as it was.
const CAPACITY_CALIBRATION: f64 = 238.0 / 518.0;
/// CPU-work multiplier for the load phase: SAP IQ's load engine does
/// far more per-row work (full dbgen parsing, richer compression,
/// tiered HG maintenance) than our simplified encoders, and the
/// paper's Figure 7 shows the load is CPU-bound until ~96 cores.
const LOAD_CPU_FACTOR: f64 = 26.0;

/// One experiment run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Functional scale factor (laptop scale).
    pub sf: f64,
    /// Where user dbspaces live.
    pub volume: VolumeKind,
    /// Instance shape.
    pub compute: ComputeProfile,
    /// OCM on/off (only meaningful on S3).
    pub ocm_enabled: bool,
}

impl RunConfig {
    /// The paper's primary configuration: S3 + OCM on an m5ad.24xlarge.
    pub fn paper_default(sf: f64) -> Self {
        Self {
            sf,
            volume: VolumeKind::S3,
            compute: ComputeProfile::m5ad_24xlarge(),
            ocm_enabled: true,
        }
    }

    /// Scale ratio from functional to projected scale.
    pub fn scale(&self) -> f64 {
        TARGET_SF / self.sf
    }

    /// RAM/SSD budgets shrink by the same ratio the data does, preserving
    /// the working-set-to-cache ratios that drive the paper's cache
    /// dynamics.
    fn sf_ratio(&self) -> f64 {
        self.sf / TARGET_SF * CAPACITY_CALIBRATION
    }
}

/// Activity of one phase (load or one query).
#[derive(Debug, Clone)]
pub struct PhaseCapture {
    /// Phase label (`load`, `Q1`…`Q22`).
    pub name: String,
    /// Unscaled per-device activity + CPU work.
    pub load: PhaseLoad,
    /// Rows produced (queries) or loaded.
    pub rows: u64,
}

/// A full power run: load + 22 queries, with captured activity.
pub struct PowerRun {
    /// Configuration.
    pub config: RunConfig,
    /// Load-phase capture.
    pub load: PhaseCapture,
    /// Query captures, Q1..Q22 in order.
    pub queries: Vec<PhaseCapture>,
    /// OCM counters accumulated over the query phases (Table 5).
    pub ocm_stats: OcmStatsSnapshot,
    /// Compressed bytes at rest on the user volume (unscaled).
    pub resident_bytes: u64,
}

fn user_volume_profile(cfg: &RunConfig, resident_scaled_gib: u64) -> IqResult<DeviceProfile> {
    match cfg.volume {
        VolumeKind::S3 => Ok(DeviceProfile::s3()),
        // The paper used a 1 TB gp2 volume.
        VolumeKind::EbsGp2 => Ok(DeviceProfile::ebs_gp2(1024)),
        VolumeKind::Efs => Ok(DeviceProfile::efs(resident_scaled_gib.max(1))),
        other => Err(IqError::Invalid(format!(
            "user dbspaces live on S3/EBS/EFS, not {other:?}"
        ))),
    }
}

/// Modeled size of the dbgen flat files a load of `rows` TPC-H rows reads
/// from S3. The files are about twice the data's compressed footprint on a
/// block volume: 2 × 2 539 520 bytes for the 86 434 rows of SF 0.01. One
/// figure for every volume — an S3 load reads the same files as an EBS one,
/// however few bytes its byte-exact objects then store.
fn dbgen_input_bytes(rows: u64) -> u64 {
    rows * (2 * 2_539_520) / 86_434
}

/// A database set up for phase capture — what a power run and the
/// throughput drill share: database and dbspace set-up, the TPC-H load,
/// the instance restart, and the reset → run → snapshot bracket around
/// every captured phase.
pub(crate) struct Capture {
    pub(crate) config: RunConfig,
    pub(crate) db: Database,
    user_space: Arc<iq_storage::DbSpace>,
    /// Compressed bytes at rest on the user volume once loaded (unscaled).
    resident_bytes: u64,
}

impl Capture {
    /// Create the database for `config`, scanning with `scan_workers`,
    /// with the user dbspace and the eight TPC-H tables on it.
    pub(crate) fn open(config: RunConfig, scan_workers: usize) -> IqResult<Capture> {
        let ratio = config.sf_ratio();
        let mut db_cfg = DatabaseConfig::default();
        db_cfg.storage.page_size = 64 * 1024;
        db_cfg.buffer_bytes =
            ((config.compute.buffer_ram() as f64 * ratio) as usize).max(256 * 1024);
        db_cfg.ocm_bytes = if config.ocm_enabled && config.volume == VolumeKind::S3 {
            ((config.compute.ssd_bytes as f64 * ratio) as u64).max(1 << 20)
        } else {
            0
        };
        db_cfg.retention = None; // GC immediately; retention measured elsewhere
        db_cfg.scan_workers = scan_workers;
        let db = Database::create(db_cfg)?;

        let space = if config.volume == VolumeKind::S3 {
            db.create_cloud_dbspace("tpch")?
        } else {
            // Conventional volume sized 1 TB at target scale.
            db.create_conventional_dbspace("tpch", (GIB as f64 * 1024.0 * ratio * 4.0) as u64)?
        };
        for t in 1..=8u32 {
            db.create_table(TableId(t), space)?;
        }
        Ok(Capture {
            user_space: db.dbspace(space)?,
            config,
            db,
            resident_bytes: 0,
        })
    }

    /// Open a phase: restart the device and buffer epochs and return the
    /// work-meter mark [`Capture::end_phase`] measures from.
    pub(crate) fn begin_phase(&self) -> u64 {
        self.user_space.reset_backend_stats();
        self.db.ssd().stats.reset();
        self.db.buffer_stats().begin_epoch();
        self.db.meter().total()
    }

    /// Close the phase opened at `mark` into its captured activity.
    pub(crate) fn end_phase(&self, name: &str, mark: u64, rows: u64) -> IqResult<PhaseCapture> {
        self.snapshot_phase(name, rows, None, self.db.meter().since(mark) as f64)
    }

    /// The activity since the phase began as a [`PhaseCapture`]; the user
    /// volume is always its first device. `input_bytes` of flat files
    /// stream in beside it during a load.
    fn snapshot_phase(
        &self,
        name: &str,
        rows: u64,
        input_bytes: Option<u64>,
        cpu_work: f64,
    ) -> IqResult<PhaseCapture> {
        let config = &self.config;
        let demand_fraction = self.db.buffer_stats().demand_fraction();
        let resident_scaled_gib =
            ((self.resident_bytes as f64 * config.scale()) as u64 / GIB).max(1);
        let mut devices = vec![DeviceLoad {
            profile: user_volume_profile(config, resident_scaled_gib)?,
            snapshot: self.user_space.backend_stats(),
            serial_read_fraction: demand_fraction,
        }];
        // Input flat files always stream from S3 (§6: "all input files are
        // stored in an S3 bucket").
        if let Some(bytes) = input_bytes {
            let input = DeviceStats::new();
            const CHUNK: u64 = 8 * 1024 * 1024;
            for i in 0..bytes.div_ceil(CHUNK) {
                let chunk = CHUNK.min(bytes - i * CHUNK);
                input.record_prefixed(IoOp::Get, chunk, Some((i % 512) as u16));
            }
            devices.push(DeviceLoad {
                profile: DeviceProfile::s3(),
                snapshot: input.snapshot(),
                serial_read_fraction: 0.0,
            });
        }
        // The OCM's local SSD.
        let ssd = self.db.ssd().stats.snapshot();
        if ssd.total_requests > 0 {
            devices.push(DeviceLoad {
                profile: DeviceProfile::local_nvme(config.compute.ssd_devices.max(1)),
                snapshot: ssd,
                serial_read_fraction: demand_fraction,
            });
        }
        Ok(PhaseCapture {
            name: name.into(),
            load: PhaseLoad { devices, cpu_work },
            rows,
        })
    }

    /// Generate and load TPC-H in one transaction, captured as the `load`
    /// phase.
    pub(crate) fn load_tpch(&mut self) -> IqResult<(TpchDb, PhaseCapture)> {
        let mark = self.begin_phase();
        let txn = self.db.begin();
        let pager = self.db.pager(txn)?;
        let tpch = TpchDb::load(
            self.config.sf,
            SEED,
            &pager,
            txn,
            self.db.meter(),
            ROW_GROUP_SIZE,
        )?;
        self.db.commit(txn)?;
        if let Some(ocm) = self.db.ocm() {
            ocm.quiesce();
        }
        self.resident_bytes = self.user_space.resident_bytes();
        let load = self.snapshot_phase(
            "load",
            tpch.total_rows(),
            Some(dbgen_input_bytes(tpch.total_rows())),
            self.db.meter().since(mark) as f64 * LOAD_CPU_FACTOR,
        )?;
        Ok((tpch, load))
    }

    /// Instance restart between the load and the measured phases (the
    /// paper's power runs follow one): RAM and the ephemeral
    /// instance-store SSD both come back empty, so the OCM is always cold
    /// — the source of Figure 6's warm-up arc.
    pub(crate) fn restart(&self) -> IqResult<()> {
        self.db.shared().buffer.clear();
        if let Some(ocm) = self.db.ocm() {
            ocm.clear_cache();
        }
        for t in 1..=8u32 {
            self.db.shared().table_store(TableId(t))?.invalidate_cache();
        }
        Ok(())
    }

    /// Run Q1..Q22 in one reader transaction, each captured as its own
    /// phase, with operators fanning out over `op_workers` workers and
    /// accounting into the database's submission-depth stats.
    pub(crate) fn run_queries(
        &self,
        tpch: &TpchDb,
        op_workers: usize,
    ) -> IqResult<Vec<PhaseCapture>> {
        let exec =
            iq_engine::OpExec::new(op_workers).with_stats(Arc::clone(&self.db.shared().io_stats));
        let txn = self.db.begin();
        let pager = self.db.pager(txn)?;
        let mut queries = Vec::with_capacity(22);
        for n in 1..=22u32 {
            let mark = self.begin_phase();
            let ctx = Ctx {
                db: tpch,
                store: &pager,
                meter: self.db.meter(),
                exec: exec.clone(),
                late_mat: true,
            };
            let out = run_query(n, &ctx)?;
            if let Some(ocm) = self.db.ocm() {
                ocm.quiesce();
            }
            queries.push(self.end_phase(&format!("Q{n}"), mark, out.len() as u64)?);
        }
        self.db.rollback(txn)?;
        Ok(queries)
    }
}

impl PowerRun {
    /// Execute the workload functionally and capture activity.
    pub fn execute(config: RunConfig) -> IqResult<PowerRun> {
        // Morsel-parallel scans, the commit-flush fan-out and the
        // operators they feed run one worker per modelled core, clamped to
        // the host's real parallelism (the functional run executes on the
        // laptop; virtual time does the scale-up).
        let workers = (config.compute.cpus as usize)
            .min(std::thread::available_parallelism().map_or(8, |n| n.get()))
            .max(1);
        let mut cap = Capture::open(config, workers)?;
        let (tpch, load) = cap.load_tpch()?;
        cap.restart()?;

        let ocm_stats = || {
            cap.db.ocm().map_or(
                OcmStatsSnapshot {
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                },
                |o| o.stats_snapshot(),
            )
        };
        let before = ocm_stats();
        let queries = cap.run_queries(&tpch, workers)?;
        let after = ocm_stats();

        Ok(PowerRun {
            load,
            queries,
            ocm_stats: OcmStatsSnapshot {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
            },
            resident_bytes: cap.resident_bytes,
            config: cap.config,
        })
    }

    /// Fold one captured phase into virtual seconds at the projected
    /// scale under this run's compute profile.
    pub fn phase_seconds(&self, phase: &PhaseCapture) -> f64 {
        let model = TimeModel::new(self.config.compute.clone());
        let scaled = scale_phase(&phase.load, self.config.scale());
        model.phase_time(&scaled).as_secs_f64()
    }

    /// Virtual duration of the whole query sweep.
    pub fn query_sweep_seconds(&self) -> f64 {
        self.queries.iter().map(|q| self.phase_seconds(q)).sum()
    }

    /// Geometric mean of the 22 query times.
    pub fn query_geomean(&self) -> f64 {
        let logs: f64 = self
            .queries
            .iter()
            .map(|q| self.phase_seconds(q).max(1e-6).ln())
            .sum();
        (logs / self.queries.len() as f64).exp()
    }

    /// Request charges (scaled) over the given phases.
    pub fn request_cost(&self, phases: &[&PhaseCapture]) -> CostLedger {
        let mut ledger = CostLedger::default();
        for p in phases {
            for d in &p.load.devices {
                // Same projection as the time model: the paper's 512 KiB
                // page geometry, then the target scale.
                ledger.charge_requests(
                    &d.profile,
                    &d.snapshot.rechunked(512 * 1024).scaled(self.config.scale()),
                );
            }
        }
        ledger
    }

    /// Data-at-rest bytes at the projected scale.
    pub fn resident_bytes_scaled(&self) -> u64 {
        (self.resident_bytes as f64 * self.config.scale()) as u64
    }

    /// The user-volume device profile for costing. Fails on a volume
    /// kind user dbspaces cannot live on.
    pub fn volume_profile(&self) -> IqResult<DeviceProfile> {
        user_volume_profile(&self.config, self.resident_bytes_scaled() / GIB)
    }
}

/// Scale a phase's activity to the projected scale factor.
///
/// Counts and bytes grow linearly with the data. *Serial* (demand-miss)
/// reads do not: they are pipeline-fill stalls and index descents, which
/// grow roughly with the square root of the data (more row groups, but
/// proportionally deeper prefetch pipelines hide more of them). The
/// serial fraction therefore shrinks by `sqrt(factor)` so the absolute
/// serial count scales by `sqrt(factor)` rather than `factor`.
pub fn scale_phase(phase: &PhaseLoad, factor: f64) -> PhaseLoad {
    PhaseLoad {
        devices: phase
            .devices
            .iter()
            .map(|d| DeviceLoad {
                profile: d.profile.clone(),
                // Project to the paper's 512 KiB page geometry, then to
                // the target scale factor.
                snapshot: d.snapshot.rechunked(512 * 1024).scaled(factor),
                serial_read_fraction: d.serial_read_fraction / factor.sqrt().max(1.0),
            })
            .collect(),
        cpu_work: phase.cpu_work * factor,
    }
}
