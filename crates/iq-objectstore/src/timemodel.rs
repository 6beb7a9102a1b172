//! The virtual-time performance model.
//!
//! Functional behaviour in this reproduction is real (bytes move, caches
//! hit and miss, GC deletes); *elapsed time* is computed, not measured.
//! Each workload phase produces a [`PhaseLoad`]: per-device request deltas
//! plus CPU work. [`TimeModel::phase_time`] folds a phase into a
//! [`SimDuration`] under a [`ComputeProfile`], applying the constraints
//! that produce the paper's shapes:
//!
//! * **Per-stream latency and bandwidth** — a device serves its requests
//!   over `min(prefetch_streams, queue_limit)` concurrent streams; each
//!   request pays first-byte latency plus bytes/bandwidth, so high-latency
//!   devices (S3) need parallelism to compete, and short queries with
//!   serial (demand-miss) reads cannot hide it. This yields the paper's
//!   Q2/Q19 exception where EBS beats S3.
//! * **Device caps** — EBS gp2 caps bandwidth at 250 MB/s and IOPS at
//!   3/GB; EFS throughput is a function of stored bytes. S3 has no device
//!   cap, so its throughput grows with parallelism until the NIC saturates.
//!   This yields "S3 scales well... IOPS can be significantly throttled on
//!   the latter two" (§6).
//! * **Per-prefix request-rate limits** — S3 throttles each key prefix;
//!   the effective limit multiplies by the *effective prefix count*
//!   (inverse Simpson index of the observed spread), so hashed prefixes
//!   unlock throughput and monotone prefixes bottleneck (the §3.1
//!   ablation).
//! * **NIC ceiling** — remote devices share the instance NIC. SAP IQ's
//!   intrinsic limit (the 512 KB page-size restriction, Figure 8) caps
//!   usable network at ~9 Gbps regardless of the line rate, producing the
//!   scale-up tail-off of Figure 7.
//! * **SSD write pressure** — OCM async writes inflate SSD read latency by
//!   `1 + pressure_coeff × mean_queue_depth`, reproducing the Figure 6
//!   Q3/Q4 anomaly where OCM cache hits read slower than S3.
//! * **CPU work** — operators report abstract work units; CPU time follows
//!   Amdahl's law over the profile's cores.

use iq_common::SimDuration;
use serde::{Deserialize, Serialize};

use crate::metrics::{IoOp, StatsSnapshot};
use crate::profiles::{ComputeProfile, DeviceProfile};

/// Tuning constants of the model. Defaults are calibrated once against the
/// paper's Table 2 and then held fixed for every experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tuning {
    /// Concurrent I/O streams the engine sustains per core (prefetch
    /// fan-out). SAP IQ "relies aggressively on parallel I/O and
    /// prefetching" (§6).
    pub streams_per_core: f64,
    /// Cap on concurrent streams per device regardless of cores.
    pub max_streams: f64,
    /// Usable fraction of the NIC line rate; the paper measured ~9 of
    /// 20 Gbps usable, an intrinsic engine limit (Figure 8).
    pub intrinsic_network_bps: u64,
    /// Abstract CPU work units one core retires per second.
    pub cpu_work_per_core_per_sec: f64,
    /// Amdahl parallel fraction for CPU work.
    pub cpu_parallel_fraction: f64,
    /// SSD read-latency inflation per unit of mean async-write queue depth
    /// (the write-pressure model).
    pub ssd_pressure_coeff: f64,
    /// SSD read-*bandwidth* degradation under concurrent async-write
    /// volume: reads on a local device slow by
    /// `1 + coeff × min(write_bytes/read_bytes, 4) × (cpus/96)`.
    /// This is the Figure 6 Q3/Q4 anomaly: "under heavy load, where the
    /// OCM saturates the underlying SSD devices with a significant volume
    /// of (asynchronous) writes, reads for cache hits might suffer" —
    /// and the burst intensity grows with the instance's CPU count, which
    /// is why the paper saw it on the m5ad.24xlarge but not the
    /// m5ad.4xlarge ("the demand on the OCM is more evenly spread out").
    pub ssd_write_pressure: f64,
}

impl Default for Tuning {
    fn default() -> Self {
        Self {
            streams_per_core: 4.0,
            max_streams: 256.0,
            intrinsic_network_bps: 9_000_000_000,
            cpu_work_per_core_per_sec: 50_000_000.0,
            cpu_parallel_fraction: 0.995,
            ssd_pressure_coeff: 0.35,
            ssd_write_pressure: 2.0,
        }
    }
}

/// Request activity observed on one device during a phase.
#[derive(Debug, Clone)]
pub struct DeviceLoad {
    /// The device's performance profile.
    pub profile: DeviceProfile,
    /// Request deltas for the phase.
    pub snapshot: StatsSnapshot,
    /// Fraction of read requests that were *demand misses* on the critical
    /// path (not prefetched); these pay latency serially.
    pub serial_read_fraction: f64,
}

/// One workload phase: device activity plus CPU work.
#[derive(Debug, Clone, Default)]
pub struct PhaseLoad {
    /// Per-device activity.
    pub devices: Vec<DeviceLoad>,
    /// Abstract CPU work units consumed by the phase.
    pub cpu_work: f64,
}

/// Folds phases into virtual time under a compute profile.
#[derive(Debug, Clone)]
pub struct TimeModel {
    /// The instance shape running the phase.
    pub compute: ComputeProfile,
    /// Model constants.
    pub tuning: Tuning,
}

impl TimeModel {
    /// Model with default tuning.
    pub fn new(compute: ComputeProfile) -> Self {
        Self {
            compute,
            tuning: Tuning::default(),
        }
    }

    fn streams(&self) -> f64 {
        (self.compute.cpus as f64 * self.tuning.streams_per_core).min(self.tuning.max_streams)
    }

    /// Simulated retry-backoff stall, in seconds. Backoffs on the serial
    /// (demand-miss) path are paid in full; the overlapped share amortizes
    /// across the stream budget like any other latency.
    fn backoff_time(&self, load: &DeviceLoad) -> f64 {
        let backoff_secs = load.snapshot.backoff_nanos as f64 / 1e9;
        if backoff_secs == 0.0 {
            return 0.0;
        }
        let sf = load.serial_read_fraction.clamp(0.0, 1.0);
        backoff_secs * sf + backoff_secs * (1.0 - sf) / self.streams()
    }

    /// Time for one device's worth of requests, assuming they overlap up to
    /// the stream budget and respect every cap.
    pub fn device_time(&self, load: &DeviceLoad) -> SimDuration {
        let p = &load.profile;
        let s = &load.snapshot;
        let streams = self.streams();

        let read_ops = s.count_for(&[IoOp::Get, IoOp::GetMiss, IoOp::Head, IoOp::BlockRead]);
        let write_ops = s.count_for(&[IoOp::Put, IoOp::Delete, IoOp::BlockWrite]);
        let read_bytes = s.bytes_for(&[IoOp::Get, IoOp::BlockRead]);
        let write_bytes = s.bytes_for(&[IoOp::Put, IoOp::BlockWrite]);
        let total_ops = read_ops + write_ops;
        if total_ops == 0 {
            return SimDuration::ZERO;
        }

        // Effective read latency, inflated by SSD write pressure when the
        // async write queue ran deep (Figure 6's Q3/Q4 anomaly).
        let read_latency = p.read_latency.as_secs_f64()
            * (1.0 + self.tuning.ssd_pressure_coeff * s.mean_queue_depth);

        // Latency-dominated component: overlapped requests amortize
        // latency across streams; serial demand misses pay it in full.
        let serial_reads = read_ops as f64 * load.serial_read_fraction.clamp(0.0, 1.0);
        let overlapped_reads = read_ops as f64 - serial_reads;
        let latency_time = serial_reads * read_latency
            + overlapped_reads * read_latency / streams
            + write_ops as f64 * p.write_latency.as_secs_f64() / streams
            + self.backoff_time(load);

        // Bandwidth component under every applicable ceiling.
        let mut bw = p.per_stream_bandwidth as f64 * streams;
        if let Some(cap) = p.device_bandwidth_cap {
            bw = bw.min(cap as f64);
        }
        if p.remote {
            let nic = (self
                .compute
                .network_bps
                .min(self.tuning.intrinsic_network_bps)
                / 8) as f64;
            bw = bw.min(nic);
        }
        // Local devices: concurrent async-write volume degrades read
        // throughput (Figure 6's Q3/Q4 anomaly; see `Tuning`).
        let read_inflation = if p.remote {
            1.0
        } else {
            let ratio = write_bytes as f64 / (read_bytes.max(1)) as f64;
            1.0 + self.tuning.ssd_write_pressure
                * ratio.min(4.0)
                * (self.compute.cpus as f64 / 96.0)
        };
        let transfer_time = (read_bytes as f64 * read_inflation + write_bytes as f64) / bw.max(1.0);

        // IOPS ceiling (EBS/EFS/SSD). Sequential scan requests coalesce up
        // to 512 KiB (SAP IQ's page size — the paper's engine issues
        // 512 KiB I/Os, §6/Figure 8 discussion), so the charged request
        // count is the coalesced one plus a small non-sequential residue.
        let iops_time = p
            .iops_cap
            .map(|cap| {
                let coalesced = ((read_bytes + write_bytes).div_ceil(512 * 1024)) as f64
                    + 0.02 * total_ops as f64;
                (total_ops as f64).min(coalesced) / cap as f64
            })
            .unwrap_or(0.0);

        // Per-prefix request-rate ceiling (S3). The observed spread's
        // effective prefix count multiplies the per-prefix limit.
        let prefix_time = {
            let eff = s.effective_prefixes.max(1.0);
            let get_rate = p.per_prefix_get_rate.map(|r| r as f64 * eff);
            let put_rate = p.per_prefix_put_rate.map(|r| r as f64 * eff);
            let gt = get_rate.map_or(0.0, |r| read_ops as f64 / r);
            let pt = put_rate.map_or(0.0, |r| write_ops as f64 / r);
            gt + pt
        };

        // Requests overlap, so the phase is gated by its binding
        // constraint, with latency always additive for the serial part.
        let secs = transfer_time.max(iops_time).max(prefix_time) + latency_time;
        SimDuration::from_secs_f64(secs)
    }

    /// CPU time for `work` units under Amdahl's law.
    pub fn cpu_time(&self, work: f64) -> SimDuration {
        let per_core = self.tuning.cpu_work_per_core_per_sec;
        let p = self.tuning.cpu_parallel_fraction;
        let n = self.compute.cpus as f64;
        let secs = work / per_core * ((1.0 - p) + p / n);
        SimDuration::from_secs_f64(secs)
    }

    /// Elapsed time of a phase: I/O on distinct devices overlaps with each
    /// other and with CPU, but remote devices share the NIC, so their
    /// transfer volumes are additionally summed against it.
    pub fn phase_time(&self, load: &PhaseLoad) -> SimDuration {
        let mut worst_device = SimDuration::ZERO;
        let mut remote_bytes = 0u64;
        for d in &load.devices {
            worst_device = worst_device.max(self.device_time(d));
            if d.profile.remote {
                remote_bytes += d.snapshot.bytes_for(&[
                    IoOp::Get,
                    IoOp::Put,
                    IoOp::BlockRead,
                    IoOp::BlockWrite,
                ]);
            }
        }
        let nic = (self
            .compute
            .network_bps
            .min(self.tuning.intrinsic_network_bps)
            / 8) as f64;
        let nic_time = SimDuration::from_secs_f64(remote_bytes as f64 / nic.max(1.0));
        worst_device.max(nic_time).max(self.cpu_time(load.cpu_work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DeviceStats;
    use iq_common::MIB;

    fn snap_with(op: IoOp, count: u64, bytes_each: u64, prefixes: u64) -> StatsSnapshot {
        let stats = DeviceStats::new();
        for i in 0..count {
            stats.record_prefixed(op, bytes_each, Some((i % prefixes.max(1)) as u16));
        }
        stats.snapshot()
    }

    fn load(profile: DeviceProfile, snap: StatsSnapshot) -> DeviceLoad {
        DeviceLoad {
            profile,
            snapshot: snap,
            serial_read_fraction: 0.0,
        }
    }

    #[test]
    fn empty_phase_is_zero() {
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        assert_eq!(m.phase_time(&PhaseLoad::default()), SimDuration::ZERO);
    }

    #[test]
    fn bulk_read_s3_beats_ebs_beats_efs() {
        // 50 GiB of 512 KiB pages read with full parallelism: the Table 2
        // ordering must emerge from the caps alone.
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        let pages = 50 * 1024 * 2; // 512 KiB pages in 50 GiB
        let s3 = m.device_time(&load(
            DeviceProfile::s3(),
            snap_with(IoOp::Get, pages, 512 * 1024, 1 << 14),
        ));
        let ebs = m.device_time(&load(
            DeviceProfile::ebs_gp2(1024),
            snap_with(IoOp::BlockRead, pages, 512 * 1024, 1),
        ));
        let efs = m.device_time(&load(
            DeviceProfile::efs(518),
            snap_with(IoOp::BlockRead, pages, 512 * 1024, 1),
        ));
        assert!(s3 < ebs, "s3={s3} ebs={ebs}");
        assert!(ebs < efs, "ebs={ebs} efs={efs}");
    }

    #[test]
    fn short_latency_bound_query_faster_on_ebs() {
        // A handful of serial demand reads: EBS's sub-ms latency wins over
        // S3's ~15 ms — the paper's Q2/Q19 exception.
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        let mk = |profile, op| DeviceLoad {
            profile,
            snapshot: snap_with(op, 40, 512 * 1024, 40),
            serial_read_fraction: 1.0,
        };
        let s3 = m.device_time(&mk(DeviceProfile::s3(), IoOp::Get));
        let ebs = m.device_time(&mk(DeviceProfile::ebs_gp2(1024), IoOp::BlockRead));
        assert!(ebs < s3, "ebs={ebs} s3={s3}");
    }

    #[test]
    fn hashed_prefixes_unlock_s3_throughput() {
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        // Many small PUTs: with one prefix the 3500/s limit binds; spread
        // across thousands of prefixes it does not.
        let hot = m.device_time(&load(
            DeviceProfile::s3(),
            snap_with(IoOp::Put, 1_000_000, 4096, 1),
        ));
        let spread = m.device_time(&load(
            DeviceProfile::s3(),
            snap_with(IoOp::Put, 1_000_000, 4096, 4096),
        ));
        assert!(
            hot.as_secs_f64() > spread.as_secs_f64() * 3.0,
            "hot={hot} spread={spread}"
        );
        // The hot prefix is floored by the 3500 req/s per-prefix cap.
        assert!(hot.as_secs_f64() >= 1_000_000.0 / 3500.0, "hot={hot}");
    }

    #[test]
    fn ssd_pressure_inflates_reads() {
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        let stats = DeviceStats::new();
        for _ in 0..1000 {
            stats.record(IoOp::BlockRead, 512 * 1024);
        }
        let calm = m.device_time(&load(DeviceProfile::local_nvme(4), stats.snapshot()));
        for _ in 0..100 {
            stats.record_queue_depth(64);
        }
        let pressured = m.device_time(&load(DeviceProfile::local_nvme(4), stats.snapshot()));
        assert!(pressured > calm, "pressured={pressured} calm={calm}");
    }

    #[test]
    fn backoff_waits_extend_device_time() {
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        let stats = DeviceStats::new();
        for _ in 0..100 {
            stats.record(IoOp::Get, 512 * 1024);
        }
        let calm = m.device_time(&load(DeviceProfile::s3(), stats.snapshot()));
        stats.record_backoff(5_000_000_000); // 5 s of cumulative stall
        let mut stalled_load = load(DeviceProfile::s3(), stats.snapshot());
        stalled_load.serial_read_fraction = 1.0;
        let stalled = m.device_time(&stalled_load);
        assert!(
            stalled.as_secs_f64() >= calm.as_secs_f64() + 5.0,
            "stalled={stalled} calm={calm}"
        );
    }

    #[test]
    fn more_cores_shrink_cpu_time_sublinearly() {
        let small = TimeModel::new(ComputeProfile::m5ad_4xlarge());
        let big = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        let work = 1e9;
        let t16 = small.cpu_time(work).as_secs_f64();
        let t96 = big.cpu_time(work).as_secs_f64();
        assert!(t96 < t16);
        // Amdahl: speedup short of the 6x core ratio.
        assert!(t16 / t96 < 6.0);
        assert!(t16 / t96 > 3.0);
    }

    #[test]
    fn nic_gates_combined_remote_transfers() {
        let m = TimeModel::new(ComputeProfile::m5ad_24xlarge());
        // Two remote devices each below the NIC alone, together above it.
        let bytes = 20u64 * 1024 * MIB; // 20 GiB each
        let phase = PhaseLoad {
            devices: vec![
                load(
                    DeviceProfile::s3(),
                    snap_with(IoOp::Get, bytes / (512 * 1024), 512 * 1024, 1 << 12),
                ),
                load(
                    DeviceProfile::s3(),
                    snap_with(IoOp::Put, bytes / (512 * 1024), 512 * 1024, 1 << 12),
                ),
            ],
            cpu_work: 0.0,
        };
        let t = m.phase_time(&phase).as_secs_f64();
        // 40 GiB over 9 Gbps ≈ 38 s floor.
        assert!(
            t >= 40.0 * 1024.0 * MIB as f64 / (9e9 / 8.0) * 0.99,
            "t={t}"
        );
    }
}
