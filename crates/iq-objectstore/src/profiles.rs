//! Device and compute profiles.
//!
//! All constants are public AWS figures from the paper's era (2020–2021,
//! us-east-1 pricing), matching what the authors say they used: "costs are
//! calculated based on the publicly available prices listed by Amazon"
//! (§6). The *shape* of the reproduced experiments derives from these
//! numbers; EXPERIMENTS.md records where our virtual-time results land
//! relative to the paper's wall-clock ones.

use iq_common::{SimDuration, GIB, MIB};
use serde::{Deserialize, Serialize};

/// Which storage product a device models. Used for reporting and costing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VolumeKind {
    /// AWS S3-like object store.
    S3,
    /// AWS EBS gp2-like network block volume.
    EbsGp2,
    /// AWS EFS-like elastic file system.
    Efs,
    /// Instance-local NVMe SSD (m5ad instance storage).
    LocalNvme,
    /// RAM-resident scratch (system temp dbspace in tests).
    Ram,
}

impl VolumeKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            VolumeKind::S3 => "AWS S3",
            VolumeKind::EbsGp2 => "AWS EBS",
            VolumeKind::Efs => "AWS EFS",
            VolumeKind::LocalNvme => "Local NVMe",
            VolumeKind::Ram => "RAM",
        }
    }
}

/// Performance and pricing profile of one storage device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// What this device models.
    pub kind: VolumeKind,
    /// Per-request first-byte latency for reads.
    pub read_latency: SimDuration,
    /// Per-request latency for writes.
    pub write_latency: SimDuration,
    /// Sustained bandwidth of a single stream (bytes/s). Object stores are
    /// per-connection limited; parallel streams add up.
    pub per_stream_bandwidth: u64,
    /// Hard device-level bandwidth cap in bytes/s (`None` = unbounded at
    /// the device; the node NIC still applies for remote devices).
    pub device_bandwidth_cap: Option<u64>,
    /// Hard device-level IOPS cap (`None` = unbounded).
    pub iops_cap: Option<u64>,
    /// Object stores: max GET requests/s *per key prefix*.
    pub per_prefix_get_rate: Option<u64>,
    /// Object stores: max PUT/DELETE requests/s *per key prefix*.
    pub per_prefix_put_rate: Option<u64>,
    /// Whether requests traverse the node NIC (false for local SSD/RAM).
    pub remote: bool,
    /// USD per GB-month at rest.
    pub usd_per_gb_month: f64,
    /// USD per single PUT/DELETE class request.
    pub usd_per_put: f64,
    /// USD per single GET class request.
    pub usd_per_get: f64,
}

impl DeviceProfile {
    /// AWS S3, 2020-era: ~15 ms first-byte GET latency, ~25 ms PUT, ~85
    /// MB/s per connection, no aggregate cap ("almost unlimited" combined
    /// throughput, §6), 5500 GET/s and 3500 PUT/s *per prefix*, $0.023 per
    /// GB-month, $0.005 per 1000 PUTs, $0.0004 per 1000 GETs.
    pub fn s3() -> Self {
        Self {
            kind: VolumeKind::S3,
            read_latency: SimDuration::from_millis(15),
            write_latency: SimDuration::from_millis(25),
            per_stream_bandwidth: 85 * MIB,
            device_bandwidth_cap: None,
            iops_cap: None,
            per_prefix_get_rate: Some(5500),
            per_prefix_put_rate: Some(3500),
            remote: true,
            usd_per_gb_month: 0.023,
            usd_per_put: 0.005 / 1000.0,
            usd_per_get: 0.0004 / 1000.0,
        }
    }

    /// Azure Blob Storage (hot tier), 2020-era: comparable semantics to
    /// S3 (the paper supports both, §3) with slightly different latency
    /// and pricing ($0.0184/GB-month, $0.005/10k writes, $0.0004/10k
    /// reads at the time). Azure throttles per storage account rather
    /// than per prefix; modeled as a generous flat rate.
    pub fn azure_blob() -> Self {
        Self {
            kind: VolumeKind::S3, // object-store class for reporting
            read_latency: SimDuration::from_millis(18),
            write_latency: SimDuration::from_millis(28),
            per_stream_bandwidth: 60 * MIB,
            device_bandwidth_cap: None,
            iops_cap: None,
            per_prefix_get_rate: Some(20_000),
            per_prefix_put_rate: Some(20_000),
            remote: true,
            usd_per_gb_month: 0.0184,
            usd_per_put: 0.005 / 10_000.0,
            usd_per_get: 0.0004 / 10_000.0,
        }
    }

    /// AWS EBS gp2 of the given size: 3 IOPS/GB (100 min, 16000 max),
    /// 250 MB/s throughput cap, sub-millisecond latency, $0.10/GB-month.
    /// The paper's run used a 1 TB gp2 volume (3000 IOPS).
    pub fn ebs_gp2(volume_gib: u64) -> Self {
        let iops = (3 * volume_gib).clamp(100, 16_000);
        Self {
            kind: VolumeKind::EbsGp2,
            read_latency: SimDuration::from_micros(700),
            write_latency: SimDuration::from_micros(900),
            per_stream_bandwidth: 250 * MIB,
            device_bandwidth_cap: Some(250 * MIB),
            iops_cap: Some(iops),
            per_prefix_get_rate: None,
            per_prefix_put_rate: None,
            remote: true,
            usd_per_gb_month: 0.10,
            usd_per_put: 0.0,
            usd_per_get: 0.0,
        }
    }

    /// AWS EFS standard: throughput scales with stored data (50 MB/s
    /// baseline per TB stored, bursting to 100 MB/s per TB), ~3 ms
    /// latency, ~7000 IOPS ceiling, $0.30/GB-month. "On standard EFS
    /// volumes, the IOPS is a function of the space that is utilized" (§6
    /// footnote 5).
    pub fn efs(stored_gib: u64) -> Self {
        let tb = (stored_gib as f64 / 1024.0).max(0.1);
        let bw = (75.0 * tb * MIB as f64) as u64; // midpoint of 50–100 MB/s/TB
        Self {
            kind: VolumeKind::Efs,
            read_latency: SimDuration::from_millis(3),
            write_latency: SimDuration::from_millis(4),
            per_stream_bandwidth: bw,
            device_bandwidth_cap: Some(bw),
            iops_cap: Some(7000),
            per_prefix_get_rate: None,
            per_prefix_put_rate: None,
            remote: true,
            usd_per_gb_month: 0.30,
            usd_per_put: 0.0,
            usd_per_get: 0.0,
        }
    }

    /// Instance-local NVMe SSD (m5ad instance storage, RAID-0 bundle):
    /// ~90 µs read latency, multi-GB/s bandwidth, no network hop, free
    /// (bundled with the instance).
    pub fn local_nvme(bundle_devices: u32) -> Self {
        let per_dev = 530 * MIB; // m5ad NVMe per-device sequential throughput
        Self {
            kind: VolumeKind::LocalNvme,
            read_latency: SimDuration::from_micros(90),
            write_latency: SimDuration::from_micros(30),
            per_stream_bandwidth: per_dev * bundle_devices as u64,
            device_bandwidth_cap: Some(per_dev * bundle_devices as u64),
            iops_cap: Some(200_000 * bundle_devices as u64),
            per_prefix_get_rate: None,
            per_prefix_put_rate: None,
            remote: false,
            usd_per_gb_month: 0.0,
            usd_per_put: 0.0,
            usd_per_get: 0.0,
        }
    }
}

/// An EC2-like compute shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComputeProfile {
    /// Instance type name.
    pub name: String,
    /// vCPU count.
    pub cpus: u32,
    /// RAM in bytes. SAP IQ reserves half for the buffer manager (§6).
    pub ram_bytes: u64,
    /// Local NVMe capacity in bytes (0 = no instance storage).
    pub ssd_bytes: u64,
    /// Number of NVMe devices bundled via RAID 0.
    pub ssd_devices: u32,
    /// NIC line rate in bits/s.
    pub network_bps: u64,
    /// On-demand price, USD/hour.
    pub usd_per_hour: f64,
}

impl ComputeProfile {
    /// m5ad.4xlarge: 16 vCPU, 64 GiB, 2×300 GB NVMe, up to 10 Gbps.
    pub fn m5ad_4xlarge() -> Self {
        Self {
            name: "m5ad.4xlarge".into(),
            cpus: 16,
            ram_bytes: 64 * GIB,
            ssd_bytes: 600 * GIB,
            ssd_devices: 2,
            network_bps: 10_000_000_000,
            usd_per_hour: 0.824,
        }
    }

    /// m5ad.12xlarge: 48 vCPU, 192 GiB, 2×900 GB NVMe, 10 Gbps.
    pub fn m5ad_12xlarge() -> Self {
        Self {
            name: "m5ad.12xlarge".into(),
            cpus: 48,
            ram_bytes: 192 * GIB,
            ssd_bytes: 1800 * GIB,
            ssd_devices: 2,
            network_bps: 10_000_000_000,
            usd_per_hour: 2.472,
        }
    }

    /// m5ad.24xlarge: 96 vCPU, 384 GiB, 4×900 GB NVMe, 20 Gbps.
    pub fn m5ad_24xlarge() -> Self {
        Self {
            name: "m5ad.24xlarge".into(),
            cpus: 96,
            ram_bytes: 384 * GIB,
            ssd_bytes: 3600 * GIB,
            ssd_devices: 4,
            network_bps: 20_000_000_000,
            usd_per_hour: 4.944,
        }
    }

    /// Buffer-manager RAM: half the instance RAM (§6).
    pub fn buffer_ram(&self) -> u64 {
        self.ram_bytes / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ebs_iops_scales_with_size() {
        assert_eq!(DeviceProfile::ebs_gp2(1024).iops_cap, Some(3072));
        assert_eq!(DeviceProfile::ebs_gp2(10).iops_cap, Some(100)); // floor
        assert_eq!(DeviceProfile::ebs_gp2(100_000).iops_cap, Some(16_000)); // ceiling
    }

    #[test]
    fn efs_bandwidth_scales_with_stored_bytes() {
        let small = DeviceProfile::efs(100);
        let big = DeviceProfile::efs(2048);
        assert!(big.device_bandwidth_cap.unwrap() > small.device_bandwidth_cap.unwrap());
    }

    #[test]
    fn storage_price_ordering_matches_table4() {
        // S3 < EBS < EFS per GB-month — the premise of Table 4.
        let s3 = DeviceProfile::s3().usd_per_gb_month;
        let ebs = DeviceProfile::ebs_gp2(1024).usd_per_gb_month;
        let efs = DeviceProfile::efs(512).usd_per_gb_month;
        assert!(s3 < ebs && ebs < efs);
        // The paper's order-of-magnitude claim: EFS ≈ 13× S3.
        assert!(efs / s3 > 10.0);
    }

    #[test]
    fn instance_shapes() {
        let p = ComputeProfile::m5ad_24xlarge();
        assert_eq!(p.cpus, 96);
        assert_eq!(p.buffer_ram(), 192 * GIB);
    }

    #[test]
    fn s3_get_pricing_matches_table5_savings() {
        // §6: 2,807,368 averted GETs ≈ $1.12 saved.
        let saved = 2_807_368.0 * DeviceProfile::s3().usd_per_get;
        assert!((saved - 1.12).abs() < 0.01, "saved={saved}");
    }
}
