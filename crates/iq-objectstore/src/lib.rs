#![warn(missing_docs)]

//! Simulated cloud storage devices for the `cloudiq` reproduction of
//! *Bringing Cloud-Native Storage to SAP IQ* (SIGMOD 2021).
//!
//! The paper's evaluation runs on AWS: S3 object storage, EBS/EFS block
//! volumes, and instance-local NVMe SSDs. This crate provides in-process
//! simulations of all of them. Two things are simulated:
//!
//! 1. **Semantics** — executed for real. The object store enforces the
//!    eventual-consistency contract the paper designs around: a freshly PUT
//!    object may transiently return `ObjectNotFound` (the visibility
//!    window), an overwritten object may serve stale bytes (only possible
//!    when the never-write-twice policy is disabled for ablation), and the
//!    store records a global write history so tests can assert that no key
//!    is ever written twice.
//! 2. **Performance** — accounted, not slept. Every request is recorded in
//!    a [`metrics::DeviceStats`] ledger (op counts, byte counts, per-prefix
//!    request spread, queue-depth samples, time-series buckets). The
//!    [`timemodel::TimeModel`] folds a ledger plus a
//!    [`profiles::ComputeProfile`] into elapsed *virtual* time using public
//!    AWS-era device parameters (latency, bandwidth, IOPS caps, per-prefix
//!    request-rate limits, request pricing).
//!
//! Nothing here talks to a network or reads a wall clock; runs are
//! deterministic given a seed.

pub mod block_device;
pub mod cost;
pub mod fault;
pub mod metrics;
pub mod object_store;
pub mod profiles;
pub mod reactor;
pub mod retry;
pub mod timemodel;
pub mod traits;

pub use block_device::BlockDeviceSim;
pub use cost::{CostLedger, CostSummary};
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use metrics::{DeviceStats, IoOp, StatsSnapshot};
pub use object_store::{ConsistencyConfig, ObjectStoreSim};
pub use profiles::{ComputeProfile, DeviceProfile, VolumeKind};
pub use reactor::{IoReactor, ReactorStore};
pub use retry::{BatchDeleteOutcome, RetryPolicy};
pub use timemodel::{PhaseLoad, TimeModel};
pub use traits::{ObjectBackend, DELETE_BATCH_MAX};
