#![warn(missing_docs)]

//! Common foundation types for the `cloudiq` workspace — a reproduction of
//! *Bringing Cloud-Native Storage to SAP IQ* (SIGMOD 2021).
//!
//! This crate holds the vocabulary shared by every layer of the system:
//!
//! * [`error`] — the unified [`IqError`]/[`IqResult`] error type.
//! * [`ids`] — strongly typed identifiers ([`PageId`], [`ObjectKey`],
//!   [`BlockNum`], [`TxnId`], …). In particular [`ObjectKey`] encodes the
//!   paper's convention of overloading the 64-bit physical block number
//!   field: values in `[2^63, 2^64)` are object-store keys, values below
//!   `2^48` are conventional block numbers.
//! * [`clock`] — virtual time ([`SimDuration`], [`SimInstant`]) used by the
//!   simulated devices; nothing in the workspace depends on wall-clock time
//!   for correctness or reported results.
//! * [`bitmap`] — a dense [`Bitmap`] (the freelist representation) and a
//!   sparse [`KeySet`] interval set (the cloud-key half of the RF/RB
//!   bitmaps).
//! * [`rng`] — small deterministic RNG helpers so every simulation is
//!   reproducible from a seed.
//! * [`io`] — the submission/completion I/O core ([`IoCore`] plus the
//!   shared [`IoStats`]) behind morsel-parallel scans, the parallel
//!   commit-flush fan-out and the GC's batched deletes: operations are
//!   *submitted* and their completions awaited, so in-flight depth is
//!   bounded by submitted work rather than by blocked threads.
//! * [`trace`] — the unified observability layer: a deterministic
//!   structured-event journal timed by the virtual op-clock, plus the
//!   [`MetricsRegistry`] subsystems expose counters through.

pub mod bitmap;
pub mod clock;
pub mod error;
pub mod ids;
pub mod io;
pub mod rng;
pub mod trace;

pub use bitmap::{Bitmap, KeySet};
pub use clock::{SimDuration, SimInstant};
pub use error::{IqError, IqResult};
pub use ids::{
    BlockNum, DbSpaceId, NodeId, ObjectKey, PageId, PhysicalLocator, TableId, TxnId, VersionId,
};
pub use io::{IoCore, IoStats, IoStatsSnapshot};
pub use rng::DetRng;
pub use trace::{EventKind, MetricValue, MetricsRegistry, TraceEvent};

/// Number of bytes in a kibibyte.
pub const KIB: u64 = 1024;
/// Number of bytes in a mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// Number of bytes in a gibibyte.
pub const GIB: u64 = 1024 * MIB;
