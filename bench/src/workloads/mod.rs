//! The four workloads. Names are fixed; later issues refer to them.

pub mod ingest;
pub mod power_warm;
pub mod scan_cold;
pub mod txn_churn;

use crate::run::{Opts, Report};

/// One workload as the command line and `BENCHMARK.json` see it.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    pub run: fn(Opts) -> Report,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: power_warm::NAME,
        why: "Q1-Q22 against a buffer that holds everything: the engine does the work and the store is idle.",
        run: power_warm::run,
    },
    Workload {
        name: scan_cold::NAME,
        why: "Scan-bound queries after a restart, caches empty then OCM-warm: the storage stack does over half the work.",
        run: scan_cold::run,
    },
    Workload {
        name: ingest::NAME,
        why: "Load, refresh pairs, GC and compaction under a buffer smaller than the load: the write use of the same layers.",
        run: ingest::run,
    },
    Workload {
        name: txn_churn::NAME,
        why: "Small transactions with GC, snapshots, checkpoints and restarts: transaction manager, log and recovery only.",
        run: txn_churn::run,
    },
];
