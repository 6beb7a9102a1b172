//! Deltas of the counters the program already exposes, taken at the
//! same boundaries as the spans.
//!
//! Two lifetimes are involved. Everything behind `Database::metrics()`
//! restarts from zero when an instance is reopened, so those deltas are
//! absorbed per instance. The simulated stores survive a reopen, so
//! their ledgers are read from the store handles themselves.

use std::collections::BTreeMap;
use std::sync::Arc;

use iq_common::MetricValue;
use iq_core::Database;
use iq_objectstore::{IoOp, ObjectBackend, ObjectStoreSim};

/// A flat reading of named counters.
pub type Snap = BTreeMap<String, f64>;

/// Read every counter of one database instance.
pub fn db_snap(db: &Database) -> Snap {
    let mut snap: Snap = db
        .metrics()
        .into_iter()
        .map(|(k, v)| {
            let v = match v {
                MetricValue::U64(n) => n as f64,
                MetricValue::F64(x) => x,
            };
            (k, v)
        })
        .collect();
    snap.insert("engine.work_units".into(), db.meter().total() as f64);
    let b = db.buffer_stats().lifetime_snapshot();
    snap.insert(
        "buffer.flush_in_flight_peak".into(),
        b.flush_in_flight_peak as f64,
    );
    if let Some(sm) = db.snapshot_manager() {
        snap.insert("snapshot.retained".into(), sm.retained_count() as f64);
    }
    snap
}

/// Gauges and high-water marks: folded with `max`, never subtracted.
fn is_level(name: &str) -> bool {
    name.ends_with("_peak")
        || name.ends_with("max_batch")
        || name == "txn.committed_chain"
        || name == "snapshot.retained"
        || name == "log.records"
        || name == "log.recovery_gets"
        || name == "log.replayed_records"
}

/// Running totals of counter deltas (and maxima of levels).
#[derive(Debug, Default)]
pub struct Counters {
    pub total: Snap,
}

impl Counters {
    /// Fold in what happened between two readings of the same source.
    pub fn absorb(&mut self, before: &Snap, after: &Snap) {
        for (name, &now) in after {
            let slot = self.total.entry(name.clone()).or_insert(0.0);
            if is_level(name) {
                *slot = slot.max(now);
            } else {
                *slot += now - before.get(name).copied().unwrap_or(0.0);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0.0)
    }
}

/// The stores under a workload: the data store and, with group commit
/// on, the log store.
#[derive(Clone)]
pub struct Stores {
    pub data: Arc<ObjectStoreSim>,
    pub log: Option<Arc<ObjectStoreSim>>,
}

impl Stores {
    pub fn of(db: &Database, space: iq_common::DbSpaceId) -> Self {
        Self {
            data: db.cloud_store(space).expect("cloud dbspace has a store"),
            log: db.durable_log().map(|dl| Arc::clone(dl.sim())),
        }
    }

    /// Request ledgers since the stores were made, across reopens.
    pub fn snap(&self) -> Snap {
        let mut snap = Snap::new();
        let mut read = |prefix: &str, sim: &ObjectStoreSim| {
            let s = sim.stats.lifetime_snapshot();
            for (op, name) in [
                (IoOp::Get, "get"),
                (IoOp::GetMiss, "get_miss"),
                (IoOp::Put, "put"),
                (IoOp::Delete, "delete"),
                (IoOp::Head, "head"),
            ] {
                let c = s.op(op);
                snap.insert(format!("{prefix}.{name}"), c.count as f64);
                snap.insert(format!("{prefix}.{name}_bytes"), c.bytes as f64);
            }
            snap.insert(format!("{prefix}.retries"), s.retries as f64);
        };
        read("store", &self.data);
        if let Some(log) = &self.log {
            read("logstore", log);
        }
        snap
    }

    /// Bytes at rest in both stores.
    pub fn resident_bytes(&self) -> u64 {
        self.data.resident_bytes() + self.log.as_ref().map_or(0, |l| l.resident_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_deltas_and_keep_the_maximum_of_levels() {
        let snap = |hits: f64, peak: f64| -> Snap {
            [
                ("buffer.hits".to_string(), hits),
                ("io.in_flight_peak".to_string(), peak),
            ]
            .into()
        };
        let mut c = Counters::default();
        c.absorb(&snap(10.0, 3.0), &snap(25.0, 4.0));
        // A reopened instance starts again from zero.
        c.absorb(&snap(0.0, 0.0), &snap(5.0, 2.0));
        assert_eq!(c.get("buffer.hits"), 20.0);
        assert_eq!(c.get("io.in_flight_peak"), 4.0);
        assert_eq!(c.get("absent"), 0.0);
    }
}
