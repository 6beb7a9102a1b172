//! Shared building blocks of the workloads: databases over the full
//! stack, the query loop, result digests and their reference.

use std::collections::BTreeMap;
use std::time::Instant;

use iq_common::{DbSpaceId, TableId, TxnId};
use iq_core::{Database, DatabaseConfig};
use iq_engine::{Chunk, Col, MemPageStore, OpExec, PageStore, Value, WorkMeter};
use iq_tpch::queries::{run_query, Ctx};
use iq_tpch::{Generator, TpchDb};

use crate::counters::Stores;
use crate::spans::{TimedStore, Tracer};

/// Rows per row group, as in the repo's own power run.
pub const ROW_GROUP: u32 = 4096;

/// The program's own fan-out. Pinned, not derived from the host, so two
/// hosts run the same program; `main` refuses hosts with fewer cores.
pub const SCAN_WORKERS: usize = 2;

/// Span names of the 22 queries.
pub const QUERY_SPANS: [&str; 22] = [
    "tpch.q01", "tpch.q02", "tpch.q03", "tpch.q04", "tpch.q05", "tpch.q06", "tpch.q07", "tpch.q08",
    "tpch.q09", "tpch.q10", "tpch.q11", "tpch.q12", "tpch.q13", "tpch.q14", "tpch.q15", "tpch.q16",
    "tpch.q17", "tpch.q18", "tpch.q19", "tpch.q20", "tpch.q21", "tpch.q22",
];

/// Run `f`, returning its result and its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A database with one cloud dbspace holding the eight TPC-H tables.
pub fn create_tpch_database(config: DatabaseConfig) -> (Database, DbSpaceId) {
    let db = Database::create(config).expect("create database");
    let space = db.create_cloud_dbspace("tpch").expect("create dbspace");
    for t in 1..=8u32 {
        db.create_table(TableId(t), space).expect("create table");
    }
    (db, space)
}

/// Generate and load TPC-H through the full stack and commit it.
/// Returns the table metadata and the wall milliseconds of load plus
/// commit.
pub fn load_and_commit(db: &Database, sf: f64, seed: u64, tracer: &Tracer) -> (TpchDb, f64) {
    timed(|| {
        let txn = db.begin();
        let pager = db.pager(txn).expect("pager");
        let store = TimedStore::new(&pager, tracer);
        let tpch = {
            let _s = tracer.span("tpch.load");
            TpchDb::load(sf, seed, &store, txn, db.meter(), ROW_GROUP).expect("load")
        };
        let _s = tracer.span("core.commit_bulk");
        db.commit(txn).expect("commit load");
        tpch
    })
}

/// A loaded and committed TPC-H database, and what loading it cost the
/// store.
pub struct Loaded {
    pub db: Database,
    pub tpch: TpchDb,
    pub stores: Stores,
    /// Data-store PUTs of load + commit.
    pub load_puts: f64,
    /// Bytes at rest after the commit.
    pub resident_bytes: u64,
}

impl Loaded {
    pub fn build(config: DatabaseConfig, sf: f64, seed: u64, tracer: &Tracer) -> Self {
        let (db, space) = create_tpch_database(config);
        let (tpch, _) = load_and_commit(&db, sf, seed, tracer);
        if let Some(ocm) = db.ocm() {
            ocm.quiesce();
        }
        let stores = Stores::of(&db, space);
        Self {
            load_puts: stores.snap()["store.put"],
            resident_bytes: stores.resident_bytes(),
            db,
            tpch,
            stores,
        }
    }

    /// Write cost and space of the load per raw user byte: the two
    /// end-to-end store metrics of a read-only workload.
    pub fn store_cost(&self, user_bytes: u64) -> (f64, f64) {
        (
            self.load_puts / (user_bytes as f64 / crate::MIB),
            self.resident_bytes as f64 / user_bytes as f64,
        )
    }
}

/// Run `queries` once each in a fresh read transaction. Returns
/// `(query, wall ms, result)` in the order run.
pub fn run_queries(
    db: &Database,
    tpch: &TpchDb,
    queries: &[u32],
    tracer: &Tracer,
    request_base: u64,
) -> Vec<(u32, f64, Chunk)> {
    let txn = db.begin();
    let pager = db.pager(txn).expect("pager");
    let store = TimedStore::new(&pager, tracer);
    let results = queries
        .iter()
        .map(|&n| {
            tracer.set_request(request_base + u64::from(n));
            let ctx = Ctx {
                db: tpch,
                store: &store,
                meter: db.meter(),
                exec: OpExec::for_store(&store),
                late_mat: true,
            };
            let (out, ms) = timed(|| {
                let _s = tracer.span(QUERY_SPANS[n as usize - 1]);
                run_query(n, &ctx).expect("query")
            });
            (n, ms, out)
        })
        .collect();
    db.rollback(txn).expect("end read transaction");
    results
}

/// Drop every volatile copy of table data above the OCM: buffer frames
/// and the table stores' blockmap caches.
pub fn clear_ram(db: &Database) {
    db.shared().buffer.clear();
    for t in 1..=8u32 {
        db.shared()
            .table_store(TableId(t))
            .expect("table store")
            .invalidate_cache();
    }
}

/// FNV-1a over a result's type-tagged values, floats by bit pattern: the
/// repo guarantees bitwise-identical results across worker counts and
/// scan modes, so equal digests are the correctness check.
pub fn digest(chunk: &Chunk) -> u64 {
    fn eat(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut h = eat(
        0xcbf2_9ce4_8422_2325,
        &(chunk.cols.len() as u64).to_le_bytes(),
    );
    for col in &chunk.cols {
        h = eat(h, &(col.len() as u64).to_le_bytes());
        match col {
            Col::I64(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[1]), &x.to_le_bytes())),
            Col::F64(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[2]), &x.to_bits().to_le_bytes())),
            Col::Str(v) => v
                .iter()
                .for_each(|x| h = eat(eat(eat(h, &[3]), x.as_bytes()), &[0xff])),
            Col::Date(v) => v
                .iter()
                .for_each(|x| h = eat(eat(h, &[4]), &x.to_le_bytes())),
            Col::Bool(v) => v.iter().for_each(|x| h = eat(h, &[5, u8::from(*x)])),
        }
    }
    h
}

/// The same data in memory with nothing of the storage stack under it:
/// the reference side of the correctness checks.
pub struct Reference {
    pub store: MemPageStore,
    pub tpch: TpchDb,
    pub meter: WorkMeter,
}

impl Reference {
    pub fn load(sf: f64, seed: u64) -> Self {
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let tpch =
            TpchDb::load(sf, seed, &store, TxnId(1), &meter, ROW_GROUP).expect("reference load");
        Self { store, tpch, meter }
    }

    /// Digests of `queries` from a serial, eager run.
    pub fn digests(&self, queries: &[u32]) -> BTreeMap<u32, u64> {
        self.digests_over(&self.store, queries)
    }

    /// [`Self::digests`] through an arbitrary store over the same pages
    /// (the transparency test wraps the store).
    pub fn digests_over(&self, store: &dyn PageStore, queries: &[u32]) -> BTreeMap<u32, u64> {
        queries
            .iter()
            .map(|&n| {
                let ctx = Ctx {
                    db: &self.tpch,
                    store,
                    meter: &self.meter,
                    exec: OpExec::serial(),
                    late_mat: false,
                };
                (n, digest(&run_query(n, &ctx).expect("reference query")))
            })
            .collect()
    }
}

/// Raw size of one value as a user would count it.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::I64(_) | Value::F64(_) => 8,
        Value::Date(_) => 4,
        Value::Str(s) => s.len() as u64,
    }
}

/// What one pass of the generator produces, with nothing stored.
#[derive(Debug, Clone, Copy)]
pub struct GeneratedInput {
    pub rows: u64,
    /// Raw bytes of all rows ("user bytes").
    pub bytes: u64,
    pub secs: f64,
}

/// Run the generator dry, counting the rows and raw bytes it emits.
pub fn generator_dry_run(sf: f64, seed: u64) -> GeneratedInput {
    let t = Instant::now();
    let g = Generator::new(sf, seed);
    let rows = std::cell::Cell::new(0u64);
    let bytes = std::cell::Cell::new(0u64);
    let count = |row: &[Value]| {
        rows.set(rows.get() + 1);
        bytes.set(bytes.get() + row.iter().map(value_bytes).sum::<u64>());
    };
    for table in [
        g.region_rows(),
        g.nation_rows(),
        g.supplier_rows(),
        g.customer_rows(),
        g.part_rows(),
        g.partsupp_rows(),
    ] {
        table.iter().for_each(|r| count(r));
    }
    g.order_and_lineitem_rows(|o| count(&o), |l| count(&l));
    GeneratedInput {
        rows: rows.get(),
        bytes: bytes.get(),
        secs: t.elapsed().as_secs_f64(),
    }
}

/// Base configuration of every TPC-H workload: the product's defaults,
/// the pinned fan-out, and no retention so superseded pages die at GC.
pub fn tpch_config() -> DatabaseConfig {
    DatabaseConfig {
        scan_workers: SCAN_WORKERS,
        retention: None,
        ..DatabaseConfig::default()
    }
}
