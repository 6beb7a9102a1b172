//! Quickstart: create a cloud-native database, load a table onto a
//! simulated object store, query it, and watch the paper's §3 write
//! discipline hold.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cloudiq::common::TableId;
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::engine::Expr;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A database with an eventually consistent object store, a RAM buffer
    // cache and an SSD-backed Object Cache Manager.
    let db = Database::create(DatabaseConfig::test_small())?;

    // CREATE DBSPACE sales USING OBJECT STORE "s3://bucket"  (§3)
    let space = db.create_cloud_dbspace("sales")?;
    let table = TableId(1);
    db.create_table(table, space)?;

    // Define and load a table through the full stack: buffer manager →
    // OCM → object store, every flush under a fresh object key.
    let schema = Schema::new(&[
        ("id", DataType::I64),
        ("region", DataType::Str),
        ("amount", DataType::F64),
    ]);
    let mut meta = TableMeta::new(table, "sales", schema, 256);

    let txn = db.begin();
    {
        let pager = db.pager(txn)?;
        let meter = db.meter().clone();
        let mut w = TableWriter::new(&mut meta, &pager, txn, &meter);
        for i in 0..10_000i64 {
            let region = ["EMEA", "AMER", "APJ"][(i % 3) as usize];
            w.append_row(&[
                Value::I64(i),
                Value::Str(region.into()),
                Value::F64((i % 97) as f64 * 1.25),
            ])?;
        }
        w.finish()?;
    }
    db.commit(txn)?;
    println!(
        "loaded {} rows in {} row groups",
        meta.row_count(),
        meta.groups.len()
    );

    // Simulate an instance restart so the query exercises the OCM tier
    // rather than hitting RAM left warm by the load.
    db.shared().buffer.clear();

    // Query: SELECT id, amount FROM sales WHERE region = 'EMEA' AND id < 100
    let rtxn = db.begin();
    let pager = db.pager(rtxn)?;
    let pred = Expr::and(
        Expr::eq(Expr::col(1), Expr::lit_str("EMEA")),
        Expr::lt(Expr::col(0), Expr::lit_i64(100)),
    );
    let out = meta.scan(&pager, &[0, 2], Some(&pred), db.meter())?;
    println!(
        "query returned {} rows; first = {:?}",
        out.len(),
        out.row(0)
    );
    db.rollback(rtxn)?;

    // The paper's core invariant: no object was ever written twice.
    let store = db.cloud_store(space).expect("cloud dbspace");
    println!(
        "objects on the store: {}, max writes to any key: {} (never-write-twice)",
        store.object_count(),
        store.max_write_count()
    );
    assert_eq!(store.max_write_count(), 1);

    // OCM utilization (the Table 5 counters).
    if let Some(ocm) = db.ocm() {
        let s = ocm.stats_snapshot();
        println!(
            "OCM: {} hits, {} misses, {} evictions (hit rate {:.1}%)",
            s.hits,
            s.misses,
            s.evictions,
            s.hit_rate() * 100.0
        );
    }
    Ok(())
}
