//! Multi-hyperscaler dbspaces and provider migration.
//!
//! §3: "users may create dbspaces on different hyperscalers … users have
//! the ability to choose a storage provider based on price and
//! performance characteristics, as well as move data between different
//! storage providers as needed." This example creates two cloud dbspaces
//! ("s3://bucket" and "az://container"), loads a table on the first,
//! migrates it to the second by rewriting through the normal transaction
//! machinery, and compares at-rest pricing under each provider's profile.
//!
//! ```sh
//! cargo run --example multi_cloud
//! ```

use cloudiq::common::TableId;
use cloudiq::core::{Database, DatabaseConfig};
use cloudiq::engine::table::{Schema, TableMeta, TableWriter};
use cloudiq::engine::value::{DataType, Value};
use cloudiq::objectstore::{cost::monthly_storage_usd, DeviceProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::create(DatabaseConfig::test_small())?;
    let aws = db.create_cloud_dbspace("s3://acme-dw")?;
    let azure = db.create_cloud_dbspace("az://acme-dw")?;

    let schema = Schema::new(&[("id", DataType::I64), ("payload", DataType::Str)]);
    let src_table = TableId(1);
    let dst_table = TableId(2);
    db.create_table(src_table, aws)?;
    db.create_table(dst_table, azure)?;

    // Load on AWS.
    let mut src_meta = TableMeta::new(src_table, "events", schema.clone(), 128);
    let txn = db.begin();
    {
        let pager = db.pager(txn)?;
        let meter = db.meter().clone();
        let mut w = TableWriter::new(&mut src_meta, &pager, txn, &meter);
        for i in 0..5_000i64 {
            w.append_row(&[Value::I64(i), Value::Str(format!("event-{i}").into())])?;
        }
        w.finish()?;
    }
    db.commit(txn)?;
    let aws_bytes = db.dbspace(aws)?.resident_bytes();
    println!("loaded 5000 rows on the AWS dbspace ({aws_bytes} bytes at rest)");

    // Migrate: scan from the AWS dbspace, rewrite into the Azure one,
    // all in one transaction. The old version dies through normal GC.
    let txn = db.begin();
    let mut dst_meta = TableMeta::new(dst_table, "events", schema, 128);
    {
        let pager = db.pager(txn)?;
        let meter = db.meter().clone();
        let rows = src_meta.scan(&pager, &[0, 1], None, &meter)?;
        let mut w = TableWriter::new(&mut dst_meta, &pager, txn, &meter);
        for r in 0..rows.len() {
            w.append_row(&rows.row(r))?;
        }
        w.finish()?;
    }
    db.commit(txn)?;
    println!(
        "migrated to the Azure dbspace ({} bytes at rest there)",
        db.dbspace(azure)?.resident_bytes()
    );

    // Verify the migrated copy.
    let rtxn = db.begin();
    let pager = db.pager(rtxn)?;
    let out = dst_meta.scan(&pager, &[1], None, db.meter())?;
    assert_eq!(out.len(), 5_000);
    assert_eq!(&out.col(0).strs()[4999], "event-4999");
    db.rollback(rtxn)?;

    // Price the same data under both providers (per GB-month rates the
    // paper's Table 4 methodology uses).
    let bytes = db.dbspace(azure)?.resident_bytes();
    // Scale to a petabyte-class deployment for a readable number.
    let scaled = bytes * 1_000_000;
    println!(
        "at-rest cost for the scaled dataset: S3 ${:.2}/mo vs Azure Blob ${:.2}/mo vs EFS ${:.2}/mo",
        monthly_storage_usd(&DeviceProfile::s3(), scaled),
        monthly_storage_usd(&DeviceProfile::azure_blob(), scaled),
        monthly_storage_usd(&DeviceProfile::efs(512), scaled),
    );
    // Both buckets honoured never-write-twice throughout.
    assert_eq!(db.cloud_store(aws).unwrap().max_write_count(), 1);
    assert_eq!(db.cloud_store(azure).unwrap().max_write_count(), 1);
    println!("never-write-twice held on both providers");
    Ok(())
}
