//! TPC-H physical database: schemas and the load path. The paper's
//! physical design (§6: range-partitioned tables, HG indexes on seven
//! join columns) is not declared: no plan here probes an index and the
//! per-row-group zone maps already bound every date column.

use iq_common::{IqResult, TableId, TxnId};
use iq_engine::table::{Schema, TableMeta, TableWriter};
use iq_engine::value::DataType;
use iq_engine::{PageStore, WorkMeter};

use crate::gen::{Generator, Sink};

/// The eight TPC-H tables, loaded.
pub struct TpchDb {
    /// REGION.
    pub region: TableMeta,
    /// NATION.
    pub nation: TableMeta,
    /// SUPPLIER.
    pub supplier: TableMeta,
    /// CUSTOMER.
    pub customer: TableMeta,
    /// PART.
    pub part: TableMeta,
    /// PARTSUPP.
    pub partsupp: TableMeta,
    /// ORDERS.
    pub orders: TableMeta,
    /// LINEITEM.
    pub lineitem: TableMeta,
    /// Scale factor the database was generated at.
    pub sf: f64,
}

use DataType::{Date, Str, F64, I64};

impl TpchDb {
    /// Empty table metadata for the eight tables.
    pub fn schemas(sf: f64, row_group_size: u32) -> Self {
        let region = TableMeta::new(
            TableId(1),
            "region",
            Schema::new(&[("r_regionkey", I64), ("r_name", Str), ("r_comment", Str)]),
            row_group_size,
        );
        let nation = TableMeta::new(
            TableId(2),
            "nation",
            Schema::new(&[
                ("n_nationkey", I64),
                ("n_name", Str),
                ("n_regionkey", I64),
                ("n_comment", Str),
            ]),
            row_group_size,
        );
        let supplier = TableMeta::new(
            TableId(3),
            "supplier",
            Schema::new(&[
                ("s_suppkey", I64),
                ("s_name", Str),
                ("s_address", Str),
                ("s_nationkey", I64),
                ("s_phone", Str),
                ("s_acctbal", F64),
                ("s_comment", Str),
            ]),
            row_group_size,
        );
        let customer = TableMeta::new(
            TableId(4),
            "customer",
            Schema::new(&[
                ("c_custkey", I64),
                ("c_name", Str),
                ("c_address", Str),
                ("c_nationkey", I64),
                ("c_phone", Str),
                ("c_acctbal", F64),
                ("c_mktsegment", Str),
                ("c_comment", Str),
            ]),
            row_group_size,
        );
        let part = TableMeta::new(
            TableId(5),
            "part",
            Schema::new(&[
                ("p_partkey", I64),
                ("p_name", Str),
                ("p_mfgr", Str),
                ("p_brand", Str),
                ("p_type", Str),
                ("p_size", I64),
                ("p_container", Str),
                ("p_retailprice", F64),
                ("p_comment", Str),
            ]),
            row_group_size,
        );
        let partsupp = TableMeta::new(
            TableId(6),
            "partsupp",
            Schema::new(&[
                ("ps_partkey", I64),
                ("ps_suppkey", I64),
                ("ps_availqty", I64),
                ("ps_supplycost", F64),
                ("ps_comment", Str),
            ]),
            row_group_size,
        );
        let orders = TableMeta::new(
            TableId(7),
            "orders",
            Schema::new(&[
                ("o_orderkey", I64),
                ("o_custkey", I64),
                ("o_orderstatus", Str),
                ("o_totalprice", F64),
                ("o_orderdate", Date),
                ("o_orderpriority", Str),
                ("o_clerk", Str),
                ("o_shippriority", I64),
                ("o_comment", Str),
            ]),
            row_group_size,
        );
        let lineitem = TableMeta::new(
            TableId(8),
            "lineitem",
            Schema::new(&[
                ("l_orderkey", I64),
                ("l_partkey", I64),
                ("l_suppkey", I64),
                ("l_linenumber", I64),
                ("l_quantity", I64),
                ("l_extendedprice", F64),
                ("l_discount", F64),
                ("l_tax", F64),
                ("l_returnflag", Str),
                ("l_linestatus", Str),
                ("l_shipdate", Date),
                ("l_commitdate", Date),
                ("l_receiptdate", Date),
                ("l_shipinstruct", Str),
                ("l_shipmode", Str),
                ("l_comment", Str),
            ]),
            row_group_size,
        );
        Self {
            region,
            nation,
            supplier,
            customer,
            part,
            partsupp,
            orders,
            lineitem,
            sf,
        }
    }

    /// Generate and load the full database through `store` under `txn`.
    pub fn load(
        sf: f64,
        seed: u64,
        store: &dyn PageStore,
        txn: TxnId,
        meter: &WorkMeter,
        row_group_size: u32,
    ) -> IqResult<Self> {
        let g = Generator::new(sf, seed);
        let mut db = Self::schemas(sf, row_group_size);

        // One table at a time, each finished before the next begins, so
        // pages are written in load order.
        let load = |meta: &mut TableMeta, rows: fn(&Generator, Sink) -> IqResult<()>| {
            let mut w = TableWriter::new(meta, store, txn, meter);
            rows(&g, &mut |row| w.append_row(row))?;
            w.finish()
        };
        load(&mut db.region, Generator::region)?;
        load(&mut db.nation, Generator::nation)?;
        load(&mut db.supplier, Generator::supplier)?;
        load(&mut db.customer, Generator::customer)?;
        load(&mut db.part, Generator::part)?;
        load(&mut db.partsupp, Generator::partsupp)?;

        // Orders and lineitems stream together.
        let mut ow = TableWriter::new(&mut db.orders, store, txn, meter);
        let mut lw = TableWriter::new(&mut db.lineitem, store, txn, meter);
        g.orders_and_lines(g.orders(), &mut |o| ow.append_row(o), &mut |l| {
            lw.append_row(l)
        })?;
        ow.finish()?;
        lw.finish()?;
        Ok(db)
    }

    /// All tables in load order.
    pub fn tables(&self) -> [&TableMeta; 8] {
        [
            &self.region,
            &self.nation,
            &self.supplier,
            &self.customer,
            &self.part,
            &self.partsupp,
            &self.orders,
            &self.lineitem,
        ]
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables().into_iter().find(|t| t.name == name)
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.tables().iter().map(|t| t.row_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_engine::MemPageStore;

    #[test]
    fn load_small_db() {
        let store = MemPageStore::new();
        let meter = WorkMeter::new();
        let db = TpchDb::load(0.001, 42, &store, TxnId(1), &meter, 512).unwrap();
        assert_eq!(db.region.row_count(), 5);
        assert_eq!(db.nation.row_count(), 25);
        assert_eq!(db.supplier.row_count(), 10);
        assert_eq!(db.customer.row_count(), 150);
        assert_eq!(db.orders.row_count(), 1_500);
        assert!(db.lineitem.row_count() >= 1_500);
        assert!(meter.total() > 0);
        assert!(store.page_count() > 0);
        assert!(db.table("lineitem").is_some());
        assert!(db.table("nope").is_none());
    }
}
