//! TPC-H refresh functions RF1 (new sales) and RF2 (old sales removal).
//!
//! The paper's power run skips the refresh streams, but they are part of
//! the TPC-H specification and they exercise exactly the machinery the
//! paper contributes: every refresh commits a **new table version**
//! (copy-on-write blockmaps, fresh object keys), and the superseded
//! pages flow through the RF bitmaps into garbage collection — or into
//! the snapshot manager's retention FIFO.
//!
//! A refresh touches a few dozen of a table's rows, and it costs a few
//! dozen of its pages — the new version shares every other page with the
//! one it supersedes, which is what table-level versioning is for (§2–3):
//!
//! * **RF1** appends `orders_per_refresh` new orders (and their line
//!   items) by reopening each table's partial last row group
//!   ([`TableWriter::reopen`]): it writes that group and whatever
//!   overflows it;
//! * **RF2** removes the `orders_per_refresh` *oldest* order keys by
//!   rewriting in place the row groups that hold one
//!   ([`TableMeta::delete_keys`]).
//!
//! Rows keep their order (deletes preserve it, inserts go last), so a
//! scan returns what it would after rewriting the whole table.

use std::collections::HashSet;

use iq_common::{IqResult, TxnId};
use iq_engine::table::{TableMeta, TableWriter};
use iq_engine::value::Value;
use iq_engine::{PageStore, WorkMeter};

use crate::db::TpchDb;
use crate::gen::Generator;

/// Number of orders touched per refresh: SF × 1500, as in the spec.
pub fn orders_per_refresh(sf: f64) -> u64 {
    ((sf * 1_500.0).round() as u64).max(1)
}

/// `meta`'s next version: its rows, then `rows`.
fn append_rows(
    meta: &TableMeta,
    store: &dyn PageStore,
    txn: TxnId,
    meter: &WorkMeter,
    rows: &[Vec<Value>],
) -> IqResult<TableMeta> {
    let mut next = meta.clone();
    let mut w = TableWriter::reopen(&mut next, store, txn, meter)?;
    for row in rows {
        w.append_row(row)?;
    }
    w.finish()?;
    Ok(next)
}

/// The rows RF1 number `refresh_seq` inserts — `(orders, line items)` —
/// and the first new order key.
fn rf1_rows(db: &TpchDb, refresh_seq: u64) -> (Vec<Vec<Value>>, Vec<Vec<Value>>, i64) {
    let g = Generator::new(db.sf, 0x5F31 ^ refresh_seq);
    let count = orders_per_refresh(db.sf);
    // New keys start past the existing key space, offset by the refresh
    // sequence so repeated RF1s do not collide. The generator numbers
    // its orders (and their line items) from 1.
    let base = g.orders() + 1 + refresh_seq as i64 * count as i64;
    let renumbered = |mut row: Vec<Value>| {
        let generated = row[0].as_i64().expect("order key");
        row[0] = Value::I64(base + generated - 1);
        row
    };
    let (mut orders, mut lines) = (Vec::new(), Vec::new());
    g.first_orders(
        count as i64,
        |o| orders.push(renumbered(o)),
        |l| lines.push(renumbered(l)),
    );
    (orders, lines, base)
}

/// RF1: insert `orders_per_refresh(sf)` new orders and their line items.
/// Returns the updated `(orders, lineitem)` metadata (the caller installs
/// them after commit) and the first new order key.
pub fn rf1(
    db: &TpchDb,
    store: &dyn PageStore,
    txn: TxnId,
    meter: &WorkMeter,
    refresh_seq: u64,
) -> IqResult<(TableMeta, TableMeta, i64)> {
    let (new_orders, new_lines, base) = rf1_rows(db, refresh_seq);
    let orders = append_rows(&db.orders, store, txn, meter, &new_orders)?;
    let lineitem = append_rows(&db.lineitem, store, txn, meter, &new_lines)?;
    Ok((orders, lineitem, base))
}

/// The order keys RF2 deletes: the `orders_per_refresh(sf)` lowest.
fn rf2_victims(db: &TpchDb, store: &dyn PageStore, meter: &WorkMeter) -> IqResult<HashSet<i64>> {
    let count = orders_per_refresh(db.sf) as usize;
    let okey_col = db.orders.schema.col("o_orderkey").expect("o_orderkey");
    let keys_chunk = db.orders.scan(store, &[okey_col], None, meter)?;
    let mut keys: Vec<i64> = keys_chunk.col(0).i64s().to_vec();
    keys.sort_unstable();
    Ok(keys.into_iter().take(count).collect())
}

/// RF2: delete the `orders_per_refresh(sf)` lowest order keys and their
/// line items. Returns the updated `(orders, lineitem)` metadata and the
/// set of deleted keys.
pub fn rf2(
    db: &TpchDb,
    store: &dyn PageStore,
    txn: TxnId,
    meter: &WorkMeter,
) -> IqResult<(TableMeta, TableMeta, HashSet<i64>)> {
    let victims = rf2_victims(db, store, meter)?;
    let without = |meta: &TableMeta, key: &str| -> IqResult<TableMeta> {
        let key_col = meta.schema.col(key).expect(key);
        let mut next = meta.clone();
        next.delete_keys(store, txn, meter, key_col, &victims)?;
        Ok(next)
    };
    let orders = without(&db.orders, "o_orderkey")?;
    let lineitem = without(&db.lineitem, "l_orderkey")?;
    Ok((orders, lineitem, victims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iq_engine::chunk::Chunk;
    use iq_engine::MemPageStore;

    /// The whole-table rewrite the refresh functions used to be, kept as
    /// their oracle: `current rows the filter keeps` + `appended rows`,
    /// reloaded from nothing.
    fn rewrite_table(
        meta: &TableMeta,
        store: &dyn PageStore,
        meter: &WorkMeter,
        keep: impl Fn(&[Value]) -> bool,
        append: &[Vec<Value>],
    ) -> TableMeta {
        let all_cols: Vec<usize> = (0..meta.schema.len()).collect();
        let current: Chunk = meta.scan(store, &all_cols, None, meter).unwrap();
        let mut next = TableMeta::new(
            meta.id,
            meta.name.clone(),
            meta.schema.clone(),
            meta.row_group_size,
        );
        let mut w = TableWriter::new(&mut next, store, TxnId(9), meter);
        for r in 0..current.len() {
            let row = current.row(r);
            if keep(&row) {
                w.append_row(&row).unwrap();
            }
        }
        for row in append {
            w.append_row(row).unwrap();
        }
        w.finish().unwrap();
        next
    }

    fn full_scan(meta: &TableMeta, store: &dyn PageStore, meter: &WorkMeter) -> Chunk {
        let all_cols: Vec<usize> = (0..meta.schema.len()).collect();
        meta.scan(store, &all_cols, None, meter).unwrap()
    }

    /// Refresh sequences against the oracle, each side on its own store:
    /// after every step both tables scan to the same rows in the same
    /// order. With 3 orders per refresh and 8-row groups the third RF2
    /// empties the first `orders` group; RF1 overflows the tail group at
    /// every size.
    #[test]
    fn refreshes_scan_like_whole_table_rewrites() {
        let meter = WorkMeter::new();
        for group_size in [8u32, 27, 64] {
            let (store, oracle_store) = (MemPageStore::new(), MemPageStore::new());
            let mut db = TpchDb::load(0.002, 11, &store, TxnId(1), &meter, group_size).unwrap();
            let mut oracle =
                TpchDb::load(0.002, 11, &oracle_store, TxnId(1), &meter, group_size).unwrap();
            let steps = ["rf2", "rf1", "rf2", "rf2", "rf1", "rf1", "rf2"];
            let mut seq = 0u64;
            for step in steps {
                if step == "rf1" {
                    let (o, l, _) = rf1(&db, &store, TxnId(2), &meter, seq).unwrap();
                    (db.orders, db.lineitem) = (o, l);
                    let (new_orders, new_lines, _) = rf1_rows(&oracle, seq);
                    let all = |_: &[Value]| true;
                    oracle.orders =
                        rewrite_table(&oracle.orders, &oracle_store, &meter, all, &new_orders);
                    oracle.lineitem =
                        rewrite_table(&oracle.lineitem, &oracle_store, &meter, all, &new_lines);
                    seq += 1;
                } else {
                    let (o, l, victims) = rf2(&db, &store, TxnId(3), &meter).unwrap();
                    (db.orders, db.lineitem) = (o, l);
                    assert_eq!(
                        victims,
                        rf2_victims(&oracle, &oracle_store, &meter).unwrap()
                    );
                    let keep = |row: &[Value]| !victims.contains(&row[0].as_i64().unwrap());
                    oracle.orders = rewrite_table(&oracle.orders, &oracle_store, &meter, keep, &[]);
                    oracle.lineitem =
                        rewrite_table(&oracle.lineitem, &oracle_store, &meter, keep, &[]);
                }
                for (got, want) in [
                    (&db.orders, &oracle.orders),
                    (&db.lineitem, &oracle.lineitem),
                ] {
                    assert_eq!(got.row_count(), want.row_count(), "{step} @ {group_size}");
                    assert_eq!(
                        full_scan(got, &store, &meter),
                        full_scan(want, &oracle_store, &meter),
                        "{} after {step} @ {group_size}",
                        got.name
                    );
                }
            }
            if group_size == 8 {
                assert_eq!(db.orders.groups[0].rows, 0, "the first group emptied");
            }
        }
    }
}
