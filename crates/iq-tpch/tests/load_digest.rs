//! The bulk load is byte-identical: every page `TpchDb::load` writes,
//! every column dictionary in code order, every group's zone entries and
//! the metered work are pinned by one digest at SF 0.005.
//!
//! The digest was recorded before the load path stopped allocating per
//! row (shared small-domain strings, one reused row buffer, a dictionary
//! that keeps the caller's `Arc`); a faster load must write the same
//! bytes.

use std::sync::Mutex;

use bytes::Bytes;
use iq_common::{IqResult, PageId, TableId, TxnId};
use iq_engine::{MemPageStore, PageStore, WorkMeter};
use iq_storage::{Page, PageKind};
use iq_tpch::TpchDb;

const SF: f64 = 0.005;
const SEED: u64 = 20210620;

/// A `MemPageStore` that also records each write, in order.
#[derive(Default)]
struct Recording {
    inner: MemPageStore,
    writes: Mutex<Vec<(u32, u64, Bytes)>>,
}

impl PageStore for Recording {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.inner.read_page(table, page, demand)
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        self.writes
            .lock()
            .unwrap()
            .push((table.0, page.0, body.clone()));
        self.inner.write_page(table, page, kind, body, txn)
    }
}

/// FNV-1a, 64-bit.
fn eat(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn load_writes_the_pinned_bytes() {
    let store = Recording::default();
    let meter = WorkMeter::new();
    let db = TpchDb::load(SF, SEED, &store, TxnId(1), &meter, 1024).unwrap();

    let writes = store.writes.into_inner().unwrap();
    let mut pages = 0xcbf2_9ce4_8422_2325;
    for (table, page, body) in &writes {
        pages = eat(pages, &table.to_le_bytes());
        pages = eat(pages, &page.to_le_bytes());
        pages = eat(pages, &(body.len() as u64).to_le_bytes());
        pages = eat(pages, body);
    }

    let mut meta = 0xcbf2_9ce4_8422_2325;
    for t in db.tables() {
        meta = eat(meta, t.name.as_bytes());
        for dict in t.dicts.iter().flatten() {
            meta = eat(meta, &(dict.len() as u64).to_le_bytes());
            for code in 0..dict.len() as u32 {
                meta = eat(meta, dict.list().get(code).unwrap().as_bytes());
                meta = eat(meta, &[0xff]);
            }
        }
        meta = eat(meta, format!("{:?}", t.groups).as_bytes());
    }

    assert_eq!(
        (writes.len(), pages, meta, meter.total()),
        (603, 0x5c85_f796_2a88_568c, 0x64b2_437c_6a51_1d74, 1_162_762),
        "(page writes, page digest, dictionary + zone digest, work units)"
    );
}
