//! Allocation-count regression: the scan, expression and operator kernels
//! allocate per *column* and per *group*, never per row.
//!
//! Its own test binary, because it swaps in a counting global allocator;
//! one `#[test]` so nothing else allocates while a section is counted.
//! The ceilings sit well above what the column-at-a-time kernels need
//! (51 and 40 allocations per 1 024-row group when written — columns,
//! partitions and the lanes' thread spawns); the row-at-a-time engine
//! they replaced (a heap key per row, twice) measured 2 033 and 4 128 on
//! this same test — 12 and 41 times the ceilings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iq_common::{TableId, TxnId};
use iq_engine::expr::Expr;
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggSpec, JoinType};
use iq_engine::table::{Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{MemPageStore, OpExec, WorkMeter};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

const GROUP: u32 = 1024;
const GROUPS: u64 = 16;

fn load(
    store: &MemPageStore,
    id: u32,
    schema: Schema,
    row: impl Fn(i64) -> Vec<Value>,
) -> TableMeta {
    let meter = WorkMeter::new();
    let mut meta = TableMeta::new(TableId(id), "t", schema, GROUP);
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), &meter);
    for i in 0..(GROUP as i64 * GROUPS as i64) {
        w.append_row(&row(i)).unwrap();
    }
    w.finish().unwrap();
    meta
}

#[test]
fn kernels_allocate_per_column_and_group_not_per_row() {
    let store = MemPageStore::new();
    let meter = WorkMeter::new();
    let exec = OpExec::new(2);

    // Q1-shaped: scan under a date predicate -> computed column -> a
    // two-string-key aggregate.
    let lineitem = load(
        &store,
        1,
        Schema::new(&[
            ("flag", DataType::Str),
            ("status", DataType::Str),
            ("qty", DataType::I64),
            ("price", DataType::F64),
            ("disc", DataType::F64),
            ("ship", DataType::Date),
            ("orderkey", DataType::I64),
        ]),
        |i| {
            vec![
                Value::Str(["A", "N", "R"][i as usize % 3].into()),
                Value::Str(["F", "O"][i as usize % 2].into()),
                Value::I64(1 + i % 50),
                Value::F64(900.0 + i as f64 * 0.25),
                Value::F64((i % 11) as f64 * 0.01),
                Value::Date(9_000 + (i % 2_000) as i32),
                Value::I64(i / 4),
            ]
        },
    );
    let pred = Expr::le(Expr::col(5), Expr::lit_date(10_900));
    let (q1, allocs) = counted(|| {
        let c = lineitem
            .scan(&store, &[0, 1, 2, 3, 4], Some(&pred), &meter)
            .unwrap();
        let disc_price = Expr::mul(Expr::col(3), Expr::sub(Expr::lit_f64(1.0), Expr::col(4)));
        let mut c = c;
        let computed = disc_price.eval(&c, &[0, 1, 2, 3, 4]).unwrap();
        c.cols.push(computed);
        let aggs = [
            AggSpec::sum(2),
            AggSpec::sum(5),
            AggSpec::avg(4),
            AggSpec::count(0),
        ];
        hash_aggregate_exec(&c, &[0, 1], &aggs, &meter, &exec).unwrap()
    });
    assert_eq!(q1.len(), 6);
    assert!(
        allocs / GROUPS <= 160,
        "scan -> filter -> aggregate: {} allocations per 1024-row group",
        allocs / GROUPS
    );

    // lineitem x orders-shaped join: four probe rows per build key.
    let orders = load(
        &store,
        2,
        Schema::new(&[("orderkey", DataType::I64), ("custkey", DataType::I64)]),
        |i| vec![Value::I64(i), Value::I64(i % 997)],
    );
    let lines = lineitem.scan(&store, &[6, 2], None, &meter).unwrap();
    let orders = orders.scan(&store, &[0, 1], None, &meter).unwrap();
    let (joined, allocs) = counted(|| {
        hash_join_exec(&lines, &orders, &[0], &[0], JoinType::Inner, &meter, &exec).unwrap()
    });
    assert_eq!(joined.len(), lines.len());
    assert!(
        allocs / GROUPS <= 100,
        "join: {} allocations per 1024-row probe group",
        allocs / GROUPS
    );
}
