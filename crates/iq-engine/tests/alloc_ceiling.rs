//! Allocation-count regression: the scan, expression and operator kernels
//! allocate per *column* and per *group*, never per row — and the probe
//! side of a pipelined plan never holds a table-sized block.
//!
//! Its own test binary, because it swaps in a counting global allocator;
//! one `#[test]` so nothing else allocates while a section is counted.
//! The ceilings sit well above what the column-at-a-time kernels need
//! (51 and 40 allocations per 1 024-row group when written — columns,
//! partitions and the lanes' thread spawns); the row-at-a-time engine
//! they replaced (a heap key per row, twice) measured 2 033 and 4 128 on
//! this same test — 12 and 41 times the ceilings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use iq_common::{IqResult, TableId, TxnId};
use iq_engine::chunk::Chunk;
use iq_engine::expr::Expr;
use iq_engine::ops::{hash_aggregate_exec, hash_join_exec, AggSpec, HashJoin, JoinType};
use iq_engine::table::{ScanOptions, Schema, TableMeta, TableWriter};
use iq_engine::value::{DataType, Value};
use iq_engine::{MemPageStore, OpExec, WorkMeter};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single request, bytes live now, and their high-water mark.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note(freed: usize, size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LIVE.fetch_sub(freed, Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are relaxed statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
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

/// `(result, largest single request, high-water mark of bytes live above
/// the level at entry)` of `f`.
fn footprint<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (out, LARGEST.load(Ordering::Relaxed), peak)
}

const GROUP: u32 = 1024;
const GROUPS: u64 = 16;

fn load(
    store: &MemPageStore,
    id: u32,
    schema: Schema,
    row: impl Fn(i64) -> Vec<Value>,
) -> TableMeta {
    load_groups(store, id, schema, GROUPS, row)
}

fn load_groups(
    store: &MemPageStore,
    id: u32,
    schema: Schema,
    groups: u64,
    row: impl Fn(i64) -> Vec<Value>,
) -> TableMeta {
    let meter = WorkMeter::new();
    let mut meta = TableMeta::new(TableId(id), "t", schema, GROUP);
    let mut w = TableWriter::new(&mut meta, store, TxnId(1), &meter);
    for i in 0..(GROUP as i64 * groups as i64) {
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

    probe_side_holds_no_table_sized_block(&store);
}

/// A `lineitem ⋈ orders ⋈ customer` plan with a selective final filter,
/// written as a pipeline (the probe chain is the lineitem scan's stage)
/// and whole-chunk. One worker, so every number is exact.
fn probe_side_holds_no_table_sized_block(store: &MemPageStore) {
    const LINE_GROUPS: u64 = 64;
    let meter = WorkMeter::new();
    let exec = OpExec::serial();
    let lineitem = load_groups(
        store,
        3,
        Schema::new(&[
            ("orderkey", DataType::I64),
            ("qty", DataType::I64),
            ("price", DataType::F64),
            ("mode", DataType::Str),
        ]),
        LINE_GROUPS,
        |i| {
            vec![
                Value::I64(i / 4),
                Value::I64(1 + i % 50),
                Value::F64(900.0 + i as f64 * 0.25),
                Value::Str(["AIR", "MAIL", "RAIL", "SHIP"][i as usize % 4].into()),
            ]
        },
    );
    let orders = load(
        store,
        4,
        Schema::new(&[("orderkey", DataType::I64), ("custkey", DataType::I64)]),
        |i| vec![Value::I64(i), Value::I64(i % 997)],
    );
    let customer = load_groups(
        store,
        5,
        Schema::new(&[("custkey", DataType::I64), ("name", DataType::Str)]),
        1,
        |i| vec![Value::I64(i), Value::Str(format!("Customer#{i:09}").into())],
    );
    let orders = orders.scan(store, &[0, 1], None, &meter).unwrap();
    let customer = customer.scan(store, &[0, 1], None, &meter).unwrap();
    // One line in fifty survives.
    let rare = Expr::eq(Expr::col(1), Expr::lit_i64(7));
    let serial = ScanOptions {
        workers: 1,
        late_mat: true,
    };

    let by_order = HashJoin::build(&orders, &[0], &meter, &exec).unwrap();
    let by_customer = HashJoin::build(&customer, &[0], &meter, &exec).unwrap();
    let stage = |line: Chunk| -> IqResult<Chunk> {
        let j = by_order.probe(&line, &[0], JoinType::Inner, &meter)?; // custkey 5
        let j = by_customer.probe(&j, &[5], JoinType::Inner, &meter)?;
        Ok(j.filter(&rare.mask_on(&j)?))
    };
    // From the end of the last build to the final stitch.
    let (piped, largest, piped_peak) = footprint(|| {
        lineitem
            .scan_with_options(store, &[0, 1, 2, 3], None, &meter, serial, Some(&stage))
            .unwrap()
    });

    let (whole, _, whole_peak) = footprint(|| {
        let line = lineitem.scan(store, &[0, 1, 2, 3], None, &meter).unwrap();
        let j = hash_join_exec(&line, &orders, &[0], &[0], JoinType::Inner, &meter, &exec).unwrap();
        let j = hash_join_exec(&j, &customer, &[5], &[0], JoinType::Inner, &meter, &exec).unwrap();
        j.filter(&rare.mask_on(&j).unwrap())
    });
    assert_eq!(piped, whole);
    assert_eq!(piped.len() as u64, LINE_GROUPS * GROUP as u64 / 50 + 1);

    // A morsel-wide column of the widest type (`Arc<str>` is 16 bytes),
    // times two for a vector that grew by doubling to get there. (When
    // written: 20 976 bytes, the stitched result's string column.)
    let morsel_column = GROUP as usize * 16;
    assert!(
        largest <= 2 * morsel_column,
        "largest allocation on the probe side: {largest} bytes"
    );
    // Whole-chunk, the widest intermediate is every lineitem row by eight
    // columns; the pipeline holds one morsel of that and its 2 % result
    // (when written: 327 312 bytes against 13 149 192, a factor of 40).
    assert!(
        piped_peak * 16 <= whole_peak,
        "high-water mark: {piped_peak} bytes pipelined, {whole_peak} whole-chunk"
    );
}
