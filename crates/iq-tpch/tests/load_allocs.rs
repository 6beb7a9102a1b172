//! Allocation-count regression for the bulk load: `TpchDb::load` makes
//! at most four heap allocations per loaded row, everything included —
//! generation, the writer's pending columns, dictionaries, zone maps,
//! page encoding and the store.
//!
//! Its own test binary, because it swaps in a counting global allocator;
//! one `#[test]` so nothing else allocates while the load is counted.
//! Here (SF 0.02, seed 20210620, 1 024-row groups) the load made 9.93
//! allocations per row before the load path was made allocation-lean: a
//! fresh `Vec<Value>` per row, a fresh `Arc<str>` per string value
//! (small-domain columns included), a comment grown word by word and then
//! copied, a second copy of each new string inside the dictionary, and
//! pending columns that restarted at capacity 0 after every group. With
//! shared small-domain strings, rows borrowed from the generator's stack,
//! comments written in place, a dictionary that keeps the caller's `Arc`
//! and pending columns that keep their capacity, it makes 1.15: what is
//! left is one `Arc` per large-domain string (names, phones, comments —
//! including a comment the column already holds) and per-group work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use iq_common::TxnId;
use iq_engine::{MemPageStore, WorkMeter};
use iq_tpch::TpchDb;

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

#[test]
fn load_allocates_at_most_four_times_per_row() {
    let store = MemPageStore::new();
    let meter = WorkMeter::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    let db = TpchDb::load(0.02, 20210620, &store, TxnId(1), &meter, 1024).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let per_row = allocs as f64 / db.total_rows() as f64;
    assert!(
        per_row <= 4.0,
        "{allocs} allocations for {} rows: {per_row:.2} a row",
        db.total_rows()
    );
}
