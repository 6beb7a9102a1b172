//! A counting global allocator for the traced run: allocations and bytes
//! requested, switched on only around traced sections. While off it
//! costs one relaxed load per allocation.
//!
//! The engine allocates millions of times per second from two lanes, so
//! a shared read-modify-write counter would itself be the bottleneck the
//! trace reports. Counts therefore go to one of 64 cache-line-sized
//! slots picked per thread and are bumped with a plain load and store.
//! Two threads alive at once share a slot only if their ordinals differ
//! by a multiple of 64; an update lost that way is accepted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
static COUNTS: [Slot; SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Forwards to the system allocator, counting while switched on.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        let slot = SLOT.with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        });
        let c = &COUNTS[slot];
        c.allocs
            .store(c.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        c.bytes.store(
            c.bytes.load(Ordering::Relaxed) + size as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with the
        // same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // and `new_size` is the caller's; all pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counted() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), c| {
        (
            a + c.allocs.load(Ordering::Relaxed),
            b + c.bytes.load(Ordering::Relaxed),
        )
    })
}
