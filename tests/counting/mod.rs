//! The counting global allocator the allocation suites share
//! (`negotiate_alloc.rs`, `rx_alloc.rs`, `tx_alloc.rs`).
//!
//! It wraps `System` and counts allocation events (`alloc`,
//! `alloc_zeroed`, `realloc`; a deallocation is free) per thread, so a
//! window counts only what the thread that opened it allocates. The
//! test harness's own threads — its main thread reporting an ignored
//! test while the counted one runs, on a busy host — fall outside every
//! window. No window here hands work to another thread. The counter is
//! a `const`-initialised thread-local without a destructor, so counting
//! never allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread past its thread-locals' teardown goes uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counter is a statistic that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        count();
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocation events of the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The allocation events of `f` on the calling thread, and what it
/// returns (dropped by the caller, off the count).
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}
