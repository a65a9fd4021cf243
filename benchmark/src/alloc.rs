//! Counting global allocator (pattern: `tests/tx_alloc.rs`).
//!
//! Counting is switched on only around the untimed set-up and
//! verification laps, so the timed path pays one relaxed load per
//! allocation and no read-modify-write: a shared counter bumped from
//! both `fwd_2q` workers would bounce a cache line between the cores
//! and inflate exactly the allocation-heavy device TX model.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are plain statistics that publish no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as i64);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(1, l.size() as i64);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note(1, new as i64 - l.size() as i64);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        note(0, -(l.size() as i64));
        System.dealloc(p, l)
    }
}

#[inline]
fn note(events: u64, bytes: i64) {
    if ENABLED.load(Ordering::Relaxed) {
        EVENTS.fetch_add(events, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Start counting from zero. Memory allocated before this call and
/// freed after it would read as negative; callers open the window
/// before building what they measure.
pub fn start() {
    EVENTS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn stop() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Allocation events (alloc, alloc_zeroed, realloc) since `start`.
pub fn events() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed since `start`.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}
