//! A counting `#[global_allocator]`: allocations per round and per query
//! as deterministic per-layer columns.
//!
//! The binary installs [`Counting`]; counting is switched on only for the
//! traced pass, so the untraced pass pays one relaxed load per allocation.
//! Load-generator threads mark themselves with [`exclude_this_thread`] so
//! the harness's own request strings are not charged to the server.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` + no destructor: readable from inside the allocator at any
    // point of a thread's life without allocating.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus two counters.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if ENABLED.load(Relaxed) && !EXCLUDED.with(Cell::get) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

/// Turns counting on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Stops charging this thread's allocations (load-generator threads).
pub fn exclude_this_thread() {
    EXCLUDED.with(|c| c.set(true));
}

/// `(allocations, bytes)` counted so far; subtract two readings.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}
