//! Counting global allocator: bytes and calls requested while counting is
//! switched on (traced rounds and the solver probe only), so
//! `solver.alloc_*_per_iteration` can be reported without touching the
//! libraries. When off, the cost is one atomic load per allocation.
//!
//! The counters are statistics that publish no other data; they use
//! `SeqCst` rather than `Relaxed` only because the repository's source
//! lint (R6) reserves `Relaxed` for an audited allowlist. On x86-64 the
//! read-modify-write instruction is the same either way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ON.load(Ordering::SeqCst) {
        BYTES.fetch_add(size as u64, Ordering::SeqCst);
        CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller upholds the contract of the `GlobalAlloc` method.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off (process-wide: pool threads allocate too).
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

/// `(bytes, calls)` requested so far while counting was on.
pub fn counters() -> (u64, u64) {
    (BYTES.load(Ordering::SeqCst), CALLS.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the switch is process-wide and tests run in parallel.
    #[test]
    fn counts_requests_only_while_switched_on() {
        let (b0, c0) = counters();
        let off: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&off);
        set_counting(true);
        let on: Vec<u8> = Vec::with_capacity(3 << 20);
        std::hint::black_box(&on);
        set_counting(false);
        let (b1, c1) = counters();
        // Other test threads may allocate concurrently, so the window can
        // only over-count; a 1 MiB slack separates the two cases.
        assert!(b1 - b0 >= 3 << 20, "the 3 MiB request was not counted");
        assert!(
            b1 - b0 < 4 << 20,
            "the 1 MiB request made while off was counted"
        );
        assert!(c1 > c0);
    }
}
