//! Counting global allocator: allocation count, bytes allocated and peak
//! live bytes, read around each pass and each timed layer call.
//!
//! The counters are process-wide atomics, so allocations made on shard
//! threads are counted too. Peak live bytes are a high-water mark that
//! [`reset_peak`] rewinds to the current live total, which lets a caller
//! attribute the peak to the interval it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`] plus counters.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters only
// observe sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // A move to a new block: the old one is freed, the new counted.
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Cumulative allocation totals at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Totals {
    /// Allocations (including reallocations) so far.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// The cumulative totals now.
pub fn totals() -> Totals {
    Totals {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

impl Totals {
    /// What was allocated between `earlier` and `self`.
    pub fn since(self, earlier: Totals) -> Totals {
        Totals {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Rewinds the high-water mark to the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Bytes live now.
pub fn live() -> u64 {
    LIVE.load(Relaxed)
}

/// Peak live bytes since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
