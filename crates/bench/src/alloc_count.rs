//! A counting [`GlobalAlloc`] for deterministic allocation-budget metrics.
//!
//! The simulator is single-threaded and deterministic, so the number of
//! heap allocations a scenario performs is a *repeatable* number, not a
//! noisy wall-clock measurement. The benchmark of record (`benchmark/`)
//! registers [`CountingAlloc`] as its `#[global_allocator]` for its
//! allocation and peak-live-bytes metrics, and each `tests/*_alloc.rs`
//! binary does for the budgets it gates.
//!
//! Only a binary that wants the metric registers the allocator — the
//! library crates stay on the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn live_add(n: u64) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn live_sub(n: u64) {
    LIVE.fetch_sub(n, Ordering::Relaxed);
}

/// Pass-through system allocator that counts every allocation.
/// Register with `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counters are side-effect-only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        live_add(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_sub(layout.size() as u64);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is morally a fresh allocation: count it so `Vec` doubling
        // isn't free.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        live_sub(layout.size() as u64);
        live_add(new_size as u64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Currently live heap bytes (alloc − dealloc) under [`CountingAlloc`].
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes since the last
/// [`reset_peak_live_bytes`] — a deterministic peak-RSS proxy.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live level, so the next
/// [`peak_live_bytes`] reading measures one region's high-water mark.
pub fn reset_peak_live_bytes() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Counter snapshot; subtract two to get a scenario's allocation cost.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Current global counters.
    pub fn now() -> Self {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Allocations and bytes since `self` was taken.
    pub fn since(&self) -> AllocSnapshot {
        let n = Self::now();
        AllocSnapshot {
            allocs: n.allocs - self.allocs,
            bytes: n.bytes - self.bytes,
        }
    }
}
