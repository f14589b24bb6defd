//! A counting `GlobalAlloc` wrapper for zero-allocation hot-path tests
//! and peak-memory measurement.
//!
//! Install [`CountingAlloc`] as the test binary's `#[global_allocator]`,
//! then bracket the code under test with [`count_allocations`]. Counts
//! are kept in thread-local cells, so concurrently running `cargo test`
//! threads do not perturb each other's measurements.
//!
//! ```
//! use counting_alloc::{count_allocations, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//!
//! let (stats, sum) = count_allocations(|| (0..100u64).sum::<u64>());
//! assert_eq!(stats.allocations, 0, "summing must not allocate");
//! assert_eq!(sum, 4950);
//! ```
//!
//! Beyond the window counters, the allocator tracks **live bytes** (a
//! running alloc-minus-dealloc balance) and its **high-water mark** —
//! an RSS proxy the `benchmark/` crate reads for its peak-memory and
//! bytes-per-tenant metrics. Use [`reset_peak`] at a measurement boundary and
//! [`peak_live_bytes`] after the workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    // Live-byte balance can dip below a `reset_peak` baseline when the
    // workload frees memory allocated before the window, so it is
    // signed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn track_alloc(size: usize) {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
    let live = LIVE_BYTES.with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        live
    });
    PEAK_LIVE.with(|c| c.set(c.get().max(live)));
}

#[inline]
fn track_dealloc(size: usize) {
    LIVE_BYTES.with(|c| c.set(c.get() - size as i64));
}

/// Wraps [`System`], counting every `alloc`/`realloc` on the current
/// thread. Frees are not *counted* (the zero-alloc tests assert that hot
/// loops acquire no memory, and a free implies a prior counted
/// acquisition) but they do *credit* the live-byte balance behind
/// [`live_bytes`]/[`peak_live_bytes`].
pub struct CountingAlloc;

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates verbatim to `System`; the counters are thread-local
// and touched outside the delegated call, never re-entering the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + new_size as u64));
        // A realloc frees the old block and acquires the new size.
        let live = LIVE_BYTES.with(|c| {
            let live = c.get() - layout.size() as i64 + new_size as i64;
            c.set(live);
            live
        });
        PEAK_LIVE.with(|c| c.set(c.get().max(live)));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation counts observed during one [`count_allocations`] window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc` + `realloc` calls on this thread.
    pub allocations: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

/// Run `f`, returning the allocation counts it incurred on this thread
/// alongside its result. Requires [`CountingAlloc`] to be installed as
/// the `#[global_allocator]`; with the default allocator the counts are
/// always zero (vacuously passing), so tests should first assert that a
/// deliberate allocation is visible — see `probe_is_live`.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (AllocStats, T) {
    let before_allocs = ALLOCATIONS.with(|c| c.get());
    let before_bytes = BYTES.with(|c| c.get());
    let value = f();
    let stats = AllocStats {
        allocations: ALLOCATIONS.with(|c| c.get()) - before_allocs,
        bytes: BYTES.with(|c| c.get()) - before_bytes,
    };
    (stats, value)
}

/// Current alloc-minus-dealloc balance on this thread, in bytes. Can be
/// negative if more pre-existing memory was freed than acquired since
/// tracking began.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(|c| c.get())
}

/// High-water mark of [`live_bytes`] since the last [`reset_peak`] (or
/// thread start). The `benchmark/` crate's bytes-per-tenant metric reads
/// this.
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE.with(|c| c.get())
}

/// Restart the high-water tracking at the current live balance.
pub fn reset_peak() {
    let live = LIVE_BYTES.with(|c| c.get());
    PEAK_LIVE.with(|c| c.set(live));
}

/// Run `f`, returning the extra peak live bytes it drove above the
/// balance at entry (its *marginal* high-water mark) alongside its
/// result.
pub fn measure_peak<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let base = live_bytes();
    reset_peak();
    let value = f();
    let peak = (peak_live_bytes() - base).max(0);
    (peak, value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc::new();

    #[test]
    fn probe_is_live() {
        let (stats, v) = count_allocations(|| vec![1u8; 4096]);
        assert!(stats.allocations >= 1, "Vec allocation must be counted");
        assert!(stats.bytes >= 4096);
        drop(v);
    }

    #[test]
    fn pure_arithmetic_counts_zero() {
        let (stats, sum) = count_allocations(|| (0..1000u64).map(|x| x ^ 0x55).sum::<u64>());
        assert_eq!(stats.allocations, 0);
        assert_eq!(stats.bytes, 0);
        assert!(sum > 0);
    }

    #[test]
    fn realloc_is_counted() {
        let (stats, v) = count_allocations(|| {
            let mut v = Vec::with_capacity(4);
            for i in 0..1000u32 {
                v.push(i); // forces several growth reallocs
            }
            v
        });
        assert!(stats.allocations >= 2, "growth reallocs must be counted");
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn peak_tracks_highwater_not_endstate() {
        let (peak, _) = measure_peak(|| {
            let big = vec![0u8; 1 << 20];
            drop(big); // freed before the window ends …
            vec![0u8; 16] // … and the end-state is tiny
        });
        assert!(
            peak >= 1 << 20,
            "peak {peak} missed the transient 1 MiB spike"
        );
    }

    #[test]
    fn peak_resets_to_current_balance() {
        let keep = vec![7u8; 1 << 16];
        reset_peak();
        assert_eq!(peak_live_bytes(), live_bytes(), "reset pins peak to live");
        let (peak, _) = measure_peak(|| vec![0u8; 256]);
        assert!(
            (256..(1 << 16)).contains(&peak),
            "marginal peak only: {peak}"
        );
        drop(keep);
    }

    #[test]
    fn dealloc_credits_live_balance() {
        let before = live_bytes();
        let v = vec![0u8; 4096];
        assert!(live_bytes() >= before + 4096);
        drop(v);
        assert!(live_bytes() <= before + 64, "free must credit the balance");
    }
}
