//! A counting global allocator for the zero-alloc hot-path benches.
//!
//! Wraps [`std::alloc::System`] and keeps atomic tallies of allocation
//! events and bytes requested. A bench registers one instance as its
//! `#[global_allocator]`, snapshots the counters around a measured window,
//! and asserts on the delta — turning "the steady state does not allocate"
//! from a code-review claim into a hard pass/fail gate.
//!
//! This is the only module in the workspace that needs `unsafe`
//! (implementing [`GlobalAlloc`] requires it); everything it does with
//! that license is delegate to `System` and bump counters.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] wrapper around [`System`] that counts.
///
/// All counters use relaxed atomics: the benches snapshot them from the
/// same thread that does the allocating, and cross-thread drift of a few
/// events would not move the asserted bounds.
///
/// # Examples
///
/// ```
/// use tetrabft_bench::CountingAlloc;
///
/// // Registered once, at most, per binary:
/// // #[global_allocator]
/// // static ALLOC: CountingAlloc = CountingAlloc::new();
/// static ALLOC: CountingAlloc = CountingAlloc::new();
/// let before = ALLOC.snapshot();
/// let after = ALLOC.snapshot();
/// assert_eq!(after.allocs - before.allocs, 0);
/// ```
#[derive(Debug)]
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// A point-in-time copy of the counters; subtract two to price a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events so far (`alloc`, `alloc_zeroed`, and every
    /// `realloc`, since a realloc may move the block).
    pub allocs: u64,
    /// Total bytes ever requested from the allocator.
    pub bytes: u64,
}

impl CountingAlloc {
    /// A fresh counter set (const: usable as a `static` initializer).
    pub const fn new() -> Self {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Copies the current counters.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn on_alloc(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

impl AllocSnapshot {
    /// Allocation events between `self` (earlier) and `later`.
    pub fn allocs_since(&self, later: &AllocSnapshot) -> u64 {
        later.allocs - self.allocs
    }

    /// Bytes requested between `self` (earlier) and `later`.
    pub fn bytes_since(&self, later: &AllocSnapshot) -> u64 {
        later.bytes - self.bytes
    }
}

// SAFETY: every path delegates the actual memory management verbatim to
// `System`; the wrapper only adds relaxed counter bumps, which cannot
// violate any `GlobalAlloc` contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // A realloc is an allocation event: the block may move and grow.
            self.on_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not registered as the global allocator here (tests must not hijack
    // the test harness's allocations); exercised directly instead.
    #[test]
    fn counters_track_alloc_and_dealloc() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(64, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            assert!(!p.is_null());
            let s = counter.snapshot();
            assert_eq!((s.allocs, s.bytes), (1, 64));
            counter.dealloc(p, layout);
        }
        let s = counter.snapshot();
        assert_eq!((s.allocs, s.bytes), (1, 64), "a free counts nothing");
    }

    #[test]
    fn realloc_counts_as_an_allocation() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(32, 8).unwrap();
        unsafe {
            let p = counter.alloc(layout);
            let p2 = counter.realloc(p, layout, 128);
            assert!(!p2.is_null());
            let s = counter.snapshot();
            assert_eq!((s.allocs, s.bytes), (2, 32 + 128));
            counter.dealloc(p2, Layout::from_size_align(128, 8).unwrap());
        }
    }

    #[test]
    fn snapshot_deltas_window_correctly() {
        let counter = CountingAlloc::new();
        let layout = Layout::from_size_align(16, 8).unwrap();
        let before = counter.snapshot();
        unsafe {
            let p = counter.alloc(layout);
            counter.dealloc(p, layout);
        }
        let after = counter.snapshot();
        assert_eq!(before.allocs_since(&after), 1);
        assert_eq!(before.bytes_since(&after), 16);
    }
}
