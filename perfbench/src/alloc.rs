//! A counting global allocator.
//!
//! The benchmark binary installs [`CountingAlloc`] as its
//! `#[global_allocator]`; this library only defines it, so test binaries
//! keep the system allocator and read zero counts. Counting is off until
//! [`counting`] switches it on around one measured call, so the untraced
//! end-to-end runs pay one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Relaxed throughout: the counters are statistics and publish no data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and requested bytes while
/// [`counting`] is active. Reallocations count as allocations of their new
/// size; frees are not counted.
pub struct CountingAlloc;

#[inline]
fn note(bytes: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Heap activity of one measured call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Allocations and reallocations.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

/// Run `f` with counting on and return its heap activity, summed over every
/// thread that allocated meanwhile. Calls must not nest or overlap.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let r = f();
    ENABLED.store(false, Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    };
    (r, count)
}
