//! Counting global allocator for the traced build.
//!
//! Only `proteus-benchmark-traced` installs [`CountingAlloc`]; the untraced
//! binary that measures the end-to-end metrics keeps the system allocator
//! untouched. The counters are statistics that publish no other data, so
//! `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation totals since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Calls to `alloc`/`alloc_zeroed`/`realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Current totals, or `None` when this binary does not count allocations
/// (the Rust runtime allocates before `main`, so a zero count means the
/// allocator is not installed).
pub fn counts() -> Option<AllocCounts> {
    let allocs = ALLOCS.load(Ordering::Relaxed);
    (allocs > 0).then(|| AllocCounts {
        allocs,
        bytes: BYTES.load(Ordering::Relaxed),
    })
}

/// The system allocator plus two counters.
pub struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` come from the caller, who got `ptr`
        // from this allocator, i.e. from `System`, with that same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`: `ptr` was allocated by `System` with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
