//! The heap census behind `tools/prof.sh --heap`: a global allocator that
//! forwards to the system one and, once [`enable`]d, keeps the live byte
//! count, its peak, and how many live allocations there are of each exact
//! size — copied aside every time the live count has risen [`STEP`] bytes
//! above the last copy, so the copy [`report`] returns is within `STEP` of
//! the peak. Sizes are what the program asked for, so `count × size` names
//! the data structure (`144 × 114 688 B` is 144 buffers of 2 048 56-byte
//! entries); the allocator's own rounding and its free lists are the gap to
//! `VmHWM`.
//!
//! Disabled (the sampling mode), an allocation costs one relaxed load more
//! than the system allocator's. The bookkeeping lives in a static, never
//! allocates, and sits behind a `Mutex`, so the counts are exact with worker
//! threads too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Live bytes above the last copy that trigger the next one.
pub const STEP: u64 = 64 << 10;

/// Slots of the size table (open addressing, keys never leave): far above
/// the few thousand distinct sizes a run asks for.
const SLOTS: usize = 1 << 14;

/// Live allocations by exact size: `(size, count)`, `(0, _)` a free slot.
type Table = [(usize, u64); SLOTS];

struct Census {
    live: u64,
    peak: u64,
    by_size: Table,
    /// `live` and `by_size` as of the last copy.
    copied_at: u64,
    copy: Table,
    /// Allocations that found the table full; not in `by_size`.
    untracked: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CENSUS: Mutex<Census> = Mutex::new(Census {
    live: 0,
    peak: 0,
    by_size: [(0, 0); SLOTS],
    copied_at: 0,
    copy: [(0, 0); SLOTS],
    untracked: 0,
});

impl Census {
    /// The slot holding `size`, or the free slot where it would go; `None`
    /// when the table is full of other sizes.
    fn slot(&mut self, size: usize) -> Option<&mut (usize, u64)> {
        let home =
            size.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - SLOTS.trailing_zeros());
        let at = (0..SLOTS)
            .map(|probe| (home + probe) % SLOTS)
            .find(|&at| self.by_size[at].0 == size || self.by_size[at].0 == 0)?;
        Some(&mut self.by_size[at])
    }

    /// One allocator call: `freed` bytes returned, `gained` bytes handed out
    /// (either may be zero).
    fn record(&mut self, freed: usize, gained: usize) {
        if freed > 0 {
            // An allocation made before `enable` may find no count of its
            // size to leave: its release is not counted either.
            if let Some(slot) = self.slot(freed).filter(|slot| slot.1 > 0) {
                slot.1 -= 1;
                self.live -= freed as u64;
            }
        }
        if gained == 0 {
            return;
        }
        match self.slot(gained) {
            Some(slot) => {
                *slot = (gained, slot.1 + 1);
                self.live += gained as u64;
            }
            None => self.untracked += 1,
        }
        self.peak = self.peak.max(self.live);
        if self.live >= self.copied_at + STEP {
            self.copied_at = self.live;
            self.copy = self.by_size;
        }
    }
}

fn record(freed: usize, gained: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // A panic under the lock would be in `record` itself, which has no
        // partial state worth refusing: keep counting.
        let mut census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
        census.record(freed, gained);
    }
}

/// Starts counting. Allocations made earlier are never counted, neither
/// when made nor when released.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// What the census saw, as of the copy nearest the peak.
pub struct Report {
    /// Live bytes when [`report`] was called.
    pub live: u64,
    /// Highest live byte count.
    pub peak: u64,
    /// Live bytes at the copy `rows` comes from: within [`STEP`] of `peak`.
    pub copied_at: u64,
    /// `(size, live allocations of that size)` at the copy, largest
    /// `size × count` first.
    pub rows: Vec<(usize, u64)>,
    /// Allocations the size table had no room for (expected 0).
    pub untracked: u64,
}

/// Stops counting and returns the census.
pub fn report() -> Report {
    // Off first: building `rows` allocates, and `record` must not wait for
    // the lock this function holds.
    ENABLED.store(false, Ordering::Relaxed);
    let census = CENSUS.lock().unwrap_or_else(|e| e.into_inner());
    let mut rows: Vec<(usize, u64)> = census.copy.iter().copied().filter(|r| r.1 > 0).collect();
    rows.sort_by_key(|&(size, count)| std::cmp::Reverse((size as u64 * count, size)));
    Report {
        live: census.live,
        peak: census.peak,
        copied_at: census.copied_at,
        rows,
        untracked: census.untracked,
    }
}

/// The system allocator, observed.
pub struct CensusAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` touches no allocator state
// and never allocates (a static table behind a lock, so no re-entry).
unsafe impl GlobalAlloc for CensusAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(0, layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(layout.size(), new_size);
        // SAFETY: `ptr` and `layout` come from the caller, who got `ptr`
        // from this allocator, i.e. from `System`, with that same layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(layout.size(), 0);
        // SAFETY: as in `realloc`: `ptr` was allocated by `System` with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
