//! The timing wheel's memory follows what is pending, not what once was
//! (DESIGN.md §4c): after a workload of same-instant bursts — a population
//! starting at once, each burst popped dry before the next — the queue holds
//! about one burst's worth of heap however many slots the bursts landed in,
//! and once warm it never calls the allocator again, cascades and overflow
//! included.
//!
//! A counting global allocator wraps the system one, as in
//! `crates/core/tests/alloc_free.rs`. The counters are process-wide, so the
//! whole check is one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use proteus_netsim::sched::{EventQueue, GRANULARITY_NS};
use proteus_netsim::Scheduler;
use proteus_transport::Time;

/// Counts allocator calls that can hand out memory, and live bytes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The engine's event type is 40 bytes; so is this.
type Item = [u64; 5];

const BURST: u64 = 2_000;
const MS: u64 = 1_000_000;
const HOUR: u64 = 3_600_000 * MS;

/// A queue, the last popped time and the push counter.
struct Driver {
    queue: EventQueue<Item>,
    now: u64,
    seq: u64,
}

impl Driver {
    /// Schedules `count` events at one instant `ahead` ns after the last pop.
    fn push(&mut self, ahead: u64, count: u64) {
        let at = Time::from_nanos(self.now + ahead);
        for _ in 0..count {
            self.seq += 1;
            self.queue.push(at, self.seq, [self.seq; 5]);
        }
    }

    /// Pops the queue dry, checking the order on the way.
    fn drain(&mut self) {
        let mut last = (self.now, 0);
        while let Some((at, seq, item)) = self.queue.pop() {
            assert!((at.as_nanos(), seq) > last, "pops out of (time, seq) order");
            assert_eq!(item, [seq; 5]);
            last = (at.as_nanos(), seq);
        }
        self.now = last.0;
    }
}

#[test]
fn wheel_memory_follows_pending_events_and_a_warm_wheel_never_allocates() {
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut d = Driver {
        queue: EventQueue::new(Scheduler::Wheel, 4),
        now: 0,
        seq: 0,
    };

    // Bursts a few level-0 slots ahead, landing all over level 0. (With one
    // growable buffer per slot that the drain swaps around, this left
    // 20.8 MB live for 2 000 pending events.)
    for round in 0..200 {
        d.push((1 + round % 7) * GRANULARITY_NS, BURST);
        d.drain();
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert!(
        held < 1 << 20,
        "an empty queue that peaked at {BURST} pending events holds {held} bytes"
    );

    // Warm: 5 ms ahead is level 1, so every burst cascades.
    let calls = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..200 {
        d.push(5 * MS, BURST);
        d.drain();
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - calls,
        0,
        "a cascade relinks nodes; it must not allocate"
    );

    // Every level and the overflow list at once (level 3 ends at 19.5 h).
    let calls = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..50 {
        for (ahead, count) in [
            (3 * GRANULARITY_NS, 500),
            (5 * MS, 500),
            (2_000 * MS, 500),
            (HOUR / 6, 300),
            (30 * HOUR, 200),
        ] {
            d.push(ahead, count);
        }
        d.drain();
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - calls,
        0,
        "levels 2-3 and overflow are lists through the same arena"
    );
    assert_eq!(d.seq, 450 * BURST);
}
