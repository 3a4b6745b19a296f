//! A flow's in-flight ring holds what is outstanding now, not its widest
//! window ever (DESIGN.md §4c): a ring that once spanned 4 096 packets and
//! now spans 8 holds at most two 64-slot pages of bytes (a ring buffer that
//! keeps its capacity holds 32 KiB), and 10 000 insert/remove cycles at a
//! steady span, page edges included, never call the allocator — at a span of
//! 8 and at one of 100, wide enough to pass pages through the directory.
//!
//! A counting global allocator wraps the system one, as in
//! `sched_memory.rs`. The counters are process-wide, so the whole check is
//! one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use proteus_netsim::{InflightPkt, InflightTracker};
use proteus_transport::{SeqNr, Time};

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

/// Bytes of one 64-slot page of 8-byte slots.
const PAGE_BYTES: i64 = 64 * 8;

fn pkt(seq: SeqNr) -> InflightPkt {
    InflightPkt::new(Time::from_micros(seq), 1500)
}

#[test]
fn a_ring_holds_its_current_span_and_a_steady_span_never_allocates() {
    assert_eq!(std::mem::size_of::<Option<InflightPkt>>(), 8);
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut ring = InflightTracker::new();

    // A window of 4 096 packets, then in-order ACKs down to the last 8
    // (which share one page).
    for seq in 0..4_096 {
        ring.insert(seq, pkt(seq));
    }
    let wide = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert!(wide >= 4_096 * 8, "4 096 packets in {wide} bytes");
    for seq in 0..4_088 {
        assert_eq!(ring.remove(seq), Some(pkt(seq)));
    }
    assert_eq!(ring.len(), 8);
    let held = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert!(
        held <= 2 * PAGE_BYTES,
        "a ring spanning 8 packets after 4 096 holds {held} bytes"
    );

    // Steady span of 8: each cycle sends one packet and retires the oldest,
    // by ACK or by loss declaration, and every 64th crosses a page edge.
    // Warm up past a few edges first, so the spare page and the page
    // directory exist.
    let mut next: SeqNr = 4_096;
    let cycle = |ring: &mut InflightTracker, next: &mut SeqNr, span: u64| {
        ring.insert(*next, pkt(*next));
        let oldest = *next - span;
        if next.is_multiple_of(2) {
            assert_eq!(ring.remove(oldest), Some(pkt(oldest)));
        } else {
            assert_eq!(ring.pop_front(), Some((oldest, pkt(oldest))));
        }
        *next += 1;
    };
    for _ in 0..256 {
        cycle(&mut ring, &mut next, 8);
    }
    let calls = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        cycle(&mut ring, &mut next, 8);
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - calls,
        0,
        "a steady span reuses its pages"
    );
    assert_eq!(ring.len(), 8);

    // The same at a span of 100, which covers two or three pages and so
    // also takes pages into and out of the directory between head and tail.
    for _ in 0..92 {
        ring.insert(next, pkt(next));
        next += 1;
    }
    for _ in 0..256 {
        cycle(&mut ring, &mut next, 100);
    }
    let calls = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        cycle(&mut ring, &mut next, 100);
    }
    assert_eq!(
        ALLOCS.load(Ordering::Relaxed) - calls,
        0,
        "a steady span across three pages reuses its pages and directory"
    );
    assert_eq!(ring.len(), 100);
}
