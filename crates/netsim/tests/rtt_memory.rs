//! A flow's RTT record costs about what its samples carry, and reading a
//! percentile from it costs fixed scratch, not a copy (DESIGN.md §4c): a
//! million ACK-clocked samples hold at most three bytes each, a million that
//! repeat one another hold next to nothing, a percentile of four million
//! allocates no more than 512 KiB at its peak, and the store adds at most
//! 40 bytes to a `FlowMetrics`. Its columns grow in blocks: no allocation is
//! larger than one, and none is copied to grow.
//!
//! A counting global allocator wraps the system one, as in `sched_memory.rs`.
//! The counters are process-wide, so the tests take turns on [`SERIAL`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, MutexGuard};

use proteus_netsim::FlowMetrics;
use proteus_transport::{Dur, Time};

/// Tracks live bytes and their high-water mark.
struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);
/// The largest single allocation asked for.
static LARGEST: AtomicI64 = AtomicI64::new(0);

fn grow(by: i64) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    LARGEST.fetch_max(by, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block may both be live while the bytes move.
        grow(new_size as i64);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `size_of::<FlowMetrics>()` with 8 bytes a sample in two `Vec`s.
const FLOW_METRICS_BEFORE: usize = 232;

/// Bytes of one block of an RTT column (`metrics::BLOCK`).
const BLOCK: i64 = 32 << 10;

/// RTT of ACK `i` of an ACK-clocked sawtooth: 30 ms of base delay, and a
/// queue that grows 40 ns an ACK for 4 000 ACKs, then drains.
fn sawtooth(i: u64) -> Dur {
    Dur::from_nanos(30_000_000 + i % 4_000 * 40)
}

/// `n` samples of 500 Mbps of 1 500 B packets (an ACK every 24 µs) from
/// t = 48 s, every ACK sampled.
fn ack_clocked(n: u64) -> FlowMetrics {
    let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
    for i in 0..n {
        m.on_ack(
            Time::from_nanos(48_000_000_000 + i * 24_000),
            1500,
            sawtooth(i),
        );
    }
    m
}

fn live() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Held by each test for its whole run, so that no other test allocates
/// while it counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn flow_metrics_hold_about_two_bytes_a_sample_and_select_in_fixed_scratch() {
    let _alone = alone();
    // A million samples: a send gap repeated is part of a run, 40 ns more
    // RTT is one byte (1.08 MB in all). (As two 32-bit integers a sample
    // they held 8 MB.)
    let before = live();
    let m = ack_clocked(1_000_000);
    let held = live() - before;
    assert!(held <= 3_000_000, "a million samples hold {held} bytes");
    assert_eq!(m.rtt_samples().last(), Some((71.999976, 0.030_159_96)));

    // A percentile of four million: a 256 KiB table of counts and a 96 KiB
    // map of where runs of samples start. (Selecting on a copy of the
    // 32-bit RTT column allocated 16 MB.)
    let m = ack_clocked(4_000_000);
    let before = live();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let p50 = m.rtt_percentile(50.0);
    let p95 = m.rtt_percentile(95.0);
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        peak <= 512 << 10,
        "a percentile allocated {peak} bytes at its peak"
    );
    assert_eq!(live(), before, "scratch is freed on return");
    // A thousand teeth of 4 000 levels each: the 2 000 000th sample is the
    // 2 000th level, the 3 800 000th the 3 800th.
    assert_eq!(p50, Some(sawtooth(1_999).as_secs_f64()));
    assert_eq!(p95, Some(sawtooth(3_799).as_secs_f64()));

    let size = std::mem::size_of::<FlowMetrics>();
    assert!(
        size <= FLOW_METRICS_BEFORE + 40,
        "FlowMetrics grew {FLOW_METRICS_BEFORE} -> {size} bytes"
    );
}

#[test]
fn flow_metrics_hold_a_million_repeated_samples_in_64_kib() {
    let _alone = alone();
    // A million ACKs 24 µs apart at one RTT: after the first two samples
    // every change is zero, so each column is runs of 255 in two bytes.
    // (As one byte a zero change they held 2 MB.)
    let before = live();
    let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
    for i in 0..1_000_000 {
        m.on_ack(
            Time::from_nanos(48_000_000_000 + i * 24_000),
            1500,
            Dur::from_millis(30),
        );
    }
    let held = live() - before;
    assert!(held <= 64 << 10, "a million repeats hold {held} bytes");
    assert_eq!(m.rtt_samples().count(), 1_000_000);
    assert_eq!(m.rtt_samples().last(), Some((71.999976, 0.030)));
    assert_eq!(m.rtt_percentile(50.0), Some(0.030));
}

#[test]
fn flow_metrics_grow_their_rtt_record_a_block_at_a_time_and_never_reallocate() {
    let _alone = alone();
    // Four million ACK-clocked samples: 4.04 MB of tokens in 125 blocks.
    // (In one doubling `Vec` a column the RTT column became one 4 MiB
    // buffer, and the `realloc` that made it held 6 MiB at once.)
    let before = live();
    PEAK_BYTES.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    let m = ack_clocked(4_000_000);
    let (held, peak) = (live() - before, PEAK_BYTES.load(Ordering::Relaxed) - before);
    let largest = LARGEST.load(Ordering::Relaxed);
    let tokens = m.rtt_record_bytes() as i64;
    assert!(tokens > 100 * BLOCK, "{tokens} bytes of tokens");
    assert!(largest <= BLOCK, "an allocation of {largest} bytes");
    assert!(
        peak <= held + BLOCK,
        "feeding peaked at {peak} bytes to hold {held}"
    );
    assert!(
        held <= tokens + 2 * BLOCK,
        "{tokens} bytes of tokens held in {held}"
    );
    // Read across every block edge, and selected by counting over zones
    // that cross them.
    assert_eq!(m.rtt_samples().count(), 4_000_000);
    assert_eq!(m.rtt_samples().last(), Some((143.999976, 0.030_159_96)));
    assert_eq!(m.rtt_percentile(50.0), Some(sawtooth(1_999).as_secs_f64()));
    assert_eq!(m.rtt_percentile(99.0), Some(sawtooth(3_959).as_secs_f64()));
}
