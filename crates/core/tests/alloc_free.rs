//! Proof of the hot-path contract: once a [`ProteusSender`] reaches steady
//! state, processing sends, ACKs, timer-driven MI rolls, MI completions and
//! §4.4 mode switches performs **zero heap allocations**.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (which is allowed to grow every reusable buffer — the MI drain
//! scratch, the attribution bit set, the controller's tag queue — to its
//! steady-state capacity), the allocation counter must not move across a
//! long measurement window. This is the test form of the zero-allocation
//! contract and guards every structure DESIGN.md §4d describes:
//! `RegressionAccumulator` (fixed-size MI state), the `SeqSet` attribution
//! guard (seq-indexed, amortized O(1)), `ProbePlan`/`ProbeResults` (stack-fixed
//! probe buffers) and the `[_; TREND_WINDOW_MAX]` trending window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use proteus_core::{Mode, ProteusSender, SharedThreshold};
use proteus_trace::{RingSink, TraceSink};
use proteus_transport::{AckInfo, CongestionControl, Dur, SentPacket, Time};

/// Counts every allocation (fresh, zeroed, or growth via realloc) routed
/// through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RTT_MS: u64 = 30;

/// Drives `events` send+ACK pairs (1 ms apart, fixed 30 ms RTT), firing the
/// MI timer whenever it is due — the same shape the simulator produces for
/// a paced steady flow, so MIs roll and complete throughout. Each step ACKs
/// `seq − depth`, so `depth` packets stay in flight (the first `depth`
/// sends of a fresh sender fill the window unacknowledged); depth 0 ACKs
/// every packet as it is sent.
fn drive<S: TraceSink>(cc: &mut ProteusSender<S>, seq: &mut u64, events: u64, depth: u64) {
    for _ in 0..events {
        *seq += 1;
        let now = Time::from_millis(*seq);
        if let Some(end) = cc.next_timer() {
            if end <= now {
                cc.on_timer(now);
            }
        }
        cc.on_packet_sent(
            now,
            &SentPacket {
                seq: *seq,
                bytes: 1500,
                sent_at: now,
            },
        );
        let Some(acked) = seq.checked_sub(depth).filter(|&a| a > 0) else {
            continue;
        };
        let recv_at = Time::from_millis(acked + RTT_MS);
        cc.on_ack(
            recv_at.max(now),
            &AckInfo {
                seq: acked,
                bytes: 1500,
                sent_at: Time::from_millis(acked),
                recv_at,
                rtt: Dur::from_millis(RTT_MS),
                one_way_delay: Dur::from_millis(RTT_MS / 2),
            },
        );
    }
}

/// Runs `window` under the counter, retrying up to 3 times. The counter is
/// process-global, so the libtest harness's own threads can allocate during
/// a window and produce a false positive; a genuine per-event allocation in
/// the controller path would trip *every* window, so requiring one clean
/// window out of three keeps the property airtight while shedding harness
/// noise.
fn assert_window_alloc_free(what: &str, mut window: impl FnMut()) {
    let mut last = 0;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::SeqCst);
        window();
        last = ALLOCS.load(Ordering::SeqCst) - before;
        if last == 0 {
            return;
        }
    }
    panic!("{what} allocated in all 3 measurement windows (last: {last} allocations)");
}

/// One test on purpose: the counter is process-global, so concurrently
/// running sibling tests would pollute the measurement windows.
#[test]
fn steady_state_controller_path_does_not_allocate() {
    // Phase 1: Proteus-S, one packet in flight and then 256 — the depth of
    // a saturated flow, where attribution spans several pending MIs. ~160
    // MIs of warm-up reach steady probing/moving cycles and size every
    // reusable buffer.
    for depth in [0, 256] {
        let mut cc = ProteusSender::scavenger(7);
        cc.on_flow_start(Time::ZERO);
        let mut seq = 0u64;
        drive(&mut cc, &mut seq, 5_000, depth);

        assert_window_alloc_free(
            &format!("steady-state Proteus-S path, {depth} in flight (10k send+ACK+MI events)"),
            || drive(&mut cc, &mut seq, 10_000, depth),
        );
    }

    // Phase 2: Proteus-H with live §4.4 mode switching — threshold retunes
    // and `set_mode` flips between hybrid and scavenger objectives. `Mode`
    // clones only bump the shared threshold's refcount.
    let threshold = SharedThreshold::new(25.0);
    let mut cc = ProteusSender::hybrid(7, threshold.clone());
    cc.on_flow_start(Time::ZERO);
    let mut seq = 0u64;
    drive(&mut cc, &mut seq, 5_000, 0);

    let mut round = 0u64;
    assert_window_alloc_free(
        "steady-state Proteus-H switching path (6.4k events)",
        || {
            for _ in 0..64 {
                if round.is_multiple_of(2) {
                    threshold.set(5.0);
                    cc.set_mode(Mode::Hybrid(threshold.clone()));
                } else {
                    threshold.set(50.0);
                    cc.set_mode(Mode::Scavenger);
                }
                round += 1;
                drive(&mut cc, &mut seq, 100, 0);
            }
        },
    );

    // Phase 3: decision tracing enabled through a RingSink. The ring is
    // preallocated at construction and overwrites in place, and the drain
    // scratch can never need more than the ring's capacity, so recording
    // every MI-close/gate/transition event and draining them stays
    // allocation-free too. (With the default NoopSink the recording sites
    // compile away entirely — phases 1–2 already cover that.)
    let mut cc = ProteusSender::scavenger(7).with_sink(RingSink::new(4096));
    cc.on_flow_start(Time::ZERO);
    let mut seq = 0u64;
    let mut events: Vec<proteus_trace::DecisionEvent> = Vec::with_capacity(4096);
    drive(&mut cc, &mut seq, 5_000, 0);
    cc.drain_decisions(&mut events);

    assert_window_alloc_free(
        "steady-state traced (RingSink) path (10k events + drain)",
        || {
            drive(&mut cc, &mut seq, 10_000, 0);
            events.clear();
            cc.drain_decisions(&mut events);
        },
    );
    assert!(
        events
            .iter()
            .any(|e| { matches!(e.kind, proteus_trace::EventKind::MiClose(_)) }),
        "traced phase recorded no MI closes — the window measured nothing"
    );
}
