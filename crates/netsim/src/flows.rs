//! Struct-of-arrays per-flow state for the engine.
//!
//! The engine used to keep one `FlowState` struct per flow in a single
//! `Vec`; with tens of thousands of churning flows that layout is
//! cache-hostile (every event touches one ~200-byte struct scattered among
//! controller boxes) and forces telemetry to scan all flows ever created.
//! [`FlowTable`] stores each hot field in its own dense column indexed by
//! the `u32` flow ids the event queue already carries, keeps the controller
//! and application boxes behind the same index, and maintains an
//! *active-flow list* (swap-remove, O(1) membership updates) plus a
//! *lingering list* of stopped-but-not-yet-quiet flows so telemetry sweeps
//! are O(active + recently stopped), not O(all flows ever created).
//!
//! A flow is *retired* once it has stopped and its last in-flight packet
//! is accounted for: its timers are disarmed, the controller and
//! application boxes are replaced by zero-sized stubs, its in-flight ring
//! is released (the ring is a flow's largest allocation — 8 bytes for every
//! sequence number it ever had outstanding at once, thousands after a lossy
//! start-up — where a PCC-family controller keeps one *bit* per packet) and
//! the flow drops out of every sweep list for good. The lingering list
//! therefore only ever holds stopped flows with packets still in flight.

use std::sync::Arc;

use proteus_transport::{Application, CongestionControl, RttEstimator, SeqNr, Time};

use crate::inflight::InflightTracker;
use crate::link::DurMemo;
use crate::timers::{TimerKind, TimerTable};
use crate::topology::LinkId;

/// Sentinel for "not a member" in the position indexes.
const NOT_MEMBER: u32 = u32::MAX;

/// Stub controller installed when a flow is retired; never consulted
/// again (retired flows are inactive, their timers cancelled, and their
/// inflight empty), it exists only so the column keeps a valid box while
/// the real controller's memory is released.
struct RetiredCc;

impl CongestionControl for RetiredCc {
    fn name(&self) -> &str {
        "retired"
    }
    fn on_ack(&mut self, _now: Time, _ack: &proteus_transport::AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &proteus_transport::LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn cwnd_bytes(&self) -> u64 {
        0
    }
}

/// Stub application installed when a flow is retired.
struct RetiredApp;

impl Application for RetiredApp {
    fn bytes_to_send(&mut self, _now: Time) -> u64 {
        0
    }
    fn finished(&self, _now: Time) -> bool {
        true
    }
}

/// Per-flow state as dense parallel columns (see module docs).
///
/// Field groups, hottest first: per-packet counters and pacing/timer
/// words (touched on every event), estimator/tracker columns (per ACK),
/// then the boxed controller/application (per ACK, but behind a pointer
/// chase the hot columns no longer share cache lines with).
pub(crate) struct FlowTable {
    /// Started and neither stopped nor finished.
    pub active: Vec<bool>,
    /// Whether lost bytes are retransmitted.
    pub reliable: Vec<bool>,
    /// Stopped and drained: timers disarmed, controller and ring released.
    pub retired: Vec<bool>,
    /// Frame-paced media source (`Application::is_media`); only these
    /// flows pay the per-ACK frame bookkeeping.
    pub media: Vec<bool>,
    /// Next fresh sequence number.
    pub next_seq: Vec<SeqNr>,
    /// Outstanding bytes.
    pub inflight_bytes: Vec<u64>,
    /// Bytes awaiting retransmission (reliable flows only).
    pub retx_bytes: Vec<u64>,
    /// Earliest instant pacing allows the next transmission.
    pub next_pace_at: Vec<Time>,
    /// Pacing interval of the last packet sent.
    pub pace_interval: Vec<DurMemo>,
    /// Pacing, controller, retransmission and application timers.
    pub timers: TimerTable,
    /// When the flow stops, if bounded.
    pub stop_at: Vec<Option<Time>>,
    /// FIFO clamp for the data path (jitter never reorders a flow).
    pub last_delivery_at: Vec<Time>,
    /// FIFO clamp for the ACK return path.
    pub last_ack_arrival_at: Vec<Time>,
    /// RTT estimator.
    pub rtt: Vec<RttEstimator>,
    /// Outstanding packets, O(1) per ACK.
    pub inflight: Vec<InflightTracker>,
    /// Links the flow traverses, in hop order (shared, validated at
    /// scenario build time; kept after retirement so late wire events
    /// still route).
    pub path: Vec<Arc<[LinkId]>>,
    /// Congestion controller (stubbed once retired).
    pub cc: Vec<Box<dyn CongestionControl>>,
    /// Application model (stubbed once retired).
    pub app: Vec<Box<dyn Application>>,

    /// Ids of active flows, unordered (swap-remove).
    active_ids: Vec<u32>,
    /// `active_pos[id]` — index of `id` in `active_ids`, or `NOT_MEMBER`.
    active_pos: Vec<u32>,
    /// Ids of flows that stopped with packets still in flight (ACKs, RTOs
    /// and controller timers keep reaching their controller); swept
    /// alongside active flows until retired.
    lingering: Vec<u32>,
    /// `lingering_pos[id]` — index in `lingering`, or `NOT_MEMBER`.
    lingering_pos: Vec<u32>,
}

impl FlowTable {
    /// Creates an empty table with room for `capacity` flows per column.
    pub fn with_capacity(capacity: usize) -> Self {
        FlowTable {
            active: Vec::with_capacity(capacity),
            reliable: Vec::with_capacity(capacity),
            retired: Vec::with_capacity(capacity),
            media: Vec::with_capacity(capacity),
            next_seq: Vec::with_capacity(capacity),
            inflight_bytes: Vec::with_capacity(capacity),
            retx_bytes: Vec::with_capacity(capacity),
            next_pace_at: Vec::with_capacity(capacity),
            pace_interval: Vec::with_capacity(capacity),
            timers: TimerTable::default(),
            stop_at: Vec::with_capacity(capacity),
            last_delivery_at: Vec::with_capacity(capacity),
            last_ack_arrival_at: Vec::with_capacity(capacity),
            rtt: Vec::with_capacity(capacity),
            inflight: Vec::with_capacity(capacity),
            path: Vec::with_capacity(capacity),
            cc: Vec::with_capacity(capacity),
            app: Vec::with_capacity(capacity),
            active_ids: Vec::new(),
            active_pos: Vec::with_capacity(capacity),
            lingering: Vec::new(),
            lingering_pos: Vec::with_capacity(capacity),
        }
    }

    /// Number of flows ever created.
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// Appends a flow in the stopped state; returns its id.
    pub fn push_flow(
        &mut self,
        cc: Box<dyn CongestionControl>,
        app: Box<dyn Application>,
        reliable: bool,
        path: Arc<[LinkId]>,
    ) -> usize {
        let id = self.len();
        self.active.push(false);
        self.reliable.push(reliable);
        self.retired.push(false);
        self.media.push(app.is_media());
        self.next_seq.push(0);
        self.inflight_bytes.push(0);
        self.retx_bytes.push(0);
        self.next_pace_at.push(Time::ZERO);
        self.pace_interval.push(DurMemo::default());
        self.timers.push_flow();
        self.stop_at.push(None);
        self.last_delivery_at.push(Time::ZERO);
        self.last_ack_arrival_at.push(Time::ZERO);
        self.rtt.push(RttEstimator::new());
        self.inflight.push(InflightTracker::new());
        self.path.push(path);
        self.cc.push(cc);
        self.app.push(app);
        self.active_pos.push(NOT_MEMBER);
        self.lingering_pos.push(NOT_MEMBER);
        id
    }

    /// Marks a flow active and adds it to the active list.
    pub fn activate(&mut self, id: usize) {
        debug_assert!(!self.active[id] && !self.retired[id]);
        self.active[id] = true;
        if self.active_pos[id] == NOT_MEMBER {
            self.active_pos[id] = self.active_ids.len() as u32;
            self.active_ids.push(id as u32);
        }
        // A restarted flow may still be on the lingering list; active flows
        // are swept anyway, so drop the duplicate entry.
        self.remove_lingering(id);
    }

    /// Marks a flow stopped: removed from the active list (swap-remove,
    /// O(1)) and parked on the lingering list until it retires. A stopped
    /// flow sends nothing and is not polled, so its pacing and application
    /// timers are disarmed; the RTO and the controller timer stay for the
    /// packets still in flight.
    pub fn deactivate(&mut self, id: usize) {
        debug_assert!(self.active[id]);
        self.active[id] = false;
        self.timers.cancel(id, TimerKind::Pace);
        self.timers.cancel(id, TimerKind::App);
        let pos = self.active_pos[id] as usize;
        debug_assert!(pos != NOT_MEMBER as usize);
        let last = *self.active_ids.last().expect("active_ids non-empty");
        self.active_ids.swap_remove(pos);
        if pos < self.active_ids.len() {
            self.active_pos[last as usize] = pos as u32;
        }
        self.active_pos[id] = NOT_MEMBER;
        if self.lingering_pos[id] == NOT_MEMBER {
            self.lingering_pos[id] = self.lingering.len() as u32;
            self.lingering.push(id as u32);
        }
    }

    /// Drops a flow from the lingering list (it restarted or is being
    /// retired). No-op when not lingering.
    pub fn remove_lingering(&mut self, id: usize) {
        let pos = self.lingering_pos[id];
        if pos == NOT_MEMBER {
            return;
        }
        let last = *self.lingering.last().expect("lingering non-empty");
        self.lingering.swap_remove(pos as usize);
        if (pos as usize) < self.lingering.len() {
            self.lingering_pos[last as usize] = pos;
        }
        self.lingering_pos[id] = NOT_MEMBER;
    }

    /// Retires a stopped, drained flow: disarms all four timers (their live
    /// events pop as no-ops), swaps the controller and application boxes
    /// for stubs and drops the empty in-flight ring, releasing their memory.
    pub fn retire(&mut self, id: usize) {
        debug_assert!(!self.active[id] && self.inflight[id].is_empty());
        self.retired[id] = true;
        self.timers.cancel_all(id);
        self.inflight[id] = InflightTracker::new();
        self.cc[id] = Box::new(RetiredCc);
        self.app[id] = Box::new(RetiredApp);
        self.remove_lingering(id);
    }

    /// Fills `scratch` with the active flow ids in increasing order.
    pub fn sorted_active(&self, scratch: &mut Vec<u32>) {
        scratch.clear();
        scratch.extend_from_slice(&self.active_ids);
        scratch.sort_unstable();
    }

    /// Fills `scratch` with the ids every decision sweep must visit —
    /// active plus lingering flows — in increasing order (the sweep order
    /// the previous all-flows scan produced).
    pub fn sweep_ids(&self, scratch: &mut Vec<u32>) {
        scratch.clear();
        scratch.extend_from_slice(&self.active_ids);
        scratch.extend_from_slice(&self.lingering);
        scratch.sort_unstable();
        debug_assert!(scratch.windows(2).all(|p| p[0] != p[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflight::InflightPkt;
    use proteus_transport::BulkApp;

    fn stub_flow(t: &mut FlowTable) -> usize {
        t.push_flow(
            Box::new(RetiredCc),
            Box::new(BulkApp),
            false,
            Arc::from(vec![0u16]),
        )
    }

    #[test]
    fn active_list_tracks_membership_in_o1() {
        let mut t = FlowTable::with_capacity(4);
        for _ in 0..5 {
            stub_flow(&mut t);
        }
        for id in [0, 2, 4] {
            t.activate(id);
        }
        t.deactivate(2);
        let mut ids = Vec::new();
        t.sorted_active(&mut ids);
        assert_eq!(ids, vec![0, 4]);
        // Stopped flow lingers until explicitly removed.
        t.sweep_ids(&mut ids);
        assert_eq!(ids, vec![0, 2, 4]);
        t.remove_lingering(2);
        t.sweep_ids(&mut ids);
        assert_eq!(ids, vec![0, 4]);
    }

    #[test]
    fn reactivation_drops_lingering_duplicate() {
        let mut t = FlowTable::with_capacity(2);
        stub_flow(&mut t);
        t.activate(0);
        t.deactivate(0);
        t.activate(0);
        let mut ids = Vec::new();
        t.sweep_ids(&mut ids);
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn deactivate_cancels_pace_and_app_only() {
        use TimerKind::*;
        let mut t = FlowTable::with_capacity(1);
        stub_flow(&mut t);
        t.activate(0);
        let at = Time::from_millis(5);
        for kind in [Pace, Cc, Rto, App] {
            assert_eq!(t.timers.arm(0, kind, Time::ZERO, at), Some(at));
        }
        t.deactivate(0);
        assert_eq!(t.timers.deadline(0, Pace), None);
        assert_eq!(
            t.timers.deadline(0, App),
            None,
            "no wakeup outlives the flow"
        );
        assert_eq!(t.timers.deadline(0, Rto), Some(at));
        assert_eq!(t.timers.deadline(0, Cc), Some(at));
    }

    #[test]
    fn retire_cancels_timers_and_stubs_boxes() {
        use crate::timers::Pop;
        let mut t = FlowTable::with_capacity(1);
        stub_flow(&mut t);
        t.activate(0);
        let at = Time::from_millis(5);
        for kind in [TimerKind::Cc, TimerKind::Rto] {
            assert_eq!(t.timers.arm(0, kind, Time::ZERO, at), Some(at));
        }
        // A ring that once spanned a window and drained holds at most two
        // 64-slot pages, not the window.
        for seq in 0..100 {
            t.inflight[0].insert(seq, InflightPkt::new(Time::ZERO, 1500));
        }
        assert!(t.inflight[0].capacity() >= 100);
        while t.inflight[0].pop_front().is_some() {}
        assert!(t.inflight[0].capacity() <= 2 * 64);
        t.deactivate(0);
        t.retire(0);
        assert!(t.retired[0]);
        assert_eq!(t.inflight[0].capacity(), 0, "a retired flow holds no ring");
        for kind in [TimerKind::Cc, TimerKind::Rto] {
            assert_eq!(t.timers.deadline(0, kind), None);
            assert_eq!(t.timers.pop(0, kind, at), Pop::Stale, "live events miss");
        }
        assert_eq!(t.cc[0].name(), "retired");
        let mut ids = Vec::new();
        t.sweep_ids(&mut ids);
        assert!(ids.is_empty());
    }
}
