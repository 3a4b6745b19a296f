//! Per-flow and per-run measurement collection.
//!
//! Every experiment table in the paper reduces to a handful of per-flow
//! quantities: mean throughput over a measurement window, RTT percentiles,
//! loss counts, flow completion times, and link utilization. The engine
//! feeds raw events into [`FlowMetrics`]; the harness reads the aggregate
//! accessors.

use std::cell::OnceCell;
use std::collections::VecDeque;

use proteus_stats::percentile_sorted;
use proteus_transport::{Dur, FlowId, FrameRecord, Time};

use crate::fault::FaultStats;

/// Latency-SLO accounting for one frame-paced media flow.
///
/// The engine forwards [`FrameRecord`]s drained from a media application;
/// a frame *completes* at the first ACK whose cumulative acknowledged byte
/// count reaches the frame's `end_bytes` (spurious ACKs of packets already
/// declared lost never increment that counter, so the rule is exact even
/// for reliable flows that retransmit). A completed frame whose delay
/// exceeds its playout deadline counts as a *freeze*, contributing
/// `delay - deadline` seconds to [`MediaMetrics::time_in_freeze`].
///
/// Frames still pending when the run ends are excluded from the delay
/// percentiles and reported via [`MediaMetrics::frames_pending`].
#[derive(Debug, Clone, Default)]
pub struct MediaMetrics {
    /// Frames generated but not yet fully acknowledged, in encode order.
    pending: VecDeque<FrameRecord>,
    frames_generated: u64,
    frames_completed: u64,
    freeze_count: u64,
    time_in_freeze: f64,
    /// Completion delay of each completed frame, seconds, in encode order.
    delays: Vec<f64>,
    /// Sorted delays, built lazily on the first percentile query.
    delays_sorted: OnceCell<Vec<f64>>,
}

impl MediaMetrics {
    /// Frames the source has encoded so far.
    pub fn frames_generated(&self) -> u64 {
        self.frames_generated
    }

    /// Frames fully acknowledged.
    pub fn frames_completed(&self) -> u64 {
        self.frames_completed
    }

    /// Frames generated but not yet fully acknowledged.
    pub fn frames_pending(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Completed frames that missed their playout deadline.
    pub fn freeze_count(&self) -> u64 {
        self.freeze_count
    }

    /// Total seconds completed frames spent beyond their deadlines.
    pub fn time_in_freeze(&self) -> f64 {
        self.time_in_freeze
    }

    /// Per-frame completion delays in seconds, encode order.
    pub fn frame_delays(&self) -> &[f64] {
        &self.delays
    }

    /// The `p`-th percentile frame completion delay in seconds, if any
    /// frame completed. Cached after the first query like RTT percentiles.
    pub fn frame_delay_percentile(&self, p: f64) -> Option<f64> {
        let sorted = self.delays_sorted.get_or_init(|| {
            let mut v: Vec<f64> = self
                .delays
                .iter()
                .copied()
                .filter(|d| d.is_finite())
                .collect();
            v.sort_unstable_by(f64::total_cmp);
            v
        });
        percentile_sorted(sorted, p)
    }

    /// Mean frame completion delay in seconds.
    pub fn frame_delay_mean(&self) -> Option<f64> {
        if self.delays.is_empty() {
            None
        } else {
            Some(self.delays.iter().sum::<f64>() / self.delays.len() as f64)
        }
    }
}

/// Measurements recorded for one flow over a simulation run.
#[derive(Debug, Clone)]
pub struct FlowMetrics {
    /// Flow id within the scenario.
    pub id: FlowId,
    /// Human-readable label, e.g. `"CUBIC"` or `"Proteus-S #2"`.
    pub name: String,
    /// When the flow actually started sending.
    pub started_at: Option<Time>,
    /// When the flow finished (sized flows) or was stopped.
    pub finished_at: Option<Time>,
    /// Total bytes handed to the network.
    pub bytes_sent: u64,
    /// Total bytes acknowledged.
    pub bytes_acked: u64,
    /// Packets sent / acked / declared lost.
    pub pkts_sent: u64,
    /// Packets acknowledged.
    pub pkts_acked: u64,
    /// Packets declared lost at the sender.
    pub pkts_lost: u64,
    /// Width of each throughput bin.
    pub bin: Dur,
    /// `(ack_time_seconds, rtt_seconds)` samples (possibly strided).
    pub rtt_samples: Vec<(f64, f64)>,
    /// Cumulative bytes acknowledged through each time bin since
    /// `Time::ZERO` (`acked_cum[i]` covers bins `0..=i`). Stored as a prefix
    /// sum so any `throughput_bps` window is two lookups instead of a scan.
    acked_cum: Vec<u64>,
    /// Sorted RTT values, built lazily on the first percentile query and
    /// invalidated by `on_ack` (percentile reads during a run stay correct).
    rtt_sorted: OnceCell<Vec<f64>>,
    rtt_stride: usize,
    rtt_counter: usize,
    /// Frame-latency accounting; `None` for every non-media flow (boxed so
    /// the common case costs one pointer, keeping media-free scenarios'
    /// layout and results untouched).
    media: Option<Box<MediaMetrics>>,
}

impl FlowMetrics {
    /// Creates an empty metrics record.
    pub fn new(id: FlowId, name: String, bin: Dur, rtt_stride: usize) -> Self {
        Self {
            id,
            name,
            started_at: None,
            finished_at: None,
            bytes_sent: 0,
            bytes_acked: 0,
            pkts_sent: 0,
            pkts_acked: 0,
            pkts_lost: 0,
            bin,
            rtt_samples: Vec::new(),
            acked_cum: Vec::new(),
            rtt_sorted: OnceCell::new(),
            rtt_stride: rtt_stride.max(1),
            rtt_counter: 0,
            media: None,
        }
    }

    /// Frame-latency metrics, present only on frame-paced media flows.
    pub fn media(&self) -> Option<&MediaMetrics> {
        self.media.as_deref()
    }

    /// Records newly encoded frames drained from a media application.
    pub(crate) fn media_ingest(&mut self, frames: &[FrameRecord]) {
        let m = self.media.get_or_insert_default();
        m.frames_generated += frames.len() as u64;
        m.pending.extend(frames.iter().copied());
    }

    /// Completes every pending frame covered by the cumulative acked byte
    /// count, stamping `now` (the ACK arrival instant) as completion time.
    pub(crate) fn media_progress(&mut self, now: Time) {
        let Some(m) = self.media.as_deref_mut() else {
            return;
        };
        let mut changed = false;
        while let Some(f) = m.pending.front() {
            if f.end_bytes > self.bytes_acked {
                break;
            }
            let f = m.pending.pop_front().expect("front exists");
            let delay = now.since(f.gen_at).as_secs_f64();
            m.frames_completed += 1;
            m.delays.push(delay);
            let budget = f.deadline.as_secs_f64();
            if delay > budget {
                m.freeze_count += 1;
                m.time_in_freeze += delay - budget;
            }
            changed = true;
        }
        if changed {
            m.delays_sorted.take();
        }
    }

    pub(crate) fn on_sent(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
        self.pkts_sent += 1;
    }

    pub(crate) fn on_ack(&mut self, now: Time, bytes: u64, rtt: Dur) {
        self.bytes_acked += bytes;
        self.pkts_acked += 1;
        let bin_idx = (now.as_nanos() / self.bin.as_nanos().max(1)) as usize;
        if self.acked_cum.len() <= bin_idx {
            // New bins start from the running total (prefix-sum invariant).
            let total = self.acked_cum.last().copied().unwrap_or(0);
            self.acked_cum.resize(bin_idx + 1, total);
        }
        // ACK events arrive in time order, so this ACK lands in the last bin
        // and the prefix-sum stays consistent with a single update.
        debug_assert_eq!(bin_idx + 1, self.acked_cum.len());
        self.acked_cum[bin_idx] += bytes;
        self.rtt_counter += 1;
        if self.rtt_counter.is_multiple_of(self.rtt_stride) {
            self.rtt_samples
                .push((now.as_secs_f64(), rtt.as_secs_f64()));
            self.rtt_sorted.take();
        }
    }

    pub(crate) fn on_loss(&mut self) {
        self.pkts_lost += 1;
    }

    /// Bytes acknowledged in bin `i`.
    fn bin_bytes(&self, i: usize) -> u64 {
        let lo = if i == 0 { 0 } else { self.acked_cum[i - 1] };
        self.acked_cum[i] - lo
    }

    /// Bytes acknowledged per time bin since `Time::ZERO`.
    pub fn acked_bins(&self) -> Vec<u64> {
        (0..self.acked_cum.len())
            .map(|i| self.bin_bytes(i))
            .collect()
    }

    /// Mean goodput in bits/sec over `[from, to)`, snapped inward to whole
    /// ACK bins (a partial bin would otherwise attribute bytes from outside
    /// the window and overestimate the rate). O(1) via the bin prefix sum.
    pub fn throughput_bps(&self, from: Time, to: Time) -> f64 {
        if to <= from {
            return 0.0;
        }
        let bin_ns = self.bin.as_nanos().max(1);
        let first = (from.as_nanos().div_ceil(bin_ns)) as usize;
        let last = (to.as_nanos() / bin_ns) as usize;
        if last <= first {
            return 0.0;
        }
        // Bytes in bins [first, min(last, len)) = cum[hi-1] - cum[first-1].
        let hi = last.min(self.acked_cum.len());
        let bytes = if hi <= first {
            0
        } else {
            let lo = if first == 0 {
                0
            } else {
                self.acked_cum[first - 1]
            };
            self.acked_cum[hi - 1] - lo
        };
        let duration_s = ((last - first) as u64 * bin_ns) as f64 / 1e9;
        bytes as f64 * 8.0 / duration_s
    }

    /// Mean goodput in Mbit/sec over `[from, to)`.
    pub fn throughput_mbps(&self, from: Time, to: Time) -> f64 {
        self.throughput_bps(from, to) / 1e6
    }

    /// `(bin_start_seconds, Mbit/sec)` goodput timeline (Fig. 14 / Fig. 18).
    pub fn throughput_timeline_mbps(&self) -> Vec<(f64, f64)> {
        let bin_s = self.bin.as_secs_f64();
        (0..self.acked_cum.len())
            .map(|i| {
                (
                    i as f64 * bin_s,
                    self.bin_bytes(i) as f64 * 8.0 / bin_s / 1e6,
                )
            })
            .collect()
    }

    /// RTT values (seconds), discarding timestamps.
    pub fn rtt_values(&self) -> Vec<f64> {
        self.rtt_samples.iter().map(|&(_, r)| r).collect()
    }

    /// RTT values within a time window `[from, to)`, seconds.
    pub fn rtt_values_in(&self, from: Time, to: Time) -> Vec<f64> {
        let (a, b) = (from.as_secs_f64(), to.as_secs_f64());
        self.rtt_samples
            .iter()
            .filter(|&&(t, _)| t >= a && t < b)
            .map(|&(_, r)| r)
            .collect()
    }

    /// The `p`-th percentile RTT in seconds, if samples exist. The sorted
    /// sample set is cached after the first query, so sweeping several
    /// percentiles (p50/p95/p99 columns) costs one sort total.
    pub fn rtt_percentile(&self, p: f64) -> Option<f64> {
        let sorted = self.rtt_sorted.get_or_init(|| {
            let mut v: Vec<f64> = self
                .rtt_samples
                .iter()
                .map(|&(_, r)| r)
                .filter(|r| r.is_finite())
                .collect();
            v.sort_unstable_by(f64::total_cmp);
            v
        });
        percentile_sorted(sorted, p)
    }

    /// Mean RTT in seconds.
    pub fn rtt_mean(&self) -> Option<f64> {
        if self.rtt_samples.is_empty() {
            None
        } else {
            Some(
                self.rtt_samples.iter().map(|&(_, r)| r).sum::<f64>()
                    / self.rtt_samples.len() as f64,
            )
        }
    }

    /// Loss rate observed by the sender: `lost / sent`.
    pub fn loss_rate(&self) -> f64 {
        if self.pkts_sent == 0 {
            0.0
        } else {
            self.pkts_lost as f64 / self.pkts_sent as f64
        }
    }

    /// Flow completion time for sized flows.
    pub fn completion_time(&self) -> Option<Dur> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.since(s)),
            _ => None,
        }
    }
}

/// One per-flow telemetry sample, recorded when the scenario enables
/// tracing ([`crate::scenario::Scenario::with_trace`]).
///
/// Samples are taken on a fixed clock for every flow that has started and
/// not finished, so a run's trace is a regular per-flow time series of the
/// controller's externally visible state (rate/window/in-flight/RTT) plus
/// whatever internals the controller exposes via
/// [`proteus_transport::CcSnapshot`] (utility value, mode, mode switches).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sample time, seconds since simulation start.
    pub t: f64,
    /// Flow id within the scenario.
    pub flow: FlowId,
    /// Pacing rate in Mbit/sec (`None` for pure ACK-clocked protocols).
    pub rate_mbps: Option<f64>,
    /// Congestion window in bytes (`None` when the protocol is unwindowed).
    pub cwnd_bytes: Option<u64>,
    /// Bytes currently in flight.
    pub inflight_bytes: u64,
    /// Smoothed RTT in milliseconds, once measured.
    pub srtt_ms: Option<f64>,
    /// RTT deviation (RFC 6298 rttvar) in milliseconds, once measured.
    pub rttvar_ms: Option<f64>,
    /// Most recent utility value, for utility-driven controllers.
    pub utility: Option<f64>,
    /// Active mode name (e.g. `"Proteus-S"`), for mode-switching senders.
    pub mode: Option<&'static str>,
    /// Mode switches since flow start.
    pub mode_switches: u64,
}

/// Display labels for the [`EventStats::pops`] slots, in index order. The
/// engine assigns each event kind a stable slot (`Event::kind` in
/// `crate::engine`); this array gives reporting code human-readable names
/// without exposing the private event enum.
pub const EVENT_KIND_NAMES: [&str; 14] = [
    "FlowStart",
    "FlowStop",
    "QueueDrain",
    "Delivery",
    "AckArrival",
    "Pace",
    "CcTimer",
    "Rto",
    "AppWake",
    "SpawnCross",
    "ChurnSpawn",
    "TraceSample",
    "Fault",
    "HopArrival",
];

/// Event-loop accounting for one simulation run: how many events of each
/// kind were dispatched, how many went through the scheduler versus the
/// fused wire path, and how deep the scheduler got.
///
/// These counters describe *execution mechanics*, not observable behavior:
/// a staged and a fused run of the same scenario dispatch the identical
/// event sequence (so [`EventStats::pops`] agrees), but the fused run keeps
/// the per-packet wire chain on the wire lanes and the links' departure
/// FIFOs instead of the scheduler (so `pushes`, `peak_queue`, `fused` and
/// `lane_fallbacks` differ). Equivalence tests that compare full
/// [`SimResult`] digests across execution paths must therefore zero this
/// field first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events dispatched, by kind (indices match [`EVENT_KIND_NAMES`]).
    /// Counts every dispatch regardless of execution path: a lane pop counts
    /// under its event's kind and a link-owned departure under `QueueDrain`,
    /// the staged event it replaces.
    pub pops: [u64; EVENT_KIND_NAMES.len()],
    /// Events pushed into the scheduler.
    pub pushes: u64,
    /// Peak number of events pending in the scheduler.
    pub peak_queue: u64,
    /// Dispatches served by a wire lane or a link's departure FIFO instead
    /// of the scheduler (zero on the staged path).
    pub fused: u64,
    /// Wire events offered to a lane out of time order, which the scheduler
    /// carried instead (zero on the staged path).
    pub lane_fallbacks: u64,
}

impl EventStats {
    /// Total events dispatched over the run.
    pub fn dispatched(&self) -> u64 {
        self.pops.iter().sum()
    }

    /// Fraction of dispatches served by the fused wire path.
    pub fn fused_fraction(&self) -> f64 {
        let total = self.dispatched();
        if total == 0 {
            0.0
        } else {
            self.fused as f64 / total as f64
        }
    }
}

/// Per-link accounting for one run: one entry per topology link, in link-id
/// order. Single-link scenarios have exactly one entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSummary {
    /// Configured (initial) link rate, bits/sec — before any fault-schedule
    /// bandwidth changes.
    pub rate_bps: f64,
    /// Bytes that completed service at this link.
    pub delivered_bytes: u64,
    /// Packets this link's queue accepted.
    pub accepted_pkts: u64,
    /// Packets tail-dropped at this link.
    pub dropped_pkts: u64,
    /// Peak buffer occupancy observed when packets were admitted, bytes.
    pub peak_queued_bytes: u64,
    /// What this link's fault layer injected (all zero without a schedule).
    pub fault_stats: FaultStats,
}

impl LinkSummary {
    /// Bytes-served utilization over the whole run: delivered bytes as a
    /// fraction of configured capacity × duration.
    pub fn utilization(&self, duration: Dur) -> f64 {
        let capacity_bytes = self.rate_bps / 8.0 * duration.as_secs_f64();
        if capacity_bytes <= 0.0 {
            0.0
        } else {
            self.delivered_bytes as f64 / capacity_bytes
        }
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Per-flow measurements, indexed by flow id.
    pub flows: Vec<FlowMetrics>,
    /// Total simulated duration.
    pub duration: Dur,
    /// Per-link accounting, one entry per topology link in id order;
    /// `links[0]` is the bottleneck of a single-link scenario.
    pub links: Vec<LinkSummary>,
    /// Per-flow telemetry time series (empty unless the scenario enables
    /// [`crate::scenario::Scenario::with_trace`]).
    pub trace: Vec<TraceEvent>,
    /// Structured decision events drained from the controllers, in
    /// timestamp order (empty unless a flow's controller carries a
    /// recording `proteus-trace` sink). When a fault schedule is set, also
    /// contains the link-scoped fault records.
    pub decisions: Vec<proteus_trace::FlowEvent>,
    /// Event-loop accounting (dispatch counts, scheduler pressure, fused
    /// share). Mechanics, not behavior — see [`EventStats`].
    pub events: EventStats,
}

impl SimResult {
    /// Aggregate goodput of a set of flows over `[from, to)`, as a fraction
    /// of link 0's configured capacity.
    pub fn utilization(&self, from: Time, to: Time) -> f64 {
        let total: f64 = self.flows.iter().map(|f| f.throughput_bps(from, to)).sum();
        total / self.links[0].rate_bps
    }

    /// Finds a flow's metrics by name (first match).
    pub fn flow_named(&self, name: &str) -> Option<&FlowMetrics> {
        self.flows.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_binning() {
        let mut m = FlowMetrics::new(0, "test".into(), Dur::from_secs(1), 1);
        // 1 MB acked in second 0, 2 MB in second 1.
        m.on_ack(Time::from_millis(500), 1_000_000, Dur::from_millis(30));
        m.on_ack(Time::from_millis(1500), 2_000_000, Dur::from_millis(30));
        let t01 = m.throughput_bps(Time::ZERO, Time::from_secs_f64(1.0));
        assert!((t01 - 8_000_000.0).abs() < 1.0);
        let t02 = m.throughput_bps(Time::ZERO, Time::from_secs_f64(2.0));
        assert!((t02 - 12_000_000.0).abs() < 1.0);
        // Window starting at second 1 sees only the second bin.
        let t12 = m.throughput_bps(Time::from_secs_f64(1.0), Time::from_secs_f64(2.0));
        assert!((t12 - 16_000_000.0).abs() < 1.0);
    }

    #[test]
    fn empty_window_is_zero() {
        let m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        assert_eq!(
            m.throughput_bps(Time::from_secs_f64(1.0), Time::from_secs_f64(1.0)),
            0.0
        );
        assert_eq!(
            m.throughput_bps(Time::from_secs_f64(5.0), Time::from_secs_f64(9.0)),
            0.0
        );
    }

    #[test]
    fn rtt_stride_downsamples() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 4);
        for i in 0..100 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(30));
        }
        assert_eq!(m.rtt_samples.len(), 25);
        assert_eq!(m.pkts_acked, 100);
    }

    #[test]
    fn loss_rate_and_percentiles() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        for i in 0..10 {
            m.on_sent(1500);
            if i < 8 {
                m.on_ack(Time::from_millis(i * 10), 1500, Dur::from_millis(30 + i));
            } else {
                m.on_loss();
            }
        }
        assert!((m.loss_rate() - 0.2).abs() < 1e-12);
        assert!(m.rtt_percentile(95.0).unwrap() >= 0.036);
        assert!(m.rtt_mean().unwrap() > 0.030);
    }

    #[test]
    fn timeline_units() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        m.on_ack(Time::from_millis(100), 125_000, Dur::from_millis(10)); // 1 Mbit
        let tl = m.throughput_timeline_mbps();
        assert_eq!(tl.len(), 1);
        assert!((tl[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sim_result_utilization() {
        let mut m = FlowMetrics::new(0, "a".into(), Dur::from_secs(1), 1);
        m.on_ack(Time::from_millis(10), 625_000, Dur::from_millis(10)); // 5 Mbit
        let r = SimResult {
            flows: vec![m],
            duration: Dur::from_secs(1),
            links: vec![LinkSummary {
                rate_bps: 10e6,
                delivered_bytes: 625_000,
                accepted_pkts: 1,
                dropped_pkts: 0,
                peak_queued_bytes: 0,
                fault_stats: FaultStats::default(),
            }],
            trace: vec![],
            decisions: vec![],
            events: EventStats::default(),
        };
        let u = r.utilization(Time::ZERO, Time::from_secs_f64(1.0));
        assert!((u - 0.5).abs() < 1e-9);
        assert!(r.flow_named("a").is_some());
        assert!(r.flow_named("b").is_none());
        let lu = r.links[0].utilization(r.duration);
        assert!((lu - 0.5).abs() < 1e-9, "625 KB over 10 Mbps x 1 s: {lu}");
    }

    #[test]
    fn media_frame_completion_freezes_and_percentiles() {
        let mut m = FlowMetrics::new(0, "rtc".into(), Dur::from_secs(1), 1);
        assert!(m.media().is_none());
        let deadline = Dur::from_millis(100);
        let frames: Vec<FrameRecord> = (0..4)
            .map(|i| FrameRecord {
                gen_at: Time::from_millis(i * 100),
                end_bytes: (i + 1) * 1000,
                deadline,
            })
            .collect();
        m.media_ingest(&frames);
        assert_eq!(m.media().unwrap().frames_generated(), 4);
        assert_eq!(m.media().unwrap().frames_pending(), 4);
        // Ack 2500 bytes at t=150ms: frames 0 and 1 complete (delays 150ms
        // and 50ms), frame 2 still short by 500 bytes.
        m.on_ack(Time::from_millis(150), 2500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(150));
        let mm = m.media().unwrap();
        assert_eq!(mm.frames_completed(), 2);
        assert_eq!(mm.frames_pending(), 2);
        assert_eq!(mm.freeze_count(), 1, "frame 0 missed its 100ms deadline");
        assert!((mm.time_in_freeze() - 0.050).abs() < 1e-9);
        assert_eq!(mm.frame_delays(), &[0.150, 0.050]);
        // Ack the rest at t=600ms: frame 2 (gen 200ms) delay 400ms, frame 3
        // (gen 300ms) delay 300ms — both freezes.
        m.on_ack(Time::from_millis(600), 1500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(600));
        let mm = m.media().unwrap();
        assert_eq!(mm.frames_completed(), 4);
        assert_eq!(mm.frames_pending(), 0);
        assert_eq!(mm.freeze_count(), 3);
        let p99 = mm.frame_delay_percentile(99.0).unwrap();
        assert!(p99 >= 0.39, "p99 = {p99}");
        assert!(mm.frame_delay_mean().unwrap() > 0.2);
    }

    #[test]
    fn media_progress_noop_without_media() {
        let mut m = FlowMetrics::new(0, "bulk".into(), Dur::from_secs(1), 1);
        m.on_ack(Time::from_millis(10), 1500, Dur::from_millis(30));
        m.media_progress(Time::from_millis(10));
        assert!(m.media().is_none());
    }

    #[test]
    fn link_summary_utilization_handles_zero_capacity() {
        let l = LinkSummary::default();
        assert_eq!(l.utilization(Dur::from_secs(1)), 0.0);
    }
}
