//! Per-flow and per-run measurement collection.
//!
//! Every experiment table in the paper reduces to a handful of per-flow
//! quantities: mean throughput over a measurement window, RTT percentiles,
//! loss counts, flow completion times, and link utilization. The engine
//! feeds raw events into [`FlowMetrics`]; the harness reads the aggregate
//! accessors.

use std::collections::VecDeque;

use proteus_stats::{percentile, percentile_select};
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
    /// frame completed.
    pub fn frame_delay_percentile(&self, p: f64) -> Option<f64> {
        percentile(&self.delays, p)
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

/// One flow's `(ACK time, RTT)` samples: exact, in nanoseconds, 8 bytes a
/// sample while the data allows.
///
/// `narrow` holds `(gap since the previous sample, RTT)` as two `u32`s, the
/// first sample's time kept apart in `first_ns` so a flow that starts at
/// t = 48 s stays narrow. The first sample whose gap or RTT does not fit
/// 32 bits (4.29 s — an outage) goes to `wide` as an absolute `(time, RTT)`
/// pair of `u64`s, and so does every sample after it: the data chooses, at
/// most once a flow, and nothing is moved or truncated. In sample order the
/// store reads `narrow` then `wide`.
#[derive(Debug, Clone, Default)]
struct RttStore {
    /// Time of the first narrow sample.
    first_ns: u64,
    /// Time of the newest narrow sample: the base of the next gap.
    last_ns: u64,
    narrow: Vec<(u32, u32)>,
    wide: Vec<(u64, u64)>,
}

impl RttStore {
    #[inline]
    fn push(&mut self, at: Time, rtt: Dur) {
        let (t_ns, rtt_ns) = (at.as_nanos(), rtt.as_nanos());
        if self.wide.is_empty() {
            if self.narrow.is_empty() {
                (self.first_ns, self.last_ns) = (t_ns, t_ns);
            }
            let gap = t_ns.checked_sub(self.last_ns).map(u32::try_from);
            if let (Some(Ok(gap)), Ok(rtt)) = (gap, u32::try_from(rtt_ns)) {
                self.narrow.push((gap, rtt));
                self.last_ns = t_ns;
                return;
            }
        }
        self.wide.push((t_ns, rtt_ns));
    }

    fn len(&self) -> usize {
        self.narrow.len() + self.wide.len()
    }

    /// `(ACK time, RTT)` in sample order.
    fn iter(&self) -> impl Iterator<Item = (Time, Dur)> + '_ {
        let mut t = self.first_ns;
        let narrow = self.narrow.iter().map(move |&(gap, rtt)| {
            t += u64::from(gap);
            (t, u64::from(rtt))
        });
        narrow
            .chain(self.wide.iter().copied())
            .map(|(t, rtt)| (Time::from_nanos(t), Dur::from_nanos(rtt)))
    }

    /// The nearest-rank `p`-th percentile RTT, selected on a scratch copy of
    /// the RTT column that is freed on return: O(n), 4 bytes a sample while
    /// the store is narrow, and nothing to invalidate when the next sample
    /// arrives.
    fn rtt_percentile(&self, p: f64) -> Option<Dur> {
        let ns = if self.wide.is_empty() {
            let mut rtts: Vec<u32> = self.narrow.iter().map(|&(_, rtt)| rtt).collect();
            percentile_select(&mut rtts, p).map(u64::from)
        } else {
            let mut rtts: Vec<u64> = self.iter().map(|(_, rtt)| rtt.as_nanos()).collect();
            percentile_select(&mut rtts, p)
        };
        ns.map(Dur::from_nanos)
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
    /// `(ACK time, RTT)` of every `rtt_stride`-th ACK.
    rtt: RttStore,
    /// Cumulative bytes acknowledged through each time bin since
    /// `Time::ZERO` (`acked_cum[i]` covers bins `0..=i`). Stored as a prefix
    /// sum so any `throughput_bps` window is two lookups instead of a scan.
    acked_cum: Vec<u64>,
    /// End of the newest bin in `acked_cum`, nanoseconds (0 before the
    /// first ACK): an ACK before it needs no division to find its bin.
    bin_end_ns: u64,
    rtt_stride: usize,
    /// ACKs left until the next RTT sample.
    rtt_countdown: usize,
    /// Frame-latency accounting; `None` for every non-media flow (boxed so
    /// the common case costs one pointer, keeping media-free scenarios'
    /// layout and results untouched).
    media: Option<Box<MediaMetrics>>,
}

impl FlowMetrics {
    /// Creates an empty metrics record.
    pub fn new(id: FlowId, name: String, bin: Dur, rtt_stride: usize) -> Self {
        let rtt_stride = rtt_stride.max(1);
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
            rtt: RttStore::default(),
            acked_cum: Vec::new(),
            bin_end_ns: 0,
            rtt_stride,
            rtt_countdown: rtt_stride,
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
        }
    }

    pub(crate) fn on_sent(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
        self.pkts_sent += 1;
    }

    pub(crate) fn on_ack(&mut self, now: Time, bytes: u64, rtt: Dur) {
        self.bytes_acked += bytes;
        self.pkts_acked += 1;
        let now_ns = now.as_nanos();
        if now_ns >= self.bin_end_ns {
            self.open_bin(now_ns);
        }
        // ACK events arrive in time order, so this ACK lands in the last bin
        // and the prefix-sum stays consistent with a single update.
        *self.acked_cum.last_mut().expect("open_bin leaves a bin") += bytes;
        self.rtt_countdown -= 1;
        if self.rtt_countdown == 0 {
            self.rtt_countdown = self.rtt_stride;
            self.rtt.push(now, rtt);
        }
    }

    /// Extends the bins to the one holding `now_ns`: the only division, paid
    /// when an ACK crosses a bin edge rather than on every ACK.
    fn open_bin(&mut self, now_ns: u64) {
        let bin_ns = self.bin.as_nanos().max(1);
        let bin_idx = now_ns / bin_ns;
        // New bins — the ones skipped while the flow sat idle too — start
        // from the running total (prefix-sum invariant).
        let total = self.acked_cum.last().copied().unwrap_or(0);
        self.acked_cum.resize(bin_idx as usize + 1, total);
        self.bin_end_ns = (bin_idx + 1).saturating_mul(bin_ns);
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

    /// `(ack_time_seconds, rtt_seconds)` of every sampled ACK (every one,
    /// or every `rtt_stride`-th), in ACK order.
    pub fn rtt_samples(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.rtt
            .iter()
            .map(|(t, rtt)| (t.as_secs_f64(), rtt.as_secs_f64()))
    }

    /// RTT values (seconds), discarding timestamps.
    pub fn rtt_values(&self) -> Vec<f64> {
        self.rtt_samples().map(|(_, r)| r).collect()
    }

    /// RTT values within a time window `[from, to)`, seconds.
    pub fn rtt_values_in(&self, from: Time, to: Time) -> Vec<f64> {
        let (a, b) = (from.as_secs_f64(), to.as_secs_f64());
        self.rtt_samples()
            .filter(|&(t, _)| t >= a && t < b)
            .map(|(_, r)| r)
            .collect()
    }

    /// The `p`-th percentile RTT in seconds (nearest rank), if samples
    /// exist: an O(n) selection over the integer samples — nanoseconds to
    /// seconds is monotone, so the value is the one a sort of the `f64`s
    /// would pick — with nothing cached between queries.
    pub fn rtt_percentile(&self, p: f64) -> Option<f64> {
        self.rtt.rtt_percentile(p).map(Dur::as_secs_f64)
    }

    /// Mean RTT in seconds.
    pub fn rtt_mean(&self) -> Option<f64> {
        let n = self.rtt.len();
        (n > 0).then(|| self.rtt_samples().map(|(_, r)| r).sum::<f64>() / n as f64)
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
        assert_eq!(m.rtt_samples().count(), 25);
        assert_eq!(m.pkts_acked, 100);
    }

    /// Nearest-rank percentile by full sort: what `rtt_percentile` and
    /// `frame_delay_percentile` computed before they selected.
    fn sorted_percentile(xs: &[f64], p: f64) -> Option<f64> {
        let mut v = xs.to_vec();
        v.sort_unstable_by(f64::total_cmp);
        let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
        v.get(rank.saturating_sub(1).min(v.len().saturating_sub(1)))
            .copied()
    }

    fn bits(samples: &[(f64, f64)]) -> Vec<(u64, u64)> {
        let pair = |&(t, r): &(f64, f64)| (t.to_bits(), r.to_bits());
        samples.iter().map(pair).collect()
    }

    /// Feeds `trace` (`(ACK time, RTT)`, nanoseconds) at stride 1 and checks
    /// every RTT reader, bit for bit, against the `Vec<(f64, f64)>` of
    /// seconds the field used to be. Returns the metrics for layout checks.
    fn check_against_float_record(trace: &[(u64, u64)]) -> FlowMetrics {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        let mut want = Vec::new();
        for &(t, rtt) in trace {
            let (t, rtt) = (Time::from_nanos(t), Dur::from_nanos(rtt));
            m.on_ack(t, 1500, rtt);
            want.push((t.as_secs_f64(), rtt.as_secs_f64()));
        }
        let got: Vec<(f64, f64)> = m.rtt_samples().collect();
        assert_eq!(bits(&got), bits(&want));
        let rtts: Vec<f64> = want.iter().map(|&(_, r)| r).collect();
        assert_eq!(m.rtt_values(), rtts);
        let mean = (!rtts.is_empty()).then(|| rtts.iter().sum::<f64>() / rtts.len() as f64);
        assert_eq!(m.rtt_mean().map(f64::to_bits), mean.map(f64::to_bits));
        for p in [0.0, 5.0, 50.0, 95.0, 99.0, 100.0] {
            let (got, want) = (m.rtt_percentile(p), sorted_percentile(&rtts, p));
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "p{p}");
        }
        let (first, last) = (trace[0].0, trace[trace.len() - 1].0);
        let from = Time::from_nanos(first + (last - first) / 3);
        let to = Time::from_nanos(last - (last - first) / 3);
        let in_window: Vec<f64> = want
            .iter()
            .filter(|&&(t, _)| t >= from.as_secs_f64() && t < to.as_secs_f64())
            .map(|&(_, r)| r)
            .collect();
        assert_eq!(m.rtt_values_in(from, to), in_window);
        m
    }

    /// Longer than 32 bits of nanoseconds hold (4.29 s).
    const TOO_WIDE: u64 = u32::MAX as u64 + 1;

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Random traces — the first sample up to a minute into the run —
        /// as they are, then with an RTT or a gap over 4.29 s forced at the
        /// first, a middle and the last sample.
        #[test]
        fn rtt_store_equals_the_float_record(
            draws in proptest::collection::vec(proptest::any::<u64>(), 1..120),
            first_ms in 0u64..60_000,
        ) {
            let mut t = first_ms * 1_000_000;
            let base: Vec<(u64, u64)> = draws
                .iter()
                .map(|&d| {
                    t += d % 40_000_000; // gaps up to 40 ms
                    (t, 1_000_000 + (d >> 32) % 400_000_000)
                })
                .collect();
            let n = base.len();
            let plain = check_against_float_record(&base);
            proptest::prop_assert!(plain.rtt.wide.is_empty(), "a late first sample stays narrow");
            proptest::prop_assert_eq!(plain.rtt.narrow.len(), n);
            for at in [0, n / 2, n - 1] {
                let mut long_rtt = base.clone();
                long_rtt[at].1 += TOO_WIDE;
                let m = check_against_float_record(&long_rtt);
                proptest::prop_assert_eq!((m.rtt.narrow.len(), m.rtt.wide.len()), (at, n - at));
                if at > 0 {
                    let mut outage = base.clone();
                    outage[at..].iter_mut().for_each(|s| s.0 += TOO_WIDE);
                    let m = check_against_float_record(&outage);
                    proptest::prop_assert_eq!((m.rtt.narrow.len(), m.rtt.wide.len()), (at, n - at));
                }
            }
        }
    }

    #[test]
    fn a_million_narrow_samples_occupy_eight_megabytes() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        // 500 Mbps of 1500 B packets from t = 48 s: an ACK every 24 us.
        for i in 0..1_000_000u64 {
            let rtt = Dur::from_micros(30_000 + i % 7_000);
            m.on_ack(Time::from_nanos(48_000_000_000 + i * 24_000), 1500, rtt);
        }
        assert!(m.rtt.wide.is_empty());
        assert_eq!(std::mem::size_of_val(&m.rtt.narrow[..]), 8_000_000);
        assert_eq!(m.rtt_samples().last(), Some((71.999976, 0.035999)));
    }

    #[test]
    fn percentile_read_mid_run_does_not_go_stale() {
        let mut m = FlowMetrics::new(0, "t".into(), Dur::from_secs(1), 1);
        for i in 0..10 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(30));
        }
        assert_eq!(m.rtt_percentile(95.0), Some(0.030));
        for i in 10..200 {
            m.on_ack(Time::from_millis(i), 1500, Dur::from_millis(80));
        }
        assert_eq!(m.rtt_percentile(95.0), Some(0.080));
        assert_eq!(m.rtt_percentile(5.0), Some(0.030));
        assert_eq!(m.rtt_percentile(6.0), Some(0.080));
    }

    /// Goodput bins and strided samples equal the per-ACK division and
    /// modulo they used to be found with, over a trace whose idle gaps span
    /// several bins.
    #[test]
    fn bins_and_strides_equal_the_division_based_reference() {
        let bin = Dur::from_millis(100);
        // Bursts of ACKs 1.7 ms apart; then idle for 0, 1 or 2-4 bins.
        let mut trace = Vec::new();
        let mut t = 30_000_000u64;
        for burst in 0..40u64 {
            for i in 0..(7 + burst * 13 % 90) {
                trace.push((t, 100 + (burst + i) % 1400, 20_000_000 + i * 1000));
                t += 1_700_000;
            }
            t += burst % 3 * (burst % 5) * 100_000_000;
        }
        for stride in [1usize, 64] {
            let mut m = FlowMetrics::new(0, "t".into(), bin, stride);
            let mut bins: Vec<u64> = Vec::new();
            let mut samples = Vec::new();
            for (k, &(t, bytes, rtt)) in trace.iter().enumerate() {
                let (at, rtt) = (Time::from_nanos(t), Dur::from_nanos(rtt));
                m.on_ack(at, bytes, rtt);
                let idx = (t / bin.as_nanos()) as usize;
                bins.resize(bins.len().max(idx + 1), 0);
                bins[idx] += bytes;
                if (k + 1) % stride == 0 {
                    samples.push((at.as_secs_f64(), rtt.as_secs_f64()));
                }
            }
            assert!(bins.iter().filter(|&&b| b == 0).count() > 20, "idle bins");
            assert_eq!(m.acked_bins(), bins, "stride {stride}");
            assert_eq!(m.rtt_samples().collect::<Vec<_>>(), samples);
            let (from, to) = (Time::from_millis(500), Time::from_nanos(t));
            let whole_bins = &bins[5..(t / bin.as_nanos()) as usize];
            let secs = whole_bins.len() as f64 * 0.1;
            let want = whole_bins.iter().sum::<u64>() as f64 * 8.0 / secs;
            assert!((m.throughput_bps(from, to) - want).abs() < 1e-6 * want);
        }
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
        for p in [0.0, 25.0, 26.0, 50.0, 95.0, 100.0] {
            let want = sorted_percentile(mm.frame_delays(), p);
            assert_eq!(mm.frame_delay_percentile(p), want, "p{p}");
        }
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
