//! The Proteus sender: wires together monitor intervals, the utility
//! library, noise tolerance and the Vivace rate controller behind the
//! [`CongestionControl`] interface.
//!
//! This is the architecture of Fig. 1 in the paper: packet-level events feed
//! a *utility module* (metric collection → utility function), whose values
//! drive a *rate control module*; the two are decoupled, so an application
//! can re-select the utility function — primary, scavenger, hybrid — at any
//! time with [`ProteusSender::set_mode`], even mid-flow ("In our user-space
//! implementation, this is a simple API call").

use proteus_trace::{
    AckFilter, DecisionEvent, EventKind, GateVerdict, MiClose, ModeSwitch, NoopSink, RingSink,
    TraceSink, MI_RING_CAPACITY,
};
use proteus_transport::{
    AckInfo, CcSnapshot, CongestionControl, Dur, LossInfo, MiStats, MiTracker, RttEstimator,
    SentPacket, Time,
};

use proteus_stats::Ewma;

use crate::config::{NoiseTolerance, ProteusConfig};
use crate::noise::{AckIntervalFilter, GatedMetrics, MiNoiseGate};
use crate::rate_control::{Decisions, RateController};
use crate::utility::{
    evaluate_terms, hybrid_uses_scavenger, MiObservation, Mode, SharedThreshold, UtilityTerms,
};

/// A Proteus (or PCC Vivace) sender.
///
/// The `S` parameter selects the decision-trace sink (see `proteus-trace`).
/// The default, [`NoopSink`], has `ENABLED = false`: every emission site is
/// guarded by that associated constant, so an untraced sender compiles to
/// exactly the pre-tracing code — no branches, no stores, no allocation on
/// the per-ACK path (guarded by `tests/alloc_free.rs`; the benchmark's
/// `core.per_ack_ns.*` and `trace.per_ack_overhead_share` probes time it).
/// The rate controller's probe outcomes and transitions are the return
/// value of [`RateController::on_mi_complete`]; a recording sender writes
/// them to its sink stamped with the completing MI's end time.
/// [`ProteusSender::with_sink`] rebuilds the sender with a recording sink
/// such as [`proteus_trace::RingSink`]; a simulation that
/// samples a trace swaps an untraced sender for its
/// [`CongestionControl::decision_traced`] twin itself.
pub struct ProteusSender<S: TraceSink = NoopSink> {
    cfg: ProteusConfig,
    mode: Mode,
    tracker: MiTracker,
    controller: RateController,
    gate: MiNoiseGate,
    /// Per-ACK burst filter; present only under adaptive noise tolerance.
    ack_filter: Option<AckIntervalFilter>,
    rtt: RttEstimator,
    /// End of the currently open MI.
    mi_end: Option<Time>,
    /// Target rate of the open MI, Mbps.
    current_rate_mbps: f64,
    /// Smoothed per-MI loss rate: the raw per-MI sample is binomially noisy
    /// (±1–2 % absolute at MI-sized packet counts), which would drown the
    /// utility comparisons the controller relies on under sustained random
    /// loss. The metric-collection stage smooths it with a short EWMA.
    loss_ewma: Ewma,
    /// History of (mode switch count) for diagnostics.
    mode_switches: u64,
    /// Most recent utility value (diagnostics).
    last_utility: Option<f64>,
    /// Reusable drain buffer for completed MIs: cleared and refilled on
    /// every ACK/loss, so the steady-state per-ACK path performs no heap
    /// allocation (guarded by `tests/alloc_free.rs`).
    mi_scratch: Vec<MiStats>,
    /// Decision-event sink (the zero-sized [`NoopSink`] by default).
    sink: S,
    /// Latest event time seen, used to stamp decisions that happen outside
    /// MI completion (explicit `set_mode` calls). Only maintained when
    /// tracing is enabled.
    clock: Time,
    /// Which side of the Proteus-H threshold rule the previous MI used
    /// (`Some(true)` = scavenger terms), for implicit-switch detection.
    /// Only maintained when tracing is enabled.
    hybrid_branch: Option<bool>,
}

impl ProteusSender {
    /// Creates a sender with an explicit configuration and mode.
    pub fn with_config(cfg: ProteusConfig, mode: Mode) -> Self {
        let ack_filter = match cfg.noise {
            NoiseTolerance::Adaptive(p) => Some(AckIntervalFilter::new(p.ack_interval_ratio)),
            NoiseTolerance::FixedThreshold(_) => None,
        };
        Self {
            mode,
            tracker: MiTracker::new(),
            controller: RateController::new(cfg.rate_control, cfg.seed),
            gate: MiNoiseGate::new(cfg.noise),
            ack_filter,
            rtt: RttEstimator::new(),
            mi_end: None,
            current_rate_mbps: cfg.rate_control.initial_rate_mbps,
            loss_ewma: Ewma::new(0.125),
            mode_switches: 0,
            last_utility: None,
            mi_scratch: Vec::new(),
            sink: NoopSink,
            clock: Time::ZERO,
            hybrid_branch: None,
            cfg,
        }
    }

    /// Proteus-P with the paper's defaults.
    pub fn primary(seed: u64) -> Self {
        Self::with_config(ProteusConfig::proteus().with_seed(seed), Mode::Primary)
    }

    /// Proteus-S with the paper's defaults.
    pub fn scavenger(seed: u64) -> Self {
        Self::with_config(ProteusConfig::proteus().with_seed(seed), Mode::Scavenger)
    }

    /// Proteus-H with the given shared threshold.
    pub fn hybrid(seed: u64, threshold: SharedThreshold) -> Self {
        Self::with_config(
            ProteusConfig::proteus().with_seed(seed),
            Mode::Hybrid(threshold),
        )
    }

    /// PCC Vivace as published (agreement probing, flat noise threshold).
    pub fn vivace(seed: u64) -> Self {
        Self::with_config(ProteusConfig::vivace().with_seed(seed), Mode::Vivace)
    }

    /// PCC Allegro's loss-based utility on the shared rate controller
    /// (NSDI'15 used a simpler controller; the objective is what matters
    /// for comparisons here).
    pub fn allegro(seed: u64) -> Self {
        Self::with_config(ProteusConfig::vivace().with_seed(seed), Mode::Allegro)
    }
}

impl<S: TraceSink> ProteusSender<S> {
    /// Rebuilds the sender with a different decision-trace sink (all
    /// controller and measurement state carries over; typically called
    /// right after construction).
    pub fn with_sink<S2: TraceSink>(self, sink: S2) -> ProteusSender<S2> {
        ProteusSender {
            cfg: self.cfg,
            mode: self.mode,
            tracker: self.tracker,
            controller: self.controller,
            gate: self.gate,
            ack_filter: self.ack_filter,
            rtt: self.rtt,
            mi_end: self.mi_end,
            current_rate_mbps: self.current_rate_mbps,
            loss_ewma: self.loss_ewma,
            mode_switches: self.mode_switches,
            last_utility: self.last_utility,
            mi_scratch: self.mi_scratch,
            sink,
            clock: self.clock,
            hybrid_branch: self.hybrid_branch,
        }
    }

    /// Switches the utility function, even mid-flow (the paper's
    /// *flexibility* goal). The rate controller keeps its state; only the
    /// objective changes.
    pub fn set_mode(&mut self, mode: Mode) {
        if S::ENABLED {
            let threshold_mbps = match &mode {
                Mode::Hybrid(th) => th.get(),
                _ => f64::NAN,
            };
            self.sink.record(DecisionEvent {
                t_ns: self.clock.as_nanos(),
                kind: EventKind::ModeSwitch(ModeSwitch {
                    from: self.mode.name(),
                    to: mode.name(),
                    implicit: false,
                    threshold_mbps,
                    rate_mbps: self.current_rate_mbps,
                }),
            });
            // The threshold-rule branch history belongs to the old mode.
            self.hybrid_branch = None;
        }
        self.mode_switches += 1;
        self.mode = mode;
    }

    /// The active mode.
    pub fn mode(&self) -> &Mode {
        &self.mode
    }

    /// Number of `set_mode` calls so far.
    pub fn mode_switches(&self) -> u64 {
        self.mode_switches
    }

    /// Current target rate, Mbps.
    pub fn rate_mbps(&self) -> f64 {
        self.current_rate_mbps
    }

    /// The most recent MI's utility value, if any.
    pub fn last_utility(&self) -> Option<f64> {
        self.last_utility
    }

    /// MI duration: one smoothed RTT, clamped to the configured bounds.
    fn mi_duration(&self) -> Dur {
        let srtt = self.rtt.srtt_or(Dur::from_millis(100));
        srtt.clamp(self.cfg.mi.min_duration, self.cfg.mi.max_duration)
    }

    fn roll_mi(&mut self, now: Time) {
        let rate = self.controller.next_mi_rate();
        self.current_rate_mbps = rate;
        self.tracker.start_mi(now, rate * 1e6 / 8.0);
        self.mi_end = Some(now + self.mi_duration());
    }

    /// Runs the utility pipeline over the MIs drained into `mi_scratch`.
    ///
    /// The scratch vector is moved out for the duration of the loop (an
    /// allocation-free pointer swap) so its elements can be read while
    /// `self` is mutated, then handed back for reuse by the next event.
    fn process_completed(&mut self) {
        let completed = std::mem::take(&mut self.mi_scratch);
        for &mi in &completed {
            // MIs with no packets (e.g. app-limited gaps) carry no signal.
            if mi.pkts_sent == 0 {
                let decisions = self
                    .controller
                    .on_mi_complete(self.last_utility.unwrap_or(0.0));
                if S::ENABLED {
                    self.record_decisions(mi.end, decisions);
                }
                continue;
            }
            let gated = self.gate.process(&mi);
            let obs = MiObservation {
                rate_mbps: mi.target_rate * 8.0 / 1e6,
                loss_rate: self.loss_ewma.update(mi.loss_rate),
                rtt_gradient: gated.rtt_gradient,
                rtt_deviation: gated.rtt_deviation,
                rtt_s: mi.rtt_mean,
            };
            // One evaluation drives the controller; a recording sink only
            // observes it, so tracing cannot perturb a decision.
            let terms = evaluate_terms(&self.mode, &self.cfg.utility, &obs);
            if S::ENABLED {
                self.record_mi(&mi, &gated, &obs, &terms);
            }
            self.last_utility = Some(terms.utility);
            let decisions = self.controller.on_mi_complete(terms.utility);
            if S::ENABLED {
                self.record_decisions(mi.end, decisions);
            }
        }
        self.mi_scratch = completed;
    }

    /// Records one completed MI's decisions: the noise-gate verdict, a
    /// Proteus-H threshold crossing if the rule flipped sides, and the
    /// `MiClose` carrying the utility `terms` the controller was fed.
    fn record_mi(
        &mut self,
        mi: &MiStats,
        gated: &GatedMetrics,
        obs: &MiObservation,
        terms: &UtilityTerms,
    ) {
        let end_ns = mi.end.as_nanos();
        self.sink.record(DecisionEvent {
            t_ns: end_ns,
            kind: EventKind::GateVerdict(GateVerdict {
                raw_gradient: mi.rtt_gradient,
                raw_deviation: mi.rtt_dev,
                gradient_error: mi.gradient_error,
                per_mi_gated: gated.per_mi_gated,
                trend_restored_gradient: gated.trend_restored_gradient,
                trend_restored_deviation: gated.trend_restored_deviation,
                out_gradient: gated.rtt_gradient,
                out_deviation: gated.rtt_deviation,
            }),
        });
        if let Mode::Hybrid(th) = &self.mode {
            let threshold = th.get();
            let scav = hybrid_uses_scavenger(obs.rate_mbps, threshold);
            if let Some(prev) = self.hybrid_branch {
                if prev != scav {
                    let (from, to) = if scav {
                        ("Proteus-P", "Proteus-S")
                    } else {
                        ("Proteus-S", "Proteus-P")
                    };
                    self.sink.record(DecisionEvent {
                        t_ns: end_ns,
                        kind: EventKind::ModeSwitch(ModeSwitch {
                            from,
                            to,
                            implicit: true,
                            threshold_mbps: threshold,
                            rate_mbps: obs.rate_mbps,
                        }),
                    });
                }
            }
            self.hybrid_branch = Some(scav);
        }
        self.sink.record(DecisionEvent {
            t_ns: end_ns,
            kind: EventKind::MiClose(MiClose {
                mi_start_ns: mi.start.as_nanos(),
                rate_mbps: obs.rate_mbps,
                goodput_mbps: mi.throughput * 8.0 / 1e6,
                loss_rate: obs.loss_rate,
                raw_loss_rate: mi.loss_rate,
                rtt_mean_s: mi.rtt_mean,
                rtt_dev_s: gated.rtt_deviation,
                rtt_gradient: gated.rtt_gradient,
                utility: terms.utility,
                term_rate: terms.term_rate,
                term_gradient: terms.term_gradient,
                term_loss: terms.term_loss,
                term_deviation: terms.term_deviation,
                mode: terms.effective,
            }),
        });
    }

    /// Records what the controller decided on one MI completion, stamped
    /// with the completing MI's end time.
    fn record_decisions(&mut self, at: Time, decisions: Decisions) {
        let t_ns = at.as_nanos();
        for kind in decisions.kinds() {
            self.sink.record(DecisionEvent { t_ns, kind });
        }
    }
}

impl<S: TraceSink> std::fmt::Debug for ProteusSender<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProteusSender")
            .field("mode", &self.mode.name())
            .field("rate_mbps", &self.current_rate_mbps)
            .field("mi_end", &self.mi_end)
            .finish()
    }
}

impl<S: TraceSink> CongestionControl for ProteusSender<S> {
    fn name(&self) -> &str {
        self.mode.name()
    }

    fn on_flow_start(&mut self, now: Time) {
        if S::ENABLED {
            self.clock = now;
        }
        self.roll_mi(now);
    }

    fn on_packet_sent(&mut self, _now: Time, pkt: &SentPacket) {
        self.tracker.on_sent(pkt);
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        if S::ENABLED {
            self.clock = now;
        }
        self.rtt.update(ack.rtt);
        let keep_rtt = match &mut self.ack_filter {
            Some(f) => {
                if S::ENABLED {
                    // The filter verdicts every ACK; the trace records the
                    // episode *boundaries* (started/stopped dropping).
                    let was_filtering = f.is_filtering();
                    let keep = f.on_ack(ack);
                    if f.is_filtering() != was_filtering {
                        let (accepted, dropped) = f.counts();
                        self.sink.record(DecisionEvent {
                            t_ns: now.as_nanos(),
                            kind: EventKind::AckFilter(AckFilter {
                                dropping: !was_filtering,
                                accepted,
                                dropped,
                            }),
                        });
                    }
                    keep
                } else {
                    f.on_ack(ack)
                }
            }
            None => true,
        };
        self.mi_scratch.clear();
        self.tracker
            .on_ack_filtered_into(ack, keep_rtt, &mut self.mi_scratch);
        self.process_completed();
    }

    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        if S::ENABLED {
            self.clock = now;
        }
        self.mi_scratch.clear();
        self.tracker.on_loss_into(loss, &mut self.mi_scratch);
        self.process_completed();
    }

    fn pacing_rate(&self) -> Option<f64> {
        Some(self.current_rate_mbps * 1e6 / 8.0)
    }

    fn next_timer(&self) -> Option<Time> {
        self.mi_end
    }

    fn on_timer(&mut self, now: Time) {
        if S::ENABLED {
            self.clock = now;
        }
        if let Some(end) = self.mi_end {
            if now >= end {
                self.roll_mi(now);
            }
        }
    }

    fn snapshot(&self) -> Option<CcSnapshot> {
        Some(CcSnapshot {
            utility: self.last_utility,
            mode: Some(self.mode.name()),
            mode_switches: self.mode_switches,
        })
    }

    fn drain_decisions(&mut self, out: &mut Vec<DecisionEvent>) {
        self.sink.drain_into(out);
    }

    /// The same configuration and mode on a [`RingSink`]. A Proteus-H mode
    /// clones its [`SharedThreshold`] handle, so the twin follows the
    /// application that sets it.
    fn decision_traced(&self) -> Option<Box<dyn CongestionControl>> {
        if S::ENABLED {
            return None;
        }
        let twin = ProteusSender::with_config(self.cfg, self.mode.clone());
        Some(Box::new(twin.with_sink(RingSink::new(MI_RING_CAPACITY))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate_control::MAX_RATE_MBPS;

    fn ack(seq: u64, sent: Time, now: Time) -> AckInfo {
        AckInfo {
            seq,
            bytes: 1500,
            sent_at: sent,
            recv_at: now,
            rtt: now.since(sent),
            one_way_delay: Dur::from_nanos(now.since(sent).as_nanos() / 2),
        }
    }

    #[test]
    fn starts_first_mi_on_flow_start() {
        let mut s = ProteusSender::primary(1);
        assert_eq!(s.next_timer(), None);
        s.on_flow_start(Time::from_millis(10));
        assert!(s.next_timer().is_some());
        assert!(s.pacing_rate().unwrap() > 0.0);
        assert_eq!(s.name(), "Proteus-P");
    }

    #[test]
    fn timer_rolls_monitor_intervals() {
        let mut s = ProteusSender::primary(1);
        s.on_flow_start(Time::ZERO);
        let first_end = s.next_timer().unwrap();
        s.on_timer(first_end);
        let second_end = s.next_timer().unwrap();
        assert!(second_end > first_end);
    }

    #[test]
    fn loss_free_scripted_acks_stop_at_the_rate_ceiling() {
        // One packet a millisecond, each ACKed as it is sent after a
        // constant 30 ms RTT, nothing lost: every MI's utility beats the
        // last, so slow start never ends and only the ceiling stops the
        // doubling (without it the rate passes 1e300 Mbps by ACK 30 000).
        let mut s = ProteusSender::scavenger(7);
        s.on_flow_start(Time::ZERO);
        let mut peak = 0.0f64;
        for seq in 1..=30_000u64 {
            let now = Time::from_millis(seq);
            if s.next_timer().is_some_and(|end| end <= now) {
                s.on_timer(now);
            }
            let sent = SentPacket {
                seq,
                bytes: 1500,
                sent_at: now,
            };
            s.on_packet_sent(now, &sent);
            let recv_at = Time::from_millis(seq + 30);
            s.on_ack(recv_at, &ack(seq, now, recv_at));
            let rate = s.rate_mbps();
            assert!(
                rate.is_finite() && rate <= MAX_RATE_MBPS,
                "ACK {seq}: {rate} Mbps"
            );
            peak = peak.max(rate);
        }
        assert_eq!(peak, MAX_RATE_MBPS, "the script never reached the ceiling");
    }

    #[test]
    fn slow_start_doubles_rate_through_sim_events() {
        let mut s = ProteusSender::primary(1);
        s.on_flow_start(Time::ZERO);
        let r0 = s.rate_mbps();
        s.on_timer(s.next_timer().unwrap());
        let r1 = s.rate_mbps();
        assert!(
            (r1 / r0 - 2.0).abs() < 1e-9,
            "expected doubling: {r0} -> {r1}"
        );
    }

    #[test]
    fn mode_switch_mid_flow() {
        let mut s = ProteusSender::primary(1);
        s.on_flow_start(Time::ZERO);
        assert_eq!(s.name(), "Proteus-P");
        s.set_mode(Mode::Scavenger);
        assert_eq!(s.name(), "Proteus-S");
        assert_eq!(s.mode_switches(), 1);
        let th = SharedThreshold::new(25.0);
        s.set_mode(Mode::Hybrid(th));
        assert_eq!(s.name(), "Proteus-H");
    }

    #[test]
    fn utility_flows_from_acks_to_controller() {
        let mut s = ProteusSender::primary(1);
        s.on_flow_start(Time::ZERO);
        // Send a packet in MI 0, roll the MI, ack it: MI 0 completes.
        let pkt = SentPacket {
            seq: 0,
            bytes: 1500,
            sent_at: Time::from_millis(1),
        };
        s.on_packet_sent(Time::from_millis(1), &pkt);
        s.on_timer(s.next_timer().unwrap());
        assert_eq!(s.last_utility(), None);
        s.on_ack(
            Time::from_millis(31),
            &ack(0, Time::from_millis(1), Time::from_millis(31)),
        );
        assert!(s.last_utility().is_some());
    }

    #[test]
    fn vivace_has_no_ack_filter() {
        let v = ProteusSender::vivace(1);
        assert!(v.ack_filter.is_none());
        assert_eq!(v.name(), "PCC-Vivace");
        let p = ProteusSender::primary(1);
        assert!(p.ack_filter.is_some());
    }

    /// An untraced sender, its `RingSink` twin and its `decision_traced`
    /// twin fed one event stream.
    struct Twins {
        plain: ProteusSender,
        traced: ProteusSender<proteus_trace::RingSink>,
        hooked: Box<dyn CongestionControl>,
        /// Every `MiClose` the traced twin recorded, with its timestamp.
        closes: Vec<(u64, MiClose)>,
    }

    impl Twins {
        /// Feeds one event to all three senders, then checks they still
        /// agree, that both recording twins recorded the same events, and
        /// that the traced twin's newest `MiClose` carries the utility its
        /// controller was fed.
        fn step(&mut self, event: impl Fn(&mut dyn CongestionControl)) {
            event(&mut self.plain);
            event(&mut self.traced);
            event(&mut *self.hooked);
            assert_eq!(self.plain.rate_mbps(), self.traced.rate_mbps());
            assert_eq!(self.plain.last_utility(), self.traced.last_utility());
            assert_eq!(self.plain.next_timer(), self.traced.next_timer());
            assert_eq!(self.plain.pacing_rate(), self.hooked.pacing_rate());
            assert_eq!(self.plain.snapshot(), self.hooked.snapshot());
            assert_eq!(self.plain.next_timer(), self.hooked.next_timer());
            let mut events = Vec::new();
            self.traced.drain_decisions(&mut events);
            let mut hooked_events = Vec::new();
            self.hooked.drain_decisions(&mut hooked_events);
            assert_eq!(events, hooked_events);
            let before = self.closes.len();
            self.closes
                .extend(events.iter().filter_map(|e| match e.kind {
                    EventKind::MiClose(c) => Some((e.t_ns, c)),
                    _ => None,
                }));
            if self.closes.len() > before {
                let newest = self.closes.last().unwrap().1.utility;
                assert_eq!(Some(newest), self.traced.last_utility());
            }
        }
    }

    #[test]
    fn an_untraced_sender_fits_in_1_488_bytes() {
        // Populations hold thousands of these boxed; the controller's
        // decisions are a return value, so no sender carries a log.
        let size = std::mem::size_of::<ProteusSender>();
        assert!(size <= 1_488, "ProteusSender is {size} bytes");
    }

    #[test]
    fn tracing_observes_the_one_evaluation() {
        // Proteus-H with a threshold slow start crosses, so both sides of
        // the rule (and an implicit switch) are on the traced path.
        let th = SharedThreshold::new(8.0);
        let cfg = ProteusConfig::proteus().with_seed(3);
        let plain = ProteusSender::with_config(cfg, Mode::Hybrid(th.clone()));
        let hooked = plain
            .decision_traced()
            .expect("an untraced sender has a twin");
        assert!(hooked.decision_traced().is_none());
        let mut t = Twins {
            plain,
            traced: ProteusSender::with_config(cfg, Mode::Hybrid(th))
                .with_sink(proteus_trace::RingSink::new(256)),
            hooked,
            closes: Vec::new(),
        };
        let mut now = Time::ZERO;
        t.step(|s| s.on_flow_start(now));
        let mut seq = 0u64;
        for mi in 0..30u64 {
            let mut sent = Vec::new();
            for j in 0..6u64 {
                let pkt = SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: now + Dur::from_millis(j),
                };
                t.step(|s| s.on_packet_sent(pkt.sent_at, &pkt));
                sent.push(pkt);
                seq += 1;
            }
            now = t.plain.next_timer().unwrap().max(now + Dur::from_millis(6));
            t.step(|s| s.on_timer(now));
            for pkt in sent {
                // 30–40 ms RTTs in a sawtooth, and one packet in seven lost.
                let rtt = Dur::from_millis(30 + (pkt.seq * 7 + mi) % 11);
                now = now.max(pkt.sent_at + rtt);
                if pkt.seq % 7 == 3 {
                    let loss = LossInfo {
                        seq: pkt.seq,
                        bytes: pkt.bytes,
                        sent_at: pkt.sent_at,
                        detected_at: now,
                        by_timeout: false,
                    };
                    t.step(|s| s.on_loss(now, &loss));
                } else {
                    t.step(|s| s.on_ack(now, &ack(pkt.seq, pkt.sent_at, now)));
                }
            }
        }
        assert!(t.closes.len() >= 20, "{} MI closes", t.closes.len());
        assert!(t.closes.windows(2).all(|w| w[0].0 <= w[1].0));
        for side in ["Proteus-P", "Proteus-S"] {
            assert!(t.closes.iter().any(|(_, c)| c.mode == side), "{side}");
        }
    }

    #[test]
    fn mi_duration_tracks_srtt_within_bounds() {
        let mut s = ProteusSender::primary(1);
        // No RTT yet: fallback 100 ms.
        assert_eq!(s.mi_duration(), Dur::from_millis(100));
        s.rtt.update(Dur::from_millis(30));
        assert_eq!(s.mi_duration(), Dur::from_millis(30));
        s.rtt.update(Dur::from_millis(1));
        // Clamped to the configured minimum.
        assert!(s.mi_duration() >= s.cfg.mi.min_duration);
    }

    /// Closes `n` MIs on a traced sender, one acked packet per MI.
    fn close_mis(
        s: &mut ProteusSender<proteus_trace::RingSink>,
        now: &mut Time,
        seq: &mut u64,
        n: usize,
    ) {
        for _ in 0..n {
            let pkt = SentPacket {
                seq: *seq,
                bytes: 1500,
                sent_at: *now + Dur::from_millis(1),
            };
            s.on_packet_sent(pkt.sent_at, &pkt);
            s.on_timer(s.next_timer().unwrap());
            *now = s.next_timer().unwrap();
            s.on_ack(*now, &ack(*seq, pkt.sent_at, *now));
            *seq += 1;
        }
    }

    /// Drains the sender's sink and returns `(t_ns, switch)` pairs.
    fn drain_switches(s: &mut ProteusSender<proteus_trace::RingSink>) -> Vec<(u64, ModeSwitch)> {
        let mut events = Vec::new();
        s.drain_decisions(&mut events);
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::ModeSwitch(m) => Some((e.t_ns, m)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hybrid_emits_mode_switches_exactly_at_threshold_crossings() {
        let th = SharedThreshold::new(f64::MAX);
        let mut s = ProteusSender::with_config(
            ProteusConfig::proteus().with_seed(1),
            Mode::Hybrid(th.clone()),
        )
        .with_sink(proteus_trace::RingSink::new(128));
        s.on_flow_start(Time::ZERO);
        let (mut now, mut seq) = (Time::ZERO, 0u64);

        // Every rate is below f64::MAX: the first MI close pins the primary
        // branch and later closes stay on it — no crossing, no events.
        close_mis(&mut s, &mut now, &mut seq, 3);
        assert!(drain_switches(&mut s).is_empty());

        // Dropping the threshold below the sending rate is a crossing: the
        // §4.4 rule flips to scavenger terms at the very next MI close, and
        // exactly once — later closes stay on the new branch.
        th.set(0.0);
        close_mis(&mut s, &mut now, &mut seq, 3);
        let next_close_ns = {
            // The switch must carry the timestamp of the first MI close
            // after the flip, which `close_mis` aligned to `next_timer`.
            let switches = drain_switches(&mut s);
            assert_eq!(switches.len(), 1, "one crossing, one event");
            let (t_ns, sw) = switches[0];
            assert!(sw.implicit, "threshold-rule switches are implicit");
            assert_eq!((sw.from, sw.to), ("Proteus-P", "Proteus-S"));
            assert_eq!(sw.threshold_mbps, 0.0);
            assert!(sw.rate_mbps >= sw.threshold_mbps);
            t_ns
        };
        assert!(next_close_ns > 0);

        // Raising it back above the rate crosses again, in the other
        // direction.
        th.set(f64::MAX);
        close_mis(&mut s, &mut now, &mut seq, 3);
        let switches = drain_switches(&mut s);
        assert_eq!(switches.len(), 1);
        assert_eq!(
            (switches[0].1.from, switches[0].1.to),
            ("Proteus-S", "Proteus-P")
        );
        assert!(switches[0].1.implicit);

        // An explicit `set_mode` also records a switch, marked as such.
        s.set_mode(Mode::Scavenger);
        let switches = drain_switches(&mut s);
        assert_eq!(switches.len(), 1);
        assert!(!switches[0].1.implicit);
        assert_eq!(
            (switches[0].1.from, switches[0].1.to),
            ("Proteus-H", "Proteus-S")
        );
    }
}
