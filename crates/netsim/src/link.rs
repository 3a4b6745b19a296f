//! One topology link: a FIFO tail-drop queue drained at a fixed rate, and
//! the wire behind it.
//!
//! [`Link`] owns everything that happens to a packet between being offered
//! to a bottleneck and arriving at the far end: the buffer and its
//! occupancy peak, the departure FIFO, the propagation split, random loss,
//! the latency-noise model, the fault layer with its private RNG, and the
//! counters that become the run's [`LinkSummary`]. The engine tells a link
//! what arrived ([`Link::offer`], [`Link::wire`], [`Link::ack_release`],
//! [`Link::apply`]) and the link *returns* what should happen; it never
//! sees the scheduler, the flow table or the trace.
//!
//! The queue is *virtual*: service is FIFO and work-conserving, so a
//! packet's departure time is fully determined at arrival
//! (`max(now, link_free_at) + serialization`) and no per-packet dequeue
//! events are needed. Buffer occupancy is decremented when the departure
//! time passes: the link keeps its departures in a FIFO filled by
//! [`Link::defer_departure`] and released lazily by
//! [`Link::release_before`] ahead of whichever call next reads the
//! occupancy (the staged test oracle schedules [`Link::on_departure`]
//! instead).
//!
//! The four per-packet methods (`offer`, `release_before`, `wire`,
//! `ack_release`) are `#[inline]`: each has one or two call sites in the
//! engine, and living in this module should not cost them a call.

use std::collections::VecDeque;

use proteus_trace::{Fault, FaultKind};
use proteus_transport::{serialization_delay, Dur, Time};
use rand::rngs::SmallRng;
use rand::RngExt as Rng;

use crate::fault::{FaultSchedule, FaultState, LinkChange};
use crate::metrics::LinkSummary;
use crate::noise::NoiseState;
use crate::scenario::LinkSpec;

/// Outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The packet was accepted and will finish serializing at this time.
    Departs(Time),
    /// The buffer was full; the packet is tail-dropped.
    Dropped,
}

/// What the wire did to a packet that left the queue ([`Link::wire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// Lost after the queue: outage, loss burst or random loss.
    Lost,
    /// Reaches the far end of the link at `at`. A `held` packet was delayed
    /// by the reordering fault, so later packets may overtake it.
    Arrives {
        /// Arrival time at the next hop or the receiver.
        at: Time,
        /// Held back by the reordering fault.
        held: bool,
    },
}

/// The last result of a pure `(bytes, rate) -> Dur` conversion, kept with its
/// arguments. A link's serialization delay and a flow's pacing interval are
/// each a float division and a rounding per packet for a value that changes
/// when the packet size or the rate does — a short last packet, a bandwidth
/// step, a new monitor interval — so the stale case is detected by comparing
/// the arguments and needs no hook where rates are set.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DurMemo {
    bytes: u64,
    rate: f64,
    value: Dur,
}

impl DurMemo {
    /// `f(bytes, rate)`, computed only when either differs from last time.
    #[inline]
    pub fn get(&mut self, bytes: u64, rate: f64, f: impl FnOnce(u64, f64) -> Dur) -> Dur {
        if (bytes, rate) != (self.bytes, self.rate) {
            *self = DurMemo {
                bytes,
                rate,
                value: f(bytes, rate),
            };
        }
        self.value
    }
}

/// A fixed-rate, tail-drop FIFO bottleneck and its wire (see module docs).
#[derive(Debug)]
pub struct Link {
    /// Current drain rate, bits/sec (fault schedules change it).
    rate_bps: f64,
    /// Rate the link was configured with, bits/sec.
    configured_rate_bps: f64,
    buffer_bytes: u64,
    /// Bytes currently queued or in service, and their peak at admission.
    queued_bytes: u64,
    peak_queued_bytes: u64,
    /// Time the serializer becomes free.
    free_at: Time,
    /// Serialization delay of the last packet offered.
    ser_delay: DurMemo,
    /// Link-owned departures `(depart_at, seq, bytes)` not yet released, in
    /// admission order — which is also `(depart_at, seq)` order, because
    /// `free_at` and the engine's sequence counter are both monotone.
    departures: VecDeque<(Time, u64, u32)>,
    accepted_pkts: u64,
    accepted_bytes: u64,
    dropped_pkts: u64,
    delivered_bytes: u64,
    /// One-way forward and reverse propagation: the two halves of `rtt`.
    fwd_prop: Dur,
    rev_prop: Dur,
    /// Probability of non-congestion loss per data packet.
    random_loss: f64,
    /// Latency noise on data deliveries and — where this link is a flow's
    /// last hop — on ACK releases at the receiver.
    noise: NoiseState,
    /// Fault runtime (`None` without a schedule: zero extra RNG draws).
    faults: Option<FaultState>,
}

/// The two one-way halves of a two-way propagation delay.
fn split_rtt(rtt: Dur) -> (Dur, Dur) {
    let fwd = Dur::from_nanos(rtt.as_nanos() / 2);
    (fwd, rtt - fwd)
}

impl Link {
    /// Builds the link `spec` describes. `faults`, if any, draw from their
    /// own RNG stream seeded from `fault_seed`.
    ///
    /// # Panics
    /// Panics if the rate is not positive or the buffer is zero.
    pub fn new(spec: &LinkSpec, faults: Option<&FaultSchedule>, fault_seed: u64) -> Self {
        let rate_bps = spec.rate_bps();
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        assert!(
            spec.buffer_bytes > 0,
            "a zero buffer cannot hold any packet"
        );
        let (fwd_prop, rev_prop) = split_rtt(spec.rtt);
        Self {
            rate_bps,
            configured_rate_bps: rate_bps,
            buffer_bytes: spec.buffer_bytes,
            queued_bytes: 0,
            peak_queued_bytes: 0,
            free_at: Time::ZERO,
            ser_delay: DurMemo::default(),
            departures: VecDeque::new(),
            accepted_pkts: 0,
            accepted_bytes: 0,
            dropped_pkts: 0,
            delivered_bytes: 0,
            fwd_prop,
            rev_prop,
            random_loss: spec.random_loss,
            noise: spec.noise.build(),
            faults: faults.map(|s| FaultState::new(s, fault_seed)),
        }
    }

    /// Bytes currently occupying the buffer (queued + in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Current one-way reverse propagation (the ACK path's share).
    pub fn rev_prop(&self) -> Dur {
        self.rev_prop
    }

    /// Offers a packet of `bytes` at time `now`.
    ///
    /// The in-service packet counts against the buffer, matching a shared
    /// NIC ring: a packet is accepted iff `queued + bytes <= buffer`.
    #[inline]
    pub fn offer(&mut self, now: Time, bytes: u64) -> Offer {
        if self.queued_bytes + bytes > self.buffer_bytes {
            self.dropped_pkts += 1;
            return Offer::Dropped;
        }
        let ser = self
            .ser_delay
            .get(bytes, self.rate_bps, serialization_delay);
        let departs = self.free_at.max(now) + ser;
        self.free_at = departs;
        self.queued_bytes += bytes;
        self.peak_queued_bytes = self.peak_queued_bytes.max(self.queued_bytes);
        self.accepted_pkts += 1;
        self.accepted_bytes += bytes;
        Offer::Departs(departs)
    }

    /// A previously accepted packet's departure time passed: releases its
    /// buffer space.
    pub fn on_departure(&mut self, bytes: u64) {
        debug_assert!(self.queued_bytes >= bytes, "departure underflow");
        self.queued_bytes = self.queued_bytes.saturating_sub(bytes);
        self.delivered_bytes += bytes;
    }

    /// Hands the departure of a just-accepted packet to the link: its buffer
    /// space is released by the first [`Link::release_before`] whose key
    /// follows `(at, seq)`. `at` is the time `offer` returned and `seq` the
    /// event sequence number a scheduled departure would carry.
    pub fn defer_departure(&mut self, at: Time, seq: u64, bytes: u64) {
        debug_assert!(
            self.departures
                .back()
                .is_none_or(|&(t, s, _)| (t, s) < (at, seq)),
            "departure FIFO must stay key-monotone"
        );
        self.departures.push_back((at, seq, bytes as u32));
    }

    /// Releases every deferred departure whose `(depart_at, seq)` key
    /// precedes `(at, seq)` — the ones a scheduler would have dispatched
    /// before the event with that key — and returns how many there were.
    #[inline]
    pub fn release_before(&mut self, at: Time, seq: u64) -> u64 {
        let mut released = 0;
        while let Some(&(t, s, bytes)) = self.departures.front() {
            if (t, s) >= (at, seq) {
                break;
            }
            self.departures.pop_front();
            self.on_departure(bytes as u64);
            released += 1;
        }
        released
    }

    /// Audit: the buffer occupancy equals the bytes of the departures the
    /// link still owns. Holds whenever every accepted packet was deferred.
    pub fn owns_all_queued(&self) -> bool {
        self.queued_bytes == self.departures.iter().map(|d| d.2 as u64).sum::<u64>()
    }

    /// Audit: every accepted byte completed service or is still queued.
    pub fn conserves_bytes(&self) -> bool {
        self.accepted_bytes == self.delivered_bytes + self.queued_bytes
    }

    /// Carries a packet that departs the queue at `depart_at` across the
    /// wire. Draws, in this order and only where configured: the fault
    /// layer's loss verdict (outage, then loss-chain step and loss draw —
    /// fault RNG), random loss (`rng`), data noise (`rng`), the reordering
    /// hold (fault RNG). Also returns the loss-burst boundary this packet
    /// crossed, if any, for the caller's trace.
    #[inline]
    pub fn wire(&mut self, depart_at: Time, rng: &mut SmallRng) -> (Wire, Option<Fault>) {
        let (lost, edge) = match &mut self.faults {
            Some(f) => f.wire_loss(),
            None => (false, None),
        };
        if lost || (self.random_loss > 0.0 && rng.random::<f64>() < self.random_loss) {
            return (Wire::Lost, edge);
        }
        let at = depart_at + self.fwd_prop + self.noise.data_delay(rng);
        let extra = self.faults.as_mut().and_then(FaultState::reorder_extra);
        let at = at + extra.unwrap_or(Dur::ZERO);
        let held = extra.is_some();
        (Wire::Arrives { at, held }, edge)
    }

    /// When the receiver behind this link releases an ACK generated at
    /// `now`: the noise model may hold it (WiFi MAC aggregation; `rng`),
    /// then an ACK-compression episode may hold it further (fault RNG).
    #[inline]
    pub fn ack_release(&mut self, now: Time, rng: &mut SmallRng) -> Time {
        let release = self.noise.ack_release(now, rng);
        match &mut self.faults {
            Some(f) => f.ack_release(release),
            None => release,
        }
    }

    /// Applies one scheduled link change and returns its trace record.
    ///
    /// A new rate takes effect from the next offered packet: packets already
    /// accepted keep the departure times committed at offer time (the
    /// virtual queue cannot cheaply re-plan them; the error is one packet's
    /// drain time). A new RTT is split like the configured one; in-flight
    /// packets keep the propagation delay they departed with.
    ///
    /// # Panics
    /// Panics if a new rate is not positive and finite.
    pub fn apply(&mut self, change: LinkChange) -> Fault {
        if let Some(f) = &mut self.faults {
            f.stats.link_changes += 1;
            f.down = match change {
                LinkChange::Down => true,
                LinkChange::Up => false,
                _ => f.down,
            };
        }
        let (kind, value) = match change {
            LinkChange::Bandwidth(mbps) => {
                assert!(mbps > 0.0 && mbps.is_finite());
                self.rate_bps = mbps * 1e6;
                (FaultKind::Bandwidth, mbps)
            }
            LinkChange::Rtt(rtt) => {
                (self.fwd_prop, self.rev_prop) = split_rtt(rtt);
                (FaultKind::Rtt, rtt.as_secs_f64())
            }
            LinkChange::Down => (FaultKind::OutageStart, 0.0),
            LinkChange::Up => (FaultKind::OutageEnd, 0.0),
        };
        Fault { kind, value }
    }

    /// The link's accounting for the run's result.
    pub fn summary(&self) -> LinkSummary {
        LinkSummary {
            rate_bps: self.configured_rate_bps,
            delivered_bytes: self.delivered_bytes,
            accepted_pkts: self.accepted_pkts,
            dropped_pkts: self.dropped_pkts,
            peak_queued_bytes: self.peak_queued_bytes,
            fault_stats: self.faults.as_ref().map(|f| f.stats).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{GilbertElliott, ReorderConfig, FAULT_SEED_SALT};
    use crate::noise::NoiseConfig;
    use rand::SeedableRng;

    /// 12 Mbps -> 1500 B serializes in 1 ms; 10 ms each way. Handy for
    /// exact arithmetic.
    fn spec() -> LinkSpec {
        LinkSpec::new(12.0, Dur::from_millis(20), 4500)
    }

    fn link() -> Link {
        Link::new(&spec(), None, 0)
    }

    fn departs(l: &mut Link, now: Time) -> Time {
        match l.offer(now, 1500) {
            Offer::Departs(t) => t,
            Offer::Dropped => panic!("should accept"),
        }
    }

    #[test]
    fn idle_link_serializes_immediately() {
        let mut l = link();
        assert_eq!(
            departs(&mut l, Time::from_millis(10)),
            Time::from_millis(11)
        );
        assert_eq!(l.queued_bytes(), 1500);
    }

    #[test]
    fn queueing_delays_accumulate() {
        let mut l = link();
        assert_eq!(departs(&mut l, Time::ZERO), Time::from_millis(1));
        assert_eq!(departs(&mut l, Time::ZERO), Time::from_millis(2));
    }

    #[test]
    fn tail_drop_when_full() {
        let mut l = link(); // 4500 B buffer = 3 packets
        for _ in 0..3 {
            departs(&mut l, Time::ZERO);
        }
        assert_eq!(l.offer(Time::ZERO, 1500), Offer::Dropped);
        let s = l.summary();
        assert_eq!((s.dropped_pkts, s.accepted_pkts), (1, 3));
        assert_eq!(s.peak_queued_bytes, 4500, "offer tracks the peak itself");
    }

    #[test]
    fn departure_frees_space() {
        let mut l = link();
        for _ in 0..3 {
            departs(&mut l, Time::ZERO);
        }
        l.on_departure(1500);
        assert_eq!(l.queued_bytes(), 3000);
        departs(&mut l, Time::from_millis(1));
        let s = l.summary();
        assert_eq!(s.delivered_bytes, 1500);
        assert_eq!(s.peak_queued_bytes, 4500, "a peak, not the occupancy");
    }

    #[test]
    fn work_conserving_after_idle() {
        let mut l = link();
        assert_eq!(departs(&mut l, Time::ZERO), Time::from_millis(1));
        l.on_departure(1500);
        // Link idle 10ms, next packet serializes from its own arrival.
        assert_eq!(
            departs(&mut l, Time::from_millis(10)),
            Time::from_millis(11)
        );
    }

    #[test]
    fn set_rate_applies_to_subsequent_offers() {
        let mut l = link();
        assert_eq!(departs(&mut l, Time::ZERO), Time::from_millis(1));
        // Halve the rate: the next packet serializes in 2 ms after the
        // committed backlog. The summary keeps the configured rate.
        let fault = l.apply(LinkChange::Bandwidth(6.0));
        assert_eq!((fault.kind, fault.value), (FaultKind::Bandwidth, 6.0));
        assert_eq!(departs(&mut l, Time::ZERO), Time::from_millis(3));
        assert_eq!(l.summary().rate_bps, 12e6);
    }

    /// The serialization delay is remembered from packet to packet, keyed
    /// by `(bytes, rate)`: a bandwidth step or a packet of another size
    /// changes the very next departure, and the old pair costs again.
    #[test]
    fn remembered_serialization_delay_follows_rate_and_size() {
        let mut l = Link::new(&spec().with_buffer_bytes(1 << 20), None, 0);
        // Offered back to back at t = 0, each packet departs one
        // serialization delay after the one before it.
        let mut last = Time::ZERO;
        let mut ser_us = |l: &mut Link, bytes: u64| {
            let Offer::Departs(at) = l.offer(Time::ZERO, bytes) else {
                panic!("should accept");
            };
            at.since(std::mem::replace(&mut last, at)).as_nanos() / 1000
        };
        assert_eq!(ser_us(&mut l, 1500), 1000);
        assert_eq!(ser_us(&mut l, 1500), 1000);
        assert_eq!(ser_us(&mut l, 750), 500);
        assert_eq!(ser_us(&mut l, 1500), 1000);
        l.apply(LinkChange::Bandwidth(24.0));
        assert_eq!(ser_us(&mut l, 1500), 500);
        assert_eq!(ser_us(&mut l, 1500), 500);
        l.apply(LinkChange::Bandwidth(12.0));
        assert_eq!(ser_us(&mut l, 1500), 1000);
    }

    #[test]
    fn deferred_departures_release_in_key_order() {
        let mut l = link();
        for seq in 1..=3u64 {
            let at = departs(&mut l, Time::ZERO);
            l.defer_departure(at, seq, 1500);
        }
        assert!(l.owns_all_queued());
        // Nothing precedes the first departure's own key; the key just
        // after it releases exactly that one.
        assert_eq!(l.release_before(Time::from_millis(1), 1), 0);
        assert_eq!(l.release_before(Time::from_millis(1), 2), 1);
        assert_eq!(l.queued_bytes(), 3000);
        assert_eq!(l.release_before(Time::from_millis(3), u64::MAX), 2);
        assert_eq!(l.queued_bytes(), 0);
        assert!(l.owns_all_queued() && l.conserves_bytes());
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        let _ = Link::new(&spec().with_buffer_bytes(0), None, 0);
    }

    #[test]
    fn rtt_change_resplits_propagation() {
        let mut l = link();
        let mut rng = SmallRng::seed_from_u64(1);
        let arrives = |l: &mut Link, rng: &mut SmallRng| match l.wire(Time::ZERO, rng).0 {
            Wire::Arrives { at, held: false } => at,
            other => panic!("clean wire: {other:?}"),
        };
        assert_eq!(arrives(&mut l, &mut rng), Time::from_millis(10));
        l.apply(LinkChange::Rtt(Dur::from_millis(61)));
        assert_eq!(arrives(&mut l, &mut rng), Time::from_micros(30_500));
        assert_eq!(l.rev_prop(), Dur::from_micros(30_500));
    }

    /// A scripted link with every wire process on: `wire` must consume the
    /// fault stream as (chain step, loss draw, reorder draw, hold fraction)
    /// and the main stream as (random loss, noise), in that order — replayed
    /// here by hand on clones of both streams.
    #[test]
    fn wire_draws_in_documented_order() {
        let (seed, p_loss, std) = (11, 0.2, Dur::from_millis(2));
        let ge = GilbertElliott {
            p_enter: 0.3,
            p_exit: 0.3,
            loss_good: 0.1,
            loss_bad: 0.6,
        };
        let reorder = ReorderConfig {
            prob: 0.3,
            max_extra: Dur::from_millis(40),
        };
        let sched = FaultSchedule::new()
            .with_burst_loss(ge)
            .with_reorder(reorder);
        let spec = spec()
            .with_random_loss(p_loss)
            .with_noise(NoiseConfig::Gaussian { std });
        let mut l = Link::new(&spec, Some(&sched), seed);
        let mut rng = SmallRng::seed_from_u64(5);

        let mut fault_rng = SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT);
        let mut main_rng = rng.clone();
        let mut noise = spec.noise.build();
        let (mut bad, mut seen) = (false, [0u32; 4]);
        for i in 0..2_000u64 {
            let depart_at = Time::from_millis(i);
            let (got, edge) = l.wire(depart_at, &mut rng);

            let flipped = fault_rng.random::<f64>() < if bad { ge.p_exit } else { ge.p_enter };
            bad ^= flipped;
            assert_eq!(edge.is_some(), flipped, "packet {i}");
            let p = if bad { ge.loss_bad } else { ge.loss_good };
            let want = if fault_rng.random::<f64>() < p || main_rng.random::<f64>() < p_loss {
                Wire::Lost
            } else {
                let at = depart_at + Dur::from_millis(10) + noise.data_delay(&mut main_rng);
                if fault_rng.random::<f64>() < reorder.prob {
                    let extra = fault_rng.random::<f64>() * reorder.max_extra.as_secs_f64();
                    let at = at + Dur::from_secs_f64(extra.max(1e-9));
                    Wire::Arrives { at, held: true }
                } else {
                    Wire::Arrives { at, held: false }
                }
            };
            assert_eq!(got, want, "packet {i}");
            seen[match got {
                Wire::Lost => 0,
                Wire::Arrives { held: true, .. } => 1,
                Wire::Arrives { held: false, .. } => 2,
            }] += 1;
            seen[3] += flipped as u32;
        }
        assert!(
            seen.iter().all(|&n| n > 100),
            "every branch taken: {seen:?}"
        );
        let stats = l.summary().fault_stats;
        assert_eq!(stats.reordered_pkts, seen[1] as u64);
    }

    #[test]
    fn outage_loses_everything_without_a_draw() {
        let sched = FaultSchedule::new().outage(Dur::from_secs(1), Dur::from_secs(1));
        let mut l = Link::new(&spec().with_random_loss(0.5), Some(&sched), 3);
        let mut rng = SmallRng::seed_from_u64(9);
        let fault = l.apply(LinkChange::Down);
        assert_eq!(fault.kind, FaultKind::OutageStart);
        for _ in 0..50 {
            assert_eq!(l.wire(Time::ZERO, &mut rng), (Wire::Lost, None));
        }
        assert_eq!(
            rng.random::<u64>(),
            SmallRng::seed_from_u64(9).random::<u64>()
        );
        let stats = l.summary().fault_stats;
        assert_eq!((stats.outage_drops, stats.link_changes), (50, 1));
    }
}
