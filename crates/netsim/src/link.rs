//! The bottleneck link: a FIFO tail-drop queue drained at a fixed rate.
//!
//! Every emulated experiment in the paper runs over a single dumbbell
//! bottleneck characterized by (bandwidth, RTT, buffer). This module models
//! that bottleneck exactly: packets offered to the link either fit in the
//! remaining buffer (and depart after queueing + serialization) or are
//! tail-dropped.
//!
//! The implementation uses a *virtual queue*: because service is FIFO and
//! work-conserving, a packet's departure time is fully determined at arrival
//! (`max(now, link_free_at) + serialization`), so no per-packet dequeue
//! events are needed. Buffer occupancy is decremented when the departure
//! time passes: either the engine calls [`BottleneckLink::on_departure`] from
//! a scheduled event, or the link owns its departures — a FIFO filled by
//! [`BottleneckLink::defer_departure`] and released lazily by
//! [`BottleneckLink::release_before`] ahead of whichever call next reads
//! the occupancy.

use std::collections::VecDeque;

use proteus_transport::{serialization_delay, Dur, Time};

/// Outcome of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The packet was accepted and will finish serializing at this time.
    Departs(Time),
    /// The buffer was full; the packet is tail-dropped.
    Dropped,
}

/// A fixed-rate, tail-drop FIFO bottleneck.
#[derive(Debug, Clone)]
pub struct BottleneckLink {
    rate_bps: f64,
    buffer_bytes: u64,
    /// Bytes currently queued or in service.
    queued_bytes: u64,
    /// Time the serializer becomes free.
    free_at: Time,
    /// Link-owned departures `(depart_at, seq, bytes)` not yet released, in
    /// admission order — which is also `(depart_at, seq)` order, because
    /// `free_at` and the engine's sequence counter are both monotone.
    departures: VecDeque<(Time, u64, u32)>,
    /// Counters.
    accepted_pkts: u64,
    accepted_bytes: u64,
    dropped_pkts: u64,
    delivered_bytes: u64,
}

impl BottleneckLink {
    /// Creates a link with the given rate (bits/sec) and buffer (bytes).
    ///
    /// # Panics
    /// Panics if the rate is not positive or the buffer is zero.
    pub fn new(rate_bps: f64, buffer_bytes: u64) -> Self {
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        assert!(buffer_bytes > 0, "a zero buffer cannot hold any packet");
        Self {
            rate_bps,
            buffer_bytes,
            queued_bytes: 0,
            free_at: Time::ZERO,
            departures: VecDeque::new(),
            accepted_pkts: 0,
            accepted_bytes: 0,
            dropped_pkts: 0,
            delivered_bytes: 0,
        }
    }

    /// Link rate, bits/sec.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Changes the drain rate (time-varying links / fault injection).
    ///
    /// Packets already accepted keep the departure times committed at offer
    /// time — the virtual queue cannot cheaply re-plan them — so the new
    /// rate takes effect from the next offered packet. With per-packet
    /// serialization times in the sub-millisecond range the approximation
    /// error is one packet's worth of drain time.
    ///
    /// # Panics
    /// Panics if the rate is not positive and finite.
    pub fn set_rate(&mut self, rate_bps: f64) {
        assert!(rate_bps > 0.0 && rate_bps.is_finite());
        self.rate_bps = rate_bps;
    }

    /// Configured buffer size, bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }

    /// Bytes currently occupying the buffer (queued + in service).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Offers a packet of `bytes` at time `now`.
    ///
    /// The in-service packet counts against the buffer, matching a shared
    /// NIC ring: a packet is accepted iff `queued + bytes <= buffer`.
    pub fn offer(&mut self, now: Time, bytes: u64) -> Offer {
        if self.queued_bytes + bytes > self.buffer_bytes {
            self.dropped_pkts += 1;
            return Offer::Dropped;
        }
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        let departs = start + serialization_delay(bytes, self.rate_bps);
        self.free_at = departs;
        self.queued_bytes += bytes;
        self.accepted_pkts += 1;
        self.accepted_bytes += bytes;
        Offer::Departs(departs)
    }

    /// Called by the engine when a previously accepted packet's departure
    /// time passes: releases its buffer space.
    pub fn on_departure(&mut self, bytes: u64) {
        debug_assert!(self.queued_bytes >= bytes, "departure underflow");
        self.queued_bytes = self.queued_bytes.saturating_sub(bytes);
        self.delivered_bytes += bytes;
    }

    /// Hands the departure of a just-accepted packet to the link: its buffer
    /// space is released by the first [`BottleneckLink::release_before`]
    /// whose key follows `(at, seq)`. `at` is the time `offer` returned and
    /// `seq` the event sequence number a scheduled departure would carry.
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

    /// Queueing + serialization delay a hypothetical packet would see now.
    pub fn current_delay(&self, now: Time, bytes: u64) -> Dur {
        let wait = self.free_at.since(now);
        wait + serialization_delay(bytes, self.rate_bps)
    }

    /// Packets accepted so far.
    pub fn accepted_pkts(&self) -> u64 {
        self.accepted_pkts
    }

    /// Bytes accepted so far (delivered, or still occupying the buffer).
    pub fn accepted_bytes(&self) -> u64 {
        self.accepted_bytes
    }

    /// Packets tail-dropped so far.
    pub fn dropped_pkts(&self) -> u64 {
        self.dropped_pkts
    }

    /// Bytes that completed service.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 12 Mbps -> 1500 B serializes in 1 ms. Handy for exact arithmetic.
    fn link() -> BottleneckLink {
        BottleneckLink::new(12_000_000.0, 4500)
    }

    #[test]
    fn idle_link_serializes_immediately() {
        let mut l = link();
        match l.offer(Time::from_millis(10), 1500) {
            Offer::Departs(t) => assert_eq!(t, Time::from_millis(11)),
            Offer::Dropped => panic!("should accept"),
        }
        assert_eq!(l.queued_bytes(), 1500);
    }

    #[test]
    fn queueing_delays_accumulate() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500) else {
            panic!()
        };
        let Offer::Departs(t2) = l.offer(Time::ZERO, 1500) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        assert_eq!(t2, Time::from_millis(2));
    }

    #[test]
    fn tail_drop_when_full() {
        let mut l = link(); // 4500 B buffer = 3 packets
        for _ in 0..3 {
            assert!(matches!(l.offer(Time::ZERO, 1500), Offer::Departs(_)));
        }
        assert_eq!(l.offer(Time::ZERO, 1500), Offer::Dropped);
        assert_eq!(l.dropped_pkts(), 1);
        assert_eq!(l.accepted_pkts(), 3);
    }

    #[test]
    fn departure_frees_space() {
        let mut l = link();
        for _ in 0..3 {
            l.offer(Time::ZERO, 1500);
        }
        l.on_departure(1500);
        assert_eq!(l.queued_bytes(), 3000);
        assert!(matches!(
            l.offer(Time::from_millis(1), 1500),
            Offer::Departs(_)
        ));
        assert_eq!(l.delivered_bytes(), 1500);
    }

    #[test]
    fn work_conserving_after_idle() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500) else {
            panic!()
        };
        l.on_departure(1500);
        // Link idle 10ms, next packet serializes from its own arrival.
        let Offer::Departs(t2) = l.offer(Time::from_millis(10), 1500) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        assert_eq!(t2, Time::from_millis(11));
    }

    #[test]
    fn current_delay_reports_backlog() {
        let mut l = link();
        assert_eq!(l.current_delay(Time::ZERO, 1500), Dur::from_millis(1));
        l.offer(Time::ZERO, 1500);
        l.offer(Time::ZERO, 1500);
        assert_eq!(l.current_delay(Time::ZERO, 1500), Dur::from_millis(3));
    }

    #[test]
    fn set_rate_applies_to_subsequent_offers() {
        let mut l = link();
        let Offer::Departs(t1) = l.offer(Time::ZERO, 1500) else {
            panic!()
        };
        assert_eq!(t1, Time::from_millis(1));
        // Halve the rate: the next packet serializes in 2 ms after the
        // committed backlog.
        l.set_rate(6_000_000.0);
        assert_eq!(l.rate_bps(), 6_000_000.0);
        let Offer::Departs(t2) = l.offer(Time::ZERO, 1500) else {
            panic!()
        };
        assert_eq!(t2, Time::from_millis(3));
    }

    #[test]
    fn deferred_departures_release_in_key_order() {
        let mut l = link();
        for seq in 1..=3u64 {
            let Offer::Departs(at) = l.offer(Time::ZERO, 1500) else {
                panic!()
            };
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
        assert!(l.owns_all_queued());
        assert_eq!(l.accepted_bytes(), l.delivered_bytes());
    }

    #[test]
    #[should_panic]
    fn zero_buffer_rejected() {
        let _ = BottleneckLink::new(1e6, 0);
    }
}
