//! Sinks: where decision events go.
//!
//! Recording sites are generic over [`TraceSink`] and guard every emission
//! with `if S::ENABLED { ... }`. `ENABLED` is an associated *constant*, so
//! for [`NoopSink`] the branch — and everything needed only to build the
//! event — is dead code the optimizer removes entirely: tracing that is off
//! costs nothing on the per-ACK hot path.

use crate::event::DecisionEvent;

/// Destination for decision events.
pub trait TraceSink {
    /// Whether this sink records anything. Emission sites compile their
    /// event construction away when this is `false`.
    const ENABLED: bool;

    /// Records one event. Must not allocate in steady state (senders call
    /// this from the per-ACK path).
    fn record(&mut self, ev: DecisionEvent);

    /// Moves all buffered events into `out` (oldest first) and empties the
    /// sink. The caller owns `out`'s capacity, so repeated drains reuse it.
    fn drain_into(&mut self, out: &mut Vec<DecisionEvent>);
}

/// The default sink: records nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: DecisionEvent) {}

    #[inline(always)]
    fn drain_into(&mut self, _out: &mut Vec<DecisionEvent>) {}
}

/// Capacity of a decision-traced sender's ring. Proteus closes one MI
/// every 1–2 RTTs and a traced run drains rings every telemetry sample
/// (every 100 ms, netsim's `TRACE_EVERY`), so a few events per drain is
/// typical; 4096 keeps minutes of history even if draining stalls, while
/// reserving ~0.6 MB per flow up front.
pub const MI_RING_CAPACITY: usize = 4096;

/// A preallocated ring buffer keeping the most recent `capacity` events.
///
/// `record` never allocates: the backing vector is reserved up front and,
/// once full, the oldest event is overwritten (the overwrite count is kept
/// in [`RingSink::dropped`] so exporters can report truncation instead of
/// silently presenting a partial trace). Periodic draining — the simulation
/// engine drains every telemetry sample — keeps the ring far from full in
/// practice.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<DecisionEvent>,
    cap: usize,
    /// Oldest entry once the ring has wrapped; meaningless before that.
    next: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten before they could be drained (0 means the trace
    /// is complete).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    const ENABLED: bool = true;

    fn record(&mut self, ev: DecisionEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn drain_into(&mut self, out: &mut Vec<DecisionEvent>) {
        // Chronological order: once wrapped, the oldest entry sits at `next`.
        if self.buf.len() == self.cap && self.next != 0 {
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
        } else {
            out.extend_from_slice(&self.buf);
        }
        self.buf.clear();
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AckFilter, EventKind};

    fn ev(t: u64) -> DecisionEvent {
        DecisionEvent {
            t_ns: t,
            kind: EventKind::AckFilter(AckFilter {
                dropping: false,
                accepted: t,
                dropped: 0,
            }),
        }
    }

    #[test]
    fn ring_keeps_order_before_wrap() {
        let mut s = RingSink::new(4);
        for t in 0..3 {
            s.record(ev(t));
        }
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out.iter().map(|e| e.t_ns).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_after_wrap() {
        let mut s = RingSink::new(3);
        for t in 0..5 {
            s.record(ev(t));
        }
        assert_eq!(s.dropped(), 2);
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out.iter().map(|e| e.t_ns).collect::<Vec<_>>(), [2, 3, 4]);
    }

    #[test]
    fn ring_reusable_after_drain() {
        let mut s = RingSink::new(2);
        for t in 0..4 {
            s.record(ev(t));
        }
        let mut out = Vec::new();
        s.drain_into(&mut out);
        s.record(ev(9));
        out.clear();
        s.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].t_ns, 9);
    }

    #[test]
    fn record_never_allocates_once_built() {
        // Capacity is reserved at construction; wraps reuse the same slots.
        let mut s = RingSink::new(8);
        let cap_before = s.buf.capacity();
        for t in 0..100 {
            s.record(ev(t));
        }
        assert_eq!(s.buf.capacity(), cap_before);
    }

    #[test]
    fn noop_sink_discards() {
        let mut s = NoopSink;
        s.record(ev(1));
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert!(out.is_empty());
        const {
            assert!(!NoopSink::ENABLED);
            assert!(RingSink::ENABLED);
        }
    }
}
