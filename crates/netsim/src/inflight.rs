//! In-flight packet tracking for the per-ACK hot path.
//!
//! The set of a flow's outstanding packets is a [`SeqRing`] of
//! [`InflightPkt`]: insert at the tail, remove an arbitrary ACKed sequence
//! number, read or pop the oldest outstanding packet — all O(1) (see
//! `proteus_transport::seq_ring`; the model test against a `BTreeMap` lives
//! there too).

use std::num::NonZeroU64;

use proteus_transport::{SeqRing, Time};

/// Bits of a packed record that hold the packet size.
const BYTES_BITS: u32 = 16;

/// The instant from which a send time no longer fits beside the size: 2^48
/// ns, about 78 hours. `Sim::new` rejects a scenario that runs this long.
pub(crate) const SENT_AT_LIMIT: Time = Time::from_nanos(1 << (64 - BYTES_BITS));

/// One outstanding packet: when it was sent and how big it was, packed as
/// `(sent_at_ns << 16) | bytes` so that a ring slot (`Option<InflightPkt>`)
/// is 8 bytes, the zero niche being the empty slot. A lossy flow holds
/// thousands of slots and a population thousands of flows.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InflightPkt(NonZeroU64);

impl InflightPkt {
    /// Records a packet of `bytes` bytes sent at `sent_at`.
    ///
    /// # Panics
    /// Panics if `bytes` is zero. `bytes < 2^16` and `sent_at <`
    /// `SENT_AT_LIMIT` are the caller's to keep: the engine sends at most
    /// `DEFAULT_PACKET_BYTES` at a time, inside a run `Sim::new` bounded.
    #[inline]
    pub fn new(sent_at: Time, bytes: u64) -> Self {
        debug_assert!(bytes >> BYTES_BITS == 0 && sent_at < SENT_AT_LIMIT);
        let packed = (sent_at.as_nanos() << BYTES_BITS) | bytes;
        InflightPkt(NonZeroU64::new(packed).expect("a packet has at least one byte"))
    }

    /// Transmission time.
    #[inline]
    pub fn sent_at(self) -> Time {
        Time::from_nanos(self.0.get() >> BYTES_BITS)
    }

    /// Packet size, bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.0.get() & ((1 << BYTES_BITS) - 1)
    }
}

impl std::fmt::Debug for InflightPkt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InflightPkt")
            .field("sent_at", &self.sent_at())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A flow's outstanding packets, keyed by sequence number.
pub type InflightTracker = SeqRing<InflightPkt>;

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_transport::SeqNr;

    fn pkt(ms: u64, bytes: u64) -> InflightPkt {
        InflightPkt::new(Time::from_millis(ms), bytes)
    }

    fn front(t: &InflightTracker) -> Option<(SeqNr, InflightPkt)> {
        t.front().map(|(seq, &p)| (seq, p))
    }

    #[test]
    fn record_is_eight_bytes_and_round_trips_at_the_field_limits() {
        assert_eq!(std::mem::size_of::<Option<InflightPkt>>(), 8);
        let last = Time::from_nanos(SENT_AT_LIMIT.as_nanos() - 1);
        for sent_at in [Time::ZERO, last] {
            for bytes in [1, 1500, 65_535] {
                let p = InflightPkt::new(sent_at, bytes);
                assert_eq!((p.sent_at(), p.bytes()), (sent_at, bytes));
            }
        }
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut t = InflightTracker::new();
        assert!(t.is_empty());
        t.insert(0, pkt(1, 1500));
        t.insert(1, pkt(2, 1000));
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(0), Some(pkt(1, 1500)));
        assert_eq!(t.remove(0), None, "double-remove misses");
        assert_eq!(t.remove(1), Some(pkt(2, 1000)));
        assert!(t.is_empty());
    }

    #[test]
    fn front_skips_removed_holes() {
        let mut t = InflightTracker::new();
        for s in 0..5 {
            t.insert(s, pkt(s, 100));
        }
        // Punch holes at the front and middle.
        t.remove(0);
        t.remove(2);
        assert_eq!(front(&t), Some((1, pkt(1, 100))));
        t.remove(1);
        assert_eq!(front(&t), Some((3, pkt(3, 100))));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pop_front_drains_in_seq_order() {
        let mut t = InflightTracker::new();
        for s in 10..15 {
            t.insert(s, pkt(s, 100));
        }
        t.remove(12);
        let drained: Vec<SeqNr> = std::iter::from_fn(|| t.pop_front().map(|(s, _)| s)).collect();
        assert_eq!(drained, vec![10, 11, 13, 14]);
        assert!(t.is_empty());
    }

    #[test]
    fn reuse_after_full_drain() {
        let mut t = InflightTracker::new();
        t.insert(0, pkt(0, 1));
        t.remove(0);
        // Ring empty; head re-anchors at the next insert even if seqs jumped.
        t.insert(7, pkt(7, 2));
        assert_eq!(front(&t), Some((7, pkt(7, 2))));
    }

    #[test]
    fn out_of_range_removals_miss() {
        let mut t = InflightTracker::new();
        t.insert(5, pkt(0, 1));
        assert_eq!(t.remove(4), None, "below head");
        assert_eq!(t.remove(6), None, "beyond tail");
        assert_eq!(t.len(), 1);
    }
}
