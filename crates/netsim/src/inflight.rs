//! In-flight packet tracking for the per-ACK hot path.
//!
//! The set of a flow's outstanding packets is a [`SeqRing`] of
//! [`InflightPkt`]: insert at the tail, remove an arbitrary ACKed sequence
//! number, read or pop the oldest outstanding packet — all O(1) (see
//! `proteus_transport::seq_ring`; the model test against a `BTreeMap` lives
//! there too).

use proteus_transport::{SeqRing, Time};

/// One outstanding packet: when it was sent and how big it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightPkt {
    /// Transmission time.
    pub sent_at: Time,
    /// Packet size, bytes.
    pub bytes: u64,
}

/// A flow's outstanding packets, keyed by sequence number.
pub type InflightTracker = SeqRing<InflightPkt>;

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_transport::SeqNr;

    fn pkt(ms: u64, bytes: u64) -> InflightPkt {
        InflightPkt {
            sent_at: Time::from_millis(ms),
            bytes,
        }
    }

    fn front(t: &InflightTracker) -> Option<(SeqNr, InflightPkt)> {
        t.front().map(|(seq, &p)| (seq, p))
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
