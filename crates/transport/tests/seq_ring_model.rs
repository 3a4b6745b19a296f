//! Model-based property test: [`SeqRing`] must behave exactly like a
//! `BTreeMap<SeqNr, T>` under randomized interleavings of the operations
//! its users perform — sends (monotone seqs, non-decreasing times), ACK
//! removals (hits, repeats, and out-of-range seqs), the engine's dup-ACK
//! oldest-first sweeps and RTO prefix pops. (The engine's in-flight tracker
//! and BBR's delivery snapshots are both this one type.)
//!
//! The ring keeps its span in 64-slot pages, so the second half drives it
//! across page edges — forward gaps longer than a page, a ring emptied and
//! re-anchored past a gap, `pop_front` through an edge, spans up to 5 000 —
//! and checks after every step that it holds no more pages than its span
//! covers plus one spare.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proteus_transport::{SeqNr, SeqRing, Time};

/// The value the engine stores: send time and size.
type Pkt = (Time, u64);

#[derive(Debug, Clone)]
enum Op {
    /// Transmit the next sequence number at the current time.
    Send { bytes: u64 },
    /// ACK an arbitrary sequence number (possibly already gone or never sent).
    Ack { pick: u64 },
    /// Dup-ACK loss inference: declare up to `count` oldest packets lost.
    DupAckSweep { count: usize },
    /// RTO: drain every packet sent at or before a cutoff, oldest first.
    RtoSweep,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u64..=1500).prop_map(|bytes| Op::Send { bytes }),
        4 => any::<u64>().prop_map(|pick| Op::Ack { pick }),
        1 => (0usize..4).prop_map(|count| Op::DupAckSweep { count }),
        1 => Just(Op::RtoSweep),
    ]
}

/// The reference model's view of the oldest outstanding packet.
fn ref_front(reference: &BTreeMap<SeqNr, Pkt>) -> Option<(SeqNr, Pkt)> {
    reference.iter().next().map(|(&seq, &pkt)| (seq, pkt))
}

fn front(ring: &SeqRing<Pkt>) -> Option<(SeqNr, Pkt)> {
    ring.front().map(|(seq, &pkt)| (seq, pkt))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ring_matches_btreemap_reference(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut tracker = SeqRing::new();
        let mut reference: BTreeMap<SeqNr, Pkt> = BTreeMap::new();
        let mut next_seq: SeqNr = 0;

        for (step, op) in ops.iter().enumerate() {
            let now = Time::from_millis(step as u64);
            match *op {
                Op::Send { bytes } => {
                    tracker.insert(next_seq, (now, bytes));
                    reference.insert(next_seq, (now, bytes));
                    next_seq += 1;
                }
                Op::Ack { pick } => {
                    // Bias slightly past `next_seq` so removals beyond the
                    // tail get exercised too.
                    let seq = pick % (next_seq + 3);
                    let got = tracker.remove(seq);
                    prop_assert_eq!(got, reference.remove(&seq), "remove({}) at step {}", seq, step);
                }
                Op::DupAckSweep { count } => {
                    for _ in 0..count {
                        let want = ref_front(&reference);
                        if let Some((seq, _)) = want {
                            reference.remove(&seq);
                        }
                        prop_assert_eq!(tracker.pop_front(), want, "pop_front at step {}", step);
                    }
                }
                Op::RtoSweep => {
                    let cutoff = Time::from_millis(step as u64 / 2);
                    while let Some((_, (sent_at, _))) = front(&tracker) {
                        if sent_at > cutoff {
                            break;
                        }
                        let want = ref_front(&reference);
                        if let Some((seq, _)) = want {
                            reference.remove(&seq);
                        }
                        prop_assert_eq!(tracker.pop_front(), want, "rto pop at step {}", step);
                    }
                    // Times are non-decreasing in seq, so the model must also
                    // have nothing at or before the cutoff left.
                    if let Some((_, (sent_at, _))) = ref_front(&reference) {
                        prop_assert!(sent_at > cutoff, "model retains expired packet");
                    }
                }
            }
            prop_assert_eq!(tracker.len(), reference.len(), "len diverged at step {}", step);
            prop_assert_eq!(tracker.is_empty(), reference.is_empty());
            prop_assert_eq!(front(&tracker), ref_front(&reference), "front diverged at step {}", step);
        }
    }
}

/// Slots in one page of the ring.
const PAGE: u64 = 64;
/// The widest span the page-edge property builds.
const MAX_SPAN: u64 = 5_000;

/// A ring and its reference, driven in lockstep.
#[derive(Default)]
struct Model {
    ring: SeqRing<Pkt>,
    reference: BTreeMap<SeqNr, Pkt>,
    next_seq: SeqNr,
    /// The last sequence number sent.
    last: SeqNr,
}

impl Model {
    /// Sends `count` consecutive sequence numbers at `now`.
    fn send(&mut self, count: u64, now: Time) {
        for _ in 0..count {
            let pkt = (now, 1 + self.next_seq % 1500);
            self.ring.insert(self.next_seq, pkt);
            self.reference.insert(self.next_seq, pkt);
            self.last = self.next_seq;
            self.next_seq += 1;
        }
    }

    /// Skips `gap` sequence numbers: never sent, they read as removed.
    fn skip(&mut self, gap: u64) {
        self.next_seq += gap;
    }

    fn remove(&mut self, seq: SeqNr) {
        assert_eq!(
            self.ring.remove(seq),
            self.reference.remove(&seq),
            "remove({seq})"
        );
    }

    fn pop_front(&mut self) {
        let want = ref_front(&self.reference);
        if let Some((seq, _)) = want {
            self.reference.remove(&seq);
        }
        assert_eq!(self.ring.pop_front(), want, "pop_front");
    }

    /// Sequence numbers from the oldest outstanding one to the last sent.
    fn span(&self) -> u64 {
        ref_front(&self.reference).map_or(0, |(seq, _)| self.last + 1 - seq)
    }

    /// Same contents, and no more pages than the span covers plus a spare.
    fn check(&self, step: usize) {
        assert_eq!(self.ring.len(), self.reference.len(), "len at step {step}");
        assert_eq!(self.ring.is_empty(), self.reference.is_empty());
        assert_eq!(
            front(&self.ring),
            ref_front(&self.reference),
            "front at step {step}"
        );
        let covered =
            ref_front(&self.reference).map_or(0, |(seq, _)| self.last / PAGE - seq / PAGE + 1);
        assert!(
            self.ring.capacity() as u64 <= (covered + 1) * PAGE,
            "step {step}: {} slots held for a span over {covered} pages",
            self.ring.capacity()
        );
    }
}

#[derive(Debug, Clone)]
enum PageOp {
    /// Send a run of consecutive sequence numbers (the span stays within
    /// `MAX_SPAN`).
    Burst { count: u64 },
    /// Skip sequence numbers, often more than a page of them.
    Skip { gap: u64 },
    /// ACK an arbitrary sequence number of the span or just past it.
    Ack { pick: u64 },
    /// ACK the oldest outstanding packets in order, as an ACK clock does.
    AckRun { count: usize },
    /// Pop the oldest entries, often through a page edge.
    Sweep { count: usize },
    /// Pop everything: the next send re-anchors the ring.
    Drain,
}

fn page_op_strategy() -> impl Strategy<Value = PageOp> {
    prop_oneof![
        4 => (1u64..=2_000).prop_map(|count| PageOp::Burst { count }),
        2 => (1u64..=300).prop_map(|gap| PageOp::Skip { gap }),
        4 => any::<u64>().prop_map(|pick| PageOp::Ack { pick }),
        3 => (0usize..=400).prop_map(|count| PageOp::AckRun { count }),
        2 => (0usize..=150).prop_map(|count| PageOp::Sweep { count }),
        1 => Just(PageOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn paged_ring_matches_btreemap_reference_across_page_edges(
        ops in prop::collection::vec(page_op_strategy(), 1..120)
    ) {
        let mut m = Model::default();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                PageOp::Burst { count } => {
                    let room = MAX_SPAN - m.span().min(MAX_SPAN);
                    m.send(count.min(room), Time::from_millis(step as u64));
                }
                PageOp::Skip { gap } => m.skip(gap),
                PageOp::Ack { pick } => {
                    let lo = ref_front(&m.reference).map_or(0, |(seq, _)| seq);
                    m.remove(lo + pick % (m.next_seq + 3 - lo));
                }
                PageOp::AckRun { count } => {
                    for _ in 0..count {
                        match ref_front(&m.reference) {
                            Some((seq, _)) => m.remove(seq),
                            None => break,
                        }
                    }
                }
                PageOp::Sweep { count } => {
                    for _ in 0..count {
                        m.pop_front();
                    }
                }
                PageOp::Drain => {
                    while !m.reference.is_empty() {
                        m.pop_front();
                    }
                }
            }
            m.check(step);
        }
    }
}

#[test]
fn forward_gaps_longer_than_a_page_read_as_removed() {
    let mut m = Model::default();
    m.send(3, Time::ZERO);
    for (step, gap) in [65, 64, 200, 1, 130].into_iter().enumerate() {
        m.skip(gap);
        m.send(2, Time::from_millis(step as u64));
        m.check(step);
    }
    // Misses inside the skipped pages, hits on both sides of them.
    for seq in [3, 60, 68, 69, 100, 135, 136, 200, 338] {
        m.remove(seq);
        m.check(seq as usize);
    }
    while !m.reference.is_empty() {
        m.pop_front();
        m.check(0);
    }
    assert!(
        m.ring.capacity() <= PAGE as usize,
        "an empty ring keeps one spare"
    );
}

#[test]
fn emptied_ring_reanchors_past_a_gap() {
    let mut m = Model::default();
    m.send(100, Time::ZERO);
    for round in 0..4u64 {
        // Emptied oldest first, or newest first so that the head page is
        // the last to go.
        while let Some((&seq, _)) = m.reference.iter().next_back() {
            if round % 2 == 0 {
                m.pop_front();
            } else {
                m.remove(seq);
            }
            m.check(round as usize);
        }
        // Past the gap the ring starts again, mid-page or on an edge.
        m.skip(500 + 13 * round);
        m.send(70, Time::from_millis(round));
        m.remove(m.next_seq - 1);
        m.remove(m.next_seq - 70);
        m.check(round as usize);
    }
    // An empty ring anchors wherever the next insert lands, even below.
    while m.ring.pop_front().is_some() {}
    m.ring.insert(5, (Time::ZERO, 1));
    assert_eq!(front(&m.ring), Some((5, (Time::ZERO, 1))));
}

#[test]
fn pop_front_walks_through_page_edges() {
    let mut m = Model::default();
    m.skip(60);
    m.send(300, Time::ZERO);
    // Holes on both sides of the edges at 64, 128 and 256, and a page
    // (192..256) with nothing left in it.
    for seq in (62..70).chain(126..131).chain(190..258) {
        m.remove(seq);
    }
    m.check(0);
    for step in 0..m.reference.len() {
        m.pop_front();
        m.check(step);
    }
}

#[test]
fn spans_up_to_five_thousand_shrink_back_to_their_pages() {
    let mut m = Model::default();
    m.send(MAX_SPAN, Time::ZERO);
    m.check(0);
    // Every third packet lost, the rest ACKed in order.
    for seq in 0..MAX_SPAN {
        if seq % 3 != 0 {
            m.remove(seq);
        }
    }
    m.check(1);
    // The losses declared oldest first, the window sliding on.
    for step in 0..MAX_SPAN as usize {
        m.pop_front();
        m.send(1, Time::from_millis(step as u64));
        m.check(step);
    }
    while m.span() > 8 {
        m.pop_front();
    }
    m.check(0);
    assert!(m.ring.capacity() <= 3 * PAGE as usize);
}
