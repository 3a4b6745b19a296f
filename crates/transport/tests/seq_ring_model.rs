//! Model-based property test: [`SeqRing`] must behave exactly like a
//! `BTreeMap<SeqNr, T>` under randomized interleavings of the operations
//! its three users perform — sends (monotone seqs, non-decreasing times),
//! ACK removals (hits, repeats, and out-of-range seqs), the engine's dup-ACK
//! oldest-first sweeps and RTO prefix pops. (The engine's in-flight tracker,
//! `MiTracker`'s packet→MI attribution — also checked end to end by
//! `mi_model.rs` — and BBR's delivery snapshots are all this one type.)

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
