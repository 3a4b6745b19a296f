//! Model-based property test: [`SeqSet`] must behave exactly like a
//! `BTreeSet<SeqNr>` under randomized interleavings of what `MiTracker` does
//! with it — inserts of rising sequence numbers (with gaps: packets sent
//! while no MI was open are never attributed) and removals that hit, repeat
//! and stray — across word boundaries and through full trims to empty and
//! re-use. (`mi_model.rs` checks the tracker built on it end to end.)

use std::collections::BTreeSet;

use proptest::prelude::*;
use proteus_transport::{SeqNr, SeqSet};

#[derive(Debug, Clone)]
enum Op {
    /// Insert the sequence number `gap` past the next unused one.
    Insert { gap: u64 },
    /// Remove an arbitrary sequence number (possibly gone or never there).
    Remove { pick: u64 },
    /// Remove the `count` lowest members: the front words trim away.
    RemoveOldest { count: usize },
    /// Remove every member: the set re-anchors at the next insert.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Mostly consecutive, sometimes skipping within or beyond a word.
        8 => Just(Op::Insert { gap: 0 }),
        2 => (1u64..200).prop_map(|gap| Op::Insert { gap }),
        8 => any::<u64>().prop_map(|pick| Op::Remove { pick }),
        2 => (1usize..100).prop_map(|count| Op::RemoveOldest { count }),
        1 => Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn set_matches_btreeset_reference(
        // The set anchors wherever the first insert lands.
        first in 0u64..130,
        ops in prop::collection::vec(op_strategy(), 1..600),
    ) {
        let mut set = SeqSet::new();
        let mut reference: BTreeSet<SeqNr> = BTreeSet::new();
        let mut next_seq: SeqNr = first;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert { gap } => {
                    next_seq += gap;
                    set.insert(next_seq);
                    reference.insert(next_seq);
                    next_seq += 1;
                }
                Op::Remove { pick } => {
                    // Biased slightly past `next_seq` and below `first`, so
                    // strays beyond the tail and below the base occur too.
                    let seq = pick % (next_seq + 3);
                    let got = set.remove(seq);
                    prop_assert_eq!(got, reference.remove(&seq), "remove({}) at step {}", seq, step);
                    prop_assert!(!set.remove(seq), "repeat remove({}) at step {}", seq, step);
                }
                Op::RemoveOldest { count } => {
                    for _ in 0..count {
                        let Some(seq) = reference.pop_first() else { break };
                        prop_assert!(set.remove(seq), "remove oldest {} at step {}", seq, step);
                    }
                }
                Op::Clear => {
                    while let Some(seq) = reference.pop_last() {
                        prop_assert!(set.remove(seq), "clear {} at step {}", seq, step);
                    }
                }
            }
            prop_assert_eq!(set.len(), reference.len(), "len diverged at step {}", step);
            prop_assert_eq!(set.is_empty(), reference.is_empty());
        }

        // Exactly the reference's members are left, each removable once.
        for seq in first.saturating_sub(2)..next_seq + 2 {
            prop_assert_eq!(set.remove(seq), reference.remove(&seq), "final remove({})", seq);
        }
        prop_assert!(set.is_empty());
    }
}
