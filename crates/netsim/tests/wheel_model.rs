//! Model-based property test: the timing wheel must pop in exactly the
//! same `(time, push-sequence)` order as the `BinaryHeap` it replaced in
//! the engine, under randomized interleavings of the operations the engine
//! performs — pushes at the current instant (same-timestamp ties), short
//! timer horizons, multi-level jumps, and far-future overflow entries —
//! mirroring the `SeqRing` vs `BTreeMap` model test
//! (`crates/transport/tests/seq_ring_model.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use proteus_netsim::sched::EventQueue;
use proteus_netsim::Scheduler;
use proteus_transport::Time;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `delta` ns after the last popped time.
    Push { delta: u64 },
    /// Pop up to `count` events (stops when empty).
    Pop { count: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas chosen to land in every region of the wheel: 0 exercises
    // same-instant ties and the drained-slot heap, small values stay inside
    // one level-0 slot (16.4 us), mid values cross level-0/1 windows, large
    // values hit levels 2-3, and huge values land in the overflow list.
    let delta = prop_oneof![
        3 => Just(0u64),
        4 => 1u64..20_000,
        3 => 20_000u64..5_000_000,
        2 => 5_000_000u64..2_000_000_000,
        1 => 2_000_000_000u64..100_000_000_000_000,
    ];
    prop_oneof![
        5 => delta.prop_map(|delta| Op::Push { delta }),
        3 => (1usize..8).prop_map(|count| Op::Pop { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_binary_heap_reference(ops in prop::collection::vec(op_strategy(), 1..500)) {
        // Deliberately tiny initial capacity: growth must never drop or
        // reorder entries.
        let mut wheel: EventQueue<u64> = EventQueue::new(Scheduler::Wheel, 4);
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // The engine never schedules into the past: every push lands at or
        // after the most recently popped time.
        let mut now = 0u64;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Push { delta } => {
                    seq += 1;
                    let at = now.saturating_add(delta);
                    wheel.push(Time::from_nanos(at), seq, seq);
                    reference.push(Reverse((at, seq)));
                }
                Op::Pop { count } => {
                    for _ in 0..count {
                        let want = reference
                            .pop()
                            .map(|Reverse((at, s))| (Time::from_nanos(at), s, s));
                        let got = wheel.pop();
                        prop_assert_eq!(got, want, "pop diverged at step {}", step);
                        if let Some((at, _, _)) = got {
                            now = at.as_nanos();
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), reference.len(), "len diverged at step {}", step);
        }

        // Drain: every remaining entry pops in exact (time, seq) order.
        while let Some(Reverse((at, s))) = reference.pop() {
            prop_assert_eq!(wheel.pop(), Some((Time::from_nanos(at), s, s)));
        }
        prop_assert!(wheel.pop().is_none());
    }
}
