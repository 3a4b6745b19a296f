//! Model-based property test: the timing wheel must pop in exactly the
//! same `(time, push-sequence)` order as the `BinaryHeap` it replaced in
//! the engine, under randomized interleavings of the operations the engine
//! performs — pushes at the current instant (same-timestamp ties), short
//! timer horizons, multi-level jumps, far-future overflow entries and
//! same-instant bursts (a population starting at once) — mirroring the
//! `SeqRing` vs `BTreeMap` model test
//! (`crates/transport/tests/seq_ring_model.rs`). The op sequence runs twice
//! on one wheel with a full drain in between, so the second pass is served
//! from recycled arena nodes.

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
    /// Schedule `count` events at one instant `delta` ns after the last
    /// popped time: one slot's list takes them all.
    Burst { delta: u64, count: usize },
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
    // The vendored proptest has no tuple strategies; a burst's size and
    // distance come from one draw. Its delta reaches levels 0-2.
    let burst = any::<u64>().prop_map(|raw| Op::Burst {
        delta: (raw >> 8) % 2_000_000_000,
        count: 2 + (raw & 0x3f) as usize,
    });
    prop_oneof![
        10 => delta.prop_map(|delta| Op::Push { delta }),
        1 => burst,
        6 => (1usize..8).prop_map(|count| Op::Pop { count }),
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

        for pass in 0..2 {
            for (step, op) in ops.iter().enumerate() {
                let (delta, pushes) = match *op {
                    Op::Push { delta } => (delta, 1),
                    Op::Burst { delta, count } => (delta, count),
                    Op::Pop { count } => {
                        for _ in 0..count {
                            let want = reference
                                .pop()
                                .map(|Reverse((at, s))| (Time::from_nanos(at), s, s));
                            let got = wheel.pop();
                            prop_assert_eq!(got, want, "pop diverged at step {}.{}", pass, step);
                            if let Some((at, _, _)) = got {
                                now = at.as_nanos();
                            }
                        }
                        (0, 0)
                    }
                };
                let at = now.saturating_add(delta);
                for _ in 0..pushes {
                    seq += 1;
                    wheel.push(Time::from_nanos(at), seq, seq);
                    reference.push(Reverse((at, seq)));
                }
                prop_assert_eq!(wheel.len(), reference.len(), "len diverged at step {}.{}", pass, step);
            }

            // Drain: every remaining entry pops in exact (time, seq) order,
            // and every node goes back on the free list.
            while let Some(Reverse((at, s))) = reference.pop() {
                prop_assert_eq!(wheel.pop(), Some((Time::from_nanos(at), s, s)));
                now = at;
            }
            prop_assert!(wheel.pop().is_none());
        }
    }
}
