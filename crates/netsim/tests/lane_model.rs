//! Model-based property test for the wire lanes of `sched::EventQueue`,
//! beside `wheel_model.rs`: whatever mix of plain pushes and lane pushes
//! builds the queue — lane pushes in time order (appended) or out of it
//! (handed to the scheduler) — pops must come out in exact `(time, seq)`
//! order, on both scheduler implementations. The model is a sorted vector.

use proptest::prelude::*;
use proteus_netsim::sched::EventQueue;
use proteus_netsim::Scheduler;
use proteus_transport::Time;

const LANES: u64 = 3;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule `delta` ns after the last popped time: through the
    /// scheduler (`lane == LANES`) or offered to lane `lane`.
    Push { lane: u64, delta: u64 },
    /// Pop up to `count` events (stops when empty).
    Pop { count: u64 },
}

/// Decodes one random word into an operation. Deltas are relative to the
/// last pop, so lane traffic is mostly a rising stream (a link's
/// deliveries) in which a small delta right after a large one is the
/// out-of-order push that must take the scheduler.
fn decode(word: u64) -> Op {
    let (kind, lane, class, raw) = (
        word % 8,
        (word >> 3) % (LANES + 1),
        (word >> 8) % 10,
        word >> 16,
    );
    if kind >= 5 {
        return Op::Pop { count: 1 + raw % 5 };
    }
    let delta = match class {
        0 | 1 => 0,
        2..=6 => 1 + raw % 50_000,
        7 | 8 => 50_000 + raw % 30_000_000,
        _ => 30_000_000 + raw % 3_000_000_000,
    };
    Op::Push { lane, delta }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lanes_and_scheduler_pop_in_key_order(words in prop::collection::vec(any::<u64>(), 1..600)) {
        for kind in [Scheduler::Wheel, Scheduler::Heap] {
            let mut q: EventQueue<u64> = EventQueue::new(kind, 4).with_lanes(LANES as usize);
            // Pending `(at, seq)` keys, kept sorted descending: next pop last.
            let mut model: Vec<(u64, u64)> = Vec::new();
            let (mut seq, mut now) = (0u64, 0u64);
            let (mut appended, mut fell_back) = (0u64, 0u64);

            let check_pop = |q: &mut EventQueue<u64>, model: &mut Vec<(u64, u64)>| {
                let want = model.pop().map(|(at, s)| (Time::from_nanos(at), s, s));
                assert_eq!(q.peek(), want.map(|(at, s, _)| (at, s)), "peek diverged ({kind:?})");
                assert_eq!(q.pop(), want, "pop diverged ({kind:?})");
                want
            };

            for &word in &words {
                match decode(word) {
                    Op::Push { lane, delta } => {
                        seq += 1;
                        let at = now + delta;
                        if lane == LANES {
                            q.push(Time::from_nanos(at), seq, seq);
                        } else if q.push_lane(lane as usize, Time::from_nanos(at), seq, seq) {
                            appended += 1;
                        } else {
                            fell_back += 1;
                        }
                        let pos = model.partition_point(|&k| k > (at, seq));
                        model.insert(pos, (at, seq));
                    }
                    Op::Pop { count } => {
                        for _ in 0..count {
                            if let Some((at, _, _)) = check_pop(&mut q, &mut model) {
                                now = at.as_nanos();
                            }
                        }
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            while !model.is_empty() {
                check_pop(&mut q, &mut model);
            }
            prop_assert!(q.pop().is_none() && q.is_empty());
            prop_assert!(q.lane_pops() == appended, "every appended entry pops from its lane");
            // Long op lists must see both lane outcomes.
            prop_assert!(words.len() < 200 || (appended > 0 && fell_back > 0));
        }
    }
}
