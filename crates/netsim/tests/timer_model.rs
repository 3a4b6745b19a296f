//! Model-based property test: [`TimerTable`] must fire exactly when the
//! naive timer scheme it replaced in the engine does — "push an
//! epoch-stamped event on every arm, drop stale epochs at pop" — under
//! randomized arm / cancel / advance sequences over a few (flow, kind)
//! pairs, while pushing no more events than that scheme and keeping one
//! live event per pair: a push happens only when no live event fires at or
//! before it, and only the live event ever acts.

use proptest::prelude::*;
use proteus_netsim::sched::{EventQueue, Scheduler};
use proteus_netsim::timers::{Pop, TimerKind, TimerTable};
use proteus_transport::{Dur, Time};

/// The (flow, kind) pairs under test: two flows, every kind at least once.
const PAIRS: [(usize, TimerKind); 5] = [
    (0, TimerKind::Pace),
    (0, TimerKind::Cc),
    (0, TimerKind::Rto),
    (1, TimerKind::Rto),
    (1, TimerKind::App),
];
const N: usize = PAIRS.len();

#[derive(Debug, Clone)]
enum Op {
    /// Arm `pair` for `now + ahead_ms − 2 ms` (so some deadlines are past).
    Arm {
        pair: usize,
        ahead_ms: u64,
    },
    Cancel {
        pair: usize,
    },
    /// Move the clock, dispatching everything that comes due.
    Advance {
        ms: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // One draw carries both fields: the vendored proptest has no tuples.
        5 => (0..N * 24).prop_map(|x| Op::Arm { pair: x % N, ahead_ms: (x / N) as u64 }),
        1 => (0..N).prop_map(|pair| Op::Cancel { pair }),
        3 => (0u64..12).prop_map(|ms| Op::Advance { ms }),
    ]
}

/// The engine's `(time, push sequence)` event queue (the heap oracle); an
/// item is `(pair, tag)`, `tag` being the epoch on the reference side and
/// unused on the table's.
struct Queue {
    events: EventQueue<(usize, u64)>,
    pushes: u64,
}

impl Queue {
    fn new() -> Self {
        Queue {
            events: EventQueue::new(Scheduler::Heap, 64),
            pushes: 0,
        }
    }

    fn push(&mut self, at: Time, pair: usize, tag: u64) {
        self.pushes += 1;
        self.events.push(at, self.pushes, (pair, tag));
    }

    fn pop_through(&mut self, limit: Time) -> Option<(Time, usize, u64)> {
        let (at, _, (pair, tag)) = self.events.pop_through(limit)?;
        Some((at, pair, tag))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_matches_push_on_every_arm_reference(
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        // Reference: one epoch per pair, bumped by every arm and cancel.
        let mut epoch = [0u64; N];
        let mut ref_q = Queue::new();
        let mut ref_fired: Vec<Vec<Time>> = vec![Vec::new(); N];

        let mut table = TimerTable::default();
        table.push_flow();
        table.push_flow();
        let mut q = Queue::new();
        let mut fired: Vec<Vec<Time>> = vec![Vec::new(); N];
        // Seen from outside: the time of each pair's live event (set by a
        // push, consumed by the pop at that time) and whether it is armed.
        let mut live_at: [Option<Time>; N] = [None; N];
        let mut armed = [false; N];

        let mut now = Time::ZERO;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Arm { pair, ahead_ms } => {
                    let at = (now + Dur::from_millis(ahead_ms)) - Dur::from_millis(2);
                    epoch[pair] += 1;
                    ref_q.push(at.max(now), pair, epoch[pair]);

                    let (flow, kind) = PAIRS[pair];
                    armed[pair] = true;
                    if let Some(t) = table.arm(flow, kind, now, at) {
                        prop_assert_eq!(t, at.max(now));
                        prop_assert!(
                            live_at[pair].is_none_or(|live| live > t),
                            "step {}: pushed at {:?} under a live event at {:?}",
                            step, t, live_at[pair]
                        );
                        live_at[pair] = Some(t);
                        q.push(t, pair, 0);
                    } else {
                        prop_assert!(
                            live_at[pair].is_some_and(|live| live <= at.max(now)),
                            "step {}: no push, yet no live event covers {:?}", step, at
                        );
                    }
                }
                Op::Cancel { pair } => {
                    epoch[pair] += 1;
                    let (flow, kind) = PAIRS[pair];
                    table.cancel(flow, kind);
                    armed[pair] = false;
                    prop_assert_eq!(table.deadline(flow, kind), None);
                }
                Op::Advance { ms } => {
                    now += Dur::from_millis(ms);
                    while let Some((at, pair, tag)) = ref_q.pop_through(now) {
                        if tag == epoch[pair] {
                            epoch[pair] += 1; // fires once
                            ref_fired[pair].push(at);
                        }
                    }
                    while let Some((at, pair, _)) = q.pop_through(now) {
                        let (flow, kind) = PAIRS[pair];
                        let was_live = live_at[pair] == Some(at);
                        if was_live {
                            live_at[pair] = None;
                        }
                        match table.pop(flow, kind, at) {
                            Pop::Due => {
                                prop_assert!(was_live, "step {}: a superseded event fired", step);
                                prop_assert!(armed[pair], "step {}: fired after a cancel", step);
                                armed[pair] = false;
                                fired[pair].push(at);
                            }
                            Pop::Later(t) => {
                                prop_assert!(was_live && armed[pair] && t > at);
                                live_at[pair] = Some(t);
                                q.push(t, pair, 0);
                            }
                            Pop::Stale => prop_assert!(!was_live || !armed[pair]),
                        }
                    }
                }
            }
            prop_assert!(q.pushes <= ref_q.pushes, "step {}: more pushes than the reference", step);
        }

        // Let everything still armed come due, then compare.
        let end = now + Dur::from_millis(100);
        while let Some((at, pair, tag)) = ref_q.pop_through(end) {
            if tag == epoch[pair] {
                epoch[pair] += 1;
                ref_fired[pair].push(at);
            }
        }
        while let Some((at, pair, _)) = q.pop_through(end) {
            let (flow, kind) = PAIRS[pair];
            match table.pop(flow, kind, at) {
                Pop::Due => fired[pair].push(at),
                Pop::Later(t) => q.push(t, pair, 0),
                Pop::Stale => {}
            }
        }
        prop_assert_eq!(&fired, &ref_fired, "due firings differ");
        prop_assert!(q.pushes <= ref_q.pushes);
        for (flow, kind) in PAIRS {
            prop_assert_eq!(table.deadline(flow, kind), None, "a deadline outlived the drain");
        }
    }
}
