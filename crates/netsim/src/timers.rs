//! Per-flow timers: one table, one live scheduler event per timer.
//!
//! Every flow has four timers — pacing, controller, retransmission and
//! application wakeup ([`TimerKind`]). A scheduler cannot cancel or move an
//! event, so the table keeps, per (flow, kind), the `deadline` the flow
//! wants and the time `event_at` of the one scheduler event that is still
//! meant to act:
//!
//! * **Arming** records the deadline and asks for a push only when no live
//!   event fires at or before it. A deadline that moves *later* (the common
//!   case: every ACK pushes the RTO out) costs nothing until the live event
//!   pops early and is re-pushed once, at the deadline of that moment. A
//!   deadline that moves *earlier* pushes a second event, which becomes the
//!   live one; the event it superseded pops as a no-op.
//! * **Cancelling** forgets the deadline; the live event pops as a no-op.
//! * **Popping** is *due* only for the live event (`event_at == now`) of an
//!   armed timer whose deadline has come.
//!
//! The engine owns the scheduler: [`TimerTable::arm`] and
//! [`TimerTable::pop`] return the time to push at, and the engine pushes.

use proteus_transport::Time;

/// The four per-flow timers, in the order of their
/// [`crate::metrics::EVENT_KIND_NAMES`] entries (`Pace` … `AppWake`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Next instant pacing allows a transmission.
    Pace,
    /// The deadline the controller asked for via `next_timer()`.
    Cc,
    /// RFC 6298 retransmission timeout.
    Rto,
    /// The application's next self-driven state change.
    App,
}

/// `Time::MAX` in either column means "none".
const NONE: Time = Time::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    deadline: Time,
    event_at: Time,
}

/// What the engine does with a popped timer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// The timer fires now; its deadline is cleared.
    Due,
    /// The deadline moved later since the event was pushed: push again at
    /// this time.
    Later(Time),
    /// Cancelled, or superseded by an earlier event: do nothing.
    Stale,
}

/// Deadlines and live-event times of every flow's timers.
#[derive(Debug, Default)]
pub struct TimerTable {
    slots: Vec<[Slot; 4]>,
}

impl TimerTable {
    /// Appends one flow with nothing armed.
    pub fn push_flow(&mut self) {
        let idle = Slot {
            deadline: NONE,
            event_at: NONE,
        };
        self.slots.push([idle; 4]);
    }

    /// The armed deadline, if any.
    pub fn deadline(&self, flow: usize, kind: TimerKind) -> Option<Time> {
        let d = self.slots[flow][kind as usize].deadline;
        (d != NONE).then_some(d)
    }

    /// Sets the deadline to `at` (`now` if that is already past). Returns
    /// the time to push an event at, unless the live event already covers it.
    #[must_use = "a returned time must be pushed to the scheduler"]
    pub fn arm(&mut self, flow: usize, kind: TimerKind, now: Time, at: Time) -> Option<Time> {
        let at = at.max(now);
        debug_assert!(at != NONE, "Time::MAX is not a deadline");
        let s = &mut self.slots[flow][kind as usize];
        s.deadline = at;
        // `NONE` is later than every deadline, so "no live event" pushes.
        if s.event_at <= at {
            return None;
        }
        s.event_at = at;
        Some(at)
    }

    /// Disarms one timer.
    pub fn cancel(&mut self, flow: usize, kind: TimerKind) {
        self.slots[flow][kind as usize].deadline = NONE;
    }

    /// Disarms all of a flow's timers.
    pub fn cancel_all(&mut self, flow: usize) {
        for s in &mut self.slots[flow] {
            s.deadline = NONE;
        }
    }

    /// Accounts for a timer event popping at `now`.
    pub fn pop(&mut self, flow: usize, kind: TimerKind, now: Time) -> Pop {
        let s = &mut self.slots[flow][kind as usize];
        if s.event_at != now {
            return Pop::Stale;
        }
        s.event_at = NONE;
        if s.deadline == NONE {
            Pop::Stale
        } else if now < s.deadline {
            s.event_at = s.deadline;
            Pop::Later(s.deadline)
        } else {
            s.deadline = NONE;
            Pop::Due
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use TimerKind::*;

    const T0: Time = Time::ZERO;

    fn ms(n: u64) -> Time {
        Time::from_millis(n)
    }

    fn table() -> TimerTable {
        let mut t = TimerTable::default();
        t.push_flow();
        t
    }

    fn idle(t: &TimerTable) -> bool {
        [Pace, Cc, Rto, App]
            .iter()
            .all(|&k| t.deadline(0, k).is_none())
    }

    #[test]
    fn later_deadline_is_repushed_lazily_at_the_pop() {
        let mut t = table();
        assert_eq!(t.arm(0, Rto, T0, ms(10)), Some(ms(10)));
        assert_eq!(t.arm(0, Rto, ms(1), ms(11)), None, "live event covers it");
        assert_eq!(t.arm(0, Rto, ms(2), ms(12)), None);
        assert_eq!(t.pop(0, Rto, ms(10)), Pop::Later(ms(12)));
        assert_eq!(t.deadline(0, Rto), Some(ms(12)));
        assert_eq!(t.pop(0, Rto, ms(12)), Pop::Due);
        assert!(idle(&t));
    }

    #[test]
    fn earlier_deadline_fires_on_time_and_the_old_event_is_a_no_op() {
        let mut t = table();
        assert_eq!(t.arm(0, Rto, T0, ms(10)), Some(ms(10)));
        assert_eq!(t.arm(0, Rto, ms(1), ms(5)), Some(ms(5)));
        assert_eq!(t.pop(0, Rto, ms(5)), Pop::Due, "not late at 10 ms");
        assert_eq!(t.pop(0, Rto, ms(10)), Pop::Stale);
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut t = table();
        assert_eq!(t.arm(0, App, T0, ms(3)), Some(ms(3)));
        t.cancel(0, App);
        assert!(idle(&t));
        assert_eq!(t.pop(0, App, ms(3)), Pop::Stale);
        // Re-arming after the no-op needs a fresh event.
        assert_eq!(t.arm(0, App, ms(3), ms(4)), Some(ms(4)));
    }

    #[test]
    fn rearming_under_a_cancelled_live_event_reuses_it() {
        let mut t = table();
        assert_eq!(t.arm(0, Cc, T0, ms(3)), Some(ms(3)));
        t.cancel(0, Cc);
        assert_eq!(t.arm(0, Cc, ms(1), ms(6)), None);
        assert_eq!(t.pop(0, Cc, ms(3)), Pop::Later(ms(6)));
        assert_eq!(t.pop(0, Cc, ms(6)), Pop::Due);
    }

    #[test]
    fn past_deadlines_clamp_to_now_and_kinds_are_independent() {
        let mut t = table();
        assert_eq!(t.arm(0, Cc, ms(7), ms(2)), Some(ms(7)));
        assert_eq!(t.arm(0, Pace, ms(7), ms(9)), Some(ms(9)));
        assert_eq!(t.pop(0, Cc, ms(7)), Pop::Due);
        assert_eq!(t.deadline(0, Pace), Some(ms(9)));
        t.cancel_all(0);
        assert!(idle(&t));
    }
}
