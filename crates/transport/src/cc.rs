//! The congestion-control interface every protocol in this reproduction
//! implements.
//!
//! A controller is a passive state machine driven by the flow driver (in
//! `proteus-netsim`): it is told about transmissions, ACKs, losses and timer
//! expirations, and in return exposes a pacing rate and/or congestion window
//! that gate future transmissions. Window-based protocols (CUBIC, LEDBAT)
//! are ACK-clocked — they return `None` from [`CongestionControl::pacing_rate`]
//! and bound transmission with [`CongestionControl::cwnd_bytes`]. Rate-based
//! protocols (the PCC family, BBR) return a pacing rate; BBR additionally
//! caps in-flight data with a window.

use crate::packet::{AckInfo, FlowId, LossInfo, SentPacket};
use crate::time::Time;

/// A telemetry snapshot of a controller's internal decision state.
///
/// Returned by [`CongestionControl::snapshot`] so the tracing layer in
/// `proteus-netsim` can record utility-module internals (utility value,
/// active mode, mode switches) without downcasting. Controllers that have
/// no such internals (CUBIC, LEDBAT, fixed-rate test stubs) return `None`
/// from `snapshot` instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcSnapshot {
    /// Most recent utility value, if the controller is utility-driven and
    /// has completed at least one monitor interval.
    pub utility: Option<f64>,
    /// Active operating-mode name (e.g. `"Proteus-S"`).
    pub mode: Option<&'static str>,
    /// Number of mode switches since flow start.
    pub mode_switches: u64,
}

/// Congestion controller interface (see module docs).
///
/// All rates are in **bytes per second**; all windows in **bytes**.
pub trait CongestionControl {
    /// Human-readable protocol name for reports (e.g. `"CUBIC"`,
    /// `"Proteus-S"`).
    fn name(&self) -> &str;

    /// Called once when the flow starts transmitting.
    fn on_flow_start(&mut self, _now: Time) {}

    /// Called for every packet handed to the network.
    fn on_packet_sent(&mut self, _now: Time, _pkt: &SentPacket) {}

    /// Called for every acknowledgment that reaches the sender.
    fn on_ack(&mut self, now: Time, ack: &AckInfo);

    /// Called when a packet is declared lost.
    fn on_loss(&mut self, now: Time, loss: &LossInfo);

    /// Current pacing rate, bytes/sec. `None` means "not paced" (pure
    /// ACK-clocking bounded by the window).
    fn pacing_rate(&self) -> Option<f64>;

    /// Congestion window in bytes; `u64::MAX` when the protocol is purely
    /// rate-limited.
    fn cwnd_bytes(&self) -> u64 {
        u64::MAX
    }

    /// Next time the controller wants [`CongestionControl::on_timer`]
    /// invoked, if any. The driver re-queries after every event.
    fn next_timer(&self) -> Option<Time> {
        None
    }

    /// Timer callback.
    fn on_timer(&mut self, _now: Time) {}

    /// Optional snapshot of utility-module internals for telemetry.
    /// Default: `None` (controller exposes no such state).
    fn snapshot(&self) -> Option<CcSnapshot> {
        None
    }

    /// Moves any buffered decision-trace events into `out`, oldest first
    /// (see the `proteus-trace` crate). The simulator calls this
    /// periodically and at flow end; controllers without decision tracing —
    /// or with tracing disabled — use this default and append nothing.
    fn drain_decisions(&mut self, _out: &mut Vec<proteus_trace::DecisionEvent>) {}

    /// A fresh twin of this controller that records its decisions into a
    /// ring [`CongestionControl::drain_decisions`] empties, and behaves
    /// exactly as `self` would. The simulator swaps it in for every flow it
    /// spawns in a run that samples a trace (`Scenario::with_trace`), so a
    /// traced run records every controller that has decision points, and an
    /// untraced one pays nothing. Built from the controller's configuration,
    /// not its state: call it before the flow starts. Default: `None` — no
    /// decision points, or already recording.
    fn decision_traced(&self) -> Option<Box<dyn CongestionControl>> {
        None
    }
}

/// Factory producing a fresh controller for a flow; scenarios are described
/// in terms of factories so each flow gets independent state.
pub type CcFactory = Box<dyn Fn(FlowId) -> Box<dyn CongestionControl>>;

/// Convenience helper: wraps a closure returning a concrete controller into
/// a [`CcFactory`].
pub fn factory<C, F>(f: F) -> CcFactory
where
    C: CongestionControl + 'static,
    F: Fn(FlowId) -> C + 'static,
{
    Box::new(move |id| Box::new(f(id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::AckInfo;
    use crate::time::Dur;

    /// Minimal controller used to exercise the trait's default methods.
    struct FixedWindow {
        cwnd: u64,
    }

    impl CongestionControl for FixedWindow {
        fn name(&self) -> &str {
            "fixed-window"
        }
        fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
        fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
        fn pacing_rate(&self) -> Option<f64> {
            None
        }
        fn cwnd_bytes(&self) -> u64 {
            self.cwnd
        }
    }

    #[test]
    fn trait_defaults() {
        let mut cc = FixedWindow { cwnd: 10_000 };
        assert_eq!(cc.cwnd_bytes(), 10_000);
        assert_eq!(cc.pacing_rate(), None);
        assert_eq!(cc.next_timer(), None);
        cc.on_flow_start(Time::ZERO);
        cc.on_timer(Time::ZERO);
        let ack = AckInfo {
            seq: 0,
            bytes: 1500,
            sent_at: Time::ZERO,
            recv_at: Time::from_millis(30),
            rtt: Dur::from_millis(30),
            one_way_delay: Dur::from_millis(15),
        };
        cc.on_ack(Time::from_millis(30), &ack);
        assert_eq!(cc.name(), "fixed-window");
    }

    #[test]
    fn factory_produces_independent_instances() {
        let f = factory(|_id| FixedWindow { cwnd: 5 });
        let a = f(0);
        let b = f(1);
        assert_eq!(a.cwnd_bytes(), 5);
        assert_eq!(b.cwnd_bytes(), 5);
    }
}
