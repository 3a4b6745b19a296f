//! TCP CUBIC (Ha, Rhee, Xu 2008; RFC 8312).
//!
//! The dominant loss-based primary protocol in the paper's evaluation. This
//! is a faithful window-growth implementation: slow start to `ssthresh`,
//! then cubic growth `W(t) = C·(t − K)³ + W_max` with the TCP-friendly
//! (Reno-estimate) region, β = 0.7 multiplicative decrease and fast
//! convergence. The sender is ACK-clocked (no pacing), like the Linux
//! default the paper competes against.

use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, RttEstimator, Time};

use crate::MSS;

/// CUBIC constant `C` (packets/sec³), per RFC 8312.
const C: f64 = 0.4;
/// Multiplicative decrease factor β.
const BETA: f64 = 0.7;
/// Minimum congestion window, packets.
const MIN_CWND_PKTS: f64 = 2.0;
/// Initial congestion window, packets (RFC 6928).
const INIT_CWND_PKTS: f64 = 10.0;

/// TCP CUBIC congestion controller.
#[derive(Debug)]
pub struct Cubic {
    /// Congestion window, packets (fractional).
    cwnd: f64,
    /// Slow-start threshold, packets.
    ssthresh: f64,
    /// Window size before the last reduction, packets.
    w_max: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Time>,
    /// Time offset at which the cubic reaches `w_max`.
    k: f64,
    /// Reno-friendly window estimate, packets.
    w_est: f64,
    rtt: RttEstimator,
    /// End of the current recovery episode: losses of packets sent before
    /// this are part of the same congestion event.
    recovery_until: Option<Time>,
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl Cubic {
    /// Creates a CUBIC controller with standard parameters.
    pub fn new() -> Self {
        Self {
            cwnd: INIT_CWND_PKTS,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            rtt: RttEstimator::new(),
            recovery_until: None,
        }
    }

    /// Current congestion window in packets (for tests/inspection).
    pub fn cwnd_pkts(&self) -> f64 {
        self.cwnd
    }

    fn in_recovery(&self, sent_at: Time) -> bool {
        match self.recovery_until {
            Some(until) => sent_at < until,
            None => false,
        }
    }

    fn enter_recovery(&mut self, now: Time) {
        self.recovery_until = Some(now);
        // Fast convergence: release bandwidth faster when the window is
        // still below the previous peak.
        if self.cwnd < self.w_max {
            self.w_max = self.cwnd * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * BETA).max(MIN_CWND_PKTS);
        self.ssthresh = self.cwnd;
        self.epoch_start = None;
    }

    fn congestion_avoidance(&mut self, now: Time) {
        let srtt = self.rtt.srtt_or(Dur::from_millis(100)).as_secs_f64();
        let t = match self.epoch_start {
            Some(start) => now.since(start).as_secs_f64(),
            None => {
                self.epoch_start = Some(now);
                let w_diff = (self.w_max - self.cwnd).max(0.0);
                self.k = (w_diff / C).cbrt();
                self.w_est = self.cwnd;
                0.0
            }
        };
        // Cubic target one RTT ahead.
        let target = C * (t + srtt - self.k).powi(3) + self.w_max;
        if target > self.cwnd {
            // Approach the target over one window of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd;
        } else {
            // Slow probing in the concave plateau.
            self.cwnd += 0.01 / self.cwnd;
        }
        // TCP-friendly region (Reno estimate).
        self.w_est += 3.0 * (1.0 - BETA) / (1.0 + BETA) / self.cwnd;
        if self.w_est > self.cwnd {
            self.cwnd = self.w_est;
        }
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &str {
        "CUBIC"
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        self.rtt.update(ack.rtt);
        if self.in_recovery(ack.sent_at) {
            return; // no growth on ACKs from before the loss event
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // slow start: +1 packet per ACK
            if self.cwnd >= self.ssthresh {
                self.epoch_start = None;
            }
        } else {
            self.congestion_avoidance(now);
        }
    }

    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        if self.in_recovery(loss.sent_at) {
            return; // one reduction per congestion event
        }
        self.enter_recovery(now);
        if loss.by_timeout {
            // RTO: collapse to the minimum window and restart slow start.
            self.cwnd = MIN_CWND_PKTS;
            self.epoch_start = None;
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        None // ACK-clocked
    }

    fn cwnd_bytes(&self) -> u64 {
        (self.cwnd * MSS) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_transport::SeqNr;

    fn ack(seq: SeqNr, now: Time) -> AckInfo {
        AckInfo {
            seq,
            bytes: 1500,
            sent_at: now - Dur::from_millis(30),
            recv_at: now,
            rtt: Dur::from_millis(30),
            one_way_delay: Dur::from_millis(15),
        }
    }

    fn loss(seq: SeqNr, now: Time, by_timeout: bool) -> LossInfo {
        LossInfo {
            seq,
            bytes: 1500,
            sent_at: now - Dur::from_millis(30),
            detected_at: now,
            by_timeout,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new();
        let start = c.cwnd_pkts();
        let mut now = Time::from_millis(100);
        for i in 0..10 {
            c.on_ack(now, &ack(i, now));
            now += Dur::from_millis(1);
        }
        assert!((c.cwnd_pkts() - (start + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn loss_reduces_by_beta() {
        let mut c = Cubic::new();
        let now = Time::from_millis(100);
        for i in 0..40 {
            c.on_ack(now, &ack(i, now));
        }
        let before = c.cwnd_pkts();
        c.on_loss(now, &loss(40, now, false));
        assert!((c.cwnd_pkts() - before * BETA).abs() < 1e-9);
    }

    #[test]
    fn one_reduction_per_congestion_event() {
        let mut c = Cubic::new();
        let now = Time::from_millis(100);
        for i in 0..40 {
            c.on_ack(now, &ack(i, now));
        }
        c.on_loss(now, &loss(40, now, false));
        let after_first = c.cwnd_pkts();
        // A second loss of a packet sent before the event: no further cut.
        c.on_loss(now + Dur::from_millis(1), &loss(41, now, false));
        assert_eq!(c.cwnd_pkts(), after_first);
    }

    #[test]
    fn separate_events_reduce_again() {
        let mut c = Cubic::new();
        let mut now = Time::from_millis(100);
        for i in 0..40 {
            c.on_ack(now, &ack(i, now));
        }
        c.on_loss(now, &loss(40, now, false));
        let after_first = c.cwnd_pkts();
        now += Dur::from_millis(100);
        // Packet sent after recovery start: a fresh event.
        let mut l = loss(60, now, false);
        l.sent_at = now - Dur::from_millis(10);
        c.on_loss(now, &l);
        assert!(c.cwnd_pkts() < after_first);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut c = Cubic::new();
        let now = Time::from_millis(100);
        for i in 0..100 {
            c.on_ack(now, &ack(i, now));
        }
        c.on_loss(now, &loss(100, now, true));
        assert_eq!(c.cwnd_pkts(), MIN_CWND_PKTS);
    }

    #[test]
    fn cubic_growth_accelerates_away_from_wmax() {
        let mut c = Cubic::new();
        let mut now = Time::from_millis(100);
        // Build a window then lose, entering congestion avoidance.
        for i in 0..60 {
            c.on_ack(now, &ack(i, now));
        }
        c.on_loss(now, &loss(60, now, false));
        now += Dur::from_millis(50);
        // Growth right after the cut (concave region, approaching w_max)...
        let w0 = c.cwnd_pkts();
        for i in 0..30 {
            c.on_ack(now, &ack(100 + i, now));
        }
        let near_growth = c.cwnd_pkts() - w0;
        // ...is slower than growth far past K (convex region).
        now += Dur::from_secs(20);
        let w1 = c.cwnd_pkts();
        for i in 0..30 {
            c.on_ack(now, &ack(200 + i, now));
        }
        let far_growth = c.cwnd_pkts() - w1;
        assert!(
            far_growth > near_growth,
            "near {near_growth}, far {far_growth}"
        );
    }

    #[test]
    fn window_never_below_minimum() {
        let mut c = Cubic::new();
        let mut now = Time::from_millis(100);
        for i in 0..20 {
            let mut l = loss(i, now, false);
            l.sent_at = now - Dur::from_millis(1);
            c.on_loss(now, &l);
            now += Dur::from_millis(100);
        }
        assert!(c.cwnd_pkts() >= MIN_CWND_PKTS);
        assert!(c.cwnd_bytes() >= (MIN_CWND_PKTS * 1500.0) as u64);
    }

    #[test]
    fn is_ack_clocked() {
        let c = Cubic::new();
        assert_eq!(c.pacing_rate(), None);
        assert!(c.cwnd_bytes() < u64::MAX);
        assert_eq!(c.name(), "CUBIC");
    }
}
