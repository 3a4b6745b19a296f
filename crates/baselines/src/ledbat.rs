//! LEDBAT — Low Extra Delay Background Transport (RFC 6817).
//!
//! The incumbent scavenger the paper compares against. LEDBAT measures
//! one-way delay, estimates the path's *base delay* as a history of
//! per-minute minima, and servo-controls its window so that the queuing
//! delay it induces equals a fixed *target* (100 ms in RFC 6817 and the
//! µTorrent default; 25 ms in the original IETF draft — Appendix B).
//!
//! The latecomer advantage the paper discusses (§6.1.3) emerges naturally
//! from this implementation: a flow that starts while the queue is already
//! inflated measures an inflated "base" delay and therefore believes the
//! queue is shorter than it is.

use std::collections::VecDeque;

use proteus_transport::{AckInfo, BaseDelay, CongestionControl, Dur, LossInfo, Time};

use crate::MSS;

/// Number of recent delay samples the current-delay filter keeps
/// (`CURRENT_FILTER`).
const CURRENT_FILTER: usize = 4;
/// Controller gain (`GAIN`): at most one MSS of growth per RTT per unit of
/// off-target.
const GAIN: f64 = 1.0;
/// Minimum window, packets (`MIN_CWND`).
const MIN_CWND_PKTS: f64 = 2.0;
/// Initial window, packets.
const INIT_CWND_PKTS: f64 = 2.0;

/// LEDBAT congestion controller.
#[derive(Debug)]
pub struct Ledbat {
    target: Dur,
    /// Congestion window, bytes (fractional).
    cwnd: f64,
    /// Per-minute minima of observed one-way delay (RFC 6817 §3.4.1).
    base: BaseDelay,
    /// Last `CURRENT_FILTER` one-way delay samples, seconds.
    current_filter: VecDeque<f64>,
    /// Once-per-RTT loss reaction latch.
    last_loss_at: Option<Time>,
    /// Smoothed RTT for the loss latch.
    srtt: Dur,
}

impl Ledbat {
    /// LEDBAT with the RFC 6817 / µTorrent default 100 ms target.
    pub fn new() -> Self {
        Self::with_target(Dur::from_millis(100))
    }

    /// LEDBAT with the original-draft 25 ms target (Appendix B).
    pub fn draft25() -> Self {
        Self::with_target(Dur::from_millis(25))
    }

    /// LEDBAT with an arbitrary target extra delay.
    pub fn with_target(target: Dur) -> Self {
        assert!(!target.is_zero(), "target extra delay must be positive");
        Self {
            target,
            cwnd: INIT_CWND_PKTS * MSS,
            base: BaseDelay::default(),
            current_filter: VecDeque::new(),
            last_loss_at: None,
            srtt: Dur::from_millis(100),
        }
    }

    /// The configured target extra delay.
    pub fn target(&self) -> Dur {
        self.target
    }

    /// Current estimate of the path's base one-way delay, seconds.
    pub fn base_delay(&self) -> Option<f64> {
        self.base.get()
    }

    /// Filtered current one-way delay, seconds (minimum of recent samples,
    /// per RFC 6817 §3.4.2).
    pub fn current_delay(&self) -> Option<f64> {
        self.current_filter.iter().copied().reduce(f64::min)
    }

    /// Current window, packets.
    pub fn cwnd_pkts(&self) -> f64 {
        self.cwnd / MSS
    }
}

impl Default for Ledbat {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Ledbat {
    fn name(&self) -> &str {
        "LEDBAT"
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        // RFC 6298-lite smoothing for the loss latch only.
        self.srtt = Dur::from_nanos((7 * self.srtt.as_nanos() + ack.rtt.as_nanos()) / 8);

        let owd_s = ack.one_way_delay.as_secs_f64();
        self.base.update(now, owd_s);
        self.current_filter.push_back(owd_s);
        while self.current_filter.len() > CURRENT_FILTER {
            self.current_filter.pop_front();
        }

        let (Some(base), Some(current)) = (self.base_delay(), self.current_delay()) else {
            return;
        };
        let queuing = (current - base).max(0.0);
        let target_s = self.target.as_secs_f64();
        let off_target = (target_s - queuing) / target_s;
        // RFC 6817 window update: GAIN * off_target * bytes_newly_acked *
        // MSS / cwnd, with growth clamped to slow-start-like +1 MSS/ACK.
        let delta = GAIN * off_target * ack.bytes as f64 * MSS / self.cwnd;
        self.cwnd += delta.min(MSS);
        let floor = MIN_CWND_PKTS * MSS;
        if self.cwnd < floor {
            self.cwnd = floor;
        }
    }

    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        // At most one halving per RTT (RFC 6817 §3.4.2).
        if let Some(last) = self.last_loss_at {
            if now.since(last) < self.srtt {
                return;
            }
        }
        self.last_loss_at = Some(now);
        self.cwnd = (self.cwnd / 2.0).max(MIN_CWND_PKTS * MSS);
        if loss.by_timeout {
            self.cwnd = MIN_CWND_PKTS * MSS;
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        None // ACK-clocked, like libutp
    }

    fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack_with_owd(seq: u64, now: Time, owd: Dur) -> AckInfo {
        AckInfo {
            seq,
            bytes: 1500,
            sent_at: now - Dur::from_millis(30),
            recv_at: now,
            rtt: Dur::from_millis(30),
            one_way_delay: owd,
        }
    }

    #[test]
    fn grows_below_target() {
        let mut l = Ledbat::new();
        let now = Time::from_millis(100);
        let before = l.cwnd_bytes();
        // OWD equal to base: queuing = 0, full-speed growth.
        for i in 0..20 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(15)));
        }
        assert!(l.cwnd_bytes() > before);
    }

    #[test]
    fn equilibrium_at_target() {
        let mut l = Ledbat::new();
        let now = Time::from_millis(100);
        // Establish base = 15 ms.
        l.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(15)));
        // Flush the 4-sample current-delay min filter with at-target samples.
        for i in 1..6 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(115)));
        }
        // Queuing exactly at the 100 ms target: off_target = 0, no change.
        let w = l.cwnd_pkts();
        for i in 6..20 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(115)));
        }
        let after = l.cwnd_pkts();
        assert!((after - w).abs() < 1e-9, "w {w} -> {after}");
    }

    #[test]
    fn shrinks_above_target() {
        let mut l = Ledbat::new();
        let now = Time::from_millis(100);
        l.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(15)));
        for i in 1..30 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(15)));
        }
        let w = l.cwnd_pkts();
        // 200 ms of queuing, double the target: off_target = -1.
        for i in 30..60 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(215)));
        }
        assert!(l.cwnd_pkts() < w);
    }

    #[test]
    fn draft25_reacts_earlier_than_100ms() {
        let now = Time::from_millis(100);
        let mut l100 = Ledbat::new();
        let mut l25 = Ledbat::draft25();
        for l in [&mut l100, &mut l25] {
            l.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(15)));
        }
        // 50 ms queuing: above the 25 ms target, below the 100 ms target.
        for i in 1..40 {
            let a = ack_with_owd(i, now, Dur::from_millis(65));
            l100.on_ack(now, &a);
            l25.on_ack(now, &a);
        }
        assert!(l25.cwnd_pkts() < l100.cwnd_pkts());
    }

    #[test]
    fn latecomer_measures_inflated_base() {
        let mut late = Ledbat::new();
        let now = Time::from_millis(100);
        // This flow only ever sees an inflated path (competitor filled the
        // queue): its "base" is 80 ms, so it believes queuing is low.
        for i in 0..20 {
            late.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(80)));
        }
        assert!((late.base_delay().unwrap() - 0.080).abs() < 1e-9);
        // And keeps growing despite the real queue.
        assert!(late.cwnd_pkts() > INIT_CWND_PKTS);
    }

    #[test]
    fn base_history_rolls_over_minutes() {
        let mut l = Ledbat::new();
        let mut now = Time::from_millis(100);
        l.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(40)));
        // Two minutes later a lower OWD shows up: becomes the new bucket min.
        now += Dur::from_secs(61);
        l.on_ack(now, &ack_with_owd(1, now, Dur::from_millis(20)));
        assert!((l.base_delay().unwrap() - 0.020).abs() < 1e-9);
    }

    #[test]
    fn loss_halves_at_most_once_per_rtt() {
        let mut l = Ledbat::new();
        let now = Time::from_millis(1000);
        for i in 0..40 {
            l.on_ack(now, &ack_with_owd(i, now, Dur::from_millis(15)));
        }
        let w = l.cwnd_bytes();
        let mk_loss = |seq, at: Time| LossInfo {
            seq,
            bytes: 1500,
            sent_at: at - Dur::from_millis(30),
            detected_at: at,
            by_timeout: false,
        };
        l.on_loss(now, &mk_loss(50, now));
        let after_one = l.cwnd_bytes();
        assert!(after_one <= w / 2 + 1);
        // Immediate second loss is ignored.
        l.on_loss(
            now + Dur::from_millis(1),
            &mk_loss(51, now + Dur::from_millis(1)),
        );
        assert_eq!(l.cwnd_bytes(), after_one);
        // After an RTT it reacts again.
        let later = now + Dur::from_millis(100);
        l.on_loss(later, &mk_loss(52, later));
        assert!(l.cwnd_bytes() < after_one || after_one == (MIN_CWND_PKTS * 1500.0) as u64);
    }

    /// Fourteen minutes of a scripted trace whose path delay rises 3 ms a
    /// minute: the base delay stays at the first minute's minimum until
    /// the history drops its 11th bucket, then climbs a minute at a time.
    /// Window and base delay are pinned to the bit at every minute.
    #[test]
    fn scripted_trace_pins_window_and_base_delay() {
        let mut l = Ledbat::new();
        let mut pins = Vec::new();
        crate::script::run(
            &mut l,
            42_000,
            Dur::from_millis(20),
            |now, r| {
                let minute = now.as_nanos() / 60_000_000_000;
                let owd = Dur::from_micros(10_000 + 3_000 * minute + r % 40_000);
                (Dur::from_nanos(2 * owd.as_nanos() + 5_000_000), owd)
            },
            |seq, _, l| {
                if seq % 3_000 == 2_999 {
                    pins.push((l.cwnd.to_bits(), l.base_delay().unwrap().to_bits()));
                }
            },
        );
        assert_eq!(
            pins,
            [
                (0x40b9c63f484798bd, 0x3f847e06961c3697),
                (0x40b695513794a72c, 0x3f847e06961c3697),
                (0x40c0255015bb9787, 0x3f847e06961c3697),
                (0x40c7cf64fdc9e8b6, 0x3f847e06961c3697),
                (0x40b9eac16665db97, 0x3f847e06961c3697),
                (0x40b89b775363dde0, 0x3f847e06961c3697),
                (0x40b1397ce39153fa, 0x3f847e06961c3697),
                (0x40c7dad422482792, 0x3f847e06961c3697),
                (0x40c030d8d9af2a83, 0x3f847e06961c3697),
                (0x40bc02a3b649da7b, 0x3f847e06961c3697),
                (0x40b59c8a623b69a9, 0x3f8aa25d8d79d0a6),
                (0x40b87d054da6ab1e, 0x3f9065f9591cd1c8),
                (0x40a7700000000000, 0x3f9374ff865d7cb3),
                (0x40bf5c8c8f1788c5, 0x3f968cac4b4d056c),
            ]
        );
    }

    #[test]
    fn growth_capped_at_one_mss_per_ack() {
        let mut l = Ledbat::new();
        let now = Time::from_millis(100);
        let before = l.cwnd_bytes();
        l.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(10)));
        assert!(l.cwnd_bytes() - before <= 1500);
    }
}
