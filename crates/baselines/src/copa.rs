//! COPA — practical delay-based congestion control (Arun & Balakrishnan,
//! NSDI 2018).
//!
//! One of the latency-aware primary protocols LEDBAT fails to yield to
//! (§6.2). COPA steers its window toward the target rate
//! `λ = MSS / (δ · dq)` where `dq` is the *standing queueing delay*
//! (standing RTT minus windowed minimum RTT), with a velocity term that
//! doubles after three consecutive same-direction RTTs. We implement the
//! default (delay) mode with δ = 0.5; mode switching for TCP
//! competitiveness is out of scope for the paper's experiments (the authors
//! evaluated COPA as a latency-sensitive protocol).
//!
//! Like the reference implementation, individual packet losses do not
//! trigger a window cut (COPA's loss resilience in Fig. 4 depends on this);
//! retransmission timeouts collapse the window.

use proteus_transport::{
    AckInfo, CongestionControl, Dur, LossInfo, RttEstimator, Time, WindowedMin,
};

use crate::MSS;

/// COPA's δ: equilibrium queueing of `1/δ` packets per flow.
const DEFAULT_DELTA: f64 = 0.5;
/// Window of the minimum-RTT filter (10 s, per the COPA paper).
const MIN_RTT_WINDOW: Dur = Dur::from_secs(10);
/// Minimum window, packets.
const MIN_CWND_PKTS: f64 = 4.0;
/// Initial window, packets.
const INIT_CWND_PKTS: f64 = 10.0;
/// Velocity cap to keep doubling finite.
const MAX_VELOCITY: f64 = 1u64.wrapping_shl(16) as f64;

/// COPA congestion controller (default / delay mode).
#[derive(Debug)]
pub struct Copa {
    delta: f64,
    /// Congestion window, bytes (fractional).
    cwnd: f64,
    velocity: f64,
    /// +1 growing, -1 shrinking, 0 unknown.
    direction: i8,
    /// Consecutive same-direction windows.
    same_direction_count: u32,
    /// cwnd at the start of the current observation window.
    cwnd_at_window_start: f64,
    window_started: Option<Time>,
    min_rtt: WindowedMin,
    /// Standing RTT: min over the last srtt/2.
    standing_rtt: WindowedMin,
    rtt: RttEstimator,
    in_slow_start: bool,
}

impl Copa {
    /// COPA with the default δ = 0.5.
    pub fn new() -> Self {
        Self::with_delta(DEFAULT_DELTA)
    }

    /// COPA with a custom δ (larger δ = less queueing, smaller share).
    pub fn with_delta(delta: f64) -> Self {
        assert!(delta > 0.0);
        Self {
            delta,
            cwnd: INIT_CWND_PKTS * MSS,
            velocity: 1.0,
            direction: 0,
            same_direction_count: 0,
            cwnd_at_window_start: INIT_CWND_PKTS * MSS,
            window_started: None,
            min_rtt: WindowedMin::new(MIN_RTT_WINDOW),
            standing_rtt: WindowedMin::new(Dur::from_millis(50)),
            rtt: RttEstimator::new(),
            in_slow_start: true,
        }
    }

    /// Current window, packets.
    pub fn cwnd_pkts(&self) -> f64 {
        self.cwnd / MSS
    }

    /// Whether the controller is still in its startup phase.
    pub fn in_slow_start(&self) -> bool {
        self.in_slow_start
    }

    /// Standing queueing delay estimate, seconds.
    fn queueing_delay(&self) -> Option<f64> {
        let min = self.min_rtt.get()?;
        let standing = self.standing_rtt.get()?;
        Some((standing - min).max(0.0))
    }

    fn update_velocity(&mut self, now: Time) {
        let Some(srtt) = self.rtt.srtt() else {
            return;
        };
        let started = match self.window_started {
            Some(t) => t,
            None => {
                self.window_started = Some(now);
                self.cwnd_at_window_start = self.cwnd;
                return;
            }
        };
        if now.since(started) < srtt {
            return;
        }
        let dir: i8 = if self.cwnd > self.cwnd_at_window_start {
            1
        } else {
            -1
        };
        if dir == self.direction {
            self.same_direction_count += 1;
            // Velocity doubles only after three consecutive same-direction
            // windows (COPA §2.2).
            if self.same_direction_count >= 3 {
                self.velocity = (self.velocity * 2.0).min(MAX_VELOCITY);
            }
        } else {
            self.direction = dir;
            self.same_direction_count = 0;
            self.velocity = 1.0;
        }
        self.window_started = Some(now);
        self.cwnd_at_window_start = self.cwnd;
    }
}

impl Default for Copa {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Copa {
    fn name(&self) -> &str {
        "COPA"
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        let rtt_s = ack.rtt.as_secs_f64();
        self.rtt.update(ack.rtt);
        // The standing window is srtt/2, re-targeted as srtt evolves.
        let srtt = self.rtt.srtt_or(ack.rtt);
        self.standing_rtt
            .set_window(Dur::from_nanos(srtt.as_nanos() / 2).max(Dur::from_millis(1)));
        self.min_rtt.update(now, rtt_s);
        self.standing_rtt.update(now, rtt_s);

        let dq = self.queueing_delay().unwrap_or(0.0);
        let standing = self.standing_rtt.get().unwrap_or(rtt_s).max(1e-6);
        let current_rate = self.cwnd / standing; // bytes/sec
        let target_rate = if dq > 1e-6 {
            MSS / (self.delta * dq)
        } else {
            f64::INFINITY
        };

        if self.in_slow_start {
            if current_rate < target_rate {
                self.cwnd += ack.bytes as f64; // double per RTT
                return;
            }
            self.in_slow_start = false;
        }

        self.update_velocity(now);
        // Window step: v / (δ · cwnd_pkts) packets per ACK.
        let step = self.velocity * MSS * MSS / (self.delta * self.cwnd);
        if current_rate <= target_rate {
            self.cwnd += step;
        } else {
            self.cwnd -= step;
        }
        let floor = MIN_CWND_PKTS * MSS;
        if self.cwnd < floor {
            self.cwnd = floor;
        }
    }

    fn on_loss(&mut self, _now: Time, loss: &LossInfo) {
        if loss.by_timeout {
            self.cwnd = MIN_CWND_PKTS * MSS;
            self.in_slow_start = true;
            self.velocity = 1.0;
            self.direction = 0;
            self.same_direction_count = 0;
        }
        // Individual (dup-ACK) losses: no reaction in default mode.
    }

    fn pacing_rate(&self) -> Option<f64> {
        // COPA paces at 2×cwnd/RTT to avoid bursts (NSDI'18 §3).
        let srtt = self.rtt.srtt()?.as_secs_f64();
        if srtt <= 0.0 {
            return None;
        }
        Some(2.0 * self.cwnd / srtt)
    }

    fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(seq: u64, now: Time, rtt_ms: u64) -> AckInfo {
        AckInfo {
            seq,
            bytes: 1500,
            sent_at: now - Dur::from_millis(rtt_ms),
            recv_at: now,
            rtt: Dur::from_millis(rtt_ms),
            one_way_delay: Dur::from_millis(rtt_ms / 2),
        }
    }

    #[test]
    fn slow_start_doubles_until_target() {
        let mut c = Copa::new();
        let now = Time::from_millis(100);
        let w0 = c.cwnd_pkts();
        // Constant RTT: no queueing detected, stays in slow start.
        for i in 0..10 {
            c.on_ack(now + Dur::from_millis(i), &ack(i, now, 30));
        }
        assert!(c.in_slow_start());
        assert!((c.cwnd_pkts() - (w0 + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn exits_slow_start_when_queue_builds() {
        let mut c = Copa::new();
        let mut now = Time::from_millis(100);
        // Establish min RTT = 30 ms.
        c.on_ack(now, &ack(0, now, 30));
        // Large sustained queueing: dq = 60 ms ⇒ target λ = 1500/(0.5·0.06)
        // = 50 KB/s, far below the current rate.
        for i in 1..200u64 {
            now += Dur::from_millis(5);
            c.on_ack(now, &ack(i, now, 90));
        }
        assert!(!c.in_slow_start());
    }

    #[test]
    fn shrinks_when_above_target_rate() {
        let mut c = Copa::new();
        let mut now = Time::from_millis(100);
        c.on_ack(now, &ack(0, now, 30));
        for i in 1..400u64 {
            now += Dur::from_millis(5);
            c.on_ack(now, &ack(i, now, 90));
        }
        // Well above target with persistent dq: the window must have come
        // down substantially from its slow-start exit point.
        let w = c.cwnd_pkts();
        for i in 400..800u64 {
            now += Dur::from_millis(5);
            c.on_ack(now, &ack(i, now, 90));
        }
        assert!(c.cwnd_pkts() <= w);
        assert!(c.cwnd_pkts() >= MIN_CWND_PKTS);
    }

    #[test]
    fn dup_ack_loss_is_ignored_timeout_collapses() {
        let mut c = Copa::new();
        let now = Time::from_millis(100);
        for i in 0..20 {
            c.on_ack(now, &ack(i, now, 30));
        }
        let w = c.cwnd_pkts();
        c.on_loss(
            now,
            &LossInfo {
                seq: 21,
                bytes: 1500,
                sent_at: now,
                detected_at: now,
                by_timeout: false,
            },
        );
        assert_eq!(c.cwnd_pkts(), w);
        c.on_loss(
            now,
            &LossInfo {
                seq: 22,
                bytes: 1500,
                sent_at: now,
                detected_at: now,
                by_timeout: true,
            },
        );
        assert_eq!(c.cwnd_pkts(), MIN_CWND_PKTS);
        assert!(c.in_slow_start());
    }

    #[test]
    fn paces_at_twice_window_rate() {
        let mut c = Copa::new();
        assert_eq!(c.pacing_rate(), None); // no srtt yet
        let now = Time::from_millis(100);
        c.on_ack(now, &ack(0, now, 30));
        let rate = c.pacing_rate().unwrap();
        let expect = 2.0 * c.cwnd_bytes() as f64 / 0.030;
        assert!((rate - expect).abs() / expect < 0.05, "{rate} vs {expect}");
    }

    #[test]
    fn velocity_doubles_after_three_consistent_windows() {
        let mut c = Copa::with_delta(0.5);
        c.in_slow_start = false;
        c.rtt.update(Dur::from_millis(30));
        c.direction = 1;
        c.same_direction_count = 0;
        c.velocity = 1.0;
        let mut now = Time::from_millis(100);
        for _ in 0..5 {
            c.window_started = Some(now);
            c.cwnd_at_window_start = c.cwnd - 1.0; // we grew
            now += Dur::from_millis(31);
            c.update_velocity(now);
        }
        assert!(c.velocity >= 4.0, "velocity = {}", c.velocity);
    }

    /// A scripted trace with a queue that builds and drains and two
    /// timeouts: window and pacing rate (which carries the smoothed RTT)
    /// are pinned to the bit every 500 packets.
    #[test]
    fn scripted_trace_pins_window_and_pacing() {
        let mut c = Copa::new();
        let mut pins = Vec::new();
        crate::script::run(
            &mut c,
            9_000,
            Dur::from_millis(1),
            |now, r| {
                let queue_us = (now.as_nanos() / 1_000_000) % 1_500 * 40;
                let rtt = Dur::from_micros(30_000 + queue_us + r % 3_000);
                (rtt, Dur::from_nanos(rtt.as_nanos() / 2))
            },
            |seq, _, c| {
                if seq % 500 == 499 {
                    pins.push((c.cwnd.to_bits(), c.pacing_rate().unwrap().to_bits()));
                }
            },
        );
        assert_eq!(
            pins,
            [
                (0x40c134479ab070b0, 0x4113a4ee703c459a),
                (0x40b7700000000000, 0x410382722b80a857),
                (0x40e51acbd508aa57, 0x41429f6158351591),
                (0x40b8c449f83aa4e5, 0x410c2aba2193abc3),
                (0x40b7700000000000, 0x410381cb6dcd3d28),
                (0x41080e50c8fad0e7, 0x41656afee0801d59),
                (0x40f4e0b58f923f86, 0x4147d1a13be76c47),
                (0x40b7700000000000, 0x410368b2372a0cd0),
                (0x40e16456b64bf871, 0x413efbd0e36786fc),
                (0x40b9d32543798bd7, 0x410d31a842ad5719),
                (0x40b7700000000000, 0x41037d623ffac052),
                (0x41000b31f5126892, 0x415ccaeea94f7173),
                (0x40baba292c9fdba1, 0x410e68aa78f1f072),
                (0x40b7700000000000, 0x410370208fe4e3fc),
                (0x413786c9a61c6f7d, 0x4194f16263787d38),
                (0x41356e87f662ce10, 0x41883e0b2a53dfe9),
                (0x40b7700000000000, 0x410371e5d203c83a),
                (0x4103207aa1730b01, 0x4160dd51448b1fa8),
            ]
        );
    }

    #[test]
    fn velocity_resets_on_direction_change() {
        let mut c = Copa::with_delta(0.5);
        c.in_slow_start = false;
        c.direction = 1;
        c.same_direction_count = 5;
        c.velocity = 8.0;
        c.window_started = Some(Time::ZERO);
        c.cwnd_at_window_start = c.cwnd + 10_000.0; // we shrank
        c.rtt.update(Dur::from_millis(30));
        c.update_velocity(Time::from_millis(100));
        assert_eq!(c.velocity, 1.0);
        assert_eq!(c.direction, -1);
    }
}
