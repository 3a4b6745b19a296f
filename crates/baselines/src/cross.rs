//! Cross-style delay-based interactive congestion control.
//!
//! A rate-based controller for real-time media in the spirit of Cross
//! (Zhang & Yang, arXiv:2409.10042) and the delay-gradient RTP controllers
//! surveyed in the simulated-environment comparison (Zhang,
//! arXiv:1809.00304): instead of filling the buffer to a loss or a fixed
//! queuing target, it watches the *one-way-delay gradient* and the
//! absolute queuing delay over RTT-length rounds and runs a three-state
//! probe/backoff machine around them:
//!
//! * **Probe** — queuing delay below [`TARGET_LOW`] and a non-rising delay
//!   gradient: multiplicatively raise the pacing rate ([`PROBE_GAIN`]).
//! * **Backoff** — queuing delay above [`TARGET_HIGH`] *or* the per-round
//!   gradient above [`GRADIENT_BACKOFF`]: multiplicatively cut the rate
//!   ([`BACKOFF_FACTOR`]) before the queue (and the call's frame latency)
//!   inflates further.
//! * **Hold** — in the dead band, or cooling down for
//!   [`HOLD_ROUNDS_AFTER_BACKOFF`] rounds after a backoff so the queue
//!   drains before the next probe; the rate is left alone.
//!
//! Base (propagation) delay is tracked LEDBAT-style as a short history of
//! per-minute one-way-delay minima, so the controller survives route
//! changes without permanently believing an inflated base. Loss reacts at
//! most once per smoothed RTT ([`LOSS_BETA`]); a retransmission timeout
//! collapses the rate toward the floor. A safety window derived from
//! `rate × srtt` caps in-flight data, so when the path blacks out the
//! sender cannot keep streaming packets into a dead link ("no cwnd
//! escape").

use proteus_transport::{AckInfo, BaseDelay, CongestionControl, Dur, LossInfo, Time};

use crate::MSS;

/// Queuing delay (seconds) under which the controller may probe for rate.
pub const TARGET_LOW: f64 = 0.010;
/// Queuing delay (seconds) above which the controller backs off.
pub const TARGET_HIGH: f64 = 0.025;
/// Per-round one-way-delay gradient (s/s) that forces a backoff even while
/// absolute queuing is still inside the dead band.
pub const GRADIENT_BACKOFF: f64 = 0.01;
/// Multiplicative rate increase per probing round.
pub const PROBE_GAIN: f64 = 1.08;
/// Multiplicative rate decrease per backoff round.
pub const BACKOFF_FACTOR: f64 = 0.9;
/// Rounds the controller holds (no probing) after a backoff, letting the
/// queue drain before trusting delay samples again.
pub const HOLD_ROUNDS_AFTER_BACKOFF: u32 = 2;
/// Multiplicative rate decrease on packet loss (at most once per RTT).
pub const LOSS_BETA: f64 = 0.85;
/// Pacing-rate floor, bytes/sec (≈ 1 Mbit/s — an audio-plus-thumbnail
/// floor; interactive sources below this are better served by suspending).
pub const MIN_RATE: f64 = 125_000.0;
/// Pacing-rate ceiling, bytes/sec (safety clamp, ≈ 10 Gbit/s).
pub const MAX_RATE: f64 = 1.25e9;
/// Initial pacing rate, bytes/sec (≈ 4 Mbit/s).
const INIT_RATE: f64 = 500_000.0;
/// Safety-window slack: in-flight may reach this multiple of `rate × srtt`
/// (plus a few packets), bounding damage when ACKs stop arriving.
const CWND_SLACK: f64 = 1.5;
/// Safety-window floor, packets.
const MIN_CWND_PKTS: f64 = 4.0;

/// Operating state of the probe/backoff machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossState {
    /// Raising the rate multiplicatively.
    Probe,
    /// Rate frozen (dead band or post-backoff cooldown).
    Hold,
    /// Cutting the rate in response to queuing delay or its gradient.
    Backoff,
}

/// Cross delay-gradient congestion controller.
#[derive(Debug)]
pub struct Cross {
    /// Pacing rate, bytes/sec.
    rate: f64,
    state: CrossState,
    /// Remaining post-backoff cooldown rounds.
    hold_rounds: u32,
    /// Smoothed RTT (loss latch and round length).
    srtt: Dur,
    /// When the current measurement round started.
    round_started: Option<Time>,
    /// Minimum one-way delay observed this round, seconds.
    round_min_owd: f64,
    /// Minimum one-way delay of the previous round, for the gradient.
    prev_round_owd: Option<f64>,
    /// Rounds completed since flow start.
    rounds: u64,
    /// Per-minute minima of observed one-way delay, as in LEDBAT.
    base: BaseDelay,
    /// Once-per-RTT loss reaction latch.
    last_loss_at: Option<Time>,
}

impl Cross {
    /// A fresh controller at the default initial rate.
    pub fn new() -> Self {
        Self {
            rate: INIT_RATE,
            state: CrossState::Probe,
            hold_rounds: 0,
            srtt: Dur::from_millis(100),
            round_started: None,
            round_min_owd: f64::INFINITY,
            prev_round_owd: None,
            rounds: 0,
            base: BaseDelay::default(),
            last_loss_at: None,
        }
    }

    /// Current pacing rate, bytes/sec.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Current state of the probe/backoff machine.
    pub fn state(&self) -> CrossState {
        self.state
    }

    /// Measurement rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Current estimate of the path's base one-way delay, seconds.
    pub fn base_delay(&self) -> Option<f64> {
        self.base.get()
    }

    /// Queuing delay implied by the last completed round, seconds.
    pub fn queuing_delay(&self) -> Option<f64> {
        match (self.prev_round_owd, self.base_delay()) {
            (Some(cur), Some(base)) => Some((cur - base).max(0.0)),
            _ => None,
        }
    }

    /// Closes the round that started at `started`, runs the state machine,
    /// and opens the next round at `now`.
    fn close_round(&mut self, now: Time, started: Time) {
        let cur = self.round_min_owd;
        let round_s = now.since(started).as_secs_f64().max(1e-6);
        let base = self.base_delay().unwrap_or(cur);
        let queuing = (cur - base).max(0.0);
        let gradient = self
            .prev_round_owd
            .map(|prev| (cur - prev) / round_s)
            .unwrap_or(0.0);

        if queuing > TARGET_HIGH || gradient > GRADIENT_BACKOFF {
            self.state = CrossState::Backoff;
            self.hold_rounds = HOLD_ROUNDS_AFTER_BACKOFF;
            self.rate *= BACKOFF_FACTOR;
        } else if self.hold_rounds > 0 {
            self.hold_rounds -= 1;
            self.state = CrossState::Hold;
        } else if queuing < TARGET_LOW {
            self.state = CrossState::Probe;
            self.rate *= PROBE_GAIN;
        } else {
            self.state = CrossState::Hold;
        }
        self.rate = self.rate.clamp(MIN_RATE, MAX_RATE);

        self.prev_round_owd = Some(cur);
        self.round_min_owd = f64::INFINITY;
        self.round_started = Some(now);
        self.rounds += 1;
    }
}

impl Default for Cross {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cross {
    fn name(&self) -> &str {
        "Cross"
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        self.srtt = Dur::from_nanos((7 * self.srtt.as_nanos() + ack.rtt.as_nanos()) / 8);

        let owd_s = ack.one_way_delay.as_secs_f64();
        self.base.update(now, owd_s);
        self.round_min_owd = self.round_min_owd.min(owd_s);

        match self.round_started {
            None => self.round_started = Some(now),
            Some(started) => {
                if now.since(started) >= self.srtt {
                    self.close_round(now, started);
                }
            }
        }
    }

    fn on_loss(&mut self, now: Time, loss: &LossInfo) {
        // At most one multiplicative cut per RTT.
        if let Some(last) = self.last_loss_at {
            if now.since(last) < self.srtt {
                return;
            }
        }
        self.last_loss_at = Some(now);
        if loss.by_timeout {
            // The path went dark: collapse toward the floor and cool down.
            self.rate = (self.rate * 0.5).max(MIN_RATE);
        } else {
            self.rate = (self.rate * LOSS_BETA).max(MIN_RATE);
        }
        self.state = CrossState::Backoff;
        self.hold_rounds = HOLD_ROUNDS_AFTER_BACKOFF;
    }

    fn pacing_rate(&self) -> Option<f64> {
        Some(self.rate)
    }

    fn cwnd_bytes(&self) -> u64 {
        // Safety window only: normally the pacer (and the app-limited
        // source) governs; when ACKs stop, this caps in-flight data.
        let w = CWND_SLACK * self.rate * self.srtt.as_secs_f64() + MIN_CWND_PKTS * MSS;
        w.max(MIN_CWND_PKTS * MSS) as u64
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

    /// Feeds `n` ACKs with constant OWD, advancing time by `step` each.
    fn feed(c: &mut Cross, start: Time, n: u64, step: Dur, owd: Dur) -> Time {
        let mut now = start;
        for i in 0..n {
            c.on_ack(now, &ack_with_owd(i, now, owd));
            now += step;
        }
        now
    }

    #[test]
    fn probes_under_flat_low_delay() {
        let mut c = Cross::new();
        let before = c.rate();
        // 2 s of ACKs at a flat 15 ms OWD: queuing 0, gradient 0.
        feed(
            &mut c,
            Time::from_millis(100),
            100,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        assert!(c.rounds() > 10, "rounds = {}", c.rounds());
        assert_eq!(c.state(), CrossState::Probe);
        assert!(c.rate() > before, "{} -> {}", before, c.rate());
        assert!((c.base_delay().unwrap() - 0.015).abs() < 1e-9);
        assert!(c.queuing_delay().unwrap() < 1e-9);
    }

    #[test]
    fn backs_off_above_target_high() {
        let mut c = Cross::new();
        // Establish base = 15 ms over a couple of rounds.
        let now = feed(
            &mut c,
            Time::from_millis(100),
            20,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        let w = c.rate();
        // 45 ms OWD = 30 ms queuing, above TARGET_HIGH.
        feed(&mut c, now, 40, Dur::from_millis(20), Dur::from_millis(45));
        assert_eq!(c.state(), CrossState::Backoff);
        assert!(c.rate() < w, "{} -> {}", w, c.rate());
    }

    #[test]
    fn rising_gradient_triggers_backoff_inside_dead_band() {
        let mut c = Cross::new();
        let mut now = feed(
            &mut c,
            Time::from_millis(100),
            20,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        let w = c.rate();
        // OWD climbs 2 ms per 20 ms ACK (~0.1 s/s gradient) while absolute
        // queuing is still under TARGET_HIGH for the first rounds.
        for i in 0..5u64 {
            c.on_ack(
                now,
                &ack_with_owd(100 + i, now, Dur::from_millis(15 + 2 * i)),
            );
            now += Dur::from_millis(20);
        }
        assert_eq!(
            c.state(),
            CrossState::Backoff,
            "queuing {:?}",
            c.queuing_delay()
        );
        assert!(c.rate() < w);
    }

    #[test]
    fn holds_after_backoff_before_reprobing() {
        let mut c = Cross::new();
        let now = feed(
            &mut c,
            Time::from_millis(100),
            20,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        // One bad round forces a backoff...
        let now = feed(&mut c, now, 3, Dur::from_millis(20), Dur::from_millis(60));
        assert_eq!(c.state(), CrossState::Backoff);
        let rate_after_backoff = c.rate();
        // ...then delay recovers instantly; the next rounds must HOLD (the
        // cooldown) before probing resumes.
        let mut now = now;
        let mut saw_hold = false;
        for i in 0..200u64 {
            c.on_ack(now, &ack_with_owd(200 + i, now, Dur::from_millis(15)));
            if c.state() == CrossState::Hold {
                saw_hold = true;
                assert!(
                    c.rate() <= rate_after_backoff + 1e-9,
                    "hold must not raise rate"
                );
            }
            now += Dur::from_millis(20);
        }
        assert!(saw_hold, "cooldown hold rounds never observed");
        assert_eq!(c.state(), CrossState::Probe, "probing should resume");
        assert!(c.rate() > rate_after_backoff);
    }

    #[test]
    fn loss_cuts_at_most_once_per_rtt() {
        let mut c = Cross::new();
        let now = feed(
            &mut c,
            Time::from_millis(100),
            50,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        let w = c.rate();
        let mk_loss = |seq, at: Time, timeout| LossInfo {
            seq,
            bytes: 1500,
            sent_at: at - Dur::from_millis(30),
            detected_at: at,
            by_timeout: timeout,
        };
        c.on_loss(now, &mk_loss(90, now, false));
        let after_one = c.rate();
        assert!((after_one - (w * LOSS_BETA).max(MIN_RATE)).abs() < 1e-6);
        assert_eq!(c.state(), CrossState::Backoff);
        // Immediate second loss is latched out.
        c.on_loss(
            now + Dur::from_millis(1),
            &mk_loss(91, now + Dur::from_millis(1), false),
        );
        assert_eq!(c.rate(), after_one);
        // A timeout an RTT later halves toward the floor.
        let later = now + Dur::from_millis(200);
        c.on_loss(later, &mk_loss(92, later, true));
        assert!(c.rate() <= after_one * 0.5 + 1e-6 || c.rate() == MIN_RATE);
    }

    #[test]
    fn rate_never_escapes_bounds() {
        let mut c = Cross::new();
        // Many probing rounds: clamped at MAX_RATE.
        feed(
            &mut c,
            Time::from_millis(100),
            20_000,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        assert!(c.rate() <= MAX_RATE);
        // Then a long string of losses: clamped at MIN_RATE.
        let mut now = Time::from_secs_f64(500.0);
        for i in 0..200u64 {
            c.on_loss(
                now,
                &LossInfo {
                    seq: i,
                    bytes: 1500,
                    sent_at: now - Dur::from_millis(30),
                    detected_at: now,
                    by_timeout: true,
                },
            );
            now += Dur::from_millis(200);
        }
        assert!(c.rate() >= MIN_RATE);
    }

    #[test]
    fn safety_window_tracks_rate_and_bounds_outage_damage() {
        let mut c = Cross::new();
        feed(
            &mut c,
            Time::from_millis(100),
            50,
            Dur::from_millis(20),
            Dur::from_millis(15),
        );
        let w = c.cwnd_bytes() as f64;
        let bound = CWND_SLACK * c.rate() * c.srtt.as_secs_f64() + MIN_CWND_PKTS * 1500.0;
        assert!(w <= bound + 1.0, "w {w} vs bound {bound}");
        // When ACKs stop (outage), the window — not time — caps in-flight:
        // it must be finite and far below a second of sending.
        assert!(c.cwnd_bytes() < (c.rate() * 1.0) as u64);
        assert!(c.cwnd_bytes() >= (MIN_CWND_PKTS * 1500.0) as u64);
    }

    #[test]
    fn base_history_rolls_over_minutes() {
        let mut c = Cross::new();
        let mut now = Time::from_millis(100);
        c.on_ack(now, &ack_with_owd(0, now, Dur::from_millis(40)));
        now += Dur::from_secs(61);
        c.on_ack(now, &ack_with_owd(1, now, Dur::from_millis(20)));
        assert!((c.base_delay().unwrap() - 0.020).abs() < 1e-9);
    }

    /// Fourteen minutes of a scripted trace whose path delay rises 1 ms a
    /// minute: rate, base delay and queuing delay are pinned to the bit at
    /// every minute, across the history's drop of its 11th bucket.
    #[test]
    fn scripted_trace_pins_rate_and_base_delay() {
        let mut c = Cross::new();
        let mut pins = Vec::new();
        crate::script::run(
            &mut c,
            42_000,
            Dur::from_millis(20),
            |now, r| {
                let minute = now.as_nanos() / 60_000_000_000;
                let owd = Dur::from_micros(10_000 + 1_000 * minute + r % 500);
                (Dur::from_nanos(2 * owd.as_nanos() + 5_000_000), owd)
            },
            |seq, _, c| {
                if seq % 3_000 == 2_999 {
                    pins.push((
                        c.rate().to_bits(),
                        c.base_delay().unwrap().to_bits(),
                        c.queuing_delay().unwrap().to_bits(),
                    ));
                }
            },
        );
        assert_eq!(
            pins,
            [
                (0x41c839446a000000, 0x3f847ae147ae147b, 0x3f5711947cfa26a0),
                (0x41c8042f34800002, 0x3f847ae147ae147b, 0x3f6083dbc23315d8),
                (0x41d09ecc84000000, 0x3f847ae147ae147b, 0x3f6a5a89b951c5c4),
                (0x41d0c388d0000000, 0x3f847ae147ae147b, 0x3f70d5a5b9628cbc),
                (0x41cc7f9bc8000000, 0x3f847ae147ae147b, 0x3f758d9b5e95b78c),
                (0x41cc7f9bc8000000, 0x3f847ae147ae147b, 0x3f78c8eef1bac2de),
                (0x41c63cc369800001, 0x3f847ae147ae147b, 0x3f7db445ed4a1ad6),
                (0x41d0c388d0000000, 0x3f847ae147ae147b, 0x3f809f1f14983d79),
                (0x41cdbcea6f2d32a8, 0x3f847ae147ae147b, 0x3f8281fd9ba1b195),
                (0x41c839446a000000, 0x3f847ae147ae147b, 0x3f853ef6b5d462c3),
                (0x41ca295e5e000000, 0x3f86872b020c49ba, 0x3f84de7ea5f84cae),
                (0x41cc7f9bc8000000, 0x3f889374bc6a7efa, 0x3f84aec8d5c74752),
                (0x41b30d0bd4da1da4, 0x3f8a9fbe76c8b439, 0x3f84a0a0f4d7add1),
                (0x41ce40f110a7bb33, 0x3f8cac083126e979, 0x3f849f0e4da09cc3),
            ]
        );
    }

    proptest::proptest! {
        /// Under any interleaving of ACKs and losses with arbitrary delays
        /// and inter-event gaps, the rate stays inside its clamps and the
        /// safety window stays finite, floored, and proportional to
        /// rate × srtt — the "no cwnd escape" invariant.
        #[test]
        fn prop_rate_and_window_always_bounded(
            kinds in proptest::collection::vec(0u8..2, 200..201),
            gaps in proptest::collection::vec(0u64..500_000, 200..201),
            delays in proptest::collection::vec(100u64..2_000_000, 200..201),
            flags in proptest::collection::vec(proptest::any::<bool>(), 200..201),
        ) {
            let mut c = Cross::new();
            let mut now = Time::from_millis(1);
            for i in 0..kinds.len() {
                let (kind, gap_us, delay_us, flag) = (kinds[i], gaps[i], delays[i], flags[i]);
                now += Dur::from_micros(gap_us);
                let seq = i as u64 + 1;
                if kind == 0 {
                    let owd = Dur::from_micros(delay_us);
                    c.on_ack(now, &AckInfo {
                        seq,
                        bytes: 1500,
                        sent_at: now - owd,
                        recv_at: now,
                        rtt: Dur::from_micros(2 * delay_us),
                        one_way_delay: owd,
                    });
                } else {
                    c.on_loss(now, &LossInfo {
                        seq,
                        bytes: 1500,
                        sent_at: now - Dur::from_micros(delay_us),
                        detected_at: now,
                        by_timeout: flag,
                    });
                }
                proptest::prop_assert!(c.rate().is_finite());
                proptest::prop_assert!((MIN_RATE..=MAX_RATE).contains(&c.rate()));
                let w = c.cwnd_bytes();
                proptest::prop_assert!(w >= (MIN_CWND_PKTS * 1500.0) as u64);
                let bound = CWND_SLACK * c.rate() * c.srtt.as_secs_f64()
                    + MIN_CWND_PKTS * 1500.0;
                proptest::prop_assert!(w as f64 <= bound + 1.0);
            }
        }
    }
}
