//! TCP BBR v1 (Cardwell et al., 2016), plus the paper's BBR-S variant.
//!
//! BBR models the path with two estimates — bottleneck bandwidth (windowed
//! max of per-packet delivery-rate samples) and minimum RTT (the lowest
//! sample, with a ProbeRTT episode every 10 s) — and paces at
//! `pacing_gain × btl_bw` while capping inflight at `cwnd_gain × BDP`.
//! We implement the v1 state machine: Startup (gain 2/ln 2), Drain, the
//! eight-phase ProbeBW gain cycle, and ProbeRTT every 10 s.
//!
//! **BBR-S** (§7.1 of the Proteus paper) is stock BBR with one change:
//! whenever the smoothed RTT deviation exceeds 20 ms, the sender is forced
//! into ProbeRTT for at least 40 ms, causing it to yield like a scavenger.
//! The paper uses it to show RTT deviation generalizes beyond Proteus.

use std::collections::VecDeque;

use proteus_transport::{
    AckInfo, CongestionControl, Dur, LossInfo, RttEstimator, SentPacket, SeqRing, Time,
    DEFAULT_PACKET_BYTES,
};

/// Startup/Drain gain `2/ln 2`.
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
const CYCLE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain outside Startup.
const CWND_GAIN: f64 = 2.0;
/// Time since the min-RTT stamp after which ProbeRTT starts.
const MIN_RTT_WINDOW: Dur = Dur::from_secs(10);
/// Minimum ProbeRTT dwell.
const PROBE_RTT_DURATION: Dur = Dur::from_millis(200);
/// ProbeRTT inflight cap, packets.
const PROBE_RTT_CWND_PKTS: u64 = 4;
/// Startup is declared "full pipe" after this many rounds without 25 %
/// bandwidth growth.
const FULL_BW_ROUNDS: u32 = 3;
/// Initial window, packets.
const INIT_CWND_PKTS: u64 = 10;

/// Windowed-max filter keyed by BBR round count (real BBR windows its
/// bandwidth filter over 10 *round trips*, not wall time, so the estimate
/// survives ProbeRTT's low-rate episode).
#[derive(Debug, Default)]
struct RoundMaxFilter {
    /// Monotonically decreasing (round, value) candidates.
    deque: VecDeque<(u64, f64)>,
}

impl RoundMaxFilter {
    const WINDOW_ROUNDS: u64 = 10;

    fn update(&mut self, round: u64, sample: f64) {
        while matches!(self.deque.back(), Some(&(_, v)) if v <= sample) {
            self.deque.pop_back();
        }
        self.deque.push_back((round, sample));
        while matches!(self.deque.front(), Some(&(r, _)) if r + Self::WINDOW_ROUNDS < round) {
            self.deque.pop_front();
        }
    }

    fn get(&self) -> Option<f64> {
        self.deque.front().map(|&(_, v)| v)
    }

    fn reset(&mut self) {
        self.deque.clear();
    }
}

/// BBR state-machine modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exponential bandwidth search.
    Startup,
    /// Drain the Startup queue.
    Drain,
    /// Steady-state gain cycling.
    ProbeBw,
    /// Periodic min-RTT refresh at minimal inflight.
    ProbeRtt,
}

/// Configuration of the BBR-S scavenger modification (§7.1).
#[derive(Debug, Clone, Copy)]
pub struct ScavengerMod {
    /// Smoothed-RTT-deviation threshold that forces ProbeRTT (paper: 20 ms).
    pub dev_threshold: Dur,
    /// Minimum forced-ProbeRTT dwell (paper: 40 ms).
    pub min_dwell: Dur,
}

impl Default for ScavengerMod {
    fn default() -> Self {
        Self {
            dev_threshold: Dur::from_millis(20),
            min_dwell: Dur::from_millis(40),
        }
    }
}

impl ScavengerMod {
    /// Thresholds calibrated for the packet-level simulator, whose RTT
    /// variance under competition is lower than the paper's Emulab testbed
    /// (kernel/NIC jitter is absent). The paper presents its 20 ms / 40 ms
    /// values explicitly as illustrative ("we use fixed thresholds such as
    /// 20 ms RTT deviation for illustration"); scaled to the simulator's
    /// variance, 4 ms with a 500 ms dwell reproduces Fig. 14's behaviour —
    /// BBR-S yields to BBR and CUBIC while sharing fairly with itself.
    pub fn calibrated_for_sim() -> Self {
        Self {
            dev_threshold: Dur::from_millis(4),
            min_dwell: Dur::from_millis(500),
        }
    }
}

/// TCP BBR v1 congestion controller (optionally with the BBR-S scavenger
/// modification).
#[derive(Debug)]
pub struct Bbr {
    name: &'static str,
    mode: Mode,
    /// Windowed max of delivery-rate samples over 10 rounds, bytes/sec.
    btl_bw: RoundMaxFilter,
    /// Lowest RTT seen; never expires. Its stamp is also the ProbeRTT
    /// schedule, which [`Self::exit_probe_rtt`] restarts.
    min_rtt: Option<Dur>,
    min_rtt_stamp: Time,
    pacing_gain: f64,
    cwnd_gain: f64,
    /// Cumulative bytes delivered (ACKed).
    delivered: u64,
    /// Per-packet delivery snapshot `(delivered, sent at)` for rate sampling.
    packet_state: SeqRing<(u64, Time)>,
    inflight_bytes: u64,
    /// Round tracking.
    next_round_delivered: u64,
    round_count: u64,
    round_start: bool,
    /// Startup full-pipe detection.
    full_bw: f64,
    full_bw_count: u32,
    full_pipe: bool,
    /// ProbeBW cycle position.
    cycle_index: usize,
    cycle_stamp: Time,
    /// ProbeRTT bookkeeping.
    probe_rtt_done_at: Option<Time>,
    /// Smoothed RTT and deviation (for BBR-S).
    rtt: RttEstimator,
    scavenger: Option<ScavengerMod>,
}

impl Bbr {
    /// Stock BBR v1.
    pub fn new() -> Self {
        Self::build("BBR", None)
    }

    /// BBR-S: BBR with the §7.1 RTT-deviation yield rule.
    pub fn scavenger() -> Self {
        Self::build("BBR-S", Some(ScavengerMod::default()))
    }

    /// BBR-S with custom thresholds.
    pub fn scavenger_with(cfg: ScavengerMod) -> Self {
        Self::build("BBR-S", Some(cfg))
    }

    fn build(name: &'static str, scavenger: Option<ScavengerMod>) -> Self {
        Self {
            name,
            mode: Mode::Startup,
            btl_bw: RoundMaxFilter::default(),
            min_rtt: None,
            min_rtt_stamp: Time::ZERO,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            delivered: 0,
            packet_state: SeqRing::new(),
            inflight_bytes: 0,
            next_round_delivered: 0,
            round_count: 0,
            round_start: false,
            full_bw: 0.0,
            full_bw_count: 0,
            full_pipe: false,
            cycle_index: 0,
            cycle_stamp: Time::ZERO,
            probe_rtt_done_at: None,
            rtt: RttEstimator::new(),
            scavenger,
        }
    }

    /// Current mode (for tests and the Fig.-14 harness).
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Bottleneck-bandwidth estimate, bytes/sec.
    pub fn btl_bw_estimate(&self) -> Option<f64> {
        self.btl_bw.get()
    }

    /// Minimum-RTT estimate.
    pub fn min_rtt_estimate(&self) -> Option<Dur> {
        self.min_rtt
    }

    /// Smoothed RTT deviation (the BBR-S trigger signal).
    pub fn rtt_deviation(&self) -> Dur {
        self.rtt.rttvar()
    }

    fn bdp_bytes(&self) -> Option<f64> {
        let bw = self.btl_bw.get()?;
        let rtt = self.min_rtt?;
        Some(bw * rtt.as_secs_f64())
    }

    fn enter_probe_rtt(&mut self, now: Time, dwell: Dur) {
        self.mode = Mode::ProbeRtt;
        self.pacing_gain = 1.0;
        self.cwnd_gain = 1.0;
        let done = now + dwell;
        // Keep the later deadline if already probing.
        self.probe_rtt_done_at = Some(match self.probe_rtt_done_at {
            Some(d) if d > done => d,
            _ => done,
        });
    }

    fn exit_probe_rtt(&mut self, now: Time) {
        self.min_rtt_stamp = now;
        self.probe_rtt_done_at = None;
        if self.full_pipe {
            self.mode = Mode::ProbeBw;
            self.cycle_index = 0;
            self.cycle_stamp = now;
            self.pacing_gain = CYCLE_GAINS[0];
            self.cwnd_gain = CWND_GAIN;
        } else {
            self.mode = Mode::Startup;
            self.pacing_gain = STARTUP_GAIN;
            self.cwnd_gain = STARTUP_GAIN;
        }
    }

    fn check_full_pipe(&mut self) {
        if self.full_pipe || !self.round_start {
            return;
        }
        let bw = self.btl_bw.get().unwrap_or(0.0);
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
            if self.full_bw_count >= FULL_BW_ROUNDS {
                self.full_pipe = true;
            }
        }
    }

    fn advance_machine(&mut self, now: Time) {
        match self.mode {
            Mode::Startup => {
                self.check_full_pipe();
                if self.full_pipe {
                    self.mode = Mode::Drain;
                    self.pacing_gain = 1.0 / STARTUP_GAIN;
                    self.cwnd_gain = CWND_GAIN;
                }
            }
            Mode::Drain => {
                if let Some(bdp) = self.bdp_bytes() {
                    if (self.inflight_bytes as f64) <= bdp {
                        self.mode = Mode::ProbeBw;
                        self.cycle_index = 0;
                        self.cycle_stamp = now;
                        self.pacing_gain = CYCLE_GAINS[0];
                    }
                }
            }
            Mode::ProbeBw => {
                let min_rtt = self.min_rtt.unwrap_or(Dur::from_millis(10));
                let elapsed = now.since(self.cycle_stamp);
                let advance = if CYCLE_GAINS[self.cycle_index] == 0.75 {
                    // Leave the drain phase as soon as inflight is at BDP.
                    elapsed >= min_rtt
                        || self
                            .bdp_bytes()
                            .map(|bdp| (self.inflight_bytes as f64) <= bdp)
                            .unwrap_or(false)
                } else {
                    elapsed >= min_rtt
                };
                if advance {
                    self.cycle_index = (self.cycle_index + 1) % CYCLE_GAINS.len();
                    self.cycle_stamp = now;
                    self.pacing_gain = CYCLE_GAINS[self.cycle_index];
                }
            }
            Mode::ProbeRtt => {
                if let Some(done) = self.probe_rtt_done_at {
                    if now >= done {
                        self.exit_probe_rtt(now);
                    }
                }
            }
        }
        // Periodic min-RTT refresh.
        if self.mode != Mode::ProbeRtt
            && self.min_rtt.is_some()
            && now.since(self.min_rtt_stamp) > MIN_RTT_WINDOW
        {
            self.enter_probe_rtt(now, PROBE_RTT_DURATION);
        }
    }
}

impl Default for Bbr {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &str {
        self.name
    }

    fn on_packet_sent(&mut self, now: Time, pkt: &SentPacket) {
        self.packet_state.insert(pkt.seq, (self.delivered, now));
        self.inflight_bytes += pkt.bytes;
    }

    fn on_ack(&mut self, now: Time, ack: &AckInfo) {
        self.delivered += ack.bytes;
        self.inflight_bytes = self.inflight_bytes.saturating_sub(ack.bytes);

        // RFC 6298 smoothing, used by BBR-S's trigger.
        self.rtt.update(ack.rtt);

        // min-RTT filter.
        if self.min_rtt.map(|m| ack.rtt <= m).unwrap_or(true) {
            self.min_rtt = Some(ack.rtt);
            self.min_rtt_stamp = now;
        }

        // Delivery-rate sample and round accounting.
        if let Some((delivered_at_send, sent)) = self.packet_state.remove(ack.seq) {
            if delivered_at_send >= self.next_round_delivered {
                self.next_round_delivered = self.delivered;
                self.round_count += 1;
                self.round_start = true;
            } else {
                self.round_start = false;
            }
            let elapsed = now.since(sent).as_secs_f64();
            if elapsed > 0.0 {
                let rate = (self.delivered - delivered_at_send) as f64 / elapsed;
                self.btl_bw.update(self.round_count, rate);
            }
        }

        // BBR-S: yield on RTT-deviation evidence of competition.
        if let Some(cfg) = self.scavenger {
            if self.rtt.rttvar() > cfg.dev_threshold && self.mode != Mode::ProbeRtt {
                self.enter_probe_rtt(now, cfg.min_dwell);
            }
        }

        self.advance_machine(now);
    }

    fn on_loss(&mut self, _now: Time, loss: &LossInfo) {
        self.packet_state.remove(loss.seq);
        self.inflight_bytes = self.inflight_bytes.saturating_sub(loss.bytes);
        if loss.by_timeout {
            // v1's conservative RTO response: restart the model.
            self.full_pipe = false;
            self.full_bw = 0.0;
            self.full_bw_count = 0;
            self.mode = Mode::Startup;
            self.pacing_gain = STARTUP_GAIN;
            self.cwnd_gain = STARTUP_GAIN;
            self.btl_bw.reset();
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        // Before any bandwidth sample, fall back to ACK clocking on the
        // initial window.
        let bw = self.btl_bw.get()?;
        Some((self.pacing_gain * bw).max(1000.0))
    }

    fn cwnd_bytes(&self) -> u64 {
        if self.mode == Mode::ProbeRtt {
            return PROBE_RTT_CWND_PKTS * DEFAULT_PACKET_BYTES;
        }
        match (self.btl_bw.get(), self.min_rtt) {
            (Some(bw), Some(rtt)) => {
                let bdp = bw * rtt.as_secs_f64();
                ((self.cwnd_gain * bdp) as u64).max(4 * DEFAULT_PACKET_BYTES)
            }
            _ => INIT_CWND_PKTS * DEFAULT_PACKET_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a pipelined stream: packet `i` is sent at `start + i·gap` and
    /// ACKed `rtt` later, with sends and ACKs interleaved in time order the
    /// way a real flow sees them.
    fn feed_steady(bbr: &mut Bbr, start_ms: u64, n: u64, rtt_ms: u64, gap_ms: u64) {
        let mut next_ack: u64 = 0;
        for i in 0..n {
            let send_at = start_ms + i * gap_ms;
            // Deliver any ACKs due before this send.
            while next_ack < i && start_ms + next_ack * gap_ms + rtt_ms <= send_at {
                deliver_ack(bbr, start_ms + next_ack * gap_ms, rtt_ms, next_ack);
                next_ack += 1;
            }
            let sent = Time::from_millis(send_at);
            bbr.on_packet_sent(
                sent,
                &SentPacket {
                    seq: i,
                    bytes: 1500,
                    sent_at: sent,
                },
            );
        }
        while next_ack < n {
            deliver_ack(bbr, start_ms + next_ack * gap_ms, rtt_ms, next_ack);
            next_ack += 1;
        }
    }

    fn deliver_ack(bbr: &mut Bbr, sent_ms: u64, rtt_ms: u64, seq: u64) {
        let sent = Time::from_millis(sent_ms);
        let ack_at = Time::from_millis(sent_ms + rtt_ms);
        bbr.on_ack(
            ack_at,
            &AckInfo {
                seq,
                bytes: 1500,
                sent_at: sent,
                recv_at: ack_at,
                rtt: Dur::from_millis(rtt_ms),
                one_way_delay: Dur::from_millis(rtt_ms / 2),
            },
        );
    }

    #[test]
    fn starts_in_startup_with_high_gain() {
        let b = Bbr::new();
        assert_eq!(b.mode(), Mode::Startup);
        assert_eq!(b.pacing_rate(), None); // no samples yet
        assert_eq!(b.cwnd_bytes(), INIT_CWND_PKTS * 1500);
    }

    #[test]
    fn estimates_bandwidth_and_rtt() {
        let mut b = Bbr::new();
        // One packet per ms at 30ms RTT => ~1.5 MB/s delivery rate.
        feed_steady(&mut b, 100, 200, 30, 1);
        let bw = b.btl_bw_estimate().unwrap();
        assert!(bw > 1.0e6 && bw < 2.5e6, "bw = {bw}");
        assert_eq!(b.min_rtt_estimate(), Some(Dur::from_millis(30)));
    }

    #[test]
    fn leaves_startup_when_bandwidth_plateaus() {
        let mut b = Bbr::new();
        feed_steady(&mut b, 100, 2000, 30, 1);
        assert_ne!(b.mode(), Mode::Startup, "should have detected full pipe");
    }

    #[test]
    fn probe_rtt_caps_window() {
        let mut b = Bbr::new();
        feed_steady(&mut b, 100, 500, 30, 1);
        b.enter_probe_rtt(Time::from_secs_f64(5.0), PROBE_RTT_DURATION);
        assert_eq!(b.cwnd_bytes(), PROBE_RTT_CWND_PKTS * 1500);
        assert_eq!(b.mode(), Mode::ProbeRtt);
    }

    #[test]
    fn probe_rtt_expires_back_to_probe_bw() {
        let mut b = Bbr::new();
        feed_steady(&mut b, 100, 2000, 30, 1);
        let t = Time::from_secs_f64(10.0);
        b.enter_probe_rtt(t, PROBE_RTT_DURATION);
        // Next ACK after the dwell ends the episode.
        let sent = t + Dur::from_millis(300);
        b.on_packet_sent(
            sent,
            &SentPacket {
                seq: 9999,
                bytes: 1500,
                sent_at: sent,
            },
        );
        let ack_at = sent + Dur::from_millis(30);
        b.on_ack(
            ack_at,
            &AckInfo {
                seq: 9999,
                bytes: 1500,
                sent_at: sent,
                recv_at: ack_at,
                rtt: Dur::from_millis(30),
                one_way_delay: Dur::from_millis(15),
            },
        );
        assert_ne!(b.mode(), Mode::ProbeRtt);
    }

    #[test]
    fn bbr_s_yields_on_rtt_deviation() {
        let mut b = Bbr::scavenger();
        assert_eq!(b.name(), "BBR-S");
        // Alternate 30ms / 120ms RTT samples at monotone ACK times:
        // rttvar climbs above 20ms.
        let mut now = Time::from_millis(200);
        for i in 0..100u64 {
            let rtt = if i % 2 == 0 { 30 } else { 120 };
            let sent = now - Dur::from_millis(rtt);
            b.on_packet_sent(
                sent,
                &SentPacket {
                    seq: i,
                    bytes: 1500,
                    sent_at: sent,
                },
            );
            b.on_ack(
                now,
                &AckInfo {
                    seq: i,
                    bytes: 1500,
                    sent_at: sent,
                    recv_at: now,
                    rtt: Dur::from_millis(rtt),
                    one_way_delay: Dur::from_millis(rtt / 2),
                },
            );
            now += Dur::from_millis(2);
        }
        assert!(b.rtt_deviation() > Dur::from_millis(20));
        assert_eq!(b.mode(), Mode::ProbeRtt);
    }

    #[test]
    fn stock_bbr_ignores_deviation() {
        let mut b = Bbr::new();
        let mut now = Time::from_millis(200);
        for i in 0..100u64 {
            let rtt = if i % 2 == 0 { 30 } else { 120 };
            let sent = now - Dur::from_millis(rtt);
            b.on_packet_sent(
                sent,
                &SentPacket {
                    seq: i,
                    bytes: 1500,
                    sent_at: sent,
                },
            );
            b.on_ack(
                now,
                &AckInfo {
                    seq: i,
                    bytes: 1500,
                    sent_at: sent,
                    recv_at: now,
                    rtt: Dur::from_millis(rtt),
                    one_way_delay: Dur::from_millis(rtt / 2),
                },
            );
            now += Dur::from_millis(2);
        }
        assert_ne!(b.mode(), Mode::ProbeRtt);
    }

    #[test]
    fn round_max_filter_window_and_monotonic_deque() {
        let mut f = RoundMaxFilter::default();
        assert_eq!(f.get(), None);
        f.update(0, 10.0);
        f.update(1, 5.0);
        assert_eq!(f.get(), Some(10.0));
        // A bigger sample evicts the smaller candidates.
        f.update(2, 12.0);
        assert_eq!(f.get(), Some(12.0));
        // The 12.0 ages out after WINDOW_ROUNDS rounds.
        f.update(2 + RoundMaxFilter::WINDOW_ROUNDS + 1, 3.0);
        assert_eq!(f.get(), Some(3.0));
        f.reset();
        assert_eq!(f.get(), None);
    }

    #[test]
    fn rto_restarts_the_model() {
        let mut b = Bbr::new();
        feed_steady(&mut b, 100, 2000, 30, 1);
        assert_ne!(b.mode(), Mode::Startup);
        b.on_loss(
            Time::from_secs_f64(60.0),
            &LossInfo {
                seq: 5000,
                bytes: 1500,
                sent_at: Time::from_secs_f64(59.0),
                detected_at: Time::from_secs_f64(60.0),
                by_timeout: true,
            },
        );
        assert_eq!(b.mode(), Mode::Startup);
        assert_eq!(b.btl_bw_estimate(), None);
    }

    #[test]
    fn inflight_accounting() {
        let mut b = Bbr::new();
        b.on_packet_sent(
            Time::ZERO,
            &SentPacket {
                seq: 0,
                bytes: 1500,
                sent_at: Time::ZERO,
            },
        );
        assert_eq!(b.inflight_bytes, 1500);
        b.on_loss(
            Time::from_millis(100),
            &LossInfo {
                seq: 0,
                bytes: 1500,
                sent_at: Time::ZERO,
                detected_at: Time::from_millis(100),
                by_timeout: false,
            },
        );
        assert_eq!(b.inflight_bytes, 0);
    }

    /// What keeps the per-packet delivery snapshots is invisible to the
    /// model: a scripted trace of pipelined sends, ACKs, dup-ACK losses,
    /// spurious ACKs of lost packets and one RTO ends on the numbers the
    /// hash-map-keyed version produced (pinned at d1e8bf9).
    #[test]
    fn scripted_trace_pins_bandwidth_and_round_counts() {
        let send_time = |seq: u64| Time::from_micros(100_000 + seq * 700);
        let mut b = Bbr::new();
        let mut lcg = 1u64;
        let mut rounds_at_rto = 0;
        for seq in 0..3000u64 {
            let now = send_time(seq);
            b.on_packet_sent(
                now,
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: now,
                },
            );
            // Resolve the packet sent 40 sends (28 ms) ago.
            let Some(old) = seq.checked_sub(40) else {
                continue;
            };
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fate = (lcg >> 33) % 16;
            let sent_at = send_time(old);
            if fate < 2 || old == 1500 {
                let by_timeout = old == 1500;
                b.on_loss(
                    now,
                    &LossInfo {
                        seq: old,
                        bytes: 1500,
                        sent_at,
                        detected_at: now,
                        by_timeout,
                    },
                );
                if by_timeout {
                    rounds_at_rto = b.round_count;
                    assert_eq!(b.btl_bw.get(), None);
                }
            }
            // Fate 1: the "lost" packet's ACK arrives after all (spurious).
            if fate >= 1 {
                b.on_ack(
                    now,
                    &AckInfo {
                        seq: old,
                        bytes: 1500,
                        sent_at,
                        recv_at: now,
                        rtt: now.since(sent_at),
                        one_way_delay: Dur::from_millis(14),
                    },
                );
            }
        }
        assert_eq!((rounds_at_rto, b.round_count), (37, 72));
        // 1500 B every 700 us, to the bit.
        assert_eq!(b.btl_bw.get().map(f64::to_bits), Some(0x4140594492492492));
        assert_eq!(b.delivered, 4_155_000);
        assert_eq!(b.mode(), Mode::ProbeBw);
        assert_eq!(b.packet_state.len(), 40, "the unresolved tail");
    }

    /// BBR-S on a scripted trace whose RTT jitter turns from 2 ms to 20 ms
    /// one second in three: the RTT deviation to the nanosecond, the mode,
    /// the window and the pacing rate to the bit, every 500 packets.
    #[test]
    fn scripted_trace_pins_bbr_s_deviation_and_rate() {
        let mut b = Bbr::scavenger_with(ScavengerMod::calibrated_for_sim());
        let mut pins = Vec::new();
        crate::script::run(
            &mut b,
            9_000,
            Dur::from_millis(1),
            |now, r| {
                let noisy = now.as_nanos() / 1_000_000_000 % 3 == 1;
                let jitter_us = r % if noisy { 20_000 } else { 2_000 };
                let rtt = Dur::from_micros(20_000 + jitter_us);
                (rtt, Dur::from_nanos(rtt.as_nanos() / 2))
            },
            |seq, _, b| {
                if seq % 500 == 499 {
                    pins.push((
                        b.rtt_deviation().as_nanos(),
                        b.mode(),
                        b.cwnd_bytes(),
                        b.pacing_rate().unwrap().to_bits(),
                    ));
                }
            },
        );
        assert_eq!(
            pins,
            [
                (585695, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (3783992, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (4303698, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (404902, Mode::ProbeBw, 63762, 0x4138519600000000),
                (385428, Mode::ProbeBw, 63756, 0x4138519600000000),
                (579882, Mode::ProbeBw, 63750, 0x4138519600000000),
                (614562, Mode::ProbeBw, 63750, 0x413e65fb80000000),
                (4317052, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (6452594, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (634209, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (620946, Mode::ProbeBw, 63750, 0x4138519600000000),
                (682601, Mode::ProbeBw, 63750, 0x4138519600000000),
                (599645, Mode::ProbeBw, 63750, 0x413e65fb80000000),
                (4674363, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (4668025, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (374996, Mode::ProbeRtt, 6000, 0x4138519600000000),
                (780189, Mode::ProbeBw, 63750, 0x413e65fb80000000),
                (586887, Mode::ProbeBw, 63750, 0x4138519600000000),
            ]
        );
    }
}
