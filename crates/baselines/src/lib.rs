//! Baseline congestion controllers for the PCC Proteus reproduction.
//!
//! The paper evaluates Proteus against LEDBAT (the incumbent scavenger) and
//! four primary protocols (CUBIC, BBR, COPA, PCC Vivace — the last lives in
//! `proteus-core` since it shares the PCC rate-control machinery). This
//! crate implements the baselines from their published specifications:
//!
//! * [`Cubic`] — RFC 8312 window growth, β = 0.7, fast convergence,
//! * [`Bbr`] — BBR v1 state machine, plus [`Bbr::scavenger`] for the
//!   paper's §7.1 BBR-S variant,
//! * [`Copa`] — default-mode COPA, δ = 0.5,
//! * [`Ledbat`] — RFC 6817 with 100 ms target, plus [`Ledbat::draft25`]
//!   for the Appendix-B 25 ms variant,
//! * [`FixedRateProbe`] — the constant-rate UDP measurement flow of Fig. 2.
//!
//! Beyond the paper, [`Cross`] implements a Cross-style delay-gradient
//! controller (arXiv:2409.10042) — the interactive-media baseline for the
//! RTC experiments.
//!
//! Estimators the controllers share come from `proteus-transport`, one
//! implementation each: `RttEstimator` (RFC 6298 smoothing: CUBIC, BBR,
//! COPA), `WindowedMin` (COPA) and `BaseDelay` (RFC 6817's base-delay
//! history: LEDBAT, Cross).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bbr;
pub mod copa;
pub mod cross;
pub mod cubic;
pub mod ledbat;
pub mod probe;

pub use bbr::{Bbr, Mode as BbrMode, ScavengerMod};
pub use copa::Copa;
pub use cross::{Cross, CrossState};
pub use cubic::Cubic;
pub use ledbat::Ledbat;
pub use probe::FixedRateProbe;

/// Segment size every controller here assumes, bytes.
const MSS: f64 = proteus_transport::DEFAULT_PACKET_BYTES as f64;

/// A scripted event stream for the tests that pin a controller's exact
/// bits.
#[cfg(test)]
mod script {
    use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, SentPacket, Time};

    /// Sends between a packet's transmission and its resolution.
    const LAG: u64 = 16;

    /// Drives `cc` through `packets` sends, one every `gap` from 100 ms on.
    /// The packet sent `LAG` sends earlier is resolved in time order with
    /// the sends: every 4 000th by a retransmission timeout, 1 in 16 of the
    /// rest (pseudo-randomly) by a dup-ACK loss, the others by an ACK whose
    /// `(rtt, one_way_delay)` is `delay(now, r)` for a pseudo-random `r`.
    /// `after(seq, now, cc)` runs once per send.
    pub(crate) fn run<C: CongestionControl>(
        cc: &mut C,
        packets: u64,
        gap: Dur,
        delay: impl Fn(Time, u64) -> (Dur, Dur),
        mut after: impl FnMut(u64, Time, &C),
    ) {
        let send_time = |seq: u64| Time::from_millis(100) + Dur::from_nanos(seq * gap.as_nanos());
        let mut lcg = 1u64;
        for seq in 0..packets {
            let now = send_time(seq);
            cc.on_packet_sent(
                now,
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: now,
                },
            );
            if let Some(old) = seq.checked_sub(LAG) {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = lcg >> 33;
                let sent_at = send_time(old);
                let by_timeout = old % 4000 == 3999;
                if by_timeout || r.is_multiple_of(16) {
                    let loss = LossInfo {
                        seq: old,
                        bytes: 1500,
                        sent_at,
                        detected_at: now,
                        by_timeout,
                    };
                    cc.on_loss(now, &loss);
                } else {
                    let (rtt, one_way_delay) = delay(now, r / 16);
                    let ack = AckInfo {
                        seq: old,
                        bytes: 1500,
                        sent_at,
                        recv_at: now,
                        rtt,
                        one_way_delay,
                    };
                    cc.on_ack(now, &ack);
                }
            }
            after(seq, now, cc);
        }
    }
}
