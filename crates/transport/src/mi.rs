//! Monitor-interval (MI) accounting for the PCC family.
//!
//! PCC senders slice time into consecutive monitor intervals, send at a fixed
//! target rate within each, and compute a utility value for an MI once every
//! packet sent in it has been acknowledged or declared lost (§3 of the
//! paper). [`MiTracker`] implements that bookkeeping: it attributes sent
//! packets to the open MI, matches ACKs/losses back to their MI, and emits a
//! completed [`MiStats`] — carrying throughput, loss rate, mean RTT, RTT
//! deviation, RTT gradient and the regression residual that Proteus' per-MI
//! noise gate needs (§5).
//!
//! This module is on the per-ACK hot path of every PCC-family sender, so it
//! is built to do **no hashing, no heap allocation and no linear scans** per
//! event in steady state:
//!
//! * packet→MI attribution stores one bit per outstanding packet (a
//!   seq-indexed [`SeqSet`], the exactly-once guard against repeated and
//!   stray ACKs) instead of a SipHash `HashMap<SeqNr, MiId>`: an MI's
//!   packets are consecutive sequence numbers, so *which* MI is a range
//!   lookup — each pending MI carries `end_seq` and a packet belongs to the
//!   first one with `seq < end_seq`, the front MI in the common case — with
//!   zero allocator traffic once the set spans the flow's in-flight window;
//! * each `MiState` is a fixed-size struct: the RTT-gradient fit runs on a
//!   streaming `RegressionAccumulator` instead of a stored
//!   `Vec<(f64, f64)>`, making `MiState::finish` O(1) in the number of RTT
//!   samples;
//! * completed MIs are reported through a caller-provided drain buffer
//!   (`on_ack_into`/`on_loss_into`) rather than a freshly allocated
//!   `Vec<MiStats>` per event.

use std::collections::VecDeque;

use proteus_stats::{RegressionAccumulator, Welford};

use crate::packet::{AckInfo, LossInfo, SentPacket, SeqNr};
use crate::seq_ring::SeqSet;
use crate::time::{Dur, Time};

/// Identifier of a monitor interval within one flow.
pub type MiId = u64;

/// Performance metrics of one completed monitor interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiStats {
    /// Sequential MI identifier.
    pub id: MiId,
    /// MI start time.
    pub start: Time,
    /// MI end (close) time.
    pub end: Time,
    /// Sending rate the controller targeted during this MI, bytes/sec.
    pub target_rate: f64,
    /// Bytes handed to the network during the MI.
    pub bytes_sent: u64,
    /// Bytes acknowledged (of those sent in this MI).
    pub bytes_acked: u64,
    /// Bytes declared lost (of those sent in this MI).
    pub bytes_lost: u64,
    /// Packets sent.
    pub pkts_sent: u64,
    /// Packets acknowledged.
    pub pkts_acked: u64,
    /// Packets lost.
    pub pkts_lost: u64,
    /// Achieved goodput: acked bytes / MI duration, bytes/sec.
    pub throughput: f64,
    /// Raw send rate: sent bytes / MI duration, bytes/sec.
    pub send_rate: f64,
    /// Packet loss rate within the MI, `lost / sent` in `[0, 1]`.
    pub loss_rate: f64,
    /// Mean RTT of ACKed packets, seconds. Zero when no samples.
    pub rtt_mean: f64,
    /// RTT standard deviation `σ(RTT)` of the MI, seconds — Proteus-S's
    /// competition signal (Eq. 2).
    pub rtt_dev: f64,
    /// RTT gradient `d(RTT)/dt`: least-squares slope of RTT vs. send time,
    /// dimensionless (seconds per second).
    pub rtt_gradient: f64,
    /// Normalized regression residual: RMS residual of the gradient fit
    /// divided by the MI duration (§5 "Regression Error Tolerance"),
    /// comparable in units to `rtt_gradient`.
    pub gradient_error: f64,
    /// Number of RTT samples that informed the latency metrics.
    pub rtt_samples: u64,
    /// Smallest RTT sample in the MI, seconds (0 when none).
    pub rtt_min: f64,
    /// Largest RTT sample in the MI, seconds (0 when none).
    pub rtt_max: f64,
}

impl MiStats {
    /// Duration of the MI.
    pub fn duration(&self) -> Dur {
        self.end.since(self.start)
    }
}

/// One in-flight monitor interval. Fixed-size: per-ACK updates touch only
/// scalar accumulators, and `MiState::finish` is O(1).
#[derive(Debug)]
struct MiState {
    id: MiId,
    start: Time,
    /// Set when the sender moves on to the next MI.
    end: Option<Time>,
    target_rate: f64,
    bytes_sent: u64,
    bytes_acked: u64,
    bytes_lost: u64,
    pkts_sent: u64,
    pkts_acked: u64,
    pkts_lost: u64,
    outstanding: u64,
    /// One past the highest sequence number sent in this MI *or before it*:
    /// inherited from the previous MI at `start_mi`, so an MI that sent
    /// nothing claims no packet ahead of the one that did, and the values
    /// never decrease along `pending`.
    end_seq: SeqNr,
    /// Streaming least-squares fit of `(send time relative to MI start [s],
    /// RTT [s])` per ACKed packet — the RTT-gradient regression.
    reg: RegressionAccumulator,
    rtt_acc: Welford,
}

impl MiState {
    fn new(id: MiId, start: Time, target_rate: f64, end_seq: SeqNr) -> Self {
        Self {
            id,
            start,
            end: None,
            target_rate,
            bytes_sent: 0,
            bytes_acked: 0,
            bytes_lost: 0,
            pkts_sent: 0,
            pkts_acked: 0,
            pkts_lost: 0,
            outstanding: 0,
            end_seq,
            reg: RegressionAccumulator::new(),
            rtt_acc: Welford::new(),
        }
    }

    fn is_complete(&self) -> bool {
        self.end.is_some() && self.outstanding == 0
    }

    fn finish(&self) -> MiStats {
        let end = self.end.expect("finish() requires a closed MI");
        let dur_s = end.since(self.start).as_secs_f64().max(1e-9);
        let (gradient, error) = match self.reg.fit() {
            Some(fit) => (fit.slope, fit.rms_residual / dur_s),
            None => (0.0, 0.0),
        };
        MiStats {
            id: self.id,
            start: self.start,
            end,
            target_rate: self.target_rate,
            bytes_sent: self.bytes_sent,
            bytes_acked: self.bytes_acked,
            bytes_lost: self.bytes_lost,
            pkts_sent: self.pkts_sent,
            pkts_acked: self.pkts_acked,
            pkts_lost: self.pkts_lost,
            throughput: self.bytes_acked as f64 / dur_s,
            send_rate: self.bytes_sent as f64 / dur_s,
            loss_rate: if self.pkts_sent == 0 {
                0.0
            } else {
                self.pkts_lost as f64 / self.pkts_sent as f64
            },
            rtt_mean: self.rtt_acc.mean(),
            rtt_dev: self.rtt_acc.std_dev(),
            rtt_gradient: gradient,
            gradient_error: error,
            rtt_samples: self.rtt_acc.count(),
            rtt_min: self.rtt_acc.min().unwrap_or(0.0),
            rtt_max: self.rtt_acc.max().unwrap_or(0.0),
        }
    }
}

/// Attributes packets to monitor intervals and emits completed [`MiStats`].
///
/// The owner (a PCC-style controller) calls [`MiTracker::start_mi`] whenever
/// it changes target rate, forwards every send/ACK/loss event, and drains
/// completed MIs — in id order — from the buffer it passes to
/// [`MiTracker::on_ack_into`]/[`MiTracker::on_loss_into`]. The buffer is
/// appended to (never cleared) so the caller can reuse one scratch `Vec`
/// across events and keep the steady-state path allocation-free.
#[derive(Default)]
pub struct MiTracker {
    next_id: MiId,
    /// Pending MIs, oldest first, pushed and drained in id order.
    pending: VecDeque<MiState>,
    /// The attributed packets not yet acknowledged or declared lost, one bit
    /// each (lossy flows span thousands of sequence numbers, and a
    /// population holds thousands of flows). Every member belongs to a
    /// pending MI: an MI leaves `pending` only with nothing outstanding.
    outstanding: SeqSet,
}

impl MiTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new MI at `now` targeting `rate` bytes/sec, closing the
    /// previous one. Returns the new MI's id.
    pub fn start_mi(&mut self, now: Time, rate: f64) -> MiId {
        if let Some(open) = self.pending.back_mut() {
            if open.end.is_none() {
                open.end = Some(now);
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        // Only the first MI finds nothing pending (the open MI never
        // drains), and nothing was attributed before it.
        let end_seq = self.pending.back().map_or(0, |prev| prev.end_seq);
        self.pending.push_back(MiState::new(id, now, rate, end_seq));
        id
    }

    /// Number of MIs not yet fully accounted.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Records a transmitted packet against the open MI. Packets sent while
    /// no MI is open (e.g. before the controller starts its first interval)
    /// are ignored.
    ///
    /// Invariant: the newest pending MI is always the open one — `start_mi`
    /// closes the previous MI only by pushing its successor, so there is no
    /// state in which packets could arrive "in the gap" after a close and be
    /// silently dropped (the pre-ring implementation guarded against that
    /// with a silent `return`; the invariant is asserted instead, and
    /// `every_sent_packet_between_mis_is_accounted` pins the behaviour).
    pub fn on_sent(&mut self, pkt: &SentPacket) {
        let Some(open) = self.pending.back_mut() else {
            return;
        };
        debug_assert!(
            open.end.is_none(),
            "the newest pending MI must be open: start_mi only closes an MI \
             by starting its successor"
        );
        open.bytes_sent += pkt.bytes;
        open.pkts_sent += 1;
        open.outstanding += 1;
        open.end_seq = pkt.seq + 1;
        // Rejects a falling sequence number, which keeps `end_seq`
        // non-decreasing along `pending`.
        self.outstanding.insert(pkt.seq);
    }

    /// Takes `seq` out of the outstanding set and returns the pending MI it
    /// was sent in: the first whose range reaches past it. `None` for a
    /// packet never attributed or already resolved.
    fn resolve(&mut self, seq: SeqNr) -> Option<&mut MiState> {
        if !self.outstanding.remove(seq) {
            return None;
        }
        let idx = self.pending.partition_point(|mi| mi.end_seq <= seq);
        debug_assert!(
            idx < self.pending.len(),
            "an outstanding packet's MI is pending"
        );
        self.pending.get_mut(idx)
    }

    /// Processes an ACK, appending MIs it completed to `out` in id order.
    pub fn on_ack_into(&mut self, ack: &AckInfo, out: &mut Vec<MiStats>) {
        self.on_ack_filtered_into(ack, true, out);
    }

    /// Like [`MiTracker::on_ack_into`], but when `keep_rtt` is `false` the
    /// ACK counts for throughput/completion while its RTT sample is excluded
    /// from the latency metrics (used by Proteus' per-ACK noise filter, §5).
    pub fn on_ack_filtered_into(&mut self, ack: &AckInfo, keep_rtt: bool, out: &mut Vec<MiStats>) {
        let Some(mi) = self.resolve(ack.seq) else {
            return;
        };
        mi.bytes_acked += ack.bytes;
        mi.pkts_acked += 1;
        mi.outstanding = mi.outstanding.saturating_sub(1);
        if keep_rtt {
            let rel_send = ack.sent_at.since(mi.start).as_secs_f64();
            let rtt_s = ack.rtt.as_secs_f64();
            mi.reg.add(rel_send, rtt_s);
            mi.rtt_acc.add(rtt_s);
        }
        self.drain_complete_into(out);
    }

    /// Processes a loss, appending MIs it completed to `out` in id order.
    pub fn on_loss_into(&mut self, loss: &LossInfo, out: &mut Vec<MiStats>) {
        let Some(mi) = self.resolve(loss.seq) else {
            return;
        };
        mi.bytes_lost += loss.bytes;
        mi.pkts_lost += 1;
        mi.outstanding = mi.outstanding.saturating_sub(1);
        self.drain_complete_into(out);
    }

    fn drain_complete_into(&mut self, out: &mut Vec<MiStats>) {
        while let Some(front) = self.pending.front() {
            if front.is_complete() {
                let mi = self.pending.pop_front().expect("front exists");
                out.push(mi.finish());
            } else {
                break;
            }
        }
    }
}

impl std::fmt::Debug for MiTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiTracker")
            .field("next_id", &self.next_id)
            .field("pending", &self.pending)
            .field("outstanding_pkts", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{SeqNr, DEFAULT_PACKET_BYTES};

    fn pkt(seq: SeqNr, at_ms: u64) -> SentPacket {
        SentPacket {
            seq,
            bytes: DEFAULT_PACKET_BYTES,
            sent_at: Time::from_millis(at_ms),
        }
    }

    fn ack(seq: SeqNr, sent_ms: u64, rtt_ms: u64) -> AckInfo {
        AckInfo {
            seq,
            bytes: DEFAULT_PACKET_BYTES,
            sent_at: Time::from_millis(sent_ms),
            recv_at: Time::from_millis(sent_ms + rtt_ms),
            rtt: Dur::from_millis(rtt_ms),
            one_way_delay: Dur::from_millis(rtt_ms / 2),
        }
    }

    fn loss(seq: SeqNr, sent_ms: u64) -> LossInfo {
        LossInfo {
            seq,
            bytes: DEFAULT_PACKET_BYTES,
            sent_at: Time::from_millis(sent_ms),
            detected_at: Time::from_millis(sent_ms + 100),
            by_timeout: false,
        }
    }

    /// Test shim for the drain-buffer API: one event, fresh buffer.
    fn on_ack(t: &mut MiTracker, a: &AckInfo) -> Vec<MiStats> {
        let mut out = Vec::new();
        t.on_ack_into(a, &mut out);
        out
    }

    fn on_ack_filtered(t: &mut MiTracker, a: &AckInfo, keep_rtt: bool) -> Vec<MiStats> {
        let mut out = Vec::new();
        t.on_ack_filtered_into(a, keep_rtt, &mut out);
        out
    }

    fn on_loss(t: &mut MiTracker, l: &LossInfo) -> Vec<MiStats> {
        let mut out = Vec::new();
        t.on_loss_into(l, &mut out);
        out
    }

    #[test]
    fn mi_completes_when_all_packets_resolve() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.on_sent(&pkt(1, 10));
        t.start_mi(Time::from_millis(30), 1e6); // close first MI
        assert!(on_ack(&mut t, &ack(0, 0, 30)).is_empty());
        let done = on_ack(&mut t, &ack(1, 10, 30));
        assert_eq!(done.len(), 1);
        let mi = &done[0];
        assert_eq!(mi.pkts_sent, 2);
        assert_eq!(mi.pkts_acked, 2);
        assert_eq!(mi.pkts_lost, 0);
        assert_eq!(mi.bytes_acked, 2 * DEFAULT_PACKET_BYTES);
        assert_eq!(mi.rtt_samples, 2);
        assert!((mi.rtt_mean - 0.030).abs() < 1e-9);
        assert_eq!(mi.loss_rate, 0.0);
        // 3000 bytes over 30 ms = 100 KB/s
        assert!((mi.throughput - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn loss_counts_and_completes() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.on_sent(&pkt(1, 5));
        t.start_mi(Time::from_millis(30), 1e6);
        on_ack(&mut t, &ack(0, 0, 30));
        let done = on_loss(&mut t, &loss(1, 5));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pkts_lost, 1);
        assert!((done[0].loss_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn completion_emitted_in_order() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.start_mi(Time::from_millis(30), 2e6);
        t.on_sent(&pkt(1, 30));
        t.start_mi(Time::from_millis(60), 1e6);
        // Second MI's packet resolves first: nothing emitted until MI 0 done.
        assert!(on_ack(&mut t, &ack(1, 30, 20)).is_empty());
        let done = on_ack(&mut t, &ack(0, 0, 90));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, 0);
        assert_eq!(done[1].id, 1);
        assert_eq!(done[1].target_rate, 2e6);
    }

    #[test]
    fn gradient_reflects_rising_rtt() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        // RTT rises 1 ms per 10 ms of send time => gradient 0.1 s/s.
        for i in 0..10u64 {
            t.on_sent(&pkt(i, i * 10));
        }
        t.start_mi(Time::from_millis(100), 1e6);
        let mut done = Vec::new();
        for i in 0..10u64 {
            t.on_ack_into(&ack(i, i * 10, 30 + i), &mut done);
        }
        assert_eq!(done.len(), 1);
        let mi = &done[0];
        assert!((mi.rtt_gradient - 0.1).abs() < 1e-6, "{}", mi.rtt_gradient);
        assert!(mi.gradient_error < 1e-6);
        assert!(mi.rtt_dev > 0.0);
        assert!((mi.rtt_min - 0.030).abs() < 1e-9);
        assert!((mi.rtt_max - 0.039).abs() < 1e-9);
    }

    #[test]
    fn unknown_seq_is_ignored() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        assert!(on_ack(&mut t, &ack(99, 0, 30)).is_empty());
        assert!(on_loss(&mut t, &loss(42, 0)).is_empty());
    }

    #[test]
    fn packets_without_open_mi_are_ignored() {
        let mut t = MiTracker::new();
        t.on_sent(&pkt(0, 0)); // no MI yet
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(1, 1));
        t.start_mi(Time::from_millis(10), 1e6);
        let done = on_ack(&mut t, &ack(1, 1, 10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pkts_sent, 1);
    }

    /// The `on_sent` invariant (see its docs): between two `start_mi` calls
    /// there is always exactly one open MI, so every packet sent in that
    /// window is accounted against it — none fall into a "closed gap".
    #[test]
    fn every_sent_packet_between_mis_is_accounted() {
        let mut t = MiTracker::new();
        let mut sent_total = 0u64;
        let mut seq = 0u64;
        for round in 0..5u64 {
            t.start_mi(Time::from_millis(round * 30), 1e6);
            for _ in 0..=round {
                t.on_sent(&pkt(seq, round * 30 + 1));
                seq += 1;
                sent_total += 1;
            }
        }
        t.start_mi(Time::from_millis(150), 1e6);
        let mut done = Vec::new();
        for s in 0..seq {
            t.on_ack_into(&ack(s, 0, 30), &mut done);
        }
        let accounted: u64 = done.iter().map(|mi| mi.pkts_sent).sum();
        assert_eq!(done.len(), 5);
        assert_eq!(accounted, sent_total, "a sent packet was silently dropped");
    }

    #[test]
    fn rtt_filter_excludes_samples_but_keeps_throughput() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.on_sent(&pkt(1, 5));
        t.start_mi(Time::from_millis(30), 1e6);
        on_ack_filtered(&mut t, &ack(0, 0, 30), true);
        let done = on_ack_filtered(&mut t, &ack(1, 5, 500), false); // filtered out
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pkts_acked, 2);
        assert_eq!(done[0].rtt_samples, 1);
    }

    #[test]
    fn empty_mi_finishes_with_zero_metrics() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.start_mi(Time::from_millis(10), 2e6);
        // The empty MI completes as soon as any event drains the queue; use a
        // packet in the second MI.
        t.on_sent(&pkt(0, 10));
        t.start_mi(Time::from_millis(20), 1e6);
        let done = on_ack(&mut t, &ack(0, 10, 10));
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].pkts_sent, 0);
        assert_eq!(done[0].throughput, 0.0);
        assert_eq!(done[0].rtt_dev, 0.0);
    }

    /// The drain buffer is append-only: the tracker never clears it, so a
    /// caller can batch multiple events into one reusable scratch `Vec`.
    #[test]
    fn drain_buffer_appends_across_events() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.start_mi(Time::from_millis(30), 1e6);
        t.on_sent(&pkt(1, 30));
        t.start_mi(Time::from_millis(60), 1e6);
        let mut out = Vec::new();
        t.on_ack_into(&ack(0, 0, 30), &mut out);
        t.on_ack_into(&ack(1, 30, 30), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, 0);
        assert_eq!(out[1].id, 1);
    }

    /// An MI that sent nothing sits between two that did: it inherits its
    /// predecessor's range, so its neighbours' ACKs pass it by.
    #[test]
    fn silent_mi_between_two_senders_claims_no_packet() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.on_sent(&pkt(1, 5));
        t.start_mi(Time::from_millis(30), 2e6); // sends nothing
        t.start_mi(Time::from_millis(60), 3e6);
        t.on_sent(&pkt(2, 60));
        t.on_sent(&pkt(3, 65));
        t.start_mi(Time::from_millis(90), 1e6);
        // Resolve the third MI first, then the first: each ACK must land in
        // the MI that sent it, never in the silent one.
        let mut done = Vec::new();
        t.on_ack_into(&ack(2, 60, 30), &mut done);
        t.on_loss_into(&loss(3, 65), &mut done);
        t.on_ack_into(&ack(1, 5, 30), &mut done);
        assert!(done.is_empty());
        t.on_ack_into(&ack(0, 0, 30), &mut done);
        let counts: Vec<_> = done
            .iter()
            .map(|mi| (mi.id, mi.pkts_sent, mi.pkts_acked, mi.pkts_lost))
            .collect();
        assert_eq!(counts, vec![(0, 2, 2, 0), (1, 0, 0, 0), (2, 2, 1, 1)]);
    }

    /// `pending` drained as far as it ever does — every closed MI completed,
    /// only the open one left: old sequence numbers miss, new ones attribute
    /// to the MIs started afterwards.
    #[test]
    fn start_mi_after_every_closed_mi_drained() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(0, 0));
        t.start_mi(Time::from_millis(30), 1e6);
        assert_eq!(on_ack(&mut t, &ack(0, 0, 30)).len(), 1);
        // The open, empty MI 1 completes on its own close.
        t.start_mi(Time::from_millis(60), 1e6);
        t.on_sent(&pkt(1, 60));
        t.start_mi(Time::from_millis(90), 1e6);
        let done = on_ack(&mut t, &ack(1, 60, 30));
        assert_eq!(done.len(), 2);
        assert_eq!(t.pending_count(), 1, "only the open MI is left");
        assert!(on_ack(&mut t, &ack(0, 0, 30)).is_empty(), "long resolved");
        t.on_sent(&pkt(2, 95));
        t.start_mi(Time::from_millis(120), 1e6);
        let done = on_ack(&mut t, &ack(2, 95, 30));
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].id, done[0].pkts_acked), (3, 1));
    }

    /// The attribution set tolerates the same edge cases as the HashMap it
    /// replaced: gaps from un-attributed packets, duplicate ACKs, and
    /// out-of-range sequence numbers.
    #[test]
    fn attribution_ring_edge_cases() {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 1e6);
        t.on_sent(&pkt(3, 0)); // ring anchors at 3
        t.on_sent(&pkt(7, 1)); // gap 4..=6 left unattributed
        t.start_mi(Time::from_millis(30), 1e6);
        assert!(on_ack(&mut t, &ack(5, 0, 30)).is_empty(), "gap seq misses");
        assert!(on_ack(&mut t, &ack(2, 0, 30)).is_empty(), "below head");
        assert!(on_ack(&mut t, &ack(9, 0, 30)).is_empty(), "beyond tail");
        assert!(on_ack(&mut t, &ack(3, 0, 30)).is_empty());
        assert!(on_ack(&mut t, &ack(3, 0, 30)).is_empty(), "duplicate ACK");
        let done = on_ack(&mut t, &ack(7, 1, 30));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pkts_acked, 2);
    }
}
