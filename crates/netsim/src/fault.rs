//! Fault injection and dynamic-network behaviour.
//!
//! A static dumbbell never exercises the paper's §5 noise-tolerance
//! machinery — per-ACK RTT-sample filtering after >50× ACK-interval spikes,
//! regression-error gating, MI-history trending all exist because real paths
//! misbehave. [`FaultSchedule`] describes that misbehaviour declaratively:
//!
//! * **Link events** ([`LinkChange`]) — timed steps of bottleneck bandwidth
//!   or base RTT (route changes) and full outages (link flaps), dispatched
//!   through the event heap like any other simulation event,
//! * **Bursty loss** ([`GilbertElliott`]) — a two-state Gilbert–Elliott
//!   chain layered on top of `LinkSpec::random_loss`,
//! * **Reordering** ([`ReorderConfig`]) — a fraction of data packets is
//!   held back by a bounded extra delay, letting later packets overtake
//!   (the dup-ACK pathology),
//! * **ACK compression** ([`AckCompression`]) — periodic episodes during
//!   which ACKs are held and released together, producing the near-zero
//!   ACK intervals followed by a giant one that the §5 per-ACK filter
//!   (`AckIntervalFilter`, ×50 threshold) was built to reject.
//!
//! # Determinism
//!
//! Fault randomness (loss-chain transitions, reorder draws, episode gaps)
//! comes from a **dedicated** RNG seeded from `scenario.seed ^
//! FAULT_SEED_SALT`, never from the engine's main RNG. Consequences:
//!
//! * the same scenario + schedule + seed reproduces the same run bit for
//!   bit, across processes and worker counts;
//! * a scenario with **no** schedule (or an empty one) draws exactly the
//!   same main-RNG sequence as before this module existed, so all committed
//!   golden results remain byte-identical.
//!
//! Every link change and loss-burst boundary is also recorded as a
//! link-scoped [`proteus_trace::EventKind::Fault`] decision event, so
//! exported traces show *cause* (fault) next to *effect* (filter/gate
//! verdicts, rate transitions).

use proteus_trace::{Fault, FaultKind};
use proteus_transport::{Dur, Time};

use rand::rngs::SmallRng;
use rand::{RngExt as Rng, SeedableRng};

use crate::dist;

/// XOR'd into the scenario seed to derive the fault layer's private RNG
/// stream (keeps fault draws out of the main RNG; see module docs).
pub const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0000_0001;

/// One timed change to the bottleneck link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkChange {
    /// Set the bottleneck bandwidth to this many Mbit/s. Packets already
    /// queued keep their committed departure times; the new rate applies
    /// from the next arrival.
    Bandwidth(f64),
    /// Set the base two-way propagation RTT (a route change). Applies to
    /// packets entering the wire from this instant on.
    Rtt(Dur),
    /// Link goes down: every packet departing the queue is lost until
    /// [`LinkChange::Up`].
    Down,
    /// Link comes back up.
    Up,
}

/// Two-state Gilbert–Elliott bursty-loss model, applied per data packet
/// that crosses the wire (after the queue, independent of
/// `LinkSpec::random_loss`).
///
/// The chain advances one step per packet: in the *good* state it enters
/// the *bad* state with probability `p_enter`; in the bad state it exits
/// with probability `p_exit` (mean burst length = `1 / p_exit` packets).
/// The packet is then lost with the current state's loss probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad state.
    pub p_enter: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_exit: f64,
    /// Loss probability while in the good state (usually 0).
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl Default for GilbertElliott {
    /// A burst profile in the envelope WiFi measurement studies report:
    /// bursts of ~20 packets (`p_exit` 0.05) arriving roughly every 2000
    /// packets, losing 30% of packets while active, clean otherwise.
    fn default() -> Self {
        Self {
            p_enter: 0.0005,
            p_exit: 0.05,
            loss_good: 0.0,
            loss_bad: 0.3,
        }
    }
}

/// Bounded packet reordering: each delivered data packet is, with
/// probability `prob`, held back by an extra uniform `(0, max_extra]` delay
/// and exempted from the FIFO delivery clamp, so later packets can overtake
/// it by up to `max_extra`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderConfig {
    /// Probability that a delivered packet is reordered.
    pub prob: f64,
    /// Upper bound on the extra delay (the reordering window).
    pub max_extra: Dur,
}

/// Periodic ACK-compression episodes: every ~`every` (exponential gap), all
/// ACKs generated within a `hold` window are released together at the end
/// of the window. The receiver-side intervals collapse to ~0 while the gap
/// before the batch grows to ~`hold` — exactly the >50× interval spike the
/// paper's per-ACK filter (§5) rejects RTT samples for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckCompression {
    /// Mean gap between episode starts (exponentially distributed, floored
    /// at `hold`).
    pub every: Dur,
    /// Length of each hold window.
    pub hold: Dur,
}

/// A deterministic, seed-driven schedule of path faults attached to a
/// [`crate::Scenario`] via `with_faults`. See the module docs for the
/// fault vocabulary and determinism rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    /// Timed link changes (need not be pre-sorted; the event heap orders
    /// them, breaking ties by list position).
    pub link_events: Vec<(Dur, LinkChange)>,
    /// Bursty-loss chain, if any.
    pub burst_loss: Option<GilbertElliott>,
    /// Packet reordering, if any.
    pub reorder: Option<ReorderConfig>,
    /// ACK-compression episodes, if any.
    pub ack_compression: Option<AckCompression>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing; byte-identical to no schedule).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link_events.is_empty()
            && self.burst_loss.is_none()
            && self.reorder.is_none()
            && self.ack_compression.is_none()
    }

    /// Adds a raw link change at `at`.
    pub fn at(mut self, at: Dur, change: LinkChange) -> Self {
        self.link_events.push((at, change));
        self
    }

    /// Steps the bottleneck bandwidth to `mbps` at `at`.
    pub fn bandwidth_step(self, at: Dur, mbps: f64) -> Self {
        self.at(at, LinkChange::Bandwidth(mbps))
    }

    /// Steps the base RTT to `rtt` at `at` (route change).
    pub fn rtt_step(self, at: Dur, rtt: Dur) -> Self {
        self.at(at, LinkChange::Rtt(rtt))
    }

    /// Takes the link down at `at` for `len`.
    pub fn outage(self, at: Dur, len: Dur) -> Self {
        self.at(at, LinkChange::Down).at(at + len, LinkChange::Up)
    }

    /// A flapping link: `cycles` outages of `down_len` starting at
    /// `first_at`, separated by `up_len` of service.
    pub fn flapping(self, first_at: Dur, down_len: Dur, up_len: Dur, cycles: usize) -> Self {
        let mut s = self;
        let mut at = first_at;
        for _ in 0..cycles {
            s = s.outage(at, down_len);
            at = at + down_len + up_len;
        }
        s
    }

    /// Enables Gilbert–Elliott bursty loss.
    pub fn with_burst_loss(mut self, ge: GilbertElliott) -> Self {
        self.burst_loss = Some(ge);
        self
    }

    /// Enables bounded packet reordering.
    pub fn with_reorder(mut self, r: ReorderConfig) -> Self {
        self.reorder = Some(r);
        self
    }

    /// Enables periodic ACK-compression episodes.
    pub fn with_ack_compression(mut self, a: AckCompression) -> Self {
        self.ack_compression = Some(a);
        self
    }
}

/// Counters of what the fault layer actually did during a run, reported in
/// [`crate::LinkSummary::fault_stats`]. All zero when no schedule is set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Link changes applied (bandwidth/RTT steps, down/up edges).
    pub link_changes: u64,
    /// Data packets lost because the link was down.
    pub outage_drops: u64,
    /// Data packets lost to the Gilbert–Elliott chain.
    pub burst_losses: u64,
    /// Loss-burst episodes entered (good→bad transitions).
    pub loss_episodes: u64,
    /// Data packets delivered out of order (given extra delay).
    pub reordered_pkts: u64,
    /// ACKs held by a compression episode.
    pub compressed_acks: u64,
}

/// Gilbert–Elliott chain state.
#[derive(Debug, Clone)]
struct GeRuntime {
    cfg: GilbertElliott,
    bad: bool,
}

/// ACK-compression episode state.
#[derive(Debug, Clone)]
struct AckRuntime {
    cfg: AckCompression,
    /// End of the currently active hold window (no window active when in
    /// the past).
    hold_until: Time,
    /// Earliest start of the next episode (`Time::ZERO` = first ACK starts
    /// one immediately).
    next_episode_at: Time,
}

/// Runtime state of the fault layer inside the engine: the schedule's
/// stochastic components plus their private RNG and the activity counters.
#[derive(Debug)]
pub(crate) struct FaultState {
    rng: SmallRng,
    /// Link currently down (between `LinkChange::Down` and `Up`).
    pub down: bool,
    ge: Option<GeRuntime>,
    reorder: Option<ReorderConfig>,
    ack: Option<AckRuntime>,
    /// Activity counters, moved into the `SimResult`.
    pub stats: FaultStats,
}

impl FaultState {
    /// Builds runtime state from a schedule; `seed` is the scenario seed
    /// (salted internally — see [`FAULT_SEED_SALT`]).
    pub fn new(sched: &FaultSchedule, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed ^ FAULT_SEED_SALT),
            down: false,
            ge: sched.burst_loss.map(|cfg| GeRuntime { cfg, bad: false }),
            reorder: sched.reorder,
            ack: sched.ack_compression.map(|cfg| AckRuntime {
                cfg,
                hold_until: Time::ZERO,
                next_episode_at: Time::ZERO,
            }),
            stats: FaultStats::default(),
        }
    }

    /// Per-packet wire-loss verdict for a data packet leaving the queue:
    /// whether it is lost (outage or burst loss), and the loss-burst
    /// boundary the chain crossed on this packet, if any, as a trace record
    /// (`LossBurstStart` carries `loss_bad`).
    ///
    /// During an outage every packet is lost and the loss chain is frozen
    /// (nothing crosses the wire to advance it). Otherwise the chain steps
    /// once and the packet is lost with the current state's probability.
    /// Draws nothing when neither outage nor burst loss is configured.
    pub fn wire_loss(&mut self) -> (bool, Option<Fault>) {
        if self.down {
            self.stats.outage_drops += 1;
            return (true, None);
        }
        let Some(ge) = &mut self.ge else {
            return (false, None);
        };
        let mut edge = None;
        if ge.bad {
            if self.rng.random::<f64>() < ge.cfg.p_exit {
                ge.bad = false;
                edge = Some((FaultKind::LossBurstEnd, 0.0));
            }
        } else if self.rng.random::<f64>() < ge.cfg.p_enter {
            ge.bad = true;
            edge = Some((FaultKind::LossBurstStart, ge.cfg.loss_bad));
            self.stats.loss_episodes += 1;
        }
        let p = if ge.bad {
            ge.cfg.loss_bad
        } else {
            ge.cfg.loss_good
        };
        let lost = p > 0.0 && self.rng.random::<f64>() < p;
        self.stats.burst_losses += lost as u64;
        (lost, edge.map(|(kind, value)| Fault { kind, value }))
    }

    /// Extra delivery delay for a data packet, if it is reordered. Draws
    /// nothing when reordering is not configured.
    pub fn reorder_extra(&mut self) -> Option<Dur> {
        let r = self.reorder?;
        if self.rng.random::<f64>() >= r.prob {
            return None;
        }
        self.stats.reordered_pkts += 1;
        let frac = self.rng.random::<f64>();
        Some(Dur::from_secs_f64(
            (frac * r.max_extra.as_secs_f64()).max(1e-9),
        ))
    }

    /// Maps an ACK's release time through any active compression episode:
    /// ACKs inside a hold window are deferred to the window's end. `t` is
    /// the release time the noise model already produced; the result is
    /// `>= t`. Draws one exponential per episode start, nothing otherwise.
    pub fn ack_release(&mut self, t: Time) -> Time {
        let Some(a) = &mut self.ack else {
            return t;
        };
        if t >= a.hold_until && t >= a.next_episode_at {
            // Start a new episode at this ACK; schedule the one after.
            a.hold_until = t + a.cfg.hold;
            let gap = dist::exponential(&mut self.rng, a.cfg.every.as_secs_f64());
            let gap = Dur::from_secs_f64(gap.max(a.cfg.hold.as_secs_f64()));
            a.next_episode_at = t + gap;
        }
        if t < a.hold_until {
            self.stats.compressed_acks += 1;
            a.hold_until
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_and_order_is_kept() {
        let s = FaultSchedule::new()
            .bandwidth_step(Dur::from_secs(5), 10.0)
            .rtt_step(Dur::from_secs(8), Dur::from_millis(90))
            .outage(Dur::from_secs(10), Dur::from_secs(2));
        assert_eq!(s.link_events.len(), 4);
        assert_eq!(
            s.link_events[0],
            (Dur::from_secs(5), LinkChange::Bandwidth(10.0))
        );
        assert_eq!(s.link_events[2], (Dur::from_secs(10), LinkChange::Down));
        assert_eq!(s.link_events[3], (Dur::from_secs(12), LinkChange::Up));
        assert!(!s.is_empty());
        assert!(FaultSchedule::new().is_empty());
    }

    #[test]
    fn flapping_expands_to_down_up_pairs() {
        let s = FaultSchedule::new().flapping(
            Dur::from_secs(2),
            Dur::from_secs(1),
            Dur::from_secs(3),
            2,
        );
        assert_eq!(
            s.link_events,
            vec![
                (Dur::from_secs(2), LinkChange::Down),
                (Dur::from_secs(3), LinkChange::Up),
                (Dur::from_secs(6), LinkChange::Down),
                (Dur::from_secs(7), LinkChange::Up),
            ]
        );
    }

    #[test]
    fn ge_chain_produces_bursty_losses() {
        let sched = FaultSchedule::new().with_burst_loss(GilbertElliott {
            p_enter: 0.01,
            p_exit: 0.05,
            loss_good: 0.0,
            loss_bad: 0.5,
        });
        let mut f = FaultState::new(&sched, 7);
        let mut losses = 0u64;
        let mut episodes = 0u64;
        for _ in 0..100_000 {
            let (lost, edge) = f.wire_loss();
            losses += lost as u64;
            episodes += edge.is_some_and(|e| e.kind == FaultKind::LossBurstStart) as u64;
        }
        assert_eq!(f.stats.burst_losses, losses);
        assert_eq!(f.stats.loss_episodes, episodes);
        assert!(episodes > 100, "episodes = {episodes}");
        // Stationary bad fraction = p_enter/(p_enter+p_exit) = 1/6; loss
        // rate ≈ 1/6 * 0.5 ≈ 8.3%. Allow wide slack.
        let rate = losses as f64 / 100_000.0;
        assert!((0.05..0.12).contains(&rate), "loss rate = {rate}");
    }

    #[test]
    fn outage_freezes_chain_and_drops_everything() {
        let sched = FaultSchedule::new().with_burst_loss(GilbertElliott::default());
        let mut f = FaultState::new(&sched, 1);
        f.down = true;
        for _ in 0..100 {
            assert!(f.wire_loss().0);
        }
        assert_eq!(f.stats.outage_drops, 100);
        assert_eq!(f.stats.burst_losses, 0);
    }

    #[test]
    fn reorder_draws_bounded_extras() {
        let sched = FaultSchedule::new().with_reorder(ReorderConfig {
            prob: 0.5,
            max_extra: Dur::from_millis(20),
        });
        let mut f = FaultState::new(&sched, 3);
        let mut hits = 0;
        for _ in 0..10_000 {
            if let Some(extra) = f.reorder_extra() {
                hits += 1;
                assert!(extra > Dur::ZERO && extra <= Dur::from_millis(20));
            }
        }
        assert_eq!(f.stats.reordered_pkts, hits);
        assert!((4_000..6_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn ack_compression_holds_then_releases() {
        let sched = FaultSchedule::new().with_ack_compression(AckCompression {
            every: Dur::from_millis(500),
            hold: Dur::from_millis(100),
        });
        let mut f = FaultState::new(&sched, 9);
        // First ACK starts an episode: held to the end of the window.
        let r0 = f.ack_release(Time::from_millis(10));
        assert_eq!(r0, Time::from_millis(110));
        // An ACK inside the window is held to the same instant.
        let r1 = f.ack_release(Time::from_millis(50));
        assert_eq!(r1, Time::from_millis(110));
        assert_eq!(f.stats.compressed_acks, 2);
        // Just after the window but before the next episode: passes through.
        let r2 = f.ack_release(Time::from_millis(120));
        assert!(r2 == Time::from_millis(120) || r2 > Time::from_millis(120));
    }

    #[test]
    fn fault_rng_is_deterministic_per_seed() {
        let sched = FaultSchedule::new()
            .with_burst_loss(GilbertElliott::default())
            .with_reorder(ReorderConfig {
                prob: 0.1,
                max_extra: Dur::from_millis(10),
            });
        let run = |seed| {
            let mut f = FaultState::new(&sched, seed);
            let mut sig = Vec::new();
            for _ in 0..1000 {
                sig.push(f.wire_loss().0);
                sig.push(f.reorder_extra().is_some());
            }
            (sig, f.stats)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }
}
