//! The PCC Vivace gradient-ascent rate controller (NSDI'18), with Proteus'
//! majority-rule probing (§5).
//!
//! The controller is a per-MI state machine:
//!
//! * **Starting** — the rate doubles every MI while utility keeps rising;
//!   the first utility drop reverts to the last good rate and enters
//!   probing (Vivace's slow start).
//! * **Probing** — pairs of MIs test `rate·(1+ε)` and `rate·(1−ε)` in
//!   random order. Vivace runs 2 pairs and moves only on agreement;
//!   Proteus runs 3 pairs and moves by majority, which reaches a decision
//!   faster under noise while avoiding false moves.
//! * **Moving** — gradient ascent: each MI moves the rate by
//!   `θ = m·γ·∇u`, where the confidence amplifier `m` grows with
//!   consecutive same-direction steps and `θ` is clamped by the dynamic
//!   boundary `ω·rate` (ω grows from 5 % by 10 % per consecutive step, and
//!   resets on reversal). A utility drop reverts the last step and returns
//!   to probing.
//!
//! MIs complete about one RTT after they close, so the controller hands out
//! rates *ahead* of the utility results; a tag queue matches each completed
//! MI back to the purpose it was issued for, and an epoch counter discards
//! results that belong to an abandoned plan.
//!
//! The controller's output is its decisions: [`RateController::on_mi_complete`]
//! returns what a completion decided as a [`Decisions`] stack value (at most
//! one probe outcome and one phase transition). The controller keeps no
//! trace state; a tracing sender records the value, an untraced one drops it.

use std::collections::VecDeque;

use proteus_trace::{CtlPhase, EventKind, ProbeOutcome, RateTransition};
use rand::rngs::SmallRng;
use rand::{RngExt as _, SeedableRng};

use crate::config::{ProbeRule, RateControlParams};

/// Upper bound on probe pairs any [`ProbeRule`] schedules (Vivace uses 2,
/// Proteus §5 uses 3). Sizes the fixed probe buffers below.
const MAX_PAIRS: usize = 4;

/// Highest rate, Mbps, the controller hands out or holds. Utility feedback
/// alone never stops a slow start that keeps seeing its utility rise (a
/// scripted loss-free, constant-RTT feed doubles it to infinity), so the
/// rate needs a finite ceiling. A constant, not a [`RateControlParams`]
/// field, so configurations and cache keys stay as they are; at 10^9 Mbps
/// it is far above any rate a simulated link lets a sender reach, so it
/// never binds there.
pub(crate) const MAX_RATE_MBPS: f64 = 1e9;

/// A probe trial: `(pair index, high side, rate)`.
type Trial = (usize, bool, f64);

/// Fixed-capacity FIFO of probe trials still to hand out. Entering the
/// Probing state happens inside the per-ACK completion path, so the plan
/// lives on the stack instead of a `VecDeque` — pushing and popping never
/// touch the heap. Trials are pushed once up front and only popped after,
/// so a moving head index (no wraparound) is enough.
#[derive(Debug, Clone, Copy, Default)]
struct ProbePlan {
    slots: [Trial; 2 * MAX_PAIRS],
    head: usize,
    len: usize,
}

impl ProbePlan {
    fn push_back(&mut self, trial: Trial) {
        debug_assert!(self.head + self.len < self.slots.len());
        self.slots[self.head + self.len] = trial;
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<Trial> {
        if self.len == 0 {
            return None;
        }
        let trial = self.slots[self.head];
        self.head += 1;
        self.len -= 1;
        Some(trial)
    }
}

/// Fixed-capacity collection of completed `(pair, high, utility)` probe
/// results — at most `2 · MAX_PAIRS` per round, stack-allocated for the
/// same reason as [`ProbePlan`].
#[derive(Debug, Clone, Copy, Default)]
struct ProbeResults {
    slots: [Trial; 2 * MAX_PAIRS],
    len: usize,
}

impl ProbeResults {
    fn push(&mut self, result: Trial) {
        debug_assert!(self.len < self.slots.len());
        self.slots[self.len] = result;
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn iter(&self) -> std::slice::Iter<'_, Trial> {
        self.slots[..self.len].iter()
    }
}

/// Why an MI was issued (matched back on completion).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    /// Slow-start step at this rate.
    Starting { rate: f64 },
    /// Probing trial `pair_idx`, high (`+ε`) or low side.
    Probe { pair: usize, high: bool, rate: f64 },
    /// Neutral MI at the base rate (plan exhausted, awaiting results).
    Filler,
    /// Gradient-ascent step at this rate.
    Moving { rate: f64 },
}

// Probing inlines its fixed probe-plan/result buffers: one State exists per
// flow and probing re-entry happens on the ACK path, so the footprint is the
// point — no allocation, no indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum State {
    Starting {
        /// Rate/utility of the best completed step so far.
        prev: Option<(f64, f64)>,
        /// Consecutive utility drops observed. One drop can be measurement
        /// noise (per-MI loss sampling); two in a row — or a single
        /// strongly negative utility — end the exponential phase.
        drops: u32,
    },
    Probing {
        base: f64,
        /// Rates still to hand out, front first.
        plan: ProbePlan,
        /// Collected `(pair, high, utility)` results.
        results: ProbeResults,
    },
    Moving {
        prev_rate: f64,
        prev_utility: f64,
        /// +1.0 or −1.0: committed direction.
        direction: f64,
        /// Consecutive same-direction steps.
        steps: u32,
        /// Most recent non-degenerate utility gradient (MIs completed at
        /// identical rates carry no slope information; the last measured
        /// gradient keeps the ascent going through those).
        last_gradient: f64,
        /// Consecutive direction flips: two in a row means the ascent is
        /// oscillating around the optimum — time to re-probe.
        flips: u32,
    },
}

/// What one MI completion decided, for decision traces: the conclusion of
/// a probe round and the state transition that it, or a utility drop,
/// caused. A completion makes at most one of each, the outcome first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Decisions {
    /// A probe round's conclusion.
    pub outcome: Option<ProbeOutcome>,
    /// A change of controller phase.
    pub transition: Option<RateTransition>,
}

impl Decisions {
    /// The decisions as trace events, the outcome first.
    pub(crate) fn kinds(self) -> impl Iterator<Item = EventKind> {
        [
            self.outcome.map(EventKind::ProbeOutcome),
            self.transition.map(EventKind::RateTransition),
        ]
        .into_iter()
        .flatten()
    }
}

/// The PCC rate controller. Rates are in Mbit/sec throughout.
#[derive(Debug)]
pub struct RateController {
    params: RateControlParams,
    rng: SmallRng,
    state: State,
    /// Current base sending rate, Mbps.
    rate: f64,
    /// Epoch guard: results tagged under an older epoch are ignored.
    epoch: u64,
    /// Tags for MIs handed out and not yet completed, front = oldest.
    pending: VecDeque<(u64, Tag)>,
}

impl RateController {
    /// Creates a controller in the Starting state.
    pub fn new(params: RateControlParams, seed: u64) -> Self {
        Self {
            params,
            rng: SmallRng::seed_from_u64(seed),
            state: State::Starting {
                prev: None,
                drops: 0,
            },
            rate: params.initial_rate_mbps,
            epoch: 0,
            pending: VecDeque::new(),
        }
    }

    /// Current controller phase, for decision traces.
    fn phase(&self) -> CtlPhase {
        match self.state {
            State::Starting { .. } => CtlPhase::Starting,
            State::Probing { .. } => CtlPhase::Probing,
            State::Moving { .. } => CtlPhase::Moving,
        }
    }

    /// Current base rate, Mbps.
    pub fn rate_mbps(&self) -> f64 {
        self.rate
    }

    /// Whether the controller is still in slow start.
    pub fn is_starting(&self) -> bool {
        matches!(self.state, State::Starting { .. })
    }

    /// Whether the controller is currently probing.
    pub fn is_probing(&self) -> bool {
        matches!(self.state, State::Probing { .. })
    }

    /// Hands out the target rate for the next MI.
    pub fn next_mi_rate(&mut self) -> f64 {
        let (tag, rate) = match &mut self.state {
            State::Starting { .. } => {
                let r = self.rate;
                // Pipeline the doubling; completions will catch a drop.
                self.rate = self.bounded(r * 2.0);
                (Tag::Starting { rate: r }, r)
            }
            State::Probing { plan, .. } => match plan.pop_front() {
                Some((pair, high, rate)) => (Tag::Probe { pair, high, rate }, rate),
                None => (Tag::Filler, self.rate),
            },
            State::Moving { .. } => (Tag::Moving { rate: self.rate }, self.rate),
        };
        self.pending.push_back((self.epoch, tag));
        self.bounded(rate)
    }

    /// `rate` held within `[min_rate_mbps, MAX_RATE_MBPS]`; a NaN reads as
    /// the floor.
    fn bounded(&self, rate: f64) -> f64 {
        rate.max(self.params.min_rate_mbps).min(MAX_RATE_MBPS)
    }

    /// Feeds the utility of the oldest outstanding MI (MIs complete in
    /// order) and returns what the completion decided.
    pub fn on_mi_complete(&mut self, utility: f64) -> Decisions {
        let Some((epoch, tag)) = self.pending.pop_front() else {
            return Decisions::default();
        };
        if epoch != self.epoch {
            return Decisions::default(); // belongs to an abandoned plan
        }
        match tag {
            Tag::Starting { rate } => self.handle_starting(rate, utility),
            Tag::Probe { pair, high, .. } => self.handle_probe(pair, high, utility),
            Tag::Filler => Decisions::default(),
            Tag::Moving { rate } => self.handle_moving(rate, utility),
        }
    }

    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    fn enter_probing(&mut self, base: f64) -> RateTransition {
        self.bump_epoch();
        let base = self.bounded(base);
        let transition = RateTransition {
            from: self.phase(),
            to: CtlPhase::Probing,
            rate_mbps: base,
        };
        self.rate = base;
        let eps = self.params.epsilon;
        let pairs = self.params.probe_rule.pairs();
        debug_assert!(pairs <= MAX_PAIRS, "probe rule exceeds plan capacity");
        let mut plan = ProbePlan::default();
        for pair in 0..pairs {
            let high_first: bool = self.rng.random();
            let hi = (pair, true, base * (1.0 + eps));
            let lo = (pair, false, base * (1.0 - eps));
            if high_first {
                plan.push_back(hi);
                plan.push_back(lo);
            } else {
                plan.push_back(lo);
                plan.push_back(hi);
            }
        }
        self.state = State::Probing {
            base,
            plan,
            results: ProbeResults::default(),
        };
        transition
    }

    fn enter_moving(&mut self, base: f64, base_utility: f64, gradient: f64) -> RateTransition {
        self.bump_epoch();
        let direction = if gradient >= 0.0 { 1.0 } else { -1.0 };
        let theta = self.clamped_step(gradient, 1, base);
        let rate = self.bounded(base + theta);
        let transition = RateTransition {
            from: self.phase(),
            to: CtlPhase::Moving,
            rate_mbps: rate,
        };
        self.rate = rate;
        self.state = State::Moving {
            prev_rate: base,
            prev_utility: base_utility,
            direction,
            steps: 1,
            last_gradient: gradient,
            flips: 0,
        };
        transition
    }

    /// `θ = m·γ·grad`, clamped to the dynamic boundary `ω(k)·rate`.
    ///
    /// The step is *gradient-proportional* (Vivace §4): near a shared
    /// bottleneck the smaller flow has the larger marginal utility, so
    /// absolute steps pull competing flows toward the fair point, whereas
    /// rate-proportional steps would let the incumbent run away.
    fn clamped_step(&self, gradient: f64, steps: u32, rate: f64) -> f64 {
        let m = steps as f64;
        let rate = self.bounded(rate);
        let raw = m * self.params.gamma * gradient;
        let omega = (self.params.omega_init + self.params.omega_step * (steps - 1) as f64)
            .min(self.params.omega_max);
        let bound = omega * rate;
        raw.clamp(-bound, bound)
    }

    fn handle_starting(&mut self, rate: f64, utility: f64) -> Decisions {
        let State::Starting { prev, drops } = &mut self.state else {
            return Decisions::default();
        };
        match *prev {
            None => *prev = Some((rate, utility)),
            Some((prev_rate, prev_utility)) => {
                if utility < prev_utility {
                    *drops += 1;
                    // A strongly negative utility is unambiguous congestion;
                    // otherwise require confirmation to ride out noise.
                    if utility < 0.0 || *drops >= 2 {
                        // Overshot: revert to the last good rate and probe.
                        return Decisions {
                            outcome: None,
                            transition: Some(self.enter_probing(prev_rate)),
                        };
                    }
                } else {
                    *drops = 0;
                    *prev = Some((rate, utility));
                }
            }
        }
        Decisions::default()
    }

    fn handle_probe(&mut self, pair: usize, high: bool, utility: f64) -> Decisions {
        let State::Probing {
            base,
            plan: _,
            results,
        } = &mut self.state
        else {
            return Decisions::default();
        };
        let base = *base;
        results.push((pair, high, utility));
        let pairs_needed = self.params.probe_rule.pairs();
        // Wait until every trial of every pair has reported.
        if results.len() < 2 * pairs_needed {
            return Decisions::default();
        }
        // Tally per-pair directions and the average gradient.
        let mut direction_sum: i32 = 0;
        let mut gradient_sum = 0.0;
        let mut gradient_n = 0;
        let mut agreement: Option<bool> = None;
        let mut agreed = true;
        for p in 0..pairs_needed {
            let hi = results
                .iter()
                .find(|&&(pp, h, _)| pp == p && h)
                .map(|&(_, _, u)| u);
            let lo = results
                .iter()
                .find(|&&(pp, h, _)| pp == p && !h)
                .map(|&(_, _, u)| u);
            if let (Some(u_hi), Some(u_lo)) = (hi, lo) {
                let up = u_hi > u_lo;
                direction_sum += if up { 1 } else { -1 };
                let dr = 2.0 * self.params.epsilon * base;
                if dr > 0.0 {
                    gradient_sum += (u_hi - u_lo) / dr;
                    gradient_n += 1;
                }
                match agreement {
                    None => agreement = Some(up),
                    Some(a) if a != up => agreed = false,
                    _ => {}
                }
            }
        }
        let base_utility = results.iter().map(|&(_, _, u)| u).sum::<f64>() / results.len() as f64;
        let decided = gradient_n > 0
            && match self.params.probe_rule {
                ProbeRule::Agreement => agreed,
                ProbeRule::Majority => direction_sum != 0,
            };
        let mut gradient = if gradient_n > 0 {
            gradient_sum / gradient_n as f64
        } else {
            0.0
        };
        if decided && self.params.probe_rule == ProbeRule::Majority {
            // Majority rule: the sign comes from the vote, the magnitude
            // from the measured gradient.
            let sign = if direction_sum > 0 { 1.0 } else { -1.0 };
            gradient = sign * gradient.abs();
        }
        let outcome = ProbeOutcome {
            base_mbps: base,
            decided,
            vote: direction_sum,
            gradient,
        };
        let transition = if decided {
            self.enter_moving(base, base_utility, gradient)
        } else {
            // Inconclusive: probe again around the same base.
            self.enter_probing(base)
        };
        Decisions {
            outcome: Some(outcome),
            transition: Some(transition),
        }
    }

    fn handle_moving(&mut self, rate: f64, utility: f64) -> Decisions {
        let State::Moving {
            prev_rate,
            prev_utility,
            direction,
            steps,
            last_gradient,
            flips,
        } = &mut self.state
        else {
            return Decisions::default();
        };
        let dr = rate - *prev_rate;
        // The 1-2 MI completion pipeline means consecutive completions
        // often carry the same rate: reuse the last measured gradient then.
        let gradient = if dr.abs() > 1e-6 * rate.abs().max(1e-6) {
            (utility - *prev_utility) / dr
        } else {
            *last_gradient
        };
        *last_gradient = gradient;
        // Follow the measured gradient, downhill steps included: under
        // noise (e.g. random loss sampling) individual utility comparisons
        // are unreliable, and symmetric errors average out while the true
        // gradient accumulates. Only a sustained oscillation — two
        // direction flips in a row — means the ascent has found the
        // optimum and should hand back to probing.
        let new_direction = if gradient >= 0.0 { 1.0 } else { -1.0 };
        if new_direction == *direction {
            *steps += 1;
            *flips = 0;
        } else {
            *direction = new_direction;
            *steps = 1;
            *flips += 1;
        }
        if *flips >= 2 {
            // Re-probe around whichever recent rate scored better.
            let base = if utility >= *prev_utility {
                rate
            } else {
                *prev_rate
            };
            return Decisions {
                outcome: None,
                transition: Some(self.enter_probing(base)),
            };
        }
        let steps_now = *steps;
        *prev_rate = rate;
        *prev_utility = utility;
        let theta = self.clamped_step(gradient, steps_now, rate);
        self.rate = self.bounded(rate + theta);
        Decisions::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RateControlParams;

    fn controller(rule: ProbeRule) -> RateController {
        RateController::new(
            RateControlParams {
                probe_rule: rule,
                ..RateControlParams::default()
            },
            42,
        )
    }

    /// Drives one MI: hands out a rate, immediately completes it with the
    /// utility produced by `u`.
    fn step(c: &mut RateController, u: impl Fn(f64) -> f64) -> f64 {
        let r = c.next_mi_rate();
        c.on_mi_complete(u(r));
        r
    }

    /// Forces the controller out of slow start with strictly decreasing
    /// utilities.
    fn force_probing(c: &mut RateController) {
        let _ = c.next_mi_rate();
        c.on_mi_complete(1.0);
        let _ = c.next_mi_rate();
        c.on_mi_complete(-2.0);
        assert!(c.is_probing());
    }

    #[test]
    fn starting_doubles_until_utility_drops() {
        let mut c = controller(ProbeRule::Majority);
        assert!(c.is_starting());
        // Utility peaks at 50 Mbps, falls beyond (crude single-flow link).
        let u = |r: f64| {
            if r <= 50.0 {
                r.powf(0.9)
            } else {
                50f64.powf(0.9) - (r - 50.0) * 5.0
            }
        };
        let mut rates = Vec::new();
        for _ in 0..12 {
            rates.push(step(&mut c, u));
            if !c.is_starting() {
                break;
            }
        }
        assert!(!c.is_starting(), "never left slow start: {rates:?}");
        // Doubling happened: 2, 4, 8, ...
        assert!(rates[1] / rates[0] > 1.9);
        // After the drop it probes around the last good rate.
        assert!(c.is_probing());
        assert!(c.rate_mbps() <= 64.0 + 1.0, "rate = {}", c.rate_mbps());
    }

    #[test]
    fn probing_moves_toward_higher_utility() {
        let mut c = controller(ProbeRule::Majority);
        force_probing(&mut c);
        let base = c.rate_mbps();
        // Strictly increasing utility: every pair votes "up".
        let u = |r: f64| r;
        for _ in 0..8 {
            step(&mut c, u);
            if !c.is_probing() {
                break;
            }
        }
        assert!(!c.is_probing(), "no decision after a full probe round");
        // Next MIs move the rate up.
        let mut last = base;
        for _ in 0..5 {
            let r = step(&mut c, u);
            assert!(r >= last * 0.99, "rate regressed: {r} < {last}");
            last = r;
        }
        assert!(last > base, "never moved up: {last} vs {base}");
    }

    #[test]
    fn majority_rule_decides_with_one_dissenting_pair() {
        let mut c = controller(ProbeRule::Majority);
        force_probing(&mut c);
        let base = c.rate_mbps();
        // Noisy utility: pairs 0 and 2 vote up, pair 1 votes down.
        let mut trial = 0;
        let mut rates_and_utils = Vec::new();
        while c.is_probing() && trial < 6 {
            let r = c.next_mi_rate();
            let vote_down_pair = trial / 2 == 1;
            let u = if (r > base) ^ vote_down_pair {
                1.0
            } else {
                0.0
            };
            rates_and_utils.push((r, u));
            c.on_mi_complete(u);
            trial += 1;
        }
        assert!(!c.is_probing(), "majority should have decided");
        assert!(c.rate_mbps() > base, "majority said up");
    }

    #[test]
    fn agreement_rule_requires_unanimity() {
        let mut c = controller(ProbeRule::Agreement);
        force_probing(&mut c);
        let base = c.rate_mbps();
        // Pair 0 votes up, pair 1 votes down: Vivace must re-probe.
        let mut trial = 0;
        while trial < 4 {
            let r = c.next_mi_rate();
            let vote_down_pair = trial / 2 == 1;
            let u = if (r > base) ^ vote_down_pair {
                1.0
            } else {
                0.0
            };
            c.on_mi_complete(u);
            trial += 1;
        }
        assert!(c.is_probing(), "agreement rule should re-probe on split");
        assert!((c.rate_mbps() - base).abs() < 1e-9);
    }

    #[test]
    fn moving_steps_down_then_reprobes_on_oscillation() {
        let mut c = controller(ProbeRule::Majority);
        force_probing(&mut c);
        let u_up = |r: f64| r;
        while c.is_probing() {
            step(&mut c, u_up);
        }
        let peak = c.rate_mbps();
        // A utility cliff: the measured gradient turns negative, the
        // controller steps down, and after the direction oscillates twice
        // it returns to probing at a rate no higher than the peak.
        let cliff = |r: f64| if r > peak * 0.9 { -100.0 } else { r };
        for _ in 0..10 {
            step(&mut c, cliff);
            if c.is_probing() {
                break;
            }
        }
        assert!(c.is_probing(), "never re-probed after the cliff");
        assert!(c.rate_mbps() <= peak * 1.01);
    }

    #[test]
    fn dynamic_boundary_caps_step_size() {
        let c = controller(ProbeRule::Majority);
        // Huge gradient, first step: |θ| ≤ ω₀·rate = 5 %.
        let theta = c.clamped_step(1e9, 1, 100.0);
        assert!((theta - 5.0).abs() < 1e-9);
        // Step 3: ω = 0.05 + 2·0.05 = 0.15.
        let theta3 = c.clamped_step(1e9, 3, 100.0);
        assert!((theta3 - 15.0).abs() < 1e-9);
        // Cap at ω_max = 0.25.
        let theta9 = c.clamped_step(1e9, 9, 100.0);
        assert!((theta9 - 25.0).abs() < 1e-9);
        // Small gradients step proportionally, below the bound.
        let small = c.clamped_step(1.0, 1, 100.0);
        assert!((small - c.params.gamma).abs() < 1e-9);
        // Negative gradients clamp symmetrically.
        let down = c.clamped_step(-1e9, 1, 100.0);
        assert!((down + 5.0).abs() < 1e-9);
    }

    #[test]
    fn starting_doubles_no_higher_than_the_ceiling() {
        let mut c = controller(ProbeRule::Majority);
        // Utility rising with the rate never ends slow start; 2 000
        // doublings would overflow to infinity.
        for _ in 0..2_000 {
            let r = step(&mut c, |r| r);
            assert!(r <= MAX_RATE_MBPS, "rate {r}");
        }
        assert!(c.is_starting());
        assert_eq!(c.rate_mbps(), MAX_RATE_MBPS);
    }

    #[test]
    fn rate_never_below_minimum() {
        let mut c = controller(ProbeRule::Majority);
        for _ in 0..200 {
            let r = step(&mut c, |_r| -1000.0);
            assert!(r >= c.params.min_rate_mbps * 0.999, "rate {r}");
        }
    }

    #[test]
    fn stale_epoch_results_ignored() {
        let mut c = controller(ProbeRule::Majority);
        // Hand out two starting MIs, then force a state change before the
        // second completes.
        let _ = c.next_mi_rate();
        let _ = c.next_mi_rate();
        c.on_mi_complete(10.0);
        c.on_mi_complete(-5.0); // unambiguous drop ⇒ probing, epoch bumped
        assert!(c.is_probing());
        let base = c.rate_mbps();
        // A stale pending tag from before the bump must not disturb probing.
        c.on_mi_complete(123.0);
        assert!((c.rate_mbps() - base).abs() < 1e-9 || c.is_probing());
    }

    #[test]
    fn decision_log_records_outcomes_and_transitions() {
        let mut c = controller(ProbeRule::Majority);
        let mut kinds = Vec::new();
        let _ = c.next_mi_rate();
        kinds.extend(c.on_mi_complete(1.0).kinds());
        let _ = c.next_mi_rate();
        kinds.extend(c.on_mi_complete(-2.0).kinds());
        assert!(c.is_probing());
        // Leaving slow start returns a Starting → Probing transition.
        assert!(kinds.iter().any(|k| matches!(
            k,
            EventKind::RateTransition(t)
                if t.from == CtlPhase::Starting && t.to == CtlPhase::Probing
        )));
        // A unanimous "up" probe round returns a decided outcome and the
        // Probing → Moving transition it causes, in that order.
        kinds.clear();
        while c.is_probing() {
            let r = c.next_mi_rate();
            kinds.extend(c.on_mi_complete(r).kinds());
        }
        let outcome = kinds
            .iter()
            .position(|k| matches!(k, EventKind::ProbeOutcome(o) if o.decided && o.vote > 0))
            .expect("no decided probe outcome returned");
        assert!(matches!(
            kinds[outcome + 1],
            EventKind::RateTransition(t) if t.to == CtlPhase::Moving
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut c = controller(ProbeRule::Majority);
            let u = |r: f64| if r < 40.0 { r } else { 40.0 - r };
            let mut rates = Vec::new();
            for _ in 0..50 {
                rates.push(step(&mut c, u));
            }
            rates
        };
        assert_eq!(mk(), mk());
    }
}
