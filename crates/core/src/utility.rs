//! The Proteus utility-function library (§4): one closed [`Mode`] enum and
//! one `match` over it.
//!
//! Six utility functions share one shape, `u(x) = x^d − penalties·x`:
//!
//! * **Allegro** (NSDI'15): loss-based sigmoid utility — latency-blind,
//! * **Vivace** (NSDI'18): penalizes the raw RTT gradient (negative
//!   gradients *reward*) and loss,
//! * **Proteus-P** (Eq. 1): like Vivace but negative RTT gradient is
//!   ignored (the paper found rewarding it slows convergence),
//! * **Proteus-S** (Eq. 2): Proteus-P minus `d·x·σ(RTT)` — the RTT
//!   *deviation* penalty that makes the sender yield to competing flows,
//! * **Loss-Only**: Proteus-P with every latency term removed — the
//!   Allegro/Vivace-style ablation showing that coefficients alone cannot
//!   produce scavenging; the *shape* of the utility is the design surface,
//! * **Delay-Budget**: penalizes absolute RTT beyond a budget (à la
//!   D'Aronco's delay-constrained utilities) instead of RTT deviation.
//!
//! Proteus-H (Eq. 3) is not a seventh function but a *composition*: it is
//! piecewise Proteus-P below an application-controlled rate threshold and
//! Proteus-S above it. The threshold is shared with the application through
//! a [`SharedThreshold`] cell so cross-layer policies (e.g. the video rules
//! of §4.4) can retune it mid-flow; "there is no explicit switch in the
//! control algorithm; it happens implicitly, simply by comparing utility
//! values of different sending rates."
//!
//! [`evaluate_terms`] is the only code that computes a utility, one `match`
//! over the closed [`Mode`] enum, and [`evaluate`] is its `.utility`: adding
//! a utility is one variant and one arm.

use std::cell::Cell;
use std::rc::Rc;

use crate::config::UtilityParams;

/// A rate threshold (Mbit/sec) shared between an application and a
/// Proteus-H sender. `f64::INFINITY` makes Proteus-H behave as pure
/// Proteus-P; `0.0` as pure Proteus-S.
#[derive(Debug, Clone)]
pub struct SharedThreshold(Rc<Cell<f64>>);

impl SharedThreshold {
    /// Creates a threshold cell with an initial value in Mbps.
    pub fn new(mbps: f64) -> Self {
        Self(Rc::new(Cell::new(mbps)))
    }

    /// Reads the current threshold, Mbps.
    pub fn get(&self) -> f64 {
        self.0.get()
    }

    /// Updates the threshold, Mbps.
    pub fn set(&self, mbps: f64) {
        self.0.set(mbps);
    }
}

/// Parameters of the [`Mode::DelayBudget`] utility variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBudgetParams {
    /// RTT budget in seconds; RTTs at or below this are free.
    pub budget_s: f64,
    /// Penalty coefficient `w` applied as `w·x·max(0, RTT − budget)`.
    pub over_coef: f64,
}

impl Default for DelayBudgetParams {
    fn default() -> Self {
        Self {
            // 60 ms: double the paper's 30 ms testbed base RTT, i.e. one
            // base-RTT's worth of queueing allowance.
            budget_s: 0.060,
            // Same scale as the deviation coefficient `d` (both multiply
            // rate × seconds).
            over_coef: 1500.0,
        }
    }
}

/// Which utility function a sender is currently optimizing.
#[derive(Debug, Clone)]
pub enum Mode {
    /// PCC Allegro's loss-based utility (NSDI'15):
    /// `u = x·(1−L)·sigmoid(α·(0.05−L)) − x·L`, α = 100 — throughput
    /// rewarded until loss approaches the 5 % cliff, no latency terms at
    /// all. The PCC-family ancestor for ablations (the paper's §8 notes
    /// Allegro "uses a loss-based utility function, and also suffers from
    /// bufferbloat").
    Allegro,
    /// PCC Vivace's published utility (raw gradient, both signs).
    Vivace,
    /// Proteus-P: primary mode (Eq. 1).
    Primary,
    /// Proteus-S: scavenger mode (Eq. 2).
    Scavenger,
    /// Proteus-H: hybrid mode with an adaptive threshold (Eq. 3).
    Hybrid(SharedThreshold),
    /// Loss-only ablation: Eq. 1 with both latency terms removed,
    /// `u = x^d − c·x·L` — no coefficient setting of a latency-blind
    /// utility can scavenge.
    LossOnly,
    /// Delay-budget scavenger:
    /// `u = x^d − b·x·max(0, grad) − c·x·L − w·x·max(0, RTT − budget)`.
    /// Where Proteus-S keys on RTT *deviation* (relative competition
    /// signal), this keys on the *absolute* RTT level against a budget —
    /// yielding only once standing queues push the path past it. The
    /// over-budget penalty is reported in [`UtilityTerms::term_deviation`].
    DelayBudget(DelayBudgetParams),
}

impl Mode {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Mode::Allegro => "PCC-Allegro",
            Mode::Vivace => "PCC-Vivace",
            Mode::Primary => "Proteus-P",
            Mode::Scavenger => "Proteus-S",
            Mode::Hybrid(_) => "Proteus-H",
            Mode::LossOnly => "Loss-Only",
            Mode::DelayBudget(_) => "Delay-Budget",
        }
    }
}

/// The per-MI measurements a utility function consumes, after noise
/// processing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiObservation {
    /// Sending rate of the MI, Mbit/sec.
    pub rate_mbps: f64,
    /// Packet loss rate in `[0, 1]`.
    pub loss_rate: f64,
    /// RTT gradient `d(RTT)/dt`, dimensionless (possibly zeroed by the
    /// noise gates).
    pub rtt_gradient: f64,
    /// RTT standard deviation, seconds (possibly zeroed).
    pub rtt_deviation: f64,
    /// Mean RTT of the MI, seconds — raw (never noise-gated; the gates act
    /// on derivatives, not levels). Zero when the MI carried no RTT
    /// samples. Only [`Mode::DelayBudget`] consumes it.
    pub rtt_s: f64,
}

/// Whether Eq. 3's piecewise rule selects the scavenger terms for this rate:
/// `rate < threshold` is strictly primary, everything else (including NaN
/// thresholds) scavenger. Shared between [`evaluate_terms`] and the sender's
/// implicit mode-switch detection so the trace can never disagree with the
/// utility actually evaluated.
pub fn hybrid_uses_scavenger(rate_mbps: f64, threshold_mbps: f64) -> bool {
    rate_mbps.partial_cmp(&threshold_mbps) != Some(std::cmp::Ordering::Less)
}

/// Evaluates the utility for the given mode (what the controller
/// optimizes): [`evaluate_terms`] without the breakdown.
pub fn evaluate(mode: &Mode, p: &UtilityParams, o: &MiObservation) -> f64 {
    evaluate_terms(mode, p, o).utility
}

/// A utility value decomposed into its additive terms (for decision traces).
///
/// Invariant: `utility` equals
/// `term_rate − term_gradient − term_loss − term_deviation` evaluated in
/// that association order (an absent term is `0.0`, and `a − 0.0 == a`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityTerms {
    /// The utility value (what the controller optimizes).
    pub utility: f64,
    /// Throughput reward `x^d` (Allegro: `x·(1−L)·sigmoid`).
    pub term_rate: f64,
    /// Latency-gradient penalty `b·x·grad` as subtracted (negative when
    /// Vivace rewards a falling RTT).
    pub term_gradient: f64,
    /// Loss penalty `c·x·L` (Allegro: `x·L`).
    pub term_loss: f64,
    /// RTT-deviation penalty `d·x·σ(RTT)` (Delay-Budget: the over-budget
    /// penalty `w·x·max(0, RTT − budget)`; zero outside scavenger-style
    /// terms).
    pub term_deviation: f64,
    /// Name of the term set actually applied — differs from the mode name
    /// only for Proteus-H, where it reports which side of the threshold
    /// rule fired (`"Proteus-P"` or `"Proteus-S"`).
    pub effective: &'static str,
}

/// Evaluates the utility for the given mode with its per-term breakdown:
/// the one implementation of every utility shape. Every mode but Allegro is
/// `x^d − b·x·grad − c·x·L − dev`, differing only in the gradient signal it
/// penalizes (`None` drops the term) and its latency-level penalty `dev`.
pub fn evaluate_terms(mode: &Mode, p: &UtilityParams, o: &MiObservation) -> UtilityTerms {
    let x = o.rate_mbps.max(0.0);
    let rising = Some(o.rtt_gradient.max(0.0));
    let deviation = p.deviation_coef * x * o.rtt_deviation;
    let (grad, term_deviation, effective) = match mode {
        Mode::Allegro => {
            let sig = 1.0 / (1.0 + (-100.0 * (0.05 - o.loss_rate)).exp());
            let term_rate = x * (1.0 - o.loss_rate) * sig;
            let term_loss = x * o.loss_rate;
            return UtilityTerms {
                utility: term_rate - term_loss,
                term_rate,
                term_gradient: 0.0,
                term_loss,
                term_deviation: 0.0,
                effective: "PCC-Allegro",
            };
        }
        Mode::Vivace => (Some(o.rtt_gradient), 0.0, "PCC-Vivace"),
        Mode::Hybrid(th) if !hybrid_uses_scavenger(o.rate_mbps, th.get()) => {
            (rising, 0.0, "Proteus-P")
        }
        Mode::Primary => (rising, 0.0, "Proteus-P"),
        Mode::Scavenger | Mode::Hybrid(_) => (rising, deviation, "Proteus-S"),
        Mode::LossOnly => (None, 0.0, "Loss-Only"),
        Mode::DelayBudget(b) => {
            let over = (o.rtt_s - b.budget_s).max(0.0);
            (rising, b.over_coef * x * over, "Delay-Budget")
        }
    };
    let term_rate = x.powf(p.exponent);
    let term_gradient = grad.map_or(0.0, |g| p.gradient_coef * x * g);
    let term_loss = p.loss_coef * x * o.loss_rate;
    UtilityTerms {
        // Left to right, and `a − 0.0 == a`: an absent term leaves the
        // other terms' bits alone.
        utility: term_rate - term_gradient - term_loss - term_deviation,
        term_rate,
        term_gradient,
        term_loss,
        term_deviation,
        effective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> UtilityParams {
        UtilityParams::default()
    }

    fn obs(rate: f64) -> MiObservation {
        MiObservation {
            rate_mbps: rate,
            loss_rate: 0.0,
            rtt_gradient: 0.0,
            rtt_deviation: 0.0,
            rtt_s: 0.0,
        }
    }

    fn primary(p: &UtilityParams, o: &MiObservation) -> f64 {
        evaluate(&Mode::Primary, p, o)
    }

    fn scavenger(p: &UtilityParams, o: &MiObservation) -> f64 {
        evaluate(&Mode::Scavenger, p, o)
    }

    fn vivace(p: &UtilityParams, o: &MiObservation) -> f64 {
        evaluate(&Mode::Vivace, p, o)
    }

    fn allegro(p: &UtilityParams, o: &MiObservation) -> f64 {
        evaluate(&Mode::Allegro, p, o)
    }

    fn loss_only(p: &UtilityParams, o: &MiObservation) -> f64 {
        evaluate(&Mode::LossOnly, p, o)
    }

    fn delay_budget(p: &UtilityParams, o: &MiObservation, b: &DelayBudgetParams) -> f64 {
        evaluate(&Mode::DelayBudget(*b), p, o)
    }

    fn hybrid(p: &UtilityParams, o: &MiObservation, threshold_mbps: f64) -> f64 {
        evaluate(&Mode::Hybrid(SharedThreshold::new(threshold_mbps)), p, o)
    }

    #[test]
    fn clean_network_utility_is_throughput_power() {
        let p = params();
        let o = obs(10.0);
        let expect = 10f64.powf(0.9);
        assert!((primary(&p, &o) - expect).abs() < 1e-12);
        assert!((scavenger(&p, &o) - expect).abs() < 1e-12);
        assert!((vivace(&p, &o) - expect).abs() < 1e-12);
        assert!((loss_only(&p, &o) - expect).abs() < 1e-12);
        let b = DelayBudgetParams::default();
        assert!((delay_budget(&p, &o, &b) - expect).abs() < 1e-12);
    }

    #[test]
    fn positive_gradient_penalizes() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_gradient = 0.01;
        let u = primary(&p, &o);
        assert!(u < primary(&p, &obs(10.0)));
        // b·x·grad = 900·10·0.01 = 90.
        assert!((primary(&p, &obs(10.0)) - u - 90.0).abs() < 1e-9);
    }

    #[test]
    fn negative_gradient_ignored_by_proteus_rewarded_by_vivace() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_gradient = -0.01;
        assert_eq!(primary(&p, &o), primary(&p, &obs(10.0)));
        assert!(vivace(&p, &o) > vivace(&p, &obs(10.0)));
    }

    #[test]
    fn loss_coefficient_tolerates_5_percent() {
        // At the design point, marginal utility of rate should stay positive
        // for L = 5% random loss: d/dx (x^0.9 - 11.35·x·0.05) > 0 for
        // moderate x.
        let p = params();
        let mut lo = obs(10.0);
        lo.loss_rate = 0.05;
        let mut hi = obs(10.5);
        hi.loss_rate = 0.05;
        assert!(primary(&p, &hi) > primary(&p, &lo));
        // ...but 10% loss makes more rate worse at x = 10.
        let mut lo2 = obs(10.0);
        lo2.loss_rate = 0.10;
        let mut hi2 = obs(10.5);
        hi2.loss_rate = 0.10;
        assert!(primary(&p, &hi2) < primary(&p, &lo2));
    }

    #[test]
    fn deviation_only_penalizes_scavenger() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_deviation = 0.001; // 1 ms
        assert_eq!(primary(&p, &o), primary(&p, &obs(10.0)));
        let u_s = scavenger(&p, &o);
        // d·x·σ = 1500·10·0.001 = 15.
        assert!((scavenger(&p, &obs(10.0)) - u_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn loss_only_is_latency_blind() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_gradient = 0.05;
        o.rtt_deviation = 0.01;
        o.rtt_s = 0.4;
        // All latency signals ignored; only loss moves it.
        assert_eq!(loss_only(&p, &o), loss_only(&p, &obs(10.0)));
        let mut lossy = obs(10.0);
        lossy.loss_rate = 0.05;
        // c·x·L = 11.35·10·0.05 = 5.675.
        let drop = loss_only(&p, &obs(10.0)) - loss_only(&p, &lossy);
        assert!((drop - 5.675).abs() < 1e-9);
    }

    #[test]
    fn delay_budget_penalizes_only_over_budget_rtt() {
        let p = params();
        let b = DelayBudgetParams::default(); // 60 ms budget, w = 1500
        let mut under = obs(10.0);
        under.rtt_s = 0.050;
        assert_eq!(
            delay_budget(&p, &under, &b),
            delay_budget(&p, &obs(10.0), &b)
        );
        let mut over = obs(10.0);
        over.rtt_s = 0.080; // 20 ms over budget
        let u = delay_budget(&p, &over, &b);
        // w·x·over = 1500·10·0.020 = 300.
        assert!((delay_budget(&p, &obs(10.0), &b) - u - 300.0).abs() < 1e-9);
        // ...and unlike Proteus-S, RTT deviation alone is ignored.
        let mut dev = obs(10.0);
        dev.rtt_deviation = 0.01;
        assert_eq!(delay_budget(&p, &dev, &b), delay_budget(&p, &obs(10.0), &b));
    }

    #[test]
    fn hybrid_switches_at_threshold() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_deviation = 0.002;
        // Below threshold: primary (deviation ignored).
        assert_eq!(hybrid(&p, &o, 20.0), primary(&p, &o));
        // Above threshold: scavenger (deviation penalized).
        assert_eq!(hybrid(&p, &o, 5.0), scavenger(&p, &o));
        // Exactly at threshold counts as scavenger (x < threshold is strict).
        assert_eq!(hybrid(&p, &o, 10.0), scavenger(&p, &o));
    }

    #[test]
    fn shared_threshold_propagates() {
        let th = SharedThreshold::new(f64::INFINITY);
        let mode = Mode::Hybrid(th.clone());
        let p = params();
        let mut o = obs(10.0);
        o.rtt_deviation = 0.002;
        // Infinite threshold: pure primary.
        assert_eq!(evaluate(&mode, &p, &o), primary(&p, &o));
        th.set(0.0);
        assert_eq!(evaluate(&mode, &p, &o), scavenger(&p, &o));
    }

    #[test]
    fn concavity_in_own_rate_numerically() {
        // Second difference of u(x) must be negative across a rate sweep
        // (the Appendix-A concavity requirement, exercised numerically).
        let p = params();
        for grad in [0.0, 0.005, 0.02] {
            for base in [1.0f64, 10.0, 100.0] {
                let u = |x: f64| {
                    let mut o = obs(x);
                    o.rtt_gradient = grad;
                    primary(&p, &o)
                };
                let h = base * 0.01;
                let second = u(base + h) - 2.0 * u(base) + u(base - h);
                assert!(second < 0.0, "not concave at x={base}, grad={grad}");
            }
        }
    }

    #[test]
    fn allegro_is_latency_blind_with_a_loss_cliff() {
        let p = params();
        let mut o = obs(10.0);
        o.rtt_gradient = 0.05;
        o.rtt_deviation = 0.01;
        // Latency terms ignored entirely.
        assert_eq!(allegro(&p, &o), allegro(&p, &obs(10.0)));
        // Below the 5% knee utility is ~x; beyond it, strongly negative
        // marginal value.
        let mut low = obs(10.0);
        low.loss_rate = 0.01;
        let mut high = obs(10.0);
        high.loss_rate = 0.09;
        assert!(allegro(&p, &low) > 0.8 * 10.0);
        assert!(allegro(&p, &high) < 0.0);
    }

    #[test]
    fn evaluate_terms_matches_evaluate_bitwise() {
        let p = params();
        let th = SharedThreshold::new(10.0);
        let modes = [
            Mode::Allegro,
            Mode::Vivace,
            Mode::Primary,
            Mode::Scavenger,
            Mode::Hybrid(th),
            Mode::LossOnly,
            Mode::DelayBudget(DelayBudgetParams::default()),
        ];
        for mode in &modes {
            for rate in [0.5, 9.9, 10.0, 42.0] {
                for grad in [-0.02, 0.0, 0.01] {
                    let o = MiObservation {
                        rate_mbps: rate,
                        loss_rate: 0.03,
                        rtt_gradient: grad,
                        rtt_deviation: 0.002,
                        rtt_s: 0.071,
                    };
                    let t = evaluate_terms(mode, &p, &o);
                    // Bitwise identical to the scalar path, and the terms
                    // recompose exactly in the documented association order.
                    assert_eq!(t.utility, evaluate(mode, &p, &o), "{}", mode.name());
                    assert_eq!(
                        t.utility,
                        t.term_rate - t.term_gradient - t.term_loss - t.term_deviation
                    );
                }
            }
        }
    }

    /// `to_bits()` of `utility`, `term_rate`, `term_gradient`, `term_loss`
    /// and `term_deviation`, plus `effective`, for every mode over a grid
    /// of observations — generated from the plug-in-struct implementation
    /// this module replaced (commit e9111b3), so the one `match` is pinned
    /// to the exact bits of the code it replaced, including the Allegro,
    /// Loss-Only and Delay-Budget shapes no golden covers.
    #[test]
    fn every_mode_keeps_its_exact_bits() {
        // (rate, loss, gradient, deviation, rtt): below, at and above the
        // Hybrid threshold of 10 Mbps; negative, zero and positive gradient;
        // zero loss, loss under, at and past Allegro's 5 % knee; RTT under
        // (45, 30 ms), over (71, 90 ms) and without (0) the 60 ms budget.
        const GRID: [(f64, f64, f64, f64, f64); 5] = [
            (0.5, 0.0, -0.02, 0.002, 0.045),
            (10.0, 0.03, 0.01, 0.002, 0.071),
            (42.0, 0.08, -0.005, 0.004, 0.09),
            (42.0, 0.0, 0.02, 0.001, 0.03),
            (9.9, 0.05, 0.0, 0.0, 0.0),
        ];
        #[rustfmt::skip]
        const BITS: [(usize, usize, [u64; 5], &str); 35] = [
            (0, 0, [0x3fdfc92c130538e2, 0x3fdfc92c130538e2, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "PCC-Allegro"),
            (0, 1, [0x40207cca654a59d6, 0x40211663fee3f370, 0x0000000000000000, 0x3fd3333333333333, 0x0000000000000000], "PCC-Allegro"),
            (0, 2, [0xbff8707e5d44ec29, 0x3ffd5210fee40999, 0x0000000000000000, 0x400ae147ae147ae1, 0x0000000000000000], "PCC-Allegro"),
            (0, 3, [0x4044dc04ec7b6d54, 0x4044dc04ec7b6d54, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "PCC-Allegro"),
            (0, 4, [0x4010d47ae147ae14, 0x4012cf5c28f5c28f, 0x0000000000000000, 0x3fdfae147ae147af, 0x0000000000000000], "PCC-Allegro"),
            (1, 0, [0x4023125fbee25066, 0x3fe125fbee250664, 0xc022000000000000, 0x0000000000000000, 0x0000000000000000], "PCC-Vivace"),
            (1, 1, [0xc0555d8cc832a4fe, 0x401fc5ebcec13542, 0x4056800000000000, 0x400b3d70a3d70a3d, 0x0000000000000000], "PCC-Vivace"),
            (1, 2, [0x40667881250718dd, 0x403ce6da0d990871, 0xc067a00000000000, 0x4043116872b020c5, 0x0000000000000000], "PCC-Vivace"),
            (1, 3, [0xc086b8c92f9337bc, 0x403ce6da0d990871, 0x4087a00000000000, 0x0000000000000000, 0x0000000000000000], "PCC-Vivace"),
            (1, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "PCC-Vivace"),
            (2, 0, [0x3fe125fbee250664, 0x3fe125fbee250664, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "Proteus-P"),
            (2, 1, [0xc0555d8cc832a4fe, 0x401fc5ebcec13542, 0x4056800000000000, 0x400b3d70a3d70a3d, 0x0000000000000000], "Proteus-P"),
            (2, 2, [0xc02277edaf8e7232, 0x403ce6da0d990871, 0x0000000000000000, 0x4043116872b020c5, 0x0000000000000000], "Proteus-P"),
            (2, 3, [0xc086b8c92f9337bc, 0x403ce6da0d990871, 0x4087a00000000000, 0x0000000000000000, 0x0000000000000000], "Proteus-P"),
            (2, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "Proteus-P"),
            (3, 0, [0xbfeeda0411daf99c, 0x3fe125fbee250664, 0x0000000000000000, 0x0000000000000000, 0x3ff8000000000000], "Proteus-S"),
            (3, 1, [0xc05cdd8cc832a4fe, 0x401fc5ebcec13542, 0x4056800000000000, 0x400b3d70a3d70a3d, 0x403e000000000000], "Proteus-S"),
            (3, 2, [0xc07053bf6d7c7392, 0x403ce6da0d990871, 0x0000000000000000, 0x4043116872b020c5, 0x406f800000000000], "Proteus-S"),
            (3, 3, [0xc088b0c92f9337bc, 0x403ce6da0d990871, 0x4087a00000000000, 0x0000000000000000, 0x404f800000000000], "Proteus-S"),
            (3, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "Proteus-S"),
            (4, 0, [0x3fe125fbee250664, 0x3fe125fbee250664, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "Proteus-P"),
            (4, 1, [0xc05cdd8cc832a4fe, 0x401fc5ebcec13542, 0x4056800000000000, 0x400b3d70a3d70a3d, 0x403e000000000000], "Proteus-S"),
            (4, 2, [0xc07053bf6d7c7392, 0x403ce6da0d990871, 0x0000000000000000, 0x4043116872b020c5, 0x406f800000000000], "Proteus-S"),
            (4, 3, [0xc088b0c92f9337bc, 0x403ce6da0d990871, 0x4087a00000000000, 0x0000000000000000, 0x404f800000000000], "Proteus-S"),
            (4, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "Proteus-P"),
            (5, 0, [0x3fe125fbee250664, 0x3fe125fbee250664, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "Loss-Only"),
            (5, 1, [0x401227337cd5b024, 0x401fc5ebcec13542, 0x0000000000000000, 0x400b3d70a3d70a3d, 0x0000000000000000], "Loss-Only"),
            (5, 2, [0xc02277edaf8e7232, 0x403ce6da0d990871, 0x0000000000000000, 0x4043116872b020c5, 0x0000000000000000], "Loss-Only"),
            (5, 3, [0x403ce6da0d990871, 0x403ce6da0d990871, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "Loss-Only"),
            (5, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "Loss-Only"),
            (6, 0, [0x3fe125fbee250664, 0x3fe125fbee250664, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000], "Delay-Budget"),
            (6, 1, [0xc06f4ec66419527d, 0x401fc5ebcec13542, 0x4056800000000000, 0x400b3d70a3d70a3d, 0x40649ffffffffffe], "Delay-Budget"),
            (6, 2, [0xc09dacefdb5f1ce4, 0x403ce6da0d990871, 0x0000000000000000, 0x4043116872b020c5, 0x409d880000000000], "Delay-Budget"),
            (6, 3, [0xc086b8c92f9337bc, 0x403ce6da0d990871, 0x4087a00000000000, 0x0000000000000000, 0x0000000000000000], "Delay-Budget"),
            (6, 4, [0x4002072ea41f349c, 0x401f7cadd93a9c5a, 0x0000000000000000, 0x40167916872b020c, 0x0000000000000000], "Delay-Budget"),
        ];
        let modes = [
            Mode::Allegro,
            Mode::Vivace,
            Mode::Primary,
            Mode::Scavenger,
            Mode::Hybrid(SharedThreshold::new(10.0)),
            Mode::LossOnly,
            Mode::DelayBudget(DelayBudgetParams::default()),
        ];
        let p = params();
        for (m, g, bits, effective) in BITS {
            let (rate_mbps, loss_rate, rtt_gradient, rtt_deviation, rtt_s) = GRID[g];
            let o = MiObservation {
                rate_mbps,
                loss_rate,
                rtt_gradient,
                rtt_deviation,
                rtt_s,
            };
            let t = evaluate_terms(&modes[m], &p, &o);
            let got = [
                t.utility,
                t.term_rate,
                t.term_gradient,
                t.term_loss,
                t.term_deviation,
            ]
            .map(f64::to_bits);
            let name = modes[m].name();
            assert_eq!(got, bits, "{name} at grid point {g}");
            assert_eq!(t.effective, effective, "{name} at grid point {g}");
            // Only Proteus-H reports a term set other than its own name.
            if m != 4 {
                assert_eq!(t.effective, name);
            }
        }
    }

    #[test]
    fn evaluate_terms_reports_effective_hybrid_side() {
        let p = params();
        let th = SharedThreshold::new(10.0);
        let mode = Mode::Hybrid(th);
        let mut o = obs(5.0);
        o.rtt_deviation = 0.002;
        assert_eq!(evaluate_terms(&mode, &p, &o).effective, "Proteus-P");
        o.rate_mbps = 10.0; // at-threshold is scavenger (strict less-than)
        assert_eq!(evaluate_terms(&mode, &p, &o).effective, "Proteus-S");
        assert!(hybrid_uses_scavenger(10.0, 10.0));
        assert!(!hybrid_uses_scavenger(9.99, 10.0));
    }

    #[test]
    fn mode_names() {
        assert_eq!(Mode::Allegro.name(), "PCC-Allegro");
        assert_eq!(Mode::Vivace.name(), "PCC-Vivace");
        assert_eq!(Mode::Primary.name(), "Proteus-P");
        assert_eq!(Mode::Scavenger.name(), "Proteus-S");
        assert_eq!(Mode::Hybrid(SharedThreshold::new(1.0)).name(), "Proteus-H");
        assert_eq!(Mode::LossOnly.name(), "Loss-Only");
        assert_eq!(
            Mode::DelayBudget(DelayBudgetParams::default()).name(),
            "Delay-Budget"
        );
    }
}
