//! The candidate genome and the bounds it lives in.
//!
//! A [`Candidate`] is one point of `ProteusConfig` space plus a utility
//! [`Variant`]: the knobs the paper hand-picks (scavenger penalty `d`, §5
//! gate gains G1/G2, trend window `k`, probing ε/ω-step, probe pair count)
//! together with *which* utility shape the scavenger optimizes. The
//! constants below bound each gene, and the deterministic sampling,
//! mutation and crossover operators the genetic search uses keep their
//! output inside them (property tested in `tests/determinism.rs`); every
//! search enumerates all of [`Variant::ALL`].

use proteus_core::noise::TREND_WINDOW_MAX;
use proteus_core::{
    DelayBudgetParams, Mode, NoiseTolerance, ProbeRule, ProteusConfig, SharedThreshold,
};
use rand::rngs::SmallRng;
use rand::RngExt;

/// Which utility shape a candidate optimizes (the ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Proteus-S (Eq. 2): the paper's RTT-deviation scavenger.
    Scavenger,
    /// Loss-only ablation: Proteus-P without latency terms (Allegro/Vivace
    /// style) — expected to fail the harm constraint at any coefficients.
    LossOnly,
    /// Delay-budget scavenger: absolute-RTT budget à la D'Aronco.
    DelayBudget,
    /// Proteus-H (Eq. 3) with a fixed threshold (Mbps).
    Hybrid,
}

impl Variant {
    /// Every variant, in canonical enumeration order.
    pub const ALL: [Variant; 4] = [
        Variant::Scavenger,
        Variant::LossOnly,
        Variant::DelayBudget,
        Variant::Hybrid,
    ];

    /// Display name (matches [`Mode::name`] of the mode it builds).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Scavenger => "Proteus-S",
            Variant::LossOnly => "Loss-Only",
            Variant::DelayBudget => "Delay-Budget",
            Variant::Hybrid => "Proteus-H",
        }
    }
}

/// One point of the search space: a utility variant plus every tuned knob.
///
/// Genes a variant does not consume (`budget_ms` outside `DelayBudget`,
/// `threshold_mbps` outside `Hybrid`) are carried anyway so the genome has
/// a fixed shape; they do not enter [`Candidate::canonical`], so two
/// candidates that behave identically share one cache identity. Loss-Only
/// is the exception: its identity still carries `d`, G1, G2 and `k`, which
/// its utility never reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Utility shape.
    pub variant: Variant,
    /// Scavenger RTT-deviation coefficient `d` (also the delay-budget
    /// variant's `UtilityParams` carry it, unused).
    pub deviation_coef: f64,
    /// Trending-gradient gate gain G1 (§5).
    pub g1: f64,
    /// Trending-deviation gate gain G2 (§5).
    pub g2: f64,
    /// Trend window `k`, MIs (must stay within `1..=TREND_WINDOW_MAX`).
    pub trend_window: usize,
    /// Probing perturbation ε.
    pub epsilon: f64,
    /// Rate-change bound increment ω-step.
    pub omega_step: f64,
    /// `true` → three-pair majority probing; `false` → two-pair agreement.
    pub majority_probe: bool,
    /// Delay budget, milliseconds (`DelayBudget` only).
    pub budget_ms: f64,
    /// Hybrid rate threshold, Mbps (`Hybrid` only).
    pub threshold_mbps: f64,
}

impl Candidate {
    /// The paper's hand-picked configuration as a Proteus-S candidate.
    pub fn paper_default() -> Self {
        Self {
            variant: Variant::Scavenger,
            deviation_coef: 1500.0,
            g1: 2.0,
            g2: 4.0,
            trend_window: 6,
            epsilon: 0.05,
            omega_step: 0.05,
            majority_probe: true,
            budget_ms: 60.0,
            threshold_mbps: 10.0,
        }
    }

    /// Materializes the candidate as a full sender config with `seed` as
    /// the controller's RNG seed.
    pub fn config(&self, seed: u64) -> ProteusConfig {
        let mut cfg = ProteusConfig::proteus().with_seed(seed);
        cfg.utility.deviation_coef = self.deviation_coef;
        if let NoiseTolerance::Adaptive(ref mut a) = cfg.noise {
            a.g1 = self.g1;
            a.g2 = self.g2;
            a.trend_window = self.trend_window;
        }
        cfg.rate_control.epsilon = self.epsilon;
        cfg.rate_control.omega_step = self.omega_step;
        cfg.rate_control.probe_rule = if self.majority_probe {
            ProbeRule::Majority
        } else {
            ProbeRule::Agreement
        };
        cfg
    }

    /// Builds the sender [`Mode`] this candidate's variant selects.
    ///
    /// The hybrid variant allocates a [`SharedThreshold`] (an `Rc` cell,
    /// deliberately not `Send`), so call this *inside* a job closure, not
    /// before submitting it to a campaign.
    pub fn mode(&self) -> Mode {
        match self.variant {
            Variant::Scavenger => Mode::Scavenger,
            Variant::LossOnly => Mode::LossOnly,
            Variant::DelayBudget => Mode::DelayBudget(DelayBudgetParams {
                budget_s: self.budget_ms / 1e3,
                over_coef: self.deviation_coef,
            }),
            Variant::Hybrid => Mode::Hybrid(SharedThreshold::new(self.threshold_mbps)),
        }
    }

    /// Stable serialization of the variant *and the genes it consumes* —
    /// the mode half of the candidate's cache identity.
    pub fn mode_tag(&self) -> String {
        match self.variant {
            Variant::Scavenger => "scavenger".to_string(),
            Variant::LossOnly => "loss-only".to_string(),
            Variant::DelayBudget => format!(
                "delay-budget(b={:?}ms,w={:?})",
                self.budget_ms, self.deviation_coef
            ),
            Variant::Hybrid => format!("hybrid(th={:?})", self.threshold_mbps),
        }
    }

    /// The candidate's behavioral identity: config (seed-independent) plus
    /// mode tag. Candidates with equal `canonical()` produce byte-identical
    /// simulations, so the leaderboard dedups on it and their evaluation
    /// jobs share cache entries.
    pub fn canonical(&self) -> String {
        format!("{}/mode={}", self.config(0).canonical(), self.mode_tag())
    }
}

/// Inclusive bounds on the deviation coefficient `d`.
pub const DEVIATION_COEF: (f64, f64) = (300.0, 3000.0);
/// Inclusive bounds on gate gain G1.
pub const G1: (f64, f64) = (0.5, 8.0);
/// Inclusive bounds on gate gain G2.
pub const G2: (f64, f64) = (1.0, 16.0);
/// Inclusive bounds on the trend window `k` (within `1..=TREND_WINDOW_MAX`).
pub const TREND_WINDOW: (usize, usize) = (2, TREND_WINDOW_MAX);
/// Inclusive bounds on the probing perturbation ε.
pub const EPSILON: (f64, f64) = (0.01, 0.10);
/// Inclusive bounds on the ω-step increment.
pub const OMEGA_STEP: (f64, f64) = (0.01, 0.10);
/// Inclusive bounds on the delay budget, ms.
pub const BUDGET_MS: (f64, f64) = (40.0, 120.0);
/// Inclusive bounds on the hybrid threshold, Mbps.
pub const THRESHOLD_MBPS: (f64, f64) = (1.0, 20.0);

/// Uniform jitter half-width for mutation, as a fraction of a gene's range.
const MUTATION_SPAN: f64 = 0.25;

fn sample(rng: &mut SmallRng, (lo, hi): (f64, f64)) -> f64 {
    lo + (hi - lo) * rng.random::<f64>()
}

fn jitter(rng: &mut SmallRng, v: f64, (lo, hi): (f64, f64)) -> f64 {
    let step = (rng.random::<f64>() * 2.0 - 1.0) * MUTATION_SPAN * (hi - lo);
    (v + step).clamp(lo, hi)
}

fn any_variant(rng: &mut SmallRng) -> Variant {
    Variant::ALL[rng.random_range(0..Variant::ALL.len())]
}

impl Candidate {
    /// Whether every gene is inside its bounds.
    pub fn in_bounds(&self) -> bool {
        let within = |v: f64, (lo, hi): (f64, f64)| (lo..=hi).contains(&v);
        within(self.deviation_coef, DEVIATION_COEF)
            && within(self.g1, G1)
            && within(self.g2, G2)
            && (TREND_WINDOW.0..=TREND_WINDOW.1).contains(&self.trend_window)
            && within(self.epsilon, EPSILON)
            && within(self.omega_step, OMEGA_STEP)
            && within(self.budget_ms, BUDGET_MS)
            && within(self.threshold_mbps, THRESHOLD_MBPS)
    }

    /// Draws a uniform candidate.
    pub fn random(rng: &mut SmallRng) -> Self {
        Self {
            variant: any_variant(rng),
            deviation_coef: sample(rng, DEVIATION_COEF),
            g1: sample(rng, G1),
            g2: sample(rng, G2),
            trend_window: rng.random_range(TREND_WINDOW.0..=TREND_WINDOW.1),
            epsilon: sample(rng, EPSILON),
            omega_step: sample(rng, OMEGA_STEP),
            majority_probe: rng.random::<bool>(),
            budget_ms: sample(rng, BUDGET_MS),
            threshold_mbps: sample(rng, THRESHOLD_MBPS),
        }
    }

    /// Mutates each gene independently with probability `rate`: numeric
    /// genes take a bounded uniform jitter (±25 % of the gene's range,
    /// clamped), categorical genes redraw. The RNG consumption pattern is
    /// fixed per call, so searches replay identically for a given seed.
    pub fn mutate(&mut self, rng: &mut SmallRng, rate: f64) {
        // One decision draw per gene, always consumed in the same order.
        if rng.random::<f64>() < rate {
            self.variant = any_variant(rng);
        }
        if rng.random::<f64>() < rate {
            self.deviation_coef = jitter(rng, self.deviation_coef, DEVIATION_COEF);
        }
        if rng.random::<f64>() < rate {
            self.g1 = jitter(rng, self.g1, G1);
        }
        if rng.random::<f64>() < rate {
            self.g2 = jitter(rng, self.g2, G2);
        }
        if rng.random::<f64>() < rate {
            self.trend_window = rng.random_range(TREND_WINDOW.0..=TREND_WINDOW.1);
        }
        if rng.random::<f64>() < rate {
            self.epsilon = jitter(rng, self.epsilon, EPSILON);
        }
        if rng.random::<f64>() < rate {
            self.omega_step = jitter(rng, self.omega_step, OMEGA_STEP);
        }
        if rng.random::<f64>() < rate {
            self.majority_probe = rng.random::<bool>();
        }
        if rng.random::<f64>() < rate {
            self.budget_ms = jitter(rng, self.budget_ms, BUDGET_MS);
        }
        if rng.random::<f64>() < rate {
            self.threshold_mbps = jitter(rng, self.threshold_mbps, THRESHOLD_MBPS);
        }
    }

    /// Uniform crossover: each gene comes from `self` or `other` with equal
    /// probability.
    pub fn crossover(&self, other: &Self, rng: &mut SmallRng) -> Self {
        macro_rules! pick {
            ($field:ident) => {
                if rng.random::<bool>() {
                    self.$field
                } else {
                    other.$field
                }
            };
        }
        Self {
            variant: pick!(variant),
            deviation_coef: pick!(deviation_coef),
            g1: pick!(g1),
            g2: pick!(g2),
            trend_window: pick!(trend_window),
            epsilon: pick!(epsilon),
            omega_step: pick!(omega_step),
            majority_probe: pick!(majority_probe),
            budget_ms: pick!(budget_ms),
            threshold_mbps: pick!(threshold_mbps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The bounds are well formed, the trend window stays within what
    /// `MiNoiseGate` accepts, and the paper's configuration is inside them.
    #[test]
    fn paper_default_is_in_default_space() {
        for (lo, hi) in [
            DEVIATION_COEF,
            G1,
            G2,
            EPSILON,
            OMEGA_STEP,
            BUDGET_MS,
            THRESHOLD_MBPS,
        ] {
            assert!(lo.is_finite() && hi.is_finite() && lo < hi, "({lo}, {hi})");
        }
        assert!(1 <= TREND_WINDOW.0 && TREND_WINDOW.0 <= TREND_WINDOW.1);
        assert!(TREND_WINDOW.1 <= TREND_WINDOW_MAX);
        assert!(Candidate::paper_default().in_bounds());
    }

    #[test]
    fn config_reflects_genes() {
        let mut c = Candidate::paper_default();
        c.deviation_coef = 777.0;
        c.g1 = 3.0;
        c.trend_window = 9;
        c.epsilon = 0.02;
        c.majority_probe = false;
        let cfg = c.config(42);
        assert_eq!(cfg.utility.deviation_coef, 777.0);
        assert_eq!(cfg.rate_control.epsilon, 0.02);
        assert_eq!(cfg.rate_control.probe_rule, ProbeRule::Agreement);
        assert_eq!(cfg.seed, 42);
        match cfg.noise {
            NoiseTolerance::Adaptive(a) => {
                assert_eq!(a.g1, 3.0);
                assert_eq!(a.trend_window, 9);
            }
            _ => panic!("candidate config lost adaptive noise"),
        }
    }

    #[test]
    fn canonical_ignores_unused_genes() {
        let a = Candidate::paper_default();
        let mut b = a;
        b.budget_ms = 99.0; // unused by the Scavenger variant
        b.threshold_mbps = 3.0;
        assert_eq!(a.canonical(), b.canonical());
        let mut c = a;
        c.variant = Variant::DelayBudget;
        let mut d = c;
        d.budget_ms = 99.0; // consumed now
        assert_ne!(c.canonical(), d.canonical());
    }

    #[test]
    fn canonical_is_seed_independent() {
        let c = Candidate::paper_default();
        // Different sim seeds must not split the leaderboard identity.
        assert_eq!(c.canonical(), c.canonical());
        assert!(c.canonical().contains("seed=0"));
    }

    #[test]
    fn operators_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut c = Candidate::random(&mut rng);
        assert!(c.in_bounds());
        for _ in 0..200 {
            c.mutate(&mut rng, 0.8);
            assert!(c.in_bounds(), "mutation escaped bounds: {c:?}");
        }
        let a = Candidate::random(&mut rng);
        let b = Candidate::random(&mut rng);
        assert!(a.crossover(&b, &mut rng).in_bounds());
    }

    #[test]
    fn same_seed_same_draws() {
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        for _ in 0..32 {
            assert_eq!(Candidate::random(&mut r1), Candidate::random(&mut r2));
        }
    }
}
