//! Parameters of the Proteus utility functions, rate controller and noise
//! tolerance, with the paper's defaults.

use proteus_transport::Dur;

/// Utility-function parameters (§4.1–§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityParams {
    /// Throughput exponent `d` in `x^d` (paper default 0.9; must be in
    /// `(0, 1)` for concavity).
    pub exponent: f64,
    /// RTT-gradient coefficient `b` (default 900, sized for up to 1000
    /// competing senders on a ≤1000 Mbps bottleneck).
    pub gradient_coef: f64,
    /// Loss coefficient `c` (default 11.35, tolerating up to 5 % random
    /// loss).
    pub loss_coef: f64,
    /// RTT-deviation coefficient `d` of the scavenger penalty (default 1500,
    /// with deviation measured in seconds).
    pub deviation_coef: f64,
}

impl Default for UtilityParams {
    fn default() -> Self {
        Self {
            exponent: 0.9,
            gradient_coef: 900.0,
            loss_coef: 11.35,
            deviation_coef: 1500.0,
        }
    }
}

/// How probing decisions are made from repeated rate-pair trials (§5
/// "Majority Rule").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeRule {
    /// PCC Vivace: two pairs; move only if both agree.
    Agreement,
    /// Proteus: three pairs; move by majority.
    Majority,
}

impl ProbeRule {
    /// Number of rate pairs tried per probing round.
    pub fn pairs(self) -> usize {
        match self {
            ProbeRule::Agreement => 2,
            ProbeRule::Majority => 3,
        }
    }
}

/// Noise-tolerance configuration (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseTolerance {
    /// PCC Vivace's flat threshold: RTT gradients with magnitude below this
    /// value are ignored.
    FixedThreshold(f64),
    /// Proteus' adaptive mechanisms.
    Adaptive(AdaptiveNoiseParams),
}

/// Parameters of Proteus' adaptive noise tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveNoiseParams {
    /// Per-ACK filter: consecutive ACK-interval ratio that marks a burst
    /// (paper: 50).
    pub ack_interval_ratio: f64,
    /// Whether the per-MI regression-error gate is active (ablation knob;
    /// the paper always enables it).
    pub per_mi_tolerance: bool,
    /// Number of recent MIs kept for the trending metrics (paper: k = 6).
    pub trend_window: usize,
    /// Whether the trending gates are active (ablation knob).
    pub trending_tolerance: bool,
    /// Gradient gate gain `G1` (paper: 2).
    pub g1: f64,
    /// Deviation gate gain `G2` (paper: 4).
    pub g2: f64,
}

impl Default for AdaptiveNoiseParams {
    fn default() -> Self {
        Self {
            ack_interval_ratio: 50.0,
            per_mi_tolerance: true,
            trend_window: 6,
            trending_tolerance: true,
            g1: 2.0,
            g2: 4.0,
        }
    }
}

/// Rate-controller parameters (PCC Vivace gradient ascent, §3/§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateControlParams {
    /// Probing perturbation ε: pairs test `rate·(1±ε)` (Vivace default 5 %).
    pub epsilon: f64,
    /// Probing decision rule.
    pub probe_rule: ProbeRule,
    /// Gradient-to-rate conversion factor γ (Mbps² per utility unit).
    pub gamma: f64,
    /// Initial dynamic rate-change bound ω₀ (fraction of current rate).
    pub omega_init: f64,
    /// Per-consecutive-step increment of the bound.
    pub omega_step: f64,
    /// Maximum bound.
    pub omega_max: f64,
    /// Initial sending rate, Mbps.
    pub initial_rate_mbps: f64,
    /// Smallest rate the controller will use, Mbps.
    pub min_rate_mbps: f64,
}

impl Default for RateControlParams {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            probe_rule: ProbeRule::Majority,
            gamma: 1.0,
            omega_init: 0.05,
            omega_step: 0.05,
            omega_max: 0.25,
            initial_rate_mbps: 2.0,
            min_rate_mbps: 0.10,
        }
    }
}

/// Monitor-interval timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiParams {
    /// Lower bound on MI duration.
    pub min_duration: Dur,
    /// Upper bound on MI duration.
    pub max_duration: Dur,
}

impl Default for MiParams {
    fn default() -> Self {
        Self {
            min_duration: Dur::from_millis(10),
            max_duration: Dur::from_millis(500),
        }
    }
}

/// Complete configuration of a Proteus (or Vivace) sender.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProteusConfig {
    /// Utility-function coefficients.
    pub utility: UtilityParams,
    /// Rate-controller parameters.
    pub rate_control: RateControlParams,
    /// Noise-tolerance mechanism.
    pub noise: NoiseTolerance,
    /// MI timing.
    pub mi: MiParams,
    /// Seed for the controller's internal randomness (probing order).
    pub seed: u64,
}

impl Default for ProteusConfig {
    fn default() -> Self {
        Self::proteus()
    }
}

impl ProteusConfig {
    /// The paper's Proteus configuration: majority-rule probing and adaptive
    /// noise tolerance.
    pub fn proteus() -> Self {
        Self {
            utility: UtilityParams::default(),
            rate_control: RateControlParams::default(),
            noise: NoiseTolerance::Adaptive(AdaptiveNoiseParams::default()),
            mi: MiParams::default(),
            seed: 7,
        }
    }

    /// PCC Vivace as published: two-pair agreement probing and a flat
    /// gradient threshold (no adaptive tolerance).
    pub fn vivace() -> Self {
        Self {
            utility: UtilityParams::default(),
            rate_control: RateControlParams {
                probe_rule: ProbeRule::Agreement,
                ..RateControlParams::default()
            },
            noise: NoiseTolerance::FixedThreshold(0.01),
            mi: MiParams::default(),
            seed: 7,
        }
    }

    /// Returns a copy with the given RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A stable one-line serialization of every field, for embedding in
    /// content-hash job descriptors (e.g. the `repro tune` candidate jobs).
    ///
    /// Two configs render identically iff they are equal: every field is
    /// spelled out, floats use Rust's shortest round-trip `{:?}` form, and
    /// durations render as integer nanoseconds. The format is part of the
    /// result-cache contract — changing it invalidates cached candidate
    /// evaluations (which is exactly what a semantic config change should
    /// do), so extend it only alongside new fields.
    pub fn canonical(&self) -> String {
        let u = &self.utility;
        let r = &self.rate_control;
        let probe = match r.probe_rule {
            ProbeRule::Agreement => "agreement",
            ProbeRule::Majority => "majority",
        };
        let noise = match self.noise {
            NoiseTolerance::FixedThreshold(t) => format!("fixed({t:?})"),
            NoiseTolerance::Adaptive(a) => format!(
                "adaptive(air={:?},permi={},k={},trend={},g1={:?},g2={:?})",
                a.ack_interval_ratio,
                a.per_mi_tolerance,
                a.trend_window,
                a.trending_tolerance,
                a.g1,
                a.g2
            ),
        };
        format!(
            "u(exp={:?},b={:?},c={:?},d={:?})/rc(eps={:?},probe={},gamma={:?},w0={:?},wstep={:?},wmax={:?},x0={:?},xmin={:?})/noise={}/mi({}ns,{}ns)/seed={}",
            u.exponent,
            u.gradient_coef,
            u.loss_coef,
            u.deviation_coef,
            r.epsilon,
            probe,
            r.gamma,
            r.omega_init,
            r.omega_step,
            r.omega_max,
            r.initial_rate_mbps,
            r.min_rate_mbps,
            noise,
            self.mi.min_duration.as_nanos(),
            self.mi.max_duration.as_nanos(),
            self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let u = UtilityParams::default();
        assert_eq!(u.exponent, 0.9);
        assert_eq!(u.gradient_coef, 900.0);
        assert_eq!(u.loss_coef, 11.35);
        assert_eq!(u.deviation_coef, 1500.0);
        let n = AdaptiveNoiseParams::default();
        assert_eq!(n.ack_interval_ratio, 50.0);
        assert_eq!(n.trend_window, 6);
        assert_eq!(n.g1, 2.0);
        assert_eq!(n.g2, 4.0);
    }

    #[test]
    fn probe_rule_pair_counts() {
        assert_eq!(ProbeRule::Agreement.pairs(), 2);
        assert_eq!(ProbeRule::Majority.pairs(), 3);
    }

    #[test]
    fn canonical_is_injective_on_field_changes() {
        let base = ProteusConfig::proteus();
        assert_eq!(base.canonical(), ProteusConfig::proteus().canonical());
        // Every knob class shows up in the rendering.
        let mut u = base;
        u.utility.deviation_coef = 1501.0;
        assert_ne!(u.canonical(), base.canonical());
        let mut rc = base;
        rc.rate_control.epsilon = 0.051;
        assert_ne!(rc.canonical(), base.canonical());
        let mut n = base;
        n.noise = NoiseTolerance::FixedThreshold(0.01);
        assert_ne!(n.canonical(), base.canonical());
        let mut g = base;
        if let NoiseTolerance::Adaptive(ref mut a) = g.noise {
            a.g1 = 2.5;
        }
        assert_ne!(g.canonical(), base.canonical());
        assert_ne!(base.with_seed(8).canonical(), base.canonical());
        // Vivace differs from Proteus in probe rule and noise mechanism.
        assert_ne!(ProteusConfig::vivace().canonical(), base.canonical());
    }

    #[test]
    fn vivace_config_differs() {
        let v = ProteusConfig::vivace();
        assert_eq!(v.rate_control.probe_rule, ProbeRule::Agreement);
        assert!(matches!(v.noise, NoiseTolerance::FixedThreshold(_)));
        let p = ProteusConfig::proteus();
        assert_eq!(p.rate_control.probe_rule, ProbeRule::Majority);
        assert!(matches!(p.noise, NoiseTolerance::Adaptive(_)));
    }
}
