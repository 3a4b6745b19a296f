//! Multi-scenario objectives: a metric to maximize plus upper-bound
//! constraints. The harness searches under one,
//! [`Objective::default_scavenger`], whose `Display` form heads the tune
//! report:
//!
//! ```text
//! maximize scav_util subject to harm < 0.05
//! ```
//!
//! Metrics are aggregates over every evaluation scenario (see
//! [`CandidateMetrics`]); `harm` uses the *worst* scenario so a candidate
//! cannot hide damage on one path behind gentleness on another.

use std::fmt;

/// Aggregated measurements of one candidate across its scenario set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CandidateMetrics {
    /// Mean scavenger tail goodput across scenarios, Mbps.
    pub scav_mbps: f64,
    /// Mean scavenger tail goodput as a fraction of each scenario's
    /// bottleneck bandwidth (comparable across heterogeneous links).
    pub scav_util: f64,
    /// Primary harm: `max` over scenarios of
    /// `max(0, 1 − primary_with / primary_alone)`.
    pub harm: f64,
    /// Worst primary 95th-percentile RTT across scenarios, seconds.
    pub p95_rtt_s: f64,
}

/// A named scalar over [`CandidateMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `scav_util`: mean scavenger bottleneck utilization.
    ScavUtil,
    /// `scav_mbps`: mean scavenger goodput, Mbps.
    ScavMbps,
    /// `harm`: worst-scenario primary harm fraction.
    Harm,
    /// `p95_rtt`: worst primary p95 RTT, seconds.
    P95Rtt,
}

impl Metric {
    /// Name in the objective line of the tune report.
    pub fn name(self) -> &'static str {
        match self {
            Metric::ScavUtil => "scav_util",
            Metric::ScavMbps => "scav_mbps",
            Metric::Harm => "harm",
            Metric::P95Rtt => "p95_rtt",
        }
    }

    /// Reads this metric out of a candidate's aggregates.
    pub fn of(self, m: &CandidateMetrics) -> f64 {
        match self {
            Metric::ScavUtil => m.scav_util,
            Metric::ScavMbps => m.scav_mbps,
            Metric::Harm => m.harm,
            Metric::P95Rtt => m.p95_rtt_s,
        }
    }
}

/// An upper bound a candidate must satisfy to be feasible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraint {
    /// Constrained metric.
    pub metric: Metric,
    /// Strict upper bound: feasible iff `metric < max`.
    pub max: f64,
}

/// What the search optimizes: one metric to maximize under constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Maximized metric.
    pub maximize: Metric,
    /// Feasibility constraints (all must hold).
    pub constraints: Vec<Constraint>,
}

impl Objective {
    /// The harness default: maximize scavenger utilization subject to
    /// primary harm < 5 % on every evaluation scenario.
    pub fn default_scavenger() -> Self {
        Self {
            maximize: Metric::ScavUtil,
            constraints: vec![Constraint {
                metric: Metric::Harm,
                max: 0.05,
            }],
        }
    }

    /// Scores a candidate: `(feasible, fitness)`. Feasible candidates get
    /// the maximized metric as fitness; infeasible ones get the *negated
    /// total constraint violation*, so a genetic search still ranks
    /// near-feasible candidates above grossly violating ones. Ranking
    /// compares `feasible` first, then fitness.
    pub fn score(&self, m: &CandidateMetrics) -> (bool, f64) {
        let violation: f64 = self
            .constraints
            .iter()
            .map(|c| (c.metric.of(m) - c.max).max(0.0))
            .sum();
        if violation > 0.0 {
            (false, -violation)
        } else {
            (true, self.maximize.of(m))
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "maximize {}", self.maximize.name())?;
        for (i, c) in self.constraints.iter().enumerate() {
            let sep = if i == 0 { " subject to" } else { " and" };
            write!(f, "{sep} {} < {:?}", c.metric.name(), c.max)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tune report's first line and `best_config.json`'s `"objective"`,
    /// byte for byte.
    #[test]
    fn parses_default_spec_roundtrip() {
        assert_eq!(
            Objective::default_scavenger().to_string(),
            "maximize scav_util subject to harm < 0.05"
        );
        let two = Objective {
            maximize: Metric::ScavMbps,
            constraints: vec![
                Constraint {
                    metric: Metric::Harm,
                    max: 0.05,
                },
                Constraint {
                    metric: Metric::P95Rtt,
                    max: 0.2,
                },
            ],
        };
        assert_eq!(
            two.to_string(),
            "maximize scav_mbps subject to harm < 0.05 and p95_rtt < 0.2"
        );
    }

    #[test]
    fn scoring_orders_infeasible_by_violation() {
        let o = Objective::default_scavenger();
        let ok = CandidateMetrics {
            scav_util: 0.6,
            harm: 0.03,
            ..Default::default()
        };
        let near = CandidateMetrics {
            scav_util: 0.9,
            harm: 0.06,
            ..Default::default()
        };
        let far = CandidateMetrics {
            scav_util: 0.95,
            harm: 0.40,
            ..Default::default()
        };
        let (f_ok, s_ok) = o.score(&ok);
        let (f_near, s_near) = o.score(&near);
        let (f_far, s_far) = o.score(&far);
        assert!(f_ok && !f_near && !f_far);
        assert_eq!(s_ok, 0.6);
        assert!(s_near > s_far, "less violation must rank higher");
    }
}
