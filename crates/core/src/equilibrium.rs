//! Game-theoretic equilibrium analysis (Appendix A).
//!
//! The paper models competing Proteus senders on one bottleneck as a
//! non-cooperative game with simplified utilities (loss terms omitted):
//!
//! ```text
//! u_P(x_i) = x_i^d − b·x_i·max(0, (S−C)/C)
//! u_S(x_i) = u_P(x_i) − d_dev·x_i·σ(S)
//! ```
//!
//! with `S` the total rate, `C` capacity and `σ` the RTT deviation of the
//! configuration, `σ = A·|S−C|/C`, where `A ≈ T_MI/√12` is treated as a
//! constant (Appendix A: with an RTT-long MI, `n_i` is linear in `x_i`, so
//! the `MTU/x_i` prefactor cancels).
//!
//! Two modelling notes, reflected in this module:
//!
//! * The static `max(0,·)` game's equilibria form the *boundary face*
//!   `S = C` with every `x_i ≥ x*`, where `x* = (d·C/b)^{1/(2−d)}` is the
//!   rate below which a sender still profits from pushing past capacity —
//!   `b = 900` makes `x* = 1 Mbps` at `C = 1000 Mbps`, which is exactly the
//!   paper's "up to 1000 senders on up to 1000 Mbps" sizing of `b`
//!   ([`GameParams::boundary_min_rate`]).
//! * The *strictness* that separates scavengers from primaries comes from
//!   dynamics the static game ignores: at the boundary, every sender's
//!   ±ε rate probing keeps perturbing the queue, so the configuration's
//!   RTT deviation is never zero once the probe bursts overshoot capacity.
//!   We model that with a probing-aware deviation
//!   `σ(S) = A·max(0, ((1+ε)·S − C)/C)` — zero while even the +ε probe fits
//!   in the pipe, growing with the overshoot — which penalizes only
//!   scavengers: the paper's informal §4.3 argument ("the RTT deviation
//!   term generates larger penalty, and makes the Proteus-S sender
//!   relatively conservative") made quantitative. Setting
//!   [`GameParams::probe_eps`] to zero recovers the static game.
//!
//! [`solve_equilibrium`] runs damped best-response dynamics (ternary search
//! on the concave single-sender utility); the tests verify Theorems
//! 4.1/4.2's fairness and full utilization in the symmetric cases,
//! uniqueness in games with scavengers, and the scavenger-yields property.
//! [`hybrid_ideal_allocation`] implements the §4.4 closed form for two
//! Proteus-H senders.

/// Step budget of [`GameParams::best_response`]'s ternary search.
pub const SEARCH_STEPS: usize = 200;

/// Damping of the best-response dynamics: each sweep moves a sender half
/// way to its best response.
pub const DAMPING: f64 = 0.5;

/// Sweep budget of the best-response dynamics.
pub const MAX_SWEEPS: usize = 20_000;

/// Convergence tolerance of [`solve_equilibrium`], relative to capacity.
pub const TOLERANCE: f64 = 1e-7;

/// Which utility a player in the game uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenderKind {
    /// Proteus-P (Eq. 1, simplified).
    Primary,
    /// Proteus-S (Eq. 2, simplified).
    Scavenger,
}

/// Parameters of the simplified Appendix-A game.
#[derive(Debug, Clone, Copy)]
pub struct GameParams {
    /// Throughput exponent `d ∈ (0, 1)`.
    pub exponent: f64,
    /// Gradient coefficient `b`.
    pub gradient_coef: f64,
    /// Deviation coefficient `d_dev`.
    pub deviation_coef: f64,
    /// The deviation constant `A` (seconds), ≈ `T_MI/√12`.
    pub a_const: f64,
    /// Bottleneck capacity, Mbps.
    pub capacity: f64,
    /// Probing perturbation ε of the rate controller (0 = static game).
    pub probe_eps: f64,
}

impl GameParams {
    /// Paper defaults on a given capacity, with a 30 ms monitor interval
    /// and Vivace's ε = 5 % probing.
    pub fn paper_defaults(capacity: f64) -> Self {
        Self {
            exponent: 0.9,
            gradient_coef: 900.0,
            deviation_coef: 1500.0,
            a_const: 0.030 / 12f64.sqrt(),
            capacity,
            probe_eps: 0.05,
        }
    }

    /// The static game's boundary threshold `x* = (d·C/b)^{1/(2−d)}`: on
    /// the `S = C` face, a sender with `x_i < x*` would still profit from
    /// pushing past capacity, so boundary equilibria require `x_i ≥ x*`.
    pub fn boundary_min_rate(&self) -> f64 {
        (self.exponent * self.capacity / self.gradient_coef).powf(1.0 / (2.0 - self.exponent))
    }

    /// RTT deviation of the configuration with total rate `s`, seconds:
    /// the +ε probe bursts start building queue once `(1+ε)·s > C`.
    fn sigma(&self, s: f64) -> f64 {
        let overshoot = ((1.0 + self.probe_eps) * s - self.capacity) / self.capacity;
        self.a_const * overshoot.max(0.0)
    }

    /// Single-sender utility at rate `x` with the others sending `others`.
    pub fn utility(&self, kind: SenderKind, x: f64, others: f64) -> f64 {
        let s = x + others;
        let congestion = ((s - self.capacity) / self.capacity).max(0.0);
        let base = x.powf(self.exponent) - self.gradient_coef * x * congestion;
        match kind {
            SenderKind::Primary => base,
            SenderKind::Scavenger => base - self.deviation_coef * x * self.sigma(s),
        }
    }

    /// Best response of one sender to the others' total rate, by ternary
    /// search on the concave utility: at most [`SEARCH_STEPS`] steps, and
    /// none after the bracket's fixed point.
    ///
    /// The fixed point is a step whose two probes round back to the
    /// bracket ends (`m1 == lo && m2 == hi`): whichever branch it takes
    /// writes back the value already there, so it and every later step
    /// leave `lo` and `hi` as they are. Stopping there returns the very
    /// bits the full [`SEARCH_STEPS`] would; on the Appendix-A cases the
    /// bracket gets there after 91–101 steps.
    pub fn best_response(&self, kind: SenderKind, others: f64) -> f64 {
        let mut lo = 0.0_f64;
        // The utility is decreasing well above capacity; 2·C is a safe
        // upper bracket for any best response.
        let mut hi = 2.0 * self.capacity;
        for _ in 0..SEARCH_STEPS {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if m1 == lo && m2 == hi {
                break;
            }
            if self.utility(kind, m1, others) < self.utility(kind, m2, others) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Outcome of the best-response dynamics.
#[derive(Debug, Clone)]
pub struct Equilibrium {
    /// Per-sender equilibrium rates, Mbps (same order as the input kinds).
    pub rates: Vec<f64>,
    /// Number of sweeps until convergence.
    pub iterations: usize,
    /// Whether the dynamics converged within the sweep budget.
    pub converged: bool,
}

impl Equilibrium {
    /// Total sending rate.
    pub fn total(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Link utilization `min(S, C)/C`.
    pub fn utilization(&self, capacity: f64) -> f64 {
        (self.total().min(capacity)) / capacity
    }
}

/// Runs damped best-response dynamics from the given starting rates until
/// the largest per-sender change is below `tol` (relative to capacity).
pub fn solve_equilibrium_from(
    params: &GameParams,
    kinds: &[SenderKind],
    start: &[f64],
    tol: f64,
) -> Equilibrium {
    solve_with(params, kinds, start, tol, GameParams::best_response)
}

/// [`solve_equilibrium_from`] with the best response as an argument, so the
/// tests can drive the dynamics with a reference search.
fn solve_with(
    params: &GameParams,
    kinds: &[SenderKind],
    start: &[f64],
    tol: f64,
    best_response: impl Fn(&GameParams, SenderKind, f64) -> f64,
) -> Equilibrium {
    assert_eq!(kinds.len(), start.len());
    let mut rates = start.to_vec();
    for sweep in 0..MAX_SWEEPS {
        let mut max_delta = 0.0_f64;
        for i in 0..rates.len() {
            let others: f64 = rates.iter().sum::<f64>() - rates[i];
            let br = best_response(params, kinds[i], others);
            let next = rates[i] + DAMPING * (br - rates[i]);
            max_delta = max_delta.max((next - rates[i]).abs());
            rates[i] = next;
        }
        if max_delta < tol * params.capacity {
            return Equilibrium {
                rates,
                iterations: sweep + 1,
                converged: true,
            };
        }
    }
    Equilibrium {
        rates,
        iterations: MAX_SWEEPS,
        converged: false,
    }
}

/// Solves the game from the symmetric interior starting point `C/n`, to
/// [`TOLERANCE`].
pub fn solve_equilibrium(params: &GameParams, kinds: &[SenderKind]) -> Equilibrium {
    let n = kinds.len().max(1) as f64;
    let start = vec![params.capacity / n; kinds.len()];
    solve_equilibrium_from(params, kinds, &start, TOLERANCE)
}

/// The §4.4 ideal allocation for two Proteus-H senders with switching
/// thresholds `r1 ≤ r2` on a bottleneck of capacity `c`:
///
/// ```text
/// (C/2, C/2)        if C ∈ [0, 2r1)
/// (r1, C − r1)      if C ∈ [2r1, r1 + r2)
/// (C − r2, r2)      if C ∈ [r1 + r2, 2r2)
/// (C/2, C/2)        if C ∈ [2r2, ∞)
/// ```
pub fn hybrid_ideal_allocation(c: f64, r1: f64, r2: f64) -> (f64, f64) {
    assert!(r1 <= r2, "call with r1 <= r2");
    if c < 2.0 * r1 {
        (c / 2.0, c / 2.0)
    } else if c < r1 + r2 {
        (r1, c - r1)
    } else if c < 2.0 * r2 {
        (c - r2, r2)
    } else {
        (c / 2.0, c / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn boundary_min_rate_matches_vivace_sizing() {
        // b = 900 on a 1000 Mbps link supports 1000 senders at 1 Mbps each.
        let p = GameParams::paper_defaults(1000.0);
        assert!(close(p.boundary_min_rate(), 1.0, 1e-9));
    }

    #[test]
    fn primary_only_equilibrium_is_fair_and_saturating() {
        let p = GameParams::paper_defaults(100.0);
        let kinds = vec![SenderKind::Primary; 4];
        let eq = solve_equilibrium(&p, &kinds);
        assert!(eq.converged);
        let first = eq.rates[0];
        for &r in &eq.rates {
            assert!(close(r, first, 0.01), "unfair: {:?}", eq.rates);
        }
        // Theorem 4.1: the link is fully utilized.
        assert!(
            eq.utilization(100.0) > 0.99,
            "util = {}",
            eq.utilization(100.0)
        );
        assert!(eq.total() <= 100.0 * 1.10, "total = {}", eq.total());
    }

    #[test]
    fn scavenger_only_equilibrium_is_fair_and_nearly_saturating() {
        let p = GameParams::paper_defaults(100.0);
        let kinds = vec![SenderKind::Scavenger; 3];
        let eq = solve_equilibrium(&p, &kinds);
        assert!(eq.converged);
        // σ's kink at (1+ε)·S = C leaves a sliver of slack, so scavengers
        // end up near-fair rather than exactly fair — mirroring the paper's
        // Fig. 5, where Proteus-S holds a Jain index above 90 % while the
        // primary protocols sit at ~99 %.
        let lo = eq.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = eq.rates.iter().cloned().fold(0.0_f64, f64::max);
        assert!(lo / hi > 0.85, "unfair: {:?}", eq.rates);
        // Theorem 4.2 claims full utilization in the frictionless model;
        // with probing-induced deviation the scavengers stop slightly
        // short of capacity (the Fig.-3 experiments show ≥ 90 %).
        assert!(
            eq.utilization(100.0) > 0.85,
            "util = {}",
            eq.utilization(100.0)
        );
    }

    #[test]
    fn mixed_game_scavenger_yields() {
        let p = GameParams::paper_defaults(100.0);
        let kinds = vec![SenderKind::Primary, SenderKind::Scavenger];
        let eq = solve_equilibrium(&p, &kinds);
        assert!(eq.converged);
        assert!(
            eq.rates[0] > 2.0 * eq.rates[1],
            "scavenger should yield: {:?}",
            eq.rates
        );
        // And the pair still fills the link.
        assert!(eq.utilization(100.0) > 0.95);
    }

    #[test]
    fn unique_equilibrium_from_different_starts() {
        let p = GameParams::paper_defaults(50.0);
        let kinds = vec![
            SenderKind::Primary,
            SenderKind::Scavenger,
            SenderKind::Scavenger,
        ];
        let a = solve_equilibrium_from(&p, &kinds, &[16.0, 16.0, 16.0], 1e-8);
        let b = solve_equilibrium_from(&p, &kinds, &[45.0, 3.0, 2.0], 1e-8);
        assert!(a.converged && b.converged);
        for (x, y) in a.rates.iter().zip(&b.rates) {
            assert!(close(*x, *y, 0.05), "{:?} vs {:?}", a.rates, b.rates);
        }
    }

    #[test]
    fn single_sender_saturates() {
        let p = GameParams::paper_defaults(20.0);
        let eq = solve_equilibrium(&p, &[SenderKind::Primary]);
        assert!(eq.converged);
        assert!(eq.utilization(20.0) > 0.99, "rate = {}", eq.rates[0]);
    }

    #[test]
    fn single_scavenger_nearly_saturates() {
        // Fig. 3(a): a lone Proteus-S still reaches ≥ 90 % utilization.
        let p = GameParams::paper_defaults(50.0);
        let eq = solve_equilibrium(&p, &[SenderKind::Scavenger]);
        assert!(eq.converged);
        assert!(eq.utilization(50.0) > 0.90, "rate = {}", eq.rates[0]);
    }

    #[test]
    fn larger_deviation_coef_widens_the_gap() {
        let base = GameParams::paper_defaults(100.0);
        let mut strong = base;
        strong.deviation_coef = 30_000.0;
        let kinds = vec![SenderKind::Primary, SenderKind::Scavenger];
        let eq_base = solve_equilibrium(&base, &kinds);
        let eq_strong = solve_equilibrium(&strong, &kinds);
        let share_base = eq_base.rates[1] / eq_base.total();
        let share_strong = eq_strong.rates[1] / eq_strong.total();
        assert!(
            share_strong < share_base,
            "stronger penalty should shrink the scavenger share: {share_base} vs {share_strong}"
        );
    }

    #[test]
    fn static_game_has_boundary_equilibria() {
        // With ε = 0 the scavenger penalty vanishes below capacity: any
        // S = C split with x_i ≥ x* is a fixed point, so the asymmetric
        // start stays asymmetric — the uniqueness of the dynamic model
        // genuinely comes from the probing term.
        let mut p = GameParams::paper_defaults(100.0);
        p.probe_eps = 0.0;
        let kinds = vec![SenderKind::Primary, SenderKind::Primary];
        let eq = solve_equilibrium_from(&p, &kinds, &[70.0, 30.0], 1e-8);
        assert!(eq.converged);
        assert!(close(eq.total(), 100.0, 0.5), "total = {}", eq.total());
        assert!(eq.rates[0] > eq.rates[1], "{:?}", eq.rates);
    }

    #[test]
    fn hybrid_allocation_regimes() {
        // C below both thresholds: fair share.
        assert_eq!(hybrid_ideal_allocation(10.0, 10.0, 20.0), (5.0, 5.0));
        // C ∈ [2r1, r1+r2): sender 1 pinned at its threshold.
        assert_eq!(hybrid_ideal_allocation(25.0, 10.0, 20.0), (10.0, 15.0));
        // C ∈ [r1+r2, 2r2): sender 2 pinned at its threshold.
        assert_eq!(hybrid_ideal_allocation(35.0, 10.0, 20.0), (15.0, 20.0));
        // Plenty of capacity: fair share again.
        assert_eq!(hybrid_ideal_allocation(60.0, 10.0, 20.0), (30.0, 30.0));
    }

    #[test]
    fn hybrid_allocation_boundaries() {
        let (a, b) = hybrid_ideal_allocation(20.0, 10.0, 20.0); // C = 2r1
        assert_eq!((a, b), (10.0, 10.0));
        let (a, b) = hybrid_ideal_allocation(30.0, 10.0, 20.0); // C = r1+r2
        assert_eq!((a, b), (10.0, 20.0));
        let (a, b) = hybrid_ideal_allocation(40.0, 10.0, 20.0); // C = 2r2
        assert_eq!((a, b), (20.0, 20.0));
    }

    #[test]
    #[should_panic]
    fn hybrid_allocation_requires_ordered_thresholds() {
        let _ = hybrid_ideal_allocation(10.0, 20.0, 10.0);
    }

    /// The reference search: every one of the [`SEARCH_STEPS`] steps, with
    /// no early exit.
    fn full_search(p: &GameParams, kind: SenderKind, others: f64) -> f64 {
        let (mut lo, mut hi) = (0.0_f64, 2.0 * p.capacity);
        for _ in 0..SEARCH_STEPS {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if p.utility(kind, m1, others) < p.utility(kind, m2, others) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn best_response_stops_on_the_full_searchs_bits() {
        for capacity in [10.0, 100.0, 1000.0] {
            let p = GameParams::paper_defaults(capacity);
            for kind in [SenderKind::Primary, SenderKind::Scavenger] {
                // 401 points over [0, 2C], the ends included.
                for step in 0..=400 {
                    let others = 2.0 * capacity * step as f64 / 400.0;
                    let (got, want) =
                        (p.best_response(kind, others), full_search(&p, kind, others));
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kind:?} C={capacity} others={others}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn appendix_a_cases_solve_to_the_full_searchs_bits() {
        use SenderKind::{Primary as P, Scavenger as S};
        let p = GameParams::paper_defaults(100.0);
        let cases: [&[SenderKind]; 6] = [&[P], &[S], &[P; 4], &[S; 3], &[P, S], &[P, P, S, S]];
        for kinds in cases {
            let got = solve_equilibrium(&p, kinds);
            let start = vec![p.capacity / kinds.len() as f64; kinds.len()];
            let want = solve_with(&p, kinds, &start, TOLERANCE, full_search);
            let bits = |e: &Equilibrium| e.rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{kinds:?}");
            assert_eq!(got.iterations, want.iterations, "{kinds:?}");
            assert!(got.converged && want.converged, "{kinds:?}");
        }
    }

    #[test]
    fn best_response_is_interior_when_congested() {
        let p = GameParams::paper_defaults(100.0);
        // With others already at capacity, the best response is small but
        // positive (x^d has infinite slope at 0).
        let br = p.best_response(SenderKind::Scavenger, 100.0);
        assert!(br > 0.0 && br < 20.0, "br = {br}");
        let br_p = p.best_response(SenderKind::Primary, 100.0);
        assert!(br_p > br, "primary responds more aggressively");
    }
}
