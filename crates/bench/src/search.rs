//! The two-phase search: a coarse grid sweep seeding a deterministic
//! genetic refinement.
//!
//! Phase 1 sweeps the ablation axes the paper discusses explicitly — the
//! utility variant, the deviation coefficient `d`, and the §5 gate gains —
//! at evenly spaced levels. Phase 2 runs a small generational GA
//! (tournament selection, uniform crossover, bounded mutation, elitism)
//! seeded from the grid's leaderboard. All randomness comes from one
//! `SmallRng` seeded by [`SearchSpec::seed`] with a fixed draw order, and
//! every evaluation goes through the content-addressed campaign cache, so
//! the same seed reproduces the same winner byte-for-byte — and a warm
//! re-run is pure cache replay.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use proteus_runner::JobKey;

use crate::eval::{evaluate_batch, CandidateEval};
use crate::scenarios::{full_scenarios, quick_scenarios, EvalScenario};
use crate::space::{Candidate, Variant, DEVIATION_COEF, G1, G2};
use crate::RunCfg;

/// Population slots reserved for the current leaders (not re-bred).
const ELITISM: usize = 2;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Probability a child is a crossover (vs a clone of one parent).
const CROSSOVER_RATE: f64 = 0.9;
/// Per-gene mutation probability.
const MUTATION_RATE: f64 = 0.3;

/// Grid-phase resolution: how many evenly spaced levels each swept gene
/// gets (the variant axis always enumerates every variant).
#[derive(Debug, Clone, Copy)]
pub struct GridLevels {
    /// Levels of the deviation coefficient `d`.
    pub deviation: usize,
    /// Levels of gate gain G1.
    pub g1: usize,
    /// Levels of gate gain G2.
    pub g2: usize,
}

/// A complete search declaration: what varies between searches. The
/// objective ([`crate::eval::OBJECTIVE`]), the gene bounds
/// ([`crate::space`]) and the genetic-operator rates are constants.
#[derive(Debug, Clone)]
pub struct SearchSpec {
    /// Scenarios every candidate is scored on.
    pub scenarios: Vec<EvalScenario>,
    /// Grid-phase resolution.
    pub grid: GridLevels,
    /// GA population size.
    pub pop: usize,
    /// GA generations (0 disables the genetic phase).
    pub generations: usize,
    /// Search RNG seed (selection/crossover/mutation draws only; the
    /// simulations take their seeds from [`RunCfg::seed`]).
    pub seed: u64,
}

/// The `--quick` search: 64 grid cells + 2 GA generations over two 16 s
/// scenarios. Finishes in minutes cold, seconds warm.
pub fn quick_spec(seed: u64) -> SearchSpec {
    SearchSpec {
        scenarios: quick_scenarios(),
        grid: GridLevels {
            deviation: 4,
            g1: 2,
            g2: 2,
        },
        pop: 16,
        generations: 2,
        seed,
    }
}

/// The full search: 216 grid cells + 6 GA generations over three 30 s
/// scenarios (including a BBR primary).
pub fn full_spec(seed: u64) -> SearchSpec {
    SearchSpec {
        scenarios: full_scenarios(),
        grid: GridLevels {
            deviation: 6,
            g1: 3,
            g2: 3,
        },
        pop: 24,
        generations: 6,
        ..quick_spec(seed)
    }
}

/// One leaderboard row: an evaluation plus where the candidate came from.
#[derive(Debug, Clone)]
pub struct RankedCandidate {
    /// The evaluation.
    pub eval: CandidateEval,
    /// `"grid"` or `"gen<N>"`.
    pub origin: String,
    /// Short stable identifier: the FNV-1a hash of
    /// [`Candidate::canonical`], truncated to 12 hex chars.
    pub id: String,
}

/// What a search produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every distinct candidate evaluated, best first.
    pub leaderboard: Vec<RankedCandidate>,
    /// Candidate evaluations requested (including behavioral duplicates).
    pub evaluated: usize,
    /// Simulation jobs actually executed across all campaigns.
    pub jobs_executed: usize,
    /// Jobs answered from the result cache.
    pub jobs_cached: usize,
    /// Cache-miss jobs skipped by the shard filter.
    pub jobs_skipped: usize,
    /// `true` when a shard filter suppressed the genetic phase.
    pub ga_skipped: bool,
}

/// Short stable candidate id (12 hex chars of the canonical-string hash).
pub fn candidate_id(c: &Candidate) -> String {
    let mut hex = JobKey::from_descriptor(&c.canonical()).hex();
    hex.truncate(12);
    hex
}

fn levels(n: usize, (lo, hi): (f64, f64)) -> Vec<f64> {
    if n <= 1 {
        vec![(lo + hi) / 2.0]
    } else {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    }
}

/// The grid-phase candidate list: every variant × evenly spaced
/// `d` × G1 × G2, with the remaining genes at their paper defaults.
pub fn grid_candidates(spec: &SearchSpec) -> Vec<Candidate> {
    let mut out = Vec::new();
    for variant in Variant::ALL {
        for &d in &levels(spec.grid.deviation, DEVIATION_COEF) {
            for &g1 in &levels(spec.grid.g1, G1) {
                for &g2 in &levels(spec.grid.g2, G2) {
                    let mut c = Candidate::paper_default();
                    c.variant = variant;
                    c.deviation_coef = d;
                    c.g1 = g1;
                    c.g2 = g2;
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Ranking order: feasible first, then fitness descending, then id
/// ascending as the deterministic tiebreak. NaN fitness (impossible from
/// the metric arithmetic, but cheap to defend against) ties.
fn rank_cmp(a: &RankedCandidate, b: &RankedCandidate) -> std::cmp::Ordering {
    b.eval
        .feasible
        .cmp(&a.eval.feasible)
        .then(
            b.eval
                .fitness
                .partial_cmp(&a.eval.fitness)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
        .then_with(|| a.id.cmp(&b.id))
}

/// Sorts and dedups the board on candidate identity. Equal ids are the
/// same behavior (same jobs, same metrics), so keep-first is lossless.
fn settle(board: &mut Vec<RankedCandidate>) {
    board.sort_by(rank_cmp);
    let mut seen = std::collections::HashSet::new();
    board.retain(|r| seen.insert(r.id.clone()));
}

/// Best-of-[`TOURNAMENT`] tournament over a pool sorted best-first: the
/// winner is the lowest drawn index.
fn tournament(rng: &mut SmallRng, pool: usize) -> usize {
    (0..TOURNAMENT)
        .map(|_| rng.random_range(0..pool))
        .min()
        .expect("TOURNAMENT >= 1")
}

/// Runs the full search: grid sweep, then (unless sharded) the GA.
///
/// Under a shard filter the genetic phase is skipped: each generation's
/// candidates depend on the previous generation's *complete* metrics,
/// which a shard does not have. The sharded workflow is: run every shard
/// (warming one shared or several mergeable caches), then re-run unsharded
/// for the full search as pure cache replay of the grid plus a live GA.
pub fn run_search(spec: &SearchSpec, cfg: RunCfg) -> SearchOutcome {
    assert!(ELITISM <= spec.pop, "elitism exceeds population");

    let mut evaluated = 0;
    let mut executed = 0;
    let mut cached = 0;
    let mut skipped = 0;
    let mut board: Vec<RankedCandidate> = Vec::new();

    let absorb = |board: &mut Vec<RankedCandidate>, origin: &str, evals: Vec<CandidateEval>| {
        for e in evals {
            board.push(RankedCandidate {
                id: candidate_id(&e.candidate),
                origin: origin.to_string(),
                eval: e,
            });
        }
        settle(board);
    };

    let grid = grid_candidates(spec);
    let (evals, stats) = evaluate_batch("tune-grid", &grid, &spec.scenarios, cfg);
    evaluated += grid.len();
    executed += stats.executed;
    cached += stats.cached;
    skipped += stats.skipped;
    absorb(&mut board, "grid", evals);

    let ga_skipped = cfg.shard.is_some() && spec.generations > 0;
    if !ga_skipped {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        for gen in 1..=spec.generations {
            // Parent pool: the current top of the board, up to `pop`.
            let parents: Vec<Candidate> = board
                .iter()
                .take(spec.pop)
                .map(|r| r.eval.candidate)
                .collect();
            let breed = spec.pop.saturating_sub(ELITISM).max(1);
            let mut children = Vec::with_capacity(breed);
            for _ in 0..breed {
                // Fixed draw order per child: parent a, parent b,
                // crossover decision (+ gene picks), mutation.
                let a = parents[tournament(&mut rng, parents.len())];
                let b = parents[tournament(&mut rng, parents.len())];
                let mut child = if rng.random::<f64>() < CROSSOVER_RATE {
                    a.crossover(&b, &mut rng)
                } else {
                    a
                };
                child.mutate(&mut rng, MUTATION_RATE);
                children.push(child);
            }
            let name = format!("tune-gen{gen}");
            let (evals, stats) = evaluate_batch(&name, &children, &spec.scenarios, cfg);
            evaluated += children.len();
            executed += stats.executed;
            cached += stats.cached;
            skipped += stats.skipped;
            absorb(&mut board, &name.replace("tune-", ""), evals);
        }
    }

    SearchOutcome {
        leaderboard: board,
        evaluated,
        jobs_executed: executed,
        jobs_cached: cached,
        jobs_skipped: skipped,
        ga_skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_has_64_cells() {
        let spec = quick_spec(1);
        let grid = grid_candidates(&spec);
        assert_eq!(grid.len(), 64);
        for c in &grid {
            assert!(c.in_bounds(), "grid cell out of bounds: {c:?}");
        }
    }

    #[test]
    fn full_grid_has_216_cells() {
        assert_eq!(grid_candidates(&full_spec(1)).len(), 216);
    }

    #[test]
    fn grid_levels_span_bounds() {
        let l = levels(4, (300.0, 3000.0));
        assert_eq!(l[0], 300.0);
        assert_eq!(l[3], 3000.0);
        assert_eq!(levels(1, (2.0, 4.0)), vec![3.0]);
    }

    #[test]
    fn ranking_prefers_feasible_then_fitness_then_id() {
        use crate::eval::CandidateMetrics;
        let mk = |feasible, fitness, id: &str| RankedCandidate {
            eval: CandidateEval {
                candidate: Candidate::paper_default(),
                metrics: CandidateMetrics::default(),
                feasible,
                fitness,
            },
            origin: "grid".into(),
            id: id.into(),
        };
        let mut board = [
            mk(false, 9.0, "cc"),
            mk(true, 0.5, "bb"),
            mk(true, 0.9, "aa"),
            mk(true, 0.5, "ab"),
        ];
        board.sort_by(rank_cmp);
        let ids: Vec<_> = board.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["aa", "ab", "bb", "cc"]);
    }

    #[test]
    fn tournament_is_biased_to_the_front() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let picks: Vec<usize> = (0..200).map(|_| tournament(&mut rng, 10)).collect();
        let front = picks.iter().filter(|&&i| i < 5).count();
        assert!(
            front > 120,
            "best-of-3 should favor the front half: {front}"
        );
        assert!(picks.iter().all(|&i| i < 10));
    }

    #[test]
    fn candidate_ids_are_short_and_stable() {
        let c = Candidate::paper_default();
        assert_eq!(candidate_id(&c).len(), 12);
        assert_eq!(candidate_id(&c), candidate_id(&c));
        let mut d = c;
        d.deviation_coef = 301.0;
        assert_ne!(candidate_id(&c), candidate_id(&d));
    }
}
