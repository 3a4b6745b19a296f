//! Batch candidate evaluation through the campaign runner.
//!
//! [`evaluate_batch`] turns a list of [`Candidate`]s into content-hashed
//! campaign jobs (one pair run per candidate × scenario, plus one shared
//! "primary alone" baseline per scenario), submits them through the
//! invocation's [`campaign`] — so the disk cache, the worker pool and the
//! shard filter all apply — and aggregates the payloads into
//! [`CandidateMetrics`], scored against the one [`OBJECTIVE`].
//!
//! Job descriptors embed [`Candidate::canonical`], so candidates that
//! behave identically (equal config + mode, any seed or unused genes)
//! share cache entries, and a re-run of the same search is pure cache
//! replay.

use proteus_netsim::SimResult;
use proteus_runner::{payload, Campaign, CampaignStats, SimJob};

use crate::jobs::{campaign, decode_pair, pair_payload, scenario_job, tail_mbps};
use crate::scenarios::EvalScenario;
use crate::space::Candidate;
use crate::RunCfg;

/// What every search optimizes: the tune report's first line and
/// `best_config.json`'s `"objective"`.
pub const OBJECTIVE: &str = "maximize scav_util subject to harm < 0.05";

/// The harm bound of [`OBJECTIVE`]: feasible iff `harm < MAX_HARM`.
const MAX_HARM: f64 = 0.05;

/// Aggregated measurements of one candidate across its scenario set.
/// `harm` uses the *worst* scenario so a candidate cannot hide damage on
/// one path behind gentleness on another.
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

/// Scores a candidate against [`OBJECTIVE`]: `(feasible, fitness)`. A
/// feasible candidate's fitness is its `scav_util`; an infeasible one's is
/// minus its harm excess, so a genetic search still ranks near-feasible
/// candidates above grossly violating ones. Ranking compares `feasible`
/// first, then fitness.
pub fn score(m: &CandidateMetrics) -> (bool, f64) {
    if m.harm < MAX_HARM {
        (true, m.scav_util)
    } else {
        (false, MAX_HARM - m.harm)
    }
}

/// One candidate's aggregated evaluation.
#[derive(Debug, Clone, Copy)]
pub struct CandidateEval {
    /// The evaluated genome.
    pub candidate: Candidate,
    /// Aggregates across the scenario set.
    pub metrics: CandidateMetrics,
    /// Whether the harm bound holds.
    pub feasible: bool,
    /// Ranking fitness (see [`score`]).
    pub fitness: f64,
}

/// The primary alone on `sc`: payload `[primary_mbps]`.
fn baseline_job(sc: EvalScenario, seed: u64) -> SimJob {
    scenario_job(
        "tune",
        format!("tune/single/{}/secs={:?}/seed={seed}", sc.tag(), sc.secs),
        format!("single-{}-s{seed}", sc.name),
        // Untraced: a search runs hundreds of cells, under pinned cache keys.
        false,
        move || {
            (sc.scenario(seed, None), move |res: &SimResult| {
                vec![tail_mbps(res, 0, sc.secs)]
            })
        },
    )
}

/// The primary against `cand` on `sc`: payload
/// `[primary_mbps, scav_mbps, primary_p95_rtt_s]`.
fn pair_job(sc: EvalScenario, cand: Candidate, seed: u64) -> SimJob {
    scenario_job(
        "tune",
        format!(
            "tune/pair/{}/cand={}/secs={:?}/seed={seed}",
            sc.tag(),
            cand.canonical(),
            sc.secs
        ),
        format!("pair-{}-{}-s{seed}", sc.name, cand.variant.name()),
        // Untraced, like `baseline_job`.
        false,
        move || {
            (sc.scenario(seed, Some(cand)), move |res: &SimResult| {
                pair_payload(res, sc.secs)
            })
        },
    )
}

/// Evaluates `cands` on every scenario through one campaign named `name`,
/// built from `cfg` like every experiment's (cache, workers, progress,
/// summary, shard filter); scenario `i` simulates at seed `cfg.seed + i`.
/// Returns per-candidate aggregates (input order preserved) plus the
/// campaign's execution accounting.
///
/// Under a shard filter, out-of-shard cache misses come back as zero
/// placeholders, so the returned metrics are only meaningful on an
/// unsharded (or fully cached) run — sharded invocations exist to warm the
/// cache in parallel across machines.
pub fn evaluate_batch(
    name: &str,
    cands: &[Candidate],
    scenarios: &[EvalScenario],
    cfg: RunCfg,
) -> (Vec<CandidateEval>, CampaignStats) {
    evaluate_in(campaign(name, cfg), cands, scenarios, cfg.seed)
}

/// [`evaluate_batch`] on a given campaign, scenario `i` at seed `seed + i`.
fn evaluate_in(
    mut campaign: Campaign,
    cands: &[Candidate],
    scenarios: &[EvalScenario],
    seed: u64,
) -> (Vec<CandidateEval>, CampaignStats) {
    assert!(!scenarios.is_empty(), "tuning needs at least one scenario");

    // Baselines first (deduped: every batch of every generation shares
    // them), then one pair cell per candidate × scenario. Identical
    // candidates dedup to one slot via their canonical descriptor.
    let baseline_idx: Vec<usize> = scenarios
        .iter()
        .enumerate()
        .map(|(i, &sc)| campaign.push_dedup(baseline_job(sc, seed + i as u64)))
        .collect();
    let pair_idx: Vec<Vec<usize>> = cands
        .iter()
        .map(|&cand| {
            scenarios
                .iter()
                .enumerate()
                .map(|(i, &sc)| campaign.push_dedup(pair_job(sc, cand, seed + i as u64)))
                .collect()
        })
        .collect();

    let result = campaign.run();
    let alone: Vec<f64> = baseline_idx
        .iter()
        .map(|&i| payload::decode_floats(&result.outputs[i])[0])
        .collect();

    let evals = cands
        .iter()
        .zip(&pair_idx)
        .map(|(&candidate, slots)| {
            let mut m = CandidateMetrics::default();
            for ((&slot, sc), &alone_mbps) in slots.iter().zip(scenarios).zip(&alone) {
                let pair = decode_pair(&result.outputs[slot]);
                m.scav_mbps += pair.scav_mbps / scenarios.len() as f64;
                m.scav_util += pair.scav_mbps / sc.bw_mbps / scenarios.len() as f64;
                if alone_mbps > 1e-9 {
                    m.harm = m.harm.max((1.0 - pair.primary_mbps / alone_mbps).max(0.0));
                }
                m.p95_rtt_s = m.p95_rtt_s.max(pair.p95_rtt_s);
            }
            let (feasible, fitness) = score(&m);
            CandidateEval {
                candidate,
                metrics: m,
                feasible,
                fitness,
            }
        })
        .collect();
    (evals, result.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::quick_scenarios;
    use proteus_runner::CampaignOpts;

    fn tiny_scenario() -> EvalScenario {
        EvalScenario {
            name: "tiny",
            primary: "CUBIC",
            bw_mbps: 20.0,
            rtt_ms: 20.0,
            buffer_bdp: 1.0,
            secs: 8.0,
        }
    }

    /// One worker, no cache, no summary file.
    fn serial_campaign() -> Campaign {
        Campaign::new(
            "tune-test",
            CampaignOpts {
                jobs: 1,
                ..CampaignOpts::default()
            },
        )
    }

    #[test]
    fn descriptors_dedup_identical_behavior() {
        let sc = quick_scenarios()[0];
        let a = Candidate::paper_default();
        let mut b = a;
        b.budget_ms = 99.0; // unused gene — identical behavior
        assert_eq!(pair_job(sc, a, 7).key(), pair_job(sc, b, 7).key());
        let mut c = a;
        c.deviation_coef = 900.0;
        assert_ne!(pair_job(sc, a, 7).key(), pair_job(sc, c, 7).key());
        // Different sim seeds are distinct cells.
        assert_ne!(pair_job(sc, a, 7).key(), pair_job(sc, a, 8).key());
    }

    /// The cache identity of the tuner's cells, literally: a drifted stem,
    /// `/v1` suffix or canonical string turns every warm re-run cold.
    #[test]
    fn tune_job_keys_are_unchanged() {
        let sc = quick_scenarios()[0];
        let base = baseline_job(sc, 1);
        assert_eq!(
            base.descriptor(),
            "tune/single/p=CUBIC/bw=50.0/rtt=30.0ms/bdp=2.0/secs=16.0/seed=1/v1"
        );
        assert_eq!(base.key().hex(), "0127ae4dd9dc0b0f");
        let pair = pair_job(sc, Candidate::paper_default(), 1);
        assert_eq!(
            pair.descriptor(),
            concat!(
                "tune/pair/p=CUBIC/bw=50.0/rtt=30.0ms/bdp=2.0/cand=",
                "u(exp=0.9,b=900.0,c=11.35,d=1500.0)/",
                "rc(eps=0.05,probe=majority,gamma=1.0,w0=0.05,wstep=0.05,wmax=0.25,x0=2.0,xmin=0.1)/",
                "noise=adaptive(air=50.0,permi=true,k=6,trend=true,g1=2.0,g2=4.0)/",
                "mi(10000000ns,500000000ns)/seed=0/mode=scavenger/secs=16.0/seed=1/v1"
            )
        );
        assert_eq!(pair.key().hex(), "7ca2b0ada22187dd");
    }

    #[test]
    fn batch_evaluates_scavenger_as_low_harm() {
        let scenarios = [tiny_scenario()];
        let cands = [Candidate::paper_default()];
        let (evals, stats) = evaluate_in(serial_campaign(), &cands, &scenarios, 1);
        assert_eq!(evals.len(), 1);
        assert_eq!(stats.total, 2); // 1 baseline + 1 pair
        let e = &evals[0];
        assert!(e.metrics.scav_mbps > 0.1, "scavenger moved no data: {e:?}");
        assert!(
            e.metrics.harm < 0.25,
            "paper-default scavenger harms the primary: {e:?}"
        );
        assert!(e.metrics.scav_util > 0.0 && e.metrics.scav_util <= 1.0);
    }

    #[test]
    fn duplicate_candidates_share_jobs() {
        let scenarios = [tiny_scenario()];
        let cands = [Candidate::paper_default(), Candidate::paper_default()];
        let (evals, stats) = evaluate_in(serial_campaign(), &cands, &scenarios, 1);
        assert_eq!(stats.total, 2, "identical candidates must dedup");
        assert_eq!(evals[0].fitness, evals[1].fitness);
    }

    /// The bound is strict, and the report line names it to the digit.
    #[test]
    fn scoring_orders_infeasible_by_violation() {
        assert!(OBJECTIVE.ends_with(&format!("harm < {MAX_HARM:?}")));
        let metrics = |scav_util, harm| CandidateMetrics {
            scav_util,
            harm,
            ..Default::default()
        };
        let (f_ok, s_ok) = score(&metrics(0.6, 0.03));
        let (f_edge, _) = score(&metrics(0.7, 0.05));
        let (f_near, s_near) = score(&metrics(0.9, 0.06));
        let (f_far, s_far) = score(&metrics(0.95, 0.40));
        assert!(f_ok && !f_edge && !f_near && !f_far, "the bound is strict");
        assert_eq!(s_ok, 0.6);
        assert!(s_near > s_far, "less violation must rank higher");
    }
}
