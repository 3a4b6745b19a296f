//! `campaign_replay`: every `experiments::registry()` entry, in order,
//! in-process, quick mode, one worker, cache on. The first pass after
//! `prepare` is cold and fills the cache (that is `setup_s`); every later
//! pass is warm (that is `wall_s`) and must reproduce the cold reports. It
//! is the only workload where `runner`, `tune` and `bench` do the work.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::time::Instant;

use proteus_bench::experiments::{registry, Experiment};
use proteus_bench::RunCfg;
use proteus_runner::CampaignStats;

use super::{LayerCtx, LayerValue, PassOutcome, Workload};
use crate::cells::Digest;
use crate::metrics::EXPERIMENT_IDS;
use crate::probes;
use crate::spans::Spans;
use crate::yardstick::Yardstick;

/// The experiments a `--smoke` run keeps: two cached campaigns, one
/// experiment that bypasses the runner, and the simulation-free one.
const SMOKE_IDS: [&str; 4] = ["fig8", "fig14", "theory", "rtc"];

/// The experiments the `jobs = 2` pool measurement runs cold.
const POOL_IDS: [&str; 4] = ["appB", "fig5", "fig6", "fig9"];

/// What one experiment did in one pass.
#[derive(Debug, Clone)]
struct ExperimentRun {
    id: &'static str,
    secs: f64,
    /// Campaigns the experiment ran through the runner, in order.
    campaigns: Vec<CampaignStats>,
    /// Engine events dispatched while it ran: non-zero means it simulated.
    events: u64,
}

/// The registry replayed against a scratch results directory.
pub struct CampaignReplay {
    cfg: RunCfg,
    experiments: Vec<Experiment>,
    results_dir: PathBuf,
    yardstick: Yardstick,
    /// Reports of the cold pass with their accounting masked, the reference
    /// every warm pass must match.
    cold_reports: Option<Vec<String>>,
    cold: Vec<ExperimentRun>,
    /// The latest traced warm pass.
    warm: Vec<ExperimentRun>,
}

impl CampaignReplay {
    /// The workload at `seed`; `smoke` keeps four cheap experiments.
    pub fn new(seed: u64, smoke: bool) -> Self {
        let cfg = RunCfg {
            seed,
            jobs: 1,
            cache: true,
            ..RunCfg::quick()
        };
        let experiments = registry()
            .into_iter()
            .filter(|e| !smoke || SMOKE_IDS.contains(&e.id))
            .collect();
        Self {
            cfg,
            experiments,
            results_dir: PathBuf::new(),
            yardstick: Yardstick::default(),
            cold_reports: None,
            cold: Vec::new(),
            warm: Vec::new(),
        }
    }
}

/// Points the harness at a fresh results directory. Experiments resolve
/// `PROTEUS_RESULTS_DIR` on every write, so this must happen while no other
/// thread runs (campaign workers are scoped and joined before `run`
/// returns).
fn fresh_results_dir(dir: &Path) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    std::env::set_var("PROTEUS_RESULTS_DIR", dir);
    Ok(())
}

/// A report with its execution accounting masked: `tune` prints how many
/// jobs were executed and how many came from the cache, which differs
/// between a cold and a warm pass by design. Everything else must be
/// byte-identical.
fn behaviour_of(report: &str) -> String {
    report
        .lines()
        .filter(|l| !(l.contains(" executed") && l.contains(" cached")))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs one experiment; `None` if it panicked.
fn run_experiment(
    e: &Experiment,
    cfg: RunCfg,
    spans: &mut Spans,
) -> (Option<String>, ExperimentRun) {
    proteus_runner::take_session_stats();
    proteus_netsim::take_session_event_totals();
    spans.enter(&format!("bench.experiment.{}", e.id));
    let t0 = Instant::now();
    let run = e.run;
    let report = catch_unwind(move || run(cfg)).ok();
    let secs = t0.elapsed().as_secs_f64();
    spans.exit();
    let run = ExperimentRun {
        id: e.id,
        secs,
        campaigns: proteus_runner::take_session_stats(),
        events: proteus_netsim::take_session_event_totals().dispatched,
    };
    (report, run)
}

impl Workload for CampaignReplay {
    // A warm pass takes about as long as two passes of a simulation
    // workload, so the floor is lower.
    fn min_reps(&self) -> usize {
        3
    }

    // The first pass is the 20-second cold campaign: one is all a run can
    // afford.
    fn setup_reps(&self) -> usize {
        1
    }

    fn first_pass_is_measured(&self) -> bool {
        true
    }

    fn prepare(&mut self, scratch: &Path) -> io::Result<()> {
        self.results_dir = scratch.join("results");
        self.cold_reports = None;
        fresh_results_dir(&self.results_dir)
    }

    fn pass(&mut self, traced: bool, spans: &mut Spans) -> PassOutcome {
        let cold = self.cold_reports.is_none();
        spans.enter(if cold { "pass.cold" } else { "pass.warm" });
        let mut digest = Digest::default();
        let mut failures = Vec::new();
        let mut reports = Vec::new();
        let mut runs = Vec::new();
        let mut yard = Vec::with_capacity(self.experiments.len() + 1);
        for (i, e) in self.experiments.iter().enumerate() {
            yard.push(self.yardstick.sample());
            let (report, run) = run_experiment(e, self.cfg, spans);
            match &report {
                None => failures.push(format!("{}: panicked", e.id)),
                Some(r) if r.is_empty() => failures.push(format!("{}: empty report", e.id)),
                Some(r) => {
                    let behaviour = behaviour_of(r);
                    digest.bytes(behaviour.as_bytes());
                    if let Some(cold) = &self.cold_reports {
                        if cold[i] != behaviour {
                            failures.push(format!("{}: warm report differs from cold", e.id));
                        }
                    }
                    reports.push(behaviour);
                }
            }
            reports.resize(i + 1, String::new());
            runs.push(run);
        }
        yard.push(self.yardstick.sample());
        spans.exit();
        let ops = runs.iter().map(|r| (r.id.to_string(), r.secs)).collect();
        if cold {
            self.cold_reports = Some(reports);
            self.cold = runs;
        } else if traced {
            self.warm = runs;
        }
        PassOutcome {
            attempted: self.experiments.len() as u64,
            failures,
            digest: digest.hex(),
            ops,
            yard,
        }
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>) -> Vec<LayerValue> {
        let mut out: Vec<LayerValue> = Vec::new();
        let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

        let campaigns = |runs: &[ExperimentRun], tune: bool| -> (f64, f64, f64) {
            let mut sums = (0.0, 0.0, 0.0);
            for c in runs.iter().flat_map(|r| &r.campaigns) {
                if !tune || c.name.starts_with("tune") {
                    sums.0 += c.total as f64;
                    sums.1 += c.executed as f64;
                    sums.2 += c.cached as f64;
                }
            }
            sums
        };
        let (total_cold, executed_cold, _) = campaigns(&self.cold, false);
        let (total_warm, _, cached_warm) = campaigns(&self.warm, false);
        put("runner.jobs_total", total_cold);
        put("runner.jobs_executed.cold", executed_cold);
        put(
            "runner.cache.hit_share.warm",
            cached_warm / total_warm.max(1.0),
        );
        // Replay time: warm experiments that went through the runner and
        // found every job cached.
        let replayed = |r: &&ExperimentRun| {
            !r.campaigns.is_empty() && r.campaigns.iter().all(|c| c.cached == c.total)
        };
        put(
            "runner.replay_s",
            self.warm.iter().filter(replayed).map(|r| r.secs).sum(),
        );
        if self.experiments.iter().any(|e| e.id == "tune") {
            let (tune_total, _, _) = campaigns(&self.cold, true);
            let (tune_warm, _, tune_cached) = campaigns(&self.warm, true);
            put("tune.jobs", tune_total);
            put(
                "tune.cache_hit_share.warm",
                tune_cached / tune_warm.max(1.0),
            );
        }

        let warm_total: f64 = self.warm.iter().map(|r| r.secs).sum();
        let still_simulating: f64 = self
            .warm
            .iter()
            .filter(|r| r.events > 0)
            .map(|r| r.secs)
            .sum();
        put(
            "bench.warm.uncached_share",
            still_simulating / warm_total.max(f64::MIN_POSITIVE),
        );
        let by_id = |runs: &[ExperimentRun]| -> BTreeMap<&'static str, f64> {
            runs.iter().map(|r| (r.id, r.secs)).collect()
        };
        let (cold, warm) = (by_id(&self.cold), by_id(&self.warm));
        // Only ids BENCHMARK.json names: an experiment added to the
        // registry later still runs and still counts towards `wall_s`.
        for id in EXPERIMENT_IDS {
            if let (Some(c), Some(w)) = (cold.get(id), warm.get(id)) {
                put(&format!("bench.experiment.{id}.cold_s"), *c);
                put(&format!("bench.experiment.{id}.warm_s"), *w);
            }
        }

        if POOL_IDS
            .iter()
            .all(|id| self.experiments.iter().any(|e| e.id == *id))
        {
            if let Ok(speedup) = self.pool_speedup(ctx.scratch) {
                put("runner.pool.speedup_jobs2", speedup);
            }
        }
        out.extend(probes::campaign_probes(ctx.scratch));
        out
    }
}

impl CampaignReplay {
    /// Cold wall time of [`POOL_IDS`] at one worker over two workers, each
    /// in a fresh results directory. The one place the benchmark starts
    /// threads; the results directory is restored afterwards.
    fn pool_speedup(&self, scratch: &Path) -> io::Result<f64> {
        let mut secs = [0.0f64; 2];
        for (slot, jobs) in [1usize, 2].into_iter().enumerate() {
            fresh_results_dir(&scratch.join(format!("pool-jobs{jobs}")))?;
            let cfg = RunCfg { jobs, ..self.cfg };
            let t0 = Instant::now();
            for e in self.experiments.iter().filter(|e| POOL_IDS.contains(&e.id)) {
                let run = e.run;
                if catch_unwind(move || run(cfg)).is_err() {
                    return Err(io::Error::other(format!("{} panicked", e.id)));
                }
            }
            secs[slot] = t0.elapsed().as_secs_f64();
        }
        std::env::set_var("PROTEUS_RESULTS_DIR", &self.results_dir);
        Ok(secs[0] / secs[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_lines_are_masked_and_nothing_else() {
        let cold = "best: d=1500\njobs: 176 executed, 14 cached, 0 skipped\nharm 0.03";
        let warm = "best: d=1500\njobs: 0 executed, 190 cached, 0 skipped\nharm 0.03";
        assert_eq!(behaviour_of(cold), behaviour_of(warm));
        assert_ne!(behaviour_of(cold), behaviour_of("best: d=1400\nharm 0.03"));
    }

    #[test]
    fn smoke_and_pool_ids_exist() {
        for id in SMOKE_IDS.iter().chain(&POOL_IDS) {
            assert!(EXPERIMENT_IDS.contains(id), "unknown experiment {id}");
        }
    }
}
