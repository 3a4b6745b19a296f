//! `repro tune`: the offline parameter-search and utility-ablation harness
//! over the deterministic evaluator.
//!
//! The paper hand-picks its controller constants (the scavenger penalty
//! `d = 1500`, the §5 gate gains G1/G2, the trend window, the probing
//! ε/ω-step) and motivates its utility shape by argument. The tuner turns
//! both into a searchable space — Proteus-S, a loss-only ablation, a
//! delay-budget scavenger, Proteus-H — and asks which configuration best
//! satisfies `maximize scav_util subject to harm < 0.05`. Quick mode runs a
//! 64-cell grid plus 2 genetic generations on two short scenarios; full
//! mode a 216-cell grid plus 6 generations including a BBR primary.
//!
//! The pipeline, one crate module per step:
//!
//! 1. [`crate::space`] — the [`Candidate`](crate::space::Candidate) genome
//!    with its gene bounds and deterministic operators;
//! 2. [`crate::scenarios`] — the fixed primary/scavenger cells candidates
//!    are scored on;
//! 3. [`crate::eval`] — batch evaluation as campaign jobs (content-hashed,
//!    cached, shard-filtered) scored against the one objective;
//! 4. [`crate::search`] — grid sweep + seeded genetic refinement, same seed
//!    ⇒ byte-identical leaderboard at any worker count;
//! 5. [`crate::report`] — `leaderboard.csv`, `frontier.csv`,
//!    `best_config.json` and the text report.
//!
//! Artifacts land in `results/tune/`. Every simulation goes through the
//! shared campaign cache, so re-runs are cache replays and `--shard i/n`
//! can split the grid's cold cost across machines (the genetic phase only
//! runs unsharded; see EXPERIMENTS.md §Tuning).

use crate::report::{results_dir, write_tune_report};
use crate::search::{full_spec, quick_spec, run_search};
use crate::RunCfg;

/// Entry point for `repro tune`: runs the quick or full search, writes its
/// artifacts under `results/tune/` and returns the text report.
pub fn run_experiment(cfg: RunCfg) -> String {
    let spec = if cfg.quick {
        quick_spec(cfg.seed)
    } else {
        full_spec(cfg.seed)
    };
    let outcome = run_search(&spec, cfg);
    write_tune_report(&results_dir().join("tune"), &spec, &outcome)
}
