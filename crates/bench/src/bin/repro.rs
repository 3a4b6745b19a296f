//! Regenerates the paper's figures/tables from the simulation.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--shard I/N] [--no-cache]
//!       [--trace] [--trace-out DIR] <id>... | all | list | trace-summary
//! ```
//!
//! `--jobs N` runs each experiment's simulation campaign on `N` worker
//! threads (`0` = one per core); results are identical to `--jobs 1`.
//! `--shard I/N` (1-based, e.g. `--shard 2/4`) executes only the cache-miss
//! jobs whose content hash falls in shard `I` of `N`; out-of-shard misses
//! are skipped, so N invocations — one per shard, sharing or later merging
//! `results/.cache/` — split a cold campaign across machines. Sharded
//! reports contain placeholder zeros for skipped cells: after all shards
//! finish, re-run without `--shard` for complete reports (pure cache
//! replay).
//! `--no-cache` bypasses the disk result cache under `results/.cache/`.
//! Only a full-fidelity run at the default seed writes `results/` — the
//! committed reports. `--quick` and `--seed N` (N ≠ 1) runs write reports,
//! cache and traces under `target/repro-scratch/` instead and say so on
//! stderr; `$PROTEUS_RESULTS_DIR`, when set, overrides both.
//! A campaign invariant that fails (`stress`, `scale`, `topology`, `rtc`) is
//! listed on stderr and makes the exit status 1 — except under `--shard`,
//! where skipped cells are placeholders, not measurements.
//! `--trace` traces every cell: per-flow telemetry JSONL under
//! `results/trace/`, and structured decision traces (MI closes, mode
//! switches, filter verdicts — see `OBSERVABILITY.md`) as JSONL and as a
//! Chrome trace under `results/trace-mi/` (or `--trace-out DIR`). The
//! pseudo-experiment `trace-summary` aggregates previously recorded
//! decision traces instead of running simulations.

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use proteus_bench::experiments::registry;
use proteus_bench::invariants::take_session_failures;
use proteus_bench::{mi_trace, RunCfg};

const USAGE: &str = "usage: repro [--quick] [--seed N] [--jobs N] [--shard I/N] [--no-cache] \
     [--trace] [--trace-out DIR] <id>... | all | list | trace-summary";

/// Parses `--shard I/N` (1-based shard `I` of `N`) into the 0-based
/// `(index, count)` the campaign layer expects.
fn parse_shard(v: &str) -> Result<(u32, u32), String> {
    let err = || format!("--shard requires I/N with 1 <= I <= N, got {v:?}");
    let (i, n) = v.split_once('/').ok_or_else(err)?;
    let i: u32 = i.trim().parse().map_err(|_| err())?;
    let n: u32 = n.trim().parse().map_err(|_| err())?;
    if i == 0 || n == 0 || i > n {
        return Err(err());
    }
    Ok((i - 1, n))
}

/// Parses the command line into the run configuration (defaults
/// [`RunCfg::full`]) and the experiment ids, and installs the last
/// `--trace-out` directory.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(RunCfg, Vec<String>), String> {
    let mut cfg = RunCfg::full();
    let mut ids = Vec::new();
    let mut trace_out = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cfg.quick = true,
            "--no-cache" => cfg.cache = false,
            "--trace" => cfg.trace = true,
            "--trace-out" => {
                trace_out = Some(args.next().ok_or("--trace-out requires a value")?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed requires a value")?;
                cfg.seed = v
                    .parse()
                    .map_err(|_| format!("--seed requires a number, got {v:?}"))?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a value")?;
                cfg.jobs = v
                    .parse()
                    .map_err(|_| format!("--jobs requires a number, got {v:?}"))?;
            }
            "--shard" => {
                let v = args.next().ok_or("--shard requires a value (I/N)")?;
                cfg.shard = Some(parse_shard(&v)?);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            other => ids.push(other.to_string()),
        }
    }
    if let Some(dir) = trace_out {
        mi_trace::set_mi_trace_dir(dir);
    }
    Ok((cfg, ids))
}

/// Where a run that must not touch the committed `results/` writes
/// instead: a `--quick` or non-default-seed run whose caller did not pick
/// a directory through `$PROTEUS_RESULTS_DIR`.
fn scratch_results_dir(cfg: &RunCfg) -> Option<PathBuf> {
    let chosen = env::var_os("PROTEUS_RESULTS_DIR").is_some_and(|d| !d.is_empty());
    let full_fidelity = !cfg.quick && cfg.seed == 1;
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2)?;
    (!chosen && !full_fidelity).then(|| workspace.join("target/repro-scratch"))
}

fn main() -> ExitCode {
    let (cfg, ids) = match parse_args(env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = scratch_results_dir(&cfg) {
        eprintln!(
            "not a full default-seed run: writing under {} instead of results/ \
             (set PROTEUS_RESULTS_DIR to choose)",
            dir.display()
        );
        env::set_var("PROTEUS_RESULTS_DIR", dir);
    }

    let experiments = registry();
    if ids.is_empty() || ids.iter().any(|i| i == "list") {
        eprintln!("{USAGE}");
        eprintln!("experiments:");
        for e in &experiments {
            eprintln!("  {:8}  {}", e.id, e.description);
        }
        return ExitCode::from(if ids.is_empty() { 2 } else { 0 });
    }

    let run_all = ids.iter().any(|i| i == "all");
    let trace_summary = ids.iter().any(|i| i == "trace-summary");
    if let Some((index, count)) = cfg.shard {
        eprintln!(
            "shard {}/{count}: skipping out-of-shard cache misses; re-run unsharded after all \
             shards for complete reports",
            index + 1
        );
    }

    let mut unknown = Vec::new();
    for id in &ids {
        if id != "all" && id != "trace-summary" && !experiments.iter().any(|e| e.id == id) {
            unknown.push(id.clone());
        }
    }
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {}", unknown.join(", "));
        return ExitCode::from(2);
    }

    proteus_runner::take_session_stats(); // discard anything pre-run
    proteus_netsim::take_session_event_totals(); // same for engine totals
    take_session_failures(); // and for invariant verdicts
    let mut timings: Vec<ExperimentTiming> = Vec::new();
    for e in &experiments {
        if run_all || ids.iter().any(|i| i == e.id) {
            eprintln!("=== {} — {} ===", e.id, e.description);
            let t0 = Instant::now();
            let report = (e.run)(cfg);
            println!("{report}");
            let secs = t0.elapsed().as_secs_f64();
            // Drained per experiment: everything since the last drain is
            // this experiment's engine traffic (cached cells run no sims
            // and naturally report zero events).
            let events = proteus_netsim::take_session_event_totals();
            timings.push(ExperimentTiming {
                id: e.id,
                secs,
                events,
            });
            eprintln!("=== {} done in {:.1}s ===\n", e.id, secs);
        }
    }

    if trace_summary {
        // After any requested experiments, so `repro --trace fig6
        // trace-summary` aggregates the traces it just recorded.
        print!("{}", mi_trace::summary_report());
    }

    print_run_summary(&timings, &proteus_runner::take_session_stats());
    let failures = take_session_failures();
    let status = exit_status(&failures, cfg.shard.is_some());
    if status != 0 {
        eprintln!("invariants FAILED: {}", failures.join(", "));
    }
    ExitCode::from(status)
}

/// The exit status after every requested experiment ran: 1 when a campaign
/// invariant failed on real measurements. A sharded run judges placeholder
/// zeros for its out-of-shard cells, so its verdicts do not count.
fn exit_status(invariant_failures: &[String], sharded: bool) -> u8 {
    u8::from(!sharded && !invariant_failures.is_empty())
}

/// Wall time plus engine event totals for one experiment.
struct ExperimentTiming {
    id: &'static str,
    secs: f64,
    events: proteus_netsim::SessionEventTotals,
}

/// End-of-run accounting: per-experiment wall time with engine event
/// throughput and the fused-path share, then per-campaign cache hit/miss
/// counts aggregated over the whole invocation.
fn print_run_summary(timings: &[ExperimentTiming], campaigns: &[proteus_runner::CampaignStats]) {
    if timings.len() > 1 {
        eprintln!("=== wall time by experiment ===");
        for t in timings {
            let (evps, fused) = if t.events.dispatched > 0 && t.secs > 0.0 {
                (
                    format!("{:9.2}M ev/s", t.events.dispatched as f64 / t.secs / 1e6),
                    format!(
                        "{:5.1}% fused",
                        100.0 * t.events.fused as f64 / t.events.dispatched as f64
                    ),
                )
            } else {
                // Fully cached (or sim-free) experiment: no engine events.
                (format!("{:>14}", "—"), format!("{:>11}", "—"))
            };
            eprintln!("  {:8} {:6.1}s  {evps}  {fused}", t.id, t.secs);
        }
        let total: f64 = timings.iter().map(|t| t.secs).sum();
        eprintln!("  {:8} {total:6.1}s", "total");
    }
    if !campaigns.is_empty() {
        eprintln!("=== cache by campaign ===");
        for s in campaigns {
            let skipped = if s.skipped > 0 {
                format!(", {} skipped (shard)", s.skipped)
            } else {
                String::new()
            };
            eprintln!(
                "  {:8} {} job(s): {} cached, {} executed{skipped} ({:.1}s)",
                s.name, s.total, s.cached, s.executed, s.wall_secs
            );
        }
        let (total, cached, executed): (usize, usize, usize) =
            campaigns.iter().fold((0, 0, 0), |(t, c, e), s| {
                (t + s.total, c + s.cached, e + s.executed)
            });
        eprintln!(
            "  {:8} {total} job(s): {cached} cached, {executed} executed",
            "total"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing() {
        assert_eq!(parse_shard("1/4"), Ok((0, 4)));
        assert_eq!(parse_shard("4/4"), Ok((3, 4)));
        assert_eq!(parse_shard("1/1"), Ok((0, 1)));
        for bad in ["0/4", "5/4", "4", "a/b", "1/0", "/", ""] {
            assert!(parse_shard(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn failed_invariants_fail_the_run_unless_sharded() {
        let failed = ["stress/flap/CUBIC/progress".to_string()];
        assert_eq!(exit_status(&[], false), 0);
        assert_eq!(exit_status(&failed, false), 1);
        assert_eq!(exit_status(&failed, true), 0);
        assert_eq!(exit_status(&[], true), 0);
    }

    #[test]
    fn cli_accepts_shard_flag() {
        let (cfg, ids) = parse_args(
            ["--quick", "--shard", "2/3", "tune"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.shard, Some((1, 3)));
        assert!(cfg.quick);
        assert_eq!(cfg.trials(), 1);
        assert_eq!(ids, ["tune"]);
        assert!(parse_args(["--shard", "9"].into_iter().map(String::from)).is_err());
    }
}
