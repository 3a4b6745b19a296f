//! `proteus-benchmark`: the repository's benchmark.
//!
//! Four workloads, three end-to-end metrics, and per-crate attribution
//! measured from outside the crates — every crate is driven through its
//! public API only, from one thread, as a closed batch. See `README.md`
//! for why each workload exists and how the metrics map onto layers.

pub mod alloc;
pub mod cells;
pub mod compare;
pub mod decorate;
pub mod inputs;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod yardstick;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use run::RunArgs;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Clean single-link cells the engine fuses.
    CleanDumbbell,
    /// Faulted, noisy and multi-hop cells the engine runs staged.
    ImpairedMultihop,
    /// Thousands of thin, churning flows.
    ChurnPopulation,
    /// The experiment registry, cold then warm.
    CampaignReplay,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::CleanDumbbell,
        Kind::ImpairedMultihop,
        Kind::ChurnPopulation,
        Kind::CampaignReplay,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CleanDumbbell => "clean_dumbbell",
            Kind::ImpairedMultihop => "impaired_multihop",
            Kind::ChurnPopulation => "churn_population",
            Kind::CampaignReplay => "campaign_replay",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Timed seconds per run when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json` carries the same number.
pub const DEFAULT_SECONDS: u64 = 15;

/// Name of the sibling binary that carries the counting allocator.
const TRACED_BIN: &str = "proteus-benchmark-traced";

const USAGE: &str = "usage:
  proteus-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--out DIR]
      Runs one workload in this process and prints its metrics; the last line
      of standard output is the result object. Without --workload, runs all
      four (untraced, then traced), one process each, and prints every metric.
  proteus-benchmark compare <dirA> <dirB>
      Compares two --out directories; exits 1 if any metric is worse.
  proteus-benchmark list
      Prints every metric name and unit.
workloads: clean_dumbbell impaired_multihop churn_population campaign_replay";

enum Cli {
    Run {
        kind: Option<Kind>,
        seed: u64,
        seconds: u64,
        trace: Option<bool>,
        smoke: bool,
        out: PathBuf,
    },
    Compare(PathBuf, PathBuf),
    List,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            return match &args[1..] {
                [a, b] => Ok(Cli::Compare(a.into(), b.into())),
                _ => Err("compare takes two directories".into()),
            }
        }
        Some("list") if args.len() == 1 => return Ok(Cli::List),
        _ => {}
    }
    let (mut kind, mut trace, mut smoke) = (None, None, false);
    let (mut seed, mut seconds) = (inputs::DEFAULT_SEED, DEFAULT_SECONDS);
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed requires a number, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse() {
                    Ok(s) if (1..=60).contains(&s) => s,
                    _ => return Err(format!("--seconds requires 1..=60, got {v:?}")),
                };
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace requires 0 or 1, got {v:?}")),
                });
            }
            "--smoke" => smoke = true,
            "--out" => out = value()?.into(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Cli::Run {
        kind,
        seed,
        seconds,
        trace,
        smoke,
        out,
    })
}

/// The traced sibling of the running binary.
fn traced_sibling() -> std::io::Result<PathBuf> {
    Ok(std::env::current_exe()?.with_file_name(TRACED_BIN))
}

/// Runs `exe` with `args` on this process's standard streams, waits for
/// it, and reports whether it succeeded.
fn run_child(exe: &Path, args: &[String]) -> std::io::Result<bool> {
    Ok(Command::new(exe).args(args).status()?.success())
}

/// Entry point of both binaries; `counts_allocations` says whether this one
/// installed the counting allocator.
pub fn main_entry(counts_allocations: bool) -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli {
        Cli::List => {
            for e in metrics::END_TO_END {
                println!(
                    "{:<44} {:<6} end-to-end, lower is better, bound {:.0} %",
                    e.name,
                    e.unit,
                    e.bound * 100.0
                );
            }
            for l in metrics::per_layer() {
                let on: Vec<&str> = l.on.iter().map(|k| k.name()).collect();
                println!(
                    "{:<44} {:<6} per-layer, {} is better, on {}",
                    l.name,
                    l.unit,
                    l.better.word(),
                    on.join(" ")
                );
            }
            Ok(true)
        }
        Cli::Compare(a, b) => compare::compare(&a, &b).map(|report| {
            print!("{}", report.text);
            !report.any_worse
        }),
        Cli::Run {
            kind: None,
            seed,
            seconds,
            smoke,
            out,
            ..
        } => run_all(seed, seconds, smoke, &out),
        Cli::Run {
            kind: Some(kind),
            seed,
            seconds,
            trace,
            smoke,
            out,
        } => {
            let traced = trace.unwrap_or(false);
            if traced && !counts_allocations {
                // Layer metrics need the counting allocator: hand over to
                // the sibling binary, same arguments, and wait for it.
                traced_sibling().and_then(|exe| run_child(&exe, &args))
            } else {
                std::fs::create_dir_all(&out)
                    .and_then(|()| {
                        run::run(&RunArgs {
                            kind,
                            seed,
                            seconds,
                            traced,
                            smoke,
                            out,
                            started,
                        })
                    })
                    .map(|report| {
                        print!("{}", report.table());
                        println!("{}", report.driver_line());
                        report.correct()
                    })
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs every workload untraced and then traced, each in a process of its
/// own so `peak_rss_mib` is that workload's alone. Each child prints its
/// metrics and leaves its result files in `out`.
fn run_all(seed: u64, seconds: u64, smoke: bool, out: &Path) -> std::io::Result<bool> {
    let plain = std::env::current_exe()?;
    let traced = traced_sibling()?;
    let mut all_correct = true;
    for kind in Kind::ALL {
        for (exe, trace) in [(&plain, "0"), (&traced, "1")] {
            let mut args: Vec<String> = [
                "--workload",
                kind.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                trace,
                "--out",
            ]
            .map(String::from)
            .to_vec();
            args.push(out.display().to_string());
            if smoke {
                args.push("--smoke".into());
            }
            all_correct &= run_child(exe, &args)?;
        }
    }
    Ok(all_correct)
}
