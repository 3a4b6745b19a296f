//! One workload, one process: set-up, timed passes, and — in the traced
//! build — the traced passes and layer metrics. Also the report a run
//! leaves behind.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{self, Obj};
use crate::metrics::{self, EndToEnd, PEAK_RSS_MIB, SETUP_S, WALL_S};
use crate::spans::Spans;
use crate::stats::{median, quartiles};
use crate::workloads::{self, LayerCtx, LayerValue, PassOutcome, Workload};
use crate::{yardstick, Kind};

/// Passes of a `--smoke` run: enough to hold two digests equal.
const SMOKE_REPS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to keep timing passes for (`run_seconds` in BENCHMARK.json).
    pub seconds: u64,
    /// Collect per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
    /// Directory for result files and the scratch directory.
    pub out: PathBuf,
    /// When the process started.
    pub started: Instant,
}

/// The samples behind one end-to-end metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The metric.
    pub def: EndToEnd,
    /// Every sample taken; the reported value is their median.
    pub samples: Vec<f64>,
}

impl Measured {
    /// The reported value.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Operations run, over every pass.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Digest of the first pass (every pass must match it).
    pub digest: String,
    /// End-to-end metrics (untraced run only).
    pub end_to_end: Vec<Measured>,
    /// Operation names, and each timed pass's wall seconds per operation:
    /// where inside a pass the time went.
    pub operations: Vec<String>,
    /// See [`Report::operations`].
    pub op_secs: Vec<Vec<f64>>,
    /// Raw seconds and host slowdown of each timed pass (untraced run), or
    /// of every pass (traced run).
    pub timings: Vec<PassTiming>,
    /// Layer metrics the workload exercises (traced run only).
    pub per_layer: Vec<LayerValue>,
}

/// The per-process scratch directory: created before anything else runs,
/// removed when the run ends, however it ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out: &Path) -> io::Result<Self> {
        let dir = out.join(format!("scratch-{}", std::process::id()));
        if dir.exists() {
            fs::remove_dir_all(&dir)?;
        }
        fs::create_dir_all(&dir)?;
        // Even workloads that write nothing get the redirect: a quick-mode
        // experiment must never reach the committed `results/`.
        std::env::set_var("PROTEUS_RESULTS_DIR", dir.join("results"));
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process, MiB (`VmHWM` in `/proc/self/status`).
fn peak_rss_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Folds passes into the operation counts and holds every digest to the
/// first one.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digest: Option<String>,
    operations: Vec<String>,
    op_secs: Vec<Vec<f64>>,
    timings: Vec<PassTiming>,
}

impl Tally {
    fn add(&mut self, label: &str, pass: PassOutcome, elapsed_s: f64) -> PassTiming {
        let (names, secs): (Vec<String>, Vec<f64>) = pass.ops.into_iter().unzip();
        let timing = PassTiming {
            elapsed_s,
            yard_s: pass.yard.iter().sum(),
            slowdown: yardstick::slowdown(&secs, &pass.yard),
        };
        self.timings.push(timing);
        self.operations = names;
        self.op_secs.push(secs);
        self.attempted += pass.attempted;
        self.failed += pass.failures.len() as u64;
        self.failures
            .extend(pass.failures.iter().map(|f| format!("{label}: {f}")));
        match &self.digest {
            None => self.digest = Some(pass.digest),
            Some(first) if *first != pass.digest => {
                // Which operation diverged is unknown: all of them count.
                self.failed += pass.attempted - pass.failures.len() as u64;
                self.failures.push(format!(
                    "{label}: digest {} differs from the first pass's {first}",
                    pass.digest
                ));
            }
            Some(_) => {}
        }
        timing
    }
}

/// How long one pass took, and how disturbed the host was meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct PassTiming {
    /// Wall seconds of the pass, yardstick samples included.
    pub elapsed_s: f64,
    /// Seconds of those that went to yardstick samples.
    pub yard_s: f64,
    /// How many times slower than its quiet self the host ran
    /// ([`yardstick::slowdown`]).
    pub slowdown: f64,
}

impl PassTiming {
    /// Wall seconds the pass's own work took.
    pub fn raw_s(&self) -> f64 {
        self.elapsed_s - self.yard_s
    }

    /// Wall seconds that work would have taken on the undisturbed host.
    pub fn corrected_s(&self) -> f64 {
        self.raw_s() / self.slowdown
    }
}

/// Calls `pass` with the pass number until `secs` seconds have gone by and
/// at least `min` passes are done; returns what each call returned. A pass
/// is fixed work, so the clock only decides how many of them a run times —
/// never what one of them does.
fn passes_for(secs: f64, min: usize, mut pass: impl FnMut(usize) -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || t0.elapsed().as_secs_f64() < secs {
        walls.push(pass(walls.len() + 1));
    }
    walls
}

/// Runs one pass under a `rep` span.
fn timed_pass(
    workload: &mut dyn Workload,
    traced: bool,
    spans: &mut Spans,
    tally: &mut Tally,
    label: &str,
) -> PassTiming {
    spans.enter("rep");
    let t0 = Instant::now();
    let pass = workload.pass(traced, spans);
    let elapsed_s = t0.elapsed().as_secs_f64();
    spans.exit();
    tally.add(label, pass, elapsed_s)
}

/// Runs the workload `args` names in this process.
pub fn run(args: &RunArgs) -> io::Result<Report> {
    let scratch = Scratch::create(&args.out)?;
    let mut workload = workloads::build(args.kind, args.seed, args.smoke);
    // A smoke run ignores the clock: its pass count must not depend on the host.
    let (secs, min_reps) = if args.smoke {
        (0.0, SMOKE_REPS)
    } else {
        (args.seconds as f64, workload.min_reps())
    };
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();

    // Set-up: inputs, scratch state and the untimed first pass. Only the
    // first sample can include process start-up; the median drops it.
    let setup_reps = if args.traced || args.smoke {
        1
    } else {
        workload.setup_reps()
    };
    let mut setup_samples = Vec::new();
    for i in 0..setup_reps {
        let t0 = if i == 0 { args.started } else { Instant::now() };
        workload.prepare(&scratch.0)?;
        let trace_it = args.traced && workload.first_pass_is_measured();
        spans.set_enabled(trace_it);
        let pass = timed_pass(
            workload.as_mut(),
            trace_it,
            &mut spans,
            &mut tally,
            "set-up",
        );
        spans.set_enabled(false);
        // Everything since `t0` but the pass itself is start-up and input
        // generation; it is corrected by the slowdown the pass saw.
        let before_pass_s = t0.elapsed().as_secs_f64() - pass.elapsed_s;
        setup_samples.push(pass.corrected_s() + before_pass_s / pass.slowdown);
    }

    let (end_to_end, per_layer) = if !args.traced {
        // Keep the timed passes only.
        tally.op_secs.clear();
        tally.timings.clear();
        let walls = passes_for(secs, min_reps, |i| {
            let label = format!("pass {i}");
            timed_pass(workload.as_mut(), false, &mut spans, &mut tally, &label).corrected_s()
        });
        let measured = |def, samples| Measured { def, samples };
        let end_to_end = vec![
            measured(WALL_S, walls),
            measured(PEAK_RSS_MIB, vec![peak_rss_mib()?]),
            measured(SETUP_S, setup_samples),
        ];
        (end_to_end, Vec::new())
    } else {
        // Half the time untraced, for the wall time the overhead and the
        // per-packet rates are taken against; half traced.
        let min_each = (min_reps / 2).max(1);
        let untraced = passes_for(secs / 2.0, min_each, |i| {
            let label = format!("untraced pass {i}");
            timed_pass(workload.as_mut(), false, &mut spans, &mut tally, &label).corrected_s()
        });
        spans.set_enabled(true);
        let traced = passes_for(secs / 2.0, min_each, |i| {
            let label = format!("traced pass {i}");
            timed_pass(workload.as_mut(), true, &mut spans, &mut tally, &label).corrected_s()
        });
        spans.set_enabled(false);
        let untraced_wall_s = median(&untraced);
        let mut per_layer = workload.layer_metrics(&LayerCtx {
            spans: &spans,
            traced_passes: traced.len(),
            untraced_wall_s,
            scratch: &scratch.0,
        });
        per_layer.push((
            "benchmark.trace_overhead_share".into(),
            median(&traced) / untraced_wall_s - 1.0,
        ));
        let slowdowns: Vec<f64> = tally.timings.iter().map(|t| t.slowdown).collect();
        per_layer.push(("benchmark.host_slowdown".into(), median(&slowdowns)));
        fs::write(
            args.out.join(format!("{}.trace.json", args.kind.name())),
            spans.to_json(args.kind.name()),
        )?;
        (Vec::new(), per_layer)
    };

    let report = Report {
        kind: args.kind,
        seed: args.seed,
        traced: args.traced,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        digest: tally.digest.unwrap_or_default(),
        end_to_end,
        operations: tally.operations,
        op_secs: tally.op_secs,
        timings: tally.timings,
        per_layer,
    };
    fs::write(args.out.join(report.file_name()), report.to_json())?;
    Ok(report)
}

impl Report {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result file this report is stored in, under the `--out`
    /// directory.
    pub fn file_name(&self) -> String {
        let suffix = if self.traced { ".layers" } else { "" };
        format!("{}{suffix}.json", self.kind.name())
    }

    /// The result file: everything measured, with the samples.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        o.str("workload", self.kind.name())
            .int("seed", self.seed)
            .bool("traced", self.traced)
            .int(
                "host_cores",
                std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            )
            .str("sim_digest", &self.digest)
            .bool("correct", self.correct())
            .int("attempted", self.attempted)
            .int("failed", self.failed);
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        o.raw("failures", &json::array(&failures));
        if !self.traced {
            let mut e2e = Obj::new();
            for m in &self.end_to_end {
                let [q1, q2, q3] = quartiles(&m.samples);
                let samples: Vec<String> = m.samples.iter().map(|&s| json::number(s)).collect();
                let mut entry = Obj::new();
                entry
                    .num("value", m.value())
                    .str("unit", m.def.unit)
                    .num("bound", m.def.bound)
                    .int("n", m.samples.len() as u64)
                    .num(
                        "min",
                        m.samples.iter().copied().fold(f64::INFINITY, f64::min),
                    )
                    .num("q1", q1)
                    .num("median", q2)
                    .num("q3", q3)
                    .num(
                        "max",
                        m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    )
                    .raw("samples", &json::array(&samples));
                e2e.raw(m.def.name, &entry.render());
            }
            o.raw("end_to_end", &e2e.render());
            let names: Vec<String> = self
                .operations
                .iter()
                .map(|n| format!("\"{}\"", json::escape(n)))
                .collect();
            let passes: Vec<String> = self
                .op_secs
                .iter()
                .map(|p| json::array(&p.iter().map(|&s| json::number(s)).collect::<Vec<_>>()))
                .collect();
            let column = |f: fn(&PassTiming) -> f64| {
                json::array(
                    &self
                        .timings
                        .iter()
                        .map(|t| json::number(f(t)))
                        .collect::<Vec<_>>(),
                )
            };
            o.raw("operations", &json::array(&names))
                .raw("op_secs", &json::array(&passes))
                .raw("pass_raw_s", &column(PassTiming::raw_s))
                .raw("pass_host_slowdown", &column(|t| t.slowdown));
        } else {
            o.raw("per_layer", &metrics_object(&self.layer_rows(false)));
        }
        o.render() + "\n"
    }

    /// `(name, value, unit)` of every layer metric, in registry order.
    /// With `pad`, metrics of layers this workload does not exercise are
    /// included as 0: the driver's protocol wants every `per_layer` name on
    /// every traced run, while the reports proper never zero-fill.
    fn layer_rows(&self, pad: bool) -> Vec<(String, f64, &'static str)> {
        metrics::per_layer()
            .into_iter()
            .filter_map(|def| {
                let measured = self
                    .per_layer
                    .iter()
                    .find(|(name, _)| *name == def.name)
                    .map(|(_, v)| *v);
                debug_assert!(
                    measured.is_none() || def.on.contains(&self.kind),
                    "{} emitted by {}",
                    def.name,
                    self.kind.name()
                );
                match measured {
                    Some(v) => Some((def.name, v, def.unit)),
                    None if pad => Some((def.name, 0.0, def.unit)),
                    None => None,
                }
            })
            .collect()
    }

    /// The driver's last line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let rows: Vec<(String, f64, &'static str)> = if self.traced {
            self.layer_rows(true)
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.def.name.to_string(), m.value(), m.def.unit))
                .collect()
        };
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("metrics", &metrics_object(&rows));
        o.render()
    }

    /// Every metric of this report by name, value and unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "## {} (seed {}, {}): {} of {} operations failed, sim_digest {}\n",
            self.kind.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.failed,
            self.attempted,
            self.digest
        );
        for f in &self.failures {
            out.push_str(&format!("FAILED {f}\n"));
        }
        for m in &self.end_to_end {
            let [q1, _, q3] = quartiles(&m.samples);
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<6} (n={}, q1 {:.6}, q3 {:.6}, bound {:.0} %)\n",
                m.def.name,
                m.value(),
                m.def.unit,
                m.samples.len(),
                q1,
                q3,
                m.def.bound * 100.0
            ));
        }
        if !self.traced {
            let column =
                |f: fn(&PassTiming) -> f64| median(&self.timings.iter().map(f).collect::<Vec<_>>());
            out.push_str(&format!(
                "(uncorrected, a timed pass took {:.6} s at a host slowdown of {:.3})\n",
                column(PassTiming::raw_s),
                column(|t| t.slowdown)
            ));
        }
        for (name, value, unit) in self.layer_rows(false) {
            out.push_str(&format!("{name:<44} {value:>16.6} {unit}\n"));
        }
        out
    }
}

fn metrics_object(rows: &[(String, f64, &'static str)]) -> String {
    let mut o = Obj::new();
    for (name, value, unit) in rows {
        let mut entry = Obj::new();
        entry.num("value", *value).str("unit", unit);
        o.raw(name, &entry.render());
    }
    o.render()
}
