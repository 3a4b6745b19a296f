//! Decision-trace ("MI trace") export plumbing for `--trace-mi`.
//!
//! Telemetry traces (`--trace`, see [`crate::jobs::TraceSink`]) sample
//! *state* every 100 ms; decision traces record the discrete *decisions*
//! the controllers make — MI closes with the full utility breakdown, rate
//! transitions, probe outcomes, §4.4 mode switches and §5 filter verdicts
//! (see `proteus-trace` and `OBSERVABILITY.md`). This module decides where
//! those exports land and writes them in the formats the CLI selected.
//!
//! Files go under [`mi_trace_dir`] — `results/trace-mi/` by default,
//! `$PROTEUS_TRACE_DIR` or `--trace-out DIR` when set — as
//! `<exp>/<run>.jsonl` (one event per line) and `<exp>/<run>.trace.json`
//! (Chrome `trace_event`, loadable in Perfetto).

use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

use proteus_netsim::SimResult;
use proteus_trace::export::{to_chrome_trace, to_jsonl};
use proteus_trace::TraceSummary;

use crate::report::{results_dir, Table};

/// Environment variable overriding the decision-trace output directory
/// (the `--trace-out` flag sets the same override in-process).
pub const TRACE_DIR_ENV: &str = "PROTEUS_TRACE_DIR";

/// Capacity of each per-flow decision ring. Proteus closes one MI every
/// 1–2 RTTs and the engine drains rings every 100 ms on traced runs, so a
/// few events per drain is typical; 4096 keeps minutes of history even if
/// draining stalls, while costing ~0.6 MB per flow up front.
pub const MI_RING_CAPACITY: usize = 4096;

/// Export format(s) for decision traces (`--trace-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// JSONL only (`<run>.jsonl`).
    Jsonl,
    /// Chrome `trace_event` only (`<run>.trace.json`).
    Chrome,
    /// Both files (the default).
    #[default]
    Both,
}

impl TraceFormat {
    /// Parses a `--trace-format` value (`jsonl`, `chrome`, or `both`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "jsonl" => Some(Self::Jsonl),
            "chrome" => Some(Self::Chrome),
            "both" => Some(Self::Both),
            _ => None,
        }
    }

    /// Stable tag used in cache descriptors and `--trace-format` values.
    pub fn tag(self) -> &'static str {
        match self {
            Self::Jsonl => "jsonl",
            Self::Chrome => "chrome",
            Self::Both => "both",
        }
    }

    /// Whether the JSONL file is written.
    pub fn jsonl(self) -> bool {
        matches!(self, Self::Jsonl | Self::Both)
    }

    /// Whether the Chrome-trace file is written.
    pub fn chrome(self) -> bool {
        matches!(self, Self::Chrome | Self::Both)
    }
}

static DIR_OVERRIDE: OnceLock<PathBuf> = OnceLock::new();

/// Installs the `--trace-out` directory override for this process. Only the
/// first call wins (the CLI parses flags once).
pub fn set_mi_trace_dir(dir: impl Into<PathBuf>) {
    let _ = DIR_OVERRIDE.set(dir.into());
}

/// Where decision traces are written: the `--trace-out` override, else
/// `$PROTEUS_TRACE_DIR`, else `results/trace-mi/`.
pub fn mi_trace_dir() -> PathBuf {
    if let Some(dir) = DIR_OVERRIDE.get() {
        return dir.clone();
    }
    match std::env::var_os(TRACE_DIR_ENV) {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => results_dir().join("trace-mi"),
    }
}

/// Destination for one run's decision trace:
/// `<mi_trace_dir>/<exp>/<run>.jsonl` and/or `<run>.trace.json`.
#[derive(Debug, Clone)]
pub struct MiTraceSink {
    exp: String,
    run: String,
    format: TraceFormat,
}

impl MiTraceSink {
    /// Creates a sink; path components are sanitized for the filesystem.
    pub fn new(exp: impl Into<String>, run: impl Into<String>, format: TraceFormat) -> Self {
        let clean = |s: String| s.replace(['/', '\\', ' '], "_");
        Self {
            exp: clean(exp.into()),
            run: clean(run.into()),
            format,
        }
    }

    /// Path of the JSONL export.
    pub fn jsonl_path(&self) -> PathBuf {
        mi_trace_dir()
            .join(&self.exp)
            .join(format!("{}.jsonl", self.run))
    }

    /// Path of the Chrome `trace_event` export.
    pub fn chrome_path(&self) -> PathBuf {
        mi_trace_dir()
            .join(&self.exp)
            .join(format!("{}.trace.json", self.run))
    }

    /// Every file this sink writes, in a stable order — jobs declare these
    /// as cache artifacts (`SimJob::with_artifact`) so warm cache hits
    /// replay the stored traces instead of leaving the files stale or
    /// missing.
    pub fn paths(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        if self.format.jsonl() {
            out.push(self.jsonl_path());
        }
        if self.format.chrome() {
            out.push(self.chrome_path());
        }
        out
    }

    /// Writes the run's decision trace in the selected format(s). I/O
    /// errors are ignored: tracing must never fail an experiment.
    pub fn write(&self, res: &SimResult) {
        let names: Vec<&str> = res.flows.iter().map(|f| f.name.as_str()).collect();
        if self.format.jsonl() {
            let path = self.jsonl_path();
            if let Some(parent) = path.parent() {
                let _ = fs::create_dir_all(parent);
            }
            let _ = fs::write(path, to_jsonl(&res.decisions, &names));
        }
        if self.format.chrome() {
            let path = self.chrome_path();
            if let Some(parent) = path.parent() {
                let _ = fs::create_dir_all(parent);
            }
            let _ = fs::write(path, to_chrome_trace(&res.decisions, &names));
        }
    }
}

/// The `repro trace-summary` report: aggregates every JSONL decision trace
/// under [`mi_trace_dir`] into per-experiment mode-switch counts and §5
/// filter hit-rates.
pub fn summary_report() -> String {
    let dir = mi_trace_dir();
    let mut exps: Vec<(String, TraceSummary, usize)> = Vec::new();
    let entries = match fs::read_dir(&dir) {
        Ok(e) => e,
        Err(_) => {
            return format!(
                "no decision traces under {} — run an experiment with --trace-mi first\n",
                dir.display()
            );
        }
    };
    let mut subdirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    subdirs.sort();
    for sub in subdirs {
        let exp = sub
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut sum = TraceSummary::default();
        let mut files = 0usize;
        let mut traces: Vec<PathBuf> = fs::read_dir(&sub)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
            .collect();
        traces.sort();
        for path in traces {
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            files += 1;
            for line in text.lines() {
                sum.scan_jsonl_line(line);
            }
        }
        if files > 0 {
            exps.push((exp, sum, files));
        }
    }
    if exps.is_empty() {
        return format!(
            "no decision traces under {} — run an experiment with --trace-mi first\n",
            dir.display()
        );
    }

    let mut t = Table::new(
        format!("Decision-trace summary ({})", dir.display()),
        &[
            "experiment",
            "traces",
            "events",
            "mi_closes",
            "mode_sw",
            "implicit",
            "gate_hit%",
            "filter_ev",
            "probes",
            "decided%",
            "faults",
        ],
    );
    let pct = |x: f64| {
        if x.is_nan() {
            "-".to_string()
        } else {
            format!("{:.1}", x * 100.0)
        }
    };
    let mut total = TraceSummary::default();
    let mut total_files = 0usize;
    for (exp, s, files) in &exps {
        total.merge(s);
        total_files += files;
        t.row(vec![
            exp.clone(),
            files.to_string(),
            s.events.to_string(),
            s.mi_closes.to_string(),
            s.mode_switches.to_string(),
            s.implicit_mode_switches.to_string(),
            pct(s.gate_hit_rate()),
            s.ack_filter_events.to_string(),
            s.probe_outcomes.to_string(),
            pct(s.probe_decision_rate()),
            s.fault_events.to_string(),
        ]);
    }
    if exps.len() > 1 {
        t.row(vec![
            "total".into(),
            total_files.to_string(),
            total.events.to_string(),
            total.mi_closes.to_string(),
            total.mode_switches.to_string(),
            total.implicit_mode_switches.to_string(),
            pct(total.gate_hit_rate()),
            total.ack_filter_events.to_string(),
            total.probe_outcomes.to_string(),
            pct(total.probe_decision_rate()),
            total.fault_events.to_string(),
        ]);
    }
    format!("{}\n", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_parses_and_selects_files() {
        assert_eq!(TraceFormat::parse("jsonl"), Some(TraceFormat::Jsonl));
        assert_eq!(TraceFormat::parse("chrome"), Some(TraceFormat::Chrome));
        assert_eq!(TraceFormat::parse("both"), Some(TraceFormat::Both));
        assert_eq!(TraceFormat::parse("xml"), None);
        assert!(TraceFormat::Jsonl.jsonl() && !TraceFormat::Jsonl.chrome());
        assert!(!TraceFormat::Chrome.jsonl() && TraceFormat::Chrome.chrome());
        assert!(TraceFormat::Both.jsonl() && TraceFormat::Both.chrome());
        for f in [TraceFormat::Jsonl, TraceFormat::Chrome, TraceFormat::Both] {
            assert_eq!(TraceFormat::parse(f.tag()), Some(f));
        }
    }

    #[test]
    fn sink_paths_follow_format() {
        let s = MiTraceSink::new("fig6", "pair a/b", TraceFormat::Both);
        let paths = s.paths();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].ends_with("fig6/pair_a_b.jsonl"));
        assert!(paths[1].ends_with("fig6/pair_a_b.trace.json"));
        assert_eq!(
            MiTraceSink::new("x", "r", TraceFormat::Jsonl).paths().len(),
            1
        );
    }
}
