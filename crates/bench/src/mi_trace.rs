//! Trace exports for `--trace`.
//!
//! A traced run (`Scenario::with_trace`) samples every flow's *state*
//! every 100 ms and records the discrete *decisions* the controllers make —
//! MI closes with the full utility breakdown, rate transitions, probe
//! outcomes, §4.4 mode switches and §5 filter verdicts (see `proteus-trace`
//! and `OBSERVABILITY.md`). [`TraceSink`] writes one run's three exports:
//! the decisions as `<exp>/<run>.jsonl` (one event per line) and
//! `<exp>/<run>.trace.json` (Chrome `trace_event`, loadable in Perfetto)
//! under [`mi_trace_dir`] — `results/trace-mi/` by default, `--trace-out
//! DIR` when given — and the telemetry as `results/trace/<exp>/<run>.jsonl`,
//! one sample per line.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proteus_netsim::SimResult;
use proteus_runner::json::Obj;
use proteus_runner::write_if_changed;
use proteus_trace::export::{to_chrome_trace, to_jsonl};
use proteus_trace::TraceSummary;

use crate::report::{results_dir, Table};

static DIR_OVERRIDE: OnceLock<PathBuf> = OnceLock::new();

/// Installs the `--trace-out` directory override for this process. Only the
/// first call wins: the CLIs call it once, after parsing every flag.
pub fn set_mi_trace_dir(dir: impl Into<PathBuf>) {
    let _ = DIR_OVERRIDE.set(dir.into());
}

/// Where decision traces are written: the `--trace-out` override, else
/// `results/trace-mi/`.
pub fn mi_trace_dir() -> PathBuf {
    match DIR_OVERRIDE.get() {
        Some(dir) => dir.clone(),
        None => results_dir().join("trace-mi"),
    }
}

/// Destination for one traced run's exports (see the module docs).
#[derive(Debug, Clone)]
pub struct TraceSink {
    exp: String,
    run: String,
}

impl TraceSink {
    /// Creates a sink; path components are sanitized for the filesystem.
    pub fn new(exp: impl Into<String>, run: impl Into<String>) -> Self {
        let clean = |s: String| s.replace(['/', '\\', ' '], "_");
        Self {
            exp: clean(exp.into()),
            run: clean(run.into()),
        }
    }

    /// Every file this sink writes, in write order: decision JSONL, Chrome
    /// trace, telemetry JSONL. Jobs declare them as cache artifacts
    /// (`SimJob::with_artifact`) in this order, so a warm hit replays the
    /// stored traces instead of leaving the files stale or missing.
    pub fn paths(&self) -> [PathBuf; 3] {
        let decisions = mi_trace_dir().join(&self.exp);
        [
            decisions.join(format!("{}.jsonl", self.run)),
            decisions.join(format!("{}.trace.json", self.run)),
            results_dir()
                .join("trace")
                .join(&self.exp)
                .join(format!("{}.jsonl", self.run)),
        ]
    }

    /// Writes the run's three exports, stopping at the first I/O error,
    /// which names the file it could not write.
    pub fn write(&self, res: &SimResult) -> io::Result<()> {
        let names: Vec<&str> = res.flows.iter().map(|f| f.name.as_str()).collect();
        let [jsonl, chrome, telemetry] = self.paths();
        put(&jsonl, to_jsonl(&res.decisions, &names))?;
        put(&chrome, to_chrome_trace(&res.decisions, &names))?;
        put(&telemetry, trace_jsonl(res))
    }
}

/// Writes `text` to `path` unless it already holds it
/// ([`write_if_changed`]), creating its directory.
fn put(path: &Path, text: String) -> io::Result<()> {
    write_if_changed(path, text.as_bytes())
        .map(drop)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Renders a run's telemetry trace as JSONL, one object per sample.
fn trace_jsonl(res: &SimResult) -> String {
    let mut out = String::new();
    for e in &res.trace {
        let mut o = Obj::new();
        o.num("t", e.t)
            .int("flow", e.flow as u64)
            .str("name", &res.flows[e.flow].name);
        match e.rate_mbps {
            Some(r) => o.num("rate_mbps", r),
            None => o.raw("rate_mbps", "null"),
        };
        match e.cwnd_bytes {
            Some(w) => o.int("cwnd_bytes", w),
            None => o.raw("cwnd_bytes", "null"),
        };
        o.int("inflight_bytes", e.inflight_bytes);
        match e.srtt_ms {
            Some(v) => o.num("srtt_ms", v),
            None => o.raw("srtt_ms", "null"),
        };
        match e.rttvar_ms {
            Some(v) => o.num("rttvar_ms", v),
            None => o.raw("rttvar_ms", "null"),
        };
        match e.utility {
            Some(u) => o.num("utility", u),
            None => o.raw("utility", "null"),
        };
        match e.mode {
            Some(m) => o.str("mode", m),
            None => o.raw("mode", "null"),
        };
        o.int("mode_switches", e.mode_switches);
        out.push_str(&o.render());
        out.push('\n');
    }
    out
}

/// The `repro trace-summary` report: aggregates every JSONL decision trace
/// under [`mi_trace_dir`] into per-experiment mode-switch counts and §5
/// filter hit-rates.
pub fn summary_report() -> String {
    let dir = mi_trace_dir();
    let mut exps: Vec<(String, TraceSummary, usize)> = Vec::new();
    let mut subdirs: Vec<PathBuf> = fs::read_dir(&dir)
        .into_iter()
        .flatten()
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
            "no decision traces under {} — run an experiment with --trace first\n",
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
    let row = |t: &mut Table, name: &str, files: usize, s: &TraceSummary| {
        t.row(vec![
            name.to_string(),
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
    };
    let mut total = TraceSummary::default();
    let mut total_files = 0usize;
    for (exp, s, files) in &exps {
        total.merge(s);
        total_files += files;
        row(&mut t, exp, *files, s);
    }
    if exps.len() > 1 {
        row(&mut t, "total", total_files, &total);
    }
    format!("{}\n", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_paths_are_sanitized_and_ordered() {
        let paths = TraceSink::new("fig6", "pair a/b").paths();
        assert!(paths[0].ends_with("fig6/pair_a_b.jsonl"));
        assert!(paths[1].ends_with("fig6/pair_a_b.trace.json"));
        assert!(paths[2].ends_with("trace/fig6/pair_a_b.jsonl"));
    }
}
