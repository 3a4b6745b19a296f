//! Result tables and reports: aligned text output, CSV, the tuner's
//! leaderboard renderings, and [`write_files`], the one way a report
//! reaches disk.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use proteus_runner::json::{array, Obj};
use proteus_runner::write_if_changed;

use crate::eval::OBJECTIVE;
use crate::search::{RankedCandidate, SearchOutcome, SearchSpec};
use crate::space::Candidate;

/// A simple result table mirroring one figure/series of the paper.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. `"Fig 3(a): throughput vs buffer size"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Directory where experiment reports are written: `results/` at the repo
/// root, or `$PROTEUS_RESULTS_DIR` when set (the golden-output test points
/// this at a scratch directory so running experiments cannot clobber the
/// committed full-fidelity reports). It is not created here: each writer
/// creates the directories of what it writes.
pub fn results_dir() -> PathBuf {
    match std::env::var_os("PROTEUS_RESULTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

/// Writes `files` (name, contents) under `dir` through
/// [`write_if_changed`]: a file that already holds its contents — every
/// report of a warm replay — is left untouched, and `dir` is created only
/// when something must be written. A report that cannot be persisted is
/// still returned and printed by its experiment, so a failure is not
/// fatal: the first path that cannot be written (`dir` itself when it
/// cannot be created) is named in a warning on stderr and returned, and
/// the rest are not attempted.
pub fn write_files(dir: &Path, files: &[(String, String)]) -> Option<PathBuf> {
    let (path, e) = files.iter().find_map(|(name, content)| {
        let path = dir.join(name);
        let written = write_if_changed(&path, content.as_bytes());
        written.err().map(|e| (path, e))
    })?;
    let path = if dir.is_dir() {
        path
    } else {
        dir.to_path_buf()
    };
    eprintln!("warning: could not write {}: {e}", path.display());
    Some(path)
}

/// Writes one experiment's text report (and each table's CSV) to
/// `results/`.
pub fn write_report(id: &str, text: &str, tables: &[&Table]) {
    let mut files = vec![(format!("{id}.txt"), text.to_string())];
    for (i, t) in tables.iter().enumerate() {
        let name = match tables.len() {
            1 => format!("{id}.csv"),
            _ => format!("{id}_{}.csv", i + 1),
        };
        files.push((name, t.to_csv()));
    }
    write_files(&results_dir(), &files);
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

// ---------------------------------------------------------------------------
// Tuning reports
// ---------------------------------------------------------------------------
//
// A search writes three artifacts: `leaderboard.csv` (every distinct
// candidate, best first), `frontier.csv` (the scavenger-utilization / harm
// Pareto front) and `best_config.json` (the winner, its genes and its full
// canonical config string, machine-readable). All three, and the text
// report, are pure functions of the leaderboard — no wall-clock, no paths —
// so determinism tests compare them byte for byte across runs and worker
// counts.

/// Leaderboard CSV header.
pub const LEADERBOARD_HEADER: &str = "rank,id,origin,variant,probe,d,g1,g2,k,eps,omega_step,\
budget_ms,threshold_mbps,scav_mbps,scav_util,harm,p95_rtt_s,feasible,fitness";

fn probe_rule(c: &Candidate) -> &'static str {
    if c.majority_probe {
        "majority"
    } else {
        "agreement"
    }
}

fn gene_cells(c: &Candidate) -> String {
    format!(
        "{},{},{:?},{:?},{:?},{},{:?},{:?},{:?},{:?}",
        c.variant.name(),
        probe_rule(c),
        c.deviation_coef,
        c.g1,
        c.g2,
        c.trend_window,
        c.epsilon,
        c.omega_step,
        c.budget_ms,
        c.threshold_mbps,
    )
}

fn row(rank: usize, r: &RankedCandidate) -> String {
    let m = &r.eval.metrics;
    format!(
        "{rank},{},{},{},{:.6},{:.6},{:.6},{:.6},{},{:.6}",
        r.id,
        r.origin,
        gene_cells(&r.eval.candidate),
        m.scav_mbps,
        m.scav_util,
        m.harm,
        m.p95_rtt_s,
        r.eval.feasible,
        r.eval.fitness,
    )
}

/// Renders the full leaderboard as CSV (best first).
pub fn leaderboard_csv(outcome: &SearchOutcome) -> String {
    let mut out = String::from(LEADERBOARD_HEADER);
    out.push('\n');
    for (i, r) in outcome.leaderboard.iter().enumerate() {
        out.push_str(&row(i + 1, r));
        out.push('\n');
    }
    out
}

/// The scavenger-utilization / harm Pareto front: candidates no other
/// candidate beats on *both* axes (higher `scav_util`, lower `harm`).
/// Sorted by harm ascending.
pub fn pareto_front(outcome: &SearchOutcome) -> Vec<&RankedCandidate> {
    let mut front: Vec<&RankedCandidate> = outcome
        .leaderboard
        .iter()
        .filter(|r| {
            !outcome.leaderboard.iter().any(|o| {
                let (m, om) = (&r.eval.metrics, &o.eval.metrics);
                om.scav_util >= m.scav_util
                    && om.harm <= m.harm
                    && (om.scav_util > m.scav_util || om.harm < m.harm)
            })
        })
        .collect();
    front.sort_by(|a, b| {
        a.eval
            .metrics
            .harm
            .partial_cmp(&b.eval.metrics.harm)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(&b.id))
    });
    front
}

/// Renders the Pareto front as CSV (same schema as the leaderboard, rank =
/// position along the front).
pub fn frontier_csv(outcome: &SearchOutcome) -> String {
    let mut out = String::from(LEADERBOARD_HEADER);
    out.push('\n');
    for (i, r) in pareto_front(outcome).iter().enumerate() {
        out.push_str(&row(i + 1, r));
        out.push('\n');
    }
    out
}

fn candidate_json(c: &Candidate) -> String {
    let mut o = Obj::new();
    o.str("variant", c.variant.name())
        .str("probe", probe_rule(c))
        .num("deviation_coef", c.deviation_coef)
        .num("g1", c.g1)
        .num("g2", c.g2)
        .int("trend_window", c.trend_window as u64)
        .num("epsilon", c.epsilon)
        .num("omega_step", c.omega_step)
        .num("budget_ms", c.budget_ms)
        .num("threshold_mbps", c.threshold_mbps);
    o.render()
}

/// Renders `best_config.json`: the winning candidate with its metrics,
/// the objective, the scenario set and the search accounting.
pub fn best_config_json(spec: &SearchSpec, outcome: &SearchOutcome) -> String {
    let best = outcome
        .leaderboard
        .first()
        .expect("search produced an empty leaderboard");
    let m = &best.eval.metrics;
    let scenarios: Vec<String> = spec
        .scenarios
        .iter()
        .map(|s| {
            let mut o = Obj::new();
            o.str("name", s.name)
                .str("primary", s.primary)
                .num("bw_mbps", s.bw_mbps)
                .num("rtt_ms", s.rtt_ms)
                .num("buffer_bdp", s.buffer_bdp)
                .num("secs", s.secs);
            o.render()
        })
        .collect();
    let metrics = {
        let mut o = Obj::new();
        o.num("scav_mbps", m.scav_mbps)
            .num("scav_util", m.scav_util)
            .num("harm", m.harm)
            .num("p95_rtt_s", m.p95_rtt_s);
        o.render()
    };
    let mut o = Obj::new();
    o.str("objective", OBJECTIVE)
        .str("id", &best.id)
        .str("origin", &best.origin)
        .bool("feasible", best.eval.feasible)
        .num("fitness", best.eval.fitness)
        .raw("metrics", &metrics)
        .raw("candidate", &candidate_json(&best.eval.candidate))
        .str("config_canonical", &best.eval.candidate.canonical())
        .raw("scenarios", &array(&scenarios))
        .int("evaluated", outcome.evaluated as u64)
        .int("distinct", outcome.leaderboard.len() as u64)
        .bool("ga_skipped", outcome.ga_skipped)
        .int("search_seed", spec.seed);
    let mut s = o.render();
    s.push('\n');
    s
}

/// Renders the tuner's human-readable report. Cache accounting is included
/// (it is informative), but wall-clock never is, so two runs of the same
/// search produce identical text.
pub fn text_report(spec: &SearchSpec, outcome: &SearchOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# proteus-tune: {OBJECTIVE}");
    let _ = writeln!(
        s,
        "evaluated {} candidates ({} distinct) over {} scenario(s); jobs: {} executed, {} cached, {} skipped",
        outcome.evaluated,
        outcome.leaderboard.len(),
        spec.scenarios.len(),
        outcome.jobs_executed,
        outcome.jobs_cached,
        outcome.jobs_skipped,
    );
    if outcome.ga_skipped {
        let _ = writeln!(
            s,
            "NOTE: shard filter active — genetic phase skipped. Run every shard to warm the cache, then re-run unsharded for the full search."
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "{:<5} {:<13} {:<6} {:<13} {:>9} {:>6} {:>6} {:>10} {:>10} {:>8} {:>9}",
        "rank",
        "id",
        "origin",
        "variant",
        "d",
        "g1",
        "g2",
        "scav_util",
        "harm",
        "feasible",
        "fitness"
    );
    for (i, r) in outcome.leaderboard.iter().take(10).enumerate() {
        let c = &r.eval.candidate;
        let m = &r.eval.metrics;
        let _ = writeln!(
            s,
            "{:<5} {:<13} {:<6} {:<13} {:>9.0} {:>6.2} {:>6.2} {:>10.4} {:>10.4} {:>8} {:>9.4}",
            i + 1,
            r.id,
            r.origin,
            c.variant.name(),
            c.deviation_coef,
            c.g1,
            c.g2,
            m.scav_util,
            m.harm,
            r.eval.feasible,
            r.eval.fitness,
        );
    }
    let front = pareto_front(outcome);
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "pareto front (scav_util vs harm): {} point(s)",
        front.len()
    );
    s
}

/// Writes a search's three artifacts into `dir` and returns its text
/// report.
pub fn write_tune_report(dir: &Path, spec: &SearchSpec, outcome: &SearchOutcome) -> String {
    write_files(
        dir,
        &[
            ("leaderboard.csv".into(), leaderboard_csv(outcome)),
            ("frontier.csv".into(), frontier_csv(outcome)),
            ("best_config.json".into(), best_config_json(spec, outcome)),
        ],
    );
    text_report(spec, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{CandidateEval, CandidateMetrics};
    use crate::search::quick_spec;
    use std::fs;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Example", &["proto", "mbps"]);
        t.row(vec!["CUBIC".into(), "49.9".into()]);
        t.row(vec!["LEDBAT-25".into(), "5.0".into()]);
        let s = t.render();
        assert!(s.contains("## Example"));
        assert!(s.contains("CUBIC"));
        // All lines (under the title) equally wide.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(lines[1].len(), lines[2].len().max(lines[1].len()));
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.005), "1.00");
        assert_eq!(f3(0.1234), "0.123");
        assert_eq!(pct(0.914), "91.4%");
    }

    fn fake(id: &str, scav_util: f64, harm: f64, feasible: bool) -> RankedCandidate {
        RankedCandidate {
            eval: CandidateEval {
                candidate: Candidate::paper_default(),
                metrics: CandidateMetrics {
                    scav_mbps: scav_util * 50.0,
                    scav_util,
                    harm,
                    p95_rtt_s: 0.05,
                },
                feasible,
                fitness: if feasible { scav_util } else { -harm },
            },
            origin: "grid".into(),
            id: id.into(),
        }
    }

    fn fake_outcome() -> SearchOutcome {
        SearchOutcome {
            leaderboard: vec![
                fake("aaa", 0.50, 0.02, true),
                fake("bbb", 0.40, 0.01, true),
                fake("ccc", 0.45, 0.03, true),  // dominated by aaa
                fake("ddd", 0.90, 0.30, false), // frontier: best util
            ],
            evaluated: 4,
            jobs_executed: 4,
            jobs_cached: 0,
            jobs_skipped: 0,
            ga_skipped: false,
        }
    }

    #[test]
    fn leaderboard_csv_shape() {
        let csv = leaderboard_csv(&fake_outcome());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], LEADERBOARD_HEADER);
        assert!(lines[1].starts_with("1,aaa,grid,Proteus-S,majority,"));
        let cols = lines[1].split(',').count();
        assert_eq!(cols, LEADERBOARD_HEADER.split(',').count());
    }

    #[test]
    fn frontier_drops_dominated_points() {
        let out = fake_outcome();
        let ids: Vec<&str> = pareto_front(&out).iter().map(|r| r.id.as_str()).collect();
        // ccc is dominated by aaa (less util, more harm); the rest trade off.
        assert_eq!(ids, ["bbb", "aaa", "ddd"]);
    }

    #[test]
    fn best_config_json_is_flat_and_complete() {
        let spec = quick_spec(1);
        let json = best_config_json(&spec, &fake_outcome());
        for needle in [
            "\"objective\":\"maximize scav_util subject to harm < 0.05\"",
            "\"id\":\"aaa\"",
            "\"config_canonical\":",
            "\"scenarios\":[",
            "\"ga_skipped\":false",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn text_report_has_no_wall_clock() {
        let spec = quick_spec(1);
        let text = text_report(&spec, &fake_outcome());
        assert!(text.contains("4 candidates (4 distinct)"));
        assert!(
            !text.to_lowercase().contains("secs"),
            "report must stay time-free"
        );
    }

    #[test]
    fn tune_report_survives_an_unwritable_dir() {
        let base =
            std::env::temp_dir().join(format!("proteus-bench-report-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-dir");
        fs::write(&blocker, "").unwrap();

        let spec = quick_spec(1);
        let text = write_tune_report(&blocker.join("tune"), &spec, &fake_outcome());
        assert_eq!(text, text_report(&spec, &fake_outcome()));
        let _ = fs::remove_dir_all(&base);
    }
}
