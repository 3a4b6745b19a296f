//! The invariant-campaign harness shared by `stress`, `scale`, `topology`
//! and `rtc`.
//!
//! Each of those campaigns measures a matrix of cells and then judges a
//! list of named contracts on it. What differs between them is data — the
//! body tables, the scope columns a verdict is keyed by, the file names
//! under `results/<campaign>/` — so a campaign builds its tables and its
//! [`Check`]s and hands both to [`finish`], which renders the invariants
//! table and summary line, writes the report files and returns the
//! machine-checkable [`Outcome`].
//!
//! Failed checks are also logged process-wide ([`take_session_failures`]),
//! which is how `repro` turns a broken invariant into a non-zero exit
//! status without the registry's `fn(RunCfg) -> String` entry points
//! changing shape.

use std::path::Path;
use std::sync::Mutex;

use crate::report::{results_dir, write_files, Table};

/// One invariant verdict: a named check on one cell of a campaign's matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The cell the check applies to, one label per scope column of the
    /// campaign's invariants table (e.g. `[profile, subject]` or `[cell]`).
    pub scope: Vec<String>,
    /// Check name (e.g. `progress`, `scavenger-yields`).
    pub check: &'static str,
    /// The measured value the verdict was taken on.
    pub value: f64,
    /// Whether the invariant held.
    pub pass: bool,
}

impl Check {
    /// A verdict on the cell named by `scope`.
    pub fn new<const N: usize>(
        scope: [&str; N],
        check: &'static str,
        value: f64,
        pass: bool,
    ) -> Self {
        Self {
            scope: scope.iter().map(|s| s.to_string()).collect(),
            check,
            value,
            pass,
        }
    }
}

/// The machine-checkable result of an invariant campaign.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every invariant verdict, in matrix order.
    pub checks: Vec<Check>,
    /// The rendered report text.
    pub report: String,
}

impl Outcome {
    /// Whether every invariant held.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The checks that failed.
    pub fn failures(&self) -> Vec<&Check> {
        self.checks.iter().filter(|c| !c.pass).collect()
    }
}

/// What one campaign's report is made of.
#[derive(Debug)]
pub struct Layout<'a> {
    /// Campaign id; reports land in `results/<campaign>/`.
    pub campaign: &'a str,
    /// File name of the full text report.
    pub report_file: &'a str,
    /// The measurement tables in report order, each with the CSV file it is
    /// also written to (`None`: rendered in the report only).
    pub body: &'a [(&'a Table, Option<&'a str>)],
    /// Title of the invariants table.
    pub invariants_title: &'a str,
    /// Headers of the invariants table's scope columns; every check's
    /// [`Check::scope`] has one label per header.
    pub scope_headers: &'a [&'a str],
}

/// Process-wide log of every check [`finish`] saw fail since the last
/// [`take_session_failures`] call, as `campaign/scope/check`.
static SESSION_FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Drains and returns the failed checks of every campaign finished in this
/// process since the previous drain, in report order.
pub fn take_session_failures() -> Vec<String> {
    std::mem::take(&mut *SESSION_FAILURES.lock().unwrap_or_else(|e| e.into_inner()))
}

fn verdict(pass: bool) -> String {
    if pass { "PASS" } else { "FAIL" }.into()
}

fn invariants_table(layout: &Layout, checks: &[Check]) -> Table {
    let mut headers = layout.scope_headers.to_vec();
    headers.extend(["check", "value", "verdict"]);
    let mut inv = Table::new(layout.invariants_title, &headers);
    for c in checks {
        let mut row = c.scope.clone();
        row.extend([c.check.into(), format!("{:.4}", c.value), verdict(c.pass)]);
        inv.row(row);
    }
    inv
}

/// [`finish`] with the campaign's report directory given explicitly.
fn finish_in(dir: &Path, layout: &Layout, checks: Vec<Check>) -> Outcome {
    let inv = invariants_table(layout, &checks);
    let failed: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}/{}/{}", layout.campaign, c.scope.join("/"), c.check))
        .collect();

    let mut report = String::new();
    for (table, _) in layout.body {
        report.push_str(&table.render());
        report.push('\n');
    }
    report.push_str(&inv.render());
    report.push_str(&format!(
        "\ninvariants: {}/{} passed",
        checks.len() - failed.len(),
        checks.len()
    ));
    if !failed.is_empty() {
        report.push_str(&format!(" — {} FAILED", failed.len()));
    }
    report.push('\n');

    let mut files = vec![(layout.report_file.to_string(), report.clone())];
    for (table, csv) in layout.body {
        if let Some(name) = csv {
            files.push((name.to_string(), table.to_csv()));
        }
    }
    files.push(("invariants.csv".into(), inv.to_csv()));
    write_files(dir, &files);

    SESSION_FAILURES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(failed);
    Outcome { checks, report }
}

/// Completes an invariant campaign: renders `layout.body` followed by the
/// invariants table and the `invariants: n/m passed` summary line, writes
/// the report, the body CSVs and `invariants.csv` under
/// `results/<campaign>/`, logs failed checks for
/// [`take_session_failures`], and returns the verdicts with the report.
pub fn finish(layout: &Layout, checks: Vec<Check>) -> Outcome {
    finish_in(&results_dir().join(layout.campaign), layout, checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "proteus-bench-invariants-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn body_table() -> Table {
        let mut t = Table::new("Body", &["cell", "mbps"]);
        t.row(vec!["a".into(), "1.00".into()]);
        t
    }

    fn lines(lines: &[&str]) -> String {
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn one_label_scope_all_passing() {
        let dir = scratch("pass");
        let body = body_table();
        let layout = Layout {
            campaign: "probe-pass",
            report_file: "report.txt",
            body: &[(&body, Some("body.csv"))],
            invariants_title: "Invariants: one label",
            scope_headers: &["cell"],
        };
        let out = finish_in(
            &dir,
            &layout,
            vec![
                Check::new(["a"], "progress", 1.0, true),
                Check::new(["b/c"], "harm-bounded", 0.75, true),
            ],
        );
        assert!(out.all_pass());
        assert!(out.failures().is_empty());
        assert_eq!(
            out.report,
            lines(&[
                "## Body",
                "cell  mbps",
                "----  ----",
                "   a  1.00",
                "",
                "## Invariants: one label",
                "cell         check   value  verdict",
                "----  ------------  ------  -------",
                "   a      progress  1.0000     PASS",
                " b/c  harm-bounded  0.7500     PASS",
                "",
                "invariants: 2/2 passed",
            ])
        );
        let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read("report.txt"), out.report);
        assert_eq!(read("body.csv"), "cell,mbps\na,1.00\n");
        assert_eq!(
            read("invariants.csv"),
            lines(&[
                "cell,check,value,verdict",
                "a,progress,1.0000,PASS",
                "b/c,harm-bounded,0.7500,PASS",
            ])
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_label_scope_with_a_failure_is_reported_and_drained() {
        let dir = scratch("fail");
        let body = body_table();
        let layout = Layout {
            campaign: "probe-fail",
            report_file: "probe.txt",
            // No CSV name: the table is rendered, not persisted.
            body: &[(&body, None)],
            invariants_title: "Invariants: two labels",
            scope_headers: &["profile", "subject"],
        };
        let out = finish_in(
            &dir,
            &layout,
            vec![
                Check::new(["clean", "CUBIC"], "progress", 12.5, true),
                Check::new(
                    ["flap", "CUBIC vs Proteus-S"],
                    "scavenger-yields",
                    0.5,
                    false,
                ),
            ],
        );
        assert!(!out.all_pass());
        assert_eq!(out.failures(), [&out.checks[1]]);
        let tail = lines(&[
            "## Invariants: two labels",
            "profile             subject             check    value  verdict",
            "-------  ------------------  ----------------  -------  -------",
            "  clean               CUBIC          progress  12.5000     PASS",
            "   flap  CUBIC vs Proteus-S  scavenger-yields   0.5000     FAIL",
            "",
            "invariants: 1/2 passed — 1 FAILED",
        ]);
        assert!(out.report.ends_with(&tail), "{}", out.report);
        let read = |name: &str| fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read("probe.txt"), out.report);
        assert_eq!(
            read("invariants.csv"),
            lines(&[
                "profile,subject,check,value,verdict",
                "clean,CUBIC,progress,12.5000,PASS",
                "flap,CUBIC vs Proteus-S,scavenger-yields,0.5000,FAIL",
            ])
        );
        assert!(!dir.join("body.csv").exists());

        // Other tests finish campaigns concurrently, so look only at this
        // campaign's entries; a second drain finds them gone.
        let mine = |log: Vec<String>| -> Vec<String> {
            log.into_iter()
                .filter(|f| f.starts_with("probe-fail/"))
                .collect()
        };
        assert_eq!(
            mine(take_session_failures()),
            ["probe-fail/flap/CUBIC vs Proteus-S/scavenger-yields"]
        );
        assert!(mine(take_session_failures()).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_report_dir_names_the_path_and_keeps_the_report() {
        let base = scratch("unwritable");
        fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-dir");
        fs::write(&blocker, "").unwrap();
        let dir = blocker.join("campaign");

        let failed = write_files(&dir, &[("report.txt".into(), "x".into())]);
        assert_eq!(failed.as_ref(), Some(&dir));

        let layout = Layout {
            campaign: "probe-unwritable",
            report_file: "report.txt",
            body: &[],
            invariants_title: "Invariants",
            scope_headers: &["cell"],
        };
        let out = finish_in(
            &dir,
            &layout,
            vec![Check::new(["a"], "progress", 1.0, true)],
        );
        assert!(out.report.ends_with("invariants: 1/1 passed\n"));
        let _ = fs::remove_dir_all(&base);
    }
}
