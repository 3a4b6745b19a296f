//! Golden decision-trace pins: the structured traces `--trace` records
//! must stay byte-stable for deterministic scenarios.
//!
//! Two pins, both under `results/golden/`:
//!
//! * `decision_trace_tiny.jsonl` / `decision_trace_tiny.trace.json` — the
//!   complete JSONL and Chrome exports of a tiny two-flow scenario (CUBIC
//!   vs a traced Proteus-S on a 20 Mbps dumbbell, 4 s). Small enough to
//!   read in review, it pins the whole event vocabulary: gate verdicts,
//!   MI closes with the utility breakdown, rate transitions and probe
//!   outcomes.
//! * `fig2_quick_decision.jsonl` — the MI-close and mode-switch lines of
//!   the quick-mode Fig.-2 decision companion (`repro --quick --trace
//!   fig2`). Filtered to the decision
//!   lines so the pin tracks *what the controller decided*, not incidental
//!   event volume.
//!
//! When a change intentionally shifts controller numerics (it will also
//! trip `golden_outputs.rs`), re-bless with:
//!
//! ```text
//! PROTEUS_BLESS=1 cargo test -p proteus-bench --test golden_trace
//! ```
//!
//! and commit the regenerated files, explaining the delta (see
//! EXPERIMENTS.md, "Golden pins").

mod common;

use proteus_bench::cc;
use proteus_bench::experiments::fig2;
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_trace::export::{to_chrome_trace, to_jsonl};
use proteus_transport::Dur;

use common::check_or_bless;

fn exports(res: &SimResult) -> (String, String) {
    let names: Vec<&str> = res.flows.iter().map(|f| f.name.as_str()).collect();
    (
        to_jsonl(&res.decisions, &names),
        to_chrome_trace(&res.decisions, &names),
    )
}

/// Keeps only the controller-decision lines the acceptance criterion pins.
fn decision_lines(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        if line.contains("\"event\":\"mi_close\"") || line.contains("\"event\":\"mode_switch\"") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn tiny_deterministic_decision_trace_matches_golden() {
    let link = LinkSpec::new(20.0, Dur::from_millis(40), 200_000);
    let sc = Scenario::new(link, Dur::from_secs_f64(4.0))
        .flow(FlowSpec::bulk("CUBIC", Dur::ZERO, || cc("CUBIC", 40)))
        .flow(FlowSpec::bulk("Proteus-S", Dur::from_secs(1), || {
            cc("Proteus-S", 41)
        }))
        .with_seed(7)
        .with_trace();
    let res = run(sc);
    let (jsonl, chrome) = exports(&res);
    assert!(
        jsonl.contains("\"event\":\"mi_close\""),
        "tiny scenario produced no MI closes"
    );
    check_or_bless("decision_trace_tiny.jsonl", &jsonl, "golden_trace");
    check_or_bless("decision_trace_tiny.trace.json", &chrome, "golden_trace");
}

#[test]
fn quick_fig2_decision_trace_matches_golden() {
    // The same scenario `repro --quick --trace fig2` exports (30 s quick
    // horizon, seed 1).
    let res = run(fig2::decision_scenario(30.0, 1));
    let (jsonl, chrome) = exports(&res);

    let pinned = decision_lines(&jsonl);
    assert!(!pinned.is_empty(), "companion produced no decision lines");
    check_or_bless("fig2_quick_decision.jsonl", &pinned, "golden_trace");

    // The Chrome export is derived from the same events: one "X" span per
    // MI close, and it must stay loadable (balanced JSON object).
    let mi_closes = pinned
        .lines()
        .filter(|l| l.contains("\"event\":\"mi_close\""))
        .count();
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), mi_closes);
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert!(chrome.starts_with("{\"displayTimeUnit\""));
}
