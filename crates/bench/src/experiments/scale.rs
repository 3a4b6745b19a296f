//! `scale`: ISP-scale flow populations — 1k/10k/100k-flow cells with
//! equilibrium-fairness and scavenger-harm invariants.
//!
//! The paper's Appendix A argues a unique fair equilibrium among competing
//! Proteus senders, and the scavenger contract promises "harm ≤ ε" to
//! primary traffic — but both the paper and the small-N figure campaigns
//! only ever run a handful of flows. This campaign drives the engine's
//! timing-wheel scheduler and struct-of-arrays flow table (see DESIGN.md
//! §4c) at population scale: thousands of concurrent flows with Poisson
//! arrival/departure churn (`ChurnSpec`, see SCENARIOS.md), and checks the
//! claims that small-N experiments cannot:
//!
//! * **equilibrium-jain** — a static population of same-class Proteus-P
//!   flows at fig-5-like per-flow rates (≥ 40 Mbps each) reaches Jain's
//!   fairness ≥ [`EQUILIBRIUM_JAIN`] over the measurement tail. Thin-flow
//!   cells (1k/10k flows at 0.5–2 Mbps each) are *reported unchecked*:
//!   convergence needs ≈ 2.4 Gb delivered per flow, and below that the MI
//!   gradient estimate starves (see [`fair_cells`]);
//! * **population-churns** — churn cells actually turn their population
//!   over (total flows ≥ warm-start + 80% of the expected Poisson
//!   arrivals), and the 100k cell really exceeds 100 000 total flows;
//! * **progress** — a churning mixed population keeps the bottleneck busy
//!   (utilization ≥ 50% over the tail; arrivals never wedge the link);
//! * **scavenger-harm** — a churning Proteus-S population costs the static
//!   CUBIC primary class at most 30% of the aggregate throughput it gets
//!   alone on the same link (the paper's harm ≤ ε, at population scale).
//!
//! The fair and churn cells never record traces (at up to 10 000
//! concurrent flows, a decision ring costs ~0.6 MB each); the harm cells
//! follow `--trace`/`--trace-mi`. Every cell samples RTT and throughput
//! coarsely (`rtt_stride`, `throughput_bin`): at 10k+ flows, per-ACK
//! sampling would dominate the run. Reports land in
//! `results/scale/scale.txt` (+ CSVs); the campaign is deterministic, so
//! two runs produce byte-identical reports.

use proteus_netsim::{ChurnClass, ChurnSpec, FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_stats::jain_index;
use proteus_transport::Dur;

use proteus_runner::{payload, SimJob};

use crate::invariants::{finish, Check, Layout, Outcome};
use crate::jobs::{campaign, scenario_job, Traces};
use crate::protocols::cc;
use crate::report::{f2, Table};
use crate::RunCfg;

/// The mixed churn population, `(class, weight)`: mostly primaries with a
/// substantial scavenger share, like an access link would see.
pub const CHURN_MIX: &[(&str, f64)] = &[
    ("Proteus-P", 4.0),
    ("Proteus-S", 3.0),
    ("CUBIC", 2.0),
    ("BBR", 1.0),
];

/// One population cell of the scale matrix.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Row label, e.g. `"churn-10k"`.
    pub name: &'static str,
    /// Warm-start population (`ChurnSpec::initial`).
    pub initial: usize,
    /// Poisson arrival rate, flows/sec (0 = static population).
    pub arrivals_per_sec: f64,
    /// Mean exponential lifetime, seconds (ignored for static cells, whose
    /// lifetime is pinned far beyond the run).
    pub mean_lifetime_s: f64,
    /// Bottleneck bandwidth, Mbit/s (sized per concurrent flow).
    pub bw_mbps: f64,
    /// Run length, seconds.
    pub secs: f64,
}

impl Cell {
    /// Expected total flow count: warm start + mean Poisson arrivals.
    pub fn expected_total(&self) -> f64 {
        self.initial as f64 + self.arrivals_per_sec * self.secs
    }
}

/// Floor on a checked fairness cell's tail Jain index. A converged
/// population reads 0.91–0.97 depending on the seed (EXPERIMENTS.md, "Seed
/// sweeps": worst of seeds 1–12 is 0.935 on `fair-16`, worst of 1–6 is
/// 0.911 on `fair-100`); what the check exists to catch is the thin-flow
/// collapse (`fair-1k` reads 0.35).
pub const EQUILIBRIUM_JAIN: f64 = 0.85;

/// Static same-class Proteus-P populations for the equilibrium check.
/// The bool marks whether the cell's Jain index is invariant-checked.
///
/// Calibration: Proteus-P's MI controller needs ≈ 2.4 Gb of per-flow
/// traffic (rate × time) before the population converges — at 1 Mbps per
/// flow the per-MI ACK sample count starves the gradient estimate and
/// Jain plateaus near 0.2–0.4 no matter how long the run. The *checked*
/// cells therefore run at 40 Mbps per flow (fig. 5's regime, 10× its flow
/// count at full fidelity) for at least that budget — 64 s quick, 120 s
/// full; the 1k/10k thin-flow cells are *reported* so the degradation is
/// visible in the matrix, not hidden by cell selection.
pub fn fair_cells(quick: bool) -> Vec<(Cell, bool)> {
    let fair = |name, initial, bw_mbps, secs| Cell {
        name,
        initial,
        arrivals_per_sec: 0.0,
        mean_lifetime_s: 0.0,
        bw_mbps,
        secs,
    };
    if quick {
        vec![(fair("fair-16", 16, 640.0, 64.0), true)]
    } else {
        vec![
            (fair("fair-100", 100, 4000.0, 120.0), true),
            // ~2 Mbps per flow at 1k, ~0.5 Mbps at 10k: the regime the
            // ROADMAP's "millions of users" north star cares about is many
            // small flows — where fairness measurably degrades.
            (fair("fair-1k", 1000, 2000.0, 30.0), false),
            (fair("fair-10k", 10_000, 5000.0, 30.0), false),
        ]
    }
}

/// Churning mixed populations. Arrival rate × mean lifetime = warm-start
/// size, so each cell holds its concurrency roughly constant (M/G/∞).
pub fn churn_cells(quick: bool) -> Vec<Cell> {
    if quick {
        vec![Cell {
            name: "churn-250",
            initial: 250,
            arrivals_per_sec: 50.0,
            mean_lifetime_s: 5.0,
            bw_mbps: 250.0,
            secs: 16.0,
        }]
    } else {
        vec![
            Cell {
                name: "churn-1k",
                initial: 1000,
                arrivals_per_sec: 100.0,
                mean_lifetime_s: 10.0,
                bw_mbps: 1000.0,
                secs: 60.0,
            },
            Cell {
                name: "churn-10k",
                initial: 10_000,
                arrivals_per_sec: 833.3,
                mean_lifetime_s: 12.0,
                bw_mbps: 5000.0,
                secs: 60.0,
            },
            // The 100k cell: same 10k-concurrent operating point held for
            // 120 s, so >100 000 distinct flows traverse the bottleneck.
            Cell {
                name: "churn-100k",
                initial: 10_000,
                arrivals_per_sec: 833.3,
                mean_lifetime_s: 12.0,
                bw_mbps: 5000.0,
                secs: 120.0,
            },
        ]
    }
}

/// The scavenger-harm cell: `primaries` static CUBIC flows, alone and then
/// against a churning Proteus-S population.
#[derive(Debug, Clone, Copy)]
pub struct HarmCell {
    /// Row label, e.g. `"harm-500"`.
    pub name: &'static str,
    /// Number of static CUBIC primary flows.
    pub primaries: usize,
    /// The churning Proteus-S background population (link + run length).
    pub scavengers: Cell,
}

/// The invariant-checked scavenger-harm cell: an access-link operating
/// point (100 Mbps, 4 CUBIC primaries, ~10 concurrent churning
/// scavengers). Calibration showed the ≥ 70% contract holds here with
/// margin (ratio ≈ 0.84) but decays as scavenger density grows — see
/// [`harm_dense_cell`].
pub fn harm_cell(quick: bool) -> HarmCell {
    HarmCell {
        name: "harm-10",
        primaries: 4,
        scavengers: Cell {
            name: "harm-10",
            initial: 10,
            arrivals_per_sec: 2.0,
            mean_lifetime_s: 5.0,
            bw_mbps: 100.0,
            secs: if quick { 16.0 } else { 40.0 },
        },
    }
}

/// The dense companion cell — 100 concurrent churning scavengers on the
/// same link. Reported but *not* invariant-checked: sustained churn keeps
/// every scavenger a latecomer (its base-RTT estimate forms inside the
/// standing queue, so the deviation signal it yields on never fires), and
/// per-flow shares near the rate floor starve the estimator of ACK
/// samples. The measured yield ratio collapses (≈ 0.27 static, ≈ 0.03
/// under churn) — the population-scale failure mode this campaign exists
/// to surface.
pub fn harm_dense_cell(quick: bool) -> HarmCell {
    HarmCell {
        name: "harm-100",
        primaries: 4,
        scavengers: Cell {
            name: "harm-100",
            initial: 100,
            arrivals_per_sec: 20.0,
            mean_lifetime_s: 5.0,
            bw_mbps: 100.0,
            secs: if quick { 16.0 } else { 40.0 },
        },
    }
}

// ---------------------------------------------------------------------------
// Scenario assembly
// ---------------------------------------------------------------------------

/// Tail measurement window: the last third of the run, once the warm-start
/// transient has churned out.
fn tail(secs: f64) -> (proteus_transport::Time, proteus_transport::Time) {
    (
        proteus_transport::Time::from_secs_f64(secs * 2.0 / 3.0),
        proteus_transport::Time::from_secs_f64(secs),
    )
}

/// Coarse RTT sampling and 2 s throughput bins keep 10k-flow metrics from
/// dominating the run.
fn scale_scenario(cell: Cell, seed: u64, classes: Vec<ChurnClass>) -> Scenario {
    // Static cells pin the mean lifetime three orders of magnitude beyond
    // the run, so departures are negligible (the exponential tail still
    // technically exists — determinism, not semantics, is what matters).
    let lifetime = if cell.arrivals_per_sec > 0.0 {
        cell.mean_lifetime_s
    } else {
        cell.secs * 1000.0
    };
    Scenario::new(
        LinkSpec::new(cell.bw_mbps, Dur::from_millis(30), 1).with_buffer_bdp(4.0),
        Dur::from_secs_f64(cell.secs),
    )
    .with_seed(seed)
    .with_rtt_stride(64)
    .with_throughput_bin(Dur::from_secs(2))
    .with_churn(
        ChurnSpec::new(cell.arrivals_per_sec, Dur::from_secs_f64(lifetime), classes)
            .with_initial(cell.initial),
    )
}

/// One equal-share class per entry of `mix`; each spawned flow derives its
/// CC seed from the scenario seed and its flow id.
fn classes(mix: &'static [(&'static str, f64)], seed: u64) -> Vec<ChurnClass> {
    mix.iter()
        .map(|&(proto, weight)| {
            ChurnClass::new(
                proto,
                weight,
                Box::new(move |id| {
                    let cc_seed = seed ^ (id as u64).wrapping_mul(0x9E37_79B9);
                    cc(proto, cc_seed)
                }),
            )
        })
        .collect()
}

/// Per-cell engine accounting on stderr: events dispatched, the share the
/// fused wire path served (DESIGN.md §4f) and the peak queue. The job's
/// reader prints it, so cached cells (which run no simulation) print
/// nothing.
fn eprint_cell_events(cell: &str, res: &SimResult) {
    let ev = &res.events;
    eprintln!(
        "    [{cell}] {:.1}M events dispatched, {:.1}% fused, peak queue {}",
        ev.dispatched() as f64 / 1e6,
        100.0 * ev.fused_fraction(),
        ev.peak_queue
    );
}

/// Sum of tail goodput over flows selected by `pred`, Mbps.
fn aggregate_mbps(res: &SimResult, secs: f64, pred: impl Fn(&str) -> bool) -> f64 {
    let (from, to) = tail(secs);
    res.flows
        .iter()
        .filter(|f| pred(&f.name))
        .map(|f| f.throughput_mbps(from, to))
        .sum()
}

// ---------------------------------------------------------------------------
// Jobs (in-job aggregation: payloads stay a handful of floats regardless of
// population size)
// ---------------------------------------------------------------------------

/// Decoded fairness-cell payload.
#[derive(Debug, Clone, Copy)]
pub struct FairOut {
    /// Jain's index over per-flow tail goodput.
    pub jain: f64,
    /// Aggregate tail goodput, Mbps.
    pub agg_mbps: f64,
    /// Total flows the run created.
    pub total_flows: u64,
}

fn fair_job(cell: Cell, seed: u64) -> SimJob {
    scenario_job(
        "scale",
        format!(
            "scale-fair/cell={}/n={}/bw={:?}/secs={:?}/seed={seed}",
            cell.name, cell.initial, cell.bw_mbps, cell.secs
        ),
        format!("{}-s{seed}", cell.name),
        // Untraced: up to 10 000 concurrent flows at ~0.6 MB of decision ring each.
        Traces::off(),
        move || {
            let sc = scale_scenario(cell, seed, classes(&[("Proteus-P", 1.0)], seed));
            (sc, move |res: &SimResult| {
                eprint_cell_events(cell.name, res);
                let (from, to) = tail(cell.secs);
                let rates: Vec<f64> = res
                    .flows
                    .iter()
                    .map(|f| f.throughput_mbps(from, to))
                    .collect();
                vec![
                    jain_index(&rates).unwrap_or(0.0),
                    rates.iter().sum(),
                    res.flows.len() as f64,
                ]
            })
        },
    )
}

fn decode_fair(payload_text: &str) -> FairOut {
    let v = payload::decode_floats(payload_text);
    FairOut {
        jain: v[0],
        agg_mbps: v[1],
        total_flows: v[2] as u64,
    }
}

/// Decoded churn-cell payload.
#[derive(Debug, Clone)]
pub struct ChurnOut {
    /// Total flows the run created (warm start + arrivals).
    pub total_flows: u64,
    /// Aggregate tail goodput, Mbps.
    pub agg_mbps: f64,
    /// Bottleneck utilization over the tail.
    pub utilization: f64,
    /// Aggregate tail goodput per churn class, `CHURN_MIX` order.
    pub class_mbps: Vec<f64>,
}

fn churn_job(cell: Cell, seed: u64) -> SimJob {
    scenario_job(
        "scale",
        format!(
            "scale-churn/cell={}/n={}/arr={:?}/life={:?}/bw={:?}/secs={:?}/seed={seed}",
            cell.name,
            cell.initial,
            cell.arrivals_per_sec,
            cell.mean_lifetime_s,
            cell.bw_mbps,
            cell.secs
        ),
        format!("{}-s{seed}", cell.name),
        // Untraced: 250 to 10 000 concurrent flows at ~0.6 MB of decision ring each.
        Traces::off(),
        move || {
            let sc = scale_scenario(cell, seed, classes(CHURN_MIX, seed));
            (sc, move |res: &SimResult| {
                eprint_cell_events(cell.name, res);
                let (from, to) = tail(cell.secs);
                let mut out = vec![
                    res.flows.len() as f64,
                    aggregate_mbps(res, cell.secs, |_| true),
                    res.utilization(from, to),
                ];
                for &(proto, _) in CHURN_MIX {
                    // Churned flows are named `{class}~{n}`.
                    let prefix = format!("{proto}~");
                    out.push(aggregate_mbps(res, cell.secs, |n| n.starts_with(&prefix)));
                }
                out
            })
        },
    )
}

fn decode_churn(payload_text: &str) -> ChurnOut {
    let v = payload::decode_floats(payload_text);
    ChurnOut {
        total_flows: v[0] as u64,
        agg_mbps: v[1],
        utilization: v[2],
        class_mbps: v[3..].to_vec(),
    }
}

/// `with_scavengers = false` runs only the static CUBIC primary class (the
/// alone-throughput baseline); `true` adds the churning Proteus-S
/// population on the same link and seed.
fn harm_job(cell: HarmCell, with_scavengers: bool, seed: u64, traces: Traces) -> SimJob {
    let sc = cell.scavengers;
    // The alone baseline has no scavengers, so its identity deliberately
    // omits the cell name and population: every harm cell on the same link
    // shares one baseline run (deduped by the campaign).
    let (stem, name) = if with_scavengers {
        (
            format!(
                "scale-harm/cell={}/primaries={}/scav={}/arr={:?}/life={:?}/bw={:?}/secs={:?}/seed={seed}/pair",
                cell.name,
                cell.primaries,
                sc.initial,
                sc.arrivals_per_sec,
                sc.mean_lifetime_s,
                sc.bw_mbps,
                sc.secs
            ),
            format!("{}-s{seed}", cell.name),
        )
    } else {
        (
            format!(
                "scale-harm/primaries={}/bw={:?}/secs={:?}/seed={seed}/alone",
                cell.primaries, sc.bw_mbps, sc.secs
            ),
            format!("harm-alone-s{seed}"),
        )
    };
    scenario_job("scale", stem, name, traces, move || {
        let mut scenario = Scenario::new(
            LinkSpec::new(sc.bw_mbps, Dur::from_millis(30), 1).with_buffer_bdp(1.0),
            Dur::from_secs_f64(sc.secs),
        )
        .with_seed(seed)
        .with_rtt_stride(64)
        .with_throughput_bin(Dur::from_secs(2));
        for i in 0..cell.primaries {
            scenario = scenario.flow(FlowSpec::bulk(format!("CUBIC#{i}"), Dur::ZERO, move || {
                cc("CUBIC", seed ^ (0xC0B1C + i as u64))
            }));
        }
        if with_scavengers {
            scenario = scenario.with_churn(
                ChurnSpec::new(
                    sc.arrivals_per_sec,
                    Dur::from_secs_f64(sc.mean_lifetime_s),
                    classes(&[("Proteus-S", 1.0)], seed),
                )
                .with_initial(sc.initial),
            );
        }
        (scenario, move |res: &SimResult| {
            let what = if with_scavengers {
                cell.name
            } else {
                "harm-alone"
            };
            eprint_cell_events(what, res);
            vec![
                aggregate_mbps(res, sc.secs, |n| n.starts_with("CUBIC#")),
                aggregate_mbps(res, sc.secs, |n| n.starts_with("Proteus-S~")),
                res.flows.len() as f64,
            ]
        })
    })
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// Runs the population-scale campaign and returns both the rendered report
/// and the machine-checkable invariant verdicts.
pub fn run_with_outcome(cfg: RunCfg) -> Outcome {
    let fairs = fair_cells(cfg.quick);
    let churns = churn_cells(cfg.quick);
    let harm = harm_cell(cfg.quick);

    let mut camp = campaign("scale", cfg);
    let fair_slots: Vec<usize> = fairs
        .iter()
        .map(|&(c, _)| camp.push_dedup(fair_job(c, cfg.seed)))
        .collect();
    let churn_slots: Vec<usize> = churns
        .iter()
        .map(|&c| camp.push_dedup(churn_job(c, cfg.seed)))
        .collect();
    // The harm ratio is the one noisy measurement in the matrix (a single
    // churn realization can swing it by ±0.1), so the checked pair cell
    // averages three seeds against the alone baseline. The dense companion
    // is reported single-seed: its collapse is an order-of-magnitude
    // effect, not a marginal verdict.
    let dense = harm_dense_cell(cfg.quick);
    let traces = Traces::from_cfg(&cfg);
    let alone_slot = camp.push_dedup(harm_job(harm, false, cfg.seed, traces));
    let pair_slots_h: Vec<usize> = (0..3)
        .map(|t| camp.push_dedup(harm_job(harm, true, cfg.seed + t, traces)))
        .collect();
    let dense_slot = camp.push_dedup(harm_job(dense, true, cfg.seed, traces));
    let result = camp.run();

    let mut checks: Vec<Check> = Vec::new();

    // ---- Equilibrium fairness. ----
    let mut fair_table = Table::new(
        "Equilibrium: static same-class Proteus-P populations",
        &["cell", "flows", "Jain(tail)", "aggregate Mbps"],
    );
    for (i, &(cell, checked)) in fairs.iter().enumerate() {
        let o = decode_fair(&result.outputs[fair_slots[i]]);
        fair_table.row(vec![
            cell.name.into(),
            o.total_flows.to_string(),
            format!("{:.4}", o.jain),
            f2(o.agg_mbps),
        ]);
        if checked {
            checks.push(Check::new(
                [cell.name],
                "equilibrium-jain",
                o.jain,
                o.jain >= EQUILIBRIUM_JAIN,
            ));
        }
    }

    // ---- Churning mixed populations. ----
    let mut churn_table = Table::new(
        "Churn: mixed populations (Poisson arrivals, exp. lifetimes)",
        &[
            "cell",
            "flows(total)",
            "agg Mbps",
            "util%",
            "Proteus-P",
            "Proteus-S",
            "CUBIC",
            "BBR",
        ],
    );
    for (i, cell) in churns.iter().enumerate() {
        let o = decode_churn(&result.outputs[churn_slots[i]]);
        let mut row = vec![
            cell.name.into(),
            o.total_flows.to_string(),
            f2(o.agg_mbps),
            format!("{:.1}", o.utilization * 100.0),
        ];
        row.extend(o.class_mbps.iter().map(|&m| f2(m)));
        churn_table.row(row);

        // The Poisson arrival count concentrates hard at this scale
        // (σ/µ < 4% even in the quick cell): 80% of the mean only fails
        // if the churn stream silently stopped spawning.
        let floor = cell.initial as f64 + 0.8 * cell.arrivals_per_sec * cell.secs;
        let flows = o.total_flows as f64;
        let mut check = |name, value, pass| checks.push(Check::new([cell.name], name, value, pass));
        check("population-churns", flows, flows >= floor);
        check("progress", o.utilization, o.utilization >= 0.5);
        if cell.name == "churn-100k" {
            check("100k-flows", flows, o.total_flows >= 100_000);
        }
    }

    // ---- Scavenger harm under churn. ----
    let alone = payload::decode_floats(&result.outputs[alone_slot]);
    let pairs: Vec<Vec<f64>> = pair_slots_h
        .iter()
        .map(|&s| payload::decode_floats(&result.outputs[s]))
        .collect();
    let mean = |i: usize| pairs.iter().map(|p| p[i]).sum::<f64>() / pairs.len() as f64;
    let pair = [mean(0), mean(1), mean(2)];
    let ratio = pair[0] / alone[0].max(1e-9);
    let dense_pair = payload::decode_floats(&result.outputs[dense_slot]);
    let dense_ratio = dense_pair[0] / alone[0].max(1e-9);
    let mut harm_table = Table::new(
        "Scavenger harm: CUBIC primary aggregate, alone vs under Proteus-S churn",
        &[
            "cell",
            "alone Mbps",
            "w/ scav Mbps",
            "ratio",
            "scav Mbps",
            "flows",
        ],
    );
    harm_table.row(vec![
        harm.name.into(),
        f2(alone[0]),
        f2(pair[0]),
        format!("{ratio:.3}"),
        f2(pair[1]),
        format!("{}", pair[2] as u64),
    ]);
    harm_table.row(vec![
        dense.name.into(),
        f2(alone[0]),
        f2(dense_pair[0]),
        format!("{dense_ratio:.3}"),
        f2(dense_pair[1]),
        format!("{}", dense_pair[2] as u64),
    ]);
    checks.push(Check::new(
        [harm.name],
        "scavenger-harm",
        ratio,
        ratio >= 0.7,
    ));

    finish(
        &Layout {
            campaign: "scale",
            report_file: "scale.txt",
            body: &[
                (&fair_table, None),
                (&churn_table, Some("cells.csv")),
                (&harm_table, None),
            ],
            invariants_title: "Invariants: population-scale contracts",
            scope_headers: &["cell"],
        },
        checks,
    )
}

/// Registry entry point: runs the campaign and returns the report.
pub fn run_experiment(cfg: RunCfg) -> String {
    run_with_outcome(cfg).report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_hold_concurrency_constant() {
        for cell in churn_cells(false).into_iter().chain(churn_cells(true)) {
            // M/G/∞: offered concurrency = arrival rate × mean lifetime.
            let offered = cell.arrivals_per_sec * cell.mean_lifetime_s;
            let drift = (offered - cell.initial as f64).abs() / cell.initial as f64;
            assert!(
                drift < 0.01,
                "{}: offered {offered} vs {}",
                cell.name,
                cell.initial
            );
        }
    }

    #[test]
    fn the_100k_cell_expects_over_100k_flows() {
        let cells = churn_cells(false);
        let big = cells.iter().find(|c| c.name == "churn-100k").unwrap();
        assert!(big.expected_total() > 105_000.0);
    }

    #[test]
    fn scale_jobs_have_distinct_identities() {
        let cells = churn_cells(false);
        let a = churn_job(cells[0], 1);
        let b = churn_job(cells[1], 1);
        let f = fair_job(fair_cells(false)[0].0, 1);
        let h0 = harm_job(harm_cell(false), false, 1, Traces::off());
        let h1 = harm_job(harm_cell(false), true, 1, Traces::off());
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), f.key());
        assert_ne!(h0.key(), h1.key());
        // The cache identity, literally, as the parent commit wrote it.
        let quick = churn_job(churn_cells(true)[0], 1);
        assert_eq!(
            quick.descriptor(),
            "scale-churn/cell=churn-250/n=250/arr=50.0/life=5.0/bw=250.0/secs=16.0/seed=1/v1"
        );
        assert_eq!(quick.key().hex(), "7446923650ea5286");
    }

    /// The harm pair's two cache identities, literally, as the parent
    /// commit wrote them; every harm cell on the link shares the alone run.
    #[test]
    fn harm_jobs_keep_their_identities() {
        let alone = harm_job(harm_cell(true), false, 1, Traces::off());
        let pair = harm_job(harm_cell(true), true, 1, Traces::off());
        assert_eq!(
            alone.descriptor(),
            "scale-harm/primaries=4/bw=100.0/secs=16.0/seed=1/alone/v1"
        );
        assert_eq!(alone.key().hex(), "f8daee39d5dc8976");
        assert_eq!(
            pair.descriptor(),
            "scale-harm/cell=harm-10/primaries=4/scav=10/arr=2.0/life=5.0/bw=100.0/secs=16.0/seed=1/pair/v1"
        );
        assert_eq!(pair.key().hex(), "3ec8cbaec28195db");
        let dense_alone = harm_job(harm_dense_cell(true), false, 1, Traces::off());
        assert_eq!(alone.key(), dense_alone.key());
    }
}
