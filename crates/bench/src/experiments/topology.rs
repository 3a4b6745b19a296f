//! `topology`: multi-bottleneck campaigns on netsim's link DAGs — the
//! parking lot, an RTT-unfairness chain, and scavenger harm behind two
//! bottlenecks — with an invariant checker and a generated
//! `results/topology/` report.
//!
//! The paper's dumbbell experiments share one bottleneck by construction.
//! Real paths cross several, and the classic multi-bottleneck effects the
//! congestion-control literature predicts are exactly the ones a
//! reproduction should be able to demonstrate (see `SCENARIOS.md` for the
//! topology schema and `EXPERIMENTS.md` for the campaign contract):
//!
//! * **parking lot** — N+1 flows over an N-link chain: one "long" flow
//!   crosses every link, N "short" flows each cross one. Loss-based
//!   control is biased against the long flow (it sees N drop points and
//!   N links' worth of RTT), so `long ≤ avg(short)`; the shorts, being
//!   symmetric, stay fair among themselves; every link stays utilized;
//! * **rtt-unfairness** — two flows share one bottleneck but the far flow
//!   first crosses an overprovisioned high-latency hop. CUBIC's RTT bias
//!   hands the near flow a super-proportional share (`near/far ≥ 1.3`)
//!   while the bottleneck itself stays saturated;
//! * **scavenger-harm** — a CUBIC primary per link of a two-link chain and
//!   one Proteus-S scavenger crossing both, arriving late: each primary
//!   keeps ≥ 70% of what it gets alone on the same topology — the §3
//!   yielding contract must survive a scavenger that is policed by *two*
//!   bottlenecks' deviation signals at once.
//!
//! Reports land in `results/topology/report.txt` (+ CSVs); the campaign is
//! deterministic, so two runs produce byte-identical reports.

use proteus_netsim::{FlowSpec, LinkId, LinkSpec, Scenario, SimResult, Topology};
use proteus_stats::jain_index;
use proteus_transport::Dur;

use proteus_runner::{payload, SimJob};

use crate::invariants::{finish, Check, Layout, Outcome};
use crate::jobs::{campaign, scenario_job, tail_mbps, Traces};
use crate::protocols::cc;
use crate::report::{f2, Table};
use crate::RunCfg;

/// Parking-lot chain lengths exercised by the campaign.
pub const PARKING_SIZES: &[usize] = &[2, 3];

/// Protocols driven through the parking lot (every flow uses the same one).
pub const PARKING_PROTOCOLS: &[&str] = &["CUBIC", "Proteus-P"];

/// One parking-lot link: the paper-default rate with a short per-hop RTT so
/// a three-hop path still has a moderate base RTT.
fn parking_link() -> LinkSpec {
    LinkSpec::new(50.0, Dur::from_millis(10), 375_000)
}

/// The RTT-unfairness chain: an overprovisioned, high-latency access hop in
/// front of the shared bottleneck. `links[1]` is the bottleneck.
fn rtt_chain() -> Topology {
    Topology::chain(vec![
        LinkSpec::new(500.0, Dur::from_millis(60), 2_500_000),
        LinkSpec::new(50.0, Dur::from_millis(20), 375_000),
    ])
}

/// The scavenger-harm chain: two equal bottlenecks, one primary each.
fn harm_chain() -> Topology {
    Topology::chain(vec![
        LinkSpec::new(50.0, Dur::from_millis(15), 375_000),
        LinkSpec::new(50.0, Dur::from_millis(15), 375_000),
    ])
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// N+1 flows over an N-link parking lot, all running `proto`. Payload:
/// `[long_mbps, short_mbps × n, link_utilization × n]`.
fn parking_job(n: usize, proto: &'static str, secs: f64, seed: u64, traces: Traces) -> SimJob {
    scenario_job(
        "topology",
        format!("topology-parking/n={n}/proto={proto}/secs={secs:?}/seed={seed}"),
        format!("parking-{n}-{proto}-s{seed}"),
        traces,
        move || {
            let mut sc = Scenario::over(
                Topology::parking_lot(n, parking_link()),
                Dur::from_secs_f64(secs),
            )
            .with_seed(seed)
            .with_rtt_stride(2)
            .flow(FlowSpec::bulk("long", Dur::ZERO, move || {
                cc(proto, seed ^ 0xB0)
            }));
            for i in 0..n {
                let salt = 0xB1 + i as u64;
                sc = sc.flow(
                    FlowSpec::bulk("short", Dur::ZERO, move || cc(proto, seed ^ salt))
                        .with_path([i as LinkId]),
                );
            }
            (sc, move |res: &SimResult| {
                let mut v = vec![tail_mbps(res, 0, secs)];
                v.extend((0..n).map(|i| tail_mbps(res, 1 + i, secs)));
                v.extend(
                    res.links
                        .iter()
                        .map(|l| l.utilization(Dur::from_secs_f64(secs))),
                );
                v
            })
        },
    )
}

/// Near (bottleneck only) vs far (access hop + bottleneck) flow, both
/// running `proto`. Payload: `[near_mbps, far_mbps, bottleneck_util]`.
fn rtt_job(proto: &'static str, secs: f64, seed: u64, traces: Traces) -> SimJob {
    scenario_job(
        "topology",
        format!("topology-rtt/proto={proto}/secs={secs:?}/seed={seed}"),
        format!("rtt-{proto}-s{seed}"),
        traces,
        move || {
            let sc = Scenario::over(rtt_chain(), Dur::from_secs_f64(secs))
                .with_seed(seed)
                .with_rtt_stride(2)
                .flow(
                    FlowSpec::bulk("near", Dur::ZERO, move || cc(proto, seed ^ 0xC0))
                        .with_path([1]),
                )
                .flow(
                    FlowSpec::bulk("far", Dur::ZERO, move || cc(proto, seed ^ 0xC1))
                        .with_path([0, 1]),
                );
            (sc, move |res: &SimResult| {
                vec![
                    tail_mbps(res, 0, secs),
                    tail_mbps(res, 1, secs),
                    res.links[1].utilization(Dur::from_secs_f64(secs)),
                ]
            })
        },
    )
}

/// One CUBIC primary per link of the two-link chain; `scav` adds a late
/// Proteus-S flow crossing both. Payload:
/// `[primary0_mbps, primary1_mbps, scav_mbps (0 when absent)]`.
fn harm_job(scav: bool, secs: f64, seed: u64, traces: Traces) -> SimJob {
    scenario_job(
        "topology",
        format!("topology-harm/scav={scav}/secs={secs:?}/seed={seed}"),
        format!("harm-{}-s{seed}", if scav { "pair" } else { "alone" }),
        traces,
        move || {
            let mut sc = Scenario::over(harm_chain(), Dur::from_secs_f64(secs))
                .with_seed(seed)
                .with_rtt_stride(2)
                .flow(
                    FlowSpec::bulk("primary-0", Dur::ZERO, move || cc("CUBIC", seed ^ 0xD0))
                        .with_path([0]),
                )
                .flow(
                    FlowSpec::bulk("primary-1", Dur::ZERO, move || cc("CUBIC", seed ^ 0xD1))
                        .with_path([1]),
                );
            if scav {
                sc = sc.flow(FlowSpec::bulk(
                    "scavenger",
                    Dur::from_secs_f64(secs * 0.2),
                    move || cc("Proteus-S", seed ^ 0xD2),
                ));
            }
            (sc, move |res: &SimResult| {
                vec![
                    tail_mbps(res, 0, secs),
                    tail_mbps(res, 1, secs),
                    if scav { tail_mbps(res, 2, secs) } else { 0.0 },
                ]
            })
        },
    )
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// Runs the multi-bottleneck campaign and returns both the rendered report
/// and the machine-checkable invariant verdicts.
pub fn run_with_outcome(cfg: RunCfg) -> Outcome {
    let secs = if cfg.quick { 24.0 } else { 60.0 };
    let traces = Traces::from_cfg(&cfg);

    let mut camp = campaign("topology", cfg);
    let mut parking_slots: Vec<(usize, &'static str, usize)> = Vec::new();
    for &n in PARKING_SIZES {
        for &proto in PARKING_PROTOCOLS {
            let slot = camp.push_dedup(parking_job(n, proto, secs, cfg.seed, traces));
            parking_slots.push((n, proto, slot));
        }
    }
    let rtt_slots: Vec<(&'static str, usize)> = PARKING_PROTOCOLS
        .iter()
        .map(|&proto| {
            (
                proto,
                camp.push_dedup(rtt_job(proto, secs, cfg.seed, traces)),
            )
        })
        .collect();
    let harm_alone = camp.push_dedup(harm_job(false, secs, cfg.seed, traces));
    let harm_pair = camp.push_dedup(harm_job(true, secs, cfg.seed, traces));
    let result = camp.run();

    let mut checks: Vec<Check> = Vec::new();

    // ---- Parking lot. ----
    let mut parking = Table::new(
        "Parking lot: tail goodput (Mbps) and per-link utilization",
        &["cell", "long", "shorts", "jain(shorts)", "min-util"],
    );
    for &(n, proto, slot) in &parking_slots {
        let v = payload::decode_floats(&result.outputs[slot]);
        let long = v[0];
        let shorts = &v[1..1 + n];
        let utils = &v[1 + n..1 + 2 * n];
        let jain = jain_index(shorts).unwrap_or(0.0);
        let min_util = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        let cell = format!("parking-{n}/{proto}");
        parking.row(vec![
            cell.clone(),
            f2(long),
            shorts.iter().map(|&s| f2(s)).collect::<Vec<_>>().join("|"),
            format!("{jain:.3}"),
            format!("{min_util:.3}"),
        ]);

        let mut check = |name, value, pass| checks.push(Check::new([&cell], name, value, pass));
        let min_flow = shorts.iter().cloned().fold(long, f64::min);
        check("progress", min_flow, min_flow > 0.5);
        check("links-utilized", min_util, min_util >= 0.8);
        // The long flow crosses every bottleneck; loss-based and
        // deviation-based control both bias against it. A small tolerance
        // keeps the check about the *direction* of the bias.
        let avg_short = shorts.iter().sum::<f64>() / n as f64;
        let ratio = long / avg_short.max(1e-9);
        check("long-flow-disadvantage", ratio, ratio <= 1.05);
        check("short-flow-fairness", jain, jain >= 0.8);
    }

    // ---- RTT unfairness. ----
    let mut rtt = Table::new(
        "RTT unfairness: near (20 ms) vs far (80 ms) across one bottleneck",
        &["cell", "near", "far", "near/far", "bneck-util"],
    );
    for &(proto, slot) in &rtt_slots {
        let v = payload::decode_floats(&result.outputs[slot]);
        let (near, far, util) = (v[0], v[1], v[2]);
        let ratio = near / far.max(1e-9);
        let cell = format!("rtt/{proto}");
        rtt.row(vec![
            cell.clone(),
            f2(near),
            f2(far),
            f2(ratio),
            format!("{util:.3}"),
        ]);
        let mut check = |name, value, pass| checks.push(Check::new([&cell], name, value, pass));
        check("progress", near.min(far), near.min(far) > 0.5);
        check("bottleneck-saturated", util, util >= 0.8);
        // Only loss-based control is *expected* to show the classic RTT
        // bias; for the PCC family the ratio is reported, not pinned.
        if proto == "CUBIC" {
            check("rtt-bias", ratio, ratio >= 1.3);
        }
    }

    // ---- Scavenger harm across two bottlenecks. ----
    let alone = payload::decode_floats(&result.outputs[harm_alone]);
    let pair = payload::decode_floats(&result.outputs[harm_pair]);
    let mut harm = Table::new(
        "Scavenger harm: CUBIC per link, Proteus-S across both (Mbps)",
        &["flow", "alone", "with-scav", "ratio"],
    );
    for (i, name) in ["primary-0", "primary-1"].iter().enumerate() {
        let ratio = pair[i] / alone[i].max(1e-9);
        harm.row(vec![(*name).into(), f2(alone[i]), f2(pair[i]), f2(ratio)]);
        checks.push(Check::new(
            [&format!("harm/{name}")],
            "harm-bounded",
            ratio,
            ratio >= 0.7,
        ));
    }
    harm.row(vec![
        "scavenger".into(),
        "-".into(),
        f2(pair[2]),
        "-".into(),
    ]);

    finish(
        &Layout {
            campaign: "topology",
            report_file: "report.txt",
            body: &[
                (&parking, Some("parking.csv")),
                (&rtt, Some("rtt.csv")),
                (&harm, Some("harm.csv")),
            ],
            invariants_title: "Invariants: multi-bottleneck contracts",
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
    use crate::jobs::traced_artifacts;

    #[test]
    fn topology_jobs_have_distinct_identities() {
        let off = Traces::off();
        let a = parking_job(2, "CUBIC", 24.0, 1, off);
        let b = parking_job(3, "CUBIC", 24.0, 1, off);
        let c = parking_job(2, "Proteus-P", 24.0, 1, off);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        let r = rtt_job("CUBIC", 24.0, 1, off);
        let h0 = harm_job(false, 24.0, 1, off);
        let h1 = harm_job(true, 24.0, 1, off);
        assert_ne!(r.key(), h0.key());
        assert_ne!(h0.key(), h1.key());
        // The cache identity, literally, as the parent commit wrote it.
        assert_eq!(
            h1.descriptor(),
            "topology-harm/scav=true/secs=24.0/seed=1/v1"
        );
        assert_eq!(h1.key().hex(), "daa3458036951f99");
    }

    #[test]
    fn harm_cell_records_requested_traces() {
        let files = traced_artifacts(|traces| harm_job(true, 4.0, 1, traces));
        assert_eq!(files.len(), 2, "decision JSONL + telemetry JSONL");
        let (decisions, telemetry) = (&files[0], &files[1]);
        assert!(!telemetry.is_empty(), "no telemetry recorded");
        assert!(
            decisions
                .lines()
                .any(|l| l.contains("\"name\":\"scavenger\"")
                    && l.contains("\"event\":\"mi_close\"")),
            "the Proteus-S flow recorded no MI close"
        );
    }
}
