//! Appendix B: "Tuning target extra delay cannot save LEDBAT" (Figs.
//! 15–20).
//!
//! Re-runs the core single-flow and competition sweeps with LEDBAT-25 (the
//! original IETF draft's 25 ms target) next to LEDBAT-100 and Proteus:
//! saturation vs buffer (Fig. 15), random-loss tolerance (Fig. 16),
//! multi-flow fairness (Fig. 17), the 4-flow latecomer timeline (Fig. 18),
//! yielding to primaries (Fig. 19) and the RTT-impact bars (Fig. 20).
//! The WiFi comparisons (Figs. 21/22) are produced by the `wifi` module,
//! which includes an LEDBAT-25 column.
//!
//! The whole suite is submitted as one campaign; its single-flow,
//! fairness and yield cells share cache descriptors with Figs. 3/5/6, so
//! a full `repro all` simulates each overlapping cell only once.

use proteus_netsim::{FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, Campaign, SimJob};
use proteus_transport::{Dur, Time};

use crate::experiments::fig5::fairness_job;
use crate::experiments::fig6::{cell_from_outputs, push_cell};
use crate::jobs::{campaign, decode_single, link_tag, scenario_job, single_job, Traces};
use crate::protocols::{cc, PRIMARIES};
use crate::report::{f2, f3, pct, write_report, Table};
use crate::RunCfg;

const LEDBATS: &[&str] = &["LEDBAT-25", "LEDBAT", "Proteus-S", "Proteus-P"];

fn fig15_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let secs = if cfg.quick { 20.0 } else { 60.0 };
    let buffers: &[u64] = if cfg.quick {
        &[75_000, 625_000]
    } else {
        &[4_500, 37_500, 150_000, 375_000, 625_000, 1_000_000]
    };
    buffers
        .iter()
        .map(|&buf| {
            LEDBATS
                .iter()
                .map(|&proto| {
                    let link = LinkSpec::new(50.0, Dur::from_millis(30), buf);
                    camp.push_dedup(single_job(
                        "fig15",
                        &link_tag(&link),
                        proto,
                        link,
                        secs,
                        cfg.seed,
                        Traces::from_cfg(&cfg),
                    ))
                })
                .collect()
        })
        .collect()
}

fn fig15_table(cfg: RunCfg, outputs: &[String], slots: &[Vec<usize>]) -> Table {
    let buffers: &[u64] = if cfg.quick {
        &[75_000, 625_000]
    } else {
        &[4_500, 37_500, 150_000, 375_000, 625_000, 1_000_000]
    };
    let mut t = Table::new(
        "Fig 15: saturation with varying buffer (throughput Mbps / inflation ratio)",
        &[
            "buffer_KB",
            "LEDBAT-25",
            "LEDBAT-100",
            "Proteus-S",
            "Proteus-P",
        ],
    );
    for (bi, &buf) in buffers.iter().enumerate() {
        let mut row = vec![format!("{:.1}", buf as f64 / 1e3)];
        for &slot in &slots[bi] {
            let out = decode_single(&outputs[slot]);
            let p95 = if out.p95_rtt_s > 0.0 {
                out.p95_rtt_s
            } else {
                0.030
            };
            let infl = ((p95 - 0.030) / (buf as f64 * 8.0 / 50e6)).max(0.0);
            row.push(format!("{:.1}/{:.2}", out.tail_mbps, infl));
        }
        t.row(row);
    }
    t
}

fn fig16_losses(quick: bool) -> &'static [f64] {
    if quick {
        &[0.0, 0.01]
    } else {
        &[0.0, 1e-4, 1e-3, 0.01, 0.03, 0.05]
    }
}

fn fig16_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let secs = if cfg.quick { 20.0 } else { 60.0 };
    fig16_losses(cfg.quick)
        .iter()
        .map(|&loss| {
            LEDBATS
                .iter()
                .map(|&proto| {
                    let link =
                        LinkSpec::new(50.0, Dur::from_millis(30), 1_000_000).with_random_loss(loss);
                    camp.push_dedup(single_job(
                        "fig16",
                        &link_tag(&link),
                        proto,
                        link,
                        secs,
                        cfg.seed,
                        Traces::from_cfg(&cfg),
                    ))
                })
                .collect()
        })
        .collect()
}

fn fig16_table(cfg: RunCfg, outputs: &[String], slots: &[Vec<usize>]) -> Table {
    let mut t = Table::new("Fig 16: throughput (Mbps) under random loss", &{
        let mut h = vec!["loss"];
        h.extend(LEDBATS);
        h
    });
    for (li, &loss) in fig16_losses(cfg.quick).iter().enumerate() {
        let mut row = vec![format!("{loss}")];
        for &slot in &slots[li] {
            row.push(f2(decode_single(&outputs[slot]).tail_mbps));
        }
        t.row(row);
    }
    t
}

fn fig17_counts(quick: bool) -> &'static [usize] {
    if quick {
        &[4]
    } else {
        &[2, 4, 6, 8, 10]
    }
}

fn fig17_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let measure = if cfg.quick { 40.0 } else { 120.0 };
    fig17_counts(cfg.quick)
        .iter()
        .map(|&n| {
            LEDBATS
                .iter()
                .map(|&proto| {
                    let traces = Traces::from_cfg(&cfg);
                    camp.push_dedup(fairness_job("fig17", proto, n, measure, cfg.seed, traces))
                })
                .collect()
        })
        .collect()
}

fn fig17_table(cfg: RunCfg, outputs: &[String], slots: &[Vec<usize>]) -> Table {
    let mut t = Table::new("Fig 17: Jain's index with competing flows", &{
        let mut h = vec!["n"];
        h.extend(LEDBATS);
        h
    });
    for (ni, &n) in fig17_counts(cfg.quick).iter().enumerate() {
        let mut row = vec![n.to_string()];
        for &slot in &slots[ni] {
            row.push(f3(payload::decode_floats(&outputs[slot])[0]));
        }
        t.row(row);
    }
    t
}

/// Four `proto` flows staggered 60 s apart on a large buffer; payload =
/// row-major `[flow][40 s bin]` throughput matrix.
fn fig18_job(proto: &'static str, total: f64, seed: u64, traces: Traces) -> SimJob {
    scenario_job(
        "fig18",
        format!("fig18/proto={proto}/total={total:?}/seed={seed}"),
        format!("fig18-{proto}-s{seed}"),
        traces,
        move || {
            let link = LinkSpec::new(80.0, Dur::from_millis(30), 4_000_000);
            let mut sc = Scenario::new(link, Dur::from_secs_f64(total))
                .with_seed(seed)
                .with_rtt_stride(64);
            for i in 0..4usize {
                sc = sc.flow(FlowSpec::bulk(
                    format!("{proto}-{i}"),
                    Dur::from_secs_f64(60.0 * i as f64),
                    move || cc(proto, seed + i as u64),
                ));
            }
            (sc, move |res: &SimResult| {
                let bins = (total / 40.0) as usize;
                let mut vals = Vec::with_capacity(4 * bins);
                for f in 0..4 {
                    for b in 0..bins {
                        let from = Time::from_secs_f64(b as f64 * 40.0);
                        let to = Time::from_secs_f64((b + 1) as f64 * 40.0);
                        vals.push(res.flows[f].throughput_mbps(from, to));
                    }
                }
                vals
            })
        },
    )
}

fn fig18_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<usize> {
    let total = if cfg.quick { 200.0 } else { 400.0 };
    LEDBATS
        .iter()
        .map(|&proto| camp.push_dedup(fig18_job(proto, total, cfg.seed, Traces::from_cfg(&cfg))))
        .collect()
}

fn fig18_tables(cfg: RunCfg, outputs: &[String], slots: &[usize]) -> Vec<Table> {
    let total = if cfg.quick { 200.0 } else { 400.0 };
    let bins = (total / 40.0) as usize;
    LEDBATS
        .iter()
        .zip(slots)
        .map(|(&proto, &slot)| {
            let vals = payload::decode_floats(&outputs[slot]);
            let mut t = Table::new(
                format!("Fig 18: 4-flow competition over time — {proto} (Mbps per 40 s bin)"),
                &["t_s", "flow1", "flow2", "flow3", "flow4"],
            );
            for b in 0..bins {
                let mut row = vec![format!("{}", b * 40)];
                for f in 0..4 {
                    row.push(f2(vals[f * bins + b]));
                }
                t.row(row);
            }
            t
        })
        .collect()
}

type Fig19Slots = Vec<Vec<(usize, usize)>>;

fn fig19_submit(cfg: RunCfg, camp: &mut Campaign) -> Fig19Slots {
    let secs = if cfg.quick { 25.0 } else { 60.0 };
    PRIMARIES
        .iter()
        .map(|&primary| {
            [75_000u64, 375_000]
                .iter()
                .map(|&buf| {
                    push_cell(
                        camp,
                        "fig19",
                        primary,
                        "LEDBAT-25",
                        buf,
                        secs,
                        cfg.seed,
                        Traces::from_cfg(&cfg),
                    )
                })
                .collect()
        })
        .collect()
}

fn fig19_table(outputs: &[String], slots: &Fig19Slots) -> Table {
    let mut t = Table::new(
        "Fig 19: LEDBAT-25 as scavenger — primary throughput ratio",
        &["primary", "ratio@75KB", "ratio@375KB"],
    );
    for (pi, &primary) in PRIMARIES.iter().enumerate() {
        let mut row = vec![primary.to_string()];
        for &cell_slots in &slots[pi] {
            row.push(pct(cell_from_outputs(outputs, cell_slots).ratio()));
        }
        t.row(row);
    }
    t
}

/// Runs the whole Appendix-B suite.
pub fn run_experiment(cfg: RunCfg) -> String {
    let mut camp = campaign("appendixB", cfg);
    let s15 = fig15_submit(cfg, &mut camp);
    let s16 = fig16_submit(cfg, &mut camp);
    let s17 = fig17_submit(cfg, &mut camp);
    let s18 = fig18_submit(cfg, &mut camp);
    let s19 = fig19_submit(cfg, &mut camp);
    let result = camp.run();
    let out = &result.outputs;

    let t15 = fig15_table(cfg, out, &s15);
    let t16 = fig16_table(cfg, out, &s16);
    let t17 = fig17_table(cfg, out, &s17);
    let t18 = fig18_tables(cfg, out, &s18);
    let t19 = fig19_table(out, &s19);
    let mut text = format!("{}\n{}\n{}\n", t15.render(), t16.render(), t17.render());
    for t in &t18 {
        text.push_str(&t.render());
        text.push('\n');
    }
    text.push_str(&t19.render());
    text.push('\n');
    let mut refs: Vec<&Table> = vec![&t15, &t16, &t17];
    refs.extend(t18.iter());
    refs.push(&t19);
    write_report("appendixB", &text, &refs);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_descriptor_is_pinned() {
        // The cache identity, literally, as the parent commit wrote it.
        let job = fig18_job("LEDBAT-25", 200.0, 1, Traces::off());
        assert_eq!(
            job.descriptor(),
            "fig18/proto=LEDBAT-25/total=200.0/seed=1/v1"
        );
        assert_eq!(job.key().hex(), "19623ecd8c1da9ef");
    }
}
