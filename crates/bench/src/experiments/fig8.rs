//! Fig. 8: primary-throughput-ratio CDF across bottleneck configurations
//! (§6.2).
//!
//! The paper sweeps 180 configurations (bandwidth × RTT × buffer-BDP) and
//! lets BBR / CUBIC / Proteus-P compete with Proteus-S vs LEDBAT. We sweep
//! a representative sub-grid by default (full 6×6×5 grid is hours of
//! simulation; the sub-grid spans every bandwidth and the RTT/buffer
//! extremes) and report the CDF quantiles plus the median-gain headline.

use proteus_netsim::LinkSpec;
use proteus_stats::Ecdf;
use proteus_transport::Dur;

use crate::jobs::{campaign, decode_pair, decode_single, link_tag, pair_job, single_job};
use crate::report::{pct, write_report, Table};
use crate::RunCfg;

const PRIMARIES_FIG8: &[&str] = &["BBR", "CUBIC", "Proteus-P"];
const SCAVS_FIG8: &[&str] = &["Proteus-S", "LEDBAT"];

/// The configuration grid, `(bandwidth Mbps, rtt ms, buffer in BDP)`.
fn grid(quick: bool) -> Vec<(f64, u64, f64)> {
    if quick {
        return vec![(20.0, 30, 1.0), (100.0, 30, 2.0)];
    }
    let mut out = Vec::new();
    // Sub-grid of the paper's {20..500} × {5..200} × {0.2..5}: all six
    // bandwidths, three RTTs, three buffer depths (54 configs).
    for &bw in &[20.0, 50.0, 100.0, 200.0, 300.0, 500.0] {
        for &rtt in &[10u64, 30, 100] {
            for &bdp in &[0.5, 1.0, 2.0] {
                out.push((bw, rtt, bdp));
            }
        }
    }
    out
}

/// Runs the Fig.-8 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 20.0 } else { 30.0 };
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); PRIMARIES_FIG8.len() * SCAVS_FIG8.len()];

    // Submit the whole grid as one campaign: an "alone" baseline per
    // (config, primary) plus a pair run per (config, primary, scavenger).
    let mut camp = campaign("fig8", cfg);
    let mut slots: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (ci, &(bw, rtt_ms, bdp)) in grid(cfg.quick).iter().enumerate() {
        for (pi, &primary) in PRIMARIES_FIG8.iter().enumerate() {
            let link = LinkSpec::new(bw, Dur::from_millis(rtt_ms), 1).with_buffer_bdp(bdp);
            let tag = link_tag(&link);
            let seed = cfg.seed + ci as u64 * 13;
            let alone = camp.push_dedup(single_job(
                "fig8", &tag, primary, link, secs, seed, cfg.trace,
            ));
            let pairs = SCAVS_FIG8
                .iter()
                .map(|&scav| {
                    camp.push_dedup(pair_job(
                        "fig8", &tag, primary, scav, link, secs, seed, cfg.trace,
                    ))
                })
                .collect();
            slots.push((pi, alone, pairs));
        }
    }
    let result = camp.run();

    for (pi, alone_slot, pair_slots) in slots {
        let alone_mbps = decode_single(&result.outputs[alone_slot])
            .tail_mbps
            .max(1e-6);
        for (si, pair_slot) in pair_slots.into_iter().enumerate() {
            let both = decode_pair(&result.outputs[pair_slot]);
            let ratio = (both.primary_mbps / alone_mbps).min(1.2);
            ratios[pi * SCAVS_FIG8.len() + si].push(ratio);
        }
    }

    let mut t = Table::new(
        "Fig 8: primary throughput ratio over the config sweep (CDF quantiles)",
        &[
            "primary",
            "scavenger",
            "p10",
            "p25",
            "median",
            "p75",
            "p90",
            ">=90% of cases",
        ],
    );
    let mut medians = vec![0.0; ratios.len()];
    for (pi, &primary) in PRIMARIES_FIG8.iter().enumerate() {
        for (si, &scav) in SCAVS_FIG8.iter().enumerate() {
            let e = Ecdf::new(ratios[pi * SCAVS_FIG8.len() + si].iter().copied());
            medians[pi * SCAVS_FIG8.len() + si] = e.median().unwrap_or(0.0);
            t.row(vec![
                primary.into(),
                scav.into(),
                pct(e.quantile(0.10).unwrap_or(0.0)),
                pct(e.quantile(0.25).unwrap_or(0.0)),
                pct(e.median().unwrap_or(0.0)),
                pct(e.quantile(0.75).unwrap_or(0.0)),
                pct(e.quantile(0.90).unwrap_or(0.0)),
                pct(e.fraction_at_least(0.90)),
            ]);
        }
    }

    let mut gains = Table::new(
        "Median primary gain with Proteus-S vs LEDBAT (paper: BBR +7.8%, CUBIC +28%, Proteus-P +2.8x)",
        &["primary", "median_vs_ProteusS", "median_vs_LEDBAT", "gain"],
    );
    for (pi, &primary) in PRIMARIES_FIG8.iter().enumerate() {
        let m_s = medians[pi * 2];
        let m_l = medians[pi * 2 + 1].max(1e-9);
        gains.row(vec![
            primary.into(),
            pct(m_s),
            pct(m_l),
            format!("{:.2}x", m_s / m_l),
        ]);
    }

    let text = format!("{}\n{}\n", t.render(), gains.render());
    write_report("fig8", &text, &[&t, &gains]);
    text
}
