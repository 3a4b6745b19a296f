//! Figs. 9 & 10: single-flow throughput and yielding on noisy "WiFi" paths
//! (§6.2.1).
//!
//! The paper measures 64 real source–destination WiFi pairs (4 locations ×
//! 16 AWS regions). We substitute seeded synthetic paths whose bandwidth,
//! RTT and noise parameters span the envelope the paper describes (typical
//! RTT deviation up to ~5 ms, occasional spikes of tens of ms, bursty ACK
//! reception). Fig. 9 reports per-path normalized single-flow throughput;
//! Fig. 10 the primary-throughput-ratio CDFs against each scavenger.

use proteus_netsim::{LinkSpec, NoiseConfig, WifiNoiseConfig};
use proteus_stats::Ecdf;
use proteus_transport::Dur;

use rand::rngs::SmallRng;
use rand::{RngExt as _, SeedableRng};

use crate::jobs::{campaign, decode_pair, decode_single, pair_job, single_job};
use crate::protocols::{ALL_FIG3, PRIMARIES};
use crate::report::{pct, write_report, Table};
use crate::RunCfg;

/// Builds `n` synthetic WiFi paths.
pub fn wifi_paths(n: usize, seed: u64) -> Vec<LinkSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x31F1);
    (0..n)
        .map(|_| {
            let bw = 15.0 + rng.random::<f64>() * 60.0; // 15–75 Mbps uplink
            let rtt_ms = 20.0 + rng.random::<f64>() * 60.0; // 20–80 ms
            let noise = WifiNoiseConfig {
                jitter_std: Dur::from_micros((500.0 + rng.random::<f64>() * 2_500.0) as u64),
                spike_prob: 0.001 + rng.random::<f64>() * 0.008,
                spike_min: Dur::from_millis(8 + (rng.random::<f64>() * 10.0) as u64),
                spike_alpha: 1.5 + rng.random::<f64>(),
                ack_burst_interval: Dur::from_millis(4 + (rng.random::<f64>() * 8.0) as u64),
                ack_burst_duty: 0.1 + rng.random::<f64>() * 0.5,
            };
            LinkSpec::new(bw, Dur::from_secs_f64(rtt_ms / 1e3), 1)
                .with_buffer_bdp(1.0 + rng.random::<f64>())
                .with_noise(NoiseConfig::Wifi(noise))
        })
        .collect()
}

/// Stable cache tag for synthetic path `ci` of [`wifi_paths`] seeded with
/// `path_seed`. A path is a pure function of `(path_seed, ci)` — the RNG
/// draws a fixed number of values per path — so this pins its identity
/// without spelling out every noise parameter.
pub fn path_tag(path_seed: u64, ci: usize) -> String {
    format!("wifipath={ci},pathseed={path_seed}")
}

/// Runs the Fig.-9 + Fig.-10 experiments.
pub fn run_experiment(cfg: RunCfg) -> String {
    let n_paths = if cfg.quick { 3 } else { 16 };
    let secs = if cfg.quick { 20.0 } else { 40.0 };
    let paths = wifi_paths(n_paths, cfg.seed);
    let scavs: &[&str] = &["Proteus-S", "LEDBAT", "LEDBAT-25"];

    // One campaign for both figures. Fig. 9's singles double as Fig. 10's
    // "alone" baselines for the primary protocols (same descriptors, so
    // push_dedup collapses them).
    let mut camp = campaign("fig9_10", cfg);
    let mut single_slots: Vec<Vec<usize>> = Vec::new(); // [path][proto]
    let mut pair_slots: Vec<Vec<Vec<usize>>> = Vec::new(); // [path][primary][scav]
    let mut alone_slots: Vec<Vec<usize>> = Vec::new(); // [path][primary]
    for (ci, link) in paths.iter().enumerate() {
        let tag = path_tag(cfg.seed, ci);
        let seed = cfg.seed + 7 * ci as u64;
        single_slots.push(
            ALL_FIG3
                .iter()
                .map(|&proto| {
                    camp.push_dedup(single_job(
                        "fig9", &tag, proto, *link, secs, seed, cfg.trace,
                    ))
                })
                .collect(),
        );
        alone_slots.push(
            PRIMARIES
                .iter()
                .map(|&primary| {
                    camp.push_dedup(single_job(
                        "fig10", &tag, primary, *link, secs, seed, cfg.trace,
                    ))
                })
                .collect(),
        );
        pair_slots.push(
            PRIMARIES
                .iter()
                .map(|&primary| {
                    scavs
                        .iter()
                        .map(|&scav| {
                            camp.push_dedup(pair_job(
                                "fig10", &tag, primary, scav, *link, secs, seed, cfg.trace,
                            ))
                        })
                        .collect()
                })
                .collect(),
        );
    }
    let result = camp.run();

    // ---- Fig. 9: normalized single-flow throughput. ----
    let mut normalized: Vec<Vec<f64>> = vec![Vec::new(); ALL_FIG3.len()];
    for slots in &single_slots {
        let per_path: Vec<f64> = slots
            .iter()
            .map(|&s| decode_single(&result.outputs[s]).tail_mbps)
            .collect();
        let best = per_path.iter().cloned().fold(0.0_f64, f64::max).max(1e-9);
        for (pi, v) in per_path.iter().enumerate() {
            normalized[pi].push(v / best);
        }
    }
    let mut fig9 = Table::new(
        "Fig 9: normalized single-flow throughput on WiFi paths (CDF quantiles)",
        &["protocol", "p25", "median", "p75", "mean"],
    );
    for (pi, &proto) in ALL_FIG3.iter().enumerate() {
        let e = Ecdf::new(normalized[pi].iter().copied());
        fig9.row(vec![
            proto.into(),
            pct(e.quantile(0.25).unwrap_or(0.0)),
            pct(e.median().unwrap_or(0.0)),
            pct(e.quantile(0.75).unwrap_or(0.0)),
            pct(e.mean().unwrap_or(0.0)),
        ]);
    }

    // ---- Fig. 10: yielding on the same paths. ----
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); PRIMARIES.len() * scavs.len()];
    for (ci, _) in paths.iter().enumerate() {
        for (pi, _) in PRIMARIES.iter().enumerate() {
            let alone_mbps = decode_single(&result.outputs[alone_slots[ci][pi]])
                .tail_mbps
                .max(1e-6);
            for (si, _) in scavs.iter().enumerate() {
                let both = decode_pair(&result.outputs[pair_slots[ci][pi][si]]);
                let ratio = (both.primary_mbps / alone_mbps).min(1.2);
                ratios[pi * scavs.len() + si].push(ratio);
            }
        }
    }
    let mut fig10 = Table::new(
        "Fig 10 (+Fig 22): primary throughput ratio on WiFi paths",
        &[
            "primary",
            "scavenger",
            "p25",
            "median",
            "p75",
            ">=90% of cases",
        ],
    );
    for (pi, &primary) in PRIMARIES.iter().enumerate() {
        for (si, &scav) in scavs.iter().enumerate() {
            let e = Ecdf::new(ratios[pi * scavs.len() + si].iter().copied());
            fig10.row(vec![
                primary.into(),
                scav.into(),
                pct(e.quantile(0.25).unwrap_or(0.0)),
                pct(e.median().unwrap_or(0.0)),
                pct(e.quantile(0.75).unwrap_or(0.0)),
                pct(e.fraction_at_least(0.90)),
            ]);
        }
    }

    let text = format!("{}\n{}\n", fig9.render(), fig10.render());
    write_report("fig9_10", &text, &[&fig9, &fig10]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_deterministic_and_in_envelope() {
        let a = wifi_paths(8, 3);
        let b = wifi_paths(8, 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bandwidth_mbps, y.bandwidth_mbps);
            assert_eq!(x.rtt, y.rtt);
        }
        for p in &a {
            assert!((15.0..=75.0).contains(&p.bandwidth_mbps));
            assert!(p.rtt >= Dur::from_millis(20) && p.rtt <= Dur::from_millis(80));
            assert!(matches!(p.noise, NoiseConfig::Wifi(_)));
        }
    }
}
