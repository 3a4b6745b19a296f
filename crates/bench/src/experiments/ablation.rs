//! Ablations of Proteus' design choices.
//!
//! §5's closing note says each tolerance mechanism matters but the paper
//! "does not have enough space to show how each... contributes". This
//! module fills that gap:
//!
//! 1. **Noise mechanisms** — Proteus-S single-flow throughput on noisy
//!    WiFi paths with each §5 mechanism disabled in turn (the per-ACK
//!    filter, per-MI regression-error tolerance, trending tolerance), plus
//!    Vivace's flat threshold as the no-adaptation baseline.
//! 2. **Majority rule** — three-pair majority vs Vivace's two-pair
//!    agreement probing, same noisy paths.
//! 3. **Deviation coefficient** — the scavenger's equilibrium share against
//!    a Proteus-P primary as `d` sweeps around the paper's 1500.
//! 4. **Stable-link sanity** — per-MI tolerance is what lets a Proteus
//!    sender saturate even a clean bottleneck (the paper's stated reason
//!    for mechanism 2).
//!
//! All four sweeps are submitted as one campaign; the Proteus-P reference
//! run shares its cache descriptor with Fig. 6's alone baselines.

use proteus_core::{
    AdaptiveNoiseParams, Mode, NoiseTolerance, ProbeRule, ProteusConfig, ProteusSender,
};
use proteus_netsim::{FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, Campaign, SimJob};
use proteus_transport::Dur;

use crate::experiments::wifi::{path_tag, wifi_paths};
use crate::jobs::{
    campaign, decode_single, link_tag, scenario_job, single_job, tail_mbps, tail_window,
};
use crate::protocols::cc;
use crate::report::{f2, pct, write_report, Table};
use crate::RunCfg;

/// Named noise-tolerance variants for ablation runs: the paper's Proteus
/// config with each tolerance in turn.
fn noise_variants() -> Vec<(&'static str, ProteusConfig)> {
    let full = AdaptiveNoiseParams::default();
    [
        ("full (paper)", NoiseTolerance::Adaptive(full)),
        (
            "no ACK filter",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                ack_interval_ratio: f64::INFINITY,
                ..full
            }),
        ),
        (
            "no per-MI gate",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                per_mi_tolerance: false,
                ..full
            }),
        ),
        (
            "no trending gate",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                trending_tolerance: false,
                ..full
            }),
        ),
        (
            "flat threshold (Vivace)",
            NoiseTolerance::FixedThreshold(0.01),
        ),
    ]
    .into_iter()
    .map(|(label, noise)| {
        let cfg = ProteusConfig {
            noise,
            ..ProteusConfig::proteus()
        };
        (label, cfg)
    })
    .collect()
}

/// Proteus-S on `cfg`, seeded `seed`, alone on `link`; the reader returns
/// `[utilization]`.
fn scavenger_alone(
    link: LinkSpec,
    secs: f64,
    seed: u64,
    cfg: ProteusConfig,
) -> (Scenario, impl FnOnce(&SimResult) -> Vec<f64>) {
    let cfg = cfg.with_seed(seed);
    let sc = Scenario::new(link, Dur::from_secs_f64(secs))
        .flow(FlowSpec::bulk("s", Dur::ZERO, move || {
            Box::new(ProteusSender::with_config(cfg, Mode::Scavenger))
        }))
        .with_seed(seed)
        .with_rtt_stride(2);
    (sc, move |res: &SimResult| {
        vec![tail_mbps(res, 0, secs) / link.bandwidth_mbps]
    })
}

/// [`scavenger_alone`] as a job of `exp`, the variant named `key=label` in
/// its descriptor, on the link `tag` identifies; payload `[utilization]`.
#[allow(clippy::too_many_arguments)]
fn scavenger_job(
    exp: &'static str,
    key: &str,
    label: &'static str,
    cfg: ProteusConfig,
    tag: &str,
    link: LinkSpec,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    scenario_job(
        exp,
        format!("{exp}/{key}={label}/{tag}/secs={secs:?}/seed={seed}"),
        format!("{label}-{tag}-s{seed}"),
        traced,
        move || scavenger_alone(link, secs, seed, cfg),
    )
}

fn ablation1_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let n_paths = if cfg.quick { 2 } else { 10 };
    let secs = if cfg.quick { 20.0 } else { 40.0 };
    let path_seed = cfg.seed ^ 0xAB1;
    let paths = wifi_paths(n_paths, path_seed);
    noise_variants()
        .into_iter()
        .map(|(label, scav)| {
            paths
                .iter()
                .enumerate()
                .map(|(ci, link)| {
                    camp.push_dedup(scavenger_job(
                        "ablation1",
                        "variant",
                        label,
                        scav,
                        &path_tag(path_seed, ci),
                        *link,
                        secs,
                        cfg.seed + ci as u64,
                        cfg.trace,
                    ))
                })
                .collect()
        })
        .collect()
}

fn ablation1_table(outputs: &[String], slots: &[Vec<usize>]) -> Table {
    let mut t = Table::new(
        "Ablation 1: Proteus-S mean utilization on noisy WiFi paths, one §5 mechanism removed at a time",
        &["variant", "mean_utilization"],
    );
    for ((label, _), per_path) in noise_variants().into_iter().zip(slots) {
        let total: f64 = per_path
            .iter()
            .map(|&s| payload::decode_floats(&outputs[s])[0])
            .sum();
        t.row(vec![label.into(), pct(total / per_path.len() as f64)]);
    }
    t
}

const RULES: &[(&str, ProbeRule)] = &[
    ("3-pair majority (Proteus)", ProbeRule::Majority),
    ("2-pair agreement (Vivace)", ProbeRule::Agreement),
];

fn ablation2_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let n_paths = if cfg.quick { 2 } else { 10 };
    let secs = if cfg.quick { 20.0 } else { 40.0 };
    let path_seed = cfg.seed ^ 0xAB2;
    let paths = wifi_paths(n_paths, path_seed);
    RULES
        .iter()
        .map(|&(label, rule)| {
            let mut scav = ProteusConfig::proteus();
            scav.rate_control.probe_rule = rule;
            paths
                .iter()
                .enumerate()
                .map(|(ci, link)| {
                    let tag = path_tag(path_seed, ci);
                    let seed = cfg.seed + ci as u64;
                    camp.push_dedup(scavenger_job(
                        "ablation2",
                        "rule",
                        label,
                        scav,
                        &tag,
                        *link,
                        secs,
                        seed,
                        cfg.trace,
                    ))
                })
                .collect()
        })
        .collect()
}

fn ablation2_table(outputs: &[String], slots: &[Vec<usize>]) -> Table {
    let mut t = Table::new(
        "Ablation 2: probing decision rule on noisy paths (Proteus-S utilization)",
        &["rule", "mean_utilization"],
    );
    for (&(label, _), per_path) in RULES.iter().zip(slots) {
        let total: f64 = per_path
            .iter()
            .map(|&s| payload::decode_floats(&outputs[s])[0])
            .sum();
        t.row(vec![label.into(), pct(total / per_path.len() as f64)]);
    }
    t
}

fn ablation3_coefs(quick: bool) -> &'static [f64] {
    if quick {
        &[1500.0]
    } else {
        &[375.0, 750.0, 1500.0, 3000.0, 6000.0]
    }
}

/// Proteus-P from 0 against a Proteus-S with deviation coefficient `d`
/// from 5 s on the paper-default link; payload
/// `[primary_mbps, scavenger_mbps]` over the tail.
fn deviation_job(d: f64, secs: f64, seed: u64, traced: bool) -> SimJob {
    scenario_job(
        "ablation3",
        format!("ablation3/d={d:?}/secs={secs:?}/seed={seed}"),
        format!("d={d:?}-s{seed}"),
        traced,
        move || {
            let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
            let mut scav = ProteusConfig::proteus().with_seed(seed ^ 0x5A);
            scav.utility.deviation_coef = d;
            let sc = Scenario::new(link, Dur::from_secs_f64(secs))
                .flow(FlowSpec::bulk("p", Dur::ZERO, move || {
                    cc("Proteus-P", seed ^ 0xA5)
                }))
                .flow(FlowSpec::bulk("s", Dur::from_secs(5), move || {
                    Box::new(ProteusSender::with_config(scav, Mode::Scavenger))
                }))
                .with_seed(seed)
                .with_rtt_stride(2);
            (sc, move |res: &SimResult| {
                let (a, b) = tail_window(secs);
                vec![
                    res.flows[0].throughput_mbps(a, b),
                    res.flows[1].throughput_mbps(a, b),
                ]
            })
        },
    )
}

fn ablation3_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<usize> {
    let secs = if cfg.quick { 30.0 } else { 60.0 };
    ablation3_coefs(cfg.quick)
        .iter()
        .map(|&d| camp.push_dedup(deviation_job(d, secs, cfg.seed, cfg.trace)))
        .collect()
}

fn ablation3_table(cfg: RunCfg, outputs: &[String], slots: &[usize]) -> Table {
    let mut t = Table::new(
        "Ablation 3: scavenger share vs deviation coefficient d (vs Proteus-P primary; paper default d = 1500)",
        &["d", "primary_Mbps", "scavenger_Mbps", "scavenger_share"],
    );
    for (&d, &slot) in ablation3_coefs(cfg.quick).iter().zip(slots) {
        let vals = payload::decode_floats(&outputs[slot]);
        let (p, s) = (vals[0], vals[1]);
        t.row(vec![
            format!("{d:.0}"),
            f2(p),
            f2(s),
            pct(s / (p + s).max(1e-9)),
        ]);
    }
    t
}

/// `(variant slots, Proteus-P reference slot)`.
fn ablation4_submit(cfg: RunCfg, camp: &mut Campaign) -> (Vec<usize>, usize) {
    let secs = if cfg.quick { 20.0 } else { 60.0 };
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    let tag = link_tag(&link);
    let variants = noise_variants()
        .into_iter()
        .map(|(label, scav)| {
            camp.push_dedup(scavenger_job(
                "ablation4",
                "variant",
                label,
                scav,
                &tag,
                link,
                secs,
                cfg.seed ^ 0xA5,
                cfg.trace,
            ))
        })
        .collect();
    // Reference: Proteus-P on the same link, via the shared single-flow
    // descriptor (cache-compatible with Fig. 6's alone baselines).
    let reference = camp.push_dedup(single_job(
        "ablation4",
        &tag,
        "Proteus-P",
        link,
        secs,
        cfg.seed,
        cfg.trace,
    ));
    (variants, reference)
}

fn ablation4_table(outputs: &[String], slots: &(Vec<usize>, usize)) -> Table {
    let mut t = Table::new(
        "Ablation 4: clean 50 Mbps bottleneck — per-MI tolerance and saturation",
        &["variant", "throughput_Mbps"],
    );
    for ((label, _), &slot) in noise_variants().into_iter().zip(&slots.0) {
        // Variant payloads are utilizations of the 50 Mbps link.
        let util = payload::decode_floats(&outputs[slot])[0];
        t.row(vec![label.into(), f2(util * 50.0)]);
    }
    let reference = decode_single(&outputs[slots.1]);
    t.row(vec!["Proteus-P reference".into(), f2(reference.tail_mbps)]);
    t
}

/// Runs the ablation suite.
pub fn run_experiment(cfg: RunCfg) -> String {
    let mut camp = campaign("ablation", cfg);
    let s1 = ablation1_submit(cfg, &mut camp);
    let s2 = ablation2_submit(cfg, &mut camp);
    let s3 = ablation3_submit(cfg, &mut camp);
    let s4 = ablation4_submit(cfg, &mut camp);
    let result = camp.run();
    let out = &result.outputs;

    let t1 = ablation1_table(out, &s1);
    let t2 = ablation2_table(out, &s2);
    let t3 = ablation3_table(cfg, out, &s3);
    let t4 = ablation4_table(out, &s4);
    let text = format!(
        "{}\n{}\n{}\n{}\n",
        t1.render(),
        t2.render(),
        t3.render(),
        t4.render()
    );
    write_report("ablation", &text, &[&t1, &t2, &t3, &t4]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ablations 1–3's cache identities, literally, as the parent commit
    /// wrote them.
    #[test]
    fn ablation_descriptors_are_pinned() {
        let off = false;
        let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
        let (label, scav) = noise_variants()[0];
        let tag = path_tag(1 ^ 0xAB1, 0);
        let a1 = scavenger_job(
            "ablation1",
            "variant",
            label,
            scav,
            &tag,
            link,
            20.0,
            1,
            off,
        );
        assert_eq!(
            a1.descriptor(),
            "ablation1/variant=full (paper)/wifipath=0,pathseed=2736/secs=20.0/seed=1/v1"
        );
        assert_eq!(a1.key().hex(), "0875bc53f144a69b");
        let tag = path_tag(1 ^ 0xAB2, 0);
        let a2 = scavenger_job(
            "ablation2",
            "rule",
            RULES[0].0,
            scav,
            &tag,
            link,
            20.0,
            1,
            off,
        );
        assert_eq!(
            a2.descriptor(),
            "ablation2/rule=3-pair majority (Proteus)/wifipath=0,pathseed=2739/secs=20.0/seed=1/v1"
        );
        assert_eq!(a2.key().hex(), "35819d8c137d3236");
        let a3 = deviation_job(1500.0, 30.0, 1, off);
        assert_eq!(a3.descriptor(), "ablation3/d=1500.0/secs=30.0/seed=1/v1");
        assert_eq!(a3.key().hex(), "f6e6e6b62a3888f6");
    }
}
