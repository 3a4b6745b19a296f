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
    UtilityParams,
};
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_runner::{payload, Campaign, SimJob};
use proteus_transport::{CongestionControl, Dur};

use crate::experiments::wifi::{path_tag, wifi_paths};
use crate::jobs::{campaign, decode_single, link_tag, single_job, tail_mbps, tail_window, Traces};
use crate::report::{f2, pct, write_report, Table};
use crate::RunCfg;

/// Named noise-tolerance variants for ablation runs.
fn noise_variants() -> Vec<(&'static str, NoiseTolerance)> {
    let full = AdaptiveNoiseParams::default();
    vec![
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
}

fn scavenger_with_noise(noise: NoiseTolerance, seed: u64) -> Box<dyn CongestionControl> {
    let mut cfg = ProteusConfig::proteus().with_seed(seed);
    cfg.noise = noise;
    Box::new(ProteusSender::with_config(cfg, Mode::Scavenger))
}

/// One scavenger flow with the given tolerance on `link`; payload
/// `[utilization]`.
fn noise_job(
    exp: &'static str,
    label: &'static str,
    tag: &str,
    noise: NoiseTolerance,
    link: LinkSpec,
    secs: f64,
    seed: u64,
) -> SimJob {
    SimJob::new(
        format!("{exp}/variant={label}/{tag}/secs={secs:?}/seed={seed}/v1"),
        format!("{exp} {label} {tag}"),
        move || {
            let sc = Scenario::new(link, Dur::from_secs_f64(secs))
                .flow(FlowSpec::bulk("s", Dur::ZERO, move || {
                    scavenger_with_noise(noise, seed)
                }))
                .with_seed(seed)
                .with_rtt_stride(2);
            let res = run(sc);
            payload::encode_floats(&[tail_mbps(&res, 0, secs) / link.bandwidth_mbps])
        },
    )
}

fn ablation1_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<Vec<usize>> {
    let n_paths = if cfg.quick { 2 } else { 10 };
    let secs = if cfg.quick { 20.0 } else { 40.0 };
    let path_seed = cfg.seed ^ 0xAB1;
    let paths = wifi_paths(n_paths, path_seed);
    noise_variants()
        .into_iter()
        .map(|(label, noise)| {
            paths
                .iter()
                .enumerate()
                .map(|(ci, link)| {
                    camp.push_dedup(noise_job(
                        "ablation1",
                        label,
                        &path_tag(path_seed, ci),
                        noise,
                        *link,
                        secs,
                        cfg.seed + ci as u64,
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
            paths
                .iter()
                .enumerate()
                .map(|(ci, link)| {
                    let link = *link;
                    let seed = cfg.seed + ci as u64;
                    camp.push_dedup(SimJob::new(
                        format!(
                            "ablation2/rule={label}/{}/secs={secs:?}/seed={seed}/v1",
                            path_tag(path_seed, ci)
                        ),
                        format!("ablation2 {label} path{ci}"),
                        move || {
                            let sc = Scenario::new(link, Dur::from_secs_f64(secs))
                                .flow(FlowSpec::bulk("s", Dur::ZERO, move || {
                                    let mut c = ProteusConfig::proteus().with_seed(seed);
                                    c.rate_control.probe_rule = rule;
                                    Box::new(ProteusSender::with_config(c, Mode::Scavenger))
                                }))
                                .with_seed(seed)
                                .with_rtt_stride(2);
                            let res = run(sc);
                            payload::encode_floats(
                                &[tail_mbps(&res, 0, secs) / link.bandwidth_mbps],
                            )
                        },
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

fn ablation3_submit(cfg: RunCfg, camp: &mut Campaign) -> Vec<usize> {
    let secs = if cfg.quick { 30.0 } else { 60.0 };
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    ablation3_coefs(cfg.quick)
        .iter()
        .map(|&d| {
            let seed = cfg.seed;
            camp.push_dedup(SimJob::new(
                format!("ablation3/d={d:?}/secs={secs:?}/seed={seed}/v1"),
                format!("ablation3 d={d:.0}"),
                move || {
                    let sc = Scenario::new(link, Dur::from_secs_f64(secs))
                        .flow(FlowSpec::bulk("p", Dur::ZERO, move || {
                            Box::new(ProteusSender::primary(seed ^ 0xA5))
                        }))
                        .flow(FlowSpec::bulk("s", Dur::from_secs(5), move || {
                            let mut c = ProteusConfig::proteus().with_seed(seed ^ 0x5A);
                            c.utility = UtilityParams {
                                deviation_coef: d,
                                ..UtilityParams::default()
                            };
                            Box::new(ProteusSender::with_config(c, Mode::Scavenger))
                        }))
                        .with_seed(seed)
                        .with_rtt_stride(2);
                    let res = run(sc);
                    let (a, b) = tail_window(secs);
                    payload::encode_floats(&[
                        res.flows[0].throughput_mbps(a, b),
                        res.flows[1].throughput_mbps(a, b),
                    ])
                },
            ))
        })
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
        .map(|(label, noise)| {
            camp.push_dedup(noise_job(
                "ablation4",
                label,
                &tag,
                noise,
                link,
                secs,
                cfg.seed ^ 0xA5,
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
        Traces::from_cfg(&cfg),
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
