//! Fig. 11: application benchmarks with a background scavenger (§6.2.2).
//!
//! (a) 1/2/4/8 concurrent DASH videos on a ~100 Mbps downlink, with a
//! single background bulk flow running nothing / Proteus-S / LEDBAT /
//! CUBIC; reports the average chunk bitrate, averaged over `cfg.trials()`
//! seeds: one cell is a bimodal draw (an 8-video LEDBAT cell reads ≈ 2 Mbps
//! on five seeds of six and ≈ 8.5 on the sixth — EXPERIMENTS.md, "Seed
//! sweeps").
//! (b) Poisson web page loads (top-30-style sizes, 1 request / 10 s over a
//! 10-minute run) with the same backgrounds; reports page-load-time
//! quantiles.

use proteus_apps::video::corpus_1080p;
use proteus_apps::WebWorkload;
use proteus_netsim::{FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, SimJob};
use proteus_stats::Ecdf;
use proteus_transport::Dur;

use crate::experiments::video_util::{add_video_flow, VideoTransport};
use crate::jobs::{campaign, scenario_job};
use crate::protocols::cc;
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

const BACKGROUNDS: &[&str] = &["none", "Proteus-S", "LEDBAT", "CUBIC"];

fn link() -> LinkSpec {
    // Wired ~100 Mbps downlink (the paper's Xfinity line).
    LinkSpec::new(100.0, Dur::from_millis(30), 750_000)
}

fn add_background(sc: &mut Scenario, bg: &'static str, start: Dur) {
    if bg == "none" {
        return;
    }
    sc.flows
        .push(FlowSpec::bulk("background", start, move || cc(bg, 0xBADA)));
}

/// Campaign job for one DASH cell, `n` concurrent sessions sharing the link
/// with `bg`: payload `[mean chunk bitrate, Mbps]`, read from the sessions'
/// `Rc` stats handles, which are created and read inside the job.
fn dash_job(n: usize, bg: &'static str, secs: f64, seed: u64, traced: bool) -> SimJob {
    scenario_job(
        "fig11",
        format!("fig11/dash/videos={n}/bg={bg}/secs={secs:?}/seed={seed}"),
        format!("dash-{n}-{bg}-s{seed}"),
        traced,
        move || {
            let mut sc = Scenario::new(link(), Dur::from_secs_f64(secs))
                .with_seed(seed)
                .with_rtt_stride(16);
            let handles: Vec<_> = corpus_1080p(n, seed)
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    add_video_flow(
                        &mut sc,
                        v,
                        VideoTransport::Primary,
                        seed + i as u64,
                        false,
                        Dur::ZERO,
                    )
                })
                .collect();
            add_background(&mut sc, bg, Dur::ZERO);
            (sc, move |_: &SimResult| {
                vec![
                    handles
                        .iter()
                        .map(|h| h.borrow().avg_bitrate())
                        .sum::<f64>()
                        / n as f64,
                ]
            })
        },
    )
}

/// Campaign job for one page-load row, Poisson page loads generated for
/// `duration` sharing the link with `bg`: payload `[median, mean, p90,
/// pages]` of the page-load times (seconds), the statistics NaN when no
/// page completed.
fn web_job(bg: &'static str, duration: Dur, seed: u64, traced: bool) -> SimJob {
    scenario_job(
        "fig11",
        format!(
            "fig11/web/bg={bg}/duration={:?}/seed={seed}",
            duration.as_secs_f64()
        ),
        format!("web-{bg}-s{seed}"),
        traced,
        move || {
            let workload = WebWorkload {
                duration,
                ..WebWorkload::default()
            };
            let pages = workload.generate(seed);
            let mut sc = Scenario::new(link(), duration + Dur::from_secs(60))
                .with_seed(seed)
                .with_rtt_stride(16);
            for (i, p) in pages.iter().enumerate() {
                sc = sc.flow(FlowSpec::sized(
                    format!("page-{i}"),
                    p.start,
                    p.bytes,
                    move || cc("CUBIC", i as u64),
                ));
            }
            add_background(&mut sc, bg, Dur::ZERO);
            (sc, |res: &SimResult| {
                let e = Ecdf::new(
                    res.flows
                        .iter()
                        .filter(|f| f.name.starts_with("page-"))
                        .filter_map(|f| f.completion_time().map(|d| d.as_secs_f64())),
                );
                vec![
                    e.median().unwrap_or(f64::NAN),
                    e.mean().unwrap_or(f64::NAN),
                    e.quantile(0.9).unwrap_or(f64::NAN),
                    e.len() as f64,
                ]
            })
        },
    )
}

/// Runs the Fig.-11 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 60.0 } else { 150.0 };
    let counts: &[usize] = if cfg.quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let duration = if cfg.quick {
        Dur::from_secs(120)
    } else {
        Dur::from_secs(600)
    };

    let mut camp = campaign("fig11", cfg);
    for &n in counts {
        for &bg in BACKGROUNDS {
            // Trial seeds as in Fig. 12: `seed + 101·t`.
            for t in 0..cfg.trials() {
                camp.push(dash_job(n, bg, secs, cfg.seed + 101 * t, cfg.trace));
            }
        }
    }
    for &bg in BACKGROUNDS {
        camp.push(web_job(bg, duration, cfg.seed, cfg.trace));
    }
    let result = camp.run();
    let mut outputs = result.outputs.iter().map(|o| payload::decode_floats(o));
    let mut next = || outputs.next().expect("one output per job");

    let mut dash = Table::new(
        "Fig 11(a): average DASH chunk bitrate (Mbps) vs concurrent videos",
        &{
            let mut h = vec!["videos"];
            h.extend(BACKGROUNDS);
            h
        },
    );
    for &n in counts {
        let mut row = vec![n.to_string()];
        for _ in BACKGROUNDS {
            let sum: f64 = (0..cfg.trials()).map(|_| next()[0]).sum();
            row.push(f2(sum / cfg.trials() as f64));
        }
        dash.row(row);
    }
    let mut web = Table::new(
        "Fig 11(b): page load time (seconds) with background flows",
        &["background", "median", "mean", "p90", "pages"],
    );
    for &bg in BACKGROUNDS {
        let v = next();
        web.row(vec![
            bg.into(),
            f2(v[0]),
            f2(v[1]),
            f2(v[2]),
            (v[3] as usize).to_string(),
        ]);
    }

    let text = format!("{}\n{}\n", dash.render(), web.render());
    write_report("fig11", &text, &[&dash, &web]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_return_their_payloads() {
        let dash = payload::decode_floats(&dash_job(2, "CUBIC", 8.0, 3, false).execute());
        assert_eq!(dash.len(), 1);
        assert!(dash[0] > 0.0);

        let minute = Dur::from_secs(60);
        let web = payload::decode_floats(&web_job("LEDBAT", minute, 3, false).execute());
        assert_eq!(web.len(), 4);
        assert!(web[3] >= 1.0 && web[0] > 0.0);
    }

    #[test]
    fn descriptors_identify_the_cell() {
        let key = |n, bg, secs, seed| dash_job(n, bg, secs, seed, false).key();
        let base = key(4, "LEDBAT", 60.0, 1);
        assert_eq!(base, key(4, "LEDBAT", 60.0, 1));
        assert_ne!(base, key(1, "LEDBAT", 60.0, 1));
        assert_ne!(base, key(4, "none", 60.0, 1));
        assert_ne!(base, key(4, "LEDBAT", 150.0, 1));
        assert_ne!(base, key(4, "LEDBAT", 60.0, 2));
        let web = |bg, secs| web_job(bg, Dur::from_secs(secs), 1, false).key();
        assert_ne!(web("none", 120), web("none", 600));
        assert_ne!(web("none", 120), web("CUBIC", 120));
        // The cache identity, literally, as the parent commit wrote it.
        let quick = dash_job(4, "LEDBAT", 60.0, 1, false);
        assert_eq!(
            quick.descriptor(),
            "fig11/dash/videos=4/bg=LEDBAT/secs=60.0/seed=1/v1"
        );
        assert_eq!(quick.key().hex(), "cf9199920ce3ab1a");
    }
}
