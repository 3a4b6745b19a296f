//! Figs. 12 & 13: the Proteus-H hybrid mode in adaptive video streaming
//! (§6.3).
//!
//! One 4K video + three 1080P videos stream simultaneously for ~3 minutes
//! over a 30 ms / 900 KB bottleneck of varying bandwidth, all on Proteus-H
//! (with the §4.4 threshold rules) or all on Proteus-P. Fig. 12 uses BOLA
//! adaptation and reports average chunk bitrate and rebuffer ratio per
//! class; Fig. 13 forces the highest rung to expose the rebuffering gap.

use proteus_apps::video::{corpus_1080p, corpus_4k};
use proteus_netsim::{LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, SimJob};
use proteus_transport::Dur;

use crate::experiments::video_util::{add_video_flow, VideoTransport};
use crate::jobs::{campaign, scenario_job, Traces};
use crate::report::{f2, pct, write_report, Table};
use crate::RunCfg;

/// Trial-averaged outcome of 1×4K + 3×1080P runs.
struct ClassStats {
    bitrate_4k: f64,
    bitrate_1080: f64,
    rebuffer_4k: f64,
    rebuffer_1080: f64,
}

/// One 1×4K + 3×1080P streaming trial; the reader returns
/// `[bitrate_4k, bitrate_1080, rebuffer_4k, rebuffer_1080]` from the
/// sessions' `Rc` stats handles, which are created and read inside the job.
fn streaming_build(
    bw_mbps: f64,
    transport: VideoTransport,
    forced_max: bool,
    secs: f64,
    seed: u64,
) -> (Scenario, impl FnOnce(&SimResult) -> Vec<f64>) {
    let link = LinkSpec::new(bw_mbps, Dur::from_millis(30), 900_000);
    let mut sc = Scenario::new(link, Dur::from_secs_f64(secs))
        .with_seed(seed)
        .with_rtt_stride(16);
    // The corpus is fixed across trials; only the dynamics seeds vary.
    let v4k = corpus_4k(1, 1)[0].clone();
    let v1080 = corpus_1080p(3, 1);
    let h4k = add_video_flow(&mut sc, v4k, transport, seed + 1, forced_max, Dur::ZERO);
    let h1080: Vec<_> = v1080
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            add_video_flow(
                &mut sc,
                v,
                transport,
                seed + 10 + i as u64,
                forced_max,
                Dur::ZERO,
            )
        })
        .collect();
    (sc, move |_: &SimResult| {
        let b4k = h4k.borrow();
        vec![
            b4k.avg_bitrate(),
            h1080.iter().map(|h| h.borrow().avg_bitrate()).sum::<f64>() / 3.0,
            b4k.rebuffer_ratio,
            h1080.iter().map(|h| h.borrow().rebuffer_ratio).sum::<f64>() / 3.0,
        ]
    })
}

/// Campaign job for one streaming trial: payload
/// `[bitrate_4k, bitrate_1080, rebuffer_4k, rebuffer_1080]`. Forced-max
/// trials are Fig. 13's and record their traces under its name.
pub fn streaming_job(
    bw_mbps: f64,
    transport: VideoTransport,
    forced_max: bool,
    secs: f64,
    seed: u64,
    traces: Traces,
) -> SimJob {
    let mode = match transport {
        VideoTransport::Hybrid => "H",
        VideoTransport::Primary => "P",
    };
    scenario_job(
        if forced_max { "fig13" } else { "fig12" },
        format!(
            "streaming/bw={bw_mbps:?}/transport={mode}/forced={forced_max}/secs={secs:?}/seed={seed}"
        ),
        format!("streaming-{bw_mbps}-{mode}-s{seed}"),
        traces,
        move || streaming_build(bw_mbps, transport, forced_max, secs, seed),
    )
}

/// Submits `cfg.trials()` streaming trials per (bandwidth, transport) —
/// Hybrid then Primary within a bandwidth, trial seeds `seed + 101·t` —
/// runs them, and returns each bandwidth's `(hybrid, primary)` stats
/// averaged over the trials (rebuffering outcomes are seed-sensitive; the
/// paper averages ≥ 10 trials).
fn averaged_runs(
    name: &str,
    bws: &[f64],
    forced: bool,
    secs: f64,
    cfg: &RunCfg,
) -> Vec<(ClassStats, ClassStats)> {
    const TRANSPORTS: [VideoTransport; 2] = [VideoTransport::Hybrid, VideoTransport::Primary];
    let mut camp = campaign(name, *cfg);
    for &bw in bws {
        for transport in TRANSPORTS {
            for t in 0..cfg.trials() {
                camp.push(streaming_job(
                    bw,
                    transport,
                    forced,
                    secs,
                    cfg.seed + 101 * t,
                    Traces::from_cfg(cfg),
                ));
            }
        }
    }
    let result = camp.run();
    let mut outputs = result.outputs.iter();
    let n = cfg.trials() as f64;
    let mut averaged = || {
        let mut acc = [0.0; 4];
        for _ in 0..cfg.trials() {
            let v = payload::decode_floats(outputs.next().expect("one output per trial"));
            for (a, x) in acc.iter_mut().zip(&v) {
                *a += x;
            }
        }
        ClassStats {
            bitrate_4k: acc[0] / n,
            bitrate_1080: acc[1] / n,
            rebuffer_4k: acc[2] / n,
            rebuffer_1080: acc[3] / n,
        }
    };
    bws.iter().map(|_| (averaged(), averaged())).collect()
}

/// Runs Fig. 12 (BOLA-adaptive).
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 60.0 } else { 180.0 };
    let bws: &[f64] = if cfg.quick {
        &[90.0, 110.0]
    } else {
        &[70.0, 80.0, 90.0, 100.0, 110.0, 120.0]
    };
    let mut t = Table::new(
        "Fig 12: Proteus-H vs Proteus-P, BOLA adaptive streaming (1x4K + 3x1080P)",
        &[
            "bw_Mbps",
            "4K_bitrate_H",
            "4K_bitrate_P",
            "1080_bitrate_H",
            "1080_bitrate_P",
            "4K_rebuf_H",
            "4K_rebuf_P",
            "1080_rebuf_H",
            "1080_rebuf_P",
        ],
    );
    let stats = averaged_runs("fig12", bws, false, secs, &cfg);
    for (&bw, (h, p)) in bws.iter().zip(stats) {
        t.row(vec![
            format!("{bw:.0}"),
            f2(h.bitrate_4k),
            f2(p.bitrate_4k),
            f2(h.bitrate_1080),
            f2(p.bitrate_1080),
            pct(h.rebuffer_4k),
            pct(p.rebuffer_4k),
            pct(h.rebuffer_1080),
            pct(p.rebuffer_1080),
        ]);
    }
    let text = format!("{}\n", t.render());
    write_report("fig12", &text, &[&t]);
    text
}

/// Runs Fig. 13 (forced highest bitrate).
pub fn run_experiment_forced(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 60.0 } else { 180.0 };
    let bws: &[f64] = if cfg.quick {
        &[110.0]
    } else {
        &[90.0, 100.0, 110.0, 120.0, 130.0, 140.0]
    };
    let mut t = Table::new(
        "Fig 13: forced-highest-bitrate rebuffer ratio, Proteus-H vs Proteus-P",
        &[
            "bw_Mbps",
            "4K_rebuf_H",
            "4K_rebuf_P",
            "1080_rebuf_H",
            "1080_rebuf_P",
        ],
    );
    let stats = averaged_runs("fig13", bws, true, secs, &cfg);
    for (&bw, (h, p)) in bws.iter().zip(stats) {
        t.row(vec![
            format!("{bw:.0}"),
            pct(h.rebuffer_4k),
            pct(p.rebuffer_4k),
            pct(h.rebuffer_1080),
            pct(p.rebuffer_1080),
        ]);
    }
    let text = format!("{}\n", t.render());
    write_report("fig13", &text, &[&t]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_job_matches_direct_run() {
        let job = streaming_job(100.0, VideoTransport::Hybrid, true, 10.0, 3, Traces::off());
        let out = payload::decode_floats(&job.execute());
        let (sc, read) = streaming_build(100.0, VideoTransport::Hybrid, true, 10.0, 3);
        assert_eq!(out, read(&proteus_netsim::run(sc)));
        assert!(out[0] > 0.0);
    }

    #[test]
    fn descriptors_identify_the_trial() {
        let key = |bw, transport, forced, secs, seed| {
            streaming_job(bw, transport, forced, secs, seed, Traces::off()).key()
        };
        let base = key(110.0, VideoTransport::Hybrid, false, 60.0, 1);
        assert_eq!(base, key(110.0, VideoTransport::Hybrid, false, 60.0, 1));
        assert_ne!(base, key(90.0, VideoTransport::Hybrid, false, 60.0, 1));
        assert_ne!(base, key(110.0, VideoTransport::Primary, false, 60.0, 1));
        // Fig. 13's forced-max trials never alias Fig. 12's adaptive ones.
        assert_ne!(base, key(110.0, VideoTransport::Hybrid, true, 60.0, 1));
        assert_ne!(base, key(110.0, VideoTransport::Hybrid, false, 180.0, 1));
        assert_ne!(base, key(110.0, VideoTransport::Hybrid, false, 60.0, 102));
        // The cache identity, literally, as the parent commit wrote it.
        let quick = streaming_job(110.0, VideoTransport::Hybrid, false, 60.0, 1, Traces::off());
        assert_eq!(
            quick.descriptor(),
            "streaming/bw=110.0/transport=H/forced=false/secs=60.0/seed=1/v1"
        );
        assert_eq!(quick.key().hex(), "900f609c62e2fb56");
    }
}
