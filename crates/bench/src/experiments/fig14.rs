//! Fig. 14: extending RTT deviation to BBR (§7.1).
//!
//! BBR-S (stock BBR forced into ProbeRTT whenever its smoothed RTT
//! deviation exceeds 20 ms) competes with BBR, CUBIC and BBR-S itself on
//! 50 Mbps / 30 ms / 375 KB; the figure shows throughput over time. We
//! print 10-second-binned throughput for both flows in each pairing.

use proteus_netsim::{LinkSpec, SimResult};
use proteus_runner::{payload, SimJob};
use proteus_transport::{Dur, Time};

use crate::jobs::{campaign, link_tag, pair_scenario, scenario_job, tail_window, Traces};
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

const BIN_SECS: f64 = 10.0;

fn bins(secs: f64) -> usize {
    (secs / BIN_SECS) as usize
}

/// `a` vs `b` (starting 5 s later) on `link`, reduced to a throughput
/// timeline: payload `[a_0, b_0, a_1, b_1, ..., a_tail, b_tail]` — Mbps of
/// both flows per 10 s bin, then over the tail window. The length grows
/// with `secs`, so read it with [`payload::float_at`].
pub fn timeline_job(
    a: &'static str,
    b: &'static str,
    link: LinkSpec,
    secs: f64,
    seed: u64,
    traces: Traces,
) -> SimJob {
    let tag = link_tag(&link);
    scenario_job(
        "fig14",
        format!("timeline/{tag}/primary={a}/scav={b}/secs={secs:?}/bin={BIN_SECS:?}/seed={seed}"),
        format!("timeline-{tag}-{a}-vs-{b}-s{seed}"),
        traces,
        move || {
            let sc = pair_scenario(a, b, link, secs, seed);
            (sc, move |res: &SimResult| {
                let mut windows: Vec<(Time, Time)> = (0..bins(secs))
                    .map(|i| {
                        (
                            Time::from_secs_f64(i as f64 * BIN_SECS),
                            Time::from_secs_f64((i + 1) as f64 * BIN_SECS),
                        )
                    })
                    .collect();
                windows.push(tail_window(secs));
                windows
                    .into_iter()
                    .flat_map(|(from, to)| {
                        [
                            res.flows[0].throughput_mbps(from, to),
                            res.flows[1].throughput_mbps(from, to),
                        ]
                    })
                    .collect()
            })
        },
    )
}

/// Runs the Fig.-14 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 60.0 } else { 200.0 };
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    let pairings: &[(&str, &str)] = &[("BBR", "BBR-S"), ("BBR-S", "BBR-S"), ("CUBIC", "BBR-S")];

    let mut camp = campaign("fig14", cfg);
    for &(a, b) in pairings {
        camp.push(timeline_job(
            a,
            b,
            link,
            secs,
            cfg.seed,
            Traces::from_cfg(&cfg),
        ));
    }
    let result = camp.run();

    let mut tables = Vec::new();
    for (&(a, b), out) in pairings.iter().zip(&result.outputs) {
        let v = payload::decode_floats(out);
        let mut t = Table::new(
            format!("Fig 14: {a} vs {b} — throughput over time (Mbps)"),
            &["t_s", a, b],
        );
        for i in 0..=bins(secs) {
            // The last pair is the summary over the tail.
            let label = if i < bins(secs) {
                format!("{}", i * 10)
            } else {
                "mean".into()
            };
            t.row(vec![
                label,
                f2(payload::float_at(&v, 2 * i)),
                f2(payload::float_at(&v, 2 * i + 1)),
            ]);
        }
        tables.push(t);
    }

    let mut text = String::new();
    for t in &tables {
        text.push_str(&t.render());
        text.push('\n');
    }
    let refs: Vec<&Table> = tables.iter().collect();
    write_report("fig14", &text, &refs);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::pair_scenario;
    use proteus_netsim::run;

    #[test]
    fn timeline_job_matches_direct_run() {
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let secs = 25.0;
        let v = payload::decode_floats(
            &timeline_job("CUBIC", "BBR-S", link, secs, 3, Traces::off()).execute(),
        );
        let direct = run(pair_scenario("CUBIC", "BBR-S", link, secs, 3));
        // Two whole bins plus the tail summary.
        assert_eq!(v.len(), 6);
        let bin1 = (Time::from_secs_f64(10.0), Time::from_secs_f64(20.0));
        assert_eq!(v[2], direct.flows[0].throughput_mbps(bin1.0, bin1.1));
        assert_eq!(v[3], direct.flows[1].throughput_mbps(bin1.0, bin1.1));
        let (from, to) = tail_window(secs);
        assert_eq!(v[4], direct.flows[0].throughput_mbps(from, to));
        assert_eq!(v[5], direct.flows[1].throughput_mbps(from, to));
        assert!(v[0] > 10.0, "CUBIC alone in the first bin");
    }

    #[test]
    fn timeline_descriptor_is_its_own_identity() {
        let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
        let key = |a, b, secs, seed| timeline_job(a, b, link, secs, seed, Traces::off()).key();
        let base = key("BBR", "BBR-S", 60.0, 1);
        assert_eq!(base, key("BBR", "BBR-S", 60.0, 1));
        assert_ne!(base, key("CUBIC", "BBR-S", 60.0, 1));
        assert_ne!(base, key("BBR", "BBR-S", 200.0, 1));
        assert_ne!(base, key("BBR", "BBR-S", 60.0, 2));
        // Same scenario as a pair cell, different payload: never aliased.
        let pair = crate::jobs::pair_job(
            "fig14",
            &link_tag(&link),
            "BBR",
            "BBR-S",
            link,
            60.0,
            1,
            Traces::off(),
        );
        assert_ne!(base, pair.key());
    }
}
