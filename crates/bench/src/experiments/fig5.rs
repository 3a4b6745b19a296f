//! Fig. 5: intra-protocol fairness (§6.1.3).
//!
//! `n ∈ 2..10` flows of the same protocol on a `20·n` Mbps / 30 ms link
//! with a `300·n` KB buffer; each flow starts 20 s after the previous.
//! Jain's index over mean per-flow throughput measured after all flows
//! are up. LEDBAT's latecomer advantage shows as a dip that recovers once
//! the sum of delay targets exceeds the buffer.

use proteus_netsim::{FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, SimJob};
use proteus_stats::jain_index;
use proteus_transport::{Dur, Time};

use crate::jobs::{campaign, scenario_job, Traces};
use crate::protocols::{cc, ALL_FIG3};
use crate::report::{f3, write_report, Table};
use crate::RunCfg;

fn flow_counts(quick: bool) -> Vec<usize> {
    if quick {
        vec![2, 4]
    } else {
        vec![2, 3, 4, 5, 6, 7, 8, 9, 10]
    }
}

/// Campaign job for one intra-protocol fairness cell, `n` flows of `proto`
/// with staggered starts: payload `[Jain]` over per-flow throughput once
/// all are up. The descriptor is shared with Appendix B's Fig. 17, so
/// overlapping cells are simulated (and cached) once; `exp` only names the
/// trace directory.
pub fn fairness_job(
    exp: &'static str,
    proto: &'static str,
    n: usize,
    measure_secs: f64,
    seed: u64,
    traces: Traces,
) -> SimJob {
    scenario_job(
        exp,
        format!("fairness/proto={proto}/n={n}/measure={measure_secs:?}/seed={seed}"),
        format!("fairness-{proto}-n{n}-s{seed}"),
        traces,
        move || {
            let link = LinkSpec::new(20.0 * n as f64, Dur::from_millis(30), 300_000 * n as u64);
            let last_start = 20.0 * (n - 1) as f64;
            let total = last_start + measure_secs;
            let mut sc = Scenario::new(link, Dur::from_secs_f64(total))
                .with_seed(seed)
                .with_rtt_stride(64);
            for i in 0..n {
                sc = sc.flow(FlowSpec::bulk(
                    format!("{proto}-{i}"),
                    Dur::from_secs_f64(20.0 * i as f64),
                    move || cc(proto, seed + i as u64),
                ));
            }
            (sc, move |res: &SimResult| {
                let from = Time::from_secs_f64(last_start);
                let to = Time::from_secs_f64(total);
                let rates: Vec<f64> = res
                    .flows
                    .iter()
                    .map(|f| f.throughput_mbps(from, to))
                    .collect();
                vec![jain_index(&rates).unwrap_or(0.0)]
            })
        },
    )
}

/// Runs the Fig.-5 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let measure = if cfg.quick { 40.0 } else { 120.0 };
    let counts = flow_counts(cfg.quick);

    let mut camp = campaign("fig5", cfg);
    for &n in &counts {
        for &proto in ALL_FIG3 {
            camp.push(fairness_job(
                "fig5",
                proto,
                n,
                measure,
                cfg.seed,
                Traces::from_cfg(&cfg),
            ));
        }
    }
    let result = camp.run();
    let mut outputs = result.outputs.iter();

    let mut t = Table::new("Fig 5: Jain's fairness index vs number of flows", &{
        let mut h = vec!["n"];
        h.extend(ALL_FIG3);
        h
    });
    for &n in &counts {
        let mut row = vec![n.to_string()];
        for _ in ALL_FIG3 {
            let jain = payload::decode_floats(outputs.next().expect("one output per job"))[0];
            row.push(f3(jain));
        }
        t.row(row);
    }
    let text = format!("{}\n", t.render());
    write_report("fig5", &text, &[&t]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_descriptor_is_pinned() {
        // The cache identity, literally, as the parent commit wrote it.
        let job = fairness_job("fig5", "LEDBAT", 4, 40.0, 1, Traces::off());
        assert_eq!(
            job.descriptor(),
            "fairness/proto=LEDBAT/n=4/measure=40.0/seed=1/v1"
        );
        assert_eq!(job.key().hex(), "1a8f505007909b13");
        // Fig. 17 reads the same cell.
        let fig17 = fairness_job("fig17", "LEDBAT", 4, 40.0, 1, Traces::off());
        assert_eq!(job.key(), fig17.key());
    }
}
