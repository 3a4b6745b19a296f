//! Fig. 5: intra-protocol fairness (§6.1.3).
//!
//! `n ∈ 2..10` flows of the same protocol on a `20·n` Mbps / 30 ms link
//! with a `300·n` KB buffer; each flow starts 20 s after the previous.
//! Jain's index over mean per-flow throughput measured after all flows
//! are up. LEDBAT's latecomer advantage shows as a dip that recovers once
//! the sum of delay targets exceeds the buffer.

use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_runner::{payload, SimJob};
use proteus_stats::jain_index;
use proteus_transport::{Dur, Time};

use crate::jobs::campaign;
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

/// Jain index of `n` same-protocol flows (staggered starts).
pub fn fairness_run(proto: &'static str, n: usize, measure_secs: f64, seed: u64) -> f64 {
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
    let res = run(sc);
    let from = Time::from_secs_f64(last_start);
    let to = Time::from_secs_f64(total);
    let rates: Vec<f64> = res
        .flows
        .iter()
        .map(|f| f.throughput_mbps(from, to))
        .collect();
    jain_index(&rates).unwrap_or(0.0)
}

/// Campaign job for one intra-protocol fairness cell; payload `[jain]`.
/// The descriptor is shared with Appendix B's Fig. 17, so overlapping
/// cells are simulated (and cached) once.
pub fn fairness_job(proto: &'static str, n: usize, measure_secs: f64, seed: u64) -> SimJob {
    SimJob::new(
        format!("fairness/proto={proto}/n={n}/measure={measure_secs:?}/seed={seed}/v1"),
        format!("fairness {proto} n={n}"),
        move || payload::encode_floats(&[fairness_run(proto, n, measure_secs, seed)]),
    )
}

/// Runs the Fig.-5 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let measure = if cfg.quick { 40.0 } else { 120.0 };
    let counts = flow_counts(cfg.quick);

    let mut camp = campaign("fig5", cfg);
    for &n in &counts {
        for &proto in ALL_FIG3 {
            camp.push(fairness_job(proto, n, measure, cfg.seed));
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
