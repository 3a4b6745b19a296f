//! Fig. 4: random-loss tolerance (§6.1.2).
//!
//! Single flow, 50 Mbps / 30 ms / 375 KB (2 BDP), random loss swept from 0
//! to 6 %. The paper's claims: Proteus/Vivace tolerate the 5 % design
//! point (Proteus-P somewhat better than Vivace thanks to its noise
//! control), LEDBAT collapses at even 0.001 %, and BBR/COPA barely react.

use proteus_netsim::LinkSpec;
use proteus_transport::Dur;

use proteus_runner::Campaign;

use crate::jobs::{campaign, decode_single, link_tag, single_job};
use crate::protocols::ALL_FIG3;
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

fn loss_rates(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.02]
    } else {
        vec![0.0, 1e-5, 1e-4, 1e-3, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
    }
}

/// Submits one job per (loss rate, protocol, trial), in that nesting;
/// returns the output slots in submission order. The cells are shared
/// [`single_job`] descriptors, so the zero-loss row's first trial is
/// Fig. 3's 375 KB row.
pub(crate) fn submit_sweep(camp: &mut Campaign, cfg: &RunCfg) -> Vec<usize> {
    let secs = if cfg.quick { 20.0 } else { 60.0 };
    let mut slots = Vec::new();
    for &loss in &loss_rates(cfg.quick) {
        let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000).with_random_loss(loss);
        for &proto in ALL_FIG3 {
            for trial in 0..cfg.trials() {
                slots.push(camp.push_dedup(single_job(
                    "fig4",
                    &link_tag(&link),
                    proto,
                    link,
                    secs,
                    cfg.seed + 31 * trial,
                    cfg.trace,
                )));
            }
        }
    }
    slots
}

/// Runs the Fig.-4 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let mut camp = campaign("fig4", cfg);
    let slots = submit_sweep(&mut camp, &cfg);
    let result = camp.run();
    let mut slot = slots.into_iter();

    let mut t = Table::new("Fig 4: throughput (Mbps) vs random loss rate", &{
        let mut h = vec!["loss"];
        h.extend(ALL_FIG3);
        h
    });
    for &loss in &loss_rates(cfg.quick) {
        let mut row = vec![format!("{loss}")];
        for _ in ALL_FIG3 {
            let mut sum = 0.0;
            for _ in 0..cfg.trials() {
                let out = &result.outputs[slot.next().expect("slot per trial")];
                sum += decode_single(out).tail_mbps;
            }
            row.push(f2(sum / cfg.trials() as f64));
        }
        t.row(row);
    }
    let text = format!("{}\n", t.render());
    write_report("fig4", &text, &[&t]);
    text
}
