//! Fig. 7: the scavenger's impact on the primary's RTT (§6.2).
//!
//! 95th-percentile RTT of the primary when sharing with a scavenger,
//! divided by its 95th-percentile RTT when running alone (375 KB buffer).
//! Proteus-S should leave the ratio near 1; LEDBAT inflates it heavily for
//! latency-aware primaries.

use proteus_runner::Campaign;

use crate::experiments::fig6::push_cell;
use crate::jobs::{campaign, decode_pair, decode_single, p95_or};
use crate::protocols::PRIMARIES;
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

/// Scavenger-role protocols of the Fig.-7 bars.
pub const SCAV_ROLES: &[&str] = &["Proteus-S", "LEDBAT", "Proteus-P", "COPA"];

/// Submits the (alone, pair) jobs of every bar, primary-major; returns
/// their output slots. These are Fig. 6's 375 KB cells — same builder,
/// same horizon — so after Fig. 6 every one is a cache hit.
pub(crate) fn submit_cells(camp: &mut Campaign, cfg: &RunCfg) -> Vec<(usize, usize)> {
    let secs = if cfg.quick { 25.0 } else { 60.0 };
    let mut slots = Vec::new();
    for &primary in PRIMARIES {
        for &scav in SCAV_ROLES.iter().filter(|&&s| s != primary) {
            slots.push(push_cell(
                camp, "fig7", primary, scav, 375_000, secs, cfg.seed, cfg.trace,
            ));
        }
    }
    slots
}

/// Runs the Fig.-7 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let mut camp = campaign("fig7", cfg);
    let slots = submit_cells(&mut camp, &cfg);
    let result = camp.run();
    let mut slot = slots.into_iter();

    let mut t = Table::new(
        "Fig 7: 95th-pct RTT ratio (with scavenger / alone), 375 KB buffer",
        &{
            let mut h = vec!["primary"];
            h.extend(SCAV_ROLES);
            h
        },
    );
    for &primary in PRIMARIES {
        let mut row = vec![primary.to_string()];
        for &scav in SCAV_ROLES {
            if scav == primary {
                row.push("-".into());
                continue;
            }
            let (alone, both) = slot.next().expect("slot per bar");
            let p95_alone = p95_or(decode_single(&result.outputs[alone]).p95_rtt_s, 0.030);
            let p95 = p95_or(decode_pair(&result.outputs[both]).p95_rtt_s, p95_alone);
            row.push(f2(p95 / p95_alone));
        }
        t.row(row);
    }
    let text = format!("{}\n", t.render());
    write_report("fig7", &text, &[&t]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig6;

    #[test]
    fn every_cell_is_one_of_fig6s() {
        for cfg in [RunCfg::quick(), RunCfg::full()] {
            let mut camp = Campaign::new("test", proteus_runner::CampaignOpts::default());
            fig6::submit_cells(&mut camp, &cfg);
            let fig6_jobs = camp.len();
            let bars = submit_cells(&mut camp, &cfg);
            assert_eq!(bars.len(), 18);
            assert_eq!(camp.len(), fig6_jobs, "fig7 submitted a cell fig6 lacks");
        }
    }
}
