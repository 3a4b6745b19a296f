//! Fig. 6: yielding to primary flows (§6.2).
//!
//! One primary flow, then one "scavenger" 5 s later, on 50 Mbps / 30 ms
//! with shallow (75 KB, 0.4 BDP) and large (375 KB, 2 BDP) buffers. Four
//! protocols play the scavenger role — LEDBAT, Proteus-S, Proteus-P, COPA
//! — against five primaries. Reports the *primary throughput ratio*
//! (throughput with scavenger / throughput alone) and the joint capacity
//! utilization.

use proteus_netsim::LinkSpec;
use proteus_transport::Dur;

use crate::jobs::{campaign, decode_pair, decode_single, link_tag, pair_job, single_job};
use crate::protocols::PRIMARIES;
use crate::report::{f2, pct, write_report, Table};
use crate::RunCfg;

/// The scavenger-role protocols of Fig. 6(a–d).
pub const SCAV_ROLES: &[&str] = &["LEDBAT", "Proteus-S", "Proteus-P", "COPA"];

/// One cell of the Fig.-6 matrix.
#[derive(Debug, Clone, Copy)]
pub struct YieldCell {
    /// Primary throughput with the scavenger present, Mbps.
    pub primary_mbps: f64,
    /// Primary throughput running alone, Mbps.
    pub alone_mbps: f64,
    /// Scavenger throughput, Mbps.
    pub scav_mbps: f64,
}

impl YieldCell {
    /// `primary with scavenger / primary alone`.
    pub fn ratio(&self) -> f64 {
        if self.alone_mbps <= 0.0 {
            0.0
        } else {
            self.primary_mbps / self.alone_mbps
        }
    }

    /// Joint utilization of a 50 Mbps link.
    pub fn utilization(&self) -> f64 {
        (self.primary_mbps + self.scav_mbps) / 50.0
    }
}

/// Submits the alone + pair jobs for one (primary, scavenger, buffer)
/// cell into `camp`, returning the two output slots. Alone baselines are
/// deduplicated across scavengers and across experiments (Fig. 19 uses
/// the same descriptors).
#[allow(clippy::too_many_arguments)]
pub fn push_cell(
    camp: &mut proteus_runner::Campaign,
    exp: &'static str,
    primary: &'static str,
    scavenger: &'static str,
    buffer: u64,
    secs: f64,
    seed: u64,
    traced: bool,
) -> (usize, usize) {
    let link = LinkSpec::new(50.0, Dur::from_millis(30), buffer);
    let tag = link_tag(&link);
    let alone = camp.push_dedup(single_job(exp, &tag, primary, link, secs, seed, traced));
    let both = camp.push_dedup(pair_job(
        exp, &tag, primary, scavenger, link, secs, seed, traced,
    ));
    (alone, both)
}

/// Reads one cell back out of campaign outputs.
pub fn cell_from_outputs(outputs: &[String], slots: (usize, usize)) -> YieldCell {
    let alone = decode_single(&outputs[slots.0]);
    let both = decode_pair(&outputs[slots.1]);
    YieldCell {
        primary_mbps: both.primary_mbps,
        alone_mbps: alone.tail_mbps,
        scav_mbps: both.scav_mbps,
    }
}

/// Shallow (0.4 BDP) and large (2 BDP) buffers, bytes.
const BUFFERS: [u64; 2] = [75_000, 375_000];

/// Submits every cell of the four tables, scavenger-major then primary
/// then buffer; returns the (alone, pair) output slots in that order.
pub(crate) fn submit_cells(
    camp: &mut proteus_runner::Campaign,
    cfg: &RunCfg,
) -> Vec<(usize, usize)> {
    let secs = if cfg.quick { 25.0 } else { 60.0 };
    let mut slots = Vec::new();
    for &scav in SCAV_ROLES {
        for &primary in PRIMARIES {
            if primary == scav {
                continue; // the paper doesn't run a protocol against itself here
            }
            for buf in BUFFERS {
                slots.push(push_cell(
                    camp, "fig6", primary, scav, buf, secs, cfg.seed, cfg.trace,
                ));
            }
        }
    }
    slots
}

/// Runs the Fig.-6 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let mut camp = campaign("fig6", cfg);
    let slots = submit_cells(&mut camp, &cfg);
    let result = camp.run();
    let mut slot = slots.into_iter();

    let mut tables = Vec::new();
    for &scav in SCAV_ROLES {
        let mut t = Table::new(
            format!("Fig 6: {scav} as scavenger — primary throughput ratio / joint utilization"),
            &[
                "primary",
                "ratio@75KB",
                "util@75KB",
                "ratio@375KB",
                "util@375KB",
            ],
        );
        for &primary in PRIMARIES {
            if primary == scav {
                continue;
            }
            let mut row = vec![primary.to_string()];
            for _ in BUFFERS {
                let cell = cell_from_outputs(&result.outputs, slot.next().expect("slot per cell"));
                row.push(pct(cell.ratio()));
                row.push(f2(cell.utilization()));
            }
            // Reorder: ratio75, util75, ratio375, util375 (already in order).
            t.row(row);
        }
        tables.push(t);
    }

    let mut text = String::new();
    for t in &tables {
        text.push_str(&t.render());
        text.push('\n');
    }
    let refs: Vec<&Table> = tables.iter().collect();
    write_report("fig6", &text, &refs);
    text
}
