//! Fig. 3: bottleneck saturation with varying buffer size (§6.1.1).
//!
//! Single flow, 50 Mbps / 30 ms bottleneck, 100 s runs, buffer swept from
//! ~1 KB to 1 MB. Reports (a) throughput and (b) the 95th-percentile
//! inflation ratio `(p95 RTT − base RTT)/(buffer/bandwidth)`.

use proteus_netsim::LinkSpec;
use proteus_transport::Dur;

use proteus_runner::{Campaign, SimJob};

use crate::jobs::{campaign, decode_single, link_tag, p95_or, single_job};
use crate::protocols::ALL_FIG3;
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

const BASE_RTT_S: f64 = 0.030;

/// Buffer sizes swept, bytes.
fn buffers(quick: bool) -> Vec<u64> {
    if quick {
        vec![4_500, 75_000, 375_000]
    } else {
        vec![
            1_500, 3_000, 4_500, 7_500, 15_000, 37_500, 75_000, 150_000, 375_000, 625_000,
            1_000_000,
        ]
    }
}

fn secs(cfg: &RunCfg) -> f64 {
    if cfg.quick {
        20.0
    } else {
        60.0
    }
}

/// One protocol alone on the 50 Mbps / 30 ms link with a `buf`-byte
/// buffer. The shared [`single_job`] descriptor: Fig. 4's zero-loss row
/// and Fig. 6/7's "alone" baselines are the same cells.
fn cell_job(proto: &'static str, buf: u64, secs: f64, seed: u64, traced: bool) -> SimJob {
    let link = LinkSpec::new(50.0, Dur::from_millis(30), buf);
    single_job("fig3", &link_tag(&link), proto, link, secs, seed, traced)
}

/// Submits the (a)/(b) sweep, buffer-major; returns the output slots in
/// submission order.
pub(crate) fn submit_sweep(camp: &mut Campaign, cfg: &RunCfg) -> Vec<usize> {
    let mut slots = Vec::new();
    for &buf in &buffers(cfg.quick) {
        for &proto in ALL_FIG3 {
            let job = cell_job(proto, buf, secs(cfg), cfg.seed, cfg.trace);
            slots.push(camp.push_dedup(job));
        }
    }
    slots
}

/// Runs the Fig.-3 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = secs(&cfg);
    let mut thpt = Table::new("Fig 3(a): single-flow throughput (Mbps) vs buffer size", &{
        let mut h = vec!["buffer_KB"];
        h.extend(ALL_FIG3);
        h
    });
    let mut infl = Table::new(
        "Fig 3(b): 95th-percentile inflation ratio vs buffer size",
        &{
            let mut h = vec!["buffer_KB"];
            h.extend(ALL_FIG3);
            h
        },
    );

    let mut camp = campaign("fig3", cfg);
    let slots = submit_sweep(&mut camp, &cfg);
    let result = camp.run();
    let mut slot = slots.into_iter();
    for &buf in &buffers(cfg.quick) {
        let mut trow = vec![format!("{:.1}", buf as f64 / 1e3)];
        let mut irow = vec![format!("{:.1}", buf as f64 / 1e3)];
        for _ in ALL_FIG3 {
            let out = decode_single(&result.outputs[slot.next().expect("slot per cell")]);
            trow.push(f2(out.tail_mbps));
            let p95 = p95_or(out.p95_rtt_s, BASE_RTT_S);
            let max_queue_s = buf as f64 * 8.0 / 50e6;
            let ratio = ((p95 - BASE_RTT_S) / max_queue_s).max(0.0);
            irow.push(f2(ratio));
        }
        thpt.row(trow);
        infl.row(irow);
    }

    // The headline claim: buffer needed for ≥ 90 % utilization. One wave
    // per buffer size, smallest first, each submitting only the protocols
    // still short of 45 Mbps — the early exit of a per-protocol search.
    let mut need = Table::new(
        "Buffer needed for >=90% utilization (45 Mbps); paper: Proteus 4.5 KB, LEDBAT 150 KB (32x)",
        &["protocol", "buffer_KB"],
    );
    let mut found: Vec<Option<u64>> = vec![None; ALL_FIG3.len()];
    for &buf in &buffers(cfg.quick) {
        let pending: Vec<usize> = (0..ALL_FIG3.len())
            .filter(|&p| found[p].is_none())
            .collect();
        if pending.is_empty() {
            break;
        }
        let mut wave = campaign("fig3-need", cfg);
        for &p in &pending {
            wave.push(cell_job(ALL_FIG3[p], buf, secs, cfg.seed + 17, cfg.trace));
        }
        for (&p, out) in pending.iter().zip(&wave.run().outputs) {
            if decode_single(out).tail_mbps >= 45.0 {
                found[p] = Some(buf);
            }
        }
    }
    for (&proto, found) in ALL_FIG3.iter().zip(found) {
        need.row(vec![
            proto.to_string(),
            found
                .map(|b| format!("{:.1}", b as f64 / 1e3))
                .unwrap_or_else(|| ">max".into()),
        ]);
    }

    let text = format!("{}\n{}\n{}\n", thpt.render(), infl.render(), need.render());
    write_report("fig3", &text, &[&thpt, &infl, &need]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig4;

    #[test]
    fn fig4_zero_loss_row_shares_the_375kb_row() {
        let cfg = RunCfg::quick();
        let mut camp = Campaign::new("test", proteus_runner::CampaignOpts::default());
        let sweep = submit_sweep(&mut camp, &cfg);
        assert_eq!(sweep.len(), camp.len());
        // Fig. 4 adds only its lossy rows: its zero-loss cells dedup onto
        // the sweep's 375 KB slots.
        let fig4_slots = fig4::submit_sweep(&mut camp, &cfg);
        assert_eq!(camp.len(), sweep.len() + ALL_FIG3.len());
        let row_375 = &sweep[sweep.len() - ALL_FIG3.len()..];
        assert_eq!(&fig4_slots[..ALL_FIG3.len()], row_375);
    }
}
