//! Fig. 2: PDF of RTT deviation / |RTT gradient| under Poisson CUBIC
//! cross-traffic, plus the confusion-probability comparison (§4.2).
//!
//! Setup (paper): 100 Mbps, 60 ms RTT, 1500 KB (2 BDP) buffer; short CUBIC
//! flows with uniform sizes in [20, 100] KB and Poisson arrivals at
//! 0/3/6/9 flows/sec; a fixed-rate 20 Mbps UDP probe measures RTT in
//! consecutive 1.5-RTT (90 ms) windows over a 2-minute run.

use proteus_netsim::{CrossTrafficSpec, FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, SimJob};
use proteus_stats::{LinearRegression, Welford};
use proteus_transport::{factory, Dur};

use crate::jobs::{campaign, scenario_job};
use crate::protocols::cc;
use crate::report::{f3, write_report, Table};
use crate::RunCfg;

/// Windowed (deviation, |gradient|) metrics from a probe's RTT samples.
fn window_metrics(samples: &[(f64, f64)], window_s: f64) -> (Vec<f64>, Vec<f64>) {
    let mut devs = Vec::new();
    let mut grads = Vec::new();
    let mut idx = 0;
    if samples.is_empty() {
        return (devs, grads);
    }
    let t_end = samples.last().expect("non-empty").0;
    let mut w_start = samples[0].0;
    while w_start < t_end {
        let w_end = w_start + window_s;
        let mut acc = Welford::new();
        let mut pts = Vec::new();
        while idx < samples.len() && samples[idx].0 < w_end {
            let (t, rtt) = samples[idx];
            acc.add(rtt);
            pts.push((t, rtt));
            idx += 1;
        }
        if acc.count() >= 5 {
            devs.push(acc.std_dev());
            if let Some(fit) = LinearRegression::fit(&pts) {
                grads.push(fit.slope.abs());
            }
        }
        w_start = w_end;
    }
    (devs, grads)
}

/// `P(metric(congested) < metric(idle))` over uniform random pairs — the
/// paper's confusion probability, computed exactly from the two sample
/// sets.
fn confusion_probability(idle: &[f64], congested: &[f64]) -> f64 {
    if idle.is_empty() || congested.is_empty() {
        return f64::NAN;
    }
    let mut idle_sorted = idle.to_vec();
    idle_sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut wins = 0u64;
    for &c in congested {
        // Number of idle samples strictly greater than the congested one.
        let gt = idle_sorted.len() - idle_sorted.partition_point(|&x| x <= c);
        wins += gt as u64;
    }
    wins as f64 / (idle.len() as f64 * congested.len() as f64)
}

/// Probability mass of `samples` over `bins` equal-width bins on `[lo, hi]`,
/// as `(bin_center, mass)` pairs — the paper's Fig.-2 series. Bins are
/// left-closed, except that `hi` itself lands in the last one. A sample
/// outside the range belongs to no bin but still counts toward the total, so
/// the masses sum to one minus the out-of-range share. Non-finite samples
/// are ignored.
fn binned_pmf(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, f64)> {
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0u64; bins];
    let mut total = 0u64;
    for &x in samples.iter().filter(|x| x.is_finite()) {
        total += 1;
        if x == hi {
            counts[bins - 1] += 1;
        } else if (lo..hi).contains(&x) {
            counts[(((x - lo) / width) as usize).min(bins - 1)] += 1;
        }
    }
    // No samples: every count is zero, and so is every mass.
    let total = total.max(1) as f64;
    let center = |i: usize| lo + (i as f64 + 0.5) * width;
    counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (center(i), c as f64 / total))
        .collect()
}

/// The probe under the given cross-traffic arrival rate; the reader
/// returns the per-window deviations (seconds) and |gradients| (s/s) as
/// two length-prefixed sets ([`payload::float_sets`]).
fn probe_build(
    rate_per_sec: f64,
    secs: f64,
    seed: u64,
) -> (Scenario, impl FnOnce(&SimResult) -> Vec<f64>) {
    let link = LinkSpec::new(100.0, Dur::from_millis(60), 1_500_000);
    let mut sc = Scenario::new(link, Dur::from_secs_f64(secs))
        .flow(FlowSpec::bulk("probe", Dur::ZERO, || cc("probe:20", 0)))
        .with_seed(seed);
    if rate_per_sec > 0.0 {
        sc = sc.with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: rate_per_sec,
            size_range: (20_000, 100_000),
            cc: factory(|_| proteus_baselines::Cubic::new()),
            start: Dur::ZERO,
            stop: Dur::from_secs_f64(secs),
        });
    }
    (sc, |res: &SimResult| {
        let samples: Vec<(f64, f64)> = res.flows[0].rtt_samples().collect();
        let (devs, grads) = window_metrics(&samples, 0.090);
        payload::float_sets(&[&devs, &grads])
    })
}

/// Campaign job for one probe run: payload is the two per-window sample
/// sets (deviations, then |gradients|), length-prefixed — decode with
/// [`payload::decode_float_sets`]. The probe is a fixed-rate source with
/// no decisions to record; `--trace` runs add the decision companion.
pub fn probe_job(rate_per_sec: f64, secs: f64, seed: u64, traced: bool) -> SimJob {
    scenario_job(
        "fig2",
        format!("fig2/probe/rate={rate_per_sec:?}/secs={secs:?}/seed={seed}"),
        format!("probe-{rate_per_sec}-s{seed}"),
        traced,
        move || probe_build(rate_per_sec, secs, seed),
    )
}

/// The decision-trace companion scenario for `--trace` runs of Fig. 2
/// (and the golden decision-trace pin, see
/// `crates/bench/tests/golden_trace.rs`): the figure's own probe is a
/// fixed-rate UDP source with no MI decision points, so a Proteus-S flow on
/// the same link under the figure's densest cross-traffic (9 flows/s)
/// stands in as the decision-producing subject. Fully determined by
/// `(secs, seed)`.
pub fn decision_scenario(secs: f64, seed: u64) -> Scenario {
    let link = LinkSpec::new(100.0, Dur::from_millis(60), 1_500_000);
    Scenario::new(link, Dur::from_secs_f64(secs))
        .flow(FlowSpec::bulk("Proteus-S", Dur::ZERO, move || {
            cc("Proteus-S", seed ^ 0xA5)
        }))
        .with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: 9.0,
            size_range: (20_000, 100_000),
            cc: factory(|_| proteus_baselines::Cubic::new()),
            start: Dur::ZERO,
            stop: Dur::from_secs_f64(secs),
        })
        .with_seed(seed)
        .with_trace()
}

/// Campaign job exporting [`decision_scenario`]'s traces under
/// `trace-mi/fig2/` and `trace/fig2/`. The export files are declared
/// artifacts, so a warm hit replays them; the payload is the number of
/// decision events recorded.
fn decision_job(secs: f64, seed: u64) -> SimJob {
    scenario_job(
        "fig2",
        format!("fig2/decision/secs={secs:?}/seed={seed}"),
        format!("decision-s{seed}"),
        true,
        move || {
            (decision_scenario(secs, seed), |res: &SimResult| {
                vec![res.decisions.len() as f64]
            })
        },
    )
}

/// Runs the Fig.-2 experiment.
pub fn run_experiment(cfg: RunCfg) -> String {
    let secs = if cfg.quick { 30.0 } else { 120.0 };
    let rates = [0.0, 3.0, 6.0, 9.0];

    let mut dev_hist = Table::new(
        "Fig 2(a): PDF of RTT deviation (probability per bin, bins of 0.1 ms)",
        &["bin_ms", "0/s", "3/s", "6/s", "9/s"],
    );
    let mut grad_hist = Table::new(
        "Fig 2(b): PDF of |RTT gradient| (probability per bin, bins of 0.001)",
        &["bin", "0/s", "3/s", "6/s", "9/s"],
    );

    let mut camp = campaign("fig2", cfg);
    for (i, &rate) in rates.iter().enumerate() {
        camp.push(probe_job(rate, secs, cfg.seed + i as u64, cfg.trace));
    }
    if cfg.trace {
        camp.push(decision_job(secs, cfg.seed));
    }
    let result = camp.run();

    let mut dev_sets = Vec::new();
    let mut grad_sets = Vec::new();
    for out in &result.outputs[..rates.len()] {
        let mut sets = payload::decode_float_sets(out).into_iter();
        dev_sets.push(sets.next().unwrap_or_default());
        grad_sets.push(sets.next().unwrap_or_default());
    }

    // One row per bin: its center, then each arrival rate's mass in it.
    let fill = |table: &mut Table, sets: &[Vec<f64>], hi, bins, center: fn(f64) -> String| {
        let pmfs: Vec<_> = sets.iter().map(|s| binned_pmf(s, 0.0, hi, bins)).collect();
        for b in 0..bins {
            let mut row = vec![center(pmfs[0][b].0)];
            row.extend(pmfs.iter().map(|s| f3(s[b].1)));
            table.row(row);
        }
    };
    fill(&mut dev_hist, &dev_sets, 1.4e-3, 14, |c| {
        format!("{:.2}", c * 1e3)
    });
    fill(&mut grad_hist, &grad_sets, 0.020, 20, |c| format!("{c:.4}"));

    let conf_dev = confusion_probability(&dev_sets[0], &dev_sets[3]);
    let conf_grad = confusion_probability(&grad_sets[0], &grad_sets[3]);
    let mut conf = Table::new(
        "Confusion probability (0 vs 9 flows/s; paper: deviation 0.6%, gradient 8.0%)",
        &["metric", "confusion"],
    );
    conf.row(vec![
        "RTT deviation".into(),
        format!("{:.1}%", conf_dev * 100.0),
    ]);
    conf.row(vec![
        "|RTT gradient|".into(),
        format!("{:.1}%", conf_grad * 100.0),
    ]);

    let text = format!(
        "{}\n{}\n{}\n",
        dev_hist.render(),
        grad_hist.render(),
        conf.render()
    );
    write_report("fig2", &text, &[&dev_hist, &grad_hist, &conf]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn masses(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<f64> {
        let series = binned_pmf(samples, lo, hi, bins);
        series.into_iter().map(|(_, p)| p).collect()
    }

    #[test]
    fn bins_are_left_closed_and_the_upper_bound_joins_the_last() {
        // 0.0 -> bin 0, 0.25 -> bin 1, exactly `hi` -> bin 3.
        assert_eq!(
            masses(&[0.0, 0.25, 1.0, 1.0], 0.0, 1.0, 4),
            [0.25, 0.25, 0.0, 0.5]
        );
        let centers: Vec<f64> = binned_pmf(&[], 0.0, 4.0, 4)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(centers, [0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn out_of_range_samples_count_toward_the_total_only() {
        // One under, one over, one inside; NaN and infinity are not samples.
        let xs = [-0.1, 2.0, 0.5, f64::NAN, f64::INFINITY];
        assert_eq!(masses(&xs, 0.0, 1.0, 2), [0.0, 1.0 / 3.0]);
        assert_eq!(masses(&[], 0.0, 1.0, 2), [0.0, 0.0]);
    }

    proptest! {
        /// Total probability mass is conserved: the bins plus the
        /// out-of-range share account for every sample.
        #[test]
        fn binned_mass_is_conserved(xs in prop::collection::vec(-10.0_f64..10.0, 1..200)) {
            let in_range: f64 = masses(&xs, -5.0, 5.0, 17).iter().sum();
            let out = xs.iter().filter(|x| !(-5.0..=5.0).contains(*x)).count();
            prop_assert!((in_range + out as f64 / xs.len() as f64 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn confusion_probability_extremes() {
        // Fully separated sets: no confusion.
        let idle = [1.0, 2.0, 3.0];
        let congested = [10.0, 20.0];
        assert_eq!(confusion_probability(&idle, &congested), 0.0);
        // Reversed: full confusion.
        assert_eq!(confusion_probability(&congested, &idle), 1.0);
        // Identical distributions: NaN-free, around 0 (ties don't count).
        let p = confusion_probability(&idle, &idle);
        assert!((0.0..=0.5).contains(&p));
    }

    #[test]
    fn window_metrics_basic() {
        // Flat RTT: zero deviation and gradient.
        let flat: Vec<(f64, f64)> = (0..100).map(|i| (i as f64 * 0.01, 0.060)).collect();
        let (devs, grads) = window_metrics(&flat, 0.09);
        assert!(!devs.is_empty());
        assert!(devs.iter().all(|&d| d < 1e-12));
        assert!(grads.iter().all(|&g| g < 1e-9));
        // Oscillating RTT: positive deviation.
        let wavy: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                (
                    i as f64 * 0.01,
                    0.060 + if i % 2 == 0 { 0.002 } else { 0.0 },
                )
            })
            .collect();
        let (devs, _) = window_metrics(&wavy, 0.09);
        assert!(devs.iter().all(|&d| d > 5e-4));
    }

    #[test]
    fn empty_input() {
        let (d, g) = window_metrics(&[], 0.09);
        assert!(d.is_empty() && g.is_empty());
        assert!(confusion_probability(&[], &[1.0]).is_nan());
    }

    #[test]
    fn probe_job_matches_direct_run() {
        let job = probe_job(9.0, 6.0, 3, false);
        let sets = payload::decode_float_sets(&job.execute());
        let (sc, read) = probe_build(9.0, 6.0, 3);
        let direct = read(&proteus_netsim::run(sc));
        assert_eq!(sets.len(), 2);
        assert!(!sets[0].is_empty());
        assert_eq!(direct, payload::float_sets(&[&sets[0], &sets[1]]));
    }

    #[test]
    fn descriptors_identify_the_run() {
        let key = |rate, secs, seed| probe_job(rate, secs, seed, false).key();
        let base = key(3.0, 30.0, 1);
        assert_eq!(base, key(3.0, 30.0, 1));
        assert_ne!(base, key(6.0, 30.0, 1));
        assert_ne!(base, key(3.0, 120.0, 1));
        assert_ne!(base, key(3.0, 30.0, 2));
        // The cache identity, literally, as the parent commit wrote it.
        let quick = probe_job(3.0, 30.0, 2, false);
        assert_eq!(
            quick.descriptor(),
            "fig2/probe/rate=3.0/secs=30.0/seed=2/v1"
        );
        assert_eq!(quick.key().hex(), "a18bd79a63829f6c");

        // The decision companion is traced: it declares all three exports.
        let decision = decision_job(30.0, 1);
        assert_eq!(decision.artifacts().len(), 3);
        assert_ne!(decision.key(), base);
    }
}
