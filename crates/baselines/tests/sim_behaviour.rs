//! End-to-end behavioural tests: each baseline controller driven through the
//! dumbbell simulator must show its textbook macroscopic behaviour. These
//! are the properties the paper's evaluation relies on (e.g. CUBIC fills
//! buffers, BBR saturates shallow buffers, LEDBAT holds ~target extra
//! delay, COPA keeps queues short).

use proteus_baselines::{Bbr, Copa, Cross, Cubic, FixedRateProbe, Ledbat};
use proteus_netsim::{run, FaultSchedule, FlowSpec, LinkSpec, Scenario};
use proteus_transport::{Dur, Time};

/// The paper's standard bottleneck: 50 Mbps, 30 ms RTT.
fn paper_link(buffer: u64) -> LinkSpec {
    LinkSpec::new(50.0, Dur::from_millis(30), buffer)
}

fn single_flow<C>(link: LinkSpec, secs: u64, cc: C) -> proteus_netsim::SimResult
where
    C: proteus_transport::CongestionControl + 'static,
{
    let sc = Scenario::new(link, Dur::from_secs(secs))
        .flow(FlowSpec::bulk("flow", Dur::ZERO, move || Box::new(cc)))
        .with_seed(11);
    run(sc)
}

fn steady_throughput_mbps(res: &proteus_netsim::SimResult, secs: u64) -> f64 {
    res.flows[0].throughput_mbps(
        Time::from_secs_f64(secs as f64 * 0.3),
        Time::from_secs_f64(secs as f64),
    )
}

#[test]
fn cubic_saturates_2bdp_buffer() {
    let res = single_flow(paper_link(375_000), 30, Cubic::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 45.0, "CUBIC throughput = {thpt}");
    // Loss-based: the buffer fills, RTT inflates well past base.
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    assert!(p95 > 0.060, "CUBIC p95 RTT = {p95}");
}

#[test]
fn cubic_struggles_with_random_loss() {
    let link = paper_link(375_000).with_random_loss(0.02);
    let res = single_flow(link, 30, Cubic::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt < 25.0, "CUBIC under 2% loss = {thpt}");
}

#[test]
fn bbr_saturates_shallow_buffer() {
    // 30 KB ≈ 0.16 BDP: loss-based protocols crater here, BBR should not.
    let res = single_flow(paper_link(30_000), 30, Bbr::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 40.0, "BBR throughput = {thpt}");
}

#[test]
fn bbr_keeps_rtt_near_base() {
    let res = single_flow(paper_link(375_000), 30, Bbr::new());
    let p50 = res.flows[0].rtt_percentile(50.0).unwrap();
    // BBR's steady-state inflight ≈ 2 BDP bound, but median should stay
    // well under the full 60 ms of buffering.
    assert!(p50 < 0.070, "BBR median RTT = {p50}");
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 40.0, "BBR throughput = {thpt}");
}

#[test]
fn bbr_tolerates_random_loss() {
    let link = paper_link(375_000).with_random_loss(0.02);
    let res = single_flow(link, 30, Bbr::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 35.0, "BBR under 2% loss = {thpt}");
}

#[test]
fn copa_fills_link_with_low_delay() {
    let res = single_flow(paper_link(375_000), 30, Copa::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 35.0, "COPA throughput = {thpt}");
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    // Default-mode COPA targets ~2 packets of queueing per flow; even with
    // probing dynamics it must stay far from the 60 ms full-buffer mark.
    assert!(p95 < 0.050, "COPA p95 RTT = {p95}");
}

#[test]
fn ledbat_inflates_to_its_target() {
    // Buffer large enough to accommodate the 100 ms target (> 625 KB at
    // 50 Mbps). LEDBAT approaches its target slowly (≤ GAIN·MSS/RTT), so
    // give it a long run and judge the tail.
    let res = single_flow(paper_link(1_000_000), 180, Ledbat::new());
    let thpt = steady_throughput_mbps(&res, 180);
    assert!(thpt > 40.0, "LEDBAT throughput = {thpt}");
    let tail: Vec<f64> = res.flows[0]
        .rtt_samples()
        .filter(|&(t, _)| (120.0..180.0).contains(&t))
        .map(|(_, rtt)| rtt)
        .collect();
    let p50 = proteus_stats::median(&tail).unwrap();
    // base 30 ms + ~100 ms target queueing.
    assert!(p50 > 0.100 && p50 < 0.165, "LEDBAT tail median RTT = {p50}");
}

#[test]
fn ledbat25_inflates_less() {
    let res100 = single_flow(paper_link(1_000_000), 60, Ledbat::new());
    let res25 = single_flow(paper_link(1_000_000), 60, Ledbat::draft25());
    let p50_100 = res100.flows[0].rtt_percentile(50.0).unwrap();
    let p50_25 = res25.flows[0].rtt_percentile(50.0).unwrap();
    assert!(
        p50_25 < p50_100,
        "25ms target should queue less: {p50_25} vs {p50_100}"
    );
    assert!(
        p50_25 > 0.035 && p50_25 < 0.090,
        "LEDBAT-25 median RTT = {p50_25}"
    );
}

#[test]
fn ledbat_fragile_under_tiny_random_loss() {
    // The paper: LEDBAT suffers ~50% degradation at 0.001-1% random loss.
    let link = paper_link(1_000_000).with_random_loss(0.005);
    let res = single_flow(link, 60, Ledbat::new());
    let thpt = steady_throughput_mbps(&res, 60);
    assert!(thpt < 35.0, "LEDBAT under 0.5% loss = {thpt}");
}

#[test]
fn probe_holds_fixed_rate_and_sees_base_rtt() {
    let res = single_flow(paper_link(375_000), 20, FixedRateProbe::mbps(20.0));
    let thpt = steady_throughput_mbps(&res, 20);
    assert!((thpt - 20.0).abs() < 1.0, "probe throughput = {thpt}");
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    assert!(p95 < 0.035, "probe p95 RTT = {p95}");
}

#[test]
fn cubic_beats_ledbat_on_shared_bottleneck() {
    // LEDBAT's defining property: it yields to CUBIC when the buffer can
    // hold more than its target delay (1 MB ≈ 160 ms > 100 ms target).
    let sc = Scenario::new(paper_link(1_000_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk(
            "cubic",
            Dur::ZERO,
            || Box::new(Cubic::new()),
        ))
        .flow(FlowSpec::bulk("ledbat", Dur::from_secs(5), || {
            Box::new(Ledbat::new())
        }))
        .with_seed(5);
    let res = run(sc);
    let cubic = res.flows[0].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    let ledbat = res.flows[1].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    assert!(
        cubic > 3.0 * ledbat,
        "CUBIC {cubic} vs LEDBAT {ledbat}: scavenger failed to yield"
    );
}

#[test]
fn ledbat_latecomer_advantage() {
    // Two LEDBAT flows. The buffer must be able to absorb the latecomer's
    // doubled delay target (its "base" includes the first flow's ~100 ms of
    // standing queue), i.e. > 200 ms of queueing: 2.5 MB at 50 Mbps = 400 ms.
    // The second flow measures an inflated base delay and starves the first
    // (the paper's §6.1.3 latecomer issue).
    let sc = Scenario::new(paper_link(2_500_000), Dur::from_secs(400))
        .flow(FlowSpec::bulk("first", Dur::ZERO, || {
            Box::new(Ledbat::new())
        }))
        .flow(FlowSpec::bulk("second", Dur::from_secs(120), || {
            Box::new(Ledbat::new())
        }))
        .with_seed(5)
        .with_rtt_stride(4);
    let res = run(sc);
    let first =
        res.flows[0].throughput_mbps(Time::from_secs_f64(340.0), Time::from_secs_f64(400.0));
    let second =
        res.flows[1].throughput_mbps(Time::from_secs_f64(340.0), Time::from_secs_f64(400.0));
    assert!(
        second > 1.5 * first,
        "latecomer should dominate: first {first}, second {second}"
    );
}

#[test]
fn two_cubic_flows_share_fairly() {
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk("a", Dur::ZERO, || Box::new(Cubic::new())))
        .flow(FlowSpec::bulk("b", Dur::from_secs(5), || {
            Box::new(Cubic::new())
        }))
        .with_seed(5);
    let res = run(sc);
    let a = res.flows[0].throughput_mbps(Time::from_secs_f64(25.0), Time::from_secs_f64(60.0));
    let b = res.flows[1].throughput_mbps(Time::from_secs_f64(25.0), Time::from_secs_f64(60.0));
    let jain = proteus_stats::jain_index(&[a, b]).unwrap();
    assert!(jain > 0.9, "CUBIC fairness = {jain} ({a} vs {b})");
    assert!(a + b > 44.0, "joint utilization low: {}", a + b);
}

#[test]
fn cross_fills_link_with_low_delay() {
    // Alone on a clean link the delay-gradient machine probes up to
    // capacity but backs off before the queue inflates past TARGET_HIGH.
    let res = single_flow(paper_link(375_000), 30, Cross::new());
    let thpt = steady_throughput_mbps(&res, 30);
    assert!(thpt > 35.0, "Cross throughput = {thpt}");
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    // base 30 ms + ≤25 ms backoff threshold + probing overshoot.
    assert!(p95 < 0.080, "Cross p95 RTT = {p95}");
}

#[test]
fn cross_starves_against_cubic_buffer_filler() {
    // The classic delay-based weakness (shared with Vegas/LEDBAT): a
    // loss-based buffer-filler inflates delay, so Cross backs off hard.
    // This is by design for an interactive controller — it is the reason
    // the RTC campaign measures *who* harms the call, not whether Cross
    // defends throughput.
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk(
            "cubic",
            Dur::ZERO,
            || Box::new(Cubic::new()),
        ))
        .flow(FlowSpec::bulk("cross", Dur::from_secs(5), || {
            Box::new(Cross::new())
        }))
        .with_seed(5);
    let res = run(sc);
    let cubic = res.flows[0].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    let cross = res.flows[1].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    assert!(
        cubic > 3.0 * cross,
        "Cross should cede to CUBIC: cubic {cubic}, cross {cross}"
    );
}

#[test]
fn cross_safety_window_bounds_outage_losses() {
    // 5 s blackout mid-run. A purely paced sender with no window would
    // keep streaming into the dead link for the whole outage; Cross's
    // rate-derived safety window caps in-flight data, so its loss count
    // stays a small fraction of the fixed-rate probe's.
    let run_with = |cc: Box<dyn proteus_transport::CongestionControl>| {
        let cell = std::cell::RefCell::new(Some(cc));
        let sc = Scenario::new(paper_link(375_000), Dur::from_secs(20))
            .with_seed(11)
            .with_faults(FaultSchedule::new().outage(Dur::from_secs(10), Dur::from_secs(5)))
            .flow(FlowSpec::bulk("flow", Dur::ZERO, move || {
                cell.borrow_mut().take().expect("single use")
            }));
        run(sc)
    };
    let cross = run_with(Box::new(Cross::new()));
    let probe = run_with(Box::new(FixedRateProbe::mbps(20.0)));
    let cross_lost = cross.flows[0].pkts_lost;
    let probe_lost = probe.flows[0].pkts_lost;
    assert!(
        probe_lost > 4 * cross_lost,
        "windowless probe lost {probe_lost}, Cross lost {cross_lost}"
    );
    assert!(cross_lost < 2_000, "Cross outage losses = {cross_lost}");
    // And it recovers after the link returns.
    let tail = cross.flows[0].throughput_mbps(Time::from_secs_f64(17.0), Time::from_secs_f64(20.0));
    assert!(tail > 1.0, "post-outage goodput = {tail}");
}

#[test]
fn bbr_s_yields_to_cubic_in_sim() {
    // §7.1 / Fig. 14: BBR-S vs CUBIC — BBR-S should take a small share.
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk(
            "cubic",
            Dur::ZERO,
            || Box::new(Cubic::new()),
        ))
        .flow(FlowSpec::bulk("bbr-s", Dur::from_secs(5), || {
            Box::new(Bbr::scavenger())
        }))
        .with_seed(5);
    let res = run(sc);
    let cubic = res.flows[0].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    let bbrs = res.flows[1].throughput_mbps(Time::from_secs_f64(20.0), Time::from_secs_f64(60.0));
    assert!(
        cubic > 2.0 * bbrs,
        "BBR-S should yield to CUBIC: cubic {cubic}, bbr-s {bbrs}"
    );
}
