//! Scenario-level edge cases and statistical sanity checks for the
//! simulator.

use proteus_netsim::{run, CrossTrafficSpec, FlowSpec, LinkSpec, NoiseConfig, Scenario};
use proteus_stats::Welford;
use proteus_transport::{factory, AckInfo, CongestionControl, Dur, LossInfo, Time};

/// Fixed window (ACK-clocked) helper.
struct Win(u64);
impl CongestionControl for Win {
    fn name(&self) -> &str {
        "win"
    }
    fn on_ack(&mut self, _: Time, _: &AckInfo) {}
    fn on_loss(&mut self, _: Time, _: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn cwnd_bytes(&self) -> u64 {
        self.0
    }
}

/// Fixed pacing rate helper.
struct Rate(f64);
impl CongestionControl for Rate {
    fn name(&self) -> &str {
        "rate"
    }
    fn on_ack(&mut self, _: Time, _: &AckInfo) {}
    fn on_loss(&mut self, _: Time, _: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        Some(self.0)
    }
}

#[test]
fn sized_flows_complete_under_wifi_noise() {
    let link = LinkSpec::new(20.0, Dur::from_millis(40), 200_000)
        .with_noise(NoiseConfig::wifi_default())
        .with_random_loss(0.01);
    let mut sc = Scenario::new(link, Dur::from_secs(60)).with_seed(3);
    for i in 0..5 {
        sc = sc.flow(FlowSpec::sized(
            format!("xfer-{i}"),
            Dur::from_secs(i * 2),
            400_000,
            || Box::new(Win(40_000)),
        ));
    }
    let res = run(sc);
    for f in &res.flows {
        assert!(f.completion_time().is_some(), "{} did not complete", f.name);
        assert!(f.bytes_acked >= 400_000);
    }
}

#[test]
fn probe_rtt_deviation_grows_with_cross_traffic() {
    // The statistical backbone of Fig. 2: more Poisson arrivals ⇒ larger
    // RTT deviation seen by a fixed-rate probe.
    let deviation_at = |rate: f64| -> f64 {
        let link = LinkSpec::new(100.0, Dur::from_millis(60), 1_500_000);
        let mut sc = Scenario::new(link, Dur::from_secs(40))
            .flow(FlowSpec::bulk("probe", Dur::ZERO, || {
                Box::new(Rate(2_500_000.0))
            }))
            .with_seed(11);
        if rate > 0.0 {
            sc = sc.with_cross_traffic(CrossTrafficSpec {
                arrivals_per_sec: rate,
                size_range: (20_000, 100_000),
                cc: factory(|_| proteus_baselines::Cubic::new()),
                start: Dur::ZERO,
                stop: Dur::from_secs(40),
            });
        }
        let res = run(sc);
        let mut acc = Welford::new();
        for (_, rtt) in res.flows[0].rtt_samples() {
            acc.add(rtt);
        }
        acc.std_dev()
    };
    let idle = deviation_at(0.0);
    let busy = deviation_at(9.0);
    assert!(
        busy > 3.0 * idle.max(1e-6),
        "idle dev {idle}, busy dev {busy}"
    );
}

#[test]
fn gaussian_noise_spreads_rtt_without_breaking_transport() {
    let link =
        LinkSpec::new(20.0, Dur::from_millis(40), 200_000).with_noise(NoiseConfig::Gaussian {
            std: Dur::from_millis(2),
        });
    let sc = Scenario::new(link, Dur::from_secs(20))
        .flow(FlowSpec::bulk("p", Dur::ZERO, || Box::new(Rate(500_000.0))))
        .with_seed(7);
    let res = run(sc);
    let m = &res.flows[0];
    assert_eq!(m.pkts_lost, 0, "jitter must not fake losses");
    let p95 = m.rtt_percentile(95.0).unwrap();
    let p5 = proteus_stats::percentile(&m.rtt_values(), 5.0).unwrap();
    assert!(p95 - p5 > 0.002, "jitter should spread RTTs: {p5}..{p95}");
}

/// Occupancy is bounded by the buffer, and an over-driven window pins it
/// near full: read off the link's own peak (there is no queue sampler).
#[test]
fn queue_samples_track_buffer_occupancy_bounds() {
    let link = LinkSpec::new(10.0, Dur::from_millis(20), 60_000);
    let sc = Scenario::new(link, Dur::from_secs(10))
        .flow(FlowSpec::bulk("w", Dur::ZERO, || Box::new(Win(500_000))))
        .with_seed(7);
    let peak = run(sc).links[0].peak_queued_bytes;
    assert!(peak <= 60_000, "queue exceeded the buffer: {peak}");
    assert!(peak > 55_000, "peak queue = {peak}");
}

#[test]
fn unreliable_sized_flow_may_finish_short_on_lossy_link() {
    // With reliability off, lost bytes are not retransmitted — the flow
    // only "finishes" if every byte is delivered, so under loss it keeps
    // waiting (documents the semantics of `with_reliability(false)`).
    let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000).with_random_loss(0.05);
    let sc = Scenario::new(link, Dur::from_secs(20))
        .flow(
            FlowSpec::sized("x", Dur::ZERO, 1_000_000, || Box::new(Win(50_000)))
                .with_reliability(false),
        )
        .with_seed(7);
    let res = run(sc);
    let m = &res.flows[0];
    assert!(m.bytes_acked < 1_000_000);
    assert!(m.completion_time().is_none());
}

#[test]
fn zero_length_cross_traffic_window_spawns_nothing() {
    let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
    let sc = Scenario::new(link, Dur::from_secs(5))
        .with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: 100.0,
            size_range: (1_000, 2_000),
            cc: factory(|_| proteus_baselines::Cubic::new()),
            start: Dur::from_secs(2),
            stop: Dur::from_secs(2),
        })
        .with_seed(7);
    let res = run(sc);
    assert!(res.flows.is_empty(), "spawned {} flows", res.flows.len());
}

#[test]
fn many_flow_scenario_remains_stable_and_work_conserving() {
    let link = LinkSpec::new(100.0, Dur::from_millis(20), 500_000);
    let mut sc = Scenario::new(link, Dur::from_secs(20))
        .with_seed(5)
        .with_rtt_stride(8);
    for i in 0..12 {
        sc = sc.flow(FlowSpec::bulk(
            format!("f{i}"),
            Dur::from_secs_f64(i as f64 * 0.5),
            move || Box::new(Win(80_000)) as Box<dyn CongestionControl>,
        ));
    }
    let res = run(sc);
    let util = res.utilization(Time::from_secs_f64(8.0), Time::from_secs_f64(20.0));
    assert!(util > 0.95, "utilization = {util}");
    for f in &res.flows {
        assert!(f.bytes_acked > 0, "{} starved entirely", f.name);
    }
}
