//! End-to-end RTC media flows through the simulator: frame accounting,
//! latency-SLO metrics, and media-free neutrality.

use proteus_apps::{MediaSource, MediaSpec};
use proteus_baselines::Cubic;
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario, Scheduler, Sim, SimResult, WirePath};
use proteus_transport::Dur;

fn rtc_scenario(secs: u64) -> Scenario {
    let spec = MediaSpec::default();
    Scenario::new(
        LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
        Dur::from_secs(secs),
    )
    .with_seed(11)
    .flow(
        FlowSpec::bulk("RTC", Dur::ZERO, || Box::new(Cubic::new()))
            .with_app(move || Box::new(MediaSource::new(spec)))
            .with_reliability(true),
    )
}

#[test]
fn rtc_flow_accounts_every_frame_end_to_end() {
    let res = run(rtc_scenario(30));
    let m = res.flows[0].media().expect("media metrics present");
    // 30 s at 30 fps on a fat, clean 50 Mbps link.
    assert!(
        (890..=910).contains(&(m.frames_generated() as i64)),
        "frames generated = {}",
        m.frames_generated()
    );
    assert_eq!(
        m.frames_completed() + m.frames_pending(),
        m.frames_generated(),
        "every frame is either completed or pending"
    );
    // The link is ~20x the top rung: nearly everything completes in time.
    assert!(
        m.frames_pending() < 10,
        "pending at end = {}",
        m.frames_pending()
    );
    assert_eq!(m.freeze_count(), 0, "clean fat link should never freeze");
    assert_eq!(m.time_in_freeze(), 0.0);
    let p95 = m.frame_delay_percentile(95.0).expect("delays recorded");
    // One-way 15 ms + serialization; well under the 100 ms deadline.
    assert!(p95 < 0.100, "p95 frame delay = {p95}");
    let p99 = m.frame_delay_percentile(99.0).unwrap();
    assert!(p99 >= p95);
    // App-limited: goodput tracks the ladder top (2.5 Mbit/s + keyframes),
    // nowhere near the 50 Mbit/s a bulk CUBIC flow would take.
    let mbps = res.flows[0].throughput_mbps(
        proteus_transport::Time::from_secs_f64(10.0),
        proteus_transport::Time::from_secs_f64(30.0),
    );
    assert!((1.5..5.0).contains(&mbps), "RTC goodput = {mbps}");
}

#[test]
fn media_free_flows_carry_no_media_metrics() {
    let sc = Scenario::new(
        LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
        Dur::from_secs(10),
    )
    .with_seed(11)
    .flow(FlowSpec::bulk(
        "CUBIC",
        Dur::ZERO,
        || Box::new(Cubic::new()),
    ));
    let res = run(sc);
    assert!(res.flows[0].media().is_none());
    assert!(res.flows[0].bytes_acked > 0);
}

/// Digest of everything the media path could perturb.
fn digest(res: &SimResult) -> (u64, u64, u64, Vec<f64>, u64, f64) {
    let f = &res.flows[0];
    let m = f.media().expect("media");
    (
        f.bytes_acked,
        f.pkts_acked,
        m.frames_completed(),
        m.frame_delays().to_vec(),
        m.freeze_count(),
        m.time_in_freeze(),
    )
}

#[test]
fn media_metrics_identical_across_wire_paths() {
    let fused = run(rtc_scenario(20));
    let staged = Sim::reference(rtc_scenario(20), Scheduler::Wheel, WirePath::Staged).run();
    assert_eq!(digest(&fused), digest(&staged));
}
