//! Topology reduction equivalence: a single-link [`Topology`] must be the
//! legacy dumbbell, *byte for byte*. The engine routes every packet through
//! the same per-hop wire chain regardless of path length, and for a
//! one-link path that chain pushes the same events at the same instants and
//! draws from the same RNGs in the same order as the pre-topology engine
//! (DESIGN.md §4g). These tests pin that reduction over the legacy scenario
//! matrix (multi-flow + cross traffic + noise + loss, faults, churn), pin
//! the topology-level fault attachment against the legacy scenario-level
//! one, and pin multi-hop fusion: a chain runs on the wire lanes with
//! results identical to the staged oracle's.

mod common;

use common::{digest, digest_scrubbed, TestPaced, TestWindow};
use proteus_netsim::{
    run, ChurnClass, ChurnSpec, CrossTrafficSpec, FaultSchedule, FlowSpec, GilbertElliott,
    LinkSpec, NoiseConfig, Scenario, Scheduler, Sim, Topology, WirePath,
};
use proteus_transport::{Dur, Time};

/// The legacy matrix scenario: window + paced flows, late start/stop,
/// Poisson cross traffic, random loss, Gaussian noise, telemetry.
fn legacy_matrix(link: LinkSpec) -> Scenario {
    Scenario::new(
        link.with_random_loss(0.005)
            .with_noise(NoiseConfig::Gaussian {
                std: Dur::from_micros(300),
            }),
        Dur::from_secs(8),
    )
    .flow(FlowSpec::bulk("win", Dur::ZERO, || {
        Box::new(TestWindow { cwnd: 150_000 })
    }))
    .flow(
        FlowSpec::bulk("paced", Dur::from_secs(1), || {
            Box::new(TestPaced { rate: 500_000.0 })
        })
        .with_stop(Dur::from_secs(6)),
    )
    .with_cross_traffic(CrossTrafficSpec {
        arrivals_per_sec: 3.0,
        size_range: (20_000, 100_000),
        cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
        start: Dur::ZERO,
        stop: Dur::from_secs(7),
    })
    .with_trace()
    .with_seed(1234)
}

fn fault_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .bandwidth_step(Dur::from_secs(3), 8.0)
        .rtt_step(Dur::from_secs(5), Dur::from_millis(60))
        .outage(Dur::from_secs(7), Dur::from_millis(500))
        .with_burst_loss(GilbertElliott {
            p_enter: 0.002,
            p_exit: 0.3,
            loss_good: 0.0,
            loss_bad: 0.4,
        })
}

/// Explicit single-link paths must be indistinguishable from the default
/// (all-links) path on a one-link topology, over the full legacy matrix.
#[test]
fn explicit_single_link_path_matches_default() {
    let link = LinkSpec::new(40.0, Dur::from_millis(30), 300_000);
    let implicit = run(legacy_matrix(link));
    let mut explicit_sc = legacy_matrix(link);
    for f in &mut explicit_sc.flows {
        f.path = Some(vec![0]);
    }
    let explicit = run(explicit_sc);
    assert_eq!(
        digest(&implicit),
        digest(&explicit),
        "path [0] diverged from the default path on a single-link topology"
    );
}

/// `Topology::with_faults(0, s)` must be byte-identical to the legacy
/// scenario-level `Scenario::with_faults(s)` — same salted fault stream,
/// same event order.
#[test]
fn topology_fault_attachment_matches_legacy() {
    let link = LinkSpec::new(20.0, Dur::from_millis(30), 150_000);
    let mk_flows = |sc: Scenario| {
        sc.flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 100_000 })
        }))
        .with_trace()
        .with_seed(77)
    };
    let legacy = run(mk_flows(
        Scenario::new(link, Dur::from_secs(10)).with_faults(fault_schedule()),
    ));
    let topo = run(mk_flows(Scenario::over(
        Topology::single(link).with_faults(0, fault_schedule()),
        Dur::from_secs(10),
    )));
    assert_eq!(
        digest(&legacy),
        digest(&topo),
        "topology-level fault attachment diverged from scenario-level"
    );
}

/// Churn populations must be path-invariant on a single link: explicitly
/// routing every churn class over `[0]` changes nothing.
#[test]
fn churned_single_link_topology_matches_legacy() {
    let mk = |explicit: bool| {
        let mut classes = vec![
            ChurnClass::new(
                "win",
                2.0,
                proteus_transport::factory(|_| TestWindow { cwnd: 40_000 }),
            ),
            ChurnClass::new(
                "paced",
                1.0,
                proteus_transport::factory(|_| TestPaced { rate: 250_000.0 }),
            ),
        ];
        if explicit {
            classes = classes.into_iter().map(|c| c.with_path([0])).collect();
        }
        Scenario::new(
            LinkSpec::new(100.0, Dur::from_millis(20), 500_000),
            Dur::from_secs(10),
        )
        .with_churn(
            ChurnSpec::new(6.0, Dur::from_secs(2), classes)
                .with_initial(8)
                .with_window(Dur::ZERO, Dur::from_secs(8)),
        )
        .with_seed(42)
    };
    assert_eq!(
        digest(&run(mk(false))),
        digest(&run(mk(true))),
        "explicit churn-class paths diverged on a single-link topology"
    );
}

/// Multi-link topologies fuse too: every hop's forward lane and the last
/// hop's ACK lane carry the wire chain, with observable results identical to
/// the staged oracle's.
#[test]
fn multi_link_topology_fuses_and_matches_staged() {
    let mk = || {
        let topo = Topology::chain(vec![
            LinkSpec::new(50.0, Dur::from_millis(10), 375_000),
            LinkSpec::new(50.0, Dur::from_millis(10), 375_000),
        ]);
        Scenario::over(topo, Dur::from_secs(6))
            .flow(FlowSpec::bulk("win", Dur::ZERO, || {
                Box::new(TestWindow { cwnd: 200_000 })
            }))
            .with_seed(9)
    };
    let fused = run(mk());
    let staged = Sim::reference(mk(), Scheduler::Wheel, WirePath::Staged).run();
    assert!(
        fused.events.fused > 0,
        "a multi-link topology dispatched nothing through the wire lanes"
    );
    assert_eq!(staged.events.fused, 0);
    assert_eq!(fused.events.pops, staged.events.pops);
    assert_eq!(
        digest_scrubbed(&fused),
        digest_scrubbed(&staged),
        "wire path changed results on a multi-link topology"
    );
}

/// Single-link topologies fuse exactly as before the lanes.
#[test]
fn single_link_topology_still_fuses() {
    let r = run(Scenario::new(
        LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
        Dur::from_secs(6),
    )
    .flow(FlowSpec::bulk("win", Dur::ZERO, || {
        Box::new(TestWindow { cwnd: 200_000 })
    }))
    .with_seed(9));
    assert!(
        r.events.fused > 0,
        "clean single-link topology should still take the fused path"
    );
}

/// Semantic sanity: adding a second, non-constraining link to the path
/// leaves throughput within ~2% (it adds propagation delay, not capacity
/// pressure).
#[test]
fn overprovisioned_second_hop_is_transparent_to_throughput() {
    let measure = |topo: Topology| {
        let r = run(Scenario::over(topo, Dur::from_secs(10))
            .flow(FlowSpec::bulk("win", Dur::ZERO, || {
                Box::new(TestWindow { cwnd: 400_000 })
            }))
            .with_seed(5));
        r.flows[0].throughput_mbps(Time::from_secs_f64(2.0), Time::from_secs_f64(10.0))
    };
    let bottleneck = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    let single = measure(Topology::single(bottleneck));
    let chained = measure(Topology::chain(vec![
        bottleneck,
        LinkSpec::new(500.0, Dur::from_millis(2), 2_000_000),
    ]));
    assert!(single > 45.0, "single-link baseline saturates: {single}");
    assert!(
        (single - chained).abs() / single < 0.02,
        "overprovisioned hop shifted throughput: single={single} chained={chained}"
    );
}

/// Per-link summaries cover the run: one per topology link, and every path
/// link carries traffic.
#[test]
fn link_summaries_cover_every_path_link() {
    let topo = Topology::chain(vec![
        LinkSpec::new(50.0, Dur::from_millis(10), 375_000),
        LinkSpec::new(50.0, Dur::from_millis(10), 375_000),
    ]);
    let r = run(Scenario::over(topo, Dur::from_secs(6))
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 200_000 })
        }))
        .with_seed(3));
    assert_eq!(r.links.len(), 2);
    for (i, l) in r.links.iter().enumerate() {
        assert!(l.delivered_bytes > 0, "link {i} saw no traffic");
        assert!(l.peak_queued_bytes > 0, "link {i} never queued");
    }
}
