//! Engine-level scheduler equivalence: the timing wheel and the reference
//! binary heap must produce *identical* `SimResult`s — every metric, RTT
//! sample, telemetry record, decision event and event count — because both
//! pop events in the same `(time, push-sequence)` total order. Exercised on
//! legacy-shaped scenarios (multi-flow, cross traffic, noise, random loss,
//! faults, telemetry), on a churning population, and on the randomized
//! cases `wire_equivalence.rs` runs (`common::RandScenario`).

mod common;

use common::{digest, RandScenario, TestPaced, TestWindow};
use proteus_netsim::{
    run, ChurnClass, ChurnSpec, CrossTrafficSpec, FaultSchedule, FlowSpec, GilbertElliott,
    LinkSpec, NoiseConfig, Scenario, Scheduler, Sim, WirePath,
};
use proteus_transport::Dur;

fn assert_schedulers_agree(mk: impl Fn() -> Scenario) {
    let wheel = run(mk());
    let heap = Sim::reference(mk(), Scheduler::Heap, WirePath::Fused).run();
    assert_eq!(
        digest(&wheel),
        digest(&heap),
        "wheel and heap diverged on an identical scenario"
    );
}

#[test]
fn legacy_shaped_scenario_is_scheduler_independent() {
    // Everything the legacy event stream exercises at once: window + paced
    // flows, a late start/stop, Poisson cross traffic, random loss,
    // Gaussian noise and telemetry.
    assert_schedulers_agree(|| {
        Scenario::new(
            LinkSpec::new(40.0, Dur::from_millis(30), 300_000)
                .with_random_loss(0.005)
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
    });
}

#[test]
fn faulted_scenario_is_scheduler_independent() {
    assert_schedulers_agree(|| {
        Scenario::new(
            LinkSpec::new(20.0, Dur::from_millis(30), 150_000),
            Dur::from_secs(10),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 100_000 })
        }))
        .with_faults(
            FaultSchedule::new()
                .bandwidth_step(Dur::from_secs(3), 8.0)
                .rtt_step(Dur::from_secs(5), Dur::from_millis(60))
                .outage(Dur::from_secs(7), Dur::from_millis(500))
                .with_burst_loss(GilbertElliott {
                    p_enter: 0.002,
                    p_exit: 0.3,
                    loss_good: 0.0,
                    loss_bad: 0.4,
                }),
        )
        .with_trace()
        .with_seed(77)
    });
}

#[test]
fn churn_population_is_scheduler_independent() {
    assert_schedulers_agree(|| {
        let classes = vec![
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
    });
}

#[test]
fn randomized_scenarios_are_scheduler_independent() {
    for rs in RandScenario::cases() {
        let wheel = run(rs.build());
        let heap = Sim::reference(rs.build(), Scheduler::Heap, WirePath::Fused).run();
        assert_eq!(
            digest(&wheel),
            digest(&heap),
            "wheel and heap diverged: {rs:?}"
        );
    }
}
