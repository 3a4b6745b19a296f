//! Wire-path equivalence: the fused wire path (per-link lanes plus
//! link-owned departures) and the staged scheduler chain must produce
//! *identical* `SimResult`s, because every event keeps the `(time,
//! push-sequence)` key the staged path gives it and the queue pops lanes and
//! scheduler in that same total order. Exercised on the
//! `sched_equivalence.rs` scenario matrix (legacy-shaped, faulted, churn)
//! plus clean-with-loss, paced and noisy scenarios, and on the shared
//! randomized cases (`common::RandScenario`: populations × churn × every
//! fault class × noise models × chains and parking lots with sub-paths) —
//! the inputs that break lane monotonicity and force the per-event fallback
//! to the scheduler.

mod common;

use common::{digest_scrubbed, RandScenario, TestPaced, TestWindow};
use proteus_netsim::{
    run, ChurnClass, ChurnSpec, CrossTrafficSpec, FaultSchedule, FlowSpec, GilbertElliott,
    LinkSpec, NoiseConfig, Scenario, Scheduler, Sim, SimResult, Topology, WirePath,
};
use proteus_transport::Dur;

/// Runs the scenario on the staged scheduler chain, the ordering oracle.
fn run_staged(sc: Scenario) -> SimResult {
    Sim::reference(sc, Scheduler::Wheel, WirePath::Staged).run()
}

/// Runs the scenario on both wire paths and asserts digest equality.
/// Returns the fused run's result for lane-share assertions.
fn assert_paths_agree(mk: impl Fn() -> Scenario) -> SimResult {
    let fused = run(mk());
    let staged = run_staged(mk());
    assert_eq!(
        digest_scrubbed(&fused),
        digest_scrubbed(&staged),
        "fused and staged wire paths diverged on an identical scenario"
    );
    assert_eq!(
        fused.events.pops, staged.events.pops,
        "the two wire paths must dispatch the same events by kind"
    );
    assert_eq!(
        (staged.events.fused, staged.events.lane_fallbacks),
        (0, 0),
        "staged path must never dispatch through the wire lanes"
    );
    fused
}

#[test]
fn clean_ack_clocked_scenario_fuses_and_matches() {
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
            Dur::from_secs(5),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .flow(
            FlowSpec::bulk("paced", Dur::from_secs(1), || {
                Box::new(TestPaced { rate: 500_000.0 })
            })
            .with_stop(Dur::from_secs(4)),
        )
        .with_trace()
        .with_seed(7)
    });
    assert!(
        fused.events.fused > 0,
        "clean scenario dispatched nothing through the lanes"
    );
    assert_eq!(
        fused.events.lane_fallbacks, 0,
        "a clean single link is monotone"
    );
    // Every data packet costs three wire dispatches minus the drain-only
    // entries; on a loss-free link the three stages account for the bulk of
    // all dispatches.
    assert!(fused.events.fused_fraction() > 0.5);
}

#[test]
fn clean_scenario_with_random_loss_fuses_and_matches() {
    // `random_loss` is fusion-compatible: the per-packet draw happens at
    // admission from the main RNG in both paths, in the same order.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(40.0, Dur::from_millis(30), 300_000).with_random_loss(0.01),
            Dur::from_secs(6),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .with_cross_traffic(CrossTrafficSpec {
            arrivals_per_sec: 3.0,
            size_range: (20_000, 100_000),
            cc: proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
            start: Dur::ZERO,
            stop: Dur::from_secs(5),
        })
        .with_trace()
        .with_seed(1234)
    });
    assert!(fused.events.fused > 0);
}

#[test]
fn churn_population_fuses_and_matches() {
    let fused = assert_paths_agree(|| {
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
    assert!(fused.events.fused > 0);
}

#[test]
fn noisy_scenario_fuses_and_matches_staged() {
    // Noise draws are RNG-order-sensitive: both paths make them at the same
    // instants, and jitter that lands a delivery before the lane tail takes
    // the scheduler for that one event.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(40.0, Dur::from_millis(30), 300_000)
                .with_random_loss(0.005)
                .with_noise(NoiseConfig::Gaussian {
                    std: Dur::from_micros(300),
                }),
            Dur::from_secs(6),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 150_000 })
        }))
        .with_trace()
        .with_seed(1234)
    });
    assert!(fused.events.fused > 0, "noise must not gate the lanes off");
}

#[test]
fn faulted_scenario_fuses_and_matches_staged() {
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(20.0, Dur::from_millis(30), 150_000),
            Dur::from_secs(10),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 100_000 })
        }))
        // A second flow: one flow alone is kept in order by its own FIFO
        // clamps, so only interleaved flows can see the RTT step down.
        .flow(FlowSpec::bulk("paced", Dur::ZERO, || {
            Box::new(TestPaced { rate: 250_000.0 })
        }))
        .with_faults(
            FaultSchedule::new()
                .bandwidth_step(Dur::from_secs(3), 8.0)
                .rtt_step(Dur::from_secs(5), Dur::from_millis(60))
                .outage(Dur::from_secs(7), Dur::from_millis(500))
                .rtt_step(Dur::from_secs(9), Dur::from_millis(20))
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
    assert!(
        fused.events.fused > 0,
        "a fault schedule must not gate the lanes off"
    );
    assert!(
        fused.events.lane_fallbacks > 0,
        "the RTT step down must push early events past the lane tail"
    );
}

#[test]
fn empty_fault_schedule_still_fuses() {
    // Same normalization rule as `with_faults`: an empty schedule is the
    // static fast path, so it must not disable fusion either.
    let fused = assert_paths_agree(|| {
        Scenario::new(
            LinkSpec::new(30.0, Dur::from_millis(20), 200_000),
            Dur::from_secs(4),
        )
        .flow(FlowSpec::bulk("win", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 80_000 })
        }))
        .with_faults(FaultSchedule::new())
        .with_seed(5)
    });
    assert!(fused.events.fused > 0);
}

/// The oracle entry point cannot drift from production: on its production
/// arguments `Sim::reference` is `run`, event accounting included, on a
/// scenario that exercises the scheduler, both links' lanes and the fault
/// layer at once.
#[test]
fn reference_on_wheel_and_fused_is_the_production_engine() {
    let mk = || {
        let hop = |rtt_ms| LinkSpec::new(20.0, Dur::from_millis(rtt_ms), 150_000);
        let topo = Topology::chain(vec![hop(10), hop(30)]).with_faults(
            1,
            FaultSchedule::new()
                .bandwidth_step(Dur::from_secs(2), 8.0)
                .rtt_step(Dur::from_secs(3), Dur::from_millis(10))
                .outage(Dur::from_secs(4), Dur::from_millis(300))
                .with_burst_loss(GilbertElliott {
                    p_enter: 0.002,
                    p_exit: 0.3,
                    loss_good: 0.0,
                    loss_bad: 0.4,
                }),
        );
        Scenario::over(topo, Dur::from_secs(6))
            .flow(FlowSpec::bulk("win", Dur::ZERO, || {
                Box::new(TestWindow { cwnd: 100_000 })
            }))
            .flow(FlowSpec::bulk("paced", Dur::ZERO, || {
                Box::new(TestPaced { rate: 250_000.0 })
            }))
            .with_trace()
            .with_seed(77)
    };
    let production = run(mk());
    let reference = Sim::reference(mk(), Scheduler::Wheel, WirePath::Fused).run();
    assert_eq!(format!("{production:?}"), format!("{reference:?}"));
    assert!(production.links[1].fault_stats.link_changes >= 4);
    assert!(production.events.fused > 0 && production.events.lane_fallbacks > 0);
}

/// Fused-vs-staged digest equality on every generated case (populations ×
/// churn × every fault class × noise models × chains and parking lots with
/// sub-paths).
#[test]
fn randomized_scenarios_are_wire_path_independent() {
    let mut fallbacks = 0;
    for rs in RandScenario::cases() {
        let fused = run(rs.build());
        let staged = run_staged(rs.build());
        assert_eq!(
            digest_scrubbed(&fused),
            digest_scrubbed(&staged),
            "fused and staged diverged: {rs:?}"
        );
        assert_eq!(fused.events.pops, staged.events.pops, "{rs:?}");
        assert_eq!(staged.events.fused, 0);
        assert!(
            fused.events.fused > 0 || fused.events.dispatched() < 100,
            "no scenario shape gates the lanes off: {rs:?}"
        );
        fallbacks += fused.events.lane_fallbacks;
    }
    assert!(
        fallbacks > 0,
        "no generated case pushed a lane-eligible event out of order"
    );
}
