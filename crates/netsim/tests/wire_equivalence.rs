//! Wire-path equivalence: the fused wire path (per-link lanes plus
//! link-owned departures) and the staged scheduler chain must produce
//! *identical* `SimResult`s, because every event keeps the `(time,
//! push-sequence)` key the staged path gives it and the queue pops lanes and
//! scheduler in that same total order. Exercised on the
//! `sched_equivalence.rs` scenario matrix (legacy-shaped, faulted, churn)
//! plus clean-with-loss, paced and noisy scenarios, and on randomized
//! scenarios via proptest (populations × churn × every fault class × noise
//! models × chains and parking lots with sub-paths) — the inputs that break
//! lane monotonicity and force the per-event fallback to the scheduler.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use proteus_netsim::{
    run, AckCompression, ChurnClass, ChurnSpec, CrossTrafficSpec, FaultSchedule, FlowSpec,
    GilbertElliott, LinkId, LinkSpec, NoiseConfig, ReorderConfig, Scenario, Scheduler, Sim,
    SimResult, Topology, WirePath,
};
use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, Time};

/// Fixed congestion window, ACK-clocked; ignores losses.
struct TestWindow {
    cwnd: u64,
}

impl CongestionControl for TestWindow {
    fn name(&self) -> &str {
        "test-window"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
}

/// Fixed pacing rate, no window.
struct TestPaced {
    rate: f64, // bytes/sec
}

impl CongestionControl for TestPaced {
    fn name(&self) -> &str {
        "test-paced"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Behavioral digest: the full `SimResult` debug rendering with the event
/// accounting zeroed out. `EventStats` measures queue *mechanics* — the
/// fused path deliberately pushes fewer scheduler events — so it is the one
/// field where staged and fused legitimately differ; everything observable
/// (metrics, samples, traces, decisions, fault stats) must match exactly.
fn digest(r: &SimResult) -> String {
    let mut scrubbed = r.clone();
    scrubbed.events = Default::default();
    format!("{scrubbed:?}")
}

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
        digest(&fused),
        digest(&staged),
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
        .with_queue_sampling(Dur::from_millis(50))
        .with_trace(Dur::from_millis(100))
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
        .with_trace(Dur::from_millis(100))
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
        .with_trace(Dur::from_millis(100))
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
        .with_trace(Dur::from_millis(200))
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
            .with_trace(Dur::from_millis(200))
            .with_seed(77)
    };
    let production = run(mk());
    let reference = Sim::reference(mk(), Scheduler::Wheel, WirePath::Fused).run();
    assert_eq!(format!("{production:?}"), format!("{reference:?}"));
    assert!(production.links[1].fault_stats.link_changes >= 4);
    assert!(production.events.fused > 0 && production.events.lane_fallbacks > 0);
}

/// One randomized scenario. Population shape, churn, the noise model, every
/// fault class and the topology all vary; fused-vs-staged digest equality
/// must hold everywhere.
#[derive(Debug, Clone)]
struct RandScenario {
    rate_mbps: f64,
    rtt_ms: u64,
    buffer: u64,
    loss: f64,
    n_win: usize,
    n_paced: usize,
    churn: bool,
    /// 0 none, 1 Gaussian, 2 `NoiseConfig::wifi_default()`.
    noise: u8,
    /// Bandwidth step + outage.
    faulted: bool,
    /// RTT halves mid-run: later packets arrive before earlier ones' lane
    /// entries.
    rtt_down: bool,
    reorder: bool,
    ack_compression: bool,
    burst_loss: bool,
    /// 1 = the legacy dumbbell; 2–3 = a chain whose links differ in RTT, or
    /// (`parking`) a parking lot of identical links.
    links: usize,
    parking: bool,
    seed: u64,
}

impl RandScenario {
    fn topology(&self) -> Topology {
        let noise = match self.noise {
            0 => NoiseConfig::None,
            1 => NoiseConfig::Gaussian {
                std: Dur::from_micros(200),
            },
            _ => NoiseConfig::wifi_default(),
        };
        let link = |rtt_ms: u64| {
            LinkSpec::new(self.rate_mbps, Dur::from_millis(rtt_ms), self.buffer)
                .with_random_loss(self.loss)
                .with_noise(noise)
        };
        let topo = if self.parking {
            Topology::parking_lot(self.links, link(self.rtt_ms))
        } else {
            // Unequal reverse halves: a sub-path's ACKs return sooner than
            // the full path's through the same last-hop ACK lane.
            Topology::chain((0..self.links as u64).map(|i| link(self.rtt_ms * (i + 1))))
        };
        let mut faults = FaultSchedule::new();
        if self.faulted {
            faults = faults
                .bandwidth_step(Dur::from_millis(800), self.rate_mbps * 0.5)
                .outage(Dur::from_millis(1200), Dur::from_millis(100));
        }
        if self.rtt_down {
            faults = faults.rtt_step(Dur::from_millis(900), Dur::from_millis(self.rtt_ms / 2));
        }
        if self.reorder {
            faults = faults.with_reorder(ReorderConfig {
                prob: 0.02,
                max_extra: Dur::from_millis(3),
            });
        }
        if self.ack_compression {
            faults = faults.with_ack_compression(AckCompression {
                every: Dur::from_millis(300),
                hold: Dur::from_millis(20),
            });
        }
        if self.burst_loss {
            faults = faults.with_burst_loss(GilbertElliott {
                p_enter: 0.005,
                p_exit: 0.3,
                loss_good: 0.0,
                loss_bad: 0.4,
            });
        }
        // The last link: its faults shape both the final deliveries and the
        // ACK releases.
        topo.with_faults((self.links - 1) as LinkId, faults)
    }

    /// Flow `k`'s path: the full path, the last link alone, or everything
    /// but the last link — so flows share lanes with different propagation.
    fn path(&self, k: usize) -> Vec<LinkId> {
        let n = self.links as LinkId;
        match k % 3 {
            1 if n > 1 => vec![n - 1],
            2 if n > 1 => (0..n - 1).collect(),
            _ => (0..n).collect(),
        }
    }

    fn build(&self) -> Scenario {
        let mut s = Scenario::over(self.topology(), Dur::from_secs(2)).with_seed(self.seed);
        for i in 0..self.n_win {
            let cwnd = 40_000 + 20_000 * i as u64;
            s = s.flow(
                FlowSpec::bulk("win", Dur::from_millis(100 * i as u64), move || {
                    Box::new(TestWindow { cwnd })
                })
                .with_path(self.path(i)),
            );
        }
        for i in 0..self.n_paced {
            let rate = 200_000.0 + 150_000.0 * i as f64;
            s = s.flow(
                FlowSpec::bulk("paced", Dur::from_millis(50 * i as u64), move || {
                    Box::new(TestPaced { rate })
                })
                .with_path(self.path(i + 1)),
            );
        }
        if self.churn {
            let classes = vec![ChurnClass::new(
                "churn-win",
                1.0,
                proteus_transport::factory(|_| TestWindow { cwnd: 30_000 }),
            )];
            s = s.with_churn(
                ChurnSpec::new(4.0, Dur::from_millis(500), classes)
                    .with_initial(3)
                    .with_window(Dur::ZERO, Dur::from_millis(1500)),
            );
        }
        s
    }

    fn assert_wire_path_independent(&self) -> SimResult {
        let fused = run(self.build());
        let staged = run_staged(self.build());
        assert_eq!(
            digest(&fused),
            digest(&staged),
            "fused and staged diverged: {self:?}"
        );
        assert_eq!(fused.events.pops, staged.events.pops, "{self:?}");
        assert_eq!(staged.events.fused, 0);
        assert!(
            fused.events.fused > 0 || fused.events.dispatched() < 100,
            "no scenario shape gates the lanes off: {self:?}"
        );
        fused
    }
}

/// Cases of the randomized property below.
const CASES: u32 = 48;
/// Cases run / lane fallbacks seen so far by the randomized property.
static CASES_RUN: AtomicU64 = AtomicU64::new(0);
static FALLBACKS_SEEN: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn randomized_scenarios_are_wire_path_independent(
        rate_mbps in 10.0f64..100.0,
        rtt_ms in 6u64..60,
        buffer in 50_000u64..500_000,
        loss in prop_oneof![Just(0.0), 0.001f64..0.02],
        n_win in 0usize..3,
        n_paced in 0usize..3,
        churn in any::<bool>(),
        noise in 0u8..3,
        faulted in any::<bool>(),
        rtt_down in any::<bool>(),
        reorder in any::<bool>(),
        ack_compression in any::<bool>(),
        burst_loss in any::<bool>(),
        links in 1usize..4,
        parking in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let rs = RandScenario {
            rate_mbps,
            rtt_ms,
            buffer,
            loss,
            n_win,
            n_paced,
            churn,
            noise,
            faulted,
            rtt_down,
            reorder,
            ack_compression,
            burst_loss,
            links,
            parking,
            seed,
        };
        let fused = rs.assert_wire_path_independent();
        FALLBACKS_SEEN.fetch_add(fused.events.lane_fallbacks, Ordering::Relaxed);
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES as u64 {
            prop_assert!(
                FALLBACKS_SEEN.load(Ordering::Relaxed) > 0,
                "no generated case pushed a lane-eligible event out of order"
            );
        }
    }
}
