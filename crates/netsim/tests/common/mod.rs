//! Shared by the engine-level suites: the stub controllers, the result
//! digests and the randomized scenario generator.
#![allow(dead_code)] // every suite uses its own subset

use proptest::prelude::*;
use proptest::{seed_from_name, TestRng};
use proteus_netsim::{
    AckCompression, ChurnClass, ChurnSpec, FaultSchedule, FlowSpec, GilbertElliott, LinkId,
    LinkSpec, NoiseConfig, ReorderConfig, Scenario, SimResult, Topology,
};
use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, Time};

/// Fixed congestion window, ACK-clocked; ignores losses.
pub struct TestWindow {
    pub cwnd: u64,
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
pub struct TestPaced {
    pub rate: f64, // bytes/sec
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

/// A `SimResult` is plain data all the way down; its debug rendering covers
/// every field (per-flow counters, throughput bins, RTT samples, telemetry,
/// decisions, link summaries with fault stats, event accounting), so string
/// equality here is full-result equality.
pub fn digest(r: &SimResult) -> String {
    format!("{r:?}")
}

/// [`digest`] with the event accounting zeroed. `EventStats` measures queue
/// *mechanics* — the fused path deliberately pushes fewer scheduler events
/// — so it is the one field where staged and fused legitimately differ;
/// everything observable must match exactly.
pub fn digest_scrubbed(r: &SimResult) -> String {
    let mut scrubbed = r.clone();
    scrubbed.events = Default::default();
    format!("{scrubbed:?}")
}

/// One randomized scenario. Population shape, churn, the noise model, every
/// fault class and the topology all vary.
#[derive(Debug, Clone)]
pub struct RandScenario {
    pub rate_mbps: f64,
    pub rtt_ms: u64,
    pub buffer: u64,
    pub loss: f64,
    pub n_win: usize,
    pub n_paced: usize,
    pub churn: bool,
    /// 0 none, 1 Gaussian, 2 `NoiseConfig::wifi_default()`.
    pub noise: u8,
    /// Bandwidth step + outage.
    pub faulted: bool,
    /// RTT halves mid-run: later packets arrive before earlier ones' lane
    /// entries.
    pub rtt_down: bool,
    pub reorder: bool,
    pub ack_compression: bool,
    pub burst_loss: bool,
    /// 1 = the dumbbell; 2–3 = a chain whose links differ in RTT, or
    /// (`parking`) a parking lot of identical links.
    pub links: usize,
    pub parking: bool,
    pub seed: u64,
}

impl RandScenario {
    /// Number of [`RandScenario::cases`].
    pub const CASES: usize = 48;

    /// The generated cases every equivalence suite runs: a fixed, seeded
    /// draw, so a failure names a case any suite can reproduce.
    pub fn cases() -> Vec<RandScenario> {
        let mut rng = TestRng::new(seed_from_name(
            "wire_equivalence::randomized_scenarios_are_wire_path_independent",
        ));
        (0..Self::CASES).map(|_| Self::sample(&mut rng)).collect()
    }

    fn sample(rng: &mut TestRng) -> RandScenario {
        RandScenario {
            rate_mbps: (10.0f64..100.0).sample(rng),
            rtt_ms: (6u64..60).sample(rng),
            buffer: (50_000u64..500_000).sample(rng),
            loss: prop_oneof![Just(0.0), 0.001f64..0.02].sample(rng),
            n_win: (0usize..3).sample(rng),
            n_paced: (0usize..3).sample(rng),
            churn: any::<bool>().sample(rng),
            noise: (0u8..3).sample(rng),
            faulted: any::<bool>().sample(rng),
            rtt_down: any::<bool>().sample(rng),
            reorder: any::<bool>().sample(rng),
            ack_compression: any::<bool>().sample(rng),
            burst_loss: any::<bool>().sample(rng),
            links: (1usize..4).sample(rng),
            parking: any::<bool>().sample(rng),
            seed: any::<u64>().sample(rng),
        }
    }

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

    pub fn build(&self) -> Scenario {
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
}
