//! Criterion micro-benchmarks for the hot paths of the reproduction: per-ACK
//! controller costs, MI accounting, utility evaluation and raw simulator
//! event throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use proteus_core::{evaluate, MiObservation, Mode, ProteusSender, SharedThreshold, UtilityParams};
use proteus_netsim::{
    run, AckCompression, ChurnClass, ChurnSpec, FaultSchedule, FlowSpec, GilbertElliott, LinkSpec,
    ReorderConfig, Scenario, Topology,
};
use proteus_transport::{AckInfo, CongestionControl, Dur, MiStats, MiTracker, SentPacket, Time};

fn ack(seq: u64, sent_ms: u64, rtt_ms: u64) -> AckInfo {
    AckInfo {
        seq,
        bytes: 1500,
        sent_at: Time::from_millis(sent_ms),
        recv_at: Time::from_millis(sent_ms + rtt_ms),
        rtt: Dur::from_millis(rtt_ms),
        one_way_delay: Dur::from_millis(rtt_ms / 2),
    }
}

fn bench_utility(c: &mut Criterion) {
    let params = UtilityParams::default();
    let obs = MiObservation {
        rate_mbps: 47.3,
        loss_rate: 0.01,
        rtt_gradient: 0.004,
        rtt_deviation: 0.0006,
        rtt_s: 0.034,
    };
    c.bench_function("utility/proteus_s", |b| {
        b.iter(|| evaluate(&Mode::Scavenger, black_box(&params), black_box(&obs)))
    });
    c.bench_function("utility/proteus_p", |b| {
        b.iter(|| evaluate(&Mode::Primary, black_box(&params), black_box(&obs)))
    });
}

fn bench_mi_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("mi_tracker");
    // One full 100-packet MI: send, roll, drain every ACK. `out` is reused
    // across iterations like the senders reuse their scratch buffer.
    group.bench_function("100pkt_interval", |b| {
        let mut out: Vec<MiStats> = Vec::new();
        b.iter(|| {
            let mut t = MiTracker::new();
            t.start_mi(Time::ZERO, 6e6);
            for i in 0..100u64 {
                t.on_sent(&SentPacket {
                    seq: i,
                    bytes: 1500,
                    sent_at: Time::from_micros(i * 300),
                });
            }
            t.start_mi(Time::from_millis(30), 6e6);
            let mut done = 0;
            for i in 0..100u64 {
                out.clear();
                t.on_ack_into(&ack(i, i * 3 / 10, 30), &mut out);
                done += out.len();
            }
            black_box(done)
        })
    });
    // Same interval with every RTT sample excluded (`keep_rtt = false`):
    // the path Proteus' per-ACK noise filter takes during a burst episode.
    group.bench_function("100pkt_interval_filtered", |b| {
        let mut out: Vec<MiStats> = Vec::new();
        b.iter(|| {
            let mut t = MiTracker::new();
            t.start_mi(Time::ZERO, 6e6);
            for i in 0..100u64 {
                t.on_sent(&SentPacket {
                    seq: i,
                    bytes: 1500,
                    sent_at: Time::from_micros(i * 300),
                });
            }
            t.start_mi(Time::from_millis(30), 6e6);
            let mut done = 0;
            for i in 0..100u64 {
                out.clear();
                t.on_ack_filtered_into(&ack(i, i * 3 / 10, 30), false, &mut out);
                done += out.len();
            }
            black_box(done)
        })
    });
    group.finish();
}

fn bench_cc_per_ack(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_ack");
    for name in ["CUBIC", "BBR", "COPA", "LEDBAT", "Proteus-S"] {
        group.bench_function(name, |b| {
            let mut cc = proteus_bench::cc(name, 1);
            cc.on_flow_start(Time::ZERO);
            let mut seq = 0u64;
            b.iter(|| {
                seq += 1;
                cc.on_packet_sent(
                    Time::from_millis(seq),
                    &SentPacket {
                        seq,
                        bytes: 1500,
                        sent_at: Time::from_millis(seq),
                    },
                );
                cc.on_ack(Time::from_millis(seq + 30), &ack(seq, seq, 30));
                black_box(cc.cwnd_bytes())
            })
        });
    }
    // Per-ACK cost at BDP-like occupancy: 256 packets stay in flight and
    // the controller's own MI timer fires, so seq attribution spans
    // hundreds of live packets across several pending MIs and every ~30th
    // ACK closes an interval (regression fit, utility, rate update) — the
    // shape a saturated 60 ms flow presents, where the single-outstanding
    // loop above keeps every structure trivially small.
    group.bench_function("Proteus-S-256inflight", |b| {
        let mut cc = proteus_bench::cc("Proteus-S", 1);
        cc.on_flow_start(Time::ZERO);
        let mut seq = 0u64;
        for _ in 0..256 {
            seq += 1;
            cc.on_packet_sent(
                Time::from_millis(seq),
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: Time::from_millis(seq),
                },
            );
        }
        b.iter(|| {
            seq += 1;
            let now = Time::from_millis(seq);
            if cc.next_timer().is_some_and(|t| t <= now) {
                cc.on_timer(now);
            }
            cc.on_packet_sent(
                now,
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: now,
                },
            );
            let old = seq - 256;
            cc.on_ack(now, &ack(old, old, 30));
            black_box(cc.cwnd_bytes())
        })
    });
    // Proteus-H with live mode switching: every 64 ACKs the sender flips
    // between hybrid and scavenger objectives and the application retunes
    // the shared threshold — the §4.4 cross-layer path, so the per-ACK cost
    // of mode churn is tracked alongside the steady modes.
    group.bench_function("Proteus-H-switching", |b| {
        let threshold = SharedThreshold::new(25.0);
        let mut cc = ProteusSender::hybrid(1, threshold.clone());
        cc.on_flow_start(Time::ZERO);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            if seq.is_multiple_of(64) {
                if (seq / 64).is_multiple_of(2) {
                    threshold.set(5.0);
                    cc.set_mode(Mode::Hybrid(threshold.clone()));
                } else {
                    threshold.set(50.0);
                    cc.set_mode(Mode::Scavenger);
                }
            }
            cc.on_packet_sent(
                Time::from_millis(seq),
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: Time::from_millis(seq),
                },
            );
            cc.on_ack(Time::from_millis(seq + 30), &ack(seq, seq, 30));
            black_box(cc.rate_mbps())
        })
    });
    // Decision tracing enabled (RingSink): the same single-outstanding
    // Proteus-S loop as above, so the delta against `per_ack/Proteus-S`
    // is the full cost of recording MI-close/gate/transition events. The
    // untraced rows must not move at all — with the default NoopSink the
    // recording sites compile away (the ≤2% acceptance bound vs the
    // untraced numbers recorded in CHANGES.md).
    group.bench_function("Proteus-S-traced", |b| {
        let mut cc = ProteusSender::scavenger(1).with_sink(proteus_trace::RingSink::new(
            proteus_trace::MI_RING_CAPACITY,
        ));
        cc.on_flow_start(Time::ZERO);
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            cc.on_packet_sent(
                Time::from_millis(seq),
                &SentPacket {
                    seq,
                    bytes: 1500,
                    sent_at: Time::from_millis(seq),
                },
            );
            cc.on_ack(Time::from_millis(seq + 30), &ack(seq, seq, 30));
            black_box(cc.rate_mbps())
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("sim/cubic_2s_50mbps", |b| {
        b.iter(|| {
            let sc = Scenario::new(
                LinkSpec::new(50.0, Dur::from_millis(30), 375_000),
                Dur::from_secs(2),
            )
            .flow(FlowSpec::bulk("c", Dur::ZERO, || {
                proteus_bench::cc("CUBIC", 1)
            }))
            .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
}

/// Fixed congestion window: pure ACK-clocking, no pacing events. Isolates
/// the engine's per-packet cost (heap, in-flight tracking, metrics) from
/// controller logic.
struct FixedWindow {
    cwnd: u64,
}

impl proteus_transport::CongestionControl for FixedWindow {
    fn name(&self) -> &str {
        "fixed-window"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &proteus_transport::LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
}

/// Fixed pacing rate: every transmission goes through the pacing gate, so
/// this shape stresses the Pace-event path of the engine.
struct FixedPaced {
    rate: f64, // bytes/sec
}

impl proteus_transport::CongestionControl for FixedPaced {
    fn name(&self) -> &str {
        "fixed-paced"
    }
    fn on_ack(&mut self, _now: Time, _ack: &AckInfo) {}
    fn on_loss(&mut self, _now: Time, _loss: &proteus_transport::LossInfo) {}
    fn pacing_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
}

/// Engine-loop benchmarks: raw discrete-event throughput for the two flow
/// shapes every experiment reduces to (ACK-clocked and paced), clean and
/// lossy, plus the ACK-clocked shape over a 3-hop chain (per-hop forward
/// lanes). Reported as ns per simulated run; lower is faster engine.
fn bench_engine_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    let link = || LinkSpec::new(50.0, Dur::from_millis(30), 375_000);

    group.bench_function("ack_clocked_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link(), Dur::from_secs(2))
                .flow(FlowSpec::bulk("w", Dur::ZERO, || {
                    Box::new(FixedWindow { cwnd: 375_000 })
                }))
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("ack_clocked_lossy_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link().with_random_loss(0.01), Dur::from_secs(2))
                .flow(FlowSpec::bulk("w", Dur::ZERO, || {
                    Box::new(FixedWindow { cwnd: 375_000 })
                }))
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("paced_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link(), Dur::from_secs(2))
                .flow(FlowSpec::bulk("p", Dur::ZERO, || {
                    Box::new(FixedPaced { rate: 5_000_000.0 }) // 40 Mbps
                }))
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("paced_lossy_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link().with_random_loss(0.01), Dur::from_secs(2))
                .flow(FlowSpec::bulk("p", Dur::ZERO, || {
                    Box::new(FixedPaced { rate: 5_000_000.0 })
                }))
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("chain3_2s", |b| {
        b.iter(|| {
            // The same 30 ms and 375 KB end to end, split over three hops.
            let hop = LinkSpec::new(50.0, Dur::from_millis(10), 125_000);
            let sc = Scenario::over(Topology::chain([hop; 3]), Dur::from_secs(2))
                .flow(FlowSpec::bulk("w", Dur::ZERO, || {
                    Box::new(FixedWindow { cwnd: 375_000 })
                }))
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.finish();
}

/// Fault-injection path benchmarks: the ACK-clocked 2 s scenario of the
/// `engine` group run (a) with no schedule at all, (b) with an *empty*
/// `FaultSchedule` (normalized away at scenario build time, so it must cost
/// nothing), and (c) with a populated schedule exercising every fault class
/// at once — bandwidth steps, Gilbert–Elliott burst loss, bounded
/// reordering and ACK-compression episodes. The (c)−(a) delta is the price
/// of the fault branches in `Link::transmit` plus the injected work itself.
fn bench_fault_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault");
    let link = || LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    let flow = || FlowSpec::bulk("w", Dur::ZERO, || Box::new(FixedWindow { cwnd: 375_000 }));

    group.bench_function("clean_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link(), Dur::from_secs(2))
                .flow(flow())
                .with_seed(7);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("empty_schedule_2s", |b| {
        b.iter(|| {
            let sc = Scenario::new(link(), Dur::from_secs(2))
                .flow(flow())
                .with_seed(7)
                .with_faults(FaultSchedule::new());
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.bench_function("populated_2s", |b| {
        b.iter(|| {
            let faults = FaultSchedule::new()
                .bandwidth_step(Dur::from_millis(500), 25.0)
                .bandwidth_step(Dur::from_millis(1000), 50.0)
                .outage(Dur::from_millis(1400), Dur::from_millis(100))
                .with_burst_loss(GilbertElliott::default())
                .with_reorder(ReorderConfig {
                    prob: 0.01,
                    max_extra: Dur::from_millis(2),
                })
                .with_ack_compression(AckCompression {
                    every: Dur::from_millis(500),
                    hold: Dur::from_millis(40),
                });
            let sc = Scenario::new(link(), Dur::from_secs(2))
                .flow(flow())
                .with_seed(7)
                .with_faults(faults);
            black_box(run(sc).flows[0].bytes_acked)
        })
    });
    group.finish();
}

/// Population-scale benchmark: a full churning simulation (250 warm-start
/// paced flows, Poisson arrivals, 4 s) — the workload the `scale` campaign
/// runs at 40× the size, where scheduler depth, timers and the flow table
/// dominate (DESIGN.md §4c).
fn bench_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.bench_function("e2e_churn", |b| {
        b.iter(|| {
            let classes = vec![ChurnClass::new(
                "paced",
                1.0,
                proteus_transport::factory(|_| FixedPaced { rate: 125_000.0 }),
            )];
            let sc = Scenario::new(
                LinkSpec::new(250.0, Dur::from_millis(30), 1_875_000),
                Dur::from_secs(4),
            )
            .with_churn(ChurnSpec::new(50.0, Dur::from_secs(5), classes).with_initial(250))
            .with_rtt_stride(64)
            .with_throughput_bin(Dur::from_secs(1))
            .with_seed(7);
            black_box(run(sc).flows.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_utility,
    bench_mi_tracker,
    bench_cc_per_ack,
    bench_simulator,
    bench_engine_loop,
    bench_fault_path,
    bench_scale
);
criterion_main!(benches);
