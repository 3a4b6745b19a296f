//! Behaviour and determinism of the fault-injection layer, end to end
//! through the engine.
//!
//! Each stochastic fault draws from a dedicated RNG (`crate::fault`), so the
//! contract tested here is twofold: (1) faults visibly change what the
//! scenario measures (throughput dips, loss bursts, reordering, held ACKs),
//! and (2) everything stays a pure function of `(scenario, schedule, seed)`
//! — including that an *empty* schedule is byte-identical to no schedule at
//! all.

mod common;

use common::{digest, TestPaced, TestWindow};
use proteus_netsim::{
    run, AckCompression, FaultSchedule, FlowSpec, GilbertElliott, LinkSpec, ReorderConfig, Scenario,
};
use proteus_transport::{Dur, Time};

fn link_20mbps_30ms() -> LinkSpec {
    // BDP = 20 Mbps * 30 ms = 75 KB; 2-BDP buffer.
    LinkSpec::new(20.0, Dur::from_millis(30), 150_000)
}

fn window_flow(cwnd: u64) -> FlowSpec {
    FlowSpec::bulk("win", Dur::ZERO, move || Box::new(TestWindow { cwnd }))
}

fn paced_flow(mbps: f64) -> FlowSpec {
    FlowSpec::bulk("paced", Dur::ZERO, move || {
        Box::new(TestPaced {
            rate: mbps * 1e6 / 8.0,
        })
    })
}

#[test]
fn same_seed_same_schedule_is_byte_identical() {
    let mk = || {
        Scenario::new(link_20mbps_30ms(), Dur::from_secs(12))
            .flow(window_flow(150_000))
            .with_seed(42)
            .with_trace()
            .with_faults(
                FaultSchedule::new()
                    .bandwidth_step(Dur::from_secs(4), 8.0)
                    .outage(Dur::from_secs(7), Dur::from_millis(800))
                    .with_burst_loss(GilbertElliott::default())
                    .with_reorder(ReorderConfig {
                        prob: 0.01,
                        max_extra: Dur::from_millis(10),
                    })
                    .with_ack_compression(AckCompression {
                        every: Dur::from_secs(2),
                        hold: Dur::from_millis(60),
                    }),
            )
    };
    let a = run(mk());
    let b = run(mk());
    assert_eq!(digest(&a), digest(&b));
    // And a different seed diverges (the schedule is stochastic).
    let c = run({
        let mut sc = mk();
        sc.seed = 43;
        sc
    });
    assert_ne!(digest(&a), digest(&c));
}

#[test]
fn empty_schedule_is_identical_to_no_schedule() {
    let base = || {
        Scenario::new(link_20mbps_30ms().with_random_loss(0.01), Dur::from_secs(8))
            .flow(window_flow(150_000))
            .with_seed(7)
            .with_trace()
    };
    let plain = run(base());
    let empty = run(base().with_faults(FaultSchedule::new()));
    assert_eq!(digest(&plain), digest(&empty));
    assert_eq!(plain.links[0].fault_stats, Default::default());
}

#[test]
fn outage_stalls_throughput_then_recovers() {
    let sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(12))
        .flow(window_flow(150_000))
        .with_seed(1)
        .with_faults(FaultSchedule::new().outage(Dur::from_secs(4), Dur::from_secs(2)));
    let res = run(sc);
    let m = &res.flows[0];
    let before = m.throughput_mbps(Time::from_secs_f64(1.0), Time::from_secs_f64(4.0));
    let during = m.throughput_mbps(Time::from_secs_f64(4.5), Time::from_secs_f64(6.0));
    let after = m.throughput_mbps(Time::from_secs_f64(8.0), Time::from_secs_f64(12.0));
    assert!(before > 17.0, "before = {before}");
    assert!(during < 1.0, "during = {during}");
    assert!(after > 15.0, "after = {after}");
    assert!(res.links[0].fault_stats.outage_drops > 0);
    assert_eq!(res.links[0].fault_stats.link_changes, 2);
    // The down/up edges are recorded as link-scoped trace events.
    let faults: Vec<_> = res
        .decisions
        .iter()
        .filter(|fe| fe.flow == proteus_trace::LINK_FLOW)
        .collect();
    assert_eq!(faults.len(), 2);
}

#[test]
fn bandwidth_step_caps_goodput() {
    let sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(16))
        .flow(window_flow(150_000))
        .with_seed(1)
        .with_faults(FaultSchedule::new().bandwidth_step(Dur::from_secs(8), 5.0));
    let res = run(sc);
    let m = &res.flows[0];
    let before = m.throughput_mbps(Time::from_secs_f64(2.0), Time::from_secs_f64(8.0));
    let after = m.throughput_mbps(Time::from_secs_f64(10.0), Time::from_secs_f64(16.0));
    assert!(before > 17.0, "before = {before}");
    assert!(after < 5.6, "after = {after}");
    assert!(after > 4.0, "after = {after}");
}

#[test]
fn rtt_step_moves_base_rtt() {
    // Pace well below capacity so RTT ≈ base + serialization.
    let sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(10))
        .flow(paced_flow(2.0))
        .with_seed(1)
        .with_faults(FaultSchedule::new().rtt_step(Dur::from_secs(5), Dur::from_millis(90)));
    let res = run(sc);
    let m = &res.flows[0];
    let min_in = |from: f64, to: f64| {
        m.rtt_samples()
            .filter(|&(t, _)| (from..to).contains(&t))
            .map(|(_, rtt)| rtt)
            .fold(f64::INFINITY, f64::min)
    };
    let (min_early, min_late) = (min_in(1.0, 5.0), min_in(6.0, 10.0));
    assert!((min_early - 0.030).abs() < 0.002, "early min = {min_early}");
    assert!((min_late - 0.090).abs() < 0.002, "late min = {min_late}");
}

#[test]
fn burst_loss_is_bursty() {
    let sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(30))
        .flow(paced_flow(10.0))
        .with_seed(11)
        .with_faults(FaultSchedule::new().with_burst_loss(GilbertElliott {
            p_enter: 0.002,
            p_exit: 0.05,
            loss_good: 0.0,
            loss_bad: 0.4,
        }));
    let res = run(sc);
    let stats = res.links[0].fault_stats;
    assert!(stats.loss_episodes >= 3, "{stats:?}");
    assert!(stats.burst_losses > 20, "{stats:?}");
    // Loss-burst boundaries are traced.
    let bursts = res
        .decisions
        .iter()
        .filter(|fe| fe.flow == proteus_trace::LINK_FLOW)
        .count();
    assert!(bursts as u64 >= stats.loss_episodes);
    // The sender observes the losses.
    assert!(res.flows[0].pkts_lost > 0);
}

#[test]
fn reordering_causes_spurious_dupack_losses() {
    // Clean link + paced flow: without reordering there is zero loss.
    let mk = |reorder: bool| {
        let mut sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(10))
            .flow(paced_flow(8.0))
            .with_seed(5);
        if reorder {
            sc = sc.with_faults(FaultSchedule::new().with_reorder(ReorderConfig {
                prob: 0.02,
                max_extra: Dur::from_millis(15),
            }));
        }
        sc
    };
    let clean = run(mk(false));
    assert_eq!(clean.flows[0].pkts_lost, 0);
    let reordered = run(mk(true));
    assert!(reordered.links[0].fault_stats.reordered_pkts > 20);
    assert!(
        reordered.flows[0].pkts_lost > 0,
        "displaced packets should trip the dup-ACK threshold"
    );
    // Packets are delayed, not dropped: deliveries still mostly complete.
    let acked = reordered.flows[0].pkts_acked as f64;
    let sent = reordered.flows[0].pkts_sent as f64;
    assert!(acked / sent > 0.95, "acked {acked}/{sent}");
}

#[test]
fn ack_compression_batches_acks() {
    let sc = Scenario::new(link_20mbps_30ms(), Dur::from_secs(10))
        .flow(paced_flow(8.0))
        .with_seed(3)
        .with_faults(FaultSchedule::new().with_ack_compression(AckCompression {
            every: Dur::from_secs(1),
            hold: Dur::from_millis(80),
        }));
    let res = run(sc);
    assert!(
        res.links[0].fault_stats.compressed_acks > 100,
        "{:?}",
        res.links[0].fault_stats
    );
    // Held ACKs carry RTTs inflated by up to the hold window.
    let max_rtt = res.flows[0]
        .rtt_values()
        .into_iter()
        .fold(0.0_f64, f64::max);
    assert!(max_rtt > 0.09, "max rtt = {max_rtt}");
}
