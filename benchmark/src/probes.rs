//! Isolated micro-probes of stable leaf APIs.
//!
//! Each probe times a tight loop over one public entry point and reports
//! the median of several batch means. They answer "what does this leaf
//! cost on its own", next to the decorators' "what did it cost inside the
//! simulation"; `core.cc.ns_per_call` should land within 2× of the
//! `per_ack_ns` probes, or the decorator timing is off.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use proteus_bench::Table;
use proteus_core::{evaluate, MiObservation, Mode, ProteusSender, SharedThreshold, UtilityParams};
use proteus_runner::{JobKey, ResultCache};
use proteus_stats::RegressionAccumulator;
use proteus_trace::{AckFilter, DecisionEvent, EventKind, RingSink, TraceSink};
use proteus_transport::{
    AckInfo, CongestionControl, Dur, MiStats, MiTracker, SentPacket, Time, DEFAULT_PACKET_BYTES,
};

use crate::alloc;
use crate::decorate::Proto;
use crate::inputs::SplitMix64;
use crate::metrics::{BASELINE_PROBES, CORE_PROBES};
use crate::stats::median;
use crate::workloads::LayerValue;

const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean nanoseconds per iteration.
fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let means: Vec<f64> = (0..BATCHES as u64)
        .map(|batch| {
            let t0 = Instant::now();
            for i in 0..iters {
                body(batch * iters + i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&means)
}

fn ack(seq: u64) -> AckInfo {
    AckInfo {
        seq,
        bytes: DEFAULT_PACKET_BYTES,
        sent_at: Time::from_millis(seq),
        recv_at: Time::from_millis(seq + 30),
        rtt: Dur::from_millis(30),
        one_way_delay: Dur::from_millis(15),
    }
}

/// One send → ACK → window-read cycle with a single packet outstanding: the
/// loop the legacy `per_ack/*` pins in `BENCH_controller.json` measured.
fn ack_cycle(cc: &mut dyn CongestionControl, seq: u64) {
    let sent_at = Time::from_millis(seq);
    cc.on_packet_sent(
        sent_at,
        &SentPacket {
            seq,
            bytes: DEFAULT_PACKET_BYTES,
            sent_at,
        },
    );
    cc.on_ack(Time::from_millis(seq + 30), &ack(seq));
    black_box(cc.cwnd_bytes());
}

fn per_ack_ns(mut cc: Box<dyn CongestionControl>) -> f64 {
    cc.on_flow_start(Time::ZERO);
    ns_per_iter(200_000, |i| ack_cycle(cc.as_mut(), i + 1))
}

fn build_by_name(name: &str) -> Box<dyn CongestionControl> {
    let proto = match name {
        "Proteus-H" => return Box::new(ProteusSender::hybrid(1, SharedThreshold::new(25.0))),
        "Proteus-S" => Proto::ProteusS,
        "Proteus-P" => Proto::ProteusP,
        "CUBIC" => Proto::Cubic,
        "BBR" => Proto::Bbr,
        "BBR-S" => Proto::BbrS,
        "COPA" => Proto::Copa,
        "LEDBAT" => Proto::Ledbat,
        "Cross" => Proto::Cross,
        other => unreachable!("no probe for {other}"),
    };
    proto.build(1)
}

/// Allocator calls per ACK cycle of a warmed-up Proteus-S sender; `None`
/// in a build without the counting allocator.
fn allocs_per_ack() -> Option<f64> {
    const CYCLES: u64 = 100_000;
    let mut cc = Proto::ProteusS.build(1);
    cc.on_flow_start(Time::ZERO);
    (1..=CYCLES).for_each(|seq| ack_cycle(cc.as_mut(), seq));
    let before = alloc::counts()?;
    (CYCLES + 1..=2 * CYCLES).for_each(|seq| ack_cycle(cc.as_mut(), seq));
    Some(alloc::counts()?.since(before).allocs as f64 / CYCLES as f64)
}

fn utility_ns() -> f64 {
    let params = UtilityParams::default();
    let obs = MiObservation {
        rate_mbps: 47.3,
        loss_rate: 0.01,
        rtt_gradient: 0.004,
        rtt_deviation: 0.0006,
        rtt_s: 0.034,
    };
    ns_per_iter(1_000_000, |_| {
        black_box(evaluate(
            &Mode::Scavenger,
            black_box(&params),
            black_box(&obs),
        ));
    })
}

/// One 100-packet monitor interval — send, roll over, drain every ACK —
/// per packet.
fn mi_ns_per_pkt() -> f64 {
    const PKTS: u64 = 100;
    let mut out: Vec<MiStats> = Vec::new();
    ns_per_iter(5_000, |_| {
        let mut t = MiTracker::new();
        t.start_mi(Time::ZERO, 6e6);
        for i in 0..PKTS {
            t.on_sent(&SentPacket {
                seq: i,
                bytes: DEFAULT_PACKET_BYTES,
                sent_at: Time::from_micros(i * 300),
            });
        }
        t.start_mi(Time::from_millis(30), 6e6);
        for i in 0..PKTS {
            out.clear();
            t.on_ack_into(
                &AckInfo {
                    sent_at: Time::from_micros(i * 300),
                    ..ack(i)
                },
                &mut out,
            );
            black_box(out.len());
        }
    }) / PKTS as f64
}

/// `percentile` over 10 000 unsorted RTT-like samples, per sample: what
/// `netsim.read_s` pays for each sample it ranks.
fn percentile_ns_per_sample() -> f64 {
    const SAMPLES: usize = 10_000;
    let mut rng = SplitMix64::new(1);
    let xs: Vec<f64> = (0..SAMPLES).map(|_| 0.030 + 0.010 * rng.unit()).collect();
    ns_per_iter(200, |_| {
        black_box(proteus_stats::percentile(black_box(&xs), 95.0));
    }) / SAMPLES as f64
}

fn regression_ns_per_add() -> f64 {
    let mut acc = RegressionAccumulator::new();
    let ns = ns_per_iter(1_000_000, |i| {
        acc.add(i as f64 * 1e-3, 0.030 + (i % 7) as f64 * 1e-4)
    });
    black_box(acc.fit());
    ns
}

fn ring_ns_per_event() -> f64 {
    let mut ring = RingSink::new(4096);
    let ns = ns_per_iter(1_000_000, |i| {
        ring.record(DecisionEvent {
            t_ns: i,
            kind: EventKind::AckFilter(AckFilter {
                dropping: i % 2 == 0,
                accepted: i,
                dropped: 0,
            }),
        })
    });
    black_box(ring.len());
    ns
}

/// Per-ACK cost of a Proteus-S sender recording into a ring, over the same
/// sender with the default no-op sink, minus 1. The two senders take turns
/// batch by batch, so a slow stretch of the host hits both alike.
fn trace_overhead_share() -> f64 {
    let mut plain = ProteusSender::scavenger(1);
    let mut ringed = ProteusSender::scavenger(1).with_sink(RingSink::new(4096));
    plain.on_flow_start(Time::ZERO);
    ringed.on_flow_start(Time::ZERO);
    let (mut plain_ns, mut ringed_ns) = (Vec::new(), Vec::new());
    for batch in 0..9u64 {
        const CYCLES: u64 = 50_000;
        let seqs = batch * CYCLES + 1..=(batch + 1) * CYCLES;
        let t0 = Instant::now();
        seqs.clone().for_each(|seq| ack_cycle(&mut plain, seq));
        plain_ns.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        seqs.for_each(|seq| ack_cycle(&mut ringed, seq));
        ringed_ns.push(t0.elapsed().as_nanos() as f64);
    }
    median(&ringed_ns) / median(&plain_ns) - 1.0
}

/// The probes `clean_dumbbell` emits: `core`, `baselines`, `transport`,
/// `stats` and `trace` leaves.
pub fn leaf_probes() -> Vec<LayerValue> {
    let mut out: Vec<LayerValue> = Vec::new();
    for name in CORE_PROBES {
        let ns = per_ack_ns(build_by_name(name));
        out.push((format!("core.per_ack_ns.{name}"), ns));
    }
    out.push(("core.utility.ns_per_eval".into(), utility_ns()));
    if let Some(allocs) = allocs_per_ack() {
        out.push(("core.allocs_per_ack".into(), allocs));
    }
    for name in BASELINE_PROBES {
        let ns = per_ack_ns(build_by_name(name));
        out.push((format!("baselines.per_ack_ns.{name}"), ns));
    }
    out.push(("transport.mi.ns_per_pkt".into(), mi_ns_per_pkt()));
    out.push((
        "stats.percentile.ns_per_sample".into(),
        percentile_ns_per_sample(),
    ));
    out.push((
        "stats.regression.ns_per_add".into(),
        regression_ns_per_add(),
    ));
    out.push(("trace.ring.ns_per_event".into(), ring_ns_per_event()));
    out.push((
        "trace.per_ack_overhead_share".into(),
        trace_overhead_share(),
    ));
    out
}

/// The probes `campaign_replay` emits: `runner` hashing and cache I/O, and
/// `bench` report rendering. Cache files go under `scratch`.
pub fn campaign_probes(scratch: &Path) -> Vec<LayerValue> {
    let descriptor =
        "pair/primary=CUBIC/scav=Proteus-S/bw=50.0,rtt=30.0ms,buf=375000,loss=0.0/secs=30.0/seed=20200810/v1";
    let hash_ns = ns_per_iter(200_000, |_| {
        black_box(JobKey::from_descriptor(black_box(descriptor)));
    });
    let mut out: Vec<LayerValue> = vec![("runner.hash.ns_per_key".into(), hash_ns)];

    if let Ok(cache) = ResultCache::at(scratch.join("probe-cache")) {
        let payload = "46.81234 2.91234 0.03412 0.04123 0.00012 1.0";
        let entry = |i: u64| format!("{descriptor}/probe={}", i % 64);
        let put_ns = ns_per_iter(200, |i| {
            let d = entry(i);
            cache.put(JobKey::from_descriptor(&d), &d, payload);
        });
        let get_ns = ns_per_iter(200, |i| {
            let d = entry(i);
            black_box(cache.get(JobKey::from_descriptor(&d), &d));
        });
        out.push(("runner.cache.get_us".into(), get_ns / 1e3));
        out.push(("runner.cache.put_us".into(), put_ns / 1e3));
    }

    let mut table = Table::new(
        "probe",
        &["primary", "scavenger", "mbps", "ratio", "p95_ms", "util"],
    );
    for i in 0..50 {
        table.row(
            ["CUBIC", "Proteus-S", "46.81", "0.94", "34.12", "0.99"]
                .iter()
                .map(|c| format!("{c}{i}"))
                .collect(),
        );
    }
    let render_ns = ns_per_iter(200, |_| {
        black_box(table.render());
        black_box(table.to_csv());
    });
    out.push(("bench.report.render_us".into(), render_ns / 1e3));
    out
}
