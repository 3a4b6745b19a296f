//! `impaired_multihop`: 11 cells the engine cannot fuse — a fault schedule,
//! latency noise or more than one hop. The same layers as `clean_dumbbell`
//! do several times the per-packet work, most of it in the scheduler.

use proteus_apps::{MediaSource, MediaSpec};
use proteus_netsim::{
    AckCompression, FaultSchedule, FlowSpec, GilbertElliott, NoiseConfig, ReorderConfig, Scenario,
    Topology,
};
use proteus_transport::Dur;

use crate::cells::{at, bulk, dumbbell, link, CellDef};
use crate::decorate::{application, Proto::*};
use crate::inputs::{CellInputs, Hold, Nominal};

const PAPER: Nominal = Nominal {
    hold: Hold::LinkBits,
    bw_mbps: 50.0,
    rtt_ms: 30.0,
    buffer_bdp: 2.0,
    secs: 140.0,
};

/// Four half-second outages spread over the run.
fn flap(c: &CellInputs, traced: bool) -> Scenario {
    let faults = FaultSchedule::new().flapping(at(c, 0.2), Dur::from_millis(500), at(c, 0.15), 4);
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(Cubic, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

/// Bandwidth drops to 40 % for the middle third (never above the configured
/// rate, so capacity × duration stays an upper bound on delivery).
fn bandwidth_step(c: &CellInputs, traced: bool) -> Scenario {
    let faults = FaultSchedule::new()
        .bandwidth_step(at(c, 1.0 / 3.0), c.bw_mbps * 0.4)
        .bandwidth_step(at(c, 2.0 / 3.0), c.bw_mbps);
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(Bbr, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

/// A route change doubles the base RTT halfway through.
fn rtt_step(c: &CellInputs, traced: bool) -> Scenario {
    let faults =
        FaultSchedule::new().rtt_step(at(c, 0.5), Dur::from_secs_f64(c.rtt_ms * 2.0 / 1e3));
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(Copa, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

fn burst_loss(c: &CellInputs, traced: bool) -> Scenario {
    let faults = FaultSchedule::new().with_burst_loss(GilbertElliott::default());
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(ProteusP, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

fn reordering(c: &CellInputs, traced: bool) -> Scenario {
    let faults = FaultSchedule::new().with_reorder(ReorderConfig {
        prob: 0.02,
        max_extra: Dur::from_millis(5),
    });
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(Cubic, 0, Dur::ZERO, c, traced))
        .flow(bulk(Ledbat, 1, at(c, 0.1), c, traced))
}

fn ack_compression(c: &CellInputs, traced: bool) -> Scenario {
    let faults = FaultSchedule::new().with_ack_compression(AckCompression {
        every: Dur::from_millis(200),
        hold: Dur::from_millis(10),
    });
    dumbbell(c)
        .with_faults(faults)
        .flow(bulk(ProteusP, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

fn wifi(c: &CellInputs) -> Scenario {
    Scenario::new(link(c).with_noise(NoiseConfig::wifi_default()), at(c, 1.0)).with_seed(c.seed)
}

fn wifi_proteus_s_alone(c: &CellInputs, traced: bool) -> Scenario {
    wifi(c).flow(bulk(ProteusS, 0, Dur::ZERO, c, traced))
}

fn wifi_cubic_proteus_s(c: &CellInputs, traced: bool) -> Scenario {
    wifi(c)
        .flow(bulk(Cubic, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

/// One flow across three hops, with cross traffic entering at each hop.
fn chain_3hop(c: &CellInputs, traced: bool) -> Scenario {
    Scenario::over(Topology::chain([link(c); 3]), at(c, 1.0))
        .with_seed(c.seed)
        .flow(bulk(ProteusP, 0, Dur::ZERO, c, traced).with_path([0, 1, 2]))
        .flow(bulk(Cubic, 1, Dur::ZERO, c, traced).with_path([0]))
        .flow(bulk(Bbr, 2, Dur::ZERO, c, traced).with_path([1]))
        .flow(bulk(ProteusS, 3, at(c, 0.1), c, traced).with_path([2]))
}

/// The classic parking lot: one long flow against a short flow per link.
fn parking_lot(c: &CellInputs, traced: bool) -> Scenario {
    Scenario::over(Topology::parking_lot(3, link(c)), at(c, 1.0))
        .with_seed(c.seed)
        .flow(bulk(ProteusS, 0, Dur::ZERO, c, traced).with_path([0, 1, 2]))
        .flow(bulk(Cubic, 1, Dur::ZERO, c, traced).with_path([0]))
        .flow(bulk(Copa, 2, Dur::ZERO, c, traced).with_path([1]))
        .flow(bulk(ProteusP, 3, Dur::ZERO, c, traced).with_path([2]))
}

/// A frame-paced call on Cross against a Proteus-S bulk flow over two hops,
/// the second of which blacks out for two seconds mid-run.
fn media_call(c: &CellInputs, traced: bool) -> Scenario {
    let outage = FaultSchedule::new().outage(at(c, 0.5), Dur::from_secs(2));
    let spec = MediaSpec {
        seed: c.seed,
        ..MediaSpec::default()
    };
    let seed = c.seed;
    let call = FlowSpec::bulk("call", Dur::ZERO, move || Cross.controller(seed, traced))
        .with_app(move || application(Box::new(MediaSource::new(spec)), traced));
    Scenario::over(
        Topology::chain([link(c); 2]).with_faults(1, outage),
        at(c, 1.0),
    )
    .with_seed(c.seed)
    .flow(call)
    .flow(bulk(ProteusS, 1, at(c, 0.1), c, traced))
}

/// The workload's cells, in run order.
pub fn cells() -> Vec<CellDef> {
    let cell = CellDef::new;
    let wifi_link = Nominal {
        buffer_bdp: 4.0,
        ..PAPER
    };
    // An access link: the call's 2.5 Mbps top rung has to matter.
    let access = Nominal {
        bw_mbps: 10.0,
        rtt_ms: 40.0,
        secs: 280.0,
        ..PAPER
    };
    vec![
        cell("fault-flap", PAPER, flap),
        cell("fault-bandwidth-step", PAPER, bandwidth_step),
        cell("fault-rtt-step", PAPER, rtt_step),
        cell("fault-burst-loss", PAPER, burst_loss),
        cell("fault-reordering", PAPER, reordering),
        cell("fault-ack-compression", PAPER, ack_compression),
        cell("wifi-proteus-s", wifi_link, wifi_proteus_s_alone),
        cell("wifi-cubic+proteus-s", wifi_link, wifi_cubic_proteus_s),
        cell("chain-3hop", PAPER, chain_3hop),
        cell("parking-lot-3", PAPER, parking_lot),
        cell("media-call-outage", access, media_call),
    ]
}
