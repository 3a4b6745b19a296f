//! `clean_dumbbell`: 12 single-link cells on clean paths — few flows, many
//! packets. The engine fuses every one of them, so the work sits in the
//! fused wire ring, controller arithmetic and MI accounting while the
//! scheduler does almost nothing.

use proteus_netsim::Scenario;
use proteus_transport::Dur;

use crate::cells::{at, bulk, dumbbell, link, CellDef};
use crate::decorate::Proto::{self, *};
use crate::inputs::{CellInputs, Hold, Nominal};

/// The paper's default bottleneck, simulated long enough for ~1.0 M packets.
const PAPER: Nominal = Nominal {
    hold: Hold::LinkBits,
    bw_mbps: 50.0,
    rtt_ms: 30.0,
    buffer_bdp: 2.0,
    secs: 240.0,
};

/// A primary from t = 0 and a scavenger joining a fifth of the way in.
fn pair(c: &CellInputs, traced: bool, primary: Proto, scavenger: Proto) -> Scenario {
    dumbbell(c)
        .flow(bulk(primary, 0, Dur::ZERO, c, traced))
        .flow(bulk(scavenger, 1, at(c, 0.2), c, traced))
}

/// `n` flows of one protocol, all from t = 0.
fn same(c: &CellInputs, traced: bool, proto: Proto, n: u64) -> Scenario {
    (0..n).fold(dumbbell(c), |sc, i| {
        sc.flow(bulk(proto, i, Dur::ZERO, c, traced))
    })
}

fn cubic_proteus_s(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, Cubic, ProteusS)
}
fn bbr_proteus_s(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, Bbr, ProteusS)
}
fn copa_proteus_s(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, Copa, ProteusS)
}
fn proteus_p_proteus_s(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, ProteusP, ProteusS)
}
fn cubic_ledbat(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, Cubic, Ledbat)
}
fn cubic_bbr_s(c: &CellInputs, t: bool) -> Scenario {
    pair(c, t, Cubic, BbrS)
}
fn four_proteus_p(c: &CellInputs, t: bool) -> Scenario {
    same(c, t, ProteusP, 4)
}
fn two_proteus_s(c: &CellInputs, t: bool) -> Scenario {
    same(c, t, ProteusS, 2)
}
fn vivace_alone(c: &CellInputs, t: bool) -> Scenario {
    same(c, t, Vivace, 1)
}
fn lossy_proteus_pair(c: &CellInputs, traced: bool) -> Scenario {
    Scenario::new(link(c).with_random_loss(0.01), at(c, 1.0))
        .with_seed(c.seed)
        .flow(bulk(ProteusP, 0, Dur::ZERO, c, traced))
        .flow(bulk(ProteusS, 1, at(c, 0.2), c, traced))
}

/// The workload's cells, in run order.
pub fn cells() -> Vec<CellDef> {
    let cell = CellDef::new;
    vec![
        cell("cubic+proteus-s", PAPER, cubic_proteus_s),
        cell("bbr+proteus-s", PAPER, bbr_proteus_s),
        cell("copa+proteus-s", PAPER, copa_proteus_s),
        cell("proteus-p+proteus-s", PAPER, proteus_p_proteus_s),
        cell("cubic+ledbat", PAPER, cubic_ledbat),
        cell("cubic+bbr-s", PAPER, cubic_bbr_s),
        cell("4xproteus-p", PAPER, four_proteus_p),
        cell("2xproteus-s", PAPER, two_proteus_s),
        cell("vivace-alone", PAPER, vivace_alone),
        cell(
            "fat-cubic+proteus-s",
            Nominal {
                bw_mbps: 500.0,
                rtt_ms: 60.0,
                secs: 60.0,
                ..PAPER
            },
            cubic_proteus_s,
        ),
        cell(
            "shallow-bbr+proteus-s",
            Nominal {
                buffer_bdp: 0.25,
                ..PAPER
            },
            bbr_proteus_s,
        ),
        cell("lossy-proteus-p+proteus-s", PAPER, lossy_proteus_pair),
    ]
}
