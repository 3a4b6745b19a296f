//! `churn_population`: the same `netsim` used the opposite way — thousands
//! of thin flows. Timer traffic, scheduler depth, the flow table and memory
//! dominate; controller arithmetic barely registers.

use proteus_netsim::{ChurnClass, ChurnSpec, Scenario};
use proteus_transport::Dur;

use crate::cells::{at, bulk, dumbbell, CellDef};
use crate::decorate::Proto::{self, *};
use crate::inputs::{CellInputs, Hold, Nominal};

/// Population cells never keep every RTT sample: like `repro scale`, they
/// stride the samples and widen the throughput bins so per-flow metrics do
/// not dominate memory.
fn population(c: &CellInputs) -> Scenario {
    dumbbell(c)
        .with_rtt_stride(64)
        .with_throughput_bin(Dur::from_secs(2))
}

/// One churn class per `(protocol, weight)`; each spawned flow derives its
/// controller seed from the scenario seed and its flow id.
fn classes(mix: &[(Proto, f64)], seed: u64, traced: bool) -> Vec<ChurnClass> {
    mix.iter()
        .map(|&(proto, weight)| {
            ChurnClass::new(
                proto.name(),
                weight,
                Box::new(move |id| {
                    proto.controller(seed ^ (id as u64).wrapping_mul(0x9E37_79B9), traced)
                }),
            )
        })
        .collect()
}

/// 256 long-lived Proteus-P flows: no arrivals, and a lifetime far beyond
/// the run so departures are negligible.
fn static_256(c: &CellInputs, traced: bool) -> Scenario {
    let forever = at(c, 1000.0);
    population(c).with_churn(
        ChurnSpec::new(0.0, forever, classes(&[(ProteusP, 1.0)], c.seed, traced)).with_initial(256),
    )
}

/// 2 000 warm-start flows plus 200 arrivals/s with a 10 s mean lifetime.
fn churn_2k(c: &CellInputs, traced: bool) -> Scenario {
    let mix = [(ProteusP, 4.0), (Cubic, 3.0), (ProteusS, 3.0)];
    population(c).with_churn(
        ChurnSpec::new(200.0, Dur::from_secs(10), classes(&mix, c.seed, traced)).with_initial(2000),
    )
}

/// Four CUBIC primaries under ~100 concurrent Proteus-S flows, every one of
/// them a latecomer (ROADMAP item 3's cell).
fn harm_dense(c: &CellInputs, traced: bool) -> Scenario {
    let sc = (0..4).fold(population(c), |sc, i| {
        sc.flow(bulk(Cubic, i, Dur::ZERO, c, traced))
    });
    sc.with_churn(
        ChurnSpec::new(
            20.0,
            Dur::from_secs(5),
            classes(&[(ProteusS, 1.0)], c.seed, traced),
        )
        .with_initial(100),
    )
}

/// The workload's cells, in run order. The populations get `clean_dumbbell`'s
/// 2-BDP buffer: at `repro scale`'s 4 BDP the overloaded link holds twice the
/// backlog, a pass needs 200 MiB, and ten seeds spread by 9 % of their median
/// `wall_s` where these spread by 5 %. The harm cell keeps `repro scale`'s
/// 1 BDP.
pub fn cells() -> Vec<CellDef> {
    let cell = CellDef::new;
    let gigabit = |secs| Nominal {
        hold: Hold::Link,
        bw_mbps: 1000.0,
        rtt_ms: 30.0,
        buffer_bdp: 2.0,
        secs,
    };
    vec![
        cell("static-256", gigabit(4.0), static_256),
        cell("churn-2k", gigabit(20.0), churn_2k),
        cell(
            "harm-dense",
            Nominal {
                bw_mbps: 100.0,
                buffer_bdp: 1.0,
                ..gigabit(32.0)
            },
            harm_dense,
        ),
    ]
}
