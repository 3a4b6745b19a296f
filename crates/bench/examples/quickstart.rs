//! Quickstart: run a Proteus-S scavenger next to a CUBIC primary and watch
//! it yield.
//!
//! ```text
//! cargo run --release -p proteus-bench --example quickstart
//! ```
//!
//! This is the paper's core scenario in ~40 lines: a 50 Mbps / 30 ms
//! dumbbell with a 2-BDP buffer, one CUBIC download, and one background
//! Proteus-S flow that starts 5 seconds later. A good scavenger leaves the
//! primary's throughput and latency essentially untouched while soaking up
//! whatever is left.

use proteus_baselines::Cubic;
use proteus_core::ProteusSender;
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_transport::{Dur, Time};

fn main() {
    // The paper's standard emulated bottleneck: 50 Mbps, 30 ms RTT, 375 KB.
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);

    let scenario = Scenario::new(link, Dur::from_secs(60))
        .flow(FlowSpec::bulk("CUBIC (primary)", Dur::ZERO, || {
            Box::new(Cubic::new())
        }))
        .flow(FlowSpec::bulk(
            "Proteus-S (scavenger)",
            Dur::from_secs(5),
            || Box::new(ProteusSender::scavenger(42)),
        ))
        .with_seed(7);

    let result = run(scenario);

    println!("flow                      throughput (20-60s)   p95 RTT");
    let from = Time::from_secs_f64(20.0);
    let to = Time::from_secs_f64(60.0);
    for flow in &result.flows {
        println!(
            "{:<24}  {:>8.2} Mbps          {:>6.1} ms",
            flow.name,
            flow.throughput_mbps(from, to),
            flow.rtt_percentile(95.0).unwrap_or(0.0) * 1e3,
        );
    }
    let primary = result.flows[0].throughput_mbps(from, to);
    let scav = result.flows[1].throughput_mbps(from, to);
    println!();
    println!(
        "primary kept {:.0}% of the link; joint utilization {:.0}%",
        primary / 50.0 * 100.0,
        (primary + scav) / 50.0 * 100.0
    );
}
