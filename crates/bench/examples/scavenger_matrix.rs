//! Scavenger comparison matrix: Proteus-S vs LEDBAT against every primary
//! protocol of the paper.
//!
//! ```text
//! cargo run --release -p proteus-bench --example scavenger_matrix
//! ```
//!
//! For each primary (CUBIC, BBR, COPA, Proteus-P, PCC-Vivace) this runs
//! three scenarios — primary alone, primary + Proteus-S, primary + LEDBAT —
//! and prints the *primary throughput ratio* (with-scavenger / alone), the
//! metric of the paper's Fig. 6. Expect Proteus-S ≥ ~90 % everywhere while
//! LEDBAT takes most of the link from the latency-aware primaries.

use proteus_bench::{cc, tail_mbps, PRIMARIES};
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_transport::Dur;

fn main() {
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    println!("primary      alone    vs Proteus-S       vs LEDBAT");
    println!("----------  ------  --------------  --------------");
    for &primary in PRIMARIES {
        let alone = {
            let sc = Scenario::new(link, Dur::from_secs(60))
                .flow(FlowSpec::bulk(primary, Dur::ZERO, move || cc(primary, 3)))
                .with_seed(11);
            tail_mbps(&run(sc), 0, 60.0)
        };
        let mut ratios = Vec::new();
        for scav in ["Proteus-S", "LEDBAT"] {
            let sc = Scenario::new(link, Dur::from_secs(60))
                .flow(FlowSpec::bulk(primary, Dur::ZERO, move || cc(primary, 3)))
                .flow(FlowSpec::bulk(scav, Dur::from_secs(5), move || cc(scav, 9)))
                .with_seed(11);
            let res = run(sc);
            ratios.push(tail_mbps(&res, 0, 60.0) / alone);
        }
        println!(
            "{:<10}  {:>5.1}M  {:>13.1}%  {:>13.1}%",
            primary,
            alone,
            ratios[0] * 100.0,
            ratios[1] * 100.0
        );
    }
    println!();
    println!("ratio = primary throughput with scavenger present / alone (Fig. 6)");
}
