//! Dynamic mode switching: one flow moves between scavenger and primary
//! mid-transfer (the paper's *flexibility* goal).
//!
//! ```text
//! cargo run --release -p proteus-bench --example mode_switching
//! ```
//!
//! A Proteus-H sender shares a link with a Proteus-P flow. Its application
//! drives the shared threshold cell: 0 Mbps (pure scavenger) for the first
//! 40 s, then ∞ (pure primary). No connection restart, no second codebase —
//! the switch is just a cell write, exactly the "simple API call" of §3.

use proteus_core::{ProteusSender, SharedThreshold};
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_transport::{Application, Dur, Time};

/// A bulk source that flips the shared threshold at a fixed time.
struct FlipAt {
    threshold: SharedThreshold,
    at: Time,
    done: bool,
}

impl Application for FlipAt {
    fn bytes_to_send(&mut self, _now: Time) -> u64 {
        u64::MAX
    }
    fn next_event(&self, _now: Time) -> Option<Time> {
        (!self.done).then_some(self.at)
    }
    fn on_wakeup(&mut self, now: Time) {
        if now >= self.at && !self.done {
            self.threshold.set(f64::INFINITY); // scavenger -> primary
            self.done = true;
        }
    }
}

fn main() {
    let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
    let threshold = SharedThreshold::new(0.0); // start as pure scavenger
    let th_cc = threshold.clone();
    let th_app = threshold.clone();

    let sc = Scenario::new(link, Dur::from_secs(80))
        .flow(FlowSpec::bulk("Proteus-P (primary)", Dur::ZERO, || {
            Box::new(ProteusSender::primary(3))
        }))
        .flow(
            FlowSpec::bulk("Proteus-H (switching)", Dur::from_secs(2), move || {
                Box::new(ProteusSender::hybrid(9, th_cc.clone()))
            })
            .with_app(move || {
                Box::new(FlipAt {
                    threshold: th_app.clone(),
                    at: Time::from_secs_f64(40.0),
                    done: false,
                })
            }),
        )
        .with_seed(11);

    let res = run(sc);

    println!(
        "time      {:<22} {:<22}",
        res.flows[0].name, res.flows[1].name
    );
    for bin in 0..8 {
        let from = Time::from_secs_f64(bin as f64 * 10.0);
        let to = Time::from_secs_f64((bin + 1) as f64 * 10.0);
        let marker = if bin == 4 {
            "  <- switch to primary"
        } else {
            ""
        };
        println!(
            "{:>3}-{:<3}s  {:>8.1} Mbps          {:>8.1} Mbps{}",
            bin * 10,
            (bin + 1) * 10,
            res.flows[0].throughput_mbps(from, to),
            res.flows[1].throughput_mbps(from, to),
            marker,
        );
    }
}
