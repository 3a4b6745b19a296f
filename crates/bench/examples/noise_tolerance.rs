//! Noise tolerance in action (§5): the same scavenger on a noisy WiFi-like
//! path with each tolerance mechanism removed.
//!
//! ```text
//! cargo run --release -p proteus-bench --example noise_tolerance
//! ```
//!
//! Proteus-S penalizes RTT deviation, so on a jittery path a naive
//! implementation reads channel noise as "competition" and starves itself.
//! The §5 mechanisms — per-ACK sample filtering, per-MI regression-error
//! tolerance, MI-history trending tolerance — let the full sender hold most
//! of the link anyway.

use proteus_core::{AdaptiveNoiseParams, Mode, NoiseTolerance, ProteusConfig, ProteusSender};
use proteus_netsim::{run, FlowSpec, LinkSpec, NoiseConfig, Scenario};
use proteus_transport::{Dur, Time};

/// Mean throughput over a handful of noisy paths (single-path results are
/// seed-sensitive; the fig9/ablation harness averages the same way).
fn throughput_with(noise: NoiseTolerance) -> f64 {
    let mut total = 0.0;
    let seeds = [3u64, 11, 23, 31];
    for &seed in &seeds {
        let link = LinkSpec::new(30.0, Dur::from_millis(40), 300_000)
            .with_noise(NoiseConfig::wifi_default());
        let sc = Scenario::new(link, Dur::from_secs(45))
            .flow(FlowSpec::bulk("scav", Dur::ZERO, move || {
                let mut cfg = ProteusConfig::proteus().with_seed(seed ^ 0xA5);
                cfg.noise = noise;
                Box::new(ProteusSender::with_config(cfg, Mode::Scavenger))
            }))
            .with_seed(seed);
        let res = run(sc);
        total += res.flows[0].throughput_mbps(Time::from_secs_f64(15.0), Time::from_secs_f64(45.0));
    }
    total / seeds.len() as f64
}

fn main() {
    let full = AdaptiveNoiseParams::default();
    let variants: Vec<(&str, NoiseTolerance)> = vec![
        (
            "full Proteus noise tolerance",
            NoiseTolerance::Adaptive(full),
        ),
        (
            "without per-ACK sample filter",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                ack_interval_ratio: f64::INFINITY,
                ..full
            }),
        ),
        (
            "without per-MI regression-error gate",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                per_mi_tolerance: false,
                ..full
            }),
        ),
        (
            "without trending gate",
            NoiseTolerance::Adaptive(AdaptiveNoiseParams {
                trending_tolerance: false,
                ..full
            }),
        ),
        (
            "flat threshold only (Vivace-style)",
            NoiseTolerance::FixedThreshold(0.01),
        ),
    ];

    println!("Proteus-S alone on a noisy 30 Mbps WiFi-like path (mean of 4 seeds):\n");
    for (label, noise) in variants {
        let mbps = throughput_with(noise);
        let bar = "#".repeat((mbps / 30.0 * 40.0).round() as usize);
        println!("{label:<38} {mbps:>5.1} Mbps  {bar}");
    }
    println!("\nThe per-MI regression-error gate is what keeps the deviation");
    println!("penalty from reading channel jitter as flow competition (§5).");
}
