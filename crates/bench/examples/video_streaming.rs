//! DASH video streaming with the Proteus-H hybrid mode and the §4.4
//! cross-layer threshold policy.
//!
//! ```text
//! cargo run --release -p proteus-bench --example video_streaming
//! ```
//!
//! One 4K and three 1080P BOLA-driven sessions share a 100 Mbps link for
//! three minutes — once with every flow on Proteus-P (pure primary, fair
//! shares) and once on Proteus-H (each video yields whatever exceeds its
//! bitrate needs). Compare average chunk bitrate and rebuffer ratio per
//! class, the metrics of the paper's Fig. 12.

use std::cell::RefCell;

use proteus_apps::video::{corpus_1080p, corpus_4k, VideoSession, VideoStatsHandle};
use proteus_apps::VideoSpec;
use proteus_core::{ProteusSender, SharedThreshold};
use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
use proteus_transport::{Application, Dur};

fn add_video(sc: &mut Scenario, spec: VideoSpec, hybrid: bool, seed: u64) -> VideoStatsHandle {
    let threshold = hybrid.then(|| SharedThreshold::new(f64::INFINITY));
    let session = VideoSession::new(spec.clone(), threshold.clone());
    let stats = session.stats_handle();
    let cell = RefCell::new(Some(session));
    sc.flows.push(FlowSpec {
        name: format!("video-{}", spec.name),
        start: Dur::ZERO,
        stop: None,
        cc: Box::new(move || match threshold {
            Some(t) => Box::new(ProteusSender::hybrid(seed, t)),
            None => Box::new(ProteusSender::primary(seed)),
        }),
        app: Box::new(move || {
            Box::new(cell.borrow_mut().take().expect("single use")) as Box<dyn Application>
        }),
        reliable: true,
        path: None,
    });
    stats
}

fn streaming_run(hybrid: bool) -> (VideoStatsHandle, Vec<VideoStatsHandle>) {
    let link = LinkSpec::new(100.0, Dur::from_millis(30), 900_000);
    let mut sc = Scenario::new(link, Dur::from_secs(180))
        .with_seed(11)
        .with_rtt_stride(16);
    let h4k = add_video(&mut sc, corpus_4k(1, 3)[0].clone(), hybrid, 1);
    let h1080: Vec<_> = corpus_1080p(3, 3)
        .into_iter()
        .enumerate()
        .map(|(i, v)| add_video(&mut sc, v, hybrid, 10 + i as u64))
        .collect();
    run(sc);
    (h4k, h1080)
}

fn main() {
    for (label, hybrid) in [("Proteus-P", false), ("Proteus-H", true)] {
        let (h4k, h1080) = streaming_run(hybrid);
        let s4k = h4k.borrow();
        let avg1080: f64 =
            h1080.iter().map(|h| h.borrow().avg_bitrate()).sum::<f64>() / h1080.len() as f64;
        let rebuf1080: f64 =
            h1080.iter().map(|h| h.borrow().rebuffer_ratio).sum::<f64>() / h1080.len() as f64;
        println!("--- all flows on {label} ---");
        println!(
            "  4K video:    avg bitrate {:>6.2} Mbps, rebuffer {:>5.2}%",
            s4k.avg_bitrate(),
            s4k.rebuffer_ratio * 100.0
        );
        println!(
            "  1080P (x3):  avg bitrate {:>6.2} Mbps, rebuffer {:>5.2}%",
            avg1080,
            rebuf1080 * 100.0
        );
    }
    println!();
    println!("Proteus-H flows cap their appetite at 1.5x the video's top bitrate");
    println!("(and less as the playback buffer fills), freeing capacity for the");
    println!("flows that still need it — the mechanism behind the paper's Fig. 12.");
}
