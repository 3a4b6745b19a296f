//! Shared helpers for the video experiments (Figs. 11–13).

use proteus_apps::video::{VideoSession, VideoStatsHandle};
use proteus_apps::VideoSpec;
use proteus_core::{ProteusSender, SharedThreshold};
use proteus_netsim::{FlowSpec, Scenario};
use proteus_transport::Dur;

/// Transport used by a video flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoTransport {
    /// Proteus-P: always primary.
    Primary,
    /// Proteus-H with the §4.4 cross-layer threshold policy.
    Hybrid,
}

/// Adds a DASH session flow to a scenario; returns its stats handle.
pub fn add_video_flow(
    sc: &mut Scenario,
    spec: VideoSpec,
    transport: VideoTransport,
    seed: u64,
    forced_max: bool,
    start: Dur,
) -> VideoStatsHandle {
    let threshold = match transport {
        VideoTransport::Hybrid => Some(SharedThreshold::new(f64::INFINITY)),
        VideoTransport::Primary => None,
    };
    let name = format!("video-{}", spec.name);
    let mut session = VideoSession::new(spec, threshold.clone());
    if forced_max {
        session = session.with_forced_max_bitrate();
    }
    let stats = session.stats_handle();
    sc.flows.push(
        FlowSpec::bulk(name, start, move || match threshold {
            Some(t) => Box::new(ProteusSender::hybrid(seed, t)),
            None => Box::new(ProteusSender::primary(seed)),
        })
        .with_app(move || Box::new(session))
        .with_reliability(true),
    );
    stats
}
