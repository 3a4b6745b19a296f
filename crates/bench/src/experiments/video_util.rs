//! Shared helpers for the video experiments (Figs. 11–13).

use std::cell::RefCell;

use proteus_apps::video::{VideoSession, VideoStatsHandle};
use proteus_apps::VideoSpec;
use proteus_core::{ProteusSender, SharedThreshold};
use proteus_netsim::{FlowSpec, Scenario};
use proteus_transport::{Application, Dur};

use crate::protocols::sender_traced_if;

/// Transport used by a video flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoTransport {
    /// Proteus-P: always primary.
    Primary,
    /// Proteus-H with the §4.4 cross-layer threshold policy.
    Hybrid,
}

/// Adds a DASH session flow to a scenario; returns its stats handle. The
/// sender carries a decision recorder when `decisions` is set.
pub fn add_video_flow(
    sc: &mut Scenario,
    spec: VideoSpec,
    transport: VideoTransport,
    seed: u64,
    forced_max: bool,
    start: Dur,
    decisions: bool,
) -> VideoStatsHandle {
    let threshold = match transport {
        VideoTransport::Hybrid => Some(SharedThreshold::new(f64::INFINITY)),
        VideoTransport::Primary => None,
    };
    let mut session = VideoSession::new(spec.clone(), threshold.clone());
    if forced_max {
        session = session.with_forced_max_bitrate();
    }
    let stats = session.stats_handle();
    let session_cell = RefCell::new(Some(session));
    sc.flows.push(FlowSpec {
        name: format!("video-{}", spec.name),
        start,
        stop: None,
        cc: Box::new(move || {
            let sender = match threshold {
                Some(t) => ProteusSender::hybrid(seed, t),
                None => ProteusSender::primary(seed),
            };
            sender_traced_if(sender, decisions)
        }),
        app: Box::new(move || {
            Box::new(session_cell.borrow_mut().take().expect("single use")) as Box<dyn Application>
        }),
        reliable: true,
        path: None,
    });
    stats
}
