//! Application models that feed (or throttle) a transport flow.
//!
//! Most experiments in the paper use bulk transfers, but the web-workload
//! (Fig. 11b) needs fixed-size flows and the DASH experiments (Figs. 11a,
//! 12, 13) need a chunk-driven application that can pause the sender when
//! the playback buffer fills. All of them implement [`Application`].

use crate::time::{Dur, Time};

/// One encoded media frame, reported by a frame-paced source via
/// [`Application::drain_frames`]. The driver forwards these records to the
/// per-flow metrics, which mark the frame complete once the flow's
/// cumulative acknowledged bytes reach `end_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRecord {
    /// When the encoder produced the frame.
    pub gen_at: Time,
    /// Cumulative application bytes through the end of this frame (frame
    /// `i`'s bytes span `(prev.end_bytes, end_bytes]`).
    pub end_bytes: u64,
    /// Playout budget: the frame freezes playback if its completion delay
    /// (`completed_at - gen_at`) exceeds this.
    pub deadline: Dur,
}

/// Sender-side application model: decides how much data is available to
/// transmit and observes delivery progress.
pub trait Application {
    /// Bytes the application currently has queued for transmission.
    /// `u64::MAX` means unlimited (bulk transfer).
    fn bytes_to_send(&mut self, now: Time) -> u64;

    /// Informs the application that `bytes` were handed to the transport
    /// (subtracted from its queue). Bulk sources ignore this.
    fn consume(&mut self, _bytes: u64) {}

    /// Called when bytes are acknowledged end-to-end.
    fn on_delivered(&mut self, _now: Time, _bytes: u64) {}

    /// Next instant at which the application's state may change on its own
    /// (e.g. a paused video client resuming); the driver re-polls then.
    fn next_event(&self, _now: Time) -> Option<Time> {
        None
    }

    /// Wakeup callback at the time returned by
    /// [`Application::next_event`].
    fn on_wakeup(&mut self, _now: Time) {}

    /// Whether the application is done and the flow should stop.
    fn finished(&self, _now: Time) -> bool {
        false
    }

    /// Whether this application is a frame-paced media source. The driver
    /// only polls [`Application::drain_frames`] (and keeps per-frame
    /// latency metrics) for flows whose application reports `true`, so
    /// media-free scenarios stay byte-identical.
    fn is_media(&self) -> bool {
        false
    }

    /// Moves any newly generated [`FrameRecord`]s into `sink`. Only called
    /// on applications whose [`Application::is_media`] returns `true`.
    fn drain_frames(&mut self, _sink: &mut Vec<FrameRecord>) {}
}

/// Unlimited bulk transfer — the workhorse of §6.1/§6.2.
#[derive(Debug, Default, Clone, Copy)]
pub struct BulkApp;

impl Application for BulkApp {
    fn bytes_to_send(&mut self, _now: Time) -> u64 {
        u64::MAX
    }
}

/// A fixed-size transfer (e.g. one web object or one Poisson cross-traffic
/// flow). The flow finishes when every byte is delivered.
#[derive(Debug, Clone, Copy)]
pub struct SizedApp {
    total: u64,
    queued: u64,
    delivered: u64,
}

impl SizedApp {
    /// Creates a transfer of `total` bytes.
    pub fn new(total: u64) -> Self {
        Self {
            total,
            queued: total,
            delivered: 0,
        }
    }

    /// Bytes confirmed delivered so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }
}

impl Application for SizedApp {
    fn bytes_to_send(&mut self, _now: Time) -> u64 {
        self.queued
    }

    fn consume(&mut self, bytes: u64) {
        self.queued = self.queued.saturating_sub(bytes);
    }

    fn on_delivered(&mut self, _now: Time, bytes: u64) {
        self.delivered = (self.delivered + bytes).min(self.total);
    }

    fn finished(&self, _now: Time) -> bool {
        self.delivered >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_never_finishes() {
        let mut app = BulkApp;
        assert_eq!(app.bytes_to_send(Time::ZERO), u64::MAX);
        assert!(!app.finished(Time::ZERO));
        assert_eq!(app.next_event(Time::ZERO), None);
    }

    #[test]
    fn sized_app_lifecycle() {
        let mut app = SizedApp::new(3000);
        assert_eq!(app.bytes_to_send(Time::ZERO), 3000);
        app.consume(1500);
        assert_eq!(app.bytes_to_send(Time::ZERO), 1500);
        assert!(!app.finished(Time::ZERO));
        app.on_delivered(Time::ZERO, 1500);
        assert!(!app.finished(Time::ZERO));
        app.on_delivered(Time::ZERO, 1500);
        assert!(app.finished(Time::ZERO));
        assert_eq!(app.delivered_bytes(), 3000);
    }

    #[test]
    fn sized_app_delivery_saturates() {
        let mut app = SizedApp::new(1000);
        app.on_delivered(Time::ZERO, 5000);
        assert_eq!(app.delivered_bytes(), 1000);
        assert!(app.finished(Time::ZERO));
    }
}
