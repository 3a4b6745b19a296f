//! Deterministic discrete-event network simulator for the PCC Proteus
//! reproduction.
//!
//! The paper evaluates congestion controllers on Emulab dumbbells and live
//! WiFi paths; this crate substitutes a packet-level simulation of the same
//! topology (see DESIGN.md §2):
//!
//! * [`Link`] — fixed-rate FIFO tail-drop queue and the wire behind it,
//! * [`NoiseConfig`] — latency-noise models (clean, Gaussian, WiFi-like),
//! * [`FaultSchedule`] — deterministic fault injection (time-varying
//!   bandwidth/RTT, outages, bursty loss, reordering, ACK compression),
//! * [`Topology`] — multi-bottleneck link DAGs with per-flow paths
//!   (parking lot, RTT-unfairness chains),
//! * [`Scenario`]/[`FlowSpec`]/[`CrossTrafficSpec`] — declarative experiment
//!   descriptions,
//! * [`Sim`]/[`run`] — the event engine driving [`CongestionControl`]
//!   implementations,
//! * [`SimResult`]/[`FlowMetrics`] — per-run measurements.
//!
//! [`CongestionControl`]: proteus_transport::CongestionControl
//!
//! # Example: a fixed-window flow on the paper's default bottleneck
//!
//! ```
//! use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario};
//! use proteus_transport::{AckInfo, CongestionControl, Dur, LossInfo, Time};
//!
//! struct FixedWindow;
//! impl CongestionControl for FixedWindow {
//!     fn name(&self) -> &str { "fixed" }
//!     fn on_ack(&mut self, _: Time, _: &AckInfo) {}
//!     fn on_loss(&mut self, _: Time, _: &LossInfo) {}
//!     fn pacing_rate(&self) -> Option<f64> { None }
//!     fn cwnd_bytes(&self) -> u64 { 375_000 } // 2 BDP
//! }
//!
//! let link = LinkSpec::paper_default(); // 50 Mbps, 30 ms, 375 KB
//! let result = run(Scenario::new(link, Dur::from_secs(5))
//!     .flow(FlowSpec::bulk("demo", Dur::ZERO, || Box::new(FixedWindow))));
//! let mbps = result.flows[0]
//!     .throughput_mbps(Time::from_secs_f64(2.0), Time::from_secs_f64(5.0));
//! assert!(mbps > 45.0, "a 2-BDP window saturates the link: {mbps}");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod dist;
pub mod engine;
pub mod fault;
mod flows;
pub mod inflight;
pub mod link;
pub mod metrics;
pub mod noise;
mod population;
pub mod scenario;
pub mod sched;
mod telemetry;
pub mod timers;
pub mod topology;

pub use engine::{run, take_session_event_totals, SessionEventTotals, Sim, WirePath};
pub use fault::{
    AckCompression, FaultSchedule, FaultStats, GilbertElliott, LinkChange, ReorderConfig,
};
pub use inflight::{InflightPkt, InflightTracker};
pub use link::{Link, Offer, Wire};
pub use metrics::{
    EventStats, FlowMetrics, LinkSummary, MediaMetrics, SimResult, TraceEvent, EVENT_KIND_NAMES,
};
pub use noise::{NoiseConfig, WifiNoiseConfig};
pub use scenario::{
    CcBuilder, ChurnClass, ChurnSpec, CrossTrafficSpec, FlowSpec, LinkSpec, Scenario, TRACE_EVERY,
};
pub use sched::Scheduler;
pub use topology::{LinkId, Topology};
