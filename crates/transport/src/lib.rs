//! Transport substrate for the PCC Proteus reproduction.
//!
//! This crate defines everything a congestion-control algorithm needs that is
//! *not* specific to any one algorithm:
//!
//! * [`Time`]/[`Dur`] — integer-nanosecond simulated time,
//! * [`SentPacket`]/[`AckInfo`]/[`LossInfo`] — per-packet events,
//! * [`CongestionControl`] — the single trait all protocols (CUBIC, BBR,
//!   COPA, LEDBAT, Vivace, Proteus-P/S/H, …) implement,
//! * [`RttEstimator`], the [`WindowedMin`] filter and the RFC 6817
//!   [`BaseDelay`] history,
//! * [`MiTracker`]/[`MiStats`] — PCC monitor-interval accounting,
//! * [`SeqRing`]/[`SeqSet`] — O(1) per-packet state (or one bit of it) keyed
//!   by sequence number,
//! * [`Application`] — sender-side application models (bulk, fixed-size).
//!
//! The simulator (`proteus-netsim`) drives implementations of these traits;
//! the algorithms themselves live in `proteus-baselines` and `proteus-core`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod app;
pub mod cc;
pub mod mi;
pub mod packet;
pub mod rtt;
pub mod seq_ring;
pub mod time;

pub use app::{Application, BulkApp, FrameRecord, SizedApp};
pub use cc::{factory, CcFactory, CcSnapshot, CongestionControl};
pub use mi::{MiId, MiStats, MiTracker};
pub use packet::{AckInfo, FlowId, LossInfo, SentPacket, SeqNr, DEFAULT_PACKET_BYTES};
pub use rtt::{BaseDelay, RttEstimator, WindowedMin};
pub use seq_ring::{SeqRing, SeqSet};
pub use time::{serialization_delay, Dur, Time};
