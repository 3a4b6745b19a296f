//! Numeric substrate shared by the PCC Proteus reproduction.
//!
//! This crate collects the small, well-tested statistical primitives that the
//! transport layer, the simulator and the experiment harness all rely on:
//!
//! * [`Welford`] — numerically stable online mean / variance,
//! * [`Ecdf`] — empirical CDFs (Figs. 8–10),
//! * [`percentile`] — nearest-rank percentiles (95th-RTT metrics),
//! * [`jain_index`] — Jain's fairness index (Fig. 5),
//! * [`LinearRegression`] — least-squares slope + residual, the exact
//!   computation Proteus uses for RTT gradient and regression-error
//!   tolerance (§5),
//! * [`RegressionAccumulator`] — the streaming O(1)-per-sample form of the
//!   same fit, used on the per-ACK hot path,
//! * [`Ewma`] / [`MeanDeviationTracker`] — exponentially weighted moving
//!   average and Linux-kernel-style mean-deviation tracking used by the
//!   trending-tolerance gates (§5).
//!
//! Everything here is deterministic and allocation-light so it can run inside
//! the per-ACK hot path of the simulator.
//!
//! ```
//! use proteus_stats::{jain_index, LinearRegression, Welford};
//!
//! // σ(RTT): the scavenger's competition signal.
//! let mut acc = Welford::new();
//! for rtt_ms in [30.0, 31.5, 30.2, 33.0] {
//!     acc.add(rtt_ms);
//! }
//! assert!(acc.std_dev() > 1.0);
//!
//! // RTT gradient: least-squares slope of RTT vs. send time.
//! let fit = LinearRegression::fit(&[(0.0, 30.0), (1.0, 31.0), (2.0, 32.0)]).unwrap();
//! assert!((fit.slope - 1.0).abs() < 1e-9);
//!
//! // Fairness (Fig. 5).
//! assert!(jain_index(&[25.0, 25.0]).unwrap() > 0.999);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cdf;
mod ewma;
mod jain;
mod percentile;
mod regression;
mod welford;

pub use cdf::Ecdf;
pub use ewma::{Ewma, MeanDeviationTracker};
pub use jain::jain_index;
pub use percentile::{median, percentile, percentile_select};
pub use regression::{LinearRegression, RegressionAccumulator};
pub use welford::Welford;
