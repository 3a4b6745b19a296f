//! PCC Proteus — the paper's core contribution, reimplemented in Rust.
//!
//! *PCC Proteus: Scavenger Transport And Beyond* (SIGCOMM 2020) extends the
//! PCC utility framework with a **scavenger** mode that yields to primary
//! flows by penalizing **RTT deviation** — an early, typically-unused
//! signal of flow competition — plus a **hybrid** mode that switches
//! between primary and scavenger behaviour at an application-controlled
//! rate threshold.
//!
//! The crate is organized like the architecture in the paper's Fig. 1:
//!
//! * [`utility`] — the utility-function library: Vivace, Proteus-P (Eq. 1),
//!   Proteus-S (Eq. 2), Proteus-H (Eq. 3) and the [`SharedThreshold`]
//!   cross-layer cell,
//! * [`noise`] — the §5 noise-tolerance mechanisms (per-ACK sample
//!   filtering, per-MI regression-error tolerance, MI-history trending
//!   tolerance),
//! * [`rate_control`] — PCC Vivace's gradient-ascent controller, with
//!   Proteus' three-pair majority probing,
//! * [`proteus`] — [`ProteusSender`], wiring everything behind the shared
//!   [`CongestionControl`](proteus_transport::CongestionControl) trait,
//!   with live mode switching,
//! * [`equilibrium`] — the Appendix-A game model with a numeric
//!   best-response solver (uniqueness / fairness checks) and the §4.4
//!   Proteus-H ideal-allocation formula,
//! * [`config`] — every constant from the paper in one place.
//!
//! # Example: evaluating the scavenger utility
//!
//! ```
//! use proteus_core::{evaluate, MiObservation, Mode, UtilityParams};
//!
//! let params = UtilityParams::default();            // d=0.9, b=900, c=11.35, d_dev=1500
//! let calm = MiObservation {
//!     rate_mbps: 20.0,
//!     loss_rate: 0.0,
//!     rtt_gradient: 0.0,
//!     rtt_deviation: 0.0,
//!     rtt_s: 0.030,
//! };
//! let contended = MiObservation { rtt_deviation: 0.001, ..calm };
//!
//! // With 1 ms of RTT deviation the scavenger's utility collapses while
//! // the primary's is untouched — that asymmetry is the whole paper.
//! assert_eq!(evaluate(&Mode::Primary, &params, &calm),
//!            evaluate(&Mode::Primary, &params, &contended));
//! assert!(evaluate(&Mode::Scavenger, &params, &contended)
//!         < evaluate(&Mode::Scavenger, &params, &calm) - 25.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod equilibrium;
pub mod noise;
pub mod proteus;
pub mod rate_control;
pub mod utility;

pub use config::{
    AdaptiveNoiseParams, MiParams, NoiseTolerance, ProbeRule, ProteusConfig, RateControlParams,
    UtilityParams,
};
pub use equilibrium::{
    hybrid_ideal_allocation, solve_equilibrium, Equilibrium, GameParams, SenderKind,
};
pub use noise::{AckIntervalFilter, GatedMetrics, MiNoiseGate};
pub use proteus::ProteusSender;
pub use rate_control::RateController;
pub use utility::{
    evaluate, evaluate_terms, DelayBudgetParams, MiObservation, Mode, SharedThreshold, UtilityTerms,
};
