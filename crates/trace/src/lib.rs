//! Zero-cost structured decision tracing for the PCC Proteus reproduction.
//!
//! PCC-family senders are driven by per-MI *decisions* — utility evaluations
//! (paper Eqs. 1–3), gradient-ascent state transitions (§4.3), §4.4 utility
//! switching and the §5 noise-tolerance verdicts. This crate defines the
//! fixed-size event records for those decision points ([`DecisionEvent`]),
//! the sink abstraction they are recorded through ([`TraceSink`]), and the
//! exporters that turn a recorded run into analysis artifacts:
//!
//! * [`NoopSink`] — the default; `ENABLED = false`, so every recording site
//!   compiles to nothing (the per-ACK hot path stays allocation-free and
//!   branch-free, guarded by `crates/core/tests/alloc_free.rs` and the
//!   `per_ack` microbenches),
//! * [`RingSink`] — a preallocated per-flow ring buffer that keeps the most
//!   recent events and never allocates after construction,
//! * [`export::to_jsonl`] — one JSON object per event (grep/jq-friendly),
//! * [`export::to_chrome_trace`] — Chrome `trace_event` JSON, loadable in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`,
//! * [`TraceSummary`] — aggregate mode-switch counts and filter hit-rates
//!   (the `repro trace-summary` report mode).
//!
//! The crate is dependency-free and sits below `proteus-transport` in the
//! workspace graph, so every layer (controller, simulator, runner) can share
//! the event vocabulary without cycles. See `OBSERVABILITY.md` at the repo
//! root for the full schema reference and a worked trace-reading example.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod export;
pub mod sink;
pub mod summary;

pub use event::{
    AckFilter, CtlPhase, DecisionEvent, EventKind, Fault, FaultKind, GateVerdict, MiClose,
    ModeSwitch, ProbeOutcome, RateTransition,
};
pub use export::{FlowEvent, LINK_FLOW};
pub use sink::{NoopSink, RingSink, TraceSink, MI_RING_CAPACITY};
pub use summary::TraceSummary;
