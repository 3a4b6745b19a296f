//! Parallel simulation-campaign runner for the Proteus reproduction.
//!
//! Every grid-shaped experiment in `proteus-bench` reduces to the same
//! shape: a list of *pure* `(scenario parameters, seed) → numbers` cells
//! that can run in any order. This crate gives that shape a first-class
//! abstraction and the machinery to execute it fast and reproducibly:
//!
//! * [`SimJob`] — one cell: a `Send` closure producing a text payload, plus
//!   a human-readable descriptor whose FNV-1a content hash ([`JobKey`]) is
//!   the job's stable identity,
//! * [`Executor`] — a work-stealing thread pool (std threads only) whose
//!   result ordering is *independent of the worker count*, so a campaign at
//!   `--jobs 8` is byte-identical to `--jobs 1`,
//! * [`ResultCache`] — a content-addressed disk cache (`results/.cache/`)
//!   so re-running `repro` only recomputes cells whose descriptors changed,
//! * [`Campaign`] — ties the three together and reports progress and a
//!   machine-readable JSON summary for the bench trajectory,
//! * [`write_if_changed`] — the one way reports and replayed artifacts
//!   reach disk: a file that already holds the bytes is left untouched,
//! * [`payload`] / [`json`] — round-trip float encoding for job payloads
//!   and a tiny JSON writer for telemetry (no serde in the tree).
//!
//! # Example
//!
//! ```
//! use proteus_runner::{Campaign, CampaignOpts, SimJob};
//!
//! let mut c = Campaign::new("demo", CampaignOpts { jobs: 4, ..CampaignOpts::default() });
//! for n in 0..8u64 {
//!     c.push(SimJob::new(
//!         format!("demo/square/n={n}/v1"),
//!         format!("square-{n}"),
//!         move || proteus_runner::payload::encode_floats(&[(n * n) as f64]),
//!     ));
//! }
//! let result = c.run();
//! assert_eq!(result.outputs.len(), 8);
//! assert_eq!(proteus_runner::payload::decode_floats(&result.outputs[3])[0], 9.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod campaign;
mod files;
pub mod hash;
pub mod job;
pub mod json;
pub mod payload;
pub mod pool;

pub use cache::ResultCache;
pub use campaign::{
    skipped_payload, take_session_stats, Campaign, CampaignOpts, CampaignResult, CampaignStats,
    SKIPPED_PAYLOAD_FLOATS,
};
pub use files::write_if_changed;
pub use hash::JobKey;
pub use job::SimJob;
pub use pool::Executor;
