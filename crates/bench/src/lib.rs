//! Experiment harness regenerating every table and figure of *PCC Proteus:
//! Scavenger Transport And Beyond* (SIGCOMM 2020).
//!
//! Each `experiments::figN` module reproduces one figure of the paper's
//! evaluation (§6 and Appendix B): it builds the same workload on the
//! simulated dumbbell, sweeps the same parameters, and prints the same
//! rows/series the paper plots. Run them with:
//!
//! ```text
//! cargo run -p proteus-bench --release --bin repro -- all
//! cargo run -p proteus-bench --release --bin repro -- fig3 fig6
//! cargo run -p proteus-bench --release --bin repro -- --quick all
//! ```
//!
//! Reports are printed and also written under `results/`.
//!
//! `repro tune`, the offline parameter search, is built from `space`,
//! `scenarios`, `eval` and `search` (plus the renderers in `report`);
//! `experiments::tune` describes the pipeline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod eval;
pub mod experiments;
pub mod invariants;
pub mod jobs;
pub mod mi_trace;
pub mod protocols;
pub mod report;
pub mod scenarios;
pub mod search;
pub mod space;

pub use jobs::{campaign, tail_mbps, tail_window};
pub use mi_trace::{mi_trace_dir, TraceSink};
pub use protocols::{cc, try_cc, PRIMARIES, SCAVENGERS};
pub use report::Table;

/// Global knobs for an experiment invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Reduced sweeps/horizons for smoke testing.
    pub quick: bool,
    /// Base RNG seed; trials offset from it.
    pub seed: u64,
    /// Worker threads for campaign execution (0 = one per core).
    pub jobs: usize,
    /// Reuse/populate the disk result cache under `results/.cache/`.
    pub cache: bool,
    /// Trace every cell: per-flow telemetry JSONL under `results/trace/`
    /// and structured decision traces (MI closes, mode switches, filter
    /// verdicts) under [`mi_trace::mi_trace_dir`] (see [`TraceSink`]).
    pub trace: bool,
    /// Shard filter `(index, count)` forwarded to every campaign: cache-
    /// miss jobs outside the shard are skipped (see `repro --shard i/n`).
    pub shard: Option<(u32, u32)>,
}

impl RunCfg {
    /// Default full-fidelity configuration.
    pub fn full() -> Self {
        Self {
            quick: false,
            seed: 1,
            jobs: 1,
            cache: true,
            trace: false,
            shard: None,
        }
    }

    /// Quick smoke-test configuration.
    pub fn quick() -> Self {
        Self {
            quick: true,
            ..Self::full()
        }
    }

    /// Number of trials to average where the paper averages ≥ 10: one in
    /// quick mode, ten in full mode.
    pub fn trials(&self) -> u64 {
        if self.quick {
            1
        } else {
            10
        }
    }
}
