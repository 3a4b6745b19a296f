//! Golden-output pin: quick-mode Fig. 2 must reproduce `results/golden/`
//! byte for byte.
//!
//! The committed `results/` are full-fidelity runs of the same code paths,
//! so any numerics change that alters them also alters this quick run —
//! and fails here loudly instead of leaving stale committed reports behind.
//! Fig. 2 is the pin because it exercises the widest numeric surface:
//! the discrete-event engine, CUBIC cross-traffic, Welford deviations and
//! per-window regression fits.
//!
//! When a change is *supposed* to shift the numbers:
//!
//! 1. re-bless the golden: `PROTEUS_BLESS=1 cargo test -p proteus-bench
//!    --test golden_outputs`,
//! 2. regenerate the committed reports: `cargo run --release -p
//!    proteus-bench --bin repro -- --no-cache all`,
//! 3. commit both, explaining the delta (see DESIGN.md §4d for the
//!    streaming-regression tolerance that motivated this guard).

mod common;

use std::fs;
use std::path::PathBuf;

use proteus_bench::experiments::registry;
use proteus_bench::RunCfg;

#[test]
fn quick_fig2_matches_golden() {
    // Redirect report side-effects to a scratch dir: this test must never
    // overwrite the committed full-fidelity `results/` with quick runs.
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_fig2");
    let _ = fs::remove_dir_all(&scratch);
    std::env::set_var("PROTEUS_RESULTS_DIR", &scratch);

    let fig2 = registry()
        .into_iter()
        .find(|e| e.id == "fig2")
        .expect("fig2 registered");
    // No cache: a warm cache would serve pre-change outputs and mask
    // exactly the staleness this test exists to catch.
    let report = (fig2.run)(RunCfg {
        cache: false,
        ..RunCfg::quick()
    });
    std::env::remove_var("PROTEUS_RESULTS_DIR");

    // The text report plus every CSV the experiment wrote, under stable
    // names (fig2_quick.txt, fig2_quick_1.csv, ...).
    let mut artifacts = vec![("fig2_quick.txt".to_string(), report)];
    let mut csvs: Vec<_> = fs::read_dir(&scratch)
        .expect("scratch dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .map(|e| e.path())
        .collect();
    csvs.sort();
    assert!(!csvs.is_empty(), "fig2 wrote no CSV tables to {scratch:?}");
    for path in csvs {
        let name = path.file_name().expect("file name").to_string_lossy();
        let golden_name = name.replace("fig2", "fig2_quick");
        let content = fs::read_to_string(&path).expect("read scratch csv");
        artifacts.push((golden_name, content));
    }

    // A mismatch here means the committed full-fidelity results/ are stale
    // too: regenerate them with `repro --no-cache all`.
    for (name, fresh) in &artifacts {
        common::check_or_bless(name, fresh, "golden_outputs");
    }
}
