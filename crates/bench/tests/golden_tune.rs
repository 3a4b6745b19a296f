//! Golden-output pin: the quick-mode `tune` search trajectory must
//! reproduce `results/golden/tune_quick_*` byte for byte.
//!
//! The tuner is deterministic end to end — grid enumeration, GA draws,
//! simulation, ranking, rendering — so its quick leaderboard doubles as a
//! wide numeric regression net: any change to the controller, the engine
//! or the search policy shifts it and fails here instead of silently
//! re-ranking the published winner.
//!
//! When a change is *supposed* to shift the numbers, re-bless with
//! `PROTEUS_BLESS=1 cargo test -p proteus-bench --test golden_tune` and
//! commit the updated goldens alongside the change.

mod common;

use std::fs;
use std::path::PathBuf;

use proteus_bench::experiments::registry;
use proteus_bench::RunCfg;

#[test]
fn quick_tune_matches_golden() {
    // Scratch results dir: never clobber the committed reports, and never
    // read the shared cache (a warm cache would mask stale numerics).
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_tune");
    let _ = fs::remove_dir_all(&scratch);
    std::env::set_var("PROTEUS_RESULTS_DIR", &scratch);

    let tune = registry()
        .into_iter()
        .find(|e| e.id == "tune")
        .expect("tune registered");
    let report = (tune.run)(RunCfg {
        cache: false,
        ..RunCfg::quick()
    });
    std::env::remove_var("PROTEUS_RESULTS_DIR");
    assert!(
        report.contains("maximize scav_util"),
        "tune report lost its objective line:\n{report}"
    );

    for name in ["leaderboard.csv", "frontier.csv", "best_config.json"] {
        let fresh = fs::read_to_string(scratch.join("tune").join(name))
            .unwrap_or_else(|e| panic!("tune did not write {name}: {e}"));
        common::check_or_bless(&format!("tune_quick_{name}"), &fresh, "golden_tune");
    }
}
