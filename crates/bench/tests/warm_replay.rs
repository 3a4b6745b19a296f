//! Warm `repro` is pure replay: every registry experiment submits all of
//! its simulation — `theory` its equilibrium solves — through the campaign
//! runner, so a second pass over a populated cache reproduces every report
//! from fully cached campaigns without dispatching one engine event. Also drives the converted figures through `--shard 1/2`, `2/2`
//! and a final unsharded pass over the merged caches: their
//! variable-length payloads (Fig. 2's window sets, Fig. 14's timeline) are
//! longer than the shard placeholder.
//!
//! The warm pass also writes nothing that is already on disk: every file
//! the cold pass left — reports, CSVs, cache entries — keeps its bytes and
//! its modification time, and the campaign log is the one file it appends
//! to.
//!
//! Runs the whole quick registry cold, so it is release-only (CI's "Warm
//! replay check" step); under a debug `cargo test` it is ignored.
//!
//! Everything lives in one `#[test]`: `PROTEUS_RESULTS_DIR` and the session
//! counters are process-global.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use proteus_bench::experiments::{registry, Experiment};
use proteus_bench::RunCfg;
use proteus_runner::CampaignStats;

/// The experiments the shard/merge phase drives: Fig. 3's waves, the shared
/// single/pair cells, and every figure-specific payload shape.
const CONVERTED: [&str; 8] = [
    "fig2", "fig3", "fig4", "fig7", "fig11", "fig12", "fig13", "fig14",
];

/// A report minus `tune`'s executed/cached accounting line, which differs
/// between a cold and a warm pass by design.
fn behaviour_of(report: &str) -> String {
    report
        .lines()
        .filter(|l| !(l.contains(" executed") && l.contains(" cached")))
        .collect::<Vec<_>>()
        .join("\n")
}

struct Pass {
    report: String,
    campaigns: Vec<CampaignStats>,
    events: u64,
}

fn run(e: &Experiment, cfg: RunCfg) -> Pass {
    proteus_runner::take_session_stats();
    proteus_netsim::take_session_event_totals();
    let report = behaviour_of(&(e.run)(cfg));
    Pass {
        report,
        campaigns: proteus_runner::take_session_stats(),
        events: proteus_netsim::take_session_event_totals().dispatched,
    }
}

/// Every regular file under `dir`, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(d) = dirs.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn mtime(path: &Path) -> SystemTime {
    fs::metadata(path).unwrap().modified().unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    std::env::set_var("PROTEUS_RESULTS_DIR", &dir);
    dir
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs the whole quick registry cold; use --release"
)]
fn warm_registry_is_pure_replay_and_shards_merge() {
    let cfg = RunCfg::quick();
    assert!(cfg.cache && cfg.jobs == 1);
    let experiments = registry();

    let dir = scratch("warm_replay");
    let cold: Vec<Pass> = experiments.iter().map(|e| run(e, cfg)).collect();
    // Backdate everything the cold pass wrote, so that a warm rewrite of
    // even the same bytes shows.
    let old = SystemTime::UNIX_EPOCH + Duration::from_secs(946_684_800);
    let before: Vec<(PathBuf, Vec<u8>)> = files_under(&dir)
        .into_iter()
        .map(|path| {
            fs::File::open(&path).unwrap().set_modified(old).unwrap();
            let bytes = fs::read(&path).unwrap();
            (path, bytes)
        })
        .collect();
    assert!(
        before.len() > 500,
        "{} files after the cold pass",
        before.len()
    );
    for (e, cold) in experiments.iter().zip(&cold) {
        let warm = run(e, cfg);
        assert_eq!(warm.report, cold.report, "{}: warm report differs", e.id);
        assert_eq!(warm.events, 0, "{}: warm pass simulated", e.id);
        for c in &warm.campaigns {
            assert_eq!(c.cached, c.total, "{}: warm campaign {c:?}", e.id);
        }
        // Every experiment went through the runner, `theory`'s equilibrium
        // solves included: none recomputes anything warm.
        assert!(!warm.campaigns.is_empty(), "{}: no campaign", e.id);
    }
    let log = dir.join("campaigns.jsonl");
    let after = files_under(&dir);
    assert_eq!(
        after,
        before.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
        "the warm pass added or removed files"
    );
    for (path, bytes) in before.iter().filter(|(p, _)| *p != log) {
        assert_eq!(mtime(path), old, "warm pass rewrote {}", path.display());
        assert!(
            fs::read(path).unwrap() == *bytes,
            "{} changed",
            path.display()
        );
    }
    assert!(mtime(&log) > old, "the warm pass logged no campaign");

    // Two shards, each on its own machine's cache — so every converted
    // experiment renders a report from placeholders in at least one of
    // them — then the merged caches replayed unsharded.
    let converted = || {
        experiments
            .iter()
            .zip(&cold)
            .filter(|(e, _)| CONVERTED.contains(&e.id))
    };
    let mut shard_caches = Vec::new();
    let mut skipped = [0usize; CONVERTED.len()];
    for index in 0..2 {
        let dir = scratch(&format!("warm_replay_shard{index}"));
        let sharded = RunCfg {
            shard: Some((index, 2)),
            ..cfg
        };
        for (slot, (e, _)) in converted().enumerate() {
            let pass = run(e, sharded);
            assert!(!pass.report.is_empty(), "{}", e.id);
            skipped[slot] += pass.campaigns.iter().map(|c| c.skipped).sum::<usize>();
        }
        shard_caches.push(dir.join(".cache"));
    }
    assert!(skipped.iter().all(|&n| n > 0), "skips: {skipped:?}");
    let merged_cache = scratch("warm_replay_merged").join(".cache");
    fs::create_dir_all(&merged_cache).expect("create merged cache");
    for entry in shard_caches.iter().flat_map(|d| fs::read_dir(d).unwrap()) {
        let entry = entry.unwrap();
        fs::copy(entry.path(), merged_cache.join(entry.file_name())).unwrap();
    }
    for (e, cold) in converted() {
        let merged = run(e, cfg);
        assert_eq!(merged.report, cold.report, "{}: differs after shards", e.id);
        assert_eq!(merged.events, 0, "{}: shards left work undone", e.id);
    }
    std::env::remove_var("PROTEUS_RESULTS_DIR");
}
