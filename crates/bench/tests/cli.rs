//! The two binaries, driven the way a user drives them.

use std::path::Path;
use std::process::Command;

/// Hostile `proteus-sim` flag values are rejected where flags are parsed —
/// usage and exit status 2 — rather than tripping a library assertion
/// (status 101 and a backtrace, for `--bw-step` a simulated second into the
/// run, for `--secs 1e30` the engine's 2^48 ns limit) or running silently
/// (a zero-length run, probabilities above 1, a negative RTT, a flow or a
/// fault timed at or after the end of the run).
#[test]
fn proteus_sim_rejects_hostile_flags_with_usage() {
    let cases: [&[&str]; 33] = [
        &["--bw", "0"],
        &["--bw", "-5"],
        &["--buffer", "0"],
        &["--loss", "2"],
        &["--flow", "NOPE"],
        &["--bw-step", "1:0"],
        &["--rtt", "0"],
        &["--flow", "probe:0"],
        &["--buffer", "0xBDP"],
        &["--secs", "0"],
        &["--secs", "-1"],
        &["--secs", "nan"],
        &["--secs", "1e30"],
        &["--secs", "281000"],
        &["--reorder", "2:5"],
        &["--burst-loss", "2:0.5:0.5"],
        &["--rtt-step", "1:-5"],
        &["--outage", "-1:2"],
        &["--ack-comp", "0:50"],
        &["--flow", "CUBIC@-1"],
        &["--links", "65537"],
        &["--links", "70000"],
        &["--flow", "Reno"],
        &["--flow", "Vegas"],
        // Buffers that hold no whole packet, and populations that abort.
        &["--buffer", "1e-30xBDP"],
        &["--buffer", "1.4"],
        &["--bw", "1e-9"],
        &["--population", "5000000000"],
        &["--churn", "1e9,1"],
        // A start or a fault at or after the end of the 2 s run.
        &["--flow", "BBR@2"],
        &["--outage", "100:1"],
        &["--bw-step", "9:10"],
        &["--rtt-step", "9:10"],
    ];
    for case in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_proteus-sim"))
            .args(["--flow", "CUBIC", "--secs", "2"])
            .args(case)
            .output()
            .expect("proteus-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case:?}: {stderr}");
        assert!(stderr.contains("usage: proteus-sim"), "{case:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{case:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{case:?} printed a result table");
    }
}

/// Without `PROTEUS_RESULTS_DIR`, only a full default-seed run may write
/// the committed `results/`: quick and re-seeded runs go to
/// `target/repro-scratch/` and say so.
#[test]
fn repro_quick_and_reseeded_runs_leave_results_alone() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let committed = root.join("results/tbl_equilibrium.txt");
    let scratch = root.join("target/repro-scratch/tbl_equilibrium.txt");
    let before = std::fs::read(&committed).expect("the committed theory report");
    for flags in [&["--quick"][..], &["--seed", "7"]] {
        let _ = std::fs::remove_file(&scratch);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env_remove("PROTEUS_RESULTS_DIR")
            .args(flags)
            .arg("theory")
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags:?}: {stderr}");
        assert!(stderr.contains("repro-scratch"), "{flags:?}: {stderr}");
        assert!(scratch.exists(), "{flags:?} wrote no scratch report");
        assert_eq!(std::fs::read(&committed).unwrap(), before, "{flags:?}");
    }
    // An explicit directory wins, and is not announced as a redirect.
    let dir = root.join("target/repro-scratch/explicit");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("PROTEUS_RESULTS_DIR", &dir)
        .args(["--quick", "theory"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("instead of results/"));
    assert!(dir.join("tbl_equilibrium.txt").exists());
}

/// A warm `repro --trace` run restores every trace file it declared, not
/// only the decision traces: delete `trace/` after a cold run, re-run, and
/// the telemetry JSONL comes back byte-identical from the cache.
#[test]
fn repro_warm_trace_replays_telemetry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("target/repro-scratch/warm-trace");
    let _ = std::fs::remove_dir_all(&dir);
    let repro = || {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .env("PROTEUS_RESULTS_DIR", &dir)
            .args(["--quick", "--trace", "fig4"])
            .output()
            .expect("repro runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let read_traces = || {
        let mut files: Vec<_> = std::fs::read_dir(dir.join("trace/fig4"))
            .expect("a trace directory")
            .map(|e| {
                let path = e.unwrap().path();
                let bytes = std::fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    repro();
    let cold = read_traces();
    assert!(!cold.is_empty(), "a cold --trace run wrote no telemetry");
    std::fs::remove_dir_all(dir.join("trace")).unwrap();
    repro();
    assert_eq!(read_traces(), cold);
}

/// `--trace-mi` records every flow's decisions, churned ones included: the
/// engine swaps each controller for its recording twin as the flow spawns,
/// so the `--population` flows (`Proteus-S~1`, `~2`) close MIs in the
/// export next to the explicit `Proteus-S#0`.
#[test]
fn proteus_sim_trace_mi_covers_churned_flows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("target/repro-scratch/trace-mi-churn");
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_proteus-sim"))
        .args(["--secs", "4", "--population", "2", "--flow", "Proteus-S"])
        .args(["--trace-mi", "--trace-format", "jsonl", "--trace-out"])
        .arg(&dir)
        .output()
        .expect("proteus-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let jsonl =
        std::fs::read_to_string(dir.join("adhoc/Proteus-S-s1.jsonl")).expect("a decision trace");
    assert!(
        jsonl
            .lines()
            .any(|l| l.contains(r#""event":"mi_close""#) && l.contains(r#""name":"Proteus-S~"#)),
        "no mi_close line from a churned flow"
    );
}
