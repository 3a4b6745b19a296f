//! Holds the benchmark to its contract: drives both binaries at `--smoke`
//! scale the way the driver does, and checks `BENCHMARK.json`, the metric
//! registry and the sources against each other.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use proteus_benchmark::json::{self, Value};
use proteus_benchmark::metrics::{self, valid_name, END_TO_END};
use proteus_benchmark::{Kind, DEFAULT_SECONDS};

const PLAIN: &str = env!("CARGO_BIN_EXE_proteus-benchmark");

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(list: &Value) -> Vec<&str> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

/// A fresh `--out` directory for one test.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create the test's out directory");
    dir
}

/// What one driver-style invocation printed last, and left on disk.
struct Run {
    line: Value,
    file: Value,
}

impl Run {
    fn metric(&self, name: &str) -> f64 {
        self.file
            .get("per_layer")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} missing from the result file"))
    }

    fn digest(&self) -> &str {
        self.file
            .get("sim_digest")
            .and_then(Value::as_str)
            .expect("sim_digest")
    }
}

/// Runs one workload the way the driver does (the untraced binary hands
/// `--trace 1` over to its sibling), at smoke scale.
fn drive(kind: Kind, traced: bool, out: &Path) -> Run {
    let output = Command::new(PLAIN)
        .args(["--workload", kind.name(), "--seed", "7", "--seconds", "1"])
        .args([
            "--trace",
            if traced { "1" } else { "0" },
            "--smoke",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("spawn the benchmark");
    assert!(
        output.status.success(),
        "{} exited with {:?}: {}",
        kind.name(),
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let line = json::parse(stdout.lines().last().expect("a last line")).expect("a JSON last line");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    let suffix = if traced { ".layers" } else { "" };
    let file = fs::read_to_string(out.join(format!("{}{suffix}.json", kind.name())))
        .expect("the result file");
    Run {
        line,
        file: json::parse(&file).expect("the result file parses"),
    }
}

fn line_metrics(run: &Run) -> BTreeSet<String> {
    let metrics = run.line.get("metrics").and_then(Value::as_object);
    metrics.expect("metrics").keys().cloned().collect()
}

/// Both runs of one workload, with everything checked that holds for all
/// four of them.
fn drive_both(kind: Kind) -> (Run, Run) {
    let out = out_dir(kind.name());
    let untraced = drive(kind, false, &out);
    let traced = drive(kind, true, &out);

    // Untraced: exactly the end-to-end metrics, none of them zero.
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|e| e.name.to_string()).collect();
    assert_eq!(line_metrics(&untraced), e2e);
    for name in &e2e {
        let value = untraced.line.get("metrics").unwrap().get(name).unwrap();
        assert!(
            value.get("value").and_then(Value::as_f64) > Some(0.0),
            "{name}"
        );
    }

    // Traced: the driver's line names every per-layer metric; the result
    // file names only those of layers this workload exercises.
    let registry = metrics::per_layer();
    let all: BTreeSet<String> = registry.iter().map(|l| l.name.clone()).collect();
    assert_eq!(line_metrics(&traced), all);
    let reported = traced.file.get("per_layer").and_then(Value::as_object);
    for name in reported.expect("per_layer").keys() {
        let def = registry.iter().find(|l| l.name == *name);
        let def = def.unwrap_or_else(|| panic!("{name} is not in the registry"));
        assert!(
            def.on.contains(&kind),
            "{} emitted {name}, a layer it does not exercise",
            kind.name()
        );
    }

    // The decorators and spans are transparent, and passes repeat.
    assert_eq!(untraced.digest(), traced.digest());
    assert!(traced.metric("benchmark.trace_overhead_share").is_finite());

    // Spans were written; the scratch directory is gone.
    let trace = fs::read_to_string(out.join(format!("{}.trace.json", kind.name())))
        .expect("the trace file");
    let trace = json::parse(&trace).expect("the trace file parses");
    let spans = trace.get("spans").and_then(Value::as_array).expect("spans");
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Value::as_str) == Some("rep")));
    let leftovers: Vec<_> = fs::read_dir(&out)
        .expect("read the out directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("scratch-"))
        .collect();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
    (untraced, traced)
}

#[test]
fn clean_dumbbell_is_fused_and_light_on_the_scheduler() {
    let (_, traced) = drive_both(Kind::CleanDumbbell);
    assert!(traced.metric("netsim.fused_share") >= 0.95);
    // Window-based senders push ~0 events per packet on the fused path;
    // paced ones (Proteus, BBR) still push two pacing timers. The mix
    // averages about one, a quarter of what `impaired_multihop` pays.
    assert!(traced.metric("netsim.sched.pushes_per_pkt") < 1.5);
    assert_eq!(traced.metric("core.allocs_per_ack"), 0.0);
    // Timer cost is subtracted: the in-simulation per-call cost lands
    // within 2x of the isolated probes' range, not at a multiple of it.
    let probes = ["Proteus-S", "Proteus-P", "Proteus-H"]
        .map(|p| traced.metric(&format!("core.per_ack_ns.{p}")));
    let lo = probes.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = probes.iter().copied().fold(0.0, f64::max);
    let in_sim = traced.metric("core.cc.ns_per_call");
    assert!(
        in_sim > lo / 2.0 && in_sim < hi * 2.0,
        "core.cc.ns_per_call {in_sim} against probes {lo}..{hi}"
    );
    assert!(traced.metric("benchmark.timer_ns") > 0.0);
}

#[test]
fn impaired_multihop_runs_staged_through_the_scheduler() {
    let (_, traced) = drive_both(Kind::ImpairedMultihop);
    assert_eq!(traced.metric("netsim.fused_share"), 0.0);
    assert!(traced.metric("netsim.sched.pushes_per_pkt") >= 3.0);
    assert!(traced.metric("netsim.fault.injected") > 0.0);
    assert!(traced.metric("apps.media.frames") > 0.0);
    assert!(traced.metric("apps.calls") > 0.0);
}

#[test]
fn churn_population_is_deep_in_the_scheduler() {
    let (_, traced) = drive_both(Kind::ChurnPopulation);
    // 2 000 warm-start flows each hold timers from the first instant, so
    // the depth shows even at smoke scale (full scale reaches ~9 000).
    assert!(traced.metric("netsim.sched.peak_queue") >= 2000.0);
    assert!(traced.metric("netsim.flows") >= 2000.0);
}

#[test]
fn campaign_replay_is_served_from_the_cache_when_warm() {
    let (_, traced) = drive_both(Kind::CampaignReplay);
    assert_eq!(traced.metric("runner.cache.hit_share.warm"), 1.0);
    assert!(traced.metric("runner.jobs_executed.cold") > 0.0);
    assert!(traced.metric("bench.experiment.theory.warm_s") > 0.0);
}

#[test]
fn compare_passes_a_run_against_itself() {
    let out = out_dir("compare");
    drive(Kind::ImpairedMultihop, false, &out);
    drive(Kind::ImpairedMultihop, true, &out);
    let output = Command::new(PLAIN)
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("spawn compare");
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{text}");
    assert_eq!(text.matches(" ok\n").count(), END_TO_END.len(), "{text}");
    // The other three workloads are noted as missing; nothing may differ.
    assert!(!text.contains("differs"), "{text}");
}

#[test]
fn benchmark_json_lists_exactly_what_the_registry_does() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        names_of(b.get("workloads").unwrap()),
        Kind::ALL.map(Kind::name)
    );
    assert_eq!(
        b.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS as f64)
    );
    let paths = b.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths, [Value::Str("benchmark".into())]);

    let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
    let listed: Vec<(String, String, f64)> = b
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            assert_eq!(field(m, "better"), "lower");
            (
                field(m, "name"),
                field(m, "unit"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let defined: Vec<(String, String, f64)> = END_TO_END
        .iter()
        .map(|e| (e.name.to_string(), e.unit.to_string(), e.bound))
        .collect();
    assert_eq!(listed, defined);

    let listed: Vec<[String; 3]> = b
        .get("per_layer")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
        .collect();
    let defined: Vec<[String; 3]> = metrics::per_layer()
        .iter()
        .map(|l| {
            [
                l.name.clone(),
                l.unit.to_string(),
                l.better.word().to_string(),
            ]
        })
        .collect();
    assert_eq!(listed, defined);
    assert!(listed.iter().all(|[name, ..]| valid_name(name)));
}

/// Names ROADMAP item 2 and the diet item plan to delete or move. Later
/// PRs may not edit `benchmark/`, so it must not depend on any of them.
const FORBIDDEN: [&str; 9] = [
    "with_scheduler",
    "with_wire_path",
    "Scheduler",
    "WirePath",
    "sched::",
    "BottleneckLink",
    "histogram",
    "pcc_proteus",
    "proteus_bench::runner",
];

fn rust_sources(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_sources(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

#[test]
fn sources_use_no_api_slated_for_removal() {
    let mut files = Vec::new();
    rust_sources(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    assert!(files.len() > 10, "found only {} source files", files.len());
    for file in files {
        let text = fs::read_to_string(&file).expect("read a source file");
        for name in FORBIDDEN {
            assert!(!text.contains(name), "{} uses {name}", file.display());
        }
    }
}
