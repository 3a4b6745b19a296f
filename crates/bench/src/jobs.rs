//! Shared job builders and campaign plumbing for the experiment modules.
//!
//! Every experiment submits all of its simulation as [`SimJob`]s through a
//! [`Campaign`] (built by [`campaign`] from the CLI's `--jobs` /
//! `--no-cache` knobs), so a warm re-run is pure cache replay. Every such
//! job is made by one function, `scenario_job`, so every cell honours the
//! invocation's `--trace`. The job
//! builders here cover the two shapes nearly every sweep reduces to — one
//! bulk flow on a link ([`single_job`]) and a primary/scavenger pair
//! ([`pair_job`]) — with stable descriptors shared across experiments:
//! Fig. 7 reads Fig. 6's cells, Fig. 4's zero-loss row is Fig. 3's 375 KB
//! row, and Fig. 6 and Fig. 19 reuse each other's "primary alone"
//! baselines.

use proteus_netsim::{run, FlowSpec, LinkSpec, Scenario, SimResult};
use proteus_runner::{payload, Campaign, CampaignOpts, SimJob};
use proteus_transport::{Dur, Time};

use crate::mi_trace::TraceSink;
use crate::protocols::cc;
use crate::report::results_dir;
use crate::RunCfg;

/// Measurement window: the last 2/3 of a run (skipping convergence).
pub fn tail_window(secs: f64) -> (Time, Time) {
    (Time::from_secs_f64(secs / 3.0), Time::from_secs_f64(secs))
}

/// Mean goodput of flow `idx` over the tail window, Mbps.
pub fn tail_mbps(res: &SimResult, idx: usize, secs: f64) -> f64 {
    let (a, b) = tail_window(secs);
    res.flows[idx].throughput_mbps(a, b)
}

/// Builds a [`Campaign`] wired to the invocation's `--jobs`/`--no-cache`
/// knobs. The result cache lives under `results/.cache/`; each run appends
/// its accounting line to `results/campaigns.jsonl` (the machine-readable
/// perf trajectory).
pub fn campaign(name: &str, cfg: RunCfg) -> Campaign {
    Campaign::new(
        name,
        CampaignOpts {
            jobs: cfg.jobs,
            cache: cfg.cache.then(|| results_dir().join(".cache")),
            summary: Some(results_dir().join("campaigns.jsonl")),
            shard: cfg.shard,
        },
    )
}

/// Stable cache tag for a clean dumbbell link. Links with noise models
/// (WiFi paths) must use a caller-provided tag that pins the path identity
/// instead.
pub fn link_tag(link: &LinkSpec) -> String {
    format!(
        "bw={:?},rtt={:?}ms,buf={},loss={:?}",
        link.bandwidth_mbps,
        link.rtt.as_secs_f64() * 1e3,
        link.buffer_bytes,
        link.random_loss
    )
}

// ---------------------------------------------------------------------------
// Scenario builders
// ---------------------------------------------------------------------------

fn single_scenario(name: &'static str, link: LinkSpec, secs: f64, seed: u64) -> Scenario {
    Scenario::new(link, Dur::from_secs_f64(secs))
        .flow(FlowSpec::bulk(name, Dur::ZERO, move || {
            cc(name, seed ^ 0xA5)
        }))
        .with_seed(seed)
        .with_rtt_stride(2)
}

/// `primary` from 0 against `scavenger` from 5 s; flow 0 is the primary.
pub(crate) fn pair_scenario(
    primary: &'static str,
    scavenger: &'static str,
    link: LinkSpec,
    secs: f64,
    seed: u64,
) -> Scenario {
    Scenario::new(link, Dur::from_secs_f64(secs))
        .flow(FlowSpec::bulk(primary, Dur::ZERO, move || {
            cc(primary, seed ^ 0xA5)
        }))
        .flow(FlowSpec::bulk(scavenger, Dur::from_secs(5), move || {
            cc(scavenger, seed ^ 0x5A)
        }))
        .with_seed(seed)
        .with_rtt_stride(2)
}

// ---------------------------------------------------------------------------
// Campaign jobs
// ---------------------------------------------------------------------------

/// The one way a simulation cell becomes a campaign job, traced when
/// `traced` is set (`--trace`). `build()` returns the scenario
/// together with the reader that reduces its result to the payload floats.
/// Both run inside the job, so the reader may hold state the build created,
/// such as `Rc` stats handles. `stem` is the descriptor up to the trace suffix and version;
/// `name` names the trace files under `exp` and the job's progress line.
pub(crate) fn scenario_job<R>(
    exp: &'static str,
    stem: String,
    name: String,
    traced: bool,
    build: impl FnOnce() -> (Scenario, R) + Send + 'static,
) -> SimJob
where
    R: FnOnce(&SimResult) -> Vec<f64>,
{
    // Traced and untraced runs are simulated identically, but they get
    // distinct cache identities so enabling --trace actually (re)writes
    // the exports instead of short-circuiting on a cached payload. (Every
    // trace file is additionally declared as a cache artifact, so even a
    // warm hit replays it from the cache.)
    let mut descriptor = stem;
    if traced {
        // The suffix of the telemetry-and-decisions selection this flag
        // replaced, kept so a cache traced before it still replays.
        descriptor.push_str("/trace/mi-trace=both");
    }
    descriptor.push_str("/v1");
    let sink = traced.then(|| TraceSink::new(exp, &name));
    let artifacts = sink.as_ref().map(TraceSink::paths);
    let mut job = SimJob::new(descriptor, name, move || {
        let (sc, read) = build();
        let res = match &sink {
            None => run(sc),
            Some(sink) => {
                let res = run(sc.with_trace());
                // Tracing must never fail an experiment.
                let _ = sink.write(&res);
                res
            }
        };
        payload::encode_floats(&read(&res))
    });
    for path in artifacts.into_iter().flatten() {
        job = job.with_artifact(path);
    }
    job
}

/// A payload's p95 RTT, or `fallback` when the job recorded the `0.0`
/// "unmeasured" sentinel (the flow took no RTT sample).
pub fn p95_or(p95_rtt_s: f64, fallback: f64) -> f64 {
    if p95_rtt_s > 0.0 {
        p95_rtt_s
    } else {
        fallback
    }
}

/// Decoded [`single_job`] payload.
#[derive(Debug, Clone, Copy)]
pub struct SingleOut {
    /// Tail-window goodput, Mbps.
    pub tail_mbps: f64,
    /// 95th-percentile RTT, seconds (0 when unmeasured, see [`p95_or`]).
    pub p95_rtt_s: f64,
    /// Sender-observed loss rate.
    pub loss_rate: f64,
}

/// Decodes a [`single_job`] payload.
pub fn decode_single(payload_text: &str) -> SingleOut {
    let v = payload::decode_floats(payload_text);
    SingleOut {
        tail_mbps: v[0],
        p95_rtt_s: v[1],
        loss_rate: v[2],
    }
}

/// One bulk flow of `proto` on `link`: payload
/// `[tail_mbps, p95_rtt_s, loss_rate]` (see [`decode_single`]).
///
/// `tag` must fully identify the link (use [`link_tag`] for clean links);
/// it is part of the cache descriptor shared across experiments.
pub fn single_job(
    exp: &'static str,
    tag: &str,
    proto: &'static str,
    link: LinkSpec,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    scenario_job(
        exp,
        format!("single/{tag}/proto={proto}/secs={secs:?}/seed={seed}"),
        format!("single-{tag}-{proto}-s{seed}"),
        traced,
        move || {
            (
                single_scenario(proto, link, secs, seed),
                move |res: &SimResult| {
                    vec![
                        tail_mbps(res, 0, secs),
                        res.flows[0].rtt_percentile(95.0).unwrap_or(0.0),
                        res.flows[0].loss_rate(),
                    ]
                },
            )
        },
    )
}

/// Decoded [`pair_job`] payload.
#[derive(Debug, Clone, Copy)]
pub struct PairOut {
    /// Primary's tail-window goodput, Mbps.
    pub primary_mbps: f64,
    /// Scavenger's tail-window goodput, Mbps.
    pub scav_mbps: f64,
    /// Primary's 95th-percentile RTT over the whole run, seconds (0 when
    /// unmeasured, see [`p95_or`]).
    pub p95_rtt_s: f64,
}

/// Decodes a [`pair_job`] payload.
pub fn decode_pair(payload_text: &str) -> PairOut {
    let v = payload::decode_floats(payload_text);
    PairOut {
        primary_mbps: v[0],
        scav_mbps: v[1],
        p95_rtt_s: v[2],
    }
}

/// `primary` vs `scavenger` (starting 5 s later) on `link`: payload
/// `[primary_mbps, scav_mbps, primary_p95_rtt_s]` (see [`decode_pair`]).
#[allow(clippy::too_many_arguments)]
pub fn pair_job(
    exp: &'static str,
    tag: &str,
    primary: &'static str,
    scavenger: &'static str,
    link: LinkSpec,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    scenario_job(
        exp,
        format!("pair/{tag}/primary={primary}/scav={scavenger}/secs={secs:?}/seed={seed}"),
        format!("pair-{tag}-{primary}-vs-{scavenger}-s{seed}"),
        traced,
        move || {
            (
                pair_scenario(primary, scavenger, link, secs, seed),
                move |res: &SimResult| pair_payload(res, secs),
            )
        },
    )
}

/// The [`pair_job`] payload of a `secs`-long run whose flow 0 is the
/// primary and flow 1 the scavenger (see [`decode_pair`]).
pub(crate) fn pair_payload(res: &SimResult, secs: f64) -> Vec<f64> {
    vec![
        tail_mbps(res, 0, secs),
        tail_mbps(res, 1, secs),
        res.flows[0].rtt_percentile(95.0).unwrap_or(0.0),
    ]
}

/// Runs the job `make` builds traced and returns the contents of its
/// declared artifacts in declaration order (decision JSONL, Chrome trace,
/// telemetry), removing each file once read. Decision exports go to a
/// per-process temporary directory; telemetry lands under
/// `results/trace/`, which git ignores.
#[cfg(test)]
pub(crate) fn traced_artifacts(make: impl FnOnce(bool) -> SimJob) -> Vec<String> {
    crate::mi_trace::set_mi_trace_dir(
        std::env::temp_dir().join(format!("proteus-bench-trace-mi-{}", std::process::id())),
    );
    let job = make(true);
    let paths = job.artifacts().to_vec();
    job.execute();
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            let _ = std::fs::remove_file(path);
            // The directories go too, once empty.
            for dir in path.ancestors().skip(1).take(2) {
                let _ = std::fs::remove_dir(dir);
            }
            text
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runner_produces_throughput() {
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let res = run(single_scenario("CUBIC", link, 10.0, 3));
        assert!(tail_mbps(&res, 0, 10.0) > 15.0);
    }

    #[test]
    fn pair_runner_orders_flows() {
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let res = run(pair_scenario("CUBIC", "LEDBAT", link, 15.0, 3));
        assert_eq!(res.flows[0].name, "CUBIC");
        assert_eq!(res.flows[1].name, "LEDBAT");
        assert!(res.flows[1].started_at.unwrap() > res.flows[0].started_at.unwrap());
    }

    #[test]
    fn single_job_matches_direct_run() {
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let job = single_job("test", &link_tag(&link), "CUBIC", link, 10.0, 3, false);
        let out = decode_single(&job.execute());
        let direct = run(single_scenario("CUBIC", link, 10.0, 3));
        assert_eq!(out.tail_mbps, tail_mbps(&direct, 0, 10.0));
        assert_eq!(out.p95_rtt_s, direct.flows[0].rtt_percentile(95.0).unwrap());
    }

    #[test]
    fn pair_job_matches_direct_run() {
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let tag = link_tag(&link);
        let job = pair_job("test", &tag, "CUBIC", "LEDBAT", link, 12.0, 3, false);
        let out = decode_pair(&job.execute());
        let direct = run(pair_scenario("CUBIC", "LEDBAT", link, 12.0, 3));
        assert_eq!(out.primary_mbps, tail_mbps(&direct, 0, 12.0));
        assert_eq!(out.scav_mbps, tail_mbps(&direct, 1, 12.0));
        let p95 = direct.flows[0].rtt_percentile(95.0).unwrap();
        assert_eq!(p95_or(out.p95_rtt_s, 0.030), p95);
        // The unmeasured sentinel maps back to the caller's fallback.
        assert_eq!(p95_or(0.0, 0.030), 0.030);
    }

    #[test]
    fn job_descriptors_are_stable_identities() {
        let link = LinkSpec::new(50.0, Dur::from_millis(30), 375_000);
        let tag = link_tag(&link);
        let a = single_job("x", &tag, "BBR", link, 30.0, 7, false);
        let b = single_job("y", &tag, "BBR", link, 30.0, 7, false);
        // Same cell from different experiments shares one cache identity.
        assert_eq!(a.key(), b.key());
        // A traced run gets its own identity and declares every file it
        // writes as an artifact, telemetry last.
        let t = single_job("x", &tag, "BBR", link, 30.0, 7, true);
        assert_ne!(a.key(), t.key());
        assert_eq!(a.artifacts().len(), 0);
        assert_eq!(t.artifacts().len(), 3);
        assert!(t.artifacts()[2].starts_with(results_dir().join("trace").join("x")));
        // The traced identity, literally, as a traced cache of the
        // telemetry-and-decisions flags holds it.
        let quick = single_job("x", &tag, "BBR", link, 20.0, 1, true);
        assert_eq!(
            quick.descriptor(),
            "single/bw=50.0,rtt=30.0ms,buf=375000,loss=0.0/proto=BBR/secs=20.0/seed=1\
             /trace/mi-trace=both/v1"
        );
        assert_eq!(quick.key().hex(), "2c78b343ac562f78");
    }

    #[test]
    fn traced_controllers_do_not_change_results() {
        // Decision recording is an observer: a traced run (whose senders the
        // engine swaps for their RingSink twins) is byte-identical to the
        // untraced run.
        let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
        let scenario = || pair_scenario("Proteus-P", "Proteus-S", link, 12.0, 3);
        let plain = run(scenario());
        let traced = run(scenario().with_trace());
        assert_eq!(
            tail_mbps(&plain, 0, 12.0),
            tail_mbps(&traced, 0, 12.0),
            "primary goodput differs under tracing"
        );
        assert_eq!(tail_mbps(&plain, 1, 12.0), tail_mbps(&traced, 1, 12.0));
        assert!(plain.decisions.is_empty());
        for flow in 0..2 {
            assert!(
                traced.decisions.iter().any(|fe| fe.flow == flow
                    && matches!(fe.event.kind, proteus_trace::EventKind::MiClose(_))),
                "traced run recorded no MI closes for flow {flow}"
            );
        }
    }

    #[test]
    fn link_tag_distinguishes_links() {
        let a = link_tag(&LinkSpec::new(50.0, Dur::from_millis(30), 375_000));
        let b = link_tag(&LinkSpec::new(50.0, Dur::from_millis(30), 75_000));
        let c =
            link_tag(&LinkSpec::new(50.0, Dur::from_millis(30), 375_000).with_random_loss(0.01));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
