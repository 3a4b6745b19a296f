//! `rtc`: the real-time media campaign — a frame-paced interactive call
//! (Cross over a [`MediaSource`]) alone and against each background
//! protocol, with latency-SLO invariants and a generated `results/rtc/`
//! report.
//!
//! The paper's scavenger contract is only ever evaluated against bulk
//! primaries; this campaign asks the question users actually care about:
//! *does Proteus-S stay out of a video call's way better than LEDBAT
//! does?* The call is a 30 fps source on a WebRTC-ish bitrate ladder
//! (SCENARIOS.md "Media sources"), congestion-controlled by the
//! delay-gradient Cross baseline, measured by the per-frame latency
//! metrics (p95/p99 completion delay, freezes, time-in-freeze).
//!
//! Cells: {clean, faulted, two_hop} × {alone, +Proteus-S, +LEDBAT,
//! +CUBIC}. Invariants:
//!
//! * **progress** — the call completes most of its frames and moves bytes
//!   over the tail on every cell (background traffic may degrade, it must
//!   not wedge the call);
//! * **clean-slo** — alone on a clean path the call never freezes and its
//!   p95 frame delay sits inside the playout deadline;
//! * **scavenger-harm** — with Proteus-S underneath, the call's p95 frame
//!   delay stays within [`HARM_X`]× (+[`HARM_SLACK_S`]) of its alone-run
//!   on the *same* profile (floored at the blackout length on the faulted
//!   one) — the headline scavenger-vs-interactive bound;
//! * **finite** — every reported metric is finite.
//!
//! The harm table carries the LEDBAT and CUBIC columns next to Proteus-S,
//! so the measured harm ordering is one `results/rtc/harm.csv` away.
//! Reports land in `results/rtc/`; the campaign is deterministic, so two
//! runs (at any worker count) produce byte-identical reports.

use proteus_apps::{MediaSource, MediaSpec};
use proteus_netsim::{FaultSchedule, FlowSpec, LinkSpec, Scenario, SimResult, Topology};
use proteus_transport::Dur;

use proteus_runner::{payload, SimJob};

use crate::invariants::{finish, Check, Layout, Outcome};
use crate::jobs::{campaign, scenario_job, tail_mbps};
use crate::protocols::cc;
use crate::report::{f2, Table};
use crate::RunCfg;

/// The path profiles of the RTC matrix, in report order.
pub const PROFILES: &[&str] = &["clean", "faulted", "two_hop"];

/// Background traffic per cell; `"alone"` is the control column.
pub const COMPANIONS: &[&str] = &["alone", "Proteus-S", "LEDBAT", "CUBIC"];

/// Scavenger-harm bound: with Proteus-S underneath, p95 frame delay may
/// reach at most `HARM_X × reference + HARM_SLACK_S`, where the reference
/// is the alone-run p95 on the same profile, floored at the profile's
/// intrinsic delay scale (the blackout length on the faulted profile — a
/// 2 s outage forces a 2 s frame backlog on *any* controller, and at full
/// fidelity those frames are too few to register in the alone-run p95, so
/// a pure ratio would misread inevitable backlog as scavenger harm).
pub const HARM_X: f64 = 2.0;
/// Additive slack of the scavenger-harm bound, seconds (absorbs the
/// near-zero alone-run baselines where a ratio alone is meaningless).
pub const HARM_SLACK_S: f64 = 0.030;

/// Minimum fraction of nominal frames the call must complete per cell.
const MIN_FRAMES_FRACTION: f64 = 0.5;

/// Blackout length of the faulted profile, seconds — also the intrinsic
/// delay scale the harm invariant floors its reference at there.
const FAULTED_OUTAGE_S: f64 = 2.0;

/// The faulted profile: a mid-run blackout plus a lasting capacity drop —
/// 50 → 12.5 Mbit/s still leaves ~5× the ladder's top rung, so the call
/// must recover. Pure: `secs` fully determines the schedule.
fn faulted_schedule(secs: f64) -> FaultSchedule {
    FaultSchedule::new()
        .outage(
            Dur::from_secs_f64(secs * 0.35),
            Dur::from_secs_f64(FAULTED_OUTAGE_S),
        )
        .bandwidth_step(Dur::from_secs_f64(secs * 0.6), 12.5)
}

/// The two-hop profile: the paper-default path split across two equal
/// bottlenecks (15 ms each); every flow traverses both.
fn two_hop_chain() -> Topology {
    Topology::chain(vec![
        LinkSpec::new(50.0, Dur::from_millis(15), 375_000),
        LinkSpec::new(50.0, Dur::from_millis(15), 375_000),
    ])
}

/// Builds one cell's scenario: the RTC call from t = 0, the companion (if
/// any) from t = 5 s.
fn rtc_scenario(
    profile: &'static str,
    companion: Option<&'static str>,
    secs: f64,
    seed: u64,
) -> Scenario {
    let duration = Dur::from_secs_f64(secs);
    let mut sc = match profile {
        "two_hop" => Scenario::over(two_hop_chain(), duration),
        "clean" | "faulted" => Scenario::new(LinkSpec::paper_default(), duration),
        other => panic!("unknown rtc profile {other}"),
    }
    .with_seed(seed)
    .with_rtt_stride(2);
    if profile == "faulted" {
        sc = sc.with_faults(faulted_schedule(secs));
    }
    // Frame-size jitter draws from the source's private stream, so the
    // media seed only has to be stable — not coordinated with the sim RNG.
    let spec = MediaSpec {
        seed: seed ^ 0x4EC,
        ..MediaSpec::default()
    };
    sc = sc.flow(
        FlowSpec::bulk("RTC", Dur::ZERO, move || cc("Cross", seed ^ 0xC1))
            .with_app(move || Box::new(MediaSource::new(spec)))
            .with_reliability(true),
    );
    if let Some(comp) = companion {
        sc = sc.flow(FlowSpec::bulk(comp, Dur::from_secs(5), move || {
            cc(comp, seed ^ 0xC2)
        }));
    }
    sc
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// Decoded rtc payload: everything the tables and invariants consume.
#[derive(Debug, Clone, Copy)]
pub struct RtcCellOut {
    /// The call's tail-window goodput, Mbps.
    pub rtc_mbps: f64,
    /// 95th / 99th percentile frame completion delay, seconds.
    pub p95_frame_s: f64,
    /// 99th percentile frame completion delay, seconds.
    pub p99_frame_s: f64,
    /// Completed frames that missed the playout deadline.
    pub freezes: u64,
    /// Seconds spent beyond frame deadlines, summed.
    pub time_in_freeze_s: f64,
    /// Frames encoded / fully acknowledged / unfinished at run end.
    pub frames_generated: u64,
    /// Frames fully acknowledged.
    pub frames_completed: u64,
    /// Frames unfinished at run end.
    pub frames_pending: u64,
    /// Companion's tail-window goodput, Mbps (0 in alone cells).
    pub companion_mbps: f64,
    /// The call's 95th-percentile RTT, seconds.
    pub p95_rtt_s: f64,
}

fn decode_cell(payload_text: &str) -> RtcCellOut {
    let v = payload::decode_floats(payload_text);
    RtcCellOut {
        rtc_mbps: v[0],
        p95_frame_s: v[1],
        p99_frame_s: v[2],
        freezes: v[3] as u64,
        time_in_freeze_s: v[4],
        frames_generated: v[5] as u64,
        frames_completed: v[6] as u64,
        frames_pending: v[7] as u64,
        companion_mbps: v[8],
        p95_rtt_s: v[9],
    }
}

/// The payload of a `secs`-long cell (see [`decode_cell`]).
fn cell_floats(res: &SimResult, has_companion: bool, secs: f64) -> Vec<f64> {
    let m = res.flows[0]
        .media()
        .expect("RTC flow carries media metrics");
    vec![
        tail_mbps(res, 0, secs),
        m.frame_delay_percentile(95.0).unwrap_or(0.0),
        m.frame_delay_percentile(99.0).unwrap_or(0.0),
        m.freeze_count() as f64,
        m.time_in_freeze(),
        m.frames_generated() as f64,
        m.frames_completed() as f64,
        m.frames_pending() as f64,
        if has_companion {
            tail_mbps(res, 1, secs)
        } else {
            0.0
        },
        res.flows[0].rtt_percentile(95.0).unwrap_or(0.0),
    ]
}

fn rtc_job(
    profile: &'static str,
    companion: &'static str,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    let comp = (companion != "alone").then_some(companion);
    scenario_job(
        "rtc",
        format!("rtc/profile={profile}/companion={companion}/secs={secs:?}/seed={seed}"),
        format!("{profile}-{companion}-s{seed}"),
        traced,
        move || {
            let sc = rtc_scenario(profile, comp, secs, seed);
            (sc, move |res: &SimResult| {
                cell_floats(res, comp.is_some(), secs)
            })
        },
    )
}

/// p95 inflation of a companioned cell over the alone run, as `"x.xx"`.
fn inflation(cell: &RtcCellOut, alone: &RtcCellOut) -> f64 {
    cell.p95_frame_s / alone.p95_frame_s.max(1e-6)
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// Runs the RTC campaign and returns both the rendered report and the
/// machine-checkable invariant verdicts.
pub fn run_with_outcome(cfg: RunCfg) -> Outcome {
    let secs = if cfg.quick { 24.0 } else { 60.0 };
    let nominal_frames = secs * MediaSpec::default().fps;

    let mut camp = campaign("rtc", cfg);
    let mut slots: Vec<Vec<usize>> = Vec::new(); // [profile][companion]
    for &profile in PROFILES {
        slots.push(
            COMPANIONS
                .iter()
                .map(|&comp| camp.push_dedup(rtc_job(profile, comp, secs, cfg.seed, cfg.trace)))
                .collect(),
        );
    }
    let result = camp.run();

    // ---- Measurement matrix. ----
    let mut matrix = Table::new(
        "RTC matrix: the call's latency SLO per profile and companion",
        &[
            "profile",
            "companion",
            "rtc_mbps",
            "p95_frame_ms",
            "p99_frame_ms",
            "freezes",
            "freeze_s",
            "frames",
            "companion_mbps",
        ],
    );
    let mut harm = Table::new(
        "Scavenger harm to the call: p95 frame delay vs the alone run",
        &[
            "profile",
            "alone_ms",
            "proteus_s_ms",
            "ledbat_ms",
            "cubic_ms",
            "proteus_s_x",
            "ledbat_x",
            "cubic_x",
        ],
    );
    let mut checks: Vec<Check> = Vec::new();
    for (fi, &profile) in PROFILES.iter().enumerate() {
        let cells: Vec<RtcCellOut> = slots[fi]
            .iter()
            .map(|&s| decode_cell(&result.outputs[s]))
            .collect();
        for (ci, &comp) in COMPANIONS.iter().enumerate() {
            let o = &cells[ci];
            matrix.row(vec![
                profile.into(),
                comp.into(),
                f2(o.rtc_mbps),
                f2(o.p95_frame_s * 1e3),
                f2(o.p99_frame_s * 1e3),
                format!("{}", o.freezes),
                f2(o.time_in_freeze_s),
                format!("{}/{}", o.frames_completed, o.frames_generated),
                f2(o.companion_mbps),
            ]);

            let subject = if comp == "alone" {
                "RTC alone".to_string()
            } else {
                format!("RTC vs {comp}")
            };
            let finite = o.rtc_mbps.is_finite()
                && o.p95_frame_s.is_finite()
                && o.p99_frame_s.is_finite()
                && o.time_in_freeze_s.is_finite();
            let mut check = |name, value, pass| {
                checks.push(Check::new([profile, &subject], name, value, pass));
            };
            check("finite", if finite { 0.0 } else { 1.0 }, finite);
            // The call must keep running everywhere: most frames complete
            // and bytes still move over the tail.
            let frac = o.frames_completed as f64 / nominal_frames;
            check(
                "progress",
                frac,
                frac >= MIN_FRAMES_FRACTION && o.rtc_mbps > 0.05,
            );
        }

        let alone = &cells[0];
        let scav = &cells[1];
        let ledbat = &cells[2];
        let cubic = &cells[3];
        harm.row(vec![
            profile.into(),
            f2(alone.p95_frame_s * 1e3),
            f2(scav.p95_frame_s * 1e3),
            f2(ledbat.p95_frame_s * 1e3),
            f2(cubic.p95_frame_s * 1e3),
            f2(inflation(scav, alone)),
            f2(inflation(ledbat, alone)),
            f2(inflation(cubic, alone)),
        ]);

        if profile == "clean" {
            checks.push(Check::new(
                [profile, "RTC alone"],
                "clean-slo",
                alone.p95_frame_s,
                alone.freezes == 0
                    && alone.p95_frame_s <= MediaSpec::default().deadline.as_secs_f64(),
            ));
        }
        // The headline bound: Proteus-S underneath may not blow up the
        // call's p95 frame delay relative to its alone run on the same
        // profile.
        let reference = if profile == "faulted" {
            alone.p95_frame_s.max(FAULTED_OUTAGE_S)
        } else {
            alone.p95_frame_s
        };
        let bound = HARM_X * reference + HARM_SLACK_S;
        checks.push(Check::new(
            [profile, "RTC vs Proteus-S"],
            "scavenger-harm",
            scav.p95_frame_s,
            scav.p95_frame_s <= bound,
        ));
    }

    finish(
        &Layout {
            campaign: "rtc",
            report_file: "report.txt",
            body: &[(&matrix, Some("matrix.csv")), (&harm, Some("harm.csv"))],
            invariants_title: "Invariants: the call's latency SLO under background traffic",
            scope_headers: &["profile", "subject"],
        },
        checks,
    )
}

/// Registry entry point: runs the campaign and returns the report.
pub fn run_experiment(cfg: RunCfg) -> String {
    run_with_outcome(cfg).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::traced_artifacts;

    #[test]
    fn rtc_jobs_have_distinct_identities() {
        let off = false;
        let a = rtc_job("clean", "alone", 24.0, 1, off);
        let b = rtc_job("clean", "Proteus-S", 24.0, 1, off);
        let c = rtc_job("faulted", "alone", 24.0, 1, off);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(b.key(), c.key());
        // The cache identity, literally, as the parent commit wrote it.
        assert_eq!(
            b.descriptor(),
            "rtc/profile=clean/companion=Proteus-S/secs=24.0/seed=1/v1"
        );
        assert_eq!(b.key().hex(), "7e66a2253ed2b30d");
    }

    #[test]
    fn cell_records_requested_traces() {
        // 8 s rather than 4: the companion joins at 5 s.
        let files = traced_artifacts(|traced| rtc_job("clean", "Proteus-S", 8.0, 1, traced));
        assert_eq!(
            files.len(),
            3,
            "decision JSONL + Chrome trace + telemetry JSONL"
        );
        let (decisions, telemetry) = (&files[0], &files[2]);
        assert!(!telemetry.is_empty(), "no telemetry recorded");
        assert!(
            decisions
                .lines()
                .any(|l| l.contains("\"name\":\"Proteus-S\"")
                    && l.contains("\"event\":\"mi_close\"")),
            "the Proteus-S flow recorded no MI close"
        );
    }

    #[test]
    #[should_panic]
    fn unknown_profile_panics() {
        let _ = proteus_netsim::run(rtc_scenario("gremlins", None, 1.0, 1));
    }

    #[test]
    fn faulted_schedule_is_nonempty_and_scaled() {
        assert!(!faulted_schedule(24.0).is_empty());
    }
}
