//! `stress`: the robustness campaign — fault profiles × protocols, with an
//! invariant checker and a generated `results/stress/` report.
//!
//! The paper's §5 noise-tolerance mechanisms are motivated by pathologies
//! (ACK compression, latency spikes, bursty loss) that the clean dumbbell
//! experiments never exercise. This campaign injects each pathology
//! deliberately via netsim's `FaultSchedule` (see `SCENARIOS.md`) and checks
//! that every protocol's *qualitative* contract survives:
//!
//! * **finite-utility** — no NaN/∞ ever reaches a utility value or a traced
//!   sending rate, on any profile;
//! * **rate-bounded** — PCC-family pacing stays within its configured bounds
//!   (`min_rate_mbps` from below, a generous multiple of the nominal link
//!   rate from above), even while the path misbehaves;
//! * **progress** — every flow still moves bytes over the measurement tail
//!   (faults degrade, they must not wedge);
//! * **scavenger-yields** — CUBIC competing with Proteus-S keeps ≥ 70% of
//!   the throughput it gets alone on the *same* faulty path (the yielding
//!   property is not a fair-weather behaviour);
//! * **ack-filter-trips** — under the ACK-compression profile the §5 per-ACK
//!   burst filter actually starts dropping samples (trace events
//!   `ack_filter dropping:true`), i.e. the defence the paper designed for
//!   this pathology engages.
//!
//! The matrix runs {Proteus-P, Proteus-S, CUBIC, BBR} alone on every
//! profile, plus a CUBIC-vs-Proteus-S pair per profile. Reports land in
//! `results/stress/robustness.txt` (+ CSVs); the whole campaign is
//! deterministic, so two runs produce byte-identical reports.

use proteus_netsim::{
    AckCompression, FaultSchedule, FlowSpec, GilbertElliott, LinkSpec, ReorderConfig, Scenario,
    SimResult,
};
use proteus_trace::EventKind;
use proteus_transport::Dur;

use proteus_runner::{payload, SimJob};

use crate::invariants::{finish, Check, Layout, Outcome};
use crate::jobs::{campaign, scenario_job, tail_mbps};
use crate::protocols::cc;
use crate::report::{f2, Table};
use crate::RunCfg;

/// The fault profiles of the robustness matrix, in report order.
pub const PROFILES: &[&str] = &[
    "clean",
    "flap",
    "bw_step",
    "route_change",
    "burst_loss",
    "reorder",
    "ack_comp",
];

/// The protocols stressed alone on every profile.
pub const PROTOCOLS: &[&str] = &["Proteus-P", "Proteus-S", "CUBIC", "BBR"];

/// Ceiling for any traced sending rate, as a multiple of the nominal link
/// rate. Generous on purpose: slow-start overshoot is legitimate, a rate
/// that runs away by an order of magnitude beyond this is a bug.
const RATE_CAP_X: f64 = 16.0;

/// The Proteus rate floor (`ProteusConfig::min_rate_mbps`), Mbit/s.
const MIN_RATE_MBPS: f64 = 0.10;

/// Builds the named fault profile, scaled to a `secs`-second run on the
/// paper-default link. Pure: `(name, secs)` fully determines the schedule.
///
/// # Panics
/// Panics on an unknown profile name.
pub fn profile_schedule(name: &str, secs: f64) -> FaultSchedule {
    let at = |frac: f64| Dur::from_secs_f64(secs * frac);
    match name {
        // No faults: the control row every invariant must also hold on.
        "clean" => FaultSchedule::new(),
        // The link drops out for 400 ms, three times, starting mid-run.
        "flap" => FaultSchedule::new().flapping(
            at(0.4),
            Dur::from_millis(400),
            Dur::from_secs_f64(secs * 0.12),
            3,
        ),
        // Capacity collapses 50 -> 12.5 Mbps and stays there.
        "bw_step" => FaultSchedule::new().bandwidth_step(at(0.4), 12.5),
        // A route change triples the base RTT (30 ms -> 90 ms).
        "route_change" => FaultSchedule::new().rtt_step(at(0.4), Dur::from_millis(90)),
        // Gilbert-Elliott bursty loss: rare episodes, 30% loss inside one.
        "burst_loss" => FaultSchedule::new().with_burst_loss(GilbertElliott {
            p_enter: 0.001,
            p_exit: 0.05,
            loss_good: 0.0,
            loss_bad: 0.3,
        }),
        // 1% of packets delayed by up to 10 ms past their FIFO slot.
        "reorder" => FaultSchedule::new().with_reorder(ReorderConfig {
            prob: 0.01,
            max_extra: Dur::from_millis(10),
        }),
        // Every ~2 s the reverse path batches ACKs for 60 ms — the >50x
        // inter-ACK collapse the §5 per-ACK filter exists for.
        "ack_comp" => FaultSchedule::new().with_ack_compression(AckCompression {
            every: Dur::from_secs(2),
            hold: Dur::from_millis(60),
        }),
        other => panic!("unknown stress profile {other}"),
    }
}

// ---------------------------------------------------------------------------
// Per-run derived measurements (computed inside the job, cached as payload)
// ---------------------------------------------------------------------------

/// Count of non-finite values anywhere a utility or rate is reported:
/// telemetry samples and traced MI closes.
fn non_finite_count(res: &SimResult) -> u64 {
    let mut n = 0;
    for e in &res.trace {
        if e.utility.is_some_and(|u| !u.is_finite()) {
            n += 1;
        }
        if e.rate_mbps.is_some_and(|r| !r.is_finite()) {
            n += 1;
        }
    }
    for fe in &res.decisions {
        if let EventKind::MiClose(m) = fe.event.kind {
            if !m.utility.is_finite() || !m.rate_mbps.is_finite() {
                n += 1;
            }
        }
    }
    n
}

/// (max, min) traced sending rate across telemetry samples and MI closes,
/// Mbit/s. Returns `(0, +inf)` when nothing reported a rate (pure
/// window-based senders).
fn rate_envelope(res: &SimResult) -> (f64, f64) {
    let mut max = 0.0_f64;
    let mut min = f64::INFINITY;
    for e in &res.trace {
        if let Some(r) = e.rate_mbps {
            max = max.max(r);
            min = min.min(r);
        }
    }
    for fe in &res.decisions {
        if let EventKind::MiClose(m) = fe.event.kind {
            max = max.max(m.rate_mbps);
            min = min.min(m.rate_mbps);
        }
    }
    (max, min)
}

/// Number of §5 per-ACK filter episodes that *started* (dropping=true).
fn ack_filter_trips(res: &SimResult) -> u64 {
    res.decisions
        .iter()
        .filter(|fe| matches!(fe.event.kind, EventKind::AckFilter(a) if a.dropping))
        .count() as u64
}

/// Decoded stress-single payload.
#[derive(Debug, Clone, Copy)]
pub struct StressSingleOut {
    /// Tail-window goodput, Mbps.
    pub tail_mbps: f64,
    /// 95th-percentile RTT, seconds.
    pub p95_rtt_s: f64,
    /// Sender-observed loss rate.
    pub loss_rate: f64,
    /// Maximum traced sending rate, Mbps (0 when untraced).
    pub max_rate_mbps: f64,
    /// Minimum traced sending rate, Mbps (+inf when untraced).
    pub min_rate_mbps: f64,
    /// Non-finite utility/rate values observed.
    pub non_finite: u64,
    /// §5 per-ACK filter episodes started.
    pub ack_filter_trips: u64,
}

fn decode_stress_single(payload_text: &str) -> StressSingleOut {
    let v = payload::decode_floats(payload_text);
    StressSingleOut {
        tail_mbps: v[0],
        p95_rtt_s: v[1],
        loss_rate: v[2],
        max_rate_mbps: v[3],
        min_rate_mbps: v[4],
        non_finite: v[5] as u64,
        ack_filter_trips: v[6] as u64,
    }
}

/// Decoded stress-pair payload.
#[derive(Debug, Clone, Copy)]
pub struct StressPairOut {
    /// Primary's tail goodput, Mbps.
    pub primary_mbps: f64,
    /// Scavenger's tail goodput, Mbps.
    pub scav_mbps: f64,
    /// Non-finite utility/rate values observed (either flow).
    pub non_finite: u64,
}

fn decode_stress_pair(payload_text: &str) -> StressPairOut {
    let v = payload::decode_floats(payload_text);
    StressPairOut {
        primary_mbps: v[0],
        scav_mbps: v[1],
        non_finite: v[2] as u64,
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

fn stress_scenario(
    profile: &str,
    flows: Vec<(&'static str, f64, u64)>, // (proto, start_s, salt)
    secs: f64,
    seed: u64,
) -> Scenario {
    let mut sc = Scenario::new(LinkSpec::paper_default(), Dur::from_secs_f64(secs))
        .with_seed(seed)
        .with_rtt_stride(2)
        // Always traced: the invariant checker reads the decisions.
        .with_trace()
        .with_faults(profile_schedule(profile, secs));
    for (proto, start, salt) in flows {
        sc = sc.flow(FlowSpec::bulk(
            proto,
            Dur::from_secs_f64(start),
            move || cc(proto, seed ^ salt),
        ));
    }
    sc
}

fn stress_single_job(
    profile: &'static str,
    proto: &'static str,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    scenario_job(
        "stress",
        format!("stress-single/profile={profile}/proto={proto}/secs={secs:?}/seed={seed}"),
        format!("stress-{profile}-{proto}-s{seed}"),
        traced,
        move || {
            let sc = stress_scenario(profile, vec![(proto, 0.0, 0xA5)], secs, seed);
            (sc, move |res: &SimResult| {
                let (max_rate, min_rate) = rate_envelope(res);
                vec![
                    tail_mbps(res, 0, secs),
                    res.flows[0].rtt_percentile(95.0).unwrap_or(0.0),
                    res.flows[0].loss_rate(),
                    max_rate,
                    min_rate,
                    non_finite_count(res) as f64,
                    ack_filter_trips(res) as f64,
                ]
            })
        },
    )
}

fn stress_pair_job(
    profile: &'static str,
    primary: &'static str,
    scavenger: &'static str,
    secs: f64,
    seed: u64,
    traced: bool,
) -> SimJob {
    scenario_job(
        "stress",
        format!(
            "stress-pair/profile={profile}/primary={primary}/scav={scavenger}/secs={secs:?}/seed={seed}"
        ),
        format!("stress-{profile}-{primary}-vs-{scavenger}-s{seed}"),
        traced,
        move || {
            let flows = vec![(primary, 0.0, 0xA5), (scavenger, 5.0, 0x5A)];
            (stress_scenario(profile, flows, secs, seed), move |res: &SimResult| {
                vec![
                    tail_mbps(res, 0, secs),
                    tail_mbps(res, 1, secs),
                    non_finite_count(res) as f64,
                ]
            })
        },
    )
}

// ---------------------------------------------------------------------------
// The experiment
// ---------------------------------------------------------------------------

/// Runs the robustness campaign and returns both the rendered report and
/// the machine-checkable invariant verdicts.
pub fn run_with_outcome(cfg: RunCfg) -> Outcome {
    let secs = if cfg.quick { 24.0 } else { 60.0 };
    let nominal_mbps = LinkSpec::paper_default().bandwidth_mbps;

    let mut camp = campaign("stress", cfg);
    let mut single_slots: Vec<Vec<usize>> = Vec::new(); // [profile][proto]
    let mut pair_slots: Vec<usize> = Vec::new(); // [profile]
    for &profile in PROFILES {
        single_slots.push(
            PROTOCOLS
                .iter()
                .map(|&proto| {
                    camp.push_dedup(stress_single_job(profile, proto, secs, cfg.seed, cfg.trace))
                })
                .collect(),
        );
        pair_slots.push(camp.push_dedup(stress_pair_job(
            profile,
            "CUBIC",
            "Proteus-S",
            secs,
            cfg.seed,
            cfg.trace,
        )));
    }
    let result = camp.run();

    // ---- Measurement table. ----
    let mut matrix = Table::new(
        "Stress matrix: tail goodput (Mbps) per fault profile",
        &[
            "profile",
            "Proteus-P",
            "Proteus-S",
            "CUBIC",
            "BBR",
            "CUBIC|Proteus-S",
        ],
    );
    let mut checks: Vec<Check> = Vec::new();
    for (fi, &profile) in PROFILES.iter().enumerate() {
        let singles: Vec<StressSingleOut> = single_slots[fi]
            .iter()
            .map(|&s| decode_stress_single(&result.outputs[s]))
            .collect();
        let pair = decode_stress_pair(&result.outputs[pair_slots[fi]]);
        let mut row = vec![profile.to_string()];
        row.extend(singles.iter().map(|o| f2(o.tail_mbps)));
        row.push(format!("{}|{}", f2(pair.primary_mbps), f2(pair.scav_mbps)));
        matrix.row(row);

        for (pi, &proto) in PROTOCOLS.iter().enumerate() {
            let o = &singles[pi];
            let mut check = |name, value, pass| {
                checks.push(Check::new([profile, proto], name, value, pass));
            };
            check("finite-utility", o.non_finite as f64, o.non_finite == 0);
            // The profile's own capacity floor: bw_step leaves 12.5 Mbps,
            // an outage-free tail still spans the flap windows — 0.5 Mbps
            // of progress just asserts "not wedged".
            check("progress", o.tail_mbps, o.tail_mbps > 0.5);
            // Rate bounds only bind where a rate is traced at all; the
            // PCC family additionally must respect its configured floor.
            if o.max_rate_mbps > 0.0 {
                let capped = o.max_rate_mbps <= RATE_CAP_X * nominal_mbps;
                let floored =
                    !proto.starts_with("Proteus") || o.min_rate_mbps >= MIN_RATE_MBPS * 0.999;
                check("rate-bounded", o.max_rate_mbps, capped && floored);
            }
            if profile == "ack_comp" && proto.starts_with("Proteus") {
                let trips = o.ack_filter_trips;
                check("ack-filter-trips", trips as f64, trips >= 1);
            }
        }
        // Yielding is judged the way the paper judges it (Fig. 6/10): the
        // primary keeps (almost) the throughput it had *alone on the same
        // faulty path*. A share-based check would wrongly fail profiles
        // where the fault itself cripples the primary (e.g. reordering
        // collapses CUBIC) and the scavenger correctly picks up capacity
        // the primary cannot use.
        let cubic_alone = singles[PROTOCOLS
            .iter()
            .position(|&p| p == "CUBIC")
            .expect("CUBIC is in the matrix")]
        .tail_mbps;
        let ratio = pair.primary_mbps / cubic_alone.max(1e-9);
        let mut check = |name, value, pass| {
            checks.push(Check::new(
                [profile, "CUBIC vs Proteus-S"],
                name,
                value,
                pass,
            ));
        };
        check("scavenger-yields", ratio, ratio >= 0.7);
        check(
            "finite-utility",
            pair.non_finite as f64,
            pair.non_finite == 0,
        );
    }

    // The robustness report gets its own directory, as promised by the
    // docs: results/stress/robustness.{txt,csv}.
    finish(
        &Layout {
            campaign: "stress",
            report_file: "robustness.txt",
            body: &[(&matrix, Some("matrix.csv"))],
            invariants_title: "Invariants: qualitative contracts under every fault profile",
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

    #[test]
    fn profiles_are_defined_and_clean_is_empty() {
        for &p in PROFILES {
            let s = profile_schedule(p, 24.0);
            assert_eq!(s.is_empty(), p == "clean", "{p}");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_profile_panics() {
        let _ = profile_schedule("gremlins", 24.0);
    }

    #[test]
    fn stress_jobs_have_distinct_identities() {
        let a = stress_single_job("flap", "CUBIC", 24.0, 1, false);
        let b = stress_single_job("bw_step", "CUBIC", 24.0, 1, false);
        let c = stress_single_job("flap", "BBR", 24.0, 1, false);
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        let p = stress_pair_job("flap", "CUBIC", "Proteus-S", 24.0, 1, false);
        assert_ne!(a.key(), p.key());
    }
}
