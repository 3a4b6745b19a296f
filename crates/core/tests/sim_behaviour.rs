//! End-to-end behaviour of Proteus through the dumbbell simulator: the
//! macroscopic properties §6 of the paper measures, at test-sized horizons.

use proteus_baselines::{Bbr, Copa, Cubic, Ledbat};
use proteus_core::{ProteusSender, SharedThreshold};
use proteus_netsim::{
    run, ChurnClass, ChurnSpec, CrossTrafficSpec, FlowSpec, LinkSpec, Scenario, SimResult,
};
use proteus_trace::EventKind;
use proteus_transport::{CongestionControl, Dur, Time};

fn paper_link(buffer: u64) -> LinkSpec {
    LinkSpec::new(50.0, Dur::from_millis(30), buffer)
}

fn mk_cc(name: &str, seed: u64) -> Box<dyn CongestionControl> {
    match name {
        "cubic" => Box::new(Cubic::new()),
        "bbr" => Box::new(Bbr::new()),
        "copa" => Box::new(Copa::new()),
        "proteus-p" => Box::new(ProteusSender::primary(seed)),
        "proteus-s" => Box::new(ProteusSender::scavenger(seed)),
        "vivace" => Box::new(ProteusSender::vivace(seed)),
        "ledbat" => Box::new(Ledbat::new()),
        other => panic!("unknown cc {other}"),
    }
}

fn single(name: &'static str, link: LinkSpec, secs: u64) -> SimResult {
    let sc = Scenario::new(link, Dur::from_secs(secs))
        .flow(FlowSpec::bulk(name, Dur::ZERO, move || mk_cc(name, 1)))
        .with_seed(11);
    run(sc)
}

/// Primary + scavenger competition; returns (primary Mbps, scavenger Mbps)
/// over the tail window.
fn compete(primary: &'static str, scavenger: &'static str, secs: u64) -> (f64, f64) {
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(secs))
        .flow(FlowSpec::bulk("primary", Dur::ZERO, move || {
            mk_cc(primary, 3)
        }))
        .flow(FlowSpec::bulk("scav", Dur::from_secs(5), move || {
            mk_cc(scavenger, 9)
        }))
        .with_seed(11);
    let res = run(sc);
    let from = Time::from_secs_f64(secs as f64 * 0.33);
    let to = Time::from_secs_f64(secs as f64);
    (
        res.flows[0].throughput_mbps(from, to),
        res.flows[1].throughput_mbps(from, to),
    )
}

fn tail_mbps(res: &SimResult, idx: usize, secs: u64) -> f64 {
    res.flows[idx].throughput_mbps(
        Time::from_secs_f64(secs as f64 * 0.33),
        Time::from_secs_f64(secs as f64),
    )
}

#[test]
fn proteus_p_saturates_with_low_latency() {
    let res = single("proteus-p", paper_link(375_000), 30);
    let thpt = tail_mbps(&res, 0, 30);
    assert!(thpt > 45.0, "Proteus-P throughput = {thpt}");
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    // 2-BDP buffer would allow 90 ms RTT; Proteus stays near base 30 ms.
    assert!(p95 < 0.040, "Proteus-P p95 RTT = {p95}");
}

#[test]
fn proteus_s_alone_behaves_like_a_primary() {
    // Performance goal (2): a scavenger alone looks like a normal
    // congestion controller.
    let res = single("proteus-s", paper_link(375_000), 30);
    let thpt = tail_mbps(&res, 0, 30);
    assert!(thpt > 43.0, "Proteus-S solo throughput = {thpt}");
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    assert!(p95 < 0.045, "Proteus-S p95 RTT = {p95}");
}

#[test]
fn proteus_saturates_shallow_buffer_where_ledbat_cannot() {
    // Fig. 3(a): Proteus needs a tiny buffer to reach 90 % utilization;
    // LEDBAT needs ~BDP.
    let shallow = paper_link(12_000); // 8 packets ≈ 0.06 BDP
    let p = tail_mbps(&single("proteus-p", shallow, 30), 0, 30);
    assert!(p > 42.0, "Proteus-P shallow-buffer throughput = {p}");
    let l = tail_mbps(&single("ledbat", shallow, 30), 0, 30);
    // LEDBAT degrades to a Reno-like sawtooth here; Proteus stays near
    // capacity. The paper reports a 32× buffer-size gap to reach 90 %.
    assert!(
        l < p - 2.0,
        "LEDBAT {l} should trail Proteus {p} at 8-pkt buffer"
    );
    assert!(l < 45.0, "LEDBAT should miss 90% utilization: {l}");
}

#[test]
fn vivace_baseline_saturates() {
    let res = single("vivace", paper_link(375_000), 30);
    let thpt = tail_mbps(&res, 0, 30);
    assert!(thpt > 44.0, "Vivace throughput = {thpt}");
}

#[test]
fn proteus_tolerates_design_point_random_loss() {
    // Fig. 4: c = 11.35 tolerates up to 5 % random loss.
    let lossy = paper_link(375_000).with_random_loss(0.03);
    let res = single("proteus-p", lossy, 30);
    let thpt = tail_mbps(&res, 0, 30);
    assert!(thpt > 35.0, "Proteus-P under 3% loss = {thpt}");
}

#[test]
fn proteus_s_yields_to_loss_based_primaries() {
    // Fig. 6(b): primary throughput ratio ≥ ~95 % for CUBIC and BBR.
    for primary in ["cubic", "bbr"] {
        let alone = tail_mbps(
            &single(
                Box::leak(primary.to_string().into_boxed_str()),
                paper_link(375_000),
                45,
            ),
            0,
            45,
        );
        let (p, s) = compete(
            Box::leak(primary.to_string().into_boxed_str()),
            "proteus-s",
            45,
        );
        let ratio = p / alone;
        assert!(
            ratio > 0.90,
            "{primary}: ratio = {ratio} ({p} vs alone {alone})"
        );
        // Secondary goal: total utilization stays high.
        assert!(p + s > 45.0, "{primary}: joint = {}", p + s);
    }
}

#[test]
fn proteus_s_yields_to_latency_aware_primaries() {
    // Fig. 6(b): COPA ≥ 87 %; Vivace somewhat lower but still high.
    let alone = tail_mbps(&single("copa", paper_link(375_000), 45), 0, 45);
    let (p, _s) = compete("copa", "proteus-s", 45);
    assert!(p / alone > 0.85, "COPA ratio = {}", p / alone);

    // Vivace has no adaptive noise tolerance, "and thus may tolerate less
    // RTT fluctuation" — the paper reports a visibly lower ratio here too.
    let alone = tail_mbps(&single("vivace", paper_link(375_000), 45), 0, 45);
    let (p, _s) = compete("vivace", "proteus-s", 45);
    assert!(p / alone > 0.55, "Vivace ratio = {}", p / alone);
}

#[test]
fn proteus_s_yields_far_better_than_ledbat() {
    // The paper's headline: against latency-aware primaries LEDBAT takes
    // most of the link, Proteus-S leaves it nearly untouched.
    for primary in ["bbr", "copa", "vivace"] {
        let name: &'static str = Box::leak(primary.to_string().into_boxed_str());
        let (p_scav, _) = compete(name, "proteus-s", 45);
        let (p_ledbat, _) = compete(name, "ledbat", 45);
        assert!(
            p_scav > 2.0 * p_ledbat,
            "{primary}: with Proteus-S {p_scav} vs with LEDBAT {p_ledbat}"
        );
    }
}

#[test]
fn ledbat_roughly_fair_shares_with_cubic_at_2bdp() {
    // Fig. 6(a): with a 375 KB buffer (< its 100 ms target) LEDBAT fails
    // to yield to CUBIC and approximately fair-shares.
    let (p, s) = compete("cubic", "ledbat", 45);
    assert!(
        s > 0.2 * p,
        "LEDBAT should not vanish: cubic {p}, ledbat {s}"
    );
    assert!(
        p > 0.5 * s,
        "CUBIC should not vanish: cubic {p}, ledbat {s}"
    );
}

#[test]
fn scavenger_keeps_primary_rtt_low() {
    // Fig. 7: a Proteus-S background flow leaves the primary's 95th-pct
    // RTT essentially unchanged.
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(45))
        .flow(FlowSpec::bulk("copa", Dur::ZERO, || mk_cc("copa", 3)))
        .flow(FlowSpec::bulk("scav", Dur::from_secs(5), || {
            mk_cc("proteus-s", 9)
        }))
        .with_seed(11);
    let res = run(sc);
    let p95 = res.flows[0].rtt_percentile(95.0).unwrap();
    let alone = single("copa", paper_link(375_000), 45);
    let p95_alone = alone.flows[0].rtt_percentile(95.0).unwrap();
    assert!(
        p95 < p95_alone * 1.5,
        "COPA p95 inflated: {p95} vs alone {p95_alone}"
    );
}

#[test]
fn two_proteus_p_flows_share_fairly() {
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk("a", Dur::ZERO, || mk_cc("proteus-p", 3)))
        .flow(FlowSpec::bulk("b", Dur::from_secs(10), || {
            mk_cc("proteus-p", 9)
        }))
        .with_seed(11);
    let res = run(sc);
    let a = tail_mbps(&res, 0, 60);
    let b = tail_mbps(&res, 1, 60);
    let jain = proteus_stats::jain_index(&[a, b]).unwrap();
    assert!(jain > 0.9, "Proteus-P fairness = {jain} ({a} vs {b})");
}

#[test]
fn two_proteus_s_flows_share_fairly() {
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(60))
        .flow(FlowSpec::bulk("a", Dur::ZERO, || mk_cc("proteus-s", 3)))
        .flow(FlowSpec::bulk("b", Dur::from_secs(10), || {
            mk_cc("proteus-s", 9)
        }))
        .with_seed(11);
    let res = run(sc);
    let a = tail_mbps(&res, 0, 60);
    let b = tail_mbps(&res, 1, 60);
    let jain = proteus_stats::jain_index(&[a, b]).unwrap();
    assert!(jain > 0.85, "Proteus-S fairness = {jain} ({a} vs {b})");
    assert!(a + b > 38.0, "Proteus-S joint utilization = {}", a + b);
}

#[test]
fn mid_flow_mode_switch_changes_behaviour() {
    // Flexibility goal: one flow switches Scavenger → Primary mid-run via
    // the shared-threshold hybrid (∞ = primary, 0 = scavenger), while a
    // CUBIC primary occupies the link.
    let th = SharedThreshold::new(0.0); // start as pure scavenger
    let th_flow = th.clone();
    let sc = Scenario::new(paper_link(375_000), Dur::from_secs(80))
        .flow(FlowSpec::bulk("proteus-p", Dur::ZERO, || {
            mk_cc("proteus-p", 3)
        }))
        .flow(FlowSpec::bulk("hybrid", Dur::from_secs(5), move || {
            Box::new(ProteusSender::hybrid(9, th_flow.clone()))
        }))
        .with_seed(11);
    // Flip the threshold to ∞ at t = 40 s via a timed flip below. The
    // simulator has no external hook, so emulate the cross-layer call by
    // flipping from an application model.
    struct Flipper {
        th: SharedThreshold,
        at: Time,
        done: bool,
    }
    impl proteus_transport::Application for Flipper {
        fn bytes_to_send(&mut self, _now: Time) -> u64 {
            u64::MAX
        }
        fn next_event(&self, _now: Time) -> Option<Time> {
            if self.done {
                None
            } else {
                Some(self.at)
            }
        }
        fn on_wakeup(&mut self, now: Time) {
            if now >= self.at && !self.done {
                self.th.set(f64::INFINITY);
                self.done = true;
            }
        }
    }
    let th_app = th.clone();
    let mut sc = sc;
    sc.flows[1].app = Box::new(move || {
        Box::new(Flipper {
            th: th_app.clone(),
            at: Time::from_secs_f64(40.0),
            done: false,
        })
    });
    let res = run(sc);
    // Scavenger phase: hybrid stays small. Primary phase: it claws back a
    // serious share from CUBIC.
    let h_scav = res.flows[1].throughput_mbps(Time::from_secs_f64(15.0), Time::from_secs_f64(40.0));
    let h_prim = res.flows[1].throughput_mbps(Time::from_secs_f64(55.0), Time::from_secs_f64(80.0));
    assert!(h_scav < 16.0, "hybrid should scavenge first: {h_scav}");
    assert!(
        h_prim > h_scav + 4.0,
        "hybrid should compete after the switch: {h_scav} -> {h_prim}"
    );
}

#[test]
fn deterministic_proteus_runs() {
    let mk = || {
        let sc = Scenario::new(paper_link(375_000), Dur::from_secs(20))
            .flow(FlowSpec::bulk("p", Dur::ZERO, || mk_cc("proteus-p", 3)))
            .flow(FlowSpec::bulk("s", Dur::from_secs(2), || {
                mk_cc("proteus-s", 9)
            }))
            .with_seed(77);
        run(sc)
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.flows[0].bytes_acked, b.flows[0].bytes_acked);
    assert_eq!(a.flows[1].bytes_acked, b.flows[1].bytes_acked);
}

/// A traced run records the decisions of every flow that has decision
/// points — explicit, churned and cross traffic alike, each spawned with
/// its recording twin — and an untraced run records none. Goodput is
/// bit-equal either way.
#[test]
fn a_traced_run_records_every_flow_kind() {
    let mk = || {
        Scenario::new(paper_link(375_000), Dur::from_secs(6))
            .flow(FlowSpec::bulk("explicit", Dur::ZERO, || {
                mk_cc("proteus-s", 1)
            }))
            .with_churn(
                ChurnSpec::new(
                    0.0,
                    Dur::from_secs(600),
                    vec![ChurnClass::new(
                        "churned",
                        1.0,
                        Box::new(|id| mk_cc("proteus-s", 10 + id as u64)),
                    )],
                )
                .with_initial(1),
            )
            .with_cross_traffic(CrossTrafficSpec {
                arrivals_per_sec: 2.0,
                size_range: (200_000, 400_000),
                cc: Box::new(|id| mk_cc("proteus-s", 20 + id as u64)),
                start: Dur::ZERO,
                stop: Dur::from_secs(3),
            })
            .with_seed(5)
    };
    let plain = run(mk());
    let traced = run(mk().with_trace(Dur::from_millis(100)));
    assert!(plain.decisions.is_empty());
    assert_eq!(plain.flows.len(), traced.flows.len());
    let end = Time::from_millis(6_000);
    for (a, b) in plain.flows.iter().zip(&traced.flows) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            a.throughput_mbps(Time::ZERO, end).to_bits(),
            b.throughput_mbps(Time::ZERO, end).to_bits(),
            "{} goodput differs under tracing",
            a.name
        );
    }
    for kind in ["explicit", "churned~", "cross-"] {
        assert!(
            traced.decisions.iter().any(|fe| {
                matches!(fe.event.kind, EventKind::MiClose(_))
                    && traced.flows[fe.flow as usize].name.starts_with(kind)
            }),
            "no MiClose from a {kind} flow"
        );
    }
}
