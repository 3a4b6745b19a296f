//! Workspace-level integration tests exercising the crates' public APIs
//! together — simulator + baselines + Proteus + apps — in the paper's
//! scenarios.

use proteus_apps::video::{corpus_1080p, VideoSession};
use proteus_apps::WebWorkload;
use proteus_baselines::{Bbr, Cubic, Ledbat};
use proteus_bench::tail_mbps;
use proteus_core::{solve_equilibrium, GameParams, ProteusSender, SenderKind, SharedThreshold};
use proteus_netsim::{run, FlowSpec, LinkSpec, NoiseConfig, Scenario};
use proteus_stats::jain_index;
use proteus_transport::{Application, Dur};

fn paper_link() -> LinkSpec {
    LinkSpec::new(50.0, Dur::from_millis(30), 375_000)
}

#[test]
fn the_headline_scenario() {
    // Proteus-S yields to BBR where LEDBAT starves it.
    let run_with = |scav: fn() -> Box<dyn proteus_transport::CongestionControl>| {
        let sc = Scenario::new(paper_link(), Dur::from_secs(45))
            .flow(FlowSpec::bulk("bbr", Dur::ZERO, || Box::new(Bbr::new())))
            .flow(FlowSpec::bulk("scav", Dur::from_secs(5), scav))
            .with_seed(11);
        let res = run(sc);
        tail_mbps(&res, 0, 45.0)
    };
    let with_proteus = run_with(|| Box::new(ProteusSender::scavenger(9)));
    let with_ledbat = run_with(|| Box::new(Ledbat::new()));
    assert!(
        with_proteus > 2.5 * with_ledbat,
        "BBR kept {with_proteus} vs {with_ledbat}"
    );
}

#[test]
fn theory_and_simulation_agree_on_yielding() {
    // The Appendix-A model predicts the scavenger's equilibrium share
    // against a primary; the simulator should land in the same regime
    // (scavenger ≪ primary, link still full).
    let params = GameParams::paper_defaults(50.0);
    let eq = solve_equilibrium(&params, &[SenderKind::Primary, SenderKind::Scavenger]);
    let predicted_share = eq.rates[1] / eq.total();

    let sc = Scenario::new(paper_link(), Dur::from_secs(60))
        .flow(FlowSpec::bulk("p", Dur::ZERO, || {
            Box::new(ProteusSender::primary(3))
        }))
        .flow(FlowSpec::bulk("s", Dur::from_secs(5), || {
            Box::new(ProteusSender::scavenger(9))
        }))
        .with_seed(11);
    let res = run(sc);
    let p = tail_mbps(&res, 0, 60.0);
    let s = tail_mbps(&res, 1, 60.0);
    let measured_share = s / (p + s);

    assert!(predicted_share < 0.2, "theory: {predicted_share}");
    assert!(measured_share < 0.35, "simulation: {measured_share}");
    assert!(p + s > 40.0, "utilization collapsed: {}", p + s);
}

#[test]
fn scavengers_fill_idle_capacity() {
    // Performance goal: two Proteus-S flows alone share fairly and use the
    // link.
    let sc = Scenario::new(paper_link(), Dur::from_secs(60))
        .flow(FlowSpec::bulk("a", Dur::ZERO, || {
            Box::new(ProteusSender::scavenger(3))
        }))
        .flow(FlowSpec::bulk("b", Dur::from_secs(10), || {
            Box::new(ProteusSender::scavenger(9))
        }))
        .with_seed(11);
    let res = run(sc);
    let a = tail_mbps(&res, 0, 60.0);
    let b = tail_mbps(&res, 1, 60.0);
    assert!(a + b > 38.0, "joint = {}", a + b);
    assert!(jain_index(&[a, b]).unwrap() > 0.85, "{a} vs {b}");
}

#[test]
fn video_session_over_hybrid_transport() {
    let spec = corpus_1080p(1, 5)[0].clone();
    let threshold = SharedThreshold::new(f64::INFINITY);
    let session = VideoSession::new(spec, Some(threshold.clone()));
    let stats = session.stats_handle();
    let cell = std::cell::RefCell::new(Some(session));
    let th = threshold.clone();
    let mut sc = Scenario::new(paper_link(), Dur::from_secs(90)).with_seed(11);
    sc.flows.push(FlowSpec {
        name: "video".into(),
        start: Dur::ZERO,
        stop: None,
        cc: Box::new(move || Box::new(ProteusSender::hybrid(1, th))),
        app: Box::new(move || {
            Box::new(cell.borrow_mut().take().expect("single use")) as Box<dyn Application>
        }),
        reliable: true,
        path: None,
    });
    run(sc);
    let s = stats.borrow();
    assert!(s.chunk_bitrates.len() > 20);
    assert!(s.rebuffer_ratio < 0.05, "rebuffer = {}", s.rebuffer_ratio);
    // The cross-layer policy must have moved the threshold off ∞.
    assert!(threshold.get().is_finite());
}

#[test]
fn web_pages_complete_with_background_scavenger() {
    let workload = WebWorkload {
        duration: Dur::from_secs(60),
        arrivals_per_sec: 0.2,
        ..WebWorkload::default()
    };
    let pages = workload.generate(3);
    assert!(!pages.is_empty());
    let mut sc = Scenario::new(
        LinkSpec::new(100.0, Dur::from_millis(30), 750_000),
        Dur::from_secs(120),
    )
    .with_seed(11);
    for (i, p) in pages.iter().enumerate() {
        sc = sc.flow(FlowSpec::sized(
            format!("page-{i}"),
            p.start,
            p.bytes,
            move || Box::new(Cubic::new()),
        ));
    }
    sc = sc.flow(FlowSpec::bulk("scav", Dur::ZERO, || {
        Box::new(ProteusSender::scavenger(9))
    }));
    let res = run(sc);
    let done = res
        .flows
        .iter()
        .filter(|f| f.name.starts_with("page-"))
        .filter(|f| f.completion_time().is_some())
        .count();
    assert_eq!(done, pages.len(), "all pages should finish");
}

#[test]
fn proteus_survives_wifi_noise() {
    let link =
        LinkSpec::new(30.0, Dur::from_millis(40), 300_000).with_noise(NoiseConfig::wifi_default());
    let sc = Scenario::new(link, Dur::from_secs(45))
        .flow(FlowSpec::bulk("s", Dur::ZERO, || {
            Box::new(ProteusSender::scavenger(3))
        }))
        .with_seed(11);
    let res = run(sc);
    let thpt = tail_mbps(&res, 0, 45.0);
    // Noise tolerance keeps the scavenger productive on a noisy idle link.
    assert!(thpt > 18.0, "Proteus-S on WiFi = {thpt}");
}
