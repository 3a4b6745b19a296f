//! The four invariant campaigns — `stress`, `scale`, `topology`, `rtc` —
//! each deterministic across worker counts, invariant-clean, and pinned
//! against a committed golden report.
//!
//! For `scale` this is the population-scale determinism guarantee for the
//! timing-wheel scheduler + SoA flow table: the quick churn cell turns over
//! ~1k flows (250 warm-start + 50/s Poisson arrivals), and its report —
//! every per-class throughput figure derived from every ACK of every flow —
//! differs between worker counts if churn flow naming or RNG streams are
//! not deterministic.
//!
//! `PROTEUS_RESULTS_DIR` is process-global, so the campaign tests serialize
//! on `common::in_results_dir`'s lock. The pure ACK-compression test at the
//! bottom touches no environment and runs concurrently.

mod common;

use std::path::PathBuf;

use proteus_bench::experiments::{rtc, scale, stress, topology};
use proteus_bench::invariants::Outcome;
use proteus_bench::RunCfg;

/// Campaign, its entry point, and the report files the docs promise under
/// `results/<campaign>/`.
type Campaign = (&'static str, fn(RunCfg) -> Outcome, &'static [&'static str]);
const CAMPAIGNS: [Campaign; 4] = [
    (
        "stress",
        stress::run_with_outcome,
        &["robustness.txt", "invariants.csv"],
    ),
    (
        "scale",
        scale::run_with_outcome,
        &["scale.txt", "cells.csv", "invariants.csv"],
    ),
    (
        "topology",
        topology::run_with_outcome,
        &["report.txt", "invariants.csv"],
    ),
    (
        "rtc",
        rtc::run_with_outcome,
        &["report.txt", "harm.csv", "invariants.csv"],
    ),
];

/// Runs the quick campaign twice (single-threaded, then on 4 workers) and
/// checks: byte-identical reports, all invariants pass, the promised files
/// exist, and the report matches `results/golden/<name>_quick.txt`
/// (re-blessed under `PROTEUS_BLESS=1`; then also regenerate
/// `results/<name>/` with `repro --no-cache <name>`).
fn check_campaign(name: &str) {
    let &(_, run, files) = CAMPAIGNS
        .iter()
        .find(|c| c.0 == name)
        .expect("a campaign of the table");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("campaign_{name}"));
    // No cache: both runs must actually simulate, or the byte-identity
    // check would just compare a cache entry with itself.
    let cfg = RunCfg {
        cache: false,
        ..RunCfg::quick()
    };
    let (serial, parallel) =
        common::in_results_dir(&scratch, || (run(cfg), run(RunCfg { jobs: 4, ..cfg })));

    assert_eq!(
        serial.report, parallel.report,
        "{name} report differs between --jobs 1 and --jobs 4 runs"
    );
    assert!(
        serial.all_pass(),
        "{name} invariants failed:\n{:#?}",
        serial.failures()
    );
    for file in files {
        assert!(
            scratch.join(name).join(file).is_file(),
            "{name} did not write {file}"
        );
    }
    common::check_or_bless(
        &format!("{name}_quick.txt"),
        &serial.report,
        "campaign_invariants",
    );
}

#[test]
fn stress_campaign() {
    check_campaign("stress");
}

#[test]
fn scale_campaign() {
    check_campaign("scale");
}

#[test]
fn topology_campaign() {
    check_campaign("topology");
}

#[test]
fn rtc_campaign() {
    check_campaign("rtc");
}

/// The pathology→mechanism link the campaign's `ack-filter-trips` invariant
/// summarizes, asserted directly on trace events: injected ACK compression
/// makes the §5 per-ACK burst filter start dropping RTT samples.
#[test]
fn ack_compression_trips_the_per_ack_filter() {
    use proteus_bench::cc;
    use proteus_netsim::{run, AckCompression, FaultSchedule, FlowSpec, LinkSpec, Scenario};
    use proteus_trace::EventKind;
    use proteus_transport::Dur;

    let mk = |faults: FaultSchedule| {
        run(Scenario::new(LinkSpec::paper_default(), Dur::from_secs(20))
            .flow(FlowSpec::bulk("Proteus-P", Dur::ZERO, || {
                cc("Proteus-P", 9)
            }))
            .with_seed(9)
            .with_trace(Dur::from_millis(100))
            .with_faults(faults))
    };
    let trips = |res: &proteus_netsim::SimResult| {
        res.decisions
            .iter()
            .filter(|fe| matches!(fe.event.kind, EventKind::AckFilter(a) if a.dropping))
            .count()
    };

    let clean = mk(FaultSchedule::new());
    let compressed = mk(FaultSchedule::new().with_ack_compression(AckCompression {
        every: Dur::from_secs(2),
        hold: Dur::from_millis(60),
    }));

    assert!(compressed.links[0].fault_stats.compressed_acks > 100);
    assert!(
        trips(&compressed) >= 1,
        "ACK compression did not trip the §5 per-ACK filter; decisions: {} events",
        compressed.decisions.len()
    );
    // The filter engages *because of* the injected pathology: the same
    // run without faults stays quiet.
    assert_eq!(trips(&clean), 0, "filter tripped on a clean path");
}
