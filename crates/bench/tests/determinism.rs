//! Campaign determinism and cache behaviour, end to end with real
//! simulation jobs.
//!
//! The runner's contract is that results are a pure function of the job
//! set: the same campaign must produce byte-identical reports whether it
//! runs on one worker or eight, and a warm cache must short-circuit every
//! simulation.

use std::fs;
use std::path::PathBuf;

use proteus_bench::experiments::video_util::VideoTransport;
use proteus_bench::experiments::{fig12, fig14, fig2};
use proteus_bench::jobs::{decode_single, link_tag, pair_job, single_job, Traces};
use proteus_bench::report::Table;
use proteus_netsim::LinkSpec;
use proteus_runner::{Campaign, CampaignOpts, JobKey, SimJob};
use proteus_transport::Dur;

/// A small but real job grid: 2 links × 2 single flows + 2 pairs.
fn job_grid(seed: u64) -> Vec<SimJob> {
    let links = [
        LinkSpec::new(20.0, Dur::from_millis(20), 100_000),
        LinkSpec::new(50.0, Dur::from_millis(30), 75_000),
    ];
    let mut jobs = Vec::new();
    for link in links {
        let tag = link_tag(&link);
        for proto in ["CUBIC", "BBR"] {
            jobs.push(single_job(
                "det",
                &tag,
                proto,
                link,
                8.0,
                seed,
                Traces::off(),
            ));
        }
        jobs.push(pair_job(
            "det",
            &tag,
            "CUBIC",
            "LEDBAT",
            link,
            12.0,
            seed,
            Traces::off(),
        ));
    }
    jobs
}

/// The job kinds with experiment-specific payloads: Fig. 2's per-window
/// sample sets, Fig. 12/13's streaming trial (whose `Rc<RefCell<_>>` video
/// stats handles live and die inside the job closure) and Fig. 14's binned
/// timeline. Short horizons; two of each so workers interleave them.
fn figure_job_grid(seed: u64) -> Vec<SimJob> {
    let link = LinkSpec::new(20.0, Dur::from_millis(20), 100_000);
    vec![
        fig2::probe_job(9.0, 6.0, seed),
        fig12::streaming_job(100.0, VideoTransport::Hybrid, false, 8.0, seed),
        fig14::timeline_job("BBR", "BBR-S", link, 20.0, seed, Traces::off()),
        fig2::probe_job(0.0, 6.0, seed + 1),
        fig12::streaming_job(100.0, VideoTransport::Primary, true, 8.0, seed),
        fig14::timeline_job("CUBIC", "BBR-S", link, 20.0, seed, Traces::off()),
    ]
}

/// Runs `jobs` on `workers` threads (no cache) and returns
/// `(keys, outputs)` in submission order.
fn run_jobs(workers: usize, jobs: Vec<SimJob>) -> (Vec<JobKey>, Vec<String>) {
    let mut camp = Campaign::new(
        "determinism",
        CampaignOpts {
            jobs: workers,
            ..CampaignOpts::default()
        },
    );
    let mut keys = Vec::new();
    for job in jobs {
        keys.push(job.key());
        camp.push(job);
    }
    (keys, camp.run().outputs)
}

fn run_grid(workers: usize, seed: u64) -> (Vec<JobKey>, Vec<String>) {
    run_jobs(workers, job_grid(seed))
}

/// Renders the single-flow outputs as the kind of CSV report the
/// experiments write.
fn csv_report(outputs: &[String]) -> String {
    let mut t = Table::new("determinism", &["job", "tail_mbps", "p95_rtt_s", "loss"]);
    for (i, out) in outputs.iter().enumerate().filter(|(i, _)| i % 3 != 2) {
        let s = decode_single(out);
        t.row(vec![
            i.to_string(),
            format!("{:?}", s.tail_mbps),
            format!("{:?}", s.p95_rtt_s),
            format!("{:?}", s.loss_rate),
        ]);
    }
    t.to_csv()
}

#[test]
fn parallel_campaign_matches_serial_bit_for_bit() {
    let (keys1, out1) = run_grid(1, 42);
    let (keys8, out8) = run_grid(8, 42);

    // Identical cache keys, independent of worker count.
    assert_eq!(keys1, keys8);
    // Byte-identical payloads, in submission order.
    assert_eq!(out1, out8);
    // And therefore byte-identical CSV reports.
    assert_eq!(csv_report(&out1), csv_report(&out8));
}

#[test]
fn figure_jobs_match_serial_bit_for_bit() {
    let (keys1, out1) = run_jobs(1, figure_job_grid(42));
    let (keys4, out4) = run_jobs(4, figure_job_grid(42));
    assert_eq!(keys1, keys4);
    assert_eq!(out1, out4);
    // Real payloads, not six empty strings agreeing with each other.
    assert!(out1.iter().all(|o| o.split_whitespace().count() >= 4));
}

#[test]
fn warm_cache_skips_every_simulation() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "det-cache-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = fs::remove_dir_all(&dir);

    let opts = || CampaignOpts {
        jobs: 2,
        cache: Some(dir.clone()),
        ..CampaignOpts::default()
    };

    let mut cold = Campaign::new("warm", opts());
    for job in job_grid(7) {
        cold.push(job);
    }
    let n = cold.len();
    let cold = cold.run();
    assert_eq!(cold.stats.executed, n);
    assert_eq!(cold.stats.cached, 0);

    let mut warm = Campaign::new("warm", opts());
    for job in job_grid(7) {
        warm.push(job);
    }
    let warm = warm.run();
    assert_eq!(
        warm.stats.executed, 0,
        "warm cache must skip all simulation"
    );
    assert_eq!(warm.stats.cached, n);
    assert_eq!(warm.outputs, cold.outputs);

    let _ = fs::remove_dir_all(&dir);
}
