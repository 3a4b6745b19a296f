//! The metric registry: every name the benchmark can print, with its unit,
//! its direction, and the workloads that exercise the layer it measures.
//!
//! `BENCHMARK.json` lists the same names (a test holds the two equal).
//! A workload's report carries a layer metric only when the workload
//! exercises that layer; it is never zero-filled.

use crate::Kind::{self, *};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the repository waits for or pays.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Median wall-clock seconds of one timed pass, corrected for how disturbed
/// the host was while the pass ran (see [`crate::yardstick`]).
pub const WALL_S: EndToEnd = EndToEnd {
    name: "wall_s",
    unit: "s",
    bound: 0.25,
};
/// `VmHWM` of the one-workload process after its last timed pass.
pub const PEAK_RSS_MIB: EndToEnd = EndToEnd {
    name: "peak_rss_mib",
    unit: "MiB",
    bound: 0.20,
};
/// Input generation, scratch directory and the untimed first pass,
/// corrected like `wall_s`.
pub const SETUP_S: EndToEnd = EndToEnd {
    name: "setup_s",
    unit: "s",
    bound: 0.25,
};

/// The three end-to-end metrics; all lower-is-better, all on every workload.
pub const END_TO_END: [EndToEnd; 3] = [WALL_S, PEAK_RSS_MIB, SETUP_S];

/// A per-layer metric.
#[derive(Debug, Clone)]
pub struct Layer {
    /// `<crate>.<what>`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads that exercise the layer and so emit the metric.
    pub on: &'static [Kind],
}

const SIM: &[Kind] = &[CleanDumbbell, ImpairedMultihop, ChurnPopulation];
const CLEAN: &[Kind] = &[CleanDumbbell];
const IMPAIRED: &[Kind] = &[ImpairedMultihop];
const CAMPAIGN: &[Kind] = &[CampaignReplay];
const ALL: &[Kind] = &[
    CleanDumbbell,
    ImpairedMultihop,
    ChurnPopulation,
    CampaignReplay,
];

/// Controllers with an isolated per-ACK probe, by crate.
pub const CORE_PROBES: [&str; 3] = ["Proteus-S", "Proteus-P", "Proteus-H"];
/// Baseline controllers with an isolated per-ACK probe.
pub const BASELINE_PROBES: [&str; 6] = ["CUBIC", "BBR", "BBR-S", "COPA", "LEDBAT", "Cross"];

/// Every per-layer metric, in report order.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut v: Vec<Layer> = Vec::new();
    let mut add = |name: &str, unit, better, on| {
        v.push(Layer {
            name: name.to_string(),
            unit,
            better,
            on,
        })
    };

    // netsim: spans, exact counts, derived rates, allocator.
    add("netsim.new_s", "s", Lower, SIM);
    add("netsim.run_s", "s", Lower, SIM);
    add("netsim.read_s", "s", Lower, SIM);
    add("netsim.run_self_s", "s", Lower, SIM);
    add("netsim.pkts", "count", Higher, SIM);
    add("netsim.events", "count", Lower, SIM);
    add("netsim.flows", "count", Higher, SIM);
    add("netsim.events_per_pkt", "ratio", Lower, SIM);
    add("netsim.sched.pushes_per_pkt", "ratio", Lower, SIM);
    add("netsim.sched.peak_queue", "count", Lower, SIM);
    add("netsim.fused_share", "ratio", Higher, SIM);
    add("netsim.link.drop_share", "ratio", Lower, SIM);
    add("netsim.link.utilization", "ratio", Higher, SIM);
    add("netsim.flow.loss_share", "ratio", Lower, SIM);
    add("netsim.fault.injected", "count", Higher, IMPAIRED);
    add("netsim.ns_per_pkt", "ns", Lower, SIM);
    add("netsim.events_per_s", "1/s", Higher, SIM);
    add("netsim.sim_s_per_wall_s", "ratio", Higher, SIM);
    add("netsim.cell_wall_ms.p50", "ms", Lower, SIM);
    add("netsim.cell_wall_ms.max", "ms", Lower, SIM);
    add("netsim.run.allocs_per_pkt", "ratio", Lower, SIM);
    add("netsim.run.alloc_bytes_per_pkt", "B", Lower, SIM);
    add("netsim.new.allocs_per_flow", "ratio", Lower, SIM);

    // core and baselines: decorators in every simulation, probes in one.
    for layer in ["core", "baselines"] {
        add(&format!("{layer}.cc.calls"), "count", Lower, SIM);
        add(&format!("{layer}.cc.busy_s"), "s", Lower, SIM);
        add(&format!("{layer}.cc.ns_per_call"), "ns", Lower, SIM);
        add(&format!("{layer}.cc.share"), "ratio", Lower, SIM);
    }
    for proto in CORE_PROBES {
        add(&format!("core.per_ack_ns.{proto}"), "ns", Lower, CLEAN);
    }
    add("core.utility.ns_per_eval", "ns", Lower, CLEAN);
    add("core.allocs_per_ack", "ratio", Lower, CLEAN);
    for proto in BASELINE_PROBES {
        add(&format!("baselines.per_ack_ns.{proto}"), "ns", Lower, CLEAN);
    }

    // transport, stats, trace: probes only.
    add("transport.mi.ns_per_pkt", "ns", Lower, CLEAN);
    add("stats.percentile.ns_per_sample", "ns", Lower, CLEAN);
    add("stats.regression.ns_per_add", "ns", Lower, CLEAN);
    add("trace.ring.ns_per_event", "ns", Lower, CLEAN);
    add("trace.per_ack_overhead_share", "ratio", Lower, CLEAN);

    // apps: the media cell.
    add("apps.calls", "count", Lower, IMPAIRED);
    add("apps.busy_s", "s", Lower, IMPAIRED);
    add("apps.share", "ratio", Lower, IMPAIRED);
    add("apps.media.frames", "count", Higher, IMPAIRED);

    // runner and tune: session statistics plus probes.
    add("runner.jobs_total", "count", Lower, CAMPAIGN);
    add("runner.jobs_executed.cold", "count", Lower, CAMPAIGN);
    add("runner.cache.hit_share.warm", "ratio", Higher, CAMPAIGN);
    add("runner.replay_s", "s", Lower, CAMPAIGN);
    add("runner.hash.ns_per_key", "ns", Lower, CAMPAIGN);
    add("runner.cache.get_us", "us", Lower, CAMPAIGN);
    add("runner.cache.put_us", "us", Lower, CAMPAIGN);
    add("runner.pool.speedup_jobs2", "ratio", Higher, CAMPAIGN);
    add("tune.jobs", "count", Lower, CAMPAIGN);
    add("tune.cache_hit_share.warm", "ratio", Higher, CAMPAIGN);

    // bench: one cold and one warm span per experiment.
    for id in EXPERIMENT_IDS {
        add(
            &format!("bench.experiment.{id}.cold_s"),
            "s",
            Lower,
            CAMPAIGN,
        );
        add(
            &format!("bench.experiment.{id}.warm_s"),
            "s",
            Lower,
            CAMPAIGN,
        );
    }
    add("bench.warm.uncached_share", "ratio", Lower, CAMPAIGN);
    add("bench.report.render_us", "us", Lower, CAMPAIGN);

    // The benchmark's own instruments.
    add("benchmark.timer_ns", "ns", Lower, SIM);
    add("benchmark.trace_overhead_share", "ratio", Lower, ALL);
    add("benchmark.host_slowdown", "ratio", Lower, ALL);
    v
}

/// The ids `proteus_bench::experiments::registry()` lists, in its order. A
/// test holds this equal to the registry; metric names must be known
/// without running it.
pub const EXPERIMENT_IDS: [&str; 20] = [
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11", "fig12", "fig13",
    "fig14", "appB", "ablation", "theory", "stress", "scale", "topology", "rtc", "tune",
];

/// Whether `name` is made of the characters a metric name may use.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_valid_unique_and_within_the_cap() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        for name in layers
            .iter()
            .map(|l| l.name.as_str())
            .chain(END_TO_END.iter().map(|e| e.name))
        {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name.to_string()), "duplicate metric {name}");
        }
        assert!(layers.iter().all(|l| !l.on.is_empty()));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        assert!(END_TO_END.iter().all(|e| e.bound <= SETUP_S.bound));
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
    }

    #[test]
    fn experiment_ids_match_the_registry() {
        let ids: Vec<&str> = proteus_bench::experiments::registry()
            .iter()
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, EXPERIMENT_IDS);
    }
}
