//! Topology conservation invariants: packets only cross links on their
//! flow's path, per-link delivered bytes respect the link's capacity, and
//! chained queues are monotone (a downstream hop can never accept more than
//! its upstream hop delivered). Deterministic cases pin each invariant on a
//! hand-built topology; a proptest sweeps random chains, subpaths and fault
//! placements, also asserting two-run digest determinism.

mod common;

use common::{digest, TestWindow};
use proptest::prelude::*;
use proteus_netsim::{
    run, FaultSchedule, FlowSpec, LinkId, LinkSpec, Scenario, SimResult, Topology,
};
use proteus_transport::Dur;

/// Per-link delivered bytes can never exceed the link's service capacity
/// over the run (one in-flight MTU of slack for the packet being served at
/// the horizon).
fn assert_capacity_bound(r: &SimResult, topo_links: &[LinkSpec], duration: Dur) {
    const MTU: u64 = 1500;
    for (i, l) in r.links.iter().enumerate() {
        let cap_bytes = topo_links[i].rate_bps() / 8.0 * duration.as_secs_f64();
        assert!(
            l.delivered_bytes as f64 <= cap_bytes + MTU as f64,
            "link {i} delivered {} bytes > capacity {cap_bytes}",
            l.delivered_bytes
        );
    }
}

/// Flows on disjoint paths never touch each other's links.
#[test]
fn disjoint_paths_do_not_cross() {
    // Three links; flow A rides link 0, flow B rides link 2, link 1 idles.
    let topo = Topology::chain(vec![
        LinkSpec::new(30.0, Dur::from_millis(20), 200_000),
        LinkSpec::new(30.0, Dur::from_millis(20), 200_000),
        LinkSpec::new(30.0, Dur::from_millis(20), 200_000),
    ]);
    let r = run(Scenario::over(topo, Dur::from_secs(5))
        .flow(
            FlowSpec::bulk("a", Dur::ZERO, || Box::new(TestWindow { cwnd: 100_000 }))
                .with_path([0]),
        )
        .flow(
            FlowSpec::bulk("b", Dur::ZERO, || Box::new(TestWindow { cwnd: 100_000 }))
                .with_path([2]),
        )
        .with_seed(21));
    assert!(r.links[0].delivered_bytes > 0, "flow a never used link 0");
    assert!(r.links[2].delivered_bytes > 0, "flow b never used link 2");
    assert_eq!(
        r.links[1].accepted_pkts, 0,
        "link 1 is on no flow's path but accepted packets"
    );
    assert_eq!(r.links[1].delivered_bytes, 0);
    assert_eq!(r.links[1].dropped_pkts, 0);
    assert_eq!(r.links[1].peak_queued_bytes, 0);
}

/// On a chain, hop i+1 can only be offered what hop i delivered: accepted
/// counts are monotone non-increasing along the path.
#[test]
fn chained_hops_are_monotone() {
    // A tight downstream buffer forces drops at hop 1, so the monotone
    // chain is exercised with real attrition.
    let topo = Topology::chain(vec![
        LinkSpec::new(50.0, Dur::from_millis(10), 375_000),
        LinkSpec::new(25.0, Dur::from_millis(10), 40_000),
        LinkSpec::new(25.0, Dur::from_millis(10), 150_000),
    ]);
    let duration = Dur::from_secs(5);
    let r = run(Scenario::over(topo.clone(), duration)
        .flow(FlowSpec::bulk("long", Dur::ZERO, || {
            Box::new(TestWindow { cwnd: 400_000 })
        }))
        .with_seed(8));
    for i in 0..r.links.len() - 1 {
        assert!(
            r.links[i + 1].accepted_pkts <= r.links[i].accepted_pkts,
            "hop {} accepted more than hop {} delivered",
            i + 1,
            i
        );
    }
    assert!(
        r.links[1].dropped_pkts > 0,
        "the tight mid-chain buffer should tail-drop"
    );
    assert_capacity_bound(&r, &topo.links, duration);
}

/// The parking-lot shape: N short flows each on one link, one long flow
/// across all of them. Every link carries the long flow plus its local
/// short flow; conservation holds per link.
#[test]
fn parking_lot_conserves_per_link() {
    let n = 3usize;
    let topo = Topology::parking_lot(n, LinkSpec::new(40.0, Dur::from_millis(10), 250_000));
    let duration = Dur::from_secs(5);
    let mut sc = Scenario::over(topo.clone(), duration).with_seed(13);
    sc = sc.flow(FlowSpec::bulk("long", Dur::ZERO, || {
        Box::new(TestWindow { cwnd: 300_000 })
    }));
    for i in 0..n {
        sc = sc.flow(
            FlowSpec::bulk("short", Dur::ZERO, || {
                Box::new(TestWindow { cwnd: 300_000 })
            })
            .with_path([i as LinkId]),
        );
    }
    let r = run(sc);
    for (i, l) in r.links.iter().enumerate() {
        assert!(l.delivered_bytes > 0, "parking-lot link {i} idle");
    }
    assert_capacity_bound(&r, &topo.links, duration);
    // Each link serves exactly two flows (long + local short), so each
    // link's delivered bytes must cover at least the long flow's acked
    // bytes (every acked byte crossed every link on the long path).
    let long_bytes = r.flows[0].bytes_acked;
    for (i, l) in r.links.iter().enumerate() {
        assert!(
            l.delivered_bytes >= long_bytes,
            "link {i} delivered less than the long flow alone"
        );
    }
}

/// Randomized chains: random link count, random contiguous subpaths,
/// optional mid-chain fault — capacity bounds hold on every link, links on
/// no path stay silent, and the run is two-run deterministic.
#[derive(Debug)]
struct RandTopo {
    n_links: usize,
    rates: Vec<f64>,
    flow_spans: Vec<(usize, usize)>, // (first hop, len)
    faulted_link: Option<usize>,
    seed: u64,
}

impl RandTopo {
    fn build(&self) -> (Scenario, Vec<LinkSpec>) {
        let links: Vec<LinkSpec> = self
            .rates
            .iter()
            .map(|&r| LinkSpec::new(r, Dur::from_millis(10), 150_000))
            .collect();
        let mut topo = Topology::chain(links.clone());
        if let Some(li) = self.faulted_link {
            topo = topo.with_faults(
                li as LinkId,
                FaultSchedule::new()
                    .bandwidth_step(Dur::from_millis(800), self.rates[li] * 0.5)
                    .outage(Dur::from_millis(1200), Dur::from_millis(100)),
            );
        }
        let mut sc = Scenario::over(topo, Dur::from_secs(2)).with_seed(self.seed);
        for (i, &(first, len)) in self.flow_spans.iter().enumerate() {
            let path: Vec<LinkId> = (first..first + len).map(|l| l as LinkId).collect();
            let cwnd = 60_000 + 30_000 * i as u64;
            sc = sc.flow(
                FlowSpec::bulk("f", Dur::from_millis(50 * i as u64), move || {
                    Box::new(TestWindow { cwnd })
                })
                .with_path(path),
            );
        }
        (sc, links)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_chains_conserve_and_are_deterministic(
        n_links in 1usize..5,
        rate_seed in 0u64..1000,
        n_flows in 1usize..4,
        span_seed in 0u64..1000,
        fault_on in any::<bool>(),
        fault_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        // Derive rates and spans from the seeds so the case shrinks well.
        let rates: Vec<f64> = (0..n_links)
            .map(|i| 15.0 + ((rate_seed >> (i * 8)) & 0xff) as f64 / 4.0)
            .collect();
        let flow_spans: Vec<(usize, usize)> = (0..n_flows)
            .map(|i| {
                let s = (span_seed >> (i * 10)) as usize;
                let first = s % n_links;
                let len = 1 + (s / n_links) % (n_links - first);
                (first, len)
            })
            .collect();
        let rt = RandTopo {
            n_links,
            rates,
            flow_spans,
            faulted_link: fault_on.then_some(fault_idx % n_links),
            seed,
        };
        let (sc, links) = rt.build();
        let r = run(sc);
        let duration = Dur::from_secs(2);

        // Capacity: no link delivers more than it can serve.
        const MTU: u64 = 1500;
        for (i, l) in r.links.iter().enumerate() {
            let cap = links[i].rate_bps() / 8.0 * duration.as_secs_f64();
            prop_assert!(
                l.delivered_bytes as f64 <= cap + MTU as f64,
                "link {} over capacity in {:?}", i, rt
            );
        }

        // Isolation: links on no flow's path stay untouched.
        let mut used = vec![false; rt.n_links];
        for &(first, len) in &rt.flow_spans {
            for u in used.iter_mut().skip(first).take(len) {
                *u = true;
            }
        }
        for (i, l) in r.links.iter().enumerate() {
            if !used[i] {
                prop_assert_eq!(l.accepted_pkts, 0, "unused link {} accepted in {:?}", i, rt);
                prop_assert_eq!(l.delivered_bytes, 0);
            }
        }

        // Determinism: an identical rebuild reproduces every byte.
        let (sc2, _) = rt.build();
        prop_assert_eq!(digest(&r), digest(&run(sc2)), "nondeterministic: {:?}", rt);
    }
}
