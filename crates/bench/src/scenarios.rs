//! The fixed evaluation scenarios a tuning run scores candidates on.
//!
//! Each [`EvalScenario`] is one primary/scavenger dumbbell cell: a real
//! primary (CUBIC or BBR) owns the link, the candidate scavenger joins a
//! quarter of the way in, and the objective compares the primary's goodput
//! against its solo baseline on the same link. Scenario sets are small on
//! purpose — every candidate is simulated on *every* scenario, so the set
//! size multiplies the search cost.

use proteus_core::ProteusSender;
use proteus_netsim::{FlowSpec, LinkSpec, Scenario};
use proteus_transport::Dur;

use crate::protocols::cc;
use crate::space::Candidate;

/// One evaluation cell: a link, a primary protocol and a horizon.
#[derive(Debug, Clone, Copy)]
pub struct EvalScenario {
    /// Short human-readable label used in reports.
    pub name: &'static str,
    /// Primary protocol, a [`cc`] registry name (`"CUBIC"` or `"BBR"` in the
    /// shipped sets).
    pub primary: &'static str,
    /// Bottleneck bandwidth, Mbps.
    pub bw_mbps: f64,
    /// Base RTT, milliseconds.
    pub rtt_ms: f64,
    /// Bottleneck buffer, BDPs.
    pub buffer_bdp: f64,
    /// Simulated horizon, seconds.
    pub secs: f64,
}

impl EvalScenario {
    /// The scenario's bottleneck link.
    pub fn link(&self) -> LinkSpec {
        LinkSpec::new(self.bw_mbps, Dur::from_secs_f64(self.rtt_ms / 1e3), 1)
            .with_buffer_bdp(self.buffer_bdp)
    }

    /// Stable cache tag pinning the link and the primary (the horizon is
    /// appended separately by the job descriptors).
    pub fn tag(&self) -> String {
        format!(
            "p={}/bw={:?}/rtt={:?}ms/bdp={:?}",
            self.primary, self.bw_mbps, self.rtt_ms, self.buffer_bdp
        )
    }

    /// The cell simulated at `seed`: the primary (flow 0) owns the link
    /// from the start; `candidate`, when given, joins as flow 1 a quarter
    /// into the horizon, so the primary's solo convergence and the
    /// contended tail are both visible in the tail window.
    pub fn scenario(self, seed: u64, candidate: Option<Candidate>) -> Scenario {
        let mut sc = Scenario::new(self.link(), Dur::from_secs_f64(self.secs)).flow(
            FlowSpec::bulk("primary", Dur::ZERO, move || cc(self.primary, seed)),
        );
        if let Some(cand) = candidate {
            let start = Dur::from_secs_f64(self.secs * 0.25);
            sc = sc.flow(FlowSpec::bulk("tune-cand", start, move || {
                // Mode construction happens here, inside the worker: the
                // hybrid variant's SharedThreshold is deliberately !Send.
                Box::new(ProteusSender::with_config(
                    cand.config(seed ^ 0x5A),
                    cand.mode(),
                ))
            }));
        }
        sc.with_seed(seed).with_rtt_stride(2)
    }
}

/// The `--quick` scenario set: two CUBIC cells, 16 s horizons.
pub fn quick_scenarios() -> Vec<EvalScenario> {
    vec![
        EvalScenario {
            name: "cubic-50M-30ms",
            primary: "CUBIC",
            bw_mbps: 50.0,
            rtt_ms: 30.0,
            buffer_bdp: 2.0,
            secs: 16.0,
        },
        EvalScenario {
            name: "cubic-20M-50ms",
            primary: "CUBIC",
            bw_mbps: 20.0,
            rtt_ms: 50.0,
            buffer_bdp: 1.0,
            secs: 16.0,
        },
    ]
}

/// The full scenario set: the quick cells at 30 s plus a BBR primary.
pub fn full_scenarios() -> Vec<EvalScenario> {
    let mut v = quick_scenarios();
    for s in &mut v {
        s.secs = 30.0;
    }
    v.push(EvalScenario {
        name: "bbr-50M-30ms",
        primary: "BBR",
        bw_mbps: 50.0,
        rtt_ms: 30.0,
        buffer_bdp: 2.0,
        secs: 30.0,
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn links_respect_bdp_buffers() {
        let s = &quick_scenarios()[0];
        let link = s.link();
        // 50 Mbps * 30 ms = 187.5 KB BDP; 2 BDP = 375 KB.
        assert_eq!(link.buffer_bytes, 375_000);
        assert_eq!(link.bandwidth_mbps, 50.0);
    }

    #[test]
    fn tags_distinguish_scenarios() {
        let all = full_scenarios();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.tag(), b.tag());
            }
        }
    }
}
