//! What a run records besides its metrics: periodic per-flow samples
//! ([`TraceEvent`], `Scenario::with_trace`) and the decision stream
//! (events drained from controllers carrying a recording `proteus-trace`
//! sink, plus link-scoped fault records).
//!
//! [`Telemetry`] owns both streams and their scratch buffers and reads the
//! flows it is shown; the engine schedules a `TraceSample` event for each
//! [`Telemetry::next_sample`].

use proteus_trace::{DecisionEvent, EventKind, Fault, FlowEvent, LINK_FLOW};
use proteus_transport::{Dur, FlowId, Time};

use crate::flows::FlowTable;
use crate::metrics::TraceEvent;

/// The run's sample and decision streams (see module docs).
pub(crate) struct Telemetry {
    /// Sampling period (`None`: no samples, decisions drained at
    /// retirement and run end only).
    every: Option<Dur>,
    trace: Vec<TraceEvent>,
    decisions: Vec<FlowEvent>,
    /// Reusable drain buffer for one controller's decisions.
    decision_scratch: Vec<DecisionEvent>,
    /// Reusable sorted-id buffer for the sweeps.
    id_scratch: Vec<u32>,
}

impl Telemetry {
    pub fn new(every: Option<Dur>) -> Self {
        Telemetry {
            every,
            trace: Vec::new(),
            decisions: Vec::new(),
            decision_scratch: Vec::new(),
            id_scratch: Vec::new(),
        }
    }

    /// Whether the run samples a trace — and so records every controller's
    /// decisions (see `Sim::spawn`).
    pub fn samples(&self) -> bool {
        self.every.is_some()
    }

    /// When the sampling tick after `after` is due, if sampling is on.
    pub fn next_sample(&self, after: Time) -> Option<Time> {
        self.every.map(|every| after + every)
    }

    /// One sampling tick: a [`TraceEvent`] per active flow in id order
    /// (walking the active list rather than every flow ever created), then
    /// a decision sweep — which bounds how full a flow's ring sink can get
    /// between ticks.
    pub fn sample(&mut self, now: Time, flows: &mut FlowTable) {
        let t = now.as_secs_f64();
        flows.sorted_active(&mut self.id_scratch);
        for &id in &self.id_scratch {
            let id = id as usize;
            let (cc, rtt) = (&flows.cc[id], &flows.rtt[id]);
            let snap = cc.snapshot();
            self.trace.push(TraceEvent {
                t,
                flow: id,
                rate_mbps: cc.pacing_rate().map(|bps| bps * 8.0 / 1e6),
                cwnd_bytes: Some(cc.cwnd_bytes()).filter(|&w| w != u64::MAX),
                inflight_bytes: flows.inflight_bytes[id],
                srtt_ms: rtt.srtt().map(|d| d.as_secs_f64() * 1e3),
                rttvar_ms: rtt.srtt().map(|_| rtt.rttvar().as_secs_f64() * 1e3),
                utility: snap.as_ref().and_then(|s| s.utility),
                mode: snap.as_ref().and_then(|s| s.mode),
                mode_switches: snap.map_or(0, |s| s.mode_switches),
            });
        }
        self.drain(flows);
    }

    /// Moves buffered decision events out of every controller that can
    /// still produce them — active and lingering flows, in id order: flows
    /// not yet started have never had a controller callback, and retired
    /// flows were drained when they retired.
    fn drain(&mut self, flows: &mut FlowTable) {
        flows.sweep_ids(&mut self.id_scratch);
        for i in 0..self.id_scratch.len() {
            self.drain_flow(flows, self.id_scratch[i] as usize);
        }
    }

    /// Moves one controller's buffered decision events to the run's stream,
    /// labelled with the flow id.
    pub fn drain_flow(&mut self, flows: &mut FlowTable, flow: FlowId) {
        self.decision_scratch.clear();
        flows.cc[flow].drain_decisions(&mut self.decision_scratch);
        let flow = flow as u32;
        self.decisions.extend(
            self.decision_scratch
                .iter()
                .map(|&event| FlowEvent { flow, event }),
        );
    }

    /// Appends a link-scoped fault record to the decision stream.
    pub fn fault(&mut self, now: Time, fault: Fault) {
        self.decisions.push(FlowEvent {
            flow: LINK_FLOW,
            event: DecisionEvent {
                t_ns: now.as_nanos(),
                kind: EventKind::Fault(fault),
            },
        });
    }

    /// Final decision sweep (stopped flows included), then the two streams.
    /// Sweeps interleave flows, so the decisions are put back in global
    /// timestamp order; the sort is stable, which keeps each flow's own
    /// order.
    pub fn finish(mut self, flows: &mut FlowTable) -> (Vec<TraceEvent>, Vec<FlowEvent>) {
        self.drain(flows);
        self.decisions.sort_by_key(|fe| fe.event.t_ns);
        (self.trace, self.decisions)
    }
}
