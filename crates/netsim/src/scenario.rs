//! Scenario description: a topology of bottleneck links plus a set of flows.
//!
//! Experiments in the paper are all "N flows over one emulated bottleneck",
//! optionally with Poisson cross-traffic (Fig. 2). [`Scenario`] captures
//! that shape declaratively — and generalizes it to multi-bottleneck
//! [`Topology`]s with per-flow paths (SCENARIOS.md "Topologies") — while
//! `run()` (in [`crate::engine`]) executes it.

use proteus_transport::{Application, BulkApp, CcFactory, CongestionControl, Dur, SizedApp};

use crate::fault::FaultSchedule;
use crate::noise::NoiseConfig;
use crate::topology::{LinkId, Topology};

/// Bottleneck link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Bottleneck bandwidth, Mbit/sec.
    pub bandwidth_mbps: f64,
    /// Base two-way propagation RTT (no queueing).
    pub rtt: Dur,
    /// Bottleneck buffer, bytes.
    pub buffer_bytes: u64,
    /// Probability of non-congestion ("random") loss per data packet.
    pub random_loss: f64,
    /// Latency-noise model on the path.
    pub noise: NoiseConfig,
}

impl LinkSpec {
    /// The paper's default emulated bottleneck: 50 Mbps, 30 ms RTT,
    /// 2-BDP (375 KB) buffer, clean path.
    pub fn paper_default() -> Self {
        Self {
            bandwidth_mbps: 50.0,
            rtt: Dur::from_millis(30),
            buffer_bytes: 375_000,
            random_loss: 0.0,
            noise: NoiseConfig::None,
        }
    }

    /// Creates a clean link with the given bandwidth/RTT/buffer.
    pub fn new(bandwidth_mbps: f64, rtt: Dur, buffer_bytes: u64) -> Self {
        Self {
            bandwidth_mbps,
            rtt,
            buffer_bytes,
            random_loss: 0.0,
            noise: NoiseConfig::None,
        }
    }

    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bandwidth_mbps * 1e6 / 8.0 * self.rtt.as_secs_f64()).round() as u64
    }

    /// Returns a copy with the buffer set to `x` BDPs.
    pub fn with_buffer_bdp(mut self, x: f64) -> Self {
        self.buffer_bytes = ((self.bdp_bytes() as f64) * x).round().max(1.0) as u64;
        self
    }

    /// Returns a copy with the buffer set in bytes.
    pub fn with_buffer_bytes(mut self, b: u64) -> Self {
        self.buffer_bytes = b;
        self
    }

    /// Returns a copy with the given random loss probability.
    pub fn with_random_loss(mut self, p: f64) -> Self {
        debug_assert!((0.0..1.0).contains(&p));
        self.random_loss = p;
        self
    }

    /// Returns a copy with the given noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = noise;
        self
    }

    /// Link rate in bits/sec.
    pub fn rate_bps(&self) -> f64 {
        self.bandwidth_mbps * 1e6
    }
}

/// Factory for a flow's congestion controller.
pub type CcBuilder = Box<dyn FnOnce() -> Box<dyn CongestionControl>>;
/// Factory for a flow's application model.
pub type AppBuilder = Box<dyn FnOnce() -> Box<dyn Application>>;

/// One flow in a scenario.
pub struct FlowSpec {
    /// Label used in reports.
    pub name: String,
    /// When the flow starts, relative to simulation start.
    pub start: Dur,
    /// When the flow stops, if before the end of the run.
    pub stop: Option<Dur>,
    /// Congestion-controller factory.
    pub cc: CcBuilder,
    /// Application factory.
    pub app: AppBuilder,
    /// Whether lost bytes are retransmitted (needed by sized transfers).
    pub reliable: bool,
    /// Links this flow traverses, in hop order (ids into
    /// [`Topology::links`]). `None` means the default path: every link in
    /// id order.
    pub path: Option<Vec<LinkId>>,
}

impl FlowSpec {
    /// A long-running bulk flow with the given controller.
    pub fn bulk(
        name: impl Into<String>,
        start: Dur,
        cc: impl FnOnce() -> Box<dyn CongestionControl> + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            start,
            stop: None,
            cc: Box::new(cc),
            app: Box::new(|| Box::new(BulkApp)),
            reliable: false,
            path: None,
        }
    }

    /// A fixed-size reliable transfer (web object, cross-traffic flow).
    pub fn sized(
        name: impl Into<String>,
        start: Dur,
        bytes: u64,
        cc: impl FnOnce() -> Box<dyn CongestionControl> + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            start,
            stop: None,
            cc: Box::new(cc),
            app: Box::new(move || Box::new(SizedApp::new(bytes))),
            reliable: true,
            path: None,
        }
    }

    /// Returns this spec with a stop time.
    pub fn with_stop(mut self, stop: Dur) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Returns this spec with a custom application.
    pub fn with_app(mut self, app: impl FnOnce() -> Box<dyn Application> + 'static) -> Self {
        self.app = Box::new(app);
        self
    }

    /// Returns this spec with reliability (retransmission of lost bytes)
    /// enabled or disabled.
    pub fn with_reliability(mut self, reliable: bool) -> Self {
        self.reliable = reliable;
        self
    }

    /// Returns this spec routed over the given links, in hop order. Paths
    /// must be non-empty, duplicate-free and name links that exist in the
    /// scenario's [`Topology`] (validated when the simulation is built).
    pub fn with_path(mut self, path: impl Into<Vec<LinkId>>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl std::fmt::Debug for FlowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSpec")
            .field("name", &self.name)
            .field("start", &self.start)
            .field("stop", &self.stop)
            .field("reliable", &self.reliable)
            .field("path", &self.path)
            .finish()
    }
}

/// Poisson cross-traffic: short flows with uniformly distributed sizes, as
/// used for the Fig.-2 "impending congestion" workload.
pub struct CrossTrafficSpec {
    /// Mean arrivals per second.
    pub arrivals_per_sec: f64,
    /// Uniform flow-size range in bytes (paper: 20–100 KB).
    pub size_range: (u64, u64),
    /// Controller factory for the short flows.
    pub cc: CcFactory,
    /// When arrivals begin.
    pub start: Dur,
    /// When arrivals end.
    pub stop: Dur,
}

impl std::fmt::Debug for CrossTrafficSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossTrafficSpec")
            .field("arrivals_per_sec", &self.arrivals_per_sec)
            .field("size_range", &self.size_range)
            .field("start", &self.start)
            .field("stop", &self.stop)
            .finish()
    }
}

/// One traffic class in a churned population: a share of arrivals handled
/// by a given congestion controller.
pub struct ChurnClass {
    /// Label prefix used in reports (flows are named `{name}~{n}`).
    pub name: String,
    /// Relative arrival share; shares are normalized across classes, so
    /// `[2.0, 1.0]` means two-thirds / one-third of arrivals.
    pub weight: f64,
    /// Controller factory for flows of this class.
    pub cc: CcFactory,
    /// Links flows of this class traverse, in hop order. `None` means the
    /// default path: every link in id order.
    pub path: Option<Vec<LinkId>>,
}

impl ChurnClass {
    /// Creates a class with the given label, arrival share and controller.
    pub fn new(name: impl Into<String>, weight: f64, cc: CcFactory) -> Self {
        Self {
            name: name.into(),
            weight,
            cc,
            path: None,
        }
    }

    /// Returns this class routed over the given links, in hop order (same
    /// validation rules as [`FlowSpec::with_path`]).
    pub fn with_path(mut self, path: impl Into<Vec<LinkId>>) -> Self {
        self.path = Some(path.into());
        self
    }
}

impl std::fmt::Debug for ChurnClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnClass")
            .field("name", &self.name)
            .field("weight", &self.weight)
            .field("path", &self.path)
            .finish()
    }
}

/// Poisson flow churn: long-lived bulk flows arrive at rate
/// `arrivals_per_sec` and each lives for an exponentially distributed
/// lifetime with mean `mean_lifetime`, giving a steady-state population of
/// `arrivals_per_sec x mean_lifetime` (plus `initial`) flows drawn from
/// `classes`.
///
/// Churn draws come from a dedicated RNG stream
/// (`seed ^ CHURN_SEED_SALT`, mirroring the fault layer's salt discipline)
/// so attaching churn to a scenario leaves every other random draw — loss,
/// noise, cross-traffic — untouched.
pub struct ChurnSpec {
    /// Mean flow arrivals per second (Poisson process).
    pub arrivals_per_sec: f64,
    /// Mean flow lifetime (exponential).
    pub mean_lifetime: Dur,
    /// Flows already running when arrivals begin (steady-state warm start).
    pub initial: usize,
    /// Traffic classes arrivals are drawn from (weights normalized).
    pub classes: Vec<ChurnClass>,
    /// When arrivals begin.
    pub start: Dur,
    /// When arrivals end (running flows still age out naturally).
    pub stop: Dur,
}

impl ChurnSpec {
    /// Creates a churn spec starting at t=0 and running for the whole
    /// scenario (`stop` = [`Dur::MAX`] is clamped to the run's duration).
    pub fn new(arrivals_per_sec: f64, mean_lifetime: Dur, classes: Vec<ChurnClass>) -> Self {
        Self {
            arrivals_per_sec,
            mean_lifetime,
            initial: 0,
            classes,
            start: Dur::ZERO,
            stop: Dur::MAX,
        }
    }

    /// Returns this spec with an initial warm-start population.
    pub fn with_initial(mut self, initial: usize) -> Self {
        self.initial = initial;
        self
    }

    /// Returns this spec with an arrival window.
    pub fn with_window(mut self, start: Dur, stop: Dur) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }
}

impl std::fmt::Debug for ChurnSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChurnSpec")
            .field("arrivals_per_sec", &self.arrivals_per_sec)
            .field("mean_lifetime", &self.mean_lifetime)
            .field("initial", &self.initial)
            .field("classes", &self.classes)
            .field("start", &self.start)
            .field("stop", &self.stop)
            .finish()
    }
}

/// Telemetry sampling period of a traced run ([`Scenario::with_trace`]),
/// which is also how often the engine drains the controllers' decision
/// rings.
pub const TRACE_EVERY: Dur = Dur::from_millis(100);

/// A complete simulation scenario.
pub struct Scenario {
    /// The bottleneck links (a single dumbbell unless built with
    /// [`Scenario::over`]) and their fault schedules. Flows traverse every
    /// link in id order unless they declare a [`FlowSpec::with_path`].
    pub topology: Topology,
    /// Static flows.
    pub flows: Vec<FlowSpec>,
    /// Optional Poisson cross-traffic generator.
    pub cross_traffic: Option<CrossTrafficSpec>,
    /// Total simulated time.
    pub duration: Dur,
    /// RNG seed (loss, noise, arrivals).
    pub seed: u64,
    /// Throughput-bin width for per-flow timelines (default 1 s).
    pub throughput_bin: Dur,
    /// Keep every `stride`-th RTT sample (1 = all).
    pub rtt_stride: usize,
    /// Record per-flow telemetry ([`crate::metrics::TraceEvent`]) every
    /// [`TRACE_EVERY`]: set by [`Scenario::with_trace`].
    pub traced: bool,
    /// Poisson flow churn (population scenarios), if any. `None` keeps the
    /// static-flow path: existing results stay byte-identical.
    pub churn: Option<ChurnSpec>,
}

impl Scenario {
    /// Creates a single-bottleneck scenario with sensible defaults (1 s
    /// throughput bins, all RTT samples, no telemetry). Equivalent to
    /// `Scenario::over(Topology::single(link), duration)`.
    pub fn new(link: LinkSpec, duration: Dur) -> Self {
        Self::over(Topology::single(link), duration)
    }

    /// Creates a scenario over an arbitrary multi-link [`Topology`] with
    /// the same defaults as [`Scenario::new`].
    pub fn over(topology: Topology, duration: Dur) -> Self {
        Self {
            topology,
            flows: Vec::new(),
            cross_traffic: None,
            duration,
            seed: 1,
            throughput_bin: Dur::from_secs(1),
            rtt_stride: 1,
            traced: false,
            churn: None,
        }
    }

    /// Adds a flow.
    pub fn flow(mut self, flow: FlowSpec) -> Self {
        self.flows.push(flow);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets cross traffic.
    pub fn with_cross_traffic(mut self, ct: CrossTrafficSpec) -> Self {
        self.cross_traffic = Some(ct);
        self
    }

    /// Sets the throughput bin width.
    ///
    /// # Panics
    /// Panics if `bin` is zero (a goodput timeline of zero-width bins would
    /// hold one entry per simulated nanosecond).
    pub fn with_throughput_bin(mut self, bin: Dur) -> Self {
        assert!(!bin.is_zero(), "the throughput bin must be positive");
        self.throughput_bin = bin;
        self
    }

    /// Sets the RTT downsampling stride.
    pub fn with_rtt_stride(mut self, stride: usize) -> Self {
        self.rtt_stride = stride.max(1);
        self
    }

    /// Traces the run: every [`TRACE_EVERY`], each active flow's rate,
    /// window, in-flight bytes, RTT estimator state and controller internals
    /// are recorded into [`crate::metrics::SimResult::trace`].
    ///
    /// A traced run also records every controller that has decision points:
    /// each flow — static, churned or cross traffic — is spawned with its
    /// [`proteus_transport::CongestionControl::decision_traced`] twin, whose
    /// events land in [`crate::metrics::SimResult::decisions`], drained on
    /// the same cadence. Results are unchanged; a caller that only wants
    /// the samples still fills the rings, and need not export them.
    pub fn with_trace(mut self) -> Self {
        self.traced = true;
        self
    }

    /// Attaches a fault schedule to link 0 (see [`FaultSchedule`]):
    /// shorthand for [`Topology::with_faults`]`(0, faults)` on the
    /// scenario's topology, with its rules — an empty schedule is no
    /// schedule.
    ///
    /// # Panics
    /// Panics if link 0 already has a schedule, however it was attached.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.topology = self.topology.with_faults(0, faults);
        self
    }

    /// Attaches Poisson flow churn (see [`ChurnSpec`]). A spec with no
    /// classes is treated as no churn.
    ///
    /// # Panics
    /// Panics if the class weights do not sum to a positive, finite number
    /// (arrivals could not be shared out between the classes).
    pub fn with_churn(mut self, churn: ChurnSpec) -> Self {
        if churn.classes.is_empty() {
            self.churn = None;
            return self;
        }
        let total: f64 = churn.classes.iter().map(|c| c.weight).sum();
        assert!(
            total > 0.0 && total.is_finite(),
            "churn class weights must sum to a positive number, got {total}"
        );
        self.churn = Some(churn);
        self
    }
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("topology", &self.topology)
            .field("flows", &self.flows)
            .field("cross_traffic", &self.cross_traffic)
            .field("duration", &self.duration)
            .field("seed", &self.seed)
            .field("churn", &self.churn)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdp_math() {
        let l = LinkSpec::paper_default();
        // 50 Mbps * 30 ms = 187.5 KB
        assert_eq!(l.bdp_bytes(), 187_500);
        assert_eq!(l.with_buffer_bdp(2.0).buffer_bytes, 375_000);
        assert_eq!(l.with_buffer_bdp(0.4).buffer_bytes, 75_000);
    }

    #[test]
    fn over_and_paths_compose() {
        let link = LinkSpec::paper_default();
        let sc = Scenario::over(Topology::parking_lot(3, link), Dur::from_secs(5))
            .flow(FlowSpec::bulk("long", Dur::ZERO, || unreachable!()).with_path([0u16, 1, 2]));
        assert_eq!(sc.topology.len(), 3);
        assert_eq!(sc.flows[0].path.as_deref(), Some(&[0u16, 1, 2][..]));
        // Scenario::new is sugar for a single-link topology.
        let sc = Scenario::new(link, Dur::from_secs(5));
        assert_eq!(sc.topology.len(), 1);
        assert!(sc.topology.faults[0].is_none());
    }

    fn outage() -> FaultSchedule {
        FaultSchedule::new().outage(Dur::from_secs(1), Dur::from_secs(1))
    }

    #[test]
    fn with_faults_is_the_topology_call_on_link_0() {
        let link = LinkSpec::paper_default();
        let sc = Scenario::new(link, Dur::from_secs(5)).with_faults(outage());
        assert_eq!(sc.topology.faults[0].as_ref().unwrap().link_events.len(), 2);
        // An empty schedule is no schedule, and leaves room for a real one.
        let sc = Scenario::over(Topology::parking_lot(2, link), Dur::from_secs(5))
            .with_faults(FaultSchedule::new())
            .with_faults(outage());
        assert!(sc.topology.faults[0].is_some() && sc.topology.faults[1].is_none());
    }

    #[test]
    #[should_panic(expected = "link 0 already has a fault schedule")]
    fn with_faults_twice_is_rejected_at_the_builder() {
        let _ = Scenario::new(LinkSpec::paper_default(), Dur::from_secs(5))
            .with_faults(outage())
            .with_faults(outage());
    }

    #[test]
    #[should_panic(expected = "link 0 already has a fault schedule")]
    fn with_faults_after_the_topology_attachment_is_rejected_at_the_builder() {
        let topo = Topology::single(LinkSpec::paper_default()).with_faults(0, outage());
        let _ = Scenario::over(topo, Dur::from_secs(5)).with_faults(outage());
    }

    #[test]
    #[should_panic(expected = "the throughput bin must be positive")]
    fn zero_throughput_bin_is_rejected() {
        let _ = Scenario::new(LinkSpec::paper_default(), Dur::from_secs(5))
            .with_throughput_bin(Dur::ZERO);
    }

    /// The controller factories are never called: `with_churn` only reads
    /// the weights.
    fn churn_with_weights(weights: &[f64]) -> Scenario {
        let class = |&w: &f64| ChurnClass::new("c", w, Box::new(|_| unreachable!()));
        let classes = weights.iter().map(class).collect();
        Scenario::new(LinkSpec::paper_default(), Dur::from_secs(5)).with_churn(ChurnSpec::new(
            1.0,
            Dur::from_secs(1),
            classes,
        ))
    }

    #[test]
    fn churn_weights_need_a_positive_sum() {
        assert!(churn_with_weights(&[2.0, 0.0, 1.0]).churn.is_some());
        assert!(
            churn_with_weights(&[]).churn.is_none(),
            "no classes, no churn"
        );
        for bad in [&[0.0, 0.0][..], &[1.0, -1.0], &[-2.0], &[f64::NAN, 1.0]] {
            let built = std::panic::catch_unwind(|| churn_with_weights(bad));
            assert!(built.is_err(), "weights {bad:?} must be rejected");
        }
    }

    #[test]
    fn builders_compose() {
        let l = LinkSpec::new(100.0, Dur::from_millis(60), 1_500_000)
            .with_random_loss(0.01)
            .with_noise(NoiseConfig::wifi_default());
        assert_eq!(l.random_loss, 0.01);
        assert!(matches!(l.noise, NoiseConfig::Wifi(_)));
        assert_eq!(l.rate_bps(), 100e6);
    }
}
